"""One benchmark process: import polyprime, run one workload's passes, check them.

run.py starts this file in a fresh interpreter for every call, so peak
memory and set-up time belong to one workload.  It prints one JSON object
on stdout; tracebacks of failed operations go to stderr.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from itertools import product
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

CERTIFY_GRIDS = ("frame3", "diamond16", "pinwheel20", "ring22")
FAMILY_SPEC = "good_l_rectangle"
# name -> (max rank, certify); the sweeps are exhaustive, so the seed does not touch them.
SWEEPS = {"sweep_certify_r14": (14, True), "sweep_structural_r18": (18, False)}
WORKLOADS = ("certify_shapes", *SWEEPS)

SAMPLE_EVERY_S = 0.05
# What one host-speed sample takes at the reference speed, a typical figure
# for a 2.0 GHz "Intel Xeon Processor" vCPU with Python 3.11 when the host
# is quiet.  Scaled times are seconds at that speed.
REFERENCE_SAMPLE_S = 2.0e-4


def shape_key(cells) -> str:
    """The benchmark's own canonical form: least of the eight dihedral images."""
    forms = []
    for sx, sy, swap in product((1, -1), (1, -1), (False, True)):
        pts = [((y if swap else x) * sx, (x if swap else y) * sy) for x, y in cells]
        lox = min(p[0] for p in pts)
        loy = min(p[1] for p in pts)
        forms.append(sorted((px - lox, py - loy) for px, py in pts))
    return json.dumps(min(forms), separators=(",", ":"))


def load_inputs(pp, workload: str, seed: int):
    if workload in SWEEPS:
        return SWEEPS[workload]
    shapes = ROOT / "shapes"
    items = [(name, pp.parse_grid((shapes / f"{name}.grid").read_text()), None)
             for name in CERTIFY_GRIDS]
    spec = json.loads((shapes / f"{FAMILY_SPEC}.json").read_text())
    cells = lambda key: tuple(tuple(c) for c in spec[key])
    shape, family = pp.build_rectangle_linked(
        pp.Polyomino.from_cells(cells("r")), pp.OpenPath(cells("p1")),
        pp.Polyomino.from_cells(cells("s")), pp.OpenPath(cells("p2")), kind=spec["kind"],
    )
    items.append((FAMILY_SPEC, shape, family))
    # The seed only orders the items.  Symmetric images are not used: their
    # Buchberger runs differ wildly in cost (ring22 turned 90 degrees takes
    # more than twice as long as shipped).
    random.Random(seed).shuffle(items)
    return items


def set_up(workload: str, seed: int):
    """(polyprime, inputs, set-up seconds at reference speed, as measured)."""
    host = HostSpeed()
    host.probe(20)
    t0 = time.perf_counter()
    import polyprime as pp
    inputs = load_inputs(pp, workload, seed)
    raw = time.perf_counter() - t0
    host.probe(20)
    if Path(pp.__file__).resolve().parent != ROOT / "src" / "polyprime":
        raise SystemExit(f"imported polyprime from {pp.__file__}, not from this checkout")
    return pp, inputs, raw / host.slowness(), raw


def clear_caches() -> None:
    """Empty polyprime's memo caches, so every pass does the work of a fresh run."""
    for name, module in list(sys.modules.items()):
        if name == "polyprime" or name.startswith("polyprime."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class HostSpeed:
    """Times a fixed pure-Python kernel 20 times a second while a pass runs.

    The host's speed swings by up to 1.7x between runs and from second to
    second, for every process on it.  The kernel's mean time over a pass
    says how fast the host ran during that pass, so the pass time can be
    scaled to a fixed reference speed.  The kernel does the kind of
    big-integer arithmetic the Buchberger engine does on packed exponent
    vectors.  It keeps nothing on the heap, so it sets off no garbage
    collection.  Each sample runs it twice and times the second run, so
    what the program left in the caches does not change the figure.
    """

    WORDS = tuple(((1 << 220) // (i + 3)) ^ (i * 0x9E3779B97F4A7C15) for i in range(64))
    HIGH_BITS = sum(1 << (8 * k + 7) for k in range(28))

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds in the sampler since start()

    def kernel(self) -> int:
        words, high, hits = self.WORDS, self.HIGH_BITS, 0
        for i in range(600):
            x, y = words[i & 63], words[(i * 7 + 3) & 63]
            d = (x | y) - x + (y >> 3)
            hits += (d & high == 0) + (x > y)
        return hits

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()  # refill the caches the program has taken over
        t1 = time.perf_counter()
        self.kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def start(self) -> None:
        self.samples.clear()
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe(self, count: int) -> None:
        """Take ``count`` samples back to back, outside any timed interval."""
        for _ in range(count):
            self._sample(None, None)

    def slowness(self) -> float:
        """Mean sample time over the reference one; 2.0 means half the reference speed."""
        if len(self.samples) < 10:
            raise RuntimeError(f"only {len(self.samples)} host-speed samples")
        return statistics.fmean(self.samples) / REFERENCE_SAMPLE_S


def run_pass(pp, workload: str, inputs, budget, tracer=None, host=None):
    """One timed pass.  Returns (seconds, outcome); outcome is what ``check`` reads."""
    clear_caches()
    gc.collect()
    if host is not None:
        host.start()
    t0 = time.perf_counter()
    try:
        outcome = call_workload(pp, workload, inputs, budget, tracer)
    finally:
        wall = time.perf_counter() - t0
        if host is not None:
            host.stop()
    return wall, outcome


def call_workload(pp, workload: str, inputs, budget, tracer):
    if workload in SWEEPS:
        rank, certify = inputs
        try:
            outcome = pp.verify_main_theorem(rank, budget, jobs=1, certify=certify)
        except Exception:
            traceback.print_exc()
            outcome = None
    else:
        outcome = []
        for name, shape, family in inputs:
            if tracer is not None:
                tracer.request = name
            try:
                if family is None:
                    verdict = pp.certify_primality(shape, budget)
                else:
                    verdict = pp.certify_family(shape, family, budget)
                outcome.append((name, verdict.to_json_dict()))
            except Exception:
                traceback.print_exc()
                outcome.append((name, None))
    return outcome


def check(workload: str, outcome, expected: dict) -> tuple[int, int, int, str | None]:
    """(attempted, failed, shapes finished, fingerprint) of one pass.

    One operation per shape, plus one for the sweep summary.  A raised
    exception, a verdict other than the stored one (a ``containment-only``
    downgrade included) or a wrong summary count is a failure.  Two passes
    of one run must give equal fingerprints.
    """
    want = expected["verdicts"]
    if workload not in SWEEPS:
        failed = sum(
            verdict is None or any(verdict.get(k) != v for k, v in want[name].items())
            for name, verdict in outcome
        )
        fingerprint = json.dumps(sorted(outcome, key=lambda item: item[0]), sort_keys=True)
        return len(outcome), failed, len(outcome) - failed, fingerprint
    if outcome is None:
        return len(want) + 1, len(want) + 1, 0, None
    failed = 0
    seen = set()
    for record in outcome.records:
        got = {
            "kind": record.verdict.get("kind"),
            "proof": record.verdict.get("proof"),
            "equality": record.verdict.get("equality"),
            "zigzag": record.zigzag,
        }
        key = shape_key(record.cells)
        failed += key in seen or want.get(key) != got
        seen.add(key)
    missing = len(want.keys() - seen)
    summary = outcome.summary()
    failed += missing + any(summary.get(k) != v for k, v in expected["summary"].items())
    attempted = len(outcome.records) + missing + 1
    return attempted, failed, len(outcome.records), outcome.to_json_lines()


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def counts_repeat(workload: str, layers: dict) -> bool:
    """Compare the count metrics with the last traced run of the same code.

    Counts must repeat exactly; the first traced run of a checkout has
    nothing to compare with and passes.
    """
    counts = {k: v for k, v in layers.items() if not k.endswith("_s")}
    path = OUT / f"counts-{workload}.json"
    digest = code_digest()
    previous = json.loads(path.read_text()) if path.exists() else None
    path.write_text(json.dumps({"code": digest, "counts": counts}, sort_keys=True) + "\n")
    return previous is None or previous["code"] != digest or previous["counts"] == counts


def measure(pp, args, inputs, expected) -> dict:
    """Untraced passes until --seconds is used up (sweeps: at least two).

    Each pass reports its wall time as measured (``raw_s``) and scaled to a
    reference speed (``wall_s``); see ``HostSpeed``.  The time the sampler
    took during a pass is subtracted from it.
    """
    min_passes = 2 if args.workload in SWEEPS else 1
    host = HostSpeed()
    passes = []
    attempted = failed = 0
    first = None
    t0 = time.perf_counter()
    while True:
        raw, outcome = run_pass(pp, args.workload, inputs, pp.Budget(), host=host)
        slowness = host.slowness()
        wall = (raw - host.spent) / slowness
        tried, bad, shapes, fingerprint = check(args.workload, outcome, expected)
        if passes:
            tried += 1
            bad += fingerprint is None or fingerprint != first
        else:
            first = fingerprint
        attempted += tried
        failed += bad
        passes.append({"wall_s": wall, "raw_s": raw, "slowness": slowness, "shapes": shapes})
        typical = statistics.median(p["raw_s"] for p in passes)
        if len(passes) >= min_passes and time.perf_counter() - t0 + typical > args.seconds:
            break
    return {"passes": passes, "attempted": attempted, "failed": failed}


def measure_traced(pp, args, inputs, expected) -> dict:
    """One untraced pass, then one traced pass; per-layer figures from the second."""
    import spans

    wall0, outcome0 = run_pass(pp, args.workload, inputs, pp.Budget())
    tried0, bad0, _, first = check(args.workload, outcome0, expected)
    tracer = spans.Tracer()
    budget = spans.CountingBudget()
    tracer.install()
    try:
        wall1, outcome1 = run_pass(pp, args.workload, inputs, budget, tracer)
    finally:
        tracer.uninstall()
    tried1, bad1, _, fingerprint = check(args.workload, outcome1, expected)
    layers = spans.layer_metrics(tracer, wall1, wall0, budget.tally[0])
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    same_output = fingerprint is not None and fingerprint == first
    repeat = counts_repeat(args.workload, layers)
    return {
        "layers": layers,
        "attempted": tried0 + tried1 + 2,
        "failed": bad0 + bad1 + (not same_output) + (not repeat),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    expected = json.loads((BENCH / "expected.json").read_text())[args.workload]
    pp, inputs, setup_s, setup_raw_s = set_up(args.workload, args.seed)
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    if not args.setup_only:
        run = measure_traced if args.trace else measure
        result.update(run(pp, args, inputs, expected))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
