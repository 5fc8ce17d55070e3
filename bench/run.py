"""polyprime benchmark: time the package from outside, through its public functions.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  Each call starts fresh
interpreters (bench/worker.py): several that only set up, then one that
measures.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a traced pass.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See bench/README.md
for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_RUNS = 9  # set-up-only interpreters per run; the measuring one adds a tenth sample
DEADLINE_S = 170  # every run ends within 180 s


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def worker_env() -> dict:
    # No result cache (it would skip the measured work), this checkout's
    # sources only, and a fixed string hash so set orders repeat run to run.
    env = {k: v for k, v in os.environ.items() if k not in ("POLYPRIME_CACHE", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def run_worker(args, deadline: float, setup_only: bool = False) -> dict:
    command = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[dict], result: dict) -> dict:
    passes = result["passes"]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "shapes_per_s": (statistics.median(p["shapes"] / p["wall_s"] for p in passes), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "ok_frac": (1 - result["failed"] / result["attempted"], "fraction"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polyprime" / "__init__.py").is_file():
        print(f"no polyprime sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    print("environment " + json.dumps(environment()), flush=True)
    try:
        setups = [run_worker(args, deadline, setup_only=True) for _ in range(SETUP_RUNS)]
        result = run_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result)
    if args.trace:
        metrics = {name: (value, "s" if name.endswith("_s") else "count")
                   for name, value in result["layers"].items()}
    else:
        metrics = end_to_end(setups, result)
        for key in ("wall_s", "raw_s", "slowness"):
            print(f"passes {key}: " + " ".join(f"{p[key]:.3f}" for p in result["passes"]))
        print(f"setup_raw_s {statistics.median(s['setup_raw_s'] for s in setups):.6g} s")
        print(f"failed_frac {result['failed'] / result['attempted']:.6g} fraction")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
