"""Span recording around polyprime's layer functions, from outside the package.

``Tracer.install`` replaces every module-level binding of the functions in
``LAYERS`` with a recorder.  A function imported by name into several
modules (``find_zigzag_walk`` is bound in ``zigzag``, ``toric``,
``families``, ``cli`` and the package itself) is wrapped in each of them,
so calls are caught whichever module makes them.  Spans stay in memory
until the run ends; ``layer_metrics`` turns them into the per-layer
figures named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

from polyprime.toric import Budget

# (module, function) of every layer boundary that gets a span.
LAYERS = (
    ("families", "enumerate_closed_paths"),
    ("families", "canonical_form"),
    ("families", "examine_shape"),
    ("classify", "closed_path_certificate"),
    ("classify", "find_l_configurations"),
    ("classify", "find_ladders"),
    ("zigzag", "find_zigzag_walk"),
    ("zigzag", "verify_zigzag"),
    ("grid", "inner_intervals"),
    ("grid", "holes"),
    ("ideals", "inner_minors"),
    ("ideals", "check_containment"),
    ("ideals", "toric_map_lconfig"),
    ("ideals", "toric_map_ladder"),
    ("ideals", "toric_map_marked"),
    ("toric", "saturate_engine"),
    ("toric", "buchberger_engine"),
    ("toric", "buchberger"),
    ("toric", "toric_ideal"),
    ("toric", "attempt_equality"),
    ("toric", "integer_kernel"),
)

TORIC_MAPS = ("ideals.toric_map_lconfig", "ideals.toric_map_ladder", "ideals.toric_map_marked")


@dataclass(frozen=True)
class CountingBudget(Budget):
    """No caps; each Buchberger run it starts adds its S-pairs to ``tally[0]``."""

    tally: list = field(default_factory=lambda: [0], compare=False, repr=False)

    def start(self) -> "_PairCounter":
        return _PairCounter(self.tally)


class _PairCounter:
    def __init__(self, tally: list):
        self.tally = tally

    def tick_pair(self, degree: int) -> None:
        self.tally[0] += 1


def shape_id(cells) -> str:
    return hashlib.sha1(repr(tuple(cells)).encode()).hexdigest()[:12]


class Tracer:
    """Records spans as [name, start, end, parent index, shape id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: str | None = None  # shape id for spans with no parent
        self.yields: dict[str, int] = {}
        self.basis_out = 0
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for module_name, function_name in LAYERS:
            original = getattr(sys.modules[f"polyprime.{module_name}"], function_name)
            wrappers[id(original)] = (original, self._wrap(f"{module_name}.{function_name}", original))
        for module_name, module in list(sys.modules.items()):
            if module_name != "polyprime" and not module_name.startswith("polyprime."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._restore:
            setattr(module, attr, value)
        self._restore.clear()

    def _open(self, name: str, shape: str | None = None) -> int:
        parent = self.stack[-1] if self.stack else None
        if shape is None:
            shape = self.request if parent is None else self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), 0.0, parent, shape])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # A generator runs only while it is resumed: one span per resume,
            # so the consumer's work between items is not charged to it.
            def segments(gen):
                while True:
                    index = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    self.yields[name] = self.yields.get(name, 0) + 1
                    yield item

            def wrapper(*args, **kwargs):
                return segments(fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                shape = shape_id(args[0]) if name == "families.examine_shape" else None
                index = self._open(name, shape)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
                if name == "toric.buchberger_engine":
                    self.basis_out += len(result)
                return result
        return functools.wraps(fn)(wrapper)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


@dataclass
class _Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


def _aggregate(spans: list[list]) -> dict[str, _Layer]:
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    layers: dict[str, _Layer] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        layer = layers.setdefault(name, _Layer())
        layer.calls += 1
        layer.total_s += end - start
        layer.self_s += end - start - child_time[index]
        layer.durations.append(end - start)
    return layers


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  spairs: int) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed as in BENCHMARK.json."""
    layers = _aggregate(tracer.spans)
    get = lambda name: layers.get(name, _Layer())
    examine = get("families.examine_shape").durations
    covered = sum(end - start for _, start, end, parent, _ in tracer.spans if parent is None)
    metrics: dict[str, float] = {
        "families.enumerate_closed_paths.self_s": get("families.enumerate_closed_paths").self_s,
        "families.enumerate_closed_paths.shapes": tracer.yields.get("families.enumerate_closed_paths", 0),
        "families.canonical_form.calls": get("families.canonical_form").calls,
        "families.canonical_form.self_s": get("families.canonical_form").self_s,
        "families.examine_shape.calls": len(examine),
        "families.examine_shape.p50_s": statistics.median(examine) if examine else 0.0,
        "families.examine_shape.max_s": max(examine, default=0.0),
    }
    for name in ("classify.closed_path_certificate", "classify.find_l_configurations",
                 "classify.find_ladders", "zigzag.find_zigzag_walk", "zigzag.verify_zigzag",
                 "grid.inner_intervals"):
        metrics[f"{name}.calls"] = get(name).calls
        metrics[f"{name}.self_s"] = get(name).self_s
    metrics.update({
        "grid.holes.self_s": get("grid.holes").self_s,
        "ideals.inner_minors.self_s": get("ideals.inner_minors").self_s,
        "ideals.check_containment.self_s": get("ideals.check_containment").self_s,
        "ideals.toric_map.self_s": sum(get(name).self_s for name in TORIC_MAPS),
        "toric.saturate_engine.calls": get("toric.saturate_engine").calls,
        "toric.saturate_engine.total_s": get("toric.saturate_engine").total_s,
        "toric.buchberger_engine.calls": get("toric.buchberger_engine").calls,
        "toric.buchberger_engine.self_s": get("toric.buchberger_engine").self_s,
        "toric.buchberger.total_s": get("toric.buchberger").total_s,
        "toric.toric_ideal.total_s": get("toric.toric_ideal").total_s,
        "toric.attempt_equality.total_s": get("toric.attempt_equality").total_s,
        "toric.integer_kernel.self_s": get("toric.integer_kernel").self_s,
        "toric.spairs": spairs,
        "toric.basis_out": tracer.basis_out,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": traced_wall - covered,
    })
    return metrics
