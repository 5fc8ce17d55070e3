"""The benchmark's tracing contract, read from ``bench/spans.py`` as it stands.

The traced benchmark replaces the module-level bindings of the layer
functions in ``spans.LAYERS`` and counts S-pairs with a budget whose clock
has nothing but ``tick_pair``.  Both only work while the package keeps
those functions at module level and calls nothing else on a clock.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from polyprime.classify import find_l_configurations
from polyprime.ideals import toric_map_lconfig, toric_map_marked
from polyprime.toric import Budget, certify_primality, toric_ideal

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture()
def spans(monkeypatch):
    # Load without leaving a bytecode cache next to the benchmark sources.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_a_module_level_function(spans):
    for module_name, function_name in spans.LAYERS:
        module = importlib.import_module(f"polyprime.{module_name}")
        function = getattr(module, function_name)
        assert callable(function), (module_name, function_name)
        assert function.__module__ == module.__name__, (module_name, function_name)
        assert function.__qualname__ == function_name, (module_name, function_name)


def test_a_tick_only_clock_gives_the_same_results(spans, frame3):
    counting = spans.CountingBudget()
    clock = counting.start()
    assert callable(clock.tick_pair) and not hasattr(clock, "pairs")

    assert certify_primality(frame3, counting) == certify_primality(frame3, Budget())
    assert counting.tally[0] == 171  # one saturation-check run per orbit, 3 of them

    # One clock takes every S-pair of the n saturations and the final run.
    for phi, spairs in ((toric_map_marked(frame3, ()), 3337),
                        (toric_map_lconfig(frame3, find_l_configurations(frame3)[0]), 1988)):
        counting = spans.CountingBudget()
        assert toric_ideal(phi.entries, counting) == toric_ideal(phi.entries, Budget())
        assert counting.tally[0] == spairs
