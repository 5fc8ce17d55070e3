from __future__ import annotations

import copy
import pickle
from pathlib import Path

import pytest

from polyprime.classify import ClosedPathCert, LConfiguration, Ladder, OpenPath, Trimino
from polyprime.composites import FamilySpec
from polyprime.families import CanonicalForm, ShapeRecord, VerificationReport
from polyprime.grid import (
    Block,
    DisconnectedCellsError,
    EdgeInterval,
    EmptyPolyominoError,
    GridParseError,
    HORIZONTAL,
    Interval,
    Polyomino,
    TRANSFORM_NAMES,
    VERTICAL,
    edges,
    format_shape_json,
    holes,
    inner_intervals,
    is_connected,
    is_simple,
    maximal_blocks,
    maximal_edge_intervals,
    parse_grid,
    parse_shape_json,
    transform_cells,
    vertices,
)
from polyprime.ideals import ToricMap
from polyprime.toric import Budget, PrimalityVerdict
from polyprime.zigzag import ZigZagWalk

from conftest import rectangle

SHAPES = Path(__file__).resolve().parent.parent / "shapes"


def test_vertices_domino():
    domino = Polyomino.from_cells([(0, 0), (1, 0)])
    assert vertices(domino) == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)}


def test_vertices_frame3_covers_grid(frame3):
    assert vertices(frame3) == {(x, y) for x in range(4) for y in range(4)}


def test_vertices_single_cell():
    single = Polyomino.from_cells([(5, 7)])
    assert vertices(single) == {(5, 7), (6, 7), (5, 8), (6, 8)}


def test_is_connected():
    assert is_connected({(0, 0), (1, 0)})
    assert not is_connected({(0, 0), (1, 1)})  # diagonal touch is not adjacency
    assert is_connected(set(rectangle(3, 3).cells) - {(1, 1)})
    assert not is_connected(set())


def test_polyomino_construction_errors():
    with pytest.raises(EmptyPolyominoError):
        Polyomino.from_cells([])
    with pytest.raises(DisconnectedCellsError):
        Polyomino.from_cells([(0, 0), (2, 0)])


def test_holes_frame3(frame3):
    hole_list = holes(frame3)
    assert [sorted(h.cells) for h in hole_list] == [[(1, 1)]]
    assert not is_simple(frame3)


def test_holes_rectangle_empty():
    assert holes(rectangle(3, 2)) == []
    assert is_simple(rectangle(3, 2))


def test_holes_ring22(ring22):
    hole_list = holes(ring22)
    assert len(hole_list) == 1
    assert is_simple(hole_list[0])


def test_holes_are_simple_and_disjoint(frame3, ring22, pinwheel20):
    for shape in (frame3, ring22, pinwheel20):
        for hole in holes(shape):
            assert is_simple(hole)
            assert not (hole.cells & shape.cells)


def test_is_simple_l_trimino():
    assert is_simple(Polyomino.from_cells([(0, 0), (1, 0), (1, 1)]))


def test_maximal_edge_intervals_frame3(frame3):
    for orientation in (HORIZONTAL, VERTICAL):
        intervals = maximal_edge_intervals(frame3, orientation)
        assert len(intervals) == 4
        assert all(i.lo == 0 and i.hi == 3 for i in intervals)
        assert sorted(i.line for i in intervals) == [0, 1, 2, 3]


def test_maximal_edge_intervals_domino_vertical():
    domino = Polyomino.from_cells([(0, 0), (1, 0)])
    intervals = maximal_edge_intervals(domino, VERTICAL)
    assert [(i.line, i.lo, i.hi) for i in intervals] == [(0, 0, 1), (1, 0, 1), (2, 0, 1)]


def test_edge_partition_property(frame3, ring22):
    # Every edge of one orientation lies in exactly one maximal interval.
    for shape in (frame3, ring22):
        for orientation in (HORIZONTAL, VERTICAL):
            intervals = maximal_edge_intervals(shape, orientation)
            covered = {}
            for idx, interval in enumerate(intervals):
                for k in range(interval.lo, interval.hi):
                    key = (interval.line, k)
                    assert key not in covered
                    covered[key] = idx
            oriented = set()
            for (a, b) in edges(shape):
                if (orientation == HORIZONTAL) == (a[1] == b[1]):
                    line = a[1] if orientation == HORIZONTAL else a[0]
                    lo = min(a[0], b[0]) if orientation == HORIZONTAL else min(a[1], b[1])
                    oriented.add((line, lo))
            assert oriented == set(covered)


def test_inner_intervals_counts(frame3):
    domino = Polyomino.from_cells([(0, 0), (1, 0)])
    assert len(inner_intervals(domino)) == 3
    assert len(inner_intervals(frame3)) == 20
    assert len(inner_intervals(rectangle(2, 2))) == 9


@pytest.mark.parametrize("w,h", [(1, 1), (2, 1), (3, 2), (2, 3), (3, 3), (4, 2)])
def test_inner_intervals_rectangle_formula(w, h):
    count = len(inner_intervals(rectangle(w, h)))
    choose2 = lambda n: n * (n - 1) // 2
    assert count == choose2(w + 1) * choose2(h + 1)


def test_inner_intervals_bruteforce_oracle(frame3, ring22):
    for shape in (frame3, ring22):
        (lox, loy), (hix, hiy) = shape.bounding_box()
        expected = []
        for ax in range(lox, hix):
            for ay in range(loy, hiy):
                for bx in range(ax + 1, hix + 1):
                    for by in range(ay + 1, hiy + 1):
                        cells = [(x, y) for x in range(ax, bx) for y in range(ay, by)]
                        if all(c in shape.cells for c in cells):
                            expected.append(Interval((ax, ay), (bx, by)))
        assert inner_intervals(shape) == sorted(expected)


def test_maximal_blocks_frame3(frame3):
    blocks = maximal_blocks(frame3, HORIZONTAL)
    lengths = sorted(b.length for b in blocks)
    assert lengths == [1, 1, 3, 3]
    for orientation in (HORIZONTAL, VERTICAL):
        seen = [c for b in maximal_blocks(frame3, orientation) for c in b.cells]
        assert sorted(seen) == sorted(frame3.cells)


def test_maximal_blocks_ring22(ring22):
    blocks = {b.cells for b in maximal_blocks(ring22, HORIZONTAL)}
    assert ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0)) in blocks
    assert ((1, 4), (2, 4), (3, 4)) in blocks


def test_maximal_blocks_single_cell():
    single = Polyomino.from_cells([(0, 0)])
    assert [b.length for b in maximal_blocks(single, HORIZONTAL)] == [1]


def test_point_order_helpers():
    from polyprime.grid import point_leq

    assert point_leq((0, 0), (1, 2))
    assert not point_leq((1, 0), (0, 2))


def test_interval_accessors():
    interval = Interval((0, 0), (2, 1))
    assert set(interval.anti_diagonal_corners) == {(0, 1), (2, 0)}
    with pytest.raises(ValueError):
        Interval((1, 1), (0, 0))


def test_grid_round_trip(frame3, ring22):
    # The shipped grids are these shapes, drawn with their lowest row at y = 0.
    for name, shape in (("frame3", frame3), ("ring22", ring22)):
        again = parse_grid((SHAPES / f"{name}.grid").read_text())
        (lox, loy), _ = shape.bounding_box()
        assert again.cells == {(x - lox, y - loy) for x, y in shape.cells}


def test_grid_parse_offsets_and_errors():
    assert parse_grid("..#\n###\n").cells == {(2, 1), (0, 0), (1, 0), (2, 0)}
    with pytest.raises(GridParseError):
        parse_grid("#x#\n")
    with pytest.raises(GridParseError):
        parse_grid("...\n")


def test_json_round_trip(ring22):
    text = format_shape_json(ring22)
    assert parse_shape_json(text).cells == ring22.cells
    assert format_shape_json(parse_shape_json(text)) == text
    with pytest.raises(GridParseError):
        parse_shape_json('{"cells": [[0, "a"]]}')


@pytest.mark.parametrize("name", TRANSFORM_NAMES)
def test_transforms_preserve_structure(name, ring22):
    image = Polyomino(transform_cells(name, ring22.cells))
    assert image.rank == ring22.rank
    assert len(holes(image)) == len(holes(ring22))
    assert len(inner_intervals(image)) == len(inner_intervals(ring22))


# One instance of every value class, as (class, fields in order, repr).
# Each repr is the text a frozen dataclass prints for the same value.
RECORD_SAMPLES = [
    (Interval, {"a": (0, 0), "b": (1, 1)}, "Interval(a=(0, 0), b=(1, 1))"),
    (EdgeInterval, {"orientation": "h", "line": 2, "lo": 0, "hi": 3},
     "EdgeInterval(orientation='h', line=2, lo=0, hi=3)"),
    (Block, {"orientation": "v", "cells": ((0, 0), (0, 1), (0, 2))},
     "Block(orientation='v', cells=((0, 0), (0, 1), (0, 2)))"),
    (Polyomino, {"cells": frozenset({(0, 0)})}, "Polyomino(cells=frozenset({(0, 0)}))"),
    (ClosedPathCert, {"cycle": ((0, 0), (1, 0), (1, 1), (0, 1))},
     "ClosedPathCert(cycle=((0, 0), (1, 0), (1, 1), (0, 1)))"),
    (LConfiguration, {"cells": ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))},
     "LConfiguration(cells=((0, 0), (1, 0), (2, 0), (2, 1), (2, 2)))"),
    (Ladder, {"blocks": (Block("h", ((0, 0), (1, 0))), Block("h", ((1, 1), (2, 1)))),
              "contacts": (((1, 1), (2, 1)),)},
     "Ladder(blocks=(Block(orientation='h', cells=((0, 0), (1, 0))), "
     "Block(orientation='h', cells=((1, 1), (2, 1)))), contacts=(((1, 1), (2, 1)),))"),
    (OpenPath, {"cells": ((0, 0), (1, 0), (1, 1))}, "OpenPath(cells=((0, 0), (1, 0), (1, 1)))"),
    (Trimino, {"cells": ((0, 0), (1, 0), (1, 1))}, "Trimino(cells=((0, 0), (1, 0), (1, 1)))"),
    (ZigZagWalk, {"intervals": (Interval((0, 0), (1, 1)), Interval((1, 1), (2, 2))),
                  "v": ((0, 0), (1, 1), (0, 0)), "z": ((1, 1), (2, 2)), "u": ((0, 1), (1, 2))},
     "ZigZagWalk(intervals=(Interval(a=(0, 0), b=(1, 1)), Interval(a=(1, 1), b=(2, 2))), "
     "v=((0, 0), (1, 1), (0, 0)), z=((1, 1), (2, 2)), u=((0, 1), (1, 2)))"),
    (ToricMap, {"columns": ((0, 0), (0, 1)), "entries": ((1, 1), (0, 1)),
                "marked": frozenset({(0, 1)})},
     "ToricMap(columns=((0, 0), (0, 1)), entries=((1, 1), (0, 1)), marked=frozenset({(0, 1)}))"),
    (Budget, {"max_pairs": 3, "max_degree": None, "max_seconds": 1.5},
     "Budget(max_pairs=3, max_degree=None, max_seconds=1.5)"),
    (PrimalityVerdict, {"kind": "nonprime", "proof": None, "equality": None, "witness": None,
                        "reason": "zig-zag walk", "notes": ("a note",)},
     "PrimalityVerdict(kind='nonprime', proof=None, equality=None, witness=None, "
     "reason='zig-zag walk', notes=('a note',))"),
    (CanonicalForm, {"cells": ((0, 0), (0, 1))}, "CanonicalForm(cells=((0, 0), (0, 1)))"),
    (FamilySpec, {"kind": "psc", "parts": (("s", ((0, 0),)),)},
     "FamilySpec(kind='psc', parts=(('s', ((0, 0),)),))"),
    (ShapeRecord, {"cells": ((0, 0),), "rank": 1, "l_configurations": 0, "ladders3": 0,
                   "zigzag": False, "block3": False, "holes": 0, "simple": True,
                   "verdict": {"kind": "skipped"}},
     "ShapeRecord(cells=((0, 0),), rank=1, l_configurations=0, ladders3=0, zigzag=False, "
     "block3=False, holes=0, simple=True, verdict={'kind': 'skipped'})"),
    (VerificationReport, {"max_rank": 4, "records": []},
     "VerificationReport(max_rank=4, records=[])"),
]


@pytest.mark.parametrize("cls, fields, text", RECORD_SAMPLES,
                         ids=[sample[0].__name__ for sample in RECORD_SAMPLES])
def test_record_value_semantics(cls, fields, text):
    record = cls(*fields.values())
    values = tuple(fields.values())
    assert repr(record) == text
    assert record == cls(**fields) and not record != cls(**fields)
    assert tuple(getattr(record, name) for name in fields) == values
    try:
        expected_hash = hash(values)
    except TypeError:  # a dict or list field: unhashable, as before
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected_hash
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record and repr(twin) == text


def test_a_shapes_tables_are_no_part_of_its_value(frame3):
    shape, fresh = Polyomino(frame3.cells), Polyomino(frame3.cells)
    holes(shape), maximal_blocks(shape, HORIZONTAL), maximal_edge_intervals(shape, VERTICAL)
    inner_intervals(shape).clear()  # callers get a fresh list, not the table
    assert inner_intervals(shape) == inner_intervals(fresh) != []
    assert shape == fresh and hash(shape) == hash(fresh) and repr(shape) == repr(fresh)
    for twin in (pickle.loads(pickle.dumps(shape)), copy.copy(shape), copy.deepcopy(shape)):
        assert twin == fresh and holes(twin) == holes(fresh)
    with pytest.raises(AttributeError):
        shape._holes = ()


def test_records_order_by_their_fields_within_one_class():
    assert sorted([Interval((1, 0), (2, 1)), Interval((0, 0), (2, 2)), Interval((0, 0), (1, 1))]) \
        == [Interval((0, 0), (1, 1)), Interval((0, 0), (2, 2)), Interval((1, 0), (2, 1))]
    assert sorted([EdgeInterval("v", 0, 0, 1), EdgeInterval("h", 1, 0, 2), EdgeInterval("h", 0, 1, 2)]) \
        == [EdgeInterval("h", 0, 1, 2), EdgeInterval("h", 1, 0, 2), EdgeInterval("v", 0, 0, 1)]
    assert sorted([Block("v", ((0, 0),)), Block("h", ((1, 0),)), Block("h", ((0, 0), (1, 0)))]) \
        == [Block("h", ((0, 0), (1, 0))), Block("h", ((1, 0),)), Block("v", ((0, 0),))]
    low, high = CanonicalForm(((0, 0), (0, 1))), CanonicalForm(((0, 0), (1, 0)))
    assert low < high and low <= high and high > low and high >= low and low <= low
    assert not low < low and max(high, low) is high
    # Values of different classes are never equal and never ordered.
    assert Interval((0, 0), (1, 1)) != ((0, 0), (1, 1))
    assert CanonicalForm(((0, 0),)) != LConfiguration(((0, 0),))
    with pytest.raises(TypeError):
        Interval((0, 0), (1, 1)) < Block("h", ((0, 0),))


def test_record_construction_defaults_and_checks():
    assert Budget() == Budget(None, None, None)
    assert Budget(max_seconds=2.0) == Budget(None, None, 2.0)
    assert repr(Budget(max_pairs=3)) == "Budget(max_pairs=3, max_degree=None, max_seconds=None)"
    assert PrimalityVerdict("prime") == PrimalityVerdict("prime", None, None, None, None, ())
    assert Interval((0, 0), b=(1, 1)) == Interval(a=(0, 0), b=(1, 1))
    with pytest.raises(TypeError):
        Interval((0, 0))
    with pytest.raises(TypeError):
        Interval((0, 0), (1, 1), (2, 2))
    with pytest.raises(TypeError):
        Budget(max_time=1.0)
    # __post_init__ still checks every construction.
    with pytest.raises(ValueError):
        Interval((1, 1), (0, 0))
    with pytest.raises(ValueError):
        EdgeInterval(HORIZONTAL, 0, 2, 2)
    with pytest.raises(EmptyPolyominoError):
        Polyomino(frozenset())
    with pytest.raises(DisconnectedCellsError):
        Polyomino(frozenset({(0, 0), (2, 0)}))
    # A path part is checked in the order given, a trimino as (end, middle, end).
    with pytest.raises(ValueError):
        OpenPath(((0, 0), (1, 1), (1, 0)))
    with pytest.raises(ValueError):
        OpenPath(((0, 0),))
    with pytest.raises(ValueError):
        Trimino(((1, 0), (0, 0), (1, 1)))
    with pytest.raises(ValueError):
        Trimino(((0, 0), (1, 0), (2, 0)))
