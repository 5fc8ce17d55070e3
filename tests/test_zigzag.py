from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from polyprime.classify import find_l_configurations, find_ladders
from polyprime.families import enumerate_closed_paths
from polyprime.grid import (
    Interval,
    Polyomino,
    TRANSFORM_NAMES,
    inner_intervals,
    on_common_edge_interval,
    transform_polyomino,
)
from polyprime.zigzag import (
    ZigZagWalk,
    _cocontainment_index,
    cocontained_in_inner_interval,
    find_zigzag_walk,
    verify_zigzag,
)

from conftest import rectangle


def test_no_walk_on_frame3(frame3):
    assert find_zigzag_walk(frame3) is None


def test_no_walk_on_ring22(ring22):
    assert find_zigzag_walk(ring22) is None


def test_walk_found_on_pinwheel(pinwheel20):
    walk = find_zigzag_walk(pinwheel20)
    assert walk is not None
    assert verify_zigzag(pinwheel20, walk)


def test_walk_found_on_diamond(diamond16):
    walk = find_zigzag_walk(diamond16)
    assert walk is not None
    assert verify_zigzag(diamond16, walk)
    assert walk.length >= 3


def test_verify_rejects_duplicate_intervals(diamond16):
    walk = find_zigzag_walk(diamond16)
    mangled = ZigZagWalk(
        (walk.intervals[0],) + walk.intervals[1:-1] + (walk.intervals[0],),
        walk.v, walk.z, walk.u,
    )
    assert not verify_zigzag(diamond16, mangled)


def test_verify_rejects_overlapping_intervals(frame3):
    # Two intervals meeting in more than one point violate condition (1).
    intervals = inner_intervals(frame3)
    big = next(i for i in intervals if i.b[0] - i.a[0] + i.b[1] - i.a[1] > 2)
    sub = Interval(big.a, (big.a[0] + 1, big.a[1] + 1))
    v1 = big.a
    walk = ZigZagWalk(
        (big, sub),
        (v1, big.anti_diagonal_corners[0], v1),
        (big.b, sub.b),
        (big.anti_diagonal_corners[1], sub.anti_diagonal_corners[1]),
    )
    assert not verify_zigzag(frame3, walk)


def test_verify_rejects_wrong_labels(diamond16):
    walk = find_zigzag_walk(diamond16)
    swapped = ZigZagWalk(walk.intervals, walk.v, walk.u, walk.z)  # z <-> u
    assert not verify_zigzag(diamond16, swapped)


def test_round_trip_serialization(diamond16):
    walk = find_zigzag_walk(diamond16)
    text = walk.to_json()
    assert '"intervals"' in text and '"v"' in text


def test_cocontainment_index_matches_bruteforce(frame3, ring22):
    for shape in (frame3, ring22):
        index = _cocontainment_index(shape)
        points = sorted({p for i in inner_intervals(shape) for p in i.corners})
        for s, t in itertools.combinations(points, 2):
            fast = t in index.get(s, frozenset())
            assert fast == cocontained_in_inner_interval(shape, s, t)


@pytest.mark.parametrize("name", TRANSFORM_NAMES)
def test_existence_equivariance(name, ring22, pinwheel20, diamond16):
    for shape in (ring22, pinwheel20, diamond16):
        image = transform_polyomino(name, shape)
        assert (find_zigzag_walk(image) is None) == (find_zigzag_walk(shape) is None)


def test_equivalence_with_features_small_ranks():
    # No zig-zag walk <=> an L-configuration or a 3-step ladder exists,
    # exhaustively over all closed paths of rank <= 12.
    shapes = list(enumerate_closed_paths(12))
    assert shapes
    for shape in shapes:
        witness = find_zigzag_walk(shape)
        features = bool(find_l_configurations(shape)) or bool(find_ladders(shape, 3))
        assert (witness is None) == features
        if witness is not None:
            assert verify_zigzag(shape, witness)


# Digest of the zig-zag witnesses (or None) of every closed path of rank
# <= 18, recorded before the search read single-corner meetings from a
# table: the table must change no witness.
WITNESS_DIGEST_R18 = "c4d187e1685364da3461cb1638c5d6020ba321c5b36d1ddb80382d876cce5de6"


def test_witnesses_pinned_to_rank18():
    digest = hashlib.sha256()
    forms = sorted((p.sorted_cells() for p in enumerate_closed_paths(18)),
                   key=lambda cells: (len(cells), cells))
    assert len(forms) == 112
    for cells in forms:
        witness = find_zigzag_walk(Polyomino.from_cells(cells))
        digest.update(json.dumps([cells, None if witness is None else witness.to_json()]).encode())
    assert digest.hexdigest() == WITNESS_DIGEST_R18


def test_adjacent_corners_of_an_inner_interval_share_a_maximal_edge_interval(
        good_l_instance, ladder_rect_instance):
    # The side between two adjacent corners of an inner interval is made of
    # edges of cells of the shape, so one maximal edge interval holds both
    # corners.  The search therefore needs no such rule; verify_zigzag keeps
    # the clause as an independent check.
    shapes = list(enumerate_closed_paths(16))
    shapes += [rectangle(w, h) for w in range(1, 5) for h in range(1, 5)]
    shapes += [good_l_instance[0], ladder_rect_instance[0]]
    pairs = 0
    for shape in shapes:
        for interval in inner_intervals(shape):
            for corner in (interval.a, interval.b):
                for neighbour in interval.anti_diagonal_corners:
                    assert on_common_edge_interval(shape, corner, neighbour)
                    pairs += 1
    assert pairs > 1000
