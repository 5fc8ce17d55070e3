from __future__ import annotations

import itertools

import pytest

from polyprime.classify import (
    ClosedPathCert,
    closed_path_certificate,
    find_l_configurations,
    find_ladders,
    has_block_of_length,
    open_path_certificate,
    trimino_certificate,
)
from polyprime.families import canonical_form, enumerate_closed_paths
from polyprime.grid import (
    HORIZONTAL,
    Polyomino,
    TRANSFORM_NAMES,
    VERTICAL,
    holes,
    is_connected,
    is_simple,
    maximal_blocks,
    on_common_edge_interval,
    transform_cells,
    vertices,
)

from conftest import rectangle


# --- closed paths -----------------------------------------------------------

def test_closed_path_frame3(frame3):
    cert = closed_path_certificate(frame3)
    assert cert is not None and cert.length == 8
    assert cert.validate()
    assert set(cert.cycle) == frame3.cells


def test_closed_path_square_too_short():
    assert closed_path_certificate(rectangle(2, 2)) is None


def test_closed_path_rectangle_rejected():
    assert closed_path_certificate(rectangle(3, 2)) is None


def test_closed_path_ring22(ring22):
    cert = closed_path_certificate(ring22)
    assert cert is not None and cert.length == 22


def test_closed_path_validate_rejects_mangled(frame3):
    cert = closed_path_certificate(frame3)
    swapped = list(cert.cycle)
    swapped[2], swapped[5] = swapped[5], swapped[2]
    assert not ClosedPathCert(tuple(swapped)).validate()


def test_closed_path_near_touching_ring():
    # A rank-8 cycle where two far-apart cells share a vertex fails (4).
    cells = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    shape = Polyomino.from_cells(cells)
    assert closed_path_certificate(shape) is None


# --- L-configurations -------------------------------------------------------

V_PENTOMINO = canonical_form(Polyomino.from_cells([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]))


def lconfigs_bruteforce(p: Polyomino) -> set[frozenset]:
    found = set()
    for combo in itertools.combinations(sorted(p.cells), 5):
        if not is_connected(combo):
            continue
        if canonical_form(Polyomino.from_cells(combo)) == V_PENTOMINO:
            found.add(frozenset(combo))
    return found


def test_l_configurations_frame3(frame3):
    configs = find_l_configurations(frame3)
    assert len(configs) == 4
    assert {l.corner_cell for l in configs} == {(0, 0), (2, 0), (0, 2), (2, 2)}
    assert {frozenset(l.cells) for l in configs} == lconfigs_bruteforce(frame3)


def test_l_configurations_ring22_none(ring22):
    assert find_l_configurations(ring22) == []
    assert lconfigs_bruteforce(ring22) == set()


def test_l_configurations_straight_block_none():
    block = Polyomino.from_cells([(x, 0) for x in range(5)])
    assert find_l_configurations(block) == []


def test_l_configurations_oracle_on_enumerated():
    for shape in enumerate_closed_paths(12):
        assert {frozenset(l.cells) for l in find_l_configurations(shape)} == lconfigs_bruteforce(shape)


# --- ladders ----------------------------------------------------------------

def ladders_bruteforce(p: Polyomino, min_steps: int) -> set[tuple]:
    """Independent chain enumeration: all maximal valid chains as block tuples."""
    results = set()
    for orientation in (HORIZONTAL, VERTICAL):
        blocks = [b for b in maximal_blocks(p, orientation) if b.length >= 2]

        def contact(i, j):
            shared = sorted(vertices(blocks[i].cells) & vertices(blocks[j].cells))
            return tuple(shared) if len(shared) == 2 else None

        def valid(chain):
            for a, b in zip(chain, chain[1:]):
                if contact(a, b) is None:
                    return False
            for k in range(len(chain) - 2):
                c1 = contact(chain[k], chain[k + 1])
                c2 = contact(chain[k + 1], chain[k + 2])
                if c1[0][1] == c1[1][1] == c2[0][1] == c2[1][1]:  # same row
                    if on_common_edge_interval(p, c1[0], c2[1]) and on_common_edge_interval(p, c1[1], c2[0]):
                        return False
                if c1[0][0] == c1[1][0] == c2[0][0] == c2[1][0]:  # same column
                    if on_common_edge_interval(p, c1[0], c2[1]) and on_common_edge_interval(p, c1[1], c2[0]):
                        return False
            return True

        all_chains = []
        def grow(chain):
            all_chains.append(tuple(chain))
            for nxt in range(len(blocks)):
                if nxt not in chain and valid(chain + [nxt]):
                    grow(chain + [nxt])
        for i in range(len(blocks)):
            grow([i])
        valid_set = {c for c in all_chains}
        for chain in all_chains:
            if len(chain) < min_steps:
                continue
            extendable = any(
                others != chain and len(others) == len(chain) + 1
                and (others[1:] == chain or others[:-1] == chain)
                for others in valid_set
            )
            if not extendable:
                canonical = min(chain, chain[::-1])
                results.add(tuple(blocks[i].cells for i in canonical))
    return results


def test_ladders_ring22(ring22):
    ladders = find_ladders(ring22, min_steps=3)
    assert len(ladders) == 1
    ladder = ladders[0]
    assert [b.cells for b in ladder.blocks] == [
        ((0, 3), (1, 3)),
        ((1, 4), (2, 4), (3, 4)),
        ((3, 5), (4, 5), (5, 5)),
    ]
    assert ladder.contacts == (((1, 4), (2, 4)), ((3, 5), (4, 5)))


def test_ladders_frame3_none(frame3):
    assert find_ladders(frame3, min_steps=3) == []


def test_ladders_wide_rectangle_none():
    # Whole rows share more than two vertices.
    assert find_ladders(rectangle(4, 2), min_steps=2) == []


def test_ladders_rejects_min_steps_below_two(frame3):
    with pytest.raises(ValueError):
        find_ladders(frame3, min_steps=1)


def test_ladders_bruteforce_oracle(ring22, pinwheel20):
    for shape in (ring22, pinwheel20):
        for min_steps in (2, 3):
            mine = {tuple(b.cells for b in l.blocks) for l in find_ladders(shape, min_steps)}
            canon = {min(t, t[::-1]) for t in mine}
            assert canon == ladders_bruteforce(shape, min_steps)


def test_pinwheel_has_no_3_ladder(pinwheel20):
    assert find_ladders(pinwheel20, min_steps=3) == []
    assert find_l_configurations(pinwheel20) == []


def test_parallel_maximal_blocks_share_zero_or_two_vertices():
    # On closed paths, two parallel maximal blocks meet in nothing or in
    # exactly one unit edge.
    for shape in enumerate_closed_paths(12):
        for orientation in (HORIZONTAL, VERTICAL):
            blocks = maximal_blocks(shape, orientation)
            for i in range(len(blocks)):
                for j in range(i + 1, len(blocks)):
                    shared = sorted(vertices(blocks[i].cells) & vertices(blocks[j].cells))
                    assert len(shared) in (0, 2)
                    if shared:
                        (ax, ay), (bx, by) = shared
                        assert abs(ax - bx) + abs(ay - by) == 1


# --- blocks -----------------------------------------------------------------

def test_has_block_of_length(frame3, ring22):
    assert has_block_of_length(frame3, 3)
    assert not has_block_of_length(Polyomino.from_cells([(0, 0), (1, 0)]), 3)
    assert has_block_of_length(ring22, 5)
    assert not has_block_of_length(ring22, 6)
    with pytest.raises(ValueError):
        has_block_of_length(frame3, 0)


def test_every_closed_path_has_length3_block():
    for shape in enumerate_closed_paths(12):
        assert has_block_of_length(shape, 3)


def test_closed_paths_nonsimple_unique_hole():
    for shape in enumerate_closed_paths(12):
        assert not is_simple(shape)
        assert len(holes(shape)) == 1


def test_closed_path_holes_vertex_disjoint_from_exterior():
    # The ring separates its hole from the exterior even at vertices.
    from polyprime.grid import cell_vertices

    for shape in enumerate_closed_paths(12):
        (hole,) = holes(shape)
        (lox, loy), (hix, hiy) = shape.bounding_box()
        exterior = {
            (x, y)
            for x in range(lox - 1, hix + 1)
            for y in range(loy - 1, hiy + 1)
            if (x, y) not in shape.cells and (x, y) not in hole.cells
        }
        hole_vertices = {v for c in hole.cells for v in cell_vertices(c)}
        exterior_vertices = {v for c in exterior for v in cell_vertices(c)}
        assert not hole_vertices & exterior_vertices


def test_closed_path_minus_run_is_simple(frame3, ring22):
    # Removing any run of 2..n-1 consecutive cells from the cycle leaves a
    # simple shape.  (One removed cell is not enough: its two neighbors still
    # seal the hole, as on the frame with one corner gone.)
    for shape in (frame3, ring22):
        cycle = closed_path_certificate(shape).cycle
        n = len(cycle)
        for start in range(n):
            for run in range(2, n):
                removed = {cycle[(start + k) % n] for k in range(run)}
                rest = shape.cells - removed
                trimmed = Polyomino.from_cells(rest)
                assert is_simple(trimmed), (start, run)


# --- open paths -------------------------------------------------------------

def test_open_path_straight():
    block = Polyomino.from_cells([(x, 0) for x in range(4)])
    cert = open_path_certificate(block)
    assert cert is not None and cert.length == 4


def test_open_path_frame3_none(frame3):
    assert open_path_certificate(frame3) is None


def test_open_path_staircase():
    cert = open_path_certificate(Polyomino.from_cells([(0, 0), (1, 0), (1, 1), (2, 1)]))
    assert cert is not None
    assert cert.cells[0] == (0, 0) and cert.cells[-1] == (2, 1)


def test_open_path_wide_u_is_valid():
    # The wide U keeps a one-column gap, so far cells never share vertices.
    u = Polyomino.from_cells([(0, 1), (0, 0), (1, 0), (2, 0), (2, 1)])
    assert open_path_certificate(u) is not None


def test_open_path_rejects_near_touching():
    # Tight hook: cells at index distance three share a vertex.
    hook = Polyomino.from_cells([(0, 2), (0, 1), (0, 0), (1, 0), (1, 1)])
    assert open_path_certificate(hook) is None


def test_open_path_free_edges():
    cert = open_path_certificate(Polyomino.from_cells([(0, 0), (1, 0)]))
    assert cert is not None
    assert len(cert.free_edges(0)) == 3
    assert len(cert.free_edges(-1)) == 3


# --- triminoes --------------------------------------------------------------

def test_trimino_l_shape():
    t = trimino_certificate(Polyomino.from_cells([(0, 0), (1, 0), (1, 1)]))
    assert t is not None
    assert set(t.hooking_vertices) == {(0, 1), (1, 2)}
    for v in t.hooking_vertices:
        for edge in t.hooking_edges(v):
            assert v in edge


def test_trimino_rejects_aligned():
    assert trimino_certificate(Polyomino.from_cells([(0, 0), (1, 0), (2, 0)])) is None


def test_trimino_rejects_wrong_size():
    assert trimino_certificate(rectangle(2, 2)) is None
    assert trimino_certificate(Polyomino.from_cells([(0, 0)])) is None


@pytest.mark.parametrize("name", TRANSFORM_NAMES)
def test_trimino_equivariance(name):
    base = Polyomino.from_cells([(0, 0), (1, 0), (1, 1)])
    t = trimino_certificate(base)
    image = trimino_certificate(Polyomino(transform_cells(name, base.cells)))
    from polyprime.grid import transform_point

    assert image is not None
    assert set(image.hooking_vertices) == {transform_point(name, v) for v in t.hooking_vertices}


# --- D4 equivariance of the classifiers -------------------------------------

@pytest.mark.parametrize("name", TRANSFORM_NAMES)
def test_classifier_equivariance(name, frame3, ring22):
    for shape in (frame3, ring22):
        image = Polyomino(transform_cells(name, shape.cells))
        assert (closed_path_certificate(image) is None) == (closed_path_certificate(shape) is None)
        expected = {transform_cells(name, l.cells) for l in find_l_configurations(shape)}
        assert {frozenset(l.cells) for l in find_l_configurations(image)} == expected
        assert len(find_ladders(image, 3)) == len(find_ladders(shape, 3))
