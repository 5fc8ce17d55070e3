from __future__ import annotations

import hashlib

import pytest

from polyprime.classify import find_l_configurations, find_ladders
from polyprime.grid import (
    HORIZONTAL,
    VERTICAL,
    Polyomino,
    TRANSFORM_NAMES,
    cell_vertices,
    maximal_edge_intervals,
    transform_point,
    transform_polyomino,
    vertices,
)
from polyprime.ideals import (
    export_generators,
    inner_minors,
    ladder_marked_set,
    toric_map_ladder,
    toric_map_lconfig,
    toric_map_marked,
    vertex_name,
    vertex_order,
    vertex_symmetries,
)

from conftest import kills_minors, rectangle


# --- inner minors -----------------------------------------------------------

# A rank-14 closed path that no dihedral map sends onto itself.
ASYMMETRIC14_CELLS = (
    (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 4),
    (2, 0), (2, 1), (2, 2), (2, 4), (3, 2), (3, 3), (3, 4),
)


def _unordered_minors(shape, perm=None):
    def image(mono):
        if perm is None:
            return mono
        out = [0] * len(mono)
        for i, e in enumerate(mono):
            out[perm[i]] = e
        return tuple(out)

    return {frozenset((image(a), image(b))) for a, b in inner_minors(shape)}


def test_vertex_symmetries_of_frame3_fix_its_minors(frame3):
    perms = vertex_symmetries(frame3)
    n = len(vertices(frame3))
    assert len(perms) == 8 and len(set(perms)) == 8
    assert perms[0] == tuple(range(n))
    for perm in perms:
        assert sorted(perm) == list(range(n))
        assert _unordered_minors(frame3, perm) == _unordered_minors(frame3)


def test_vertex_symmetries_of_an_asymmetric_closed_path_is_the_identity():
    shape = Polyomino.from_cells(ASYMMETRIC14_CELLS)
    assert vertex_symmetries(shape) == (tuple(range(len(vertices(shape)))),)

def test_inner_minors_counts(frame3):
    assert len(inner_minors(Polyomino.from_cells([(0, 0), (1, 0)]))) == 3
    assert len(inner_minors(frame3)) == 20


def test_inner_minor_single_cell():
    single = Polyomino.from_cells([(0, 0)])
    assert vertex_order(single) == ((0, 0), (0, 1), (1, 0), (1, 1))
    # The diagonal (0,0) (1,1) is columns 0 and 3.
    assert inner_minors(single) == [((1, 0, 0, 1), (0, 1, 1, 0))]


# --- toric maps -------------------------------------------------------------

def _column(phi, point):
    """The exponent vector of phi(x_point), as {row: exponent}: one column of A."""
    r = phi.columns.index(point)
    return {k: row[r] for k, row in enumerate(phi.entries) if row[r]}


def _interval_counts(p):
    return len(maximal_edge_intervals(p, VERTICAL)), len(maximal_edge_intervals(p, HORIZONTAL))


def test_lconfig_map_frame3(frame3):
    lconf = next(l for l in find_l_configurations(frame3) if l.corner_cell == (0, 0))
    phi = toric_map_lconfig(frame3, lconf)
    assert phi.marked == set(cell_vertices((0, 0)))
    assert _interval_counts(frame3) == (4, 4)
    assert len(phi.entries) == 9  # 4 vertical + 4 horizontal + w
    image = _column(phi, (1, 1))
    assert sum(image.values()) == 3
    # (1,1) lies on the x=1 vertical and y=1 horizontal maximal intervals;
    # the horizontal rows follow the 4 vertical ones, and w is the last row.
    v_idx = next(
        i for i, iv in enumerate(maximal_edge_intervals(frame3, VERTICAL)) if iv.line == 1
    )
    h_idx = next(
        j for j, ih in enumerate(maximal_edge_intervals(frame3, HORIZONTAL)) if ih.line == 1
    )
    assert image == {v_idx: 1, 4 + h_idx: 1, 8: 1}


def test_unmarked_vertex_images_have_degree_two(frame3):
    phi = toric_map_marked(frame3, ())
    assert phi.columns == vertex_order(frame3) == tuple(sorted(vertices(frame3)))
    assert all(sum(column) == 2 for column in zip(*phi.entries))
    assert len(phi.entries) == sum(_interval_counts(frame3))  # no w row


def _named_key(p, phi):
    """The map as (column_variables, target_variables, entries, sorted marked
    set) in the variable identifiers of the named form it replaced: ("x",
    point) per column, ("v", i), ("h", j) and ("w",) per row."""
    n_vertical, n_horizontal = _interval_counts(p)
    target = [("v", i) for i in range(n_vertical)] + [("h", j) for j in range(n_horizontal)]
    if phi.marked:
        target.append(("w",))
    return (tuple(("x", v) for v in phi.columns), tuple(target), phi.entries,
            tuple(sorted(phi.marked)))


# sha256 of the maps below as their _named_key, computed from the two-step
# construction the matrix form replaced (a named monomial per vertex, then
# its exponent matrix).
MAP_DIGEST = "a86ac21ec08ce3439cb716a051b2011abe407007010af8fb065c1c099fbd0c29"


def test_map_matrices_match_recorded_digest(monkeypatch, frame3):
    # Every map the certified rank <= 16 sweep builds, in build order; the
    # proof step is stubbed out because only the maps are compared here.
    import polyprime.toric as toric
    from polyprime.families import verify_main_theorem

    maps = []

    def record(p, phi, proof, budget):
        maps.append((p, phi))
        return toric.PrimalityVerdict("prime", proof, "full")

    monkeypatch.delenv("POLYPRIME_CACHE", raising=False)
    monkeypatch.setattr(toric, "prove_prime", record)
    verify_main_theorem(16)
    # The two markings of `polyprime ideal --toric` on frame3.
    maps += [(frame3, toric_map_marked(frame3, ())),
             (frame3, toric_map_lconfig(frame3, find_l_configurations(frame3)[0]))]
    assert len(maps) == 36
    key = [_named_key(p, phi) for p, phi in maps]
    assert hashlib.sha256(repr(key).encode()).hexdigest() == MAP_DIGEST


def test_marked_must_be_vertices(frame3):
    with pytest.raises(ValueError):
        toric_map_marked(frame3, [(99, 99)])


def test_lconfig_must_belong(frame3, ring22):
    lconf = find_l_configurations(frame3)[0]
    with pytest.raises(ValueError):
        toric_map_lconfig(ring22, lconf)


def test_containment_frame3_lconfig(frame3):
    phi = toric_map_lconfig(frame3, find_l_configurations(frame3)[0])
    assert kills_minors(frame3, phi)


def test_containment_ring22_ladder(ring22):
    phi = toric_map_ladder(ring22, find_ladders(ring22, 3)[0])
    assert kills_minors(ring22, phi)


def test_containment_fails_adversarial_marking(frame3):
    # Marking a single corner of the distinguished cell is not enough.
    phi = toric_map_marked(frame3, [(0, 0)])
    assert not kills_minors(frame3, phi)


def test_unmarked_map_kills_minors_of_simple_shapes():
    for w, h in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        shape = rectangle(w, h)
        assert kills_minors(shape, toric_map_marked(shape, ()))
    l_shape = Polyomino.from_cells([(0, 0), (1, 0), (1, 1)])
    assert kills_minors(l_shape, toric_map_marked(l_shape, ()))


# --- ladder map -------------------------------------------------------------

def test_ladder_map_ring22_marks_six_points(ring22):
    ladder = find_ladders(ring22, 3)[0]
    marked = ladder_marked_set(ladder, ring22.cells)
    assert marked == {(1, 5), (2, 5), (3, 5), (3, 6), (4, 5), (4, 6)}
    # Three lower-left corners of the middle reference block plus the three
    # remaining corners of the attached cell, in pose coordinates.
    assert len(marked) == 3 + 3


def test_ladder_map_rejects_short_ladders(ring22):
    two_step = find_ladders(ring22, 2)
    short = next(l for l in two_step if l.steps == 2)
    with pytest.raises(ValueError):
        ladder_marked_set(short, ring22.cells)


def test_ladder_map_rejects_foreign_ladder(frame3, ring22):
    ladder = find_ladders(ring22, 3)[0]
    with pytest.raises(ValueError):
        toric_map_ladder(frame3, ladder)


@pytest.mark.parametrize("name", TRANSFORM_NAMES)
def test_ladder_marked_set_equivariance(name, ring22):
    ladder = find_ladders(ring22, 3)[0]
    marked = ladder_marked_set(ladder, ring22.cells)
    image = transform_polyomino(name, ring22)
    image_ladder = find_ladders(image, 3)[0]
    image_marked = ladder_marked_set(image_ladder, image.cells)
    assert image_marked == {transform_point(name, q) for q in marked}
    assert kills_minors(image, toric_map_ladder(image, image_ladder))


# --- export -----------------------------------------------------------------

def _names(shape):
    return [vertex_name(v) for v in vertex_order(shape)]


def test_vertex_name():
    assert vertex_name((1, 0)) == "x_1_0"
    assert vertex_name((-1, -12)) == "x_m1_m12"


def test_export_generators_format():
    single = Polyomino.from_cells([(0, 0)])
    text = export_generators(_names(single), inner_minors(single))
    assert text == "ring x_0_0 x_0_1 x_1_0 x_1_1\nx_0_0*x_1_1 - x_0_1*x_1_0\n"


def test_export_prints_powers_and_drops_zero_exponents():
    # The twisted cubic's first kernel element, and a pure power against 1.
    text = export_generators(["a", "b", "c", "d"], [((0, 2, 0, 0), (1, 0, 1, 0)),
                                                    ((0, 0, 0, 3), (0, 0, 0, 0))])
    assert text.splitlines() == ["ring a b c d", "b^2 - a*c", "d^3 - 1"]


def test_export_negative_coordinates():
    shape = Polyomino.from_cells([(-1, -1)])
    text = export_generators(_names(shape), inner_minors(shape))
    assert text.splitlines() == ["ring x_m1_m1 x_m1_0 x_0_m1 x_0_0",
                                 "x_m1_m1*x_0_0 - x_m1_0*x_0_m1"]
