from __future__ import annotations

import hashlib

import pytest

from polyprime.classify import find_l_configurations, find_ladders
from polyprime.grid import Polyomino, TRANSFORM_NAMES, cell_vertices, transform_point, transform_polyomino, vertices
from polyprime.ideals import (
    Monomial,
    W,
    export_generators,
    inner_minors,
    ladder_marked_set,
    minor_exponents,
    toric_map_ladder,
    toric_map_lconfig,
    toric_map_marked,
    vertex_ring,
    vertex_symmetries,
    vertex_var,
)

from conftest import kills_minors, rectangle


# --- monomial algebra -------------------------------------------------------

def test_monomial_basics():
    m = Monomial.from_dict({("a",): 2, ("b",): 1})
    assert m.degree == 3
    assert str(m) == "a^2*b"
    assert Monomial.one().degree == 0
    with pytest.raises(ValueError):
        Monomial.from_dict({("a",): -1})


def test_monomial_drops_zero_exponents():
    assert Monomial.from_dict({("a",): 0}) == Monomial.one()


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

    return {frozenset((image(a), image(b))) for a, b in minor_exponents(shape)}


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
    (minor,) = inner_minors(single)
    assert minor.plus == Monomial.from_dict({vertex_var((0, 0)): 1, vertex_var((1, 1)): 1})
    assert minor.minus == Monomial.from_dict({vertex_var((0, 1)): 1, vertex_var((1, 0)): 1})
    # Vertex order (0,0) (0,1) (1,0) (1,1): the diagonal is columns 0 and 3.
    assert minor_exponents(single) == [((1, 0, 0, 1), (0, 1, 1, 0))]


# --- toric maps -------------------------------------------------------------

def _column(phi, point):
    """The exponent vector of phi(x_point): one column of the map's matrix."""
    r = phi.column_variables.index(vertex_var(point))
    return {t: row[r] for t, row in zip(phi.target_variables, phi.entries) if row[r]}


def test_lconfig_map_frame3(frame3):
    from polyprime.grid import HORIZONTAL, VERTICAL, maximal_edge_intervals

    lconf = next(l for l in find_l_configurations(frame3) if l.corner_cell == (0, 0))
    phi = toric_map_lconfig(frame3, lconf)
    assert phi.marked == set(cell_vertices((0, 0)))
    assert len(phi.target_variables) == 9  # 4 vertical + 4 horizontal + w
    image = _column(phi, (1, 1))
    assert sum(image.values()) == 3
    # (1,1) lies on the x=1 vertical and y=1 horizontal maximal intervals.
    v_idx = next(
        i for i, iv in enumerate(maximal_edge_intervals(frame3, VERTICAL)) if iv.line == 1
    )
    h_idx = next(
        j for j, ih in enumerate(maximal_edge_intervals(frame3, HORIZONTAL)) if ih.line == 1
    )
    assert image == {("v", v_idx): 1, ("h", h_idx): 1, W: 1}


def test_unmarked_vertex_images_have_degree_two(frame3):
    phi = toric_map_marked(frame3, ())
    assert phi.column_variables == vertex_ring(frame3)
    assert all(sum(column) == 2 for column in zip(*phi.entries))
    assert W not in phi.target_variables


# sha256 of the maps below as (column_variables, target_variables, entries,
# sorted marked set), computed from the two-step construction this matrix
# form replaced (a named monomial per vertex, then its exponent matrix).
MAP_DIGEST = "a86ac21ec08ce3439cb716a051b2011abe407007010af8fb065c1c099fbd0c29"


def test_map_matrices_match_recorded_digest(monkeypatch, frame3):
    # Every map the certified rank <= 16 sweep builds, in build order; the
    # proof step is stubbed out because only the maps are compared here.
    import polyprime.toric as toric
    from polyprime.families import verify_main_theorem

    maps = []

    def record(p, phi, proof, budget):
        maps.append(phi)
        return toric.PrimalityVerdict("prime", proof, "full")

    monkeypatch.delenv("POLYPRIME_CACHE", raising=False)
    monkeypatch.setattr(toric, "prove_prime", record)
    verify_main_theorem(16)
    # The two markings of `polyprime ideal --toric` on frame3.
    maps += [toric_map_marked(frame3, ()),
             toric_map_lconfig(frame3, find_l_configurations(frame3)[0])]
    assert len(maps) == 36
    key = [(phi.column_variables, phi.target_variables, phi.entries, tuple(sorted(phi.marked)))
           for phi in maps]
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

def test_export_generators_format():
    single = Polyomino.from_cells([(0, 0)])
    phi = toric_map_marked(single, ())
    text = export_generators(
        tuple(vertex_var(v) for v in sorted(vertices(single))), inner_minors(single)
    )
    lines = text.strip().splitlines()
    assert lines[0] == "ring x_0_0 x_0_1 x_1_0 x_1_1"
    assert lines[1] == "x_0_0*x_1_1 - x_0_1*x_1_0"


def test_export_negative_coordinates():
    shape = Polyomino.from_cells([(-1, -1)])
    text = export_generators(
        tuple(vertex_var(v) for v in sorted(vertices(shape))), inner_minors(shape)
    )
    assert "x_m1_m1" in text
