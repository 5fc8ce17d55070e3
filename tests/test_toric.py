from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from polyprime.classify import find_l_configurations, find_ladders
from polyprime.grid import Polyomino, cell_vertices
from polyprime.ideals import (
    check_containment,
    inner_minors,
    ladder_marked_set,
    toric_map_ladder,
    toric_map_lconfig,
    toric_map_marked,
    vertex_name,
    vertex_order,
    vertex_symmetries,
)
from polyprime.toric import (
    Budget,
    BudgetExhausted,
    CounterexampleFound,
    NotInSupportedClass,
    UNLIMITED,
    attempt_equality,
    buchberger,
    buchberger_engine,
    certify_primality,
    check_saturated,
    feature_marking,
    integer_kernel,
    lattice_ideal_engine,
    lattice_rank_and_index,
    saturate_engine,
    toric_ideal,
)

from conftest import (
    TWISTED_CUBIC,
    kernel_complete_up_to_degree,
    kills_minors,
    pk_full_reduce,
    rectangle,
    reference_gm_update,
    reference_interreduce,
    saturate_reduced,
    unsaturated_variables,
)

# Exponent tuples over (a, b, c, d) and over (x, y, z).
AD_MINUS_BC = ((1, 0, 0, 1), (0, 1, 1, 0))
XZ_MINUS_XY = ((1, 0, 1), (1, 1, 0))


# --- integer kernel ---------------------------------------------------------

def row_hnf(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Tiny row Hermite form for lattice-equality checks in tests."""
    mat = [list(r) for r in rows]
    rank_row = 0
    for col in range(len(mat[0])):
        pivot = None
        for r in range(rank_row, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank_row], mat[pivot] = mat[pivot], mat[rank_row]
        changed = True
        while changed:
            changed = False
            for r in range(rank_row + 1, len(mat)):
                if mat[r][col]:
                    q = mat[r][col] // mat[rank_row][col]
                    mat[r] = [a - q * b for a, b in zip(mat[r], mat[rank_row])]
                    if mat[r][col]:
                        mat[rank_row], mat[r] = mat[r], mat[rank_row]
                        changed = True
        if mat[rank_row][col] < 0:
            mat[rank_row] = [-a for a in mat[rank_row]]
        for r in range(rank_row):
            q = mat[r][col] // mat[rank_row][col]
            mat[r] = [a - q * b for a, b in zip(mat[r], mat[rank_row])]
        rank_row += 1
    return [tuple(r) for r in mat[:rank_row]]


def test_kernel_simple_example():
    assert integer_kernel([[1, 1, 0], [0, 1, 1]]) == [(1, -1, 1)]


def test_kernel_identity_empty():
    assert integer_kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []


def test_kernel_twisted_cubic_lattice():
    basis = integer_kernel(TWISTED_CUBIC)
    assert len(basis) == 2
    for vec in basis:
        for row in TWISTED_CUBIC:
            assert sum(r * v for r, v in zip(row, vec)) == 0
    reference = [(1, -1, -1, 1), (0, 1, -2, 1)]
    assert row_hnf(basis) == row_hnf(reference)


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=4, max_size=4),
        min_size=1,
        max_size=3,
    )
)
def test_kernel_vectors_annihilate(matrix):
    for vec in integer_kernel(matrix):
        assert any(vec)
        for row in matrix:
            assert sum(r * v for r, v in zip(row, vec)) == 0


# --- lattice rank and index ------------------------------------------------

def test_lattice_index_of_saturated_lattices():
    assert lattice_rank_and_index([(1, 0), (0, 1)]) == (2, 1)
    assert lattice_rank_and_index([(2, 1)]) == (1, 1)
    assert lattice_rank_and_index([(1, 1, 0), (0, 1, 1), (1, 2, 1)]) == (2, 1)
    assert lattice_rank_and_index([]) == (0, 1)


def test_lattice_index_rejects_index_two():
    assert lattice_rank_and_index([(2, 0), (0, 1)]) == (2, 2)
    assert lattice_rank_and_index([(1, 1), (1, -1)]) == (2, 2)


def test_lattice_index_rejects_rank_deficient():
    rank, index = lattice_rank_and_index([(1, 1), (2, 2)])
    assert (rank, index) == (1, 1)
    assert rank != 2


@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    ),
    st.integers(1, 4),
)
def test_lattice_index_scales_with_a_generator(vectors, k):
    # Multiplying the first generator of an independent set by k multiplies
    # the index by k and keeps the rank.
    rank, index = lattice_rank_and_index(vectors)
    if rank != len(vectors):
        return
    scaled = [[k * x for x in vectors[0]]] + vectors[1:]
    assert lattice_rank_and_index(scaled) == (rank, k * index)


# --- lattice basis ideal ----------------------------------------------------

def test_lattice_ideal_sign_split():
    assert lattice_ideal_engine([(1, -1, 1)]) == [((1, 0, 1), (0, 1, 0))]
    assert lattice_ideal_engine([(0, 1, -2, 1)]) == [((0, 1, 0, 1), (0, 0, 2, 0))]
    with pytest.raises(ValueError):
        lattice_ideal_engine([(0, 0, 0)])


# --- buchberger -------------------------------------------------------------

def test_buchberger_single_generator_is_basis():
    gb = buchberger([AD_MINUS_BC])
    assert len(gb) == 1


def test_buchberger_twisted_cubic_reduced_basis():
    gb = toric_ideal(TWISTED_CUBIC)
    expected = {
        ((0, 2, 0, 0), (1, 0, 1, 0)),  # b^2 - a*c
        ((0, 1, 1, 0), (1, 0, 0, 1)),  # b*c - a*d
        ((0, 0, 2, 0), (0, 1, 0, 1)),  # c^2 - b*d
    }
    assert set(gb) == expected


def test_buchberger_square_kills_degree4_kernel():
    square = rectangle(2, 2)
    gb = buchberger(inner_minors(square))
    phi = toric_map_marked(square, ())
    assert kernel_complete_up_to_degree(phi.entries, gb, 4)


def test_buchberger_determinism(frame3):
    first = buchberger(inner_minors(frame3))
    second = buchberger(list(reversed(inner_minors(frame3))))
    assert first == second


def test_budget_pair_cap(frame3):
    with pytest.raises(BudgetExhausted) as err:
        buchberger(inner_minors(frame3), Budget(max_pairs=3))
    assert err.value.pairs == 4
    assert err.value.basis_size is not None and err.value.basis_size >= 20


def test_packed_field_overflow_raises():
    # x^k - y^k and x*y^k - y^(k+1) form a pair whose lcm x^k*y^k has degree
    # 2k = _FIELD_MAX: every input exponent fits a field, the pair's would not.
    from polyprime.toric import _FIELD_MAX

    k = _FIELD_MAX // 2
    gens = [((k, 0), (0, k)), ((1, k), (0, k + 1))]
    with pytest.raises(OverflowError):
        buchberger_engine(gens, 1, UNLIMITED.start())


def test_generator_degree_overflow_raises():
    # Every exponent k fits a field, but the degree 2k = _FIELD_MAX would let
    # an lcm degree reach 2**_FIELD_BITS, past what _PackedRing.degree sums.
    from polyprime.toric import _FIELD_MAX

    k = _FIELD_MAX // 2
    with pytest.raises(OverflowError):
        buchberger_engine([((k, k, 0), (0, k, k))], 2, UNLIMITED.start())
    with pytest.raises(OverflowError):
        buchberger_engine([((0, 1, 0), (1, 0, 0)), ((k, k, 0), (0, k, k))], 2, UNLIMITED.start())


@st.composite
def packed_below_degree_bound(draw):
    """A packed monomial of total degree below 2**_FIELD_BITS, each exponent
    below _FIELD_MAX, and its exponent tuple."""
    from polyprime.toric import _FIELD_BITS, _FIELD_MAX, _PackedRing

    n = draw(st.integers(1, 8))
    room = (1 << _FIELD_BITS) - 1
    mono = []
    for _ in range(n):
        e = min(draw(st.integers(0, _FIELD_MAX - 1)), room)
        mono.append(e)
        room -= e
    ring = _PackedRing(n, draw(st.integers(0, n - 1)))
    return ring, tuple(mono)


@given(packed_below_degree_bound())
def test_packed_degree_is_the_field_sum(case):
    ring, mono = case
    packed = ring.pack(mono)
    assert ring.unpack(packed) == mono
    assert ring.degree(packed) == sum(mono)


def test_packed_degree_at_the_bound():
    from polyprime.toric import _FIELD_BITS, _FIELD_MAX, _PackedRing

    ring = _PackedRing(3, 1)
    top = (_FIELD_MAX - 1, _FIELD_MAX - 1, 1)
    assert sum(top) == (1 << _FIELD_BITS) - 1
    assert ring.degree(ring.pack(top)) == sum(top)


def test_budget_degree_cap():
    with pytest.raises(BudgetExhausted):
        toric_ideal(TWISTED_CUBIC, Budget(max_degree=1))


def test_toric_ideal_budget_caps_all_saturations(frame3):
    # ker of frame3's unmarked map takes 3,337 S-pairs over 17 runs, at most
    # 471 in any one run, so only one clock over all of them stops this cap.
    matrix = toric_map_marked(frame3, ()).entries
    with pytest.raises(BudgetExhausted) as err:
        toric_ideal(matrix, Budget(max_pairs=471))
    assert err.value.pairs == 472
    assert err.value.phase == "saturation, column 1"
    assert len(toric_ideal(matrix, Budget(max_pairs=3337))) == 36
    with pytest.raises(BudgetExhausted) as err:
        toric_ideal(matrix, Budget(max_pairs=3336))
    assert err.value.phase == "final run"


# --- saturation -------------------------------------------------------------

def test_saturate_common_factor():
    result = saturate_reduced([XZ_MINUS_XY], 0)
    # One generator, the common x stripped; sign fixed by the working order.
    assert result == [((0, 1, 0), (0, 0, 1))]  # y - z


def test_saturate_twisted_cubic_basis_to_full_ideal():
    current = lattice_ideal_engine(integer_kernel(TWISTED_CUBIC))
    for var_index in range(4):
        current = saturate_reduced(current, var_index)
    full = toric_ideal(TWISTED_CUBIC)
    assert buchberger(current) == buchberger(full)


def test_saturate_idempotent():
    once = saturate_reduced([XZ_MINUS_XY], 0)
    assert saturate_reduced(once, 0) == once
    full = toric_ideal(TWISTED_CUBIC)
    for var_index in range(4):
        once = saturate_reduced(full, var_index)
        assert saturate_reduced(once, var_index) == once


def test_saturation_check_rejects_common_factor():
    names = ("x", "y", "z")
    xy_minus_xz = [((1, 1, 0), (1, 0, 1))]
    with pytest.raises(CounterexampleFound, match="not saturated in x"):
        check_saturated(xy_minus_xz, names)
    check_saturated([((0, 1, 0), (0, 0, 1))], names)


def test_saturation_check_discards_a_forged_symmetry():
    # Swapping x and y sends x*y - x*z to x*y - y*z, so the swap does not
    # fix the generator set and must not merge the orbits of x and y.
    swap_xy = (1, 0, 2)
    names = ("x", "y", "z")
    with pytest.raises(CounterexampleFound, match="not saturated in x"):
        check_saturated([((1, 1, 0), (1, 0, 1))], names, symmetries=[swap_xy])
    # With y first, merging would leave y to stand for x, and y is saturated.
    names = ("y", "x", "z")
    y_x_minus_x_z = [((1, 1, 0), (0, 1, 1))]
    assert unsaturated_variables(y_x_minus_x_z) == [1]
    with pytest.raises(CounterexampleFound, match="not saturated in x"):
        check_saturated(y_x_minus_x_z, names, symmetries=[swap_xy])


def _assert_orbit_check_agrees(shape):
    minors = inner_minors(shape)
    order = vertex_order(shape)
    names = [vertex_name(v) for v in order]
    unsaturated = unsaturated_variables(minors)
    if not unsaturated:
        check_saturated(minors, names, symmetries=vertex_symmetries(shape))
        return
    with pytest.raises(CounterexampleFound) as err:
        check_saturated(minors, names, symmetries=vertex_symmetries(shape))
    x, y = order[unsaturated[0]]
    assert str(err.value).endswith(f"not saturated in x_{x}_{y}")


def test_orbit_saturation_check_agrees_with_every_variable_oracle(good_l_instance):
    from polyprime.families import verify_main_theorem

    primes = [rec for rec in verify_main_theorem(14).records if rec.verdict["kind"] == "prime"]
    assert len(primes) == 11
    for rec in primes:
        _assert_orbit_check_agrees(Polyomino.from_cells(rec.cells))
    _assert_orbit_check_agrees(good_l_instance[0])


def test_orbit_saturation_check_agrees_on_an_unsaturated_shape(diamond16):
    # diamond16 has a zig-zag walk and its minor ideal is not saturated in
    # 16 of its 32 variables; the orbit check must still find the first.
    minors = inner_minors(diamond16)
    unsaturated = set(unsaturated_variables(minors))
    assert len(unsaturated) == 16
    for perm in vertex_symmetries(diamond16):
        assert {perm[i] for i in unsaturated} == unsaturated
    _assert_orbit_check_agrees(diamond16)


def test_saturate_rejects_inhomogeneous():
    x2_minus_y = ((2, 0), (0, 1))
    with pytest.raises(ValueError):
        saturate_engine([x2_minus_y], 0, UNLIMITED.start())


def test_final_bases_have_coprime_halves(frame3):
    phi = toric_map_lconfig(frame3, find_l_configurations(frame3)[0])
    for lead, tail in toric_ideal(phi.entries):
        assert not any(l and t for l, t in zip(lead, tail))


# --- toric ideals of maps ---------------------------------------------------

def _certifying_map(shape):
    """The map certify_primality uses on a closed path without a zig-zag walk."""
    lconfigs = find_l_configurations(shape)
    if lconfigs:
        return toric_map_lconfig(shape, lconfigs[0])
    for ladder in find_ladders(shape, 3):
        try:
            return toric_map_ladder(shape, ladder)
        except ValueError:
            continue
    raise AssertionError("no certifying map")


def _assert_kernel_route_agrees(shape, phi):
    # The product proves equality by the lattice and saturation checks; the
    # kernel route rebuilds ker(phi) by saturating a lattice-basis ideal.
    # Both must describe the same ideal.
    minors = inner_minors(shape)
    assert check_containment(minors, phi)
    assert attempt_equality(minors, phi, Budget()) == ("full", ())
    assert buchberger(minors) == toric_ideal(phi.entries)


def test_toric_ideal_single_cell():
    single = Polyomino.from_cells([(0, 0)])
    gb = toric_ideal(toric_map_marked(single, ()).entries)
    assert len(gb) == 1
    assert set(gb) == set(buchberger(inner_minors(single)))


@pytest.mark.parametrize("w,h", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (2, 3), (3, 3), (1, 3)])
def test_rectangles_kernel_equals_minor_ideal(w, h):
    shape = rectangle(w, h)
    _assert_kernel_route_agrees(shape, toric_map_marked(shape, ()))


def test_frame3_equality(frame3):
    _assert_kernel_route_agrees(frame3, toric_map_lconfig(frame3, find_l_configurations(frame3)[0]))


def test_kernel_completeness_oracle_suite(frame3):
    cubic = toric_ideal(TWISTED_CUBIC)
    assert kernel_complete_up_to_degree(TWISTED_CUBIC, cubic, 4)
    for w, h in [(2, 2), (3, 2)]:
        shape = rectangle(w, h)
        mat = toric_map_marked(shape, ()).entries
        assert kernel_complete_up_to_degree(mat, toric_ideal(mat), 4)
    mat3 = toric_map_lconfig(frame3, find_l_configurations(frame3)[0]).entries
    assert kernel_complete_up_to_degree(mat3, toric_ideal(mat3), 3)


def test_kernel_completeness_oracle_detects_gaps():
    # Dropping a basis element must be caught by the oracle.
    gb = toric_ideal(TWISTED_CUBIC)
    assert not kernel_complete_up_to_degree(TWISTED_CUBIC, gb[:1], 4)


def test_kernel_route_oracle_rank12_prime_shapes():
    from polyprime.families import verify_main_theorem

    report = verify_main_theorem(12)
    primes = [rec for rec in report.records if rec.verdict["kind"] == "prime"]
    assert primes
    for rec in primes:
        assert rec.verdict["equality"] == "full"
        shape = Polyomino.from_cells(rec.cells)
        _assert_kernel_route_agrees(shape, _certifying_map(shape))


def test_attempt_equality_rejects_unmarked_map_on_diamond(diamond16):
    # The unmarked edge map kills every inner minor of diamond16, but its
    # kernel is strictly larger than the (non-prime) minor ideal.
    minors = inner_minors(diamond16)
    phi = toric_map_marked(diamond16, ())
    assert check_containment(minors, phi)
    with pytest.raises(CounterexampleFound, match="minor lattice"):
        attempt_equality(minors, phi, Budget())


def _budget_stop_note(shape) -> str:
    verdict = certify_primality(shape, Budget(max_pairs=3))
    assert verdict.kind == "prime" and verdict.equality == "containment-only"
    (note,) = verdict.notes
    return note


def test_budget_stop_names_saturation_phase(frame3):
    assert vertex_order(frame3)[0] == (0, 0)
    assert _budget_stop_note(frame3) == "budget exhausted: pair cap (saturation check, x_0_0)"


def test_budget_stop_names_a_vertex_with_negative_coordinates(frame3):
    shape = frame3.translate(-1, -2)
    assert vertex_order(shape)[0] == (-1, -2)
    assert _budget_stop_note(shape) == "budget exhausted: pair cap (saturation check, x_m1_m2)"


def test_budget_caps_the_whole_saturation_check(frame3):
    # frame3's 3 saturation-check runs (one per variable orbit) handle 171
    # S-pairs together and at most 75 each, so only a cap on their sum can
    # stop this budget.
    verdict = certify_primality(frame3, Budget(max_pairs=170))
    assert verdict.equality == "containment-only"
    assert len(verdict.notes) == 1
    assert verdict.notes[0].startswith("budget exhausted: pair cap (saturation check, x_")


def test_budget_stop_message_names_the_phase_once_set():
    exc = BudgetExhausted("pair cap", 473, 8)
    assert str(exc) == "pair cap (pairs=473, max degree seen=8)"
    assert str(pickle.loads(pickle.dumps(exc))) == str(exc)
    exc.phase = "saturation, x_0_1"
    assert str(exc) == "pair cap (saturation, x_0_1; pairs=473, max degree seen=8)"


# --- reduced bases compare ideals -------------------------------------------

def test_reduced_basis_sign_normalized():
    x_minus_y, y_minus_x = ((1, 0), (0, 1)), ((0, 1), (1, 0))
    assert buchberger([x_minus_y]) == buchberger([x_minus_y])
    assert buchberger([x_minus_y]) == buchberger([y_minus_x])
    assert buchberger([x_minus_y]) != buchberger([])


# --- monomial orders --------------------------------------------------------

def textbook_degrevlex_greater(a, b) -> bool:
    """a > b in degrevlex with x_1 > ... > x_n: a has the higher degree, or
    the degrees agree and the last nonzero entry of a - b is negative."""
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    diff = [x - y for x, y in zip(a, b) if x != y]
    return bool(diff) and diff[-1] < 0


def engine_greater(cheapest, a, b) -> bool:
    """The comparison the Groebner engine makes, on packed monomials."""
    from polyprime.toric import _PackedRing

    ring = _PackedRing(len(a), cheapest)
    return ring.greater(sum(a), ring.pack(a), sum(b), ring.pack(b))


def test_degrevlex_key_basics():
    from itertools import product

    plain = 2  # the last variable cheapest: plain degrevlex
    assert engine_greater(plain, (1, 0, 0), (0, 0, 0))
    # degrevlex: a*c < b^2 for variables ordered a > b > c
    assert engine_greater(plain, (0, 2, 0), (1, 0, 1))
    assert not engine_greater(plain, (1, 0, 1), (0, 2, 0))
    monos = list(product(range(3), repeat=3))
    for a in monos:
        for b in monos:
            assert engine_greater(plain, a, b) == textbook_degrevlex_greater(a, b)


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=3),
    st.integers(0, 2),
)
def test_degrevlex_multiplicative(monos, cheapest):
    a, b, c = monos
    significance = [i for i in range(3) if i != cheapest] + [cheapest]
    posed = lambda m: tuple(m[i] for i in significance)
    assert engine_greater(cheapest, a, b) == textbook_degrevlex_greater(posed(a), posed(b))
    if engine_greater(cheapest, a, b):
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert engine_greater(cheapest, ac, bc)


# --- certification pipeline -------------------------------------------------

def test_certify_frame3(frame3):
    verdict = certify_primality(frame3)
    assert verdict.kind == "prime"
    assert verdict.proof == "lconfig-toric"
    assert verdict.equality == "full"


def test_certify_simple_rectangle():
    verdict = certify_primality(rectangle(3, 2))
    assert verdict.kind == "prime" and verdict.proof == "simple-toric"
    assert verdict.equality == "full"


@pytest.mark.parametrize(
    "cells",
    [
        [(0, 0), (1, 0), (1, 1)],                                  # corner
        [(0, 0), (1, 0), (1, 1), (2, 1)],                          # staircase
        [(0, 1), (0, 0), (1, 0), (2, 0), (2, 1)],                  # wide U
        [(0, 0), (1, 0), (2, 0), (1, 1), (1, 2)],                  # plus-ish T
    ],
)
def test_simple_shapes_kernel_equals_minors(cells):
    # The unmarked edge map's kernel coincides with the minor ideal on
    # every hole-free shape, not just rectangles.
    shape = Polyomino.from_cells(cells)
    verdict = certify_primality(shape)
    assert verdict.kind == "prime" and verdict.equality == "full"


def test_certify_ring22_containment_under_tiny_budget(ring22):
    verdict = certify_primality(ring22, Budget(max_pairs=50))
    assert verdict.kind == "prime"
    assert verdict.proof == "ladder-toric"
    assert verdict.equality == "containment-only"
    assert any("budget" in note for note in verdict.notes)


def test_certify_nonprime_diamond(diamond16):
    verdict = certify_primality(diamond16, Budget(max_pairs=1))
    assert verdict.kind == "nonprime"
    assert verdict.witness is not None


def _feature_marking(shape):
    return feature_marking(shape.cells, find_l_configurations(shape),
                           find_ladders(shape, min_steps=3))


def test_feature_marking_takes_the_first_l_configuration(frame3):
    corner = find_l_configurations(frame3)[0].corner_cell
    assert _feature_marking(frame3) == (frozenset(cell_vertices(corner)), "lconfig-toric")


def test_feature_marking_falls_back_to_a_ladder(ring22):
    assert not find_l_configurations(ring22)
    ladder = find_ladders(ring22, min_steps=3)[0]
    assert _feature_marking(ring22) == (ladder_marked_set(ladder, ring22.cells), "ladder-toric")


def test_feature_marking_without_a_feature_is_none(diamond16):
    assert _feature_marking(diamond16) is None


def test_certify_rejects_unsupported_shapes(psc_instance):
    shape, _ = psc_instance
    with pytest.raises(NotInSupportedClass):
        certify_primality(shape)


# Rank-20 closed paths with a ladder but no L-configuration (enumeration
# output): the smallest shapes after ring22 exercising the ladder proof.
LADDER20_A = (
    (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 3), (1, 4), (2, 0), (2, 4),
    (2, 5), (3, 0), (3, 1), (3, 5), (4, 1), (4, 2), (4, 4), (4, 5), (5, 2),
    (5, 3), (5, 4),
)
LADDER20_B = (
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1), (1, 4), (1, 5), (2, 0),
    (2, 5), (3, 0), (3, 1), (3, 5), (4, 1), (4, 2), (4, 4), (4, 5), (5, 2),
    (5, 3), (5, 4),
)


@pytest.mark.parametrize("cells", [LADDER20_A, LADDER20_B])
def test_certify_rank20_ladder_shapes(cells):
    shape = Polyomino.from_cells(cells)
    assert not find_l_configurations(shape)
    assert find_ladders(shape, 3)
    verdict = certify_primality(shape, Budget(max_pairs=2000))
    assert verdict.kind == "prime"
    assert verdict.proof == "ladder-toric"
    # Containment always holds; equality may downgrade under this tiny budget.
    assert verdict.equality in ("full", "containment-only")


def test_certify_verdict_invariant_across_lconfig_choice(frame3):
    # The pipeline picks the first L-configuration; any choice must certify.
    minors = inner_minors(frame3)
    for lconf in find_l_configurations(frame3):
        gb = toric_ideal(toric_map_lconfig(frame3, lconf).entries)
        assert buchberger(gb) == buchberger(minors)


def test_containment_for_every_feature_choice_rank14():
    # Every L-configuration map and every posable 3-step ladder map of every
    # enumerated closed path keeps all inner minors in the kernel.
    from polyprime.classify import find_ladders as ladders_of
    from polyprime.families import enumerate_closed_paths
    for shape in enumerate_closed_paths(14):
        for lconf in find_l_configurations(shape):
            assert kills_minors(shape, toric_map_lconfig(shape, lconf))
        for ladder in ladders_of(shape, 3):
            try:
                phi = toric_map_ladder(shape, ladder)
            except ValueError:
                continue
            assert kills_minors(shape, phi)


def test_rank14_sweep_full_equality():
    # Every closed path through rank 14 certifies prime with full equality
    # (none admits a zig-zag walk yet).
    from polyprime.families import enumerate_closed_paths

    for shape in enumerate_closed_paths(14):
        verdict = certify_primality(shape, Budget(max_seconds=120))
        assert verdict.kind == "prime"
        assert verdict.equality == "full"


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 3), min_size=4, max_size=4),
            st.lists(st.integers(0, 3), min_size=4, max_size=4),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_buchberger_output_is_a_groebner_basis(raw):
    # Definitional oracle: every S-binomial of the output reduces to zero,
    # and every input generator rewrites to zero.
    from polyprime.toric import _PackedRing, _pk_normalize

    gens = [(tuple(a), tuple(b)) for a, b in raw if tuple(a) != tuple(b)]
    if not gens:
        return
    basis = buchberger_engine(gens, 3, UNLIMITED.start())
    ring = _PackedRing(4, 3)
    packed = [
        (sum(lead), ring.pack(lead), sum(tail), ring.pack(tail)) for lead, tail in basis
    ]
    for lead, tail in gens:
        f = _pk_normalize(ring, sum(lead), ring.pack(lead), sum(tail), ring.pack(tail))
        assert f is None or pk_full_reduce(ring, f, packed) is None
    for i in range(len(packed)):
        for j in range(i):
            gi, gj = packed[i], packed[j]
            lcm = ring.lcm(gi[1], gj[1])
            deg = ring.degree(lcm)
            s = _pk_normalize(
                ring,
                deg - gi[0] + gi[2], lcm - gi[1] + gi[3],
                deg - gj[0] + gj[2], lcm - gj[1] + gj[3],
            )
            assert s is None or pk_full_reduce(ring, s, packed) is None


def test_verdict_kind_invariant_under_symmetry(diamond16, frame3):
    from polyprime.families import enumerate_closed_paths
    from polyprime.grid import TRANSFORM_NAMES, transform_polyomino

    tiny = Budget(max_pairs=1)
    for shape in (frame3, diamond16):
        kinds = {
            certify_primality(transform_polyomino(name, shape), tiny).kind
            for name in TRANSFORM_NAMES
        }
        assert len(kinds) == 1


def test_verdict_json_round_trip(frame3):
    import json

    verdict = certify_primality(frame3)
    payload = json.loads(json.dumps(verdict.to_json_dict()))
    assert payload["kind"] == "prime"


@st.composite
def homogeneous_binomial_sets(draw):
    """Up to five homogeneous binomials of degree <= 4 in at most five
    variables, with a cheapest variable for the order."""
    n = draw(st.integers(2, 5))

    def monomial(degree: int) -> tuple[int, ...]:
        picks = draw(st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree))
        return tuple(picks.count(v) for v in range(n))

    gens = []
    for _ in range(draw(st.integers(1, 5))):
        degree = draw(st.integers(1, 4))
        gens.append((monomial(degree), monomial(degree)))
    return n, draw(st.integers(0, n - 1)), gens


@settings(deadline=None)
@given(homogeneous_binomial_sets())
def test_pair_update_matches_reference(case):
    # Drive the engine's main loop by hand and run the first-written
    # Gebauer-Moeller update beside toric._gm_update after every new basis
    # element: both must queue and cancel exactly the same pairs.
    from heapq import heappop

    from polyprime.toric import (
        _PackedRing,
        _gm_update,
        _pk_head_reduce,
        _pk_interreduce,
        _pk_normalize,
    )

    n, cheapest, gens = case
    ring = _PackedRing(n, cheapest)
    basis, pairs, cancelled = [], [], set()
    ref_pairs, ref_cancelled = [], set()

    def add(f):
        h = _pk_head_reduce(ring, f, basis)
        if h is None:
            return
        basis.append(h)
        _gm_update(ring, basis, pairs, cancelled, len(basis) - 1)
        reference_gm_update(ring, basis, ref_pairs, ref_cancelled, len(basis) - 1)
        assert pairs == ref_pairs
        assert cancelled == ref_cancelled

    for a, b in gens:
        f = _pk_normalize(ring, sum(a), ring.pack(a), sum(b), ring.pack(b))
        if f is not None:
            add(f)
    while pairs:
        degree, i, j, lcm = heappop(pairs)
        heappop(ref_pairs)
        if (i, j) in cancelled:
            continue
        gi, gj = basis[i], basis[j]
        s = _pk_normalize(ring, degree - gi[0] + gi[2], lcm - gi[1] + gi[3],
                          degree - gj[0] + gj[2], lcm - gj[1] + gj[3])
        if s is not None:
            add(s)
    reduced = _pk_interreduce(ring, basis)
    assert reduced == reference_interreduce(ring, basis)
    unpacked = [(ring.unpack(lead), ring.unpack(tail)) for _, lead, _, tail in reduced]
    assert unpacked == buchberger_engine(gens, cheapest, UNLIMITED.start())
