from __future__ import annotations

import itertools
from heapq import heappush
from typing import Iterator

import pytest

from polyprime.classify import OpenPath, trimino_certificate
from polyprime.composites import build_psc, build_rectangle_linked
from polyprime.families import canonical_form
from polyprime.grid import Polyomino
from polyprime.ideals import check_containment, inner_minors
from polyprime.toric import (
    UNLIMITED,
    _FIELD_BITS,
    _PackedRing,
    _pk_head_reduce,
    _pk_tail_reduce,
    buchberger_engine,
    saturate_engine,
)

# Exponent matrix of t -> (s^3, s^2 t, s t^2, t^3): the twisted cubic.
TWISTED_CUBIC = [[3, 2, 1, 0], [0, 1, 2, 3]]

FRAME3_CELLS = ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1))

# The 22-cell closed path with long staggered arms: no L-configuration,
# one horizontal 3-step ladder, no zig-zag walk.
RING22_CELLS = (
    (1, 0), (2, 0), (3, 0), (4, 0), (5, 0),
    (0, 1), (1, 1), (5, 1), (6, 1),
    (0, 2), (6, 2),
    (0, 3), (1, 3), (6, 3),
    (1, 4), (2, 4), (3, 4), (5, 4), (6, 4),
    (3, 5), (4, 5), (5, 5),
)

# 20-cell ring whose every straight run turns immediately: no
# L-configuration and no 3-step ladder, so a zig-zag walk must exist.
PINWHEEL20_CELLS = (
    (0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (3, 3), (3, 4), (2, 4),
    (2, 5), (1, 5), (0, 5), (-1, 5), (-1, 4), (-2, 4), (-2, 3), (-2, 2),
    (-2, 1), (-1, 1), (-1, 0),
)

# Minimal zig-zag closed path (rank 16, found by exhaustive enumeration).
DIAMOND16_CELLS = (
    (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 3), (1, 4), (2, 0), (2, 4),
    (3, 0), (3, 1), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3),
)


@pytest.fixture(scope="session")
def frame3() -> Polyomino:
    return Polyomino.from_cells(FRAME3_CELLS)


@pytest.fixture(scope="session")
def ring22() -> Polyomino:
    return Polyomino.from_cells(RING22_CELLS)


@pytest.fixture(scope="session")
def pinwheel20() -> Polyomino:
    return Polyomino.from_cells(PINWHEEL20_CELLS)


@pytest.fixture(scope="session")
def diamond16() -> Polyomino:
    return Polyomino.from_cells(DIAMOND16_CELLS)


def rectangle(w: int, h: int) -> Polyomino:
    return Polyomino.from_cells([(x, y) for x in range(w) for y in range(h)])


def kills_minors(shape: Polyomino, phi) -> bool:
    """Containment of every inner minor of ``shape`` in ker(phi)."""
    return check_containment(inner_minors(shape), phi)


def saturate_reduced(gens, var_index: int):
    """Reduced basis of (ideal : x_i^infinity), in degrevlex with x_i cheapest."""
    clock = UNLIMITED.start()
    return buchberger_engine(saturate_engine(gens, var_index, clock), var_index, clock)


def unsaturated_variables(gens) -> list[int]:
    """Oracle for ``check_saturated``: every variable in turn, no symmetry used.

    The indices i for which the reduced basis, in degrevlex with x_i
    cheapest, has a lead divisible by x_i.
    """
    clock = UNLIMITED.start()
    return [
        i for i in range(len(gens[0][0]))
        if any(lead[i] for lead, _ in buchberger_engine(gens, i, clock))
    ]


def pk_full_reduce(ring, f, basis):
    """Head then tail reduction of a packed binomial; None when it reduces to zero."""
    reduced = _pk_head_reduce(ring, f, basis)
    if reduced is None:
        return None
    return _pk_tail_reduce(ring, reduced, basis)


def kernel_complete_up_to_degree(matrix, basis, degree: int) -> bool:
    """Brute-force oracle: map-equal monomial pairs must share normal forms.

    Enumerates every monomial of total degree <= ``degree``, groups them by
    image under the matrix, and checks that the reduced degrevlex basis
    rewrites all members of a group to one normal form.
    """
    n = len(matrix[0])
    ring = _PackedRing(n, n - 1)
    engine = [
        (sum(lead), ring.pack(lead), sum(tail), ring.pack(tail)) for lead, tail in basis
    ]

    def normal_form(packed: int, deg: int) -> int:
        changed = True
        while changed:
            changed = False
            for g_dl, g_lead, g_dt, g_tail in engine:
                if g_dl <= deg and ring.divides(g_lead, packed):
                    packed = packed - g_lead + g_tail
                    deg = deg - g_dl + g_dt
                    changed = True
                    break
        return packed

    groups: dict[tuple[int, ...], int] = {}
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            mono = [0] * n
            for i in combo:
                mono[i] += 1
            mono_t = tuple(mono)
            image = tuple(sum(r * e for r, e in zip(row, mono_t)) for row in matrix)
            nf = normal_form(ring.pack(mono_t), total)
            if image in groups:
                if groups[image] != nf:
                    return False
            else:
                groups[image] = nf
    return True


def all_polyominoes(max_rank: int) -> Iterator[Polyomino]:
    """Naive free-polyomino enumeration (oracle for enumeration completeness)."""
    frontier: set[tuple] = {((0, 0),)}
    yield Polyomino.from_cells(((0, 0),))
    rank = 1
    while rank < max_rank:
        grown: set[tuple] = set()
        for form in frontier:
            cellset = set(form)
            for x, y in form:
                for nxt in ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1)):
                    if nxt in cellset:
                        continue
                    grown.add(canonical_form(Polyomino.from_cells(cellset | {nxt})).cells)
        frontier = grown
        rank += 1
        for form in sorted(frontier):
            yield Polyomino.from_cells(form)


def _loop_degree(ring, packed: int) -> int:
    """Total degree of a packed monomial, summed field by field."""
    total = 0
    while packed:
        total += packed & ring.low
        packed >>= _FIELD_BITS
    return total


def _support_mask(ring, a: int) -> int:
    return ((a | ring.guards) - ring.ones) & ring.guards


def reference_gm_update(ring, basis, pairs, cancelled, k: int) -> None:
    """Oracle for ``toric._gm_update``: the Gebauer-Moeller update as first
    written, with criterion M testing every kept lcm class and with degree
    and coprimality computed field by field."""
    lm_k = basis[k][1]
    lcm_with_k = [ring.lcm(basis[i][1], lm_k) for i in range(k)]
    lcms = sorted((_loop_degree(ring, lcm_ik), lcm_ik, i) for i, lcm_ik in enumerate(lcm_with_k))
    by_value: dict[int, tuple[int, list[int]]] = {}
    for deg, value, i in lcms:
        if any(v != value and ring.divides(v, value) for v in by_value):
            continue
        by_value.setdefault(value, (deg, []))[1].append(i)
    for value, (deg, members) in sorted(by_value.items()):
        if any(_support_mask(ring, basis[i][1]) & _support_mask(ring, lm_k) == 0 for i in members):
            continue
        heappush(pairs, (deg, members[0], k, value))
    for _, i, j, lcm_ij in pairs:
        if j == k or (i, j) in cancelled:
            continue
        if ring.divides(lm_k, lcm_ij) and lcm_with_k[i] != lcm_ij and lcm_with_k[j] != lcm_ij:
            cancelled.add((i, j))


def reference_interreduce(ring, basis):
    """Oracle for ``toric._pk_interreduce``: each minimal element fully
    reduced against a copy of the others."""
    ordered = sorted(set(basis), key=lambda g: (g[0], -g[1]))
    minimal = []
    for g in ordered:
        if any(h[0] <= g[0] and ring.divides(h[1], g[1]) for h in minimal):
            continue
        minimal.append(g)
    result = []
    for i, g in enumerate(minimal):
        reduced = pk_full_reduce(ring, g, minimal[:i] + minimal[i + 1:])
        if reduced is not None:
            result.append(reduced)
    result.sort(key=lambda g: (g[0], -g[1], g[2], -g[3]))
    return result


def psc_parts():
    """A small valid instance: simple domino core, 9-cell path with an
    L-configuration, two corner triminoes closing the loop."""
    s = Polyomino.from_cells([(-1, 0), (-1, 1)])
    c = OpenPath(((1, 2), (1, 3), (1, 4), (0, 4), (-1, 4), (-2, 4), (-3, 4), (-3, 3), (-3, 2)))
    t1 = trimino_certificate(Polyomino.from_cells([(0, 0), (1, 0), (1, 1)]))
    t2 = trimino_certificate(Polyomino.from_cells([(-2, 0), (-3, 0), (-3, 1)]))
    assert t1 is not None and t2 is not None
    return s, c, t1, t2


@pytest.fixture(scope="session")
def psc_instance():
    return build_psc(*psc_parts())


@pytest.fixture(scope="session")
def good_l_instance():
    r = Polyomino.from_cells([(1, 1), (2, 1), (3, 1)])
    p1 = OpenPath(((1, 2), (1, 3)))
    s = Polyomino.from_cells([(1, 4), (2, 4)])
    p2 = OpenPath(((3, 4), (3, 3), (3, 2)))
    return build_rectangle_linked(r, p1, s, p2, kind="good-l-rectangle")


@pytest.fixture(scope="session")
def ladder_rect_instance():
    r = Polyomino.from_cells([(1, 1), (2, 1), (3, 1)])
    p1 = OpenPath(((1, 2), (0, 2), (0, 3), (-1, 3)))
    s = Polyomino.from_cells([(-1, 4)])
    p2 = OpenPath(((-1, 5), (0, 5), (1, 5), (2, 5), (3, 5), (3, 4), (3, 3), (3, 2)))
    return build_rectangle_linked(r, p1, s, p2, kind="ladder-rectangle")
