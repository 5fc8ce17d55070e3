"""Exact binomial-ideal engine and the primality certification pipeline.

Everything runs over arbitrary-precision integers.  Monomials are exponent
tuples over a fixed variable order, and the Groebner functions take and
return nothing else; a list of variable names is passed in only where a
budget stop or a failed check must name a variable.  Inside
the Groebner core the tuples are packed into single big integers (one bit
field per variable plus a guard bit) so that divisibility, multiplication,
order comparison and the total degree (one multiplication that adds every
field into the top one) are constant-count big-int operations.  The only
orders are degrevlex with one chosen variable cheapest.

A Prime verdict proves I_P = ker(phi) from the inner minors and phi's
exponent matrix A (:class:`polyprime.ideals.ToricMap`) alone.  Given
containment, the minors' exponent lattice must equal the integer kernel of
A (rank n - rank(A), index 1 in its saturation), and I_P must be saturated
with respect to every vertex variable (one reduced Groebner basis per
variable, in degrevlex with that variable cheapest).  A symmetry of the
shape that fixes the set of minors carries each saturation to another, so
one run per orbit of the vertex variables under those symmetries suffices
(:func:`check_saturated`).  A kernel basis (``integer_kernel``) and the
kernel ideal built from it (lattice-basis ideal -> saturation by every
variable -> reduced basis, ``toric_ideal``) are computed only for output
and as a test oracle.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from heapq import heappop, heappush

from .budget import Budget, BudgetClock, BudgetExhausted, CounterexampleFound, UNLIMITED
from .classify import (
    LConfiguration,
    Ladder,
    closed_path_certificate,
    find_l_configurations,
    find_ladders,
)
from .grid import Cell, Point, Polyomino, Record, cell_vertices, is_simple
from .ideals import (
    ExponentBinomial,
    Mono,
    ToricMap,
    check_containment,
    inner_minors,
    ladder_marked_set,
    toric_map_marked,
    vertex_name,
    vertex_symmetries,
)
from .zigzag import ZigZagWalk, find_zigzag_walk, verify_zigzag

_FIELD_BITS = 20
_FIELD_MAX = 1 << (_FIELD_BITS - 1)


class NotInSupportedClass(ValueError):
    """certify_primality only covers simple shapes and closed paths."""


# ---------------------------------------------------------------------------
# The packed representation
# ---------------------------------------------------------------------------

class _PackedRing:
    """Bit-field packing of exponent tuples for degrevlex with one cheapest variable.

    The other variables keep their ring order, the first most significant;
    ``cheapest = n - 1`` gives plain degrevlex.  The cheapest variable
    occupies the most significant field, so that (deg, packed) with the
    integer comparison *reversed* realizes degrevlex.
    """

    __slots__ = ("n", "field_of", "var_of", "guards", "ones", "low", "top")

    def __init__(self, n: int, cheapest: int):
        self.n = n
        self.var_of = tuple(i for i in range(n) if i != cheapest) + (cheapest,)
        field_of = [0] * n
        for k, var in enumerate(self.var_of):
            field_of[var] = k
        self.field_of = tuple(field_of)
        self.guards = sum(1 << (k * _FIELD_BITS + _FIELD_BITS - 1) for k in range(n))
        self.ones = sum(1 << (k * _FIELD_BITS) for k in range(n))
        self.low = (1 << _FIELD_BITS) - 1
        self.top = (n - 1) * _FIELD_BITS

    def pack(self, mono: Mono) -> int:
        packed = 0
        for i, e in enumerate(mono):
            if e:
                if e >= _FIELD_MAX:
                    raise OverflowError("exponent too large for the packed field")
                packed += e << (self.field_of[i] * _FIELD_BITS)
        return packed

    def unpack(self, packed: int) -> Mono:
        mono = [0] * self.n
        k = 0
        while packed:
            mono[self.var_of[k]] = packed & self.low
            packed >>= _FIELD_BITS
            k += 1
        return tuple(mono)

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.guards) - a) & self.guards == self.guards

    def lcm(self, a: int, b: int) -> int:
        t = (a | self.guards) - b
        mask = (t & self.guards) >> (_FIELD_BITS - 1)
        smear = mask * self.low
        return b + (t & smear & ~self.guards)

    def degree(self, packed: int) -> int:
        # Multiplying by ``ones`` adds every field into the top one.  No
        # partial sum carries into the next field while the total degree
        # stays below 2**_FIELD_BITS, which the engine's input guard ensures.
        return ((packed * self.ones) >> self.top) & self.low

    def greater(self, deg_a: int, a: int, deg_b: int, b: int) -> bool:
        if deg_a != deg_b:
            return deg_a > deg_b
        return a < b


# Engine-internal binomial: (deg_lead, packed_lead, deg_tail, packed_tail).
_Packed = tuple[int, int, int, int]


def _pk_normalize(ring: _PackedRing, da: int, a: int, db: int, b: int) -> _Packed | None:
    if a == b:
        return None
    if ring.greater(da, a, db, b):
        return (da, a, db, b)
    return (db, b, da, a)


def _pk_head_reduce(ring: _PackedRing, f: _Packed, basis: list[_Packed]) -> _Packed | None:
    """Reduce until the lead is irreducible; None encodes zero.

    Each step rewrites by the first basis element whose lead divides the
    lead (the guard-bit test of :meth:`_PackedRing.divides`, inlined).
    """
    guards = ring.guards
    dl, lead, dt, tail = f
    changed = True
    while changed:
        changed = False
        lead_g = lead | guards
        for g_dl, g_lead, g_dt, g_tail in basis:
            if g_dl <= dl and (lead_g - g_lead) & guards == guards:
                lead = lead - g_lead + g_tail
                dl = dl - g_dl + g_dt
                if lead == tail:
                    return None
                if dt > dl or (dt == dl and tail < lead):
                    dl, lead, dt, tail = dt, tail, dl, lead
                changed = True
                break
    return (dl, lead, dt, tail)


def _pk_tail_reduce(ring: _PackedRing, f: _Packed, basis: list[_Packed]) -> _Packed:
    """Rewrite the tail of f until no basis lead divides it.

    Every step makes the tail strictly smaller in a monomial order, so it
    never reaches the lead: the result is never zero.
    """
    guards = ring.guards
    dl, lead, dt, tail = f
    changed = True
    while changed:
        changed = False
        tail_g = tail | guards
        for g_dl, g_lead, g_dt, g_tail in basis:
            if g_dl <= dt and (tail_g - g_lead) & guards == guards:
                tail = tail - g_lead + g_tail
                dt = dt - g_dl + g_dt
                changed = True
                break
    return (dl, lead, dt, tail)


def _pk_interreduce(ring: _PackedRing, basis: list[_Packed]) -> list[_Packed]:
    """Minimal generators with irreducible tails: the reduced basis.

    The leads of a Buchberger basis are distinct, so no other minimal lead
    divides a minimal element's lead.  Nor does its own lead divide its
    tail, which is smaller in a degree-compatible order.  Reducing each
    tail against all of ``minimal`` is therefore the same as fully reducing
    the element against the others.
    """
    guards = ring.guards
    ordered = sorted(set(basis), key=lambda g: (g[0], -g[1]))
    minimal: list[_Packed] = []
    for g in ordered:
        dl, lead_g = g[0], g[1] | guards
        for h_dl, h_lead, _, _ in minimal:
            if h_dl <= dl and (lead_g - h_lead) & guards == guards:
                break
        else:
            minimal.append(g)
    result = [_pk_tail_reduce(ring, g, minimal) for g in minimal]
    result.sort(key=lambda g: (g[0], -g[1], g[2], -g[3]))
    return result


def _gm_update(ring: _PackedRing, basis: list[_Packed], pairs: list[tuple[int, int, int, int]],
               cancelled: set[tuple[int, int]], k: int) -> None:
    """Gebauer-Moeller pair update for the new basis element at index k.

    Queued pairs are (lcm degree, i, j, lcm) with i < j; the lcm is kept so
    that neither criterion B nor the S-pair step computes it again.

    Candidates are scanned by ascending (degree, lcm), and criterion M
    tests each new lcm value only against the values kept at a strictly
    lower degree: a monomial divides another of the same total degree only
    if the two are equal, and one of higher degree never.  A repeated
    value shares the verdict of its first occurrence.
    """
    guards = ring.guards
    lm_k = basis[k][1]
    lcm_with_k = [ring.lcm(basis[i][1], lm_k) for i in range(k)]
    lcms = sorted((ring.degree(lcm_ik), lcm_ik, i) for i, lcm_ik in enumerate(lcm_with_k))
    # Criterion M: drop candidates whose lcm is properly divisible by another
    # candidate's lcm; criterion F: keep one candidate per lcm value;
    # coprime criterion: drop a whole lcm class containing a coprime pair.
    by_value: dict[int, tuple[int, list[int]]] = {}
    lower: list[int] = []  # kept values of degree below ``level_deg``
    level: list[int] = []  # kept values of degree ``level_deg``
    level_deg = -1
    previous = -1
    current: list[int] | None = None  # members of ``previous``, None if dropped
    for deg, value, i in lcms:
        if value != previous:
            previous = value
            if deg != level_deg:
                lower += level
                level = []
                level_deg = deg
            value_g = value | guards
            for v in lower:
                if (value_g - v) & guards == guards:
                    current = None
                    break
            else:
                current = []
                by_value[value] = (deg, current)
                level.append(value)
        if current is not None:
            current.append(i)
    for value, (deg, members) in sorted(by_value.items()):
        # lcm(a, b) = a + b exactly when a and b are coprime.
        if any(value == basis[i][1] + lm_k for i in members):
            continue
        heappush(pairs, (deg, members[0], k, value))
    # Criterion B: cancel old pairs strictly refined by the new lead.  The
    # divisibility test rejects almost every pair, so it comes first.
    for _, i, j, lcm_ij in pairs:
        if ((lcm_ij | guards) - lm_k) & guards == guards and j != k \
                and lcm_with_k[i] != lcm_ij and lcm_with_k[j] != lcm_ij:
            cancelled.add((i, j))


def _pk_buchberger(ring: _PackedRing, gens: list[_Packed], clock: BudgetClock) -> list[_Packed]:
    basis: list[_Packed] = []
    pairs: list[tuple[int, int, int, int]] = []
    cancelled: set[tuple[int, int]] = set()
    for g in gens:
        h = _pk_head_reduce(ring, g, basis)
        if h is None:
            continue
        basis.append(h)
        _gm_update(ring, basis, pairs, cancelled, len(basis) - 1)
    try:
        while pairs:
            degree, i, j, lcm = heappop(pairs)
            if (i, j) in cancelled:
                continue
            if degree >= _FIELD_MAX:
                # No exponent exceeds the degree of a homogeneous pair, so
                # below this bound no packed field can overflow.
                raise OverflowError("S-pair degree too large for the packed field")
            clock.tick_pair(degree)
            gi, gj = basis[i], basis[j]
            s_plus = lcm - gi[1] + gi[3]
            s_minus = lcm - gj[1] + gj[3]
            d_plus = degree - gi[0] + gi[2]
            d_minus = degree - gj[0] + gj[2]
            s = _pk_normalize(ring, d_plus, s_plus, d_minus, s_minus)
            if s is None:
                continue
            h = _pk_head_reduce(ring, s, basis)
            if h is None:
                continue
            basis.append(h)
            _gm_update(ring, basis, pairs, cancelled, len(basis) - 1)
    except BudgetExhausted as exc:
        exc.basis_size = len(basis)
        raise
    return _pk_interreduce(ring, basis)


def buchberger_engine(gens: Iterable[ExponentBinomial], cheapest: int,
                      clock: BudgetClock) -> list[ExponentBinomial]:
    """Reduced Groebner basis of a binomial ideal over exponent tuples.

    The order is degrevlex with variable ``cheapest`` the cheapest; the last
    index gives plain degrevlex.  Normal selection strategy (ascending lcm
    degree) with Gebauer-Moeller pair pruning.  Every S-pair goes through
    ``clock.tick_pair``, the only call made on the clock, so one clock can
    span many runs; a cap raises :class:`BudgetExhausted`.
    """
    gens = list(gens)
    if not gens:
        return []
    ring = _PackedRing(len(gens[0][0]), cheapest)
    packed = []
    for a, b in gens:
        da, db = sum(a), sum(b)
        if max(da, db) >= _FIELD_MAX:
            # Leads below this degree keep every lcm degree below
            # 2**_FIELD_BITS, where _PackedRing.degree is exact.
            raise OverflowError("generator degree too large for the packed field")
        pa, pb = ring.pack(a), ring.pack(b)
        norm = _pk_normalize(ring, da, pa, db, pb)
        if norm is not None:
            packed.append(norm)
    reduced = _pk_buchberger(ring, packed, clock)
    return [(ring.unpack(lead), ring.unpack(tail)) for _, lead, _, tail in reduced]


def buchberger(gens: Iterable[ExponentBinomial],
               budget: Budget = UNLIMITED) -> list[ExponentBinomial]:
    """Reduced degrevlex basis of exponent binomials, sorted canonically."""
    gens = list(gens)
    n = len(gens[0][0]) if gens else 0
    return buchberger_engine(gens, n - 1, budget.start())


def saturate_engine(gens: Iterable[ExponentBinomial], var_index: int,
                    clock: BudgetClock) -> list[ExponentBinomial]:
    """Generators of (ideal : x_i^infinity) for standard-graded binomials.

    With the saturating variable cheapest in degrevlex, a homogeneous
    reduced-basis element divisible by the variable is divisible as a
    whole, so stripping the variable's full power from every element
    generates the quotient.  Inputs must be homogeneous.
    """
    gens = list(gens)
    for lead, tail in gens:
        if sum(lead) != sum(tail):
            raise ValueError("saturation requires standard-graded binomials")
    divided: list[ExponentBinomial] = []
    for lead, tail in buchberger_engine(gens, var_index, clock):
        k = min(lead[var_index], tail[var_index])
        if k:
            lead = lead[:var_index] + (lead[var_index] - k,) + lead[var_index + 1:]
            tail = tail[:var_index] + (tail[var_index] - k,) + tail[var_index + 1:]
        divided.append((lead, tail))
    return divided


def _column_reduce(a: list[list[int]], t: list[list[int]] | None = None) -> list[int]:
    """Shear ``a`` to column echelon form in place; return the pivots.

    Unimodular column operations, applied to ``t`` as well when given.
    The k-th pivot row ends with its positive pivot in column k and zeros
    to the right of it, so the number of pivots is the rank.
    """
    n = len(a[0])
    pivots: list[int] = []
    for r in range(len(a)):
        frontier = len(pivots)
        # Rows above r are zero from the frontier on; column operations there
        # leave them unchanged.
        live = [a[r:]] + ([t] if t is not None else [])
        pivot = None
        for j in range(frontier, n):
            if a[r][j] == 0:
                continue
            if pivot is None:
                pivot = j
                continue
            g, s, u = _xgcd(a[r][pivot], a[r][j])
            p_over, j_over = a[r][pivot] // g, a[r][j] // g
            for mat in live:
                for row in mat:
                    vp, vj = row[pivot], row[j]
                    row[pivot] = s * vp + u * vj
                    row[j] = -j_over * vp + p_over * vj
        if pivot is None:
            continue
        if pivot != frontier:
            for mat in live:
                for row in mat:
                    row[pivot], row[frontier] = row[frontier], row[pivot]
        if a[r][frontier] < 0:
            for mat in live:
                for row in mat:
                    row[frontier] = -row[frontier]
        pivots.append(a[r][frontier])
    return pivots


def integer_kernel(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of the integer null space of the matrix, via column reduction.

    Unimodular column operations (tracked in T) shear the matrix to column
    echelon form; the trailing columns of T then form a lattice basis of
    the kernel.  Exact arbitrary-precision arithmetic throughout.
    """
    m = len(rows)
    if m == 0:
        raise ValueError("matrix needs at least one row")
    n = len(rows[0])
    a = [list(map(int, r)) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("ragged matrix")
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rank = len(_column_reduce(a, t))
    kernel = []
    for j in range(rank, n):
        vec = tuple(t[i][j] for i in range(n))
        lead = next((x for x in vec if x != 0), 0)
        if lead < 0:
            vec = tuple(-x for x in vec)
        kernel.append(vec)
    kernel.sort()
    return kernel


def lattice_rank_and_index(vectors: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Rank of the integer span L of the vectors, and L's index in its saturation.

    The index is the product of the Smith invariants, so it is 1 exactly
    when L is saturated, L = (L (x) Q) & Z^n.  A column reduction of the
    transpose yields an echelon basis of L; a second one shears that basis
    to a lower-triangular square block, whose diagonal product is the index.
    """
    vectors = [list(map(int, v)) for v in vectors]
    if not vectors:
        return 0, 1
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("vectors of unequal length")
    transpose = [[v[i] for v in vectors] for i in range(n)]
    rank = len(_column_reduce(transpose))
    if rank == 0:
        return 0, 1
    basis = [[transpose[i][k] for i in range(n)] for k in range(rank)]
    return rank, math.prod(_column_reduce(basis))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, s, t with s*a + t*b == g > 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def lattice_ideal_engine(basis_vectors: Iterable[Sequence[int]]) -> list[ExponentBinomial]:
    """One binomial x^{u+} - x^{u-} per lattice basis vector."""
    gens = []
    for vec in basis_vectors:
        if not any(vec):
            raise ValueError("zero vector has no binomial")
        plus = tuple(x if x > 0 else 0 for x in vec)
        minus = tuple(-x if x < 0 else 0 for x in vec)
        gens.append((plus, minus))
    return gens


def toric_ideal(matrix: Sequence[Sequence[int]], budget: Budget = UNLIMITED,
                names: Sequence[str] = ()) -> list[ExponentBinomial]:
    """Reduced degrevlex basis of the kernel ideal of the monomial map ``matrix``.

    Exponent tuples over the matrix columns.  The lattice-basis ideal of
    ``integer_kernel(matrix)`` is saturated by each variable in turn, then
    reduced.  One clock from ``budget`` caps the n saturations and the
    final run together; on exhaustion the exception's ``phase`` names the
    saturation variable (by ``names``, the column names, when given)
    or the final run.  Post-checks: a reduced basis of a saturated ideal
    has coprime halves, and every element lies in the kernel of the map.
    """
    kernel = integer_kernel(matrix)
    if not kernel:
        return []
    n = len(matrix[0])
    clock = budget.start()
    gens = lattice_ideal_engine(kernel)
    for var_index in range(n):
        try:
            gens = saturate_engine(gens, var_index, clock)
        except BudgetExhausted as exc:
            name = names[var_index] if names else f"column {var_index}"
            exc.phase = f"saturation, {name}"
            raise
    try:
        reduced = buchberger_engine(gens, n - 1, clock)
    except BudgetExhausted as exc:
        exc.phase = "final run"
        raise
    for lead, tail in reduced:
        if any(l and t for l, t in zip(lead, tail)):
            raise CounterexampleFound("saturation left a common monomial factor")
        for row in matrix:
            if sum(r * e for r, e in zip(row, lead)) != sum(r * e for r, e in zip(row, tail)):
                raise CounterexampleFound("basis element outside the map kernel")
    return reduced


# ---------------------------------------------------------------------------
# Primality pipeline
# ---------------------------------------------------------------------------

PROOF_SIMPLE = "simple-toric"
PROOF_LCONFIG = "lconfig-toric"
PROOF_LADDER = "ladder-toric"
PROOF_MARKED = "marked-toric"

EQUALITY_FULL = "full"
EQUALITY_CONTAINMENT = "containment-only"


class PrimalityVerdict(Record):
    kind: str  # "prime" | "nonprime" | "inconclusive"
    proof: str | None = None
    equality: str | None = None
    witness: ZigZagWalk | None = None
    reason: str | None = None
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "proof": self.proof,
            "equality": self.equality,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "reason": self.reason,
            "notes": list(self.notes),
        }


def check_saturated(gens: Sequence[ExponentBinomial], names: Sequence[str],
                    budget: Budget = UNLIMITED,
                    symmetries: Sequence[Sequence[int]] = ()) -> None:
    """Raise unless the homogeneous binomial ideal is saturated in every variable.

    For each x_i, the reduced basis in degrevlex with x_i cheapest must
    have no leading monomial divisible by x_i; a basis element with such a
    lead is x_i times an element outside the ideal, so the test is exact.
    The run for the last variable uses plain degrevlex.

    ``symmetries`` are candidate column permutations (entry i is the image
    of variable i), such as :func:`polyprime.ideals.vertex_symmetries`.
    One is kept only if it maps the set of generators onto itself, each
    generator compared as an unordered {plus, minus} pair.  A kept
    permutation is then a ring automorphism sigma with sigma(I) = I, so
    sigma(I : x_i^infinity) = I : x_sigma(i)^infinity, and I is saturated
    in x_i exactly when it is saturated in x_sigma(i).  One run per orbit
    of the variables under the kept permutations therefore suffices; it
    is made on the orbit's least index, orbits in index order.  A wrong
    candidate is discarded, so it can cost time but never weaken the check.

    The budget caps the runs together: they share one clock.  ``names``
    are the variables' print names: on budget exhaustion the exception's
    ``phase`` names the variable, and so does a failed check.
    """
    for lead, tail in gens:
        if sum(lead) != sum(tail):
            raise ValueError("the saturation check requires standard-graded binomials")
    clock = budget.start()
    for i in _orbit_representatives(gens, len(names), symmetries):
        try:
            basis = buchberger_engine(gens, i, clock)
        except BudgetExhausted as exc:
            exc.phase = f"saturation check, {names[i]}"
            raise
        if any(lead[i] for lead, _ in basis):
            raise CounterexampleFound(f"generator ideal is not saturated in {names[i]}")


def _orbit_representatives(gens: Sequence[ExponentBinomial], n: int,
                           symmetries: Sequence[Sequence[int]]) -> list[int]:
    """Least index of each orbit of the n variables under the permutations
    that fix the generator set, in increasing order."""

    def permuted(mono: Mono, perm: Sequence[int]) -> Mono:
        image = [0] * n
        for i, e in enumerate(mono):
            image[perm[i]] = e
        return tuple(image)

    generator_set = {frozenset(g) for g in gens}
    kept = [
        perm for perm in symmetries
        if {frozenset((permuted(a, perm), permuted(b, perm))) for a, b in gens} == generator_set
    ]
    representatives: list[int] = []
    seen: set[int] = set()
    for i in range(n):
        if i in seen:
            continue
        representatives.append(i)
        seen.add(i)
        orbit = [i]
        for j in orbit:
            for perm in kept:
                if perm[j] not in seen:
                    seen.add(perm[j])
                    orbit.append(perm[j])
    return representatives


def attempt_equality(minors: Sequence[ExponentBinomial], phi: ToricMap,
                     budget: Budget,
                     symmetries: Sequence[Sequence[int]] = ()) -> tuple[str, tuple[str, ...]]:
    """Prove I_P = ker(phi) from the inner minors, given containment.

    ``minors`` are the exponent tuples of :func:`inner_minors`; the
    columns of phi's exponent matrix A follow the same vertex order.  Let
    L be the integer span of the minors' exponent vectors; containment
    gives L inside ker_Z(A).

    (a) Lattice check: L has the rank of ker_Z(A), which is n - rank(A)
        for n vertex variables, and index 1 in its saturation, so
        L = ker_Z(A).
    (b) Saturation check (:func:`check_saturated`): I_P : x_i^infinity
        = I_P for every vertex variable x_i, with one Groebner run per
        orbit of the variables under those of ``symmetries`` (column
        permutations) that fix the set of minors.

    Together, I_P = I_P : (prod x)^infinity = I_L = ker(phi), because
    saturating the ideal of any generating set of a lattice gives its
    lattice ideal (Eisenbud-Sturmfels, "Binomial ideals", 1996).  Each
    check fails exactly when I_P != ker(phi), and a failure raises
    :class:`CounterexampleFound`.  The budget caps the whole proof, not
    each Groebner run in it; exhaustion downgrades to containment-only,
    with a note naming the phase and the variable.
    """
    kernel_rank = len(phi.columns) - len(_column_reduce([list(r) for r in phi.entries]))
    rank, index = lattice_rank_and_index(
        [tuple(a - b for a, b in zip(plus, minus)) for plus, minus in minors]
    )
    if rank != kernel_rank:
        raise CounterexampleFound(
            f"minor lattice has rank {rank}, the map kernel has rank {kernel_rank}"
        )
    if index != 1:
        raise CounterexampleFound(f"minor lattice has index {index} in its saturation")
    try:
        check_saturated(minors, [vertex_name(v) for v in phi.columns], budget, symmetries)
    except BudgetExhausted as exc:
        return EQUALITY_CONTAINMENT, (f"budget exhausted: {exc.reason} ({exc.phase})",)
    return EQUALITY_FULL, ()


def prove_prime(p: Polyomino, phi: ToricMap, proof: str, budget: Budget) -> PrimalityVerdict:
    """Prime verdict from a map whose kernel should be I_P.

    Builds the minors' exponent tuples and the shape's vertex permutations
    once; :func:`check_containment` and then :func:`attempt_equality` read
    them with phi's exponent matrix.
    """
    minors = inner_minors(p)
    if not check_containment(minors, phi):
        raise CounterexampleFound(f"{proof} map fails to kill an inner minor")
    equality, notes = attempt_equality(minors, phi, budget, vertex_symmetries(p))
    return PrimalityVerdict("prime", proof, equality, notes=notes)


def certify_primality(p: Polyomino, budget: Budget = UNLIMITED) -> PrimalityVerdict:
    """Decide primality of the inner-minor ideal for simple shapes and closed paths.

    Simple shapes are certified with the unmarked edge map.  For closed
    paths: a zig-zag walk witnesses NonPrime; otherwise an L-configuration
    or a ladder of three or more steps must exist and its marked map
    certifies Prime, with I_P = ker(phi) proved inside the budget
    (:func:`attempt_equality`).
    """
    if is_simple(p):
        return prove_prime(p, toric_map_marked(p, ()), PROOF_SIMPLE, budget)
    if closed_path_certificate(p) is None:
        raise NotInSupportedClass(
            "shape is neither simple nor a closed path; use the family pipeline"
        )
    return certify_closed_path(p, budget, find_zigzag_walk(p),
                               find_l_configurations(p), find_ladders(p, min_steps=3))


def certify_closed_path(p: Polyomino, budget: Budget, witness: ZigZagWalk | None,
                        lconfigs: Sequence[LConfiguration],
                        ladders: Sequence[Ladder]) -> PrimalityVerdict:
    """The closed-path step of :func:`certify_primality`, from a feature scan already made.

    ``witness``, ``lconfigs`` and ``ladders`` must be what
    ``find_zigzag_walk(p)``, ``find_l_configurations(p)`` and
    ``find_ladders(p, min_steps=3)`` return, so a sweep that already ran
    them does not run them again, and the map is built from the chosen
    feature without validating it anew.  That costs no soundness:
    :func:`prove_prime` proves containment and I_P = ker(phi) for
    whichever map it is given.  ``p`` must be a closed path.
    """
    if witness is not None:
        if not verify_zigzag(p, witness):
            raise CounterexampleFound("zig-zag search returned an invalid witness")
        return PrimalityVerdict("nonprime", witness=witness)
    marking = feature_marking(p.cells, lconfigs, ladders)
    if marking is None:
        raise CounterexampleFound(
            "no ladder admits the reference arrangement" if ladders else
            "closed path with no zig-zag walk, no L-configuration, no 3-step ladder"
        )
    marked, proof = marking
    return prove_prime(p, toric_map_marked(p, marked), proof, budget)


def feature_marking(cells: frozenset[Cell], lconfigs: Sequence[LConfiguration],
                    ladders: Sequence[Ladder]) -> tuple[frozenset[Point], str] | None:
    """The marked vertex set and proof tag of the first usable feature, or ``None``.

    The feature is the corner cell of the first L-configuration or, failing
    that, the reference corners of the first of ``ladders`` (three steps or
    more) that :func:`ladder_marked_set` can pose in the shape ``cells``.
    A closed path is marked at its own features, and a family instance at
    those of its path part.
    """
    if lconfigs:
        return frozenset(cell_vertices(lconfigs[0].corner_cell)), PROOF_LCONFIG
    for ladder in ladders:
        try:
            return ladder_marked_set(ladder, cells), PROOF_LADDER
        except ValueError:
            continue
    return None
