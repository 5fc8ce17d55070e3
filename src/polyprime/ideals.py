"""Inner 2-minor generators and vertex-to-monomial (toric) maps.

The generator ideal of a shape has one binomial per inner interval: the
product of the diagonal-corner variables minus the product of the
anti-diagonal ones.  A toric map sends each vertex to the product of the
variables of its two maximal edge intervals, times an extra variable ``w``
on a marked vertex set.  :class:`ToricMap` is that map's exponent matrix A,
one column per vertex in :func:`vertex_ring` order, and a binomial lies in
the map's kernel exactly when A times its exponent difference is zero.

The certification path works on the minors as exponent tuples over that
same vertex order: :mod:`polyprime.toric` proves I_P = ker(phi) from those
tuples and A, and computes kernel bases as tuples too.  The named
:class:`Monomial`/:class:`Binomial` forms are for export and display;
:func:`named_binomials` is the one place that makes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .classify import Ladder, LConfiguration, find_l_configurations, find_ladders
from .grid import (
    HORIZONTAL,
    Point,
    Polyomino,
    TRANSFORM_NAMES,
    VERTICAL,
    cell_vertices,
    inner_intervals,
    inverse_transform,
    maximal_edge_intervals,
    transform_cells,
    transform_orientation,
    transform_point,
    vertices,
)

# Variable identifiers.  Vertex variables are ("x", point); target-ring
# variables are ("v", k) / ("h", k) for the k-th maximal vertical/horizontal
# edge interval and ("w",) for the marking variable.
Var = tuple
Mono = tuple[int, ...]
# (plus, minus) exponent tuples of a binomial over a fixed variable order.
ExponentBinomial = tuple[Mono, Mono]

X = "x"
VEDGE = "v"
HEDGE = "h"
W: Var = ("w",)


def vertex_var(point: Point) -> Var:
    return (X, point)


@dataclass(frozen=True)
class Monomial:
    """Exponent map with positive entries, stored sorted for hashing."""

    exponents: tuple[tuple[Var, int], ...]

    @classmethod
    def from_dict(cls, exps: Mapping[Var, int]) -> "Monomial":
        items = tuple(sorted((v, e) for v, e in exps.items() if e != 0))
        if any(e < 0 for _, e in items):
            raise ValueError("negative exponent")
        return cls(items)

    @classmethod
    def one(cls) -> "Monomial":
        return cls(())

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exponents)

    def __str__(self) -> str:
        if not self.exponents:
            return "1"
        parts = []
        for v, e in self.exponents:
            name = format_var(v)
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)


def format_var(v: Var) -> str:
    if len(v) == 2 and v[0] == X and isinstance(v[1], tuple):
        x, y = v[1]
        return f"x_{x}_{y}".replace("-", "m")
    if len(v) == 2 and v[0] in (VEDGE, HEDGE):
        return f"{v[0]}{v[1]}"
    if v == W:
        return "w"
    return "_".join(str(part) for part in v)


@dataclass(frozen=True)
class Binomial:
    """Difference of two monomials; ``plus == minus`` encodes zero."""

    plus: Monomial
    minus: Monomial

    def __str__(self) -> str:
        return f"{self.plus} - {self.minus}"


def vertex_ring(p: Polyomino) -> tuple[Var, ...]:
    """The vertex variables in sorted vertex order: the ring of I_P."""
    return tuple(vertex_var(v) for v in sorted(vertices(p)))


def vertex_symmetries(p: Polyomino) -> tuple[tuple[int, ...], ...]:
    """Column permutations of :func:`vertex_ring` induced by the shape's symmetries.

    One permutation per dihedral map of the lattice that sends the cell
    set onto itself after a translation, the identity first.  Entry i is
    the column of the image of vertex i.
    """
    order = sorted(vertices(p))
    column = {v: i for i, v in enumerate(order)}
    (x0, y0), _ = p.bounding_box()
    perms = []
    for name in TRANSFORM_NAMES:
        image = transform_cells(name, p.cells)
        dx = x0 - min(x for x, _ in image)
        dy = y0 - min(y for _, y in image)
        if {(x + dx, y + dy) for x, y in image} != p.cells:
            continue
        perms.append(tuple(
            column[(x + dx, y + dy)] for x, y in (transform_point(name, v) for v in order)
        ))
    return tuple(perms)


def minor_exponents(p: Polyomino) -> list[ExponentBinomial]:
    """One (diagonal, anti-diagonal) exponent pair per inner interval.

    Intervals come in the deterministic interval order; exponents are over
    :func:`vertex_ring`, which is also the column order of
    :attr:`ToricMap.entries`.
    """
    column = {v: i for i, v in enumerate(sorted(vertices(p)))}

    def corners(a: Point, b: Point) -> Mono:
        exps = [0] * len(column)
        exps[column[a]] += 1
        exps[column[b]] += 1
        return tuple(exps)

    return [
        (corners(interval.a, interval.b), corners(*interval.anti_diagonal_corners))
        for interval in inner_intervals(p)
    ]


def named_binomials(ring: Sequence[Var],
                    binomials: Iterable[ExponentBinomial]) -> list[Binomial]:
    """Name exponent binomials by the variables of ``ring``, for export and display."""
    name = lambda exps: Monomial.from_dict(dict(zip(ring, exps)))
    return [Binomial(name(plus), name(minus)) for plus, minus in binomials]


def inner_minors(p: Polyomino) -> list[Binomial]:
    """Named view of :func:`minor_exponents`, for export and display."""
    return named_binomials(vertex_ring(p), minor_exponents(p))


@dataclass(frozen=True)
class ToricMap:
    """A toric map phi as its exponent matrix A.

    Column r of ``entries`` is the exponent vector of phi(x_r), the r-th
    variable of ``column_variables`` (:func:`vertex_ring` order); row k
    belongs to the k-th target variable.  Each vertex maps to the product
    of the variables of its two maximal edge intervals, times ``w`` when
    it lies in ``marked``.
    """

    column_variables: tuple[Var, ...]
    target_variables: tuple[Var, ...]
    entries: tuple[tuple[int, ...], ...]
    marked: frozenset[Point]


def toric_map_marked(p: Polyomino, marked: Iterable[Point]) -> ToricMap:
    """Generic marked-vertex map; ``marked = ()`` gives the plain edge map.

    One row per maximal vertical edge interval, then one per horizontal
    one, then the ``w`` row when some vertex is marked.  Maximal edge
    intervals of one orientation are disjoint, so every column has one 1
    in each of the first two blocks of rows.
    """
    marked_set = frozenset(marked)
    order = sorted(vertices(p))
    if not marked_set <= set(order):
        raise ValueError(f"marked vertices not in the shape: {sorted(marked_set - set(order))}")
    v_intervals = maximal_edge_intervals(p, VERTICAL)
    h_intervals = maximal_edge_intervals(p, HORIZONTAL)
    target: list[Var] = [(VEDGE, i) for i in range(len(v_intervals))]
    target += [(HEDGE, j) for j in range(len(h_intervals))]
    rows = [tuple(int(iv.contains_point(v)) for v in order) for iv in v_intervals + h_intervals]
    if marked_set:
        target.append(W)
        rows.append(tuple(int(v in marked_set) for v in order))
    return ToricMap(tuple(vertex_var(v) for v in order), tuple(target), tuple(rows), marked_set)


def toric_map_lconfig(p: Polyomino, l: LConfiguration) -> ToricMap:
    """Mark the four vertices of the corner cell of an L-configuration."""
    if l not in find_l_configurations(p):
        raise ValueError("not an L-configuration of this polyomino")
    return toric_map_marked(p, cell_vertices(l.corner_cell))


def _ladder_pose_ok(blocks: list[tuple[tuple[int, int], ...]],
                    shape_cells: frozenset[tuple[int, int]]) -> bool:
    """Blocks listed top to bottom: horizontal rows descending by one, the
    last block attached under the right end of the one above it, and no
    shape cell directly below the last block (it is locally the floor, as
    the reference arrangement requires; otherwise the marked corners meet
    inner intervals hanging below and the containment argument breaks)."""
    rows = []
    for cells in blocks:
        ys = {c[1] for c in cells}
        if len(ys) != 1:
            return False
        rows.append(ys.pop())
    if any(rows[i] - 1 != rows[i + 1] for i in range(len(rows) - 1)):
        return False
    second_last = sorted(blocks[-2])
    rightmost = second_last[-1]
    below = (rightmost[0], rightmost[1] - 1)
    if below not in blocks[-1]:
        return False
    return all((x, y - 1) not in shape_cells for x, y in blocks[-1])


def ladder_marked_set(ladder: Ladder, shape_cells: frozenset[tuple[int, int]]) -> frozenset[Point]:
    """Marked vertices for a ladder map, computed in a canonical pose.

    The host shape is turned so the ladder's blocks are horizontal and
    descend by one row per step, the final block sits under the right end
    of the block above it, and nothing of the shape lies directly below the
    final block.  In that pose the marked set is the lower-left corners of
    the second-to-last block's cells together with the three remaining
    corners of the attached cell; the set is then pulled back to the
    original coordinates.
    """
    if ladder.steps < 3:
        raise ValueError("ladder map needs at least three steps")
    for name in TRANSFORM_NAMES:
        if transform_orientation(name, ladder.orientation) != HORIZONTAL:
            continue
        posed_shape = transform_cells(name, shape_cells)
        for order in (1, -1):
            blocks = [
                tuple(sorted(transform_cells(name, b.cells)))
                for b in (ladder.blocks if order == 1 else tuple(reversed(ladder.blocks)))
            ]
            if not _ladder_pose_ok(blocks, posed_shape):
                continue
            a_list = list(blocks[-2])
            rightmost = a_list[-1]
            ax, ay = rightmost[0], rightmost[1] - 1
            marked_pose = set(a_list) | {(ax, ay), (ax + 1, ay + 1), (ax + 1, ay)}
            inv = inverse_transform(name)
            return frozenset(transform_point(inv, q) for q in marked_pose)
    raise ValueError("ladder admits no canonical pose")


def toric_map_ladder(p: Polyomino, ladder: Ladder) -> ToricMap:
    """Toric map marking the ladder's reference corners."""
    if ladder not in find_ladders(p, min_steps=2):
        raise ValueError("not a maximal ladder of this polyomino")
    return toric_map_marked(p, ladder_marked_set(ladder, p.cells))


def check_containment(minors: Sequence[ExponentBinomial], phi: ToricMap) -> bool:
    """True iff A * (plus - minus) = 0 for every minor: all lie in ker(phi)."""
    return all(
        sum(a * (x - y) for a, x, y in zip(row, plus, minus)) == 0
        for plus, minus in minors
        for row in phi.entries
    )


def export_generators(variables: Iterable[Var], binomials: Iterable[Binomial]) -> str:
    """Plain algebra exchange text: variable list, then one binomial per line."""
    lines = ["ring " + " ".join(format_var(v) for v in variables)]
    lines += [str(b) for b in binomials]
    return "\n".join(lines) + "\n"
