"""Inner 2-minor generators and vertex-to-monomial (toric) maps.

One representation throughout: a monomial is an exponent tuple over the
sorted vertex order (:func:`vertex_order`), and a binomial is a (plus,
minus) pair of such tuples.  The generator ideal I_P of a shape has one
binomial per inner interval (:func:`inner_minors`): the product of the
diagonal-corner variables minus the product of the anti-diagonal ones.  A
toric map sends each vertex to the product of the variables of its two
maximal edge intervals, times an extra variable ``w`` on a marked vertex
set.  :class:`ToricMap` is that map's exponent matrix A, one column per
vertex, and a binomial lies in the map's kernel exactly when A times its
exponent difference is zero.  :mod:`polyprime.toric` proves
I_P = ker(phi) from these tuples and A alone.

Names are a print step: :func:`vertex_name` is the only code that names a
variable, and :func:`export_generators` prints exponent tuples under a
list of names.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .classify import Ladder, LConfiguration, find_l_configurations, find_ladders
from .grid import (
    HORIZONTAL,
    Point,
    Polyomino,
    Record,
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

Mono = tuple[int, ...]
# (plus, minus) exponent tuples of a binomial over a fixed variable order.
ExponentBinomial = tuple[Mono, Mono]


def vertex_order(p: Polyomino) -> tuple[Point, ...]:
    """The vertices in sorted order: the variables of I_P and the columns of every map."""
    return tuple(sorted(vertices(p)))


def vertex_name(point: Point) -> str:
    """Print name of a vertex variable: ``x_1_0``, with ``-`` printed as ``m``."""
    x, y = point
    return f"x_{x}_{y}".replace("-", "m")


def vertex_symmetries(p: Polyomino) -> tuple[tuple[int, ...], ...]:
    """Column permutations of :func:`vertex_order` induced by the shape's symmetries.

    One permutation per dihedral map of the lattice that sends the cell
    set onto itself after a translation, the identity first.  Entry i is
    the column of the image of vertex i.
    """
    order = vertex_order(p)
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


def inner_minors(p: Polyomino) -> list[ExponentBinomial]:
    """One (diagonal, anti-diagonal) exponent pair per inner interval.

    Intervals come in the deterministic interval order; exponents are over
    :func:`vertex_order`, which is also the column order of
    :attr:`ToricMap.entries`.
    """
    column = {v: i for i, v in enumerate(vertex_order(p))}

    def corners(a: Point, b: Point) -> Mono:
        exps = [0] * len(column)
        exps[column[a]] += 1
        exps[column[b]] += 1
        return tuple(exps)

    return [
        (corners(interval.a, interval.b), corners(*interval.anti_diagonal_corners))
        for interval in inner_intervals(p)
    ]


class ToricMap(Record):
    """A toric map phi as its exponent matrix A.

    Column r of ``entries`` is the exponent vector of phi(x_r), for the
    vertex ``columns[r]`` (:func:`vertex_order`).  The rows are the target
    variables: one per maximal vertical edge interval, then one per
    maximal horizontal edge interval, each block in the order of
    :func:`polyprime.grid.maximal_edge_intervals`, then a last row ``w``
    when ``marked`` is not empty.  Each vertex maps to the product of the
    variables of its two maximal edge intervals, times ``w`` when it lies
    in ``marked``.
    """

    columns: tuple[Point, ...]
    entries: tuple[tuple[int, ...], ...]
    marked: frozenset[Point]


def toric_map_marked(p: Polyomino, marked: Iterable[Point]) -> ToricMap:
    """Generic marked-vertex map; ``marked = ()`` gives the plain edge map.

    Rows as in :class:`ToricMap`.  Maximal edge intervals of one
    orientation are disjoint, so every column has one 1 in each of the
    first two blocks of rows.
    """
    marked_set = frozenset(marked)
    order = vertex_order(p)
    if not marked_set <= set(order):
        raise ValueError(f"marked vertices not in the shape: {sorted(marked_set - set(order))}")
    intervals = maximal_edge_intervals(p, VERTICAL) + maximal_edge_intervals(p, HORIZONTAL)
    rows = [tuple(int(iv.contains_point(v)) for v in order) for iv in intervals]
    if marked_set:
        rows.append(tuple(int(v in marked_set) for v in order))
    return ToricMap(order, tuple(rows), marked_set)


def toric_map_lconfig(p: Polyomino, l: LConfiguration) -> ToricMap:
    """Mark the four vertices of the corner cell of an L-configuration of ``p``.

    Checks that ``l`` is one of the shape's; a caller that took ``l`` from
    :func:`find_l_configurations` can call :func:`toric_map_marked` instead.
    """
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
    """Toric map marking the reference corners of a maximal ladder of ``p``.

    Checks that ``ladder`` is one of the shape's; a caller that took it
    from :func:`find_ladders` can call :func:`toric_map_marked` with the
    marking of :func:`polyprime.toric.feature_marking` instead.
    """
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


def export_generators(names: Sequence[str], binomials: Iterable[ExponentBinomial]) -> str:
    """Plain algebra exchange text: ``ring`` and the names, then one binomial per line.

    ``names`` are the variables of the tuples' order.  A monomial prints as
    its variables joined by ``*``, ``^e`` after those with exponent e > 1
    and none for exponent 0; the empty product prints as ``1``.
    """

    def monomial(exps: Mono) -> str:
        return "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(names, exps) if e) or "1"

    lines = ["ring " + " ".join(names)]
    lines += [f"{monomial(plus)} - {monomial(minus)}" for plus, minus in binomials]
    return "\n".join(lines) + "\n"
