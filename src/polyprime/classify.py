"""Recognizers for the shape classes driving the primality pipeline.

Closed paths (cell cycles whose cells touch only their cyclic neighbors),
L-configurations (two orthogonal three-cell runs sharing their corner cell),
ladders (chains of parallel maximal blocks meeting edge-to-edge with
staggered contacts), open paths, and corner triminoes.
"""

from __future__ import annotations

from .grid import (
    Block,
    Cell,
    HORIZONTAL,
    Orientation,
    Point,
    Polyomino,
    Record,
    VERTICAL,
    cell_edges,
    cell_neighbors,
    edge_interval_through,
    maximal_blocks,
    vertices,
)


def _is_cell_path(cells: tuple[Cell, ...], closed: bool) -> bool:
    """Are the cells, in this order, a path of cells?

    The cells are distinct; consecutive cells share an edge, and so do the
    last and the first when ``closed``; cells more than two steps apart
    share no vertex, steps counted cyclically when ``closed``.
    """
    n = len(cells)
    if len(set(cells)) != n:
        return False
    for i in range(n if closed else n - 1):
        (ax, ay), (bx, by) = cells[i], cells[(i + 1) % n]
        if abs(ax - bx) + abs(ay - by) != 1:
            return False
    for i in range(n):
        ax, ay = cells[i]
        # Distinct cells share a vertex exactly when neither coordinate differs by more than one.
        for j in range(i + 3, min(n, n - 2 + i) if closed else n):
            bx, by = cells[j]
            if -1 <= ax - bx <= 1 and -1 <= ay - by <= 1:
                return False
    return True


def _walk(cells: frozenset[Cell], start: Cell, step: Cell) -> list[Cell]:
    """The walk through ``cells`` from ``start`` that steps first to ``step``.

    Each later step goes to the one neighbour in the set that is not the
    previous cell.  The walk stops where there is no such single neighbour,
    or where that neighbour is ``start``.  It never loops elsewhere: a cell
    met twice would have offered two neighbours the first time.
    """
    order = [start, step]
    prev, current = start, step
    while True:
        nxt = [nb for nb in cell_neighbors(current) if nb in cells and nb != prev]
        if len(nxt) != 1 or nxt[0] == start:
            return order
        prev, current = current, nxt[0]
        order.append(current)


class ClosedPathCert(Record):
    """Cyclic cell order witnessing the closed-path conditions."""

    cycle: tuple[Cell, ...]

    @property
    def length(self) -> int:
        return len(self.cycle)

    def validate(self) -> bool:
        """Re-check the defining conditions directly on the cycle."""
        return len(self.cycle) > 5 and _is_cell_path(self.cycle, closed=True)


class LConfiguration(Record):
    """Five-cell path whose two three-cell arms run in orthogonal directions.

    ``cells`` is ordered A1..A5; A3 is the shared corner cell.
    """

    cells: tuple[Cell, Cell, Cell, Cell, Cell]

    @property
    def corner_cell(self) -> Cell:
        return self.cells[2]


class Ladder(Record):
    """Chain of parallel maximal blocks with single-edge, staggered contacts."""

    blocks: tuple[Block, ...]
    contacts: tuple[tuple[Point, Point], ...]

    @property
    def steps(self) -> int:
        return len(self.blocks)

    @property
    def orientation(self) -> Orientation:
        return self.blocks[0].orientation


class OpenPath(Record):
    """At least two cells that, in this order, form a path of cells.

    The cells are distinct, consecutive cells share an edge, and cells
    three or more steps apart share no vertex.  Any other order raises
    ``ValueError``.
    """

    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if len(self.cells) < 2 or not _is_cell_path(self.cells, closed=False):
            raise ValueError(f"cells are not an open path in the order given: {self.cells}")

    @property
    def length(self) -> int:
        return len(self.cells)

    def free_edges(self, end: int) -> tuple[tuple[Point, Point], ...]:
        """Edges of an end cell (0 = first, -1 = last) not shared with its neighbor."""
        cell = self.cells[0] if end == 0 else self.cells[-1]
        neighbor = self.cells[1] if end == 0 else self.cells[-2]
        taken = set(cell_edges(neighbor))
        return tuple(e for e in cell_edges(cell) if e not in taken)


class Trimino(Record):
    """Three cells in (end, middle, end) order, the two ends not aligned.

    Any other cells raise ``ValueError``.  The hooking vertex of an end cell
    is its unique corner that belongs to no other cell of the trimino and
    sits at unit distance from the corner shared by all three cells; the
    hooking edges are the end cell's two edges through it.
    """

    cells: tuple[Cell, Cell, Cell]

    def __post_init__(self) -> None:
        cells = self.cells
        if not (len(cells) == 3 and _is_cell_path(cells, closed=False)
                and cells[0][0] != cells[2][0] and cells[0][1] != cells[2][1]):
            raise ValueError(f"cells are not a corner trimino in (end, middle, end) order: {cells}")

    @property
    def hooking_vertices(self) -> tuple[Point, Point]:
        # The ends meet diagonally, in the corner shared by all three cells;
        # each end's hooking vertex lies one step from it, away from the middle.
        (fx, fy), (mx, my), (lx, ly) = self.cells
        px, py = max(fx, lx), max(fy, ly)
        return ((px + fx - mx, py + fy - my), (px + lx - mx, py + ly - my))

    def hooking_edges(self, vertex: Point) -> tuple[tuple[Point, Point], tuple[Point, Point]]:
        """The two edges through ``vertex`` of the end cell it hooks."""
        end = self.cells[self.hooking_vertices.index(vertex) * 2]
        return tuple(e for e in cell_edges(end) if vertex in e)  # type: ignore[return-value]


def _neighbors_in(cell: Cell, cells: frozenset[Cell]) -> list[Cell]:
    return [nb for nb in cell_neighbors(cell) if nb in cells]


def closed_path_certificate(p: Polyomino) -> ClosedPathCert | None:
    """Detect the closed-path structure and return the oriented cycle.

    The cycle starts at the lexicographically least cell and proceeds
    toward its smaller neighbor; the shape is a closed path when that walk
    takes in every cell and the cycle it gives passes
    :meth:`ClosedPathCert.validate`.
    """
    cells = p.cells
    if len(cells) <= 5:
        return None
    start = min(cells)
    cert = ClosedPathCert(tuple(_walk(cells, start, min(_neighbors_in(start, cells)))))
    return cert if len(cert.cycle) == len(cells) and cert.validate() else None


_ARM_DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def find_l_configurations(p: Polyomino) -> list[LConfiguration]:
    """All five-cell corner configurations, deduplicated as cell sets."""
    cells = p.cells
    found: dict[frozenset[Cell], LConfiguration] = {}
    for corner in sorted(cells):
        for d1 in _ARM_DIRECTIONS:
            arm1 = [(corner[0] + k * d1[0], corner[1] + k * d1[1]) for k in (1, 2)]
            if not all(c in cells for c in arm1):
                continue
            for d2 in _ARM_DIRECTIONS:
                if d1[0] * d2[0] + d1[1] * d2[1] != 0:
                    continue
                arm2 = [(corner[0] + k * d2[0], corner[1] + k * d2[1]) for k in (1, 2)]
                if not all(c in cells for c in arm2):
                    continue
                ordered = (arm1[1], arm1[0], corner, arm2[0], arm2[1])
                key = frozenset(ordered)
                if key not in found or ordered < found[key].cells:
                    found[key] = LConfiguration(ordered)
    return sorted(found.values(), key=lambda l: l.cells)


def _block_contact(b1: Block, b2: Block) -> tuple[Point, Point] | None:
    """The two shared vertices of the blocks, if they share exactly two."""
    shared = sorted(vertices(b1.cells) & vertices(b2.cells))
    if len(shared) != 2:
        return None
    return (shared[0], shared[1])


def _contacts_on_common_interval(p: Polyomino, c1: tuple[Point, Point], c2: tuple[Point, Point],
                                 orientation: Orientation) -> bool:
    # Contacts of parallel horizontal blocks are horizontal unit edges and
    # vice versa; compare the maximal edge interval containing each.
    i1 = edge_interval_through(p, c1[0], orientation)
    i2 = edge_interval_through(p, c2[0], orientation)
    if i1 is None or i2 is None:
        return False
    return i1 == i2 and i1.contains_point(c1[1]) and i2.contains_point(c2[1])


def find_ladders(p: Polyomino, min_steps: int = 2) -> list[Ladder]:
    """All maximal-length block chains forming ladders of >= min_steps steps.

    Chains use maximal blocks of one orientation with length >= 2; consecutive
    blocks share exactly two vertices, and consecutive contact edges must not
    lie on one maximal edge interval of the polyomino.  Chains are grown to
    maximal length; sub-chains are not reported separately.
    """
    if min_steps < 2:
        raise ValueError("a ladder has at least two steps")
    ladders: list[Ladder] = []
    for orientation in (HORIZONTAL, VERTICAL):
        blocks = [b for b in maximal_blocks(p, orientation) if b.length >= 2]
        contact: dict[int, dict[int, tuple[Point, Point]]] = {i: {} for i in range(len(blocks))}
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                c = _block_contact(blocks[i], blocks[j])
                if c is not None:
                    contact[i][j] = c
                    contact[j][i] = c
        seen: set[tuple[int, ...]] = set()
        # Depth-first over chains on an explicit stack, children pushed in
        # reverse so they are visited in sorted order.  A recursive closure
        # would be a reference cycle holding these tables until a full
        # garbage collection.
        stack = [[i] for i in reversed(range(len(blocks)))]
        while stack:
            chain = stack.pop()
            longer = [chain + [nxt] for nxt in sorted(contact[chain[-1]])
                      if _can_append(p, orientation, contact, chain, nxt)]
            if longer:
                stack.extend(reversed(longer))
                continue
            head = chain[::-1]
            if any(_can_append(p, orientation, contact, head, nxt)
                   for nxt in sorted(contact[head[-1]])):
                continue
            # Maximal in both directions: record once, canonical direction.
            if len(chain) < min_steps:
                continue
            ordered = chain if blocks[chain[0]] <= blocks[chain[-1]] else head
            key = tuple(ordered)
            if key in seen:
                continue
            seen.add(key)
            ladders.append(Ladder(tuple(blocks[i] for i in ordered),
                                  tuple(contact[a][b] for a, b in zip(ordered, ordered[1:]))))
    ladders.sort(key=lambda l: (l.orientation, l.blocks))
    return ladders


def _can_append(p: Polyomino, orientation: Orientation,
                contact: dict[int, dict[int, tuple[Point, Point]]], chain: list[int], nxt: int) -> bool:
    """May block ``nxt``, in contact with the chain's last block, extend the chain?"""
    if nxt in chain:
        return False
    if len(chain) >= 2:
        c_prev = contact[chain[-2]][chain[-1]]
        c_new = contact[chain[-1]][nxt]
        if _contacts_on_common_interval(p, c_prev, c_new, orientation):
            return False
    return True


def has_block_of_length(p: Polyomino, k: int) -> bool:
    """True iff some maximal block (either orientation) has length >= k."""
    if k < 1:
        raise ValueError("block length threshold must be positive")
    if k == 1:
        return True
    return any(
        b.length >= k
        for orientation in (HORIZONTAL, VERTICAL)
        for b in maximal_blocks(p, orientation)
    )


def open_path_certificate(p: Polyomino) -> OpenPath | None:
    """Order the cells as an open path if the shape admits one.

    The walk starts at the least cell with a single neighbor.
    """
    cells = p.cells
    ends = [c for c in cells if len(_neighbors_in(c, cells)) == 1]
    if not ends:
        return None
    start = min(ends)
    order = tuple(_walk(cells, start, _neighbors_in(start, cells)[0]))
    if len(order) != len(cells) or not _is_cell_path(order, closed=False):
        return None
    return OpenPath(order)


def trimino_certificate(p: Polyomino) -> Trimino | None:
    """Order a three-cell corner shape as (end, middle, end), the ends sorted."""
    if p.rank != 3:
        return None
    # Three edge-connected cells: the middle is the one with two neighbors.
    cells = sorted(p.cells)
    middle = next(c for c in cells if len(_neighbors_in(c, p.cells)) == 2)
    first, last = (c for c in cells if c != middle)
    try:
        return Trimino((first, middle, last))
    except ValueError:
        return None  # the ends are aligned
