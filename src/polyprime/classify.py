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
    cell_vertices,
    edge_interval_through,
    maximal_blocks,
    vertices,
)


class ClosedPathCert(Record):
    """Cyclic cell order witnessing the closed-path conditions."""

    cycle: tuple[Cell, ...]

    @property
    def length(self) -> int:
        return len(self.cycle)

    def validate(self) -> bool:
        """Re-check all four defining conditions directly on the cycle."""
        cycle = self.cycle
        n = len(cycle)
        if n <= 5:
            return False
        if len(set(cycle)) != n:
            return False
        for i in range(n):
            a, b = cycle[i], cycle[(i + 1) % n]
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                return False
        verts = [set(cell_vertices(c)) for c in cycle]
        for i in range(n):
            for j in range(i + 1, n):
                gap = min(j - i, n - (j - i))
                if gap > 2 and verts[i] & verts[j]:
                    return False
        return True


class LConfiguration(Record):
    """Five-cell path whose two three-cell arms run in orthogonal directions.

    ``cells`` is ordered A1..A5; A3 is the shared corner cell.
    """

    cells: tuple[Cell, Cell, Cell, Cell, Cell]

    @property
    def corner_cell(self) -> Cell:
        return self.cells[2]

    def as_set(self) -> frozenset[Cell]:
        return frozenset(self.cells)


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
    """Cell sequence with distinct cells, consecutive edge contacts, and
    vertex-disjointness at index distance three or more."""

    cells: tuple[Cell, ...]

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
    """Three non-aligned cells with their two hooking vertices.

    The hooking vertex of an end cell is its unique corner that belongs to
    no other cell of the trimino and sits at unit distance from the corner
    shared by all three cells; the hooking edges are the end cell's two
    edges through it.
    """

    cells: tuple[Cell, Cell, Cell]  # (end, middle, end)
    hooking_vertices: tuple[Point, Point]
    hooking_edges: dict[Point, tuple[tuple[Point, Point], tuple[Point, Point]]]

    def __hash__(self) -> int:
        return hash((self.cells, self.hooking_vertices))


def _neighbors_in(cell: Cell, cells: frozenset[Cell]) -> list[Cell]:
    return [nb for nb in cell_neighbors(cell) if nb in cells]


def closed_path_certificate(p: Polyomino) -> ClosedPathCert | None:
    """Detect the closed-path structure and return the oriented cycle.

    Every cell must have exactly two edge-neighbors in the shape; the unique
    cycle is then checked for length > 5 and vertex-disjointness outside the
    cyclic window of width two.  The cycle starts at the lexicographically
    least cell and proceeds toward its smaller neighbor.
    """
    cells = p.cells
    if len(cells) <= 5:
        return None
    adjacency: dict[Cell, list[Cell]] = {}
    for cell in cells:
        nbs = _neighbors_in(cell, cells)
        if len(nbs) != 2:
            return None
        adjacency[cell] = sorted(nbs)
    start = min(cells)
    cycle = [start, adjacency[start][0]]
    while True:
        prev, current = cycle[-2], cycle[-1]
        nxt = [nb for nb in adjacency[current] if nb != prev]
        if len(nxt) != 1:
            return None
        if nxt[0] == start:
            break
        cycle.append(nxt[0])
    if len(cycle) != len(cells):
        return None  # degree-2 but several cycles: disconnected is impossible here
    cert = ClosedPathCert(tuple(cycle))
    return cert if cert.validate() else None


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


def _vertex_window_ok(cells: tuple[Cell, ...], window: int) -> bool:
    verts = [set(cell_vertices(c)) for c in cells]
    n = len(cells)
    for i in range(n):
        for j in range(i + window + 1, n):
            if verts[i] & verts[j]:
                return False
    return True


def open_path_certificate(p: Polyomino) -> OpenPath | None:
    """Order the cells as an open path if the shape admits one."""
    cells = p.cells
    if len(cells) < 2:
        return None
    degree = {cell: _neighbors_in(cell, cells) for cell in cells}
    endpoints = sorted(c for c, nbs in degree.items() if len(nbs) == 1)
    if len(endpoints) != 2 or any(len(nbs) > 2 for nbs in degree.values()):
        return None
    order = [endpoints[0]]
    prev: Cell | None = None
    while len(order) < len(cells):
        nxt = [nb for nb in degree[order[-1]] if nb != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    if order[-1] != endpoints[1]:
        return None
    cells_tuple = tuple(order)
    if len(cells_tuple) > 2 and not _vertex_window_ok(cells_tuple, 2):
        return None
    return OpenPath(cells_tuple)


def trimino_certificate(p: Polyomino) -> Trimino | None:
    """Recognize a three-cell corner shape and label its hooking structure."""
    if p.rank != 3:
        return None
    cells = sorted(p.cells)
    middles = [c for c in cells if len(_neighbors_in(c, p.cells)) == 2]
    if len(middles) != 1:
        return None  # aligned triples have a middle too, filtered below
    middle = middles[0]
    ends = [c for c in cells if c != middle]
    (e1x, e1y), (e2x, e2y) = ends
    if e1x == e2x or e1y == e2y:
        return None  # aligned
    shared = set(cell_vertices(ends[0])) & set(cell_vertices(ends[1])) & set(cell_vertices(middle))
    if len(shared) != 1:
        return None
    pivot = shared.pop()
    hooking: list[Point] = []
    edge_map: dict[Point, tuple[tuple[Point, Point], tuple[Point, Point]]] = {}
    for end in ends:
        other_vertices = set(cell_vertices(middle)) | set(
            cell_vertices(ends[1] if end == ends[0] else ends[0])
        )
        candidates = [
            v
            for v in cell_vertices(end)
            if v not in other_vertices
            and abs(v[0] - pivot[0]) + abs(v[1] - pivot[1]) == 1
        ]
        if len(candidates) != 1:
            return None
        vertex = candidates[0]
        hooking.append(vertex)
        incident = tuple(e for e in cell_edges(end) if vertex in e)
        edge_map[vertex] = (incident[0], incident[1])
    return Trimino((ends[0], middle, ends[1]), (hooking[0], hooking[1]), edge_map)
