"""Exact model of unit cells on the integer lattice.

Cells are identified by their lower-left corner.  A polyomino is a finite,
nonempty, edge-connected set of cells; everything else here (vertex and edge
sets, lattice intervals, maximal edge intervals, blocks, holes) is derived
from it by exact integer arithmetic.  All values are immutable and all
operations are pure functions with deterministic output order.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from functools import cached_property
from operator import attrgetter

Point = tuple[int, int]
Cell = tuple[int, int]
Edge = tuple[Point, Point]  # endpoints sorted lexicographically

Orientation = str  # HORIZONTAL ("h") or VERTICAL ("v")

HORIZONTAL: Orientation = "h"
VERTICAL: Orientation = "v"

class PolyominoError(ValueError):
    """Invalid cell set."""


class EmptyPolyominoError(PolyominoError):
    """The empty cell set is rejected at construction."""


class DisconnectedCellsError(PolyominoError):
    """Cell set is not edge-connected."""


class GridParseError(ValueError):
    """Malformed text-grid or JSON shape input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


def cell_vertices(cell: Cell) -> tuple[Point, Point, Point, Point]:
    x, y = cell
    return ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1))


def cell_edges(cell: Cell) -> tuple[Edge, Edge, Edge, Edge]:
    x, y = cell
    return (
        ((x, y), (x + 1, y)),          # bottom
        ((x, y + 1), (x + 1, y + 1)),  # top
        ((x, y), (x, y + 1)),          # left
        ((x + 1, y), (x + 1, y + 1)),  # right
    )


def cell_neighbors(cell: Cell) -> tuple[Cell, Cell, Cell, Cell]:
    x, y = cell
    return ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1))


def point_leq(p: Point, q: Point) -> bool:
    return p[0] <= q[0] and p[1] <= q[1]


_set_field = object.__setattr__


class Record:
    """Base of the package's immutable values.

    A subclass lists its fields, in order, as annotations in its body,
    after the fields of a Record base; a class attribute of the same name
    is the field's default.  The constructor takes the fields by position
    or keyword and then calls ``__post_init__``, where a subclass checks
    them.  Instances compare and order as the tuples of their field
    values, and only with instances of the same class; they hash as that
    tuple and refuse assignment.  This is the value behaviour of a frozen
    ``dataclasses.dataclass`` with ``order=True``, reprs included, without
    the cost of importing ``dataclasses`` and generating each class's
    methods, which every process would pay at start-up.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls._fields + tuple(n for n in cls.__annotations__ if n not in cls._fields)
        cls._fields = fields
        cls._defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        get = attrgetter(*fields)
        cls._values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __init__(self, *args: object, **kwargs: object) -> None:
        # Fields are stored with object.__setattr__, never through __dict__:
        # the instance then keeps its attribute reads on the fast path.
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(fields)} fields, "
                            f"{len(args)} given")
        for name, value in zip(fields, args):
            _set_field(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__qualname__} missing field {name!r}")
            _set_field(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__qualname__} has no fields {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields; a subclass with an invariant overrides this."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({body})"

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) < other._values(other)
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) <= other._values(other)
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) > other._values(other)
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) >= other._values(other)
        return NotImplemented


class Interval(Record):
    """Lattice interval [a, b] with a <= b componentwise.

    ``a`` and ``b`` are the diagonal corners; the anti-diagonal corners are
    derived.  ``proper`` means strictly increasing in both coordinates, in
    which case the interval carries cells.
    """

    a: Point
    b: Point

    def __post_init__(self) -> None:
        if not point_leq(self.a, self.b):
            raise ValueError(f"interval corners not ordered: {self.a} !<= {self.b}")

    @property
    def proper(self) -> bool:
        return self.a[0] < self.b[0] and self.a[1] < self.b[1]

    @property
    def anti_diagonal_corners(self) -> tuple[Point, Point]:
        (ax, ay), (bx, by) = self.a, self.b
        return ((ax, by), (bx, ay))

    @property
    def corners(self) -> tuple[Point, Point, Point, Point]:
        c, d = self.anti_diagonal_corners
        return (self.a, self.b, c, d)

    def contains_point(self, p: Point) -> bool:
        return point_leq(self.a, p) and point_leq(p, self.b)

    def points(self) -> Iterator[Point]:
        for x in range(self.a[0], self.b[0] + 1):
            for y in range(self.a[1], self.b[1] + 1):
                yield (x, y)

    def cells(self) -> Iterator[Cell]:
        for x in range(self.a[0], self.b[0]):
            for y in range(self.a[1], self.b[1]):
                yield (x, y)

    def intersection_points(self, other: "Interval") -> frozenset[Point]:
        """Lattice points common to both intervals."""
        lox = max(self.a[0], other.a[0])
        hix = min(self.b[0], other.b[0])
        loy = max(self.a[1], other.a[1])
        hiy = min(self.b[1], other.b[1])
        if lox > hix or loy > hiy:
            return frozenset()
        return frozenset((x, y) for x in range(lox, hix + 1) for y in range(loy, hiy + 1))


class EdgeInterval(Record):
    """Maximal straight run of unit cell edges on one grid line.

    ``line`` is the fixed coordinate (y for horizontal, x for vertical);
    the varying coordinate runs over [lo, hi], so the run has hi - lo unit
    edges and hi - lo + 1 lattice points.
    """

    orientation: Orientation
    line: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError("edge interval needs at least one unit edge")

    def contains_point(self, p: Point) -> bool:
        if self.orientation == HORIZONTAL:
            return p[1] == self.line and self.lo <= p[0] <= self.hi
        return p[0] == self.line and self.lo <= p[1] <= self.hi

    def points(self) -> Iterator[Point]:
        for k in range(self.lo, self.hi + 1):
            yield (k, self.line) if self.orientation == HORIZONTAL else (self.line, k)

    @property
    def length(self) -> int:
        return self.hi - self.lo


class Block(Record):
    """Run of consecutive collinear cells, ordered by increasing coordinate."""

    orientation: Orientation
    cells: tuple[Cell, ...]

    @property
    def length(self) -> int:
        return len(self.cells)


class Polyomino(Record):
    """Finite, nonempty, edge-connected set of cells.

    The shape holds the tables derived from its cells (holes, inner
    intervals, and maximal edge intervals and blocks of each orientation),
    each built when a function of this module first asks for it.
    ``cached_property`` keeps a table in the instance ``__dict__``, so it
    lives exactly as long as the shape and is no part of its value.
    """

    cells: frozenset[Cell]

    def __post_init__(self) -> None:
        if not self.cells:
            raise EmptyPolyominoError("a polyomino needs at least one cell")
        if not is_connected(self.cells):
            raise DisconnectedCellsError(f"cells are not edge-connected: {sorted(self.cells)}")

    @classmethod
    def from_cells(cls, cells: Iterable[Cell]) -> "Polyomino":
        return cls(frozenset((int(x), int(y)) for x, y in cells))

    @property
    def rank(self) -> int:
        return len(self.cells)

    def sorted_cells(self) -> tuple[Cell, ...]:
        return tuple(sorted(self.cells))

    def bounding_box(self) -> tuple[Point, Point]:
        xs = [c[0] for c in self.cells]
        ys = [c[1] for c in self.cells]
        return ((min(xs), min(ys)), (max(xs) + 1, max(ys) + 1))

    def translate(self, dx: int, dy: int) -> "Polyomino":
        return Polyomino(frozenset((x + dx, y + dy) for x, y in self.cells))

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.sorted_cells())

    @cached_property
    def _holes(self) -> tuple[frozenset[Cell], ...]:
        cells = self.cells
        xs = [c[0] for c in cells]
        ys = [c[1] for c in cells]
        lox, hix = min(xs) - 1, max(xs) + 1
        loy, hiy = min(ys) - 1, max(ys) + 1
        # Flood the exterior from the inflated border ring.
        outside: set[Cell] = set()
        stack: list[Cell] = []
        for x in range(lox, hix + 1):
            for y in (loy, hiy):
                if (x, y) not in cells:
                    stack.append((x, y))
        for y in range(loy, hiy + 1):
            for x in (lox, hix):
                if (x, y) not in cells:
                    stack.append((x, y))
        while stack:
            current = stack.pop()
            if current in outside:
                continue
            outside.add(current)
            for nb in cell_neighbors(current):
                if lox <= nb[0] <= hix and loy <= nb[1] <= hiy and nb not in cells and nb not in outside:
                    stack.append(nb)
        # Remaining complement cells inside the box are hole cells.
        hole_cells = {
            (x, y)
            for x in range(lox, hix + 1)
            for y in range(loy, hiy + 1)
            if (x, y) not in cells and (x, y) not in outside
        }
        components: list[frozenset[Cell]] = []
        while hole_cells:
            seed = min(hole_cells)
            comp = {seed}
            stack = [seed]
            while stack:
                current = stack.pop()
                for nb in cell_neighbors(current):
                    if nb in hole_cells and nb not in comp:
                        comp.add(nb)
                        stack.append(nb)
            hole_cells -= comp
            components.append(frozenset(comp))
        components.sort(key=lambda comp: min(comp))
        return tuple(components)

    @cached_property
    def _inner_intervals(self) -> tuple[Interval, ...]:
        cells = self.cells
        found: list[Interval] = []
        sorted_cells = sorted(cells)
        for low in sorted_cells:
            for high in sorted_cells:
                if high[0] < low[0] or high[1] < low[1]:
                    continue
                if all(
                    (x, y) in cells
                    for x in range(low[0], high[0] + 1)
                    for y in range(low[1], high[1] + 1)
                ):
                    found.append(Interval(low, (high[0] + 1, high[1] + 1)))
        found.sort()
        return tuple(found)

    # The tables of one orientation, each built on first use.
    _horizontal_edge_intervals = cached_property(lambda self: self._build_edge_intervals(HORIZONTAL))
    _vertical_edge_intervals = cached_property(lambda self: self._build_edge_intervals(VERTICAL))
    _horizontal_blocks = cached_property(lambda self: self._build_blocks(HORIZONTAL))
    _vertical_blocks = cached_property(lambda self: self._build_blocks(VERTICAL))

    def _build_edge_intervals(self, orientation: Orientation) -> tuple[EdgeInterval, ...]:
        # Bucket unit edges by their fixed line, then merge contiguous runs.
        runs: dict[int, set[int]] = {}
        for x, y in self.cells:
            if orientation == HORIZONTAL:
                runs.setdefault(y, set()).add(x)
                runs.setdefault(y + 1, set()).add(x)
            else:
                runs.setdefault(x, set()).add(y)
                runs.setdefault(x + 1, set()).add(y)
        intervals: list[EdgeInterval] = []
        for line in sorted(runs):
            offsets = sorted(runs[line])
            start = prev = offsets[0]
            for k in offsets[1:]:
                if k == prev + 1:
                    prev = k
                    continue
                intervals.append(EdgeInterval(orientation, line, start, prev + 1))
                start = prev = k
            intervals.append(EdgeInterval(orientation, line, start, prev + 1))
        return tuple(intervals)

    def _build_blocks(self, orientation: Orientation) -> tuple[Block, ...]:
        blocks: list[Block] = []
        if orientation == HORIZONTAL:
            keyed = sorted(self.cells, key=lambda c: (c[1], c[0]))
            same_line = lambda a, b: a[1] == b[1] and b[0] == a[0] + 1
        else:
            keyed = sorted(self.cells, key=lambda c: (c[0], c[1]))
            same_line = lambda a, b: a[0] == b[0] and b[1] == a[1] + 1
        run: list[Cell] = []
        for cell in keyed:
            if run and same_line(run[-1], cell):
                run.append(cell)
            else:
                if run:
                    blocks.append(Block(orientation, tuple(run)))
                run = [cell]
        if run:
            blocks.append(Block(orientation, tuple(run)))
        blocks.sort()
        return tuple(blocks)


def is_connected(cells: Iterable[Cell]) -> bool:
    """True iff the edge-adjacency graph on the cell set is connected.

    The empty set counts as disconnected.
    """
    cellset = frozenset(cells)
    if not cellset:
        return False
    start = next(iter(cellset))
    seen = {start}
    stack = [start]
    while stack:
        current = stack.pop()
        for nb in cell_neighbors(current):
            if nb in cellset and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cellset)


def vertices(cells: Iterable[Cell]) -> frozenset[Point]:
    """Union of the four corners of every cell (of a polyomino, or any cells)."""
    return frozenset(v for c in cells for v in cell_vertices(c))


def edges(cells: Iterable[Cell]) -> frozenset[Edge]:
    """Union of the four edges of every cell (of a polyomino, or any cells)."""
    return frozenset(e for c in cells for e in cell_edges(c))


def holes(p: Polyomino) -> list[Polyomino]:
    """Connected components of the enclosed complement, one polyomino each."""
    return [Polyomino(comp) for comp in p._holes]


def is_simple(p: Polyomino) -> bool:
    return not p._holes


def _edge_intervals(p: Polyomino, orientation: Orientation) -> tuple[EdgeInterval, ...]:
    return p._horizontal_edge_intervals if orientation == HORIZONTAL else p._vertical_edge_intervals


def maximal_edge_intervals(p: Polyomino, orientation: Orientation) -> list[EdgeInterval]:
    """All maximal edge intervals of one orientation, sorted by (line, lo)."""
    return list(_edge_intervals(p, orientation))


def edge_interval_through(p: Polyomino, point: Point, orientation: Orientation) -> EdgeInterval | None:
    """The unique maximal edge interval of the orientation containing the point."""
    for interval in _edge_intervals(p, orientation):
        if interval.contains_point(point):
            return interval
    return None


def on_common_edge_interval(p: Polyomino, a: Point, b: Point) -> bool:
    """True iff some maximal edge interval of the polyomino contains both points."""
    if a[1] == b[1]:
        for interval in p._horizontal_edge_intervals:
            if interval.contains_point(a) and interval.contains_point(b):
                return True
    if a[0] == b[0]:
        for interval in p._vertical_edge_intervals:
            if interval.contains_point(a) and interval.contains_point(b):
                return True
    return False


def inner_intervals(p: Polyomino) -> list[Interval]:
    """All proper intervals whose cells all belong to the polyomino.

    Output is sorted lexicographically by (a, b).
    """
    return list(p._inner_intervals)


def maximal_blocks(p: Polyomino, orientation: Orientation) -> list[Block]:
    """Maximal runs of consecutive collinear cells; each cell in exactly one."""
    return list(p._horizontal_blocks if orientation == HORIZONTAL else p._vertical_blocks)


# ---------------------------------------------------------------------------
# Dihedral symmetries of the lattice
# ---------------------------------------------------------------------------

TRANSFORM_NAMES = (
    "id", "rot90", "rot180", "rot270", "flipx", "flipy", "transpose", "antitranspose",
)

_POINT_MAPS = {
    "id": lambda x, y: (x, y),
    "rot90": lambda x, y: (-y, x),
    "rot180": lambda x, y: (-x, -y),
    "rot270": lambda x, y: (y, -x),
    "flipx": lambda x, y: (-x, y),
    "flipy": lambda x, y: (x, -y),
    "transpose": lambda x, y: (y, x),
    "antitranspose": lambda x, y: (-y, -x),
}

_INVERSE = {
    "id": "id", "rot90": "rot270", "rot180": "rot180", "rot270": "rot90",
    "flipx": "flipx", "flipy": "flipy", "transpose": "transpose",
    "antitranspose": "antitranspose",
}

_SWAPS_AXES = {"rot90", "rot270", "transpose", "antitranspose"}


def transform_point(name: str, p: Point) -> Point:
    return _POINT_MAPS[name](p[0], p[1])


def transform_cell(name: str, cell: Cell) -> Cell:
    (x1, y1) = _POINT_MAPS[name](cell[0], cell[1])
    (x2, y2) = _POINT_MAPS[name](cell[0] + 1, cell[1] + 1)
    return (min(x1, x2), min(y1, y2))


def transform_cells(name: str, cells: Iterable[Cell]) -> frozenset[Cell]:
    return frozenset(transform_cell(name, c) for c in cells)


def transform_polyomino(name: str, p: Polyomino) -> Polyomino:
    return Polyomino(transform_cells(name, p.cells))


def inverse_transform(name: str) -> str:
    return _INVERSE[name]


def transform_orientation(name: str, orientation: Orientation) -> Orientation:
    if name in _SWAPS_AXES:
        return VERTICAL if orientation == HORIZONTAL else HORIZONTAL
    return orientation


# ---------------------------------------------------------------------------
# Text-grid and JSON formats
# ---------------------------------------------------------------------------

def parse_grid(text: str) -> Polyomino:
    """Parse rows of '#' (cell) and '.'/' ' (empty); the last line is y = 0."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines:
        raise GridParseError("empty grid")
    cells: set[Cell] = set()
    height = len(lines)
    for row, line in enumerate(lines):
        y = height - 1 - row
        for col, ch in enumerate(line.rstrip()):
            if ch == "#":
                cells.add((col, y))
            elif ch not in ". ":
                raise GridParseError(f"unexpected character {ch!r}", line=row + 1, column=col + 1)
    if not cells:
        raise GridParseError("grid contains no cells")
    return Polyomino.from_cells(cells)


def format_grid(p: Polyomino) -> str:
    """Render over the bounding box, one row per line, highest y first."""
    (lox, loy), (hix, hiy) = p.bounding_box()
    rows = []
    for y in range(hiy - 1, loy - 1, -1):
        rows.append("".join("#" if (x, y) in p.cells else "." for x in range(lox, hix)))
    return "\n".join(rows) + "\n"


def parse_shape_json(text: str) -> Polyomino:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GridParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    return Polyomino.from_cells(cell_list(data, "cells"))


def cell_list(data: object, key: str) -> tuple[Cell, ...]:
    """The cells under ``key`` of a decoded JSON object, checked to be [x, y] integer pairs.

    JSON ``true`` and ``false`` decode to ``bool``, a subclass of ``int``;
    they are not coordinates.
    """
    if not isinstance(data, dict) or key not in data:
        raise GridParseError(f'expected an object with a "{key}" key')
    cells = data[key]
    if not isinstance(cells, list) or not all(
        isinstance(c, (list, tuple)) and len(c) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in c)
        for c in cells
    ):
        raise GridParseError(f'"{key}" must be a list of [x, y] integer pairs')
    return tuple(map(tuple, cells))


def format_shape_json(p: Polyomino) -> str:
    return json.dumps({"cells": [list(c) for c in p.sorted_cells()]}, separators=(",", ":"))
