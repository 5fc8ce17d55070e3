"""Composite family constructors and their certification.

The constructors assemble the composite families (simple core plus paths
plus corner triminoes, and rectangles linked to a simple shape by two
paths) from explicitly placed parts.  An :class:`OpenPath` or
:class:`Trimino` part is valid by construction; the constructors here
check each clause that relates the parts.
``certify_family`` proves primality with the family's marked map.  This
module belongs to the algebraic layer: importing it loads
:mod:`polyprime.toric` and :mod:`polyprime.ideals`.
"""

from __future__ import annotations

import json

from .budget import Budget, UNLIMITED
from .classify import (
    OpenPath,
    Trimino,
    find_l_configurations,
    find_ladders,
    trimino_certificate,
)
from .grid import (
    Cell,
    EdgeInterval,
    GridParseError,
    HORIZONTAL,
    Point,
    Polyomino,
    Record,
    VERTICAL,
    cell_edges,
    cell_list,
    edge_interval_through,
    edges,
    is_simple,
    maximal_blocks,
    vertices,
)
from .ideals import toric_map_marked
from .toric import PROOF_MARKED, PrimalityVerdict, feature_marking, prove_prime


class ConditionViolated(ValueError):
    """A family constructor clause failed; ``index`` names the clause."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"condition ({index}): {message}")


class FamilySpec(Record):
    """Validated family instance: the parts and the marked-set recipe."""

    kind: str  # "psc" | "rectangle-linked" | "good-l-rectangle" | "ladder-rectangle"
    parts: tuple[tuple[str, tuple[Cell, ...]], ...]

    def part(self, name: str) -> tuple[Cell, ...]:
        for key, cells in self.parts:
            if key == name:
                return cells
        raise KeyError(name)


def build_psc(s: Polyomino, c: OpenPath, t1: Trimino, t2: Trimino) -> tuple[Polyomino, FamilySpec]:
    """Assemble simple core + open path + two hooking triminoes.

    All parts are given in one shared coordinate plane.  Raises
    :class:`ConditionViolated` naming the first failed clause.
    """
    if not is_simple(s):
        raise ConditionViolated(1, "core shape must be simple")
    vs, vc = vertices(s), vertices(c.cells)
    vt1, vt2 = vertices(t1.cells), vertices(t2.cells)
    if vs & vc:
        raise ConditionViolated(2, "core and path share vertices")
    if vt1 & vt2:
        raise ConditionViolated(2, "the two hooks share vertices")
    es, ec = edges(s), edges(c.cells)
    first_cell_edges = set(cell_edges(c.cells[0]))
    last_cell_edges = set(cell_edges(c.cells[-1]))
    for idx, (t, vt, hook_end_edges) in enumerate(
        ((t1, vt1, first_cell_edges), (t2, vt2, last_cell_edges))
    ):
        et = edges(t.cells)
        with_s = es & et
        if len(with_s) != 1:
            raise ConditionViolated(3, f"hook {idx + 1} must share exactly one edge with the core")
        shared_s = next(iter(with_s))
        a_vertex = next(
            (v for v in t.hooking_vertices if shared_s in t.hooking_edges(v)), None
        )
        if a_vertex is None:
            raise ConditionViolated(3, f"core edge of hook {idx + 1} is not a hooking edge")
        with_c = ec & et
        if len(with_c) != 1:
            raise ConditionViolated(4, f"hook {idx + 1} must share exactly one edge with the path")
        shared_c = next(iter(with_c))
        if shared_c not in hook_end_edges:
            raise ConditionViolated(4, f"hook {idx + 1} must meet the path at its end cell")
        b_vertex = next(
            (v for v in t.hooking_vertices if shared_c in t.hooking_edges(v)), None
        )
        if b_vertex is None or b_vertex == a_vertex:
            raise ConditionViolated(4, f"path edge of hook {idx + 1} is not the other hooking edge")
        if len(vc & vt) != 2 or len(vs & vt) != 2:
            raise ConditionViolated(5, f"hook {idx + 1} vertex contacts must be exactly two+two")
    union = set(s.cells) | set(c.cells) | set(t1.cells) | set(t2.cells)
    if len(union) != s.rank + c.length + 3 + 3:
        raise ConditionViolated(1, "parts overlap")
    shape = Polyomino.from_cells(union)
    spec = FamilySpec(
        "psc",
        (
            ("s", tuple(sorted(s.cells))),
            ("c", tuple(c.cells)),
            ("t1", tuple(t1.cells)),
            ("t2", tuple(t2.cells)),
        ),
    )
    return shape, spec


def _rectangle_dims(r: Polyomino) -> tuple[int, int]:
    (lox, loy), (hix, hiy) = r.bounding_box()
    if len(r.cells) != (hix - lox) * (hiy - loy):
        raise ConditionViolated(1, "core part is not a full rectangle")
    return hix - lox, hiy - loy


def build_rectangle_linked(
    r: Polyomino,
    p1: OpenPath,
    s: Polyomino,
    p2: OpenPath,
    kind: str = "rectangle-linked",
) -> tuple[Polyomino, FamilySpec]:
    """Rectangle joined to a simple shape by two disjoint open paths.

    The configuration must already be posed with the rectangle spanning
    [(1,1),(m,n)], m >= 4 and n >= 2, and the first path leaving from the
    top-left rectangle cell.  ``kind`` selects the extra clauses of the
    L-shaped and ladder-shaped variants.
    """
    width, height = _rectangle_dims(r)
    m, n = width + 1, height + 1
    (lox, loy), _ = r.bounding_box()
    if (lox, loy) != (1, 1):
        raise ConditionViolated(1, "rectangle must be posed at [(1,1),(m,n)]")
    if m < 4 or n < 2:
        raise ConditionViolated(1, f"rectangle needs m >= 4 and n >= 2, got m={m}, n={n}")
    if not is_simple(s):
        raise ConditionViolated(1, "linked shape must be simple")
    vr, vs = vertices(r), vertices(s)
    vp1, vp2 = vertices(p1.cells), vertices(p2.cells)
    if vs & vr:
        raise ConditionViolated(2, "rectangle and linked shape share vertices")
    if vp1 & vp2:
        raise ConditionViolated(2, "the two paths share vertices")
    if p1.cells[0] != (1, n):
        raise ConditionViolated(3, f"first path must start at cell (1,{n})")
    if vp1 & vr != {(1, n), (2, n)}:
        raise ConditionViolated(3, "first path must touch the rectangle in exactly its start edge")
    er, es = edges(r), edges(s)
    ep1, ep2 = edges(p1.cells), edges(p2.cells)
    shared_t = ep1 & es
    if len(shared_t) != 1 or next(iter(shared_t)) not in p1.free_edges(-1):
        raise ConditionViolated(4, "first path must meet the linked shape in one free end edge")
    if len(vp1 & vs) != 2:
        raise ConditionViolated(4, "first path and linked shape must share exactly two vertices")
    shared_z = ep2 & es
    if len(shared_z) != 1 or next(iter(shared_z)) not in p2.free_edges(0):
        raise ConditionViolated(5, "second path must meet the linked shape in one free start edge")
    if len(vp2 & vs) != 2:
        raise ConditionViolated(5, "second path and linked shape must share exactly two vertices")
    shared_v = ep2 & er
    if len(shared_v) != 1 or next(iter(shared_v)) not in p2.free_edges(-1):
        raise ConditionViolated(6, "second path must meet the rectangle in one free end edge")
    if len(vp2 & vr) != 2:
        raise ConditionViolated(6, "second path and rectangle must share exactly two vertices")
    landing = tuple(sorted(next(iter(shared_v))))
    if kind in ("good-l-rectangle", "ladder-rectangle"):
        top = {(((k, n)), ((k + 1, n))) for k in range(3, m)}
        right = {(((m, l)), ((m, l + 1))) for l in range(1, n)}
        bottom = {(((h, 1)), ((h + 1, 1))) for h in range(3, m)}
        if kind == "ladder-rectangle":
            allowed = top
        else:
            allowed = top | right | bottom
        if landing not in allowed:
            raise ConditionViolated(6, f"landing edge {landing} outside the allowed border set")
    if kind == "good-l-rectangle":
        if p1.cells[1] != (1, n + 1):
            raise ConditionViolated(2, f"first path must continue straight up to (1,{n + 1})")
    if kind == "ladder-rectangle":
        blocks1 = maximal_blocks(Polyomino.from_cells(p1.cells), HORIZONTAL)
        run1 = next((b for b in blocks1 if p1.cells[0] in b.cells), None)
        if run1 is None or run1.length < 2 or p1.cells[:run1.length] != tuple(reversed(run1.cells)):
            raise ConditionViolated(2, "first path must open with a westward block of >= 2 cells")
        s_len = run1.length
        if len(p1.cells) < s_len + 2:
            raise ConditionViolated(2, "first path too short for its second block")
        step_cell = p1.cells[s_len]
        over = p1.cells[s_len - 1]
        if step_cell != (over[0], over[1] + 1):
            raise ConditionViolated(2, "second block must start directly above the first's far end")
        run2 = next((b for b in blocks1 if step_cell in b.cells), None)
        if run2 is None or run2.length < 2:
            raise ConditionViolated(2, "second block must be horizontal of >= 2 cells")
    union = set(r.cells) | set(p1.cells) | set(s.cells) | set(p2.cells)
    if len(union) != r.rank + p1.length + s.rank + p2.length:
        raise ConditionViolated(1, "parts overlap")
    shape = Polyomino.from_cells(union)
    spec = FamilySpec(
        kind,
        (
            ("r", tuple(sorted(r.cells))),
            ("p1", tuple(p1.cells)),
            ("s", tuple(sorted(s.cells))),
            ("p2", tuple(p2.cells)),
        ),
    )
    return shape, spec


def parse_family_json(text: str) -> tuple[Polyomino, FamilySpec]:
    """Build the family instance a JSON spec describes: its ``kind`` and its parts' cells."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GridParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    if not isinstance(data, dict):
        raise GridParseError("a family spec must be a JSON object")
    kind = data.get("kind")
    cells = lambda key: cell_list(data, key)
    if kind == "psc":
        s = Polyomino.from_cells(cells("s"))
        c_path = OpenPath(cells("c"))
        t1 = trimino_certificate(Polyomino.from_cells(cells("t1")))
        t2 = trimino_certificate(Polyomino.from_cells(cells("t2")))
        if t1 is None or t2 is None:
            raise ConditionViolated(1, "hook part is not a trimino")
        return build_psc(s, c_path, t1, t2)
    if kind in ("rectangle-linked", "good-l-rectangle", "ladder-rectangle"):
        r = Polyomino.from_cells(cells("r"))
        s = Polyomino.from_cells(cells("s"))
        p1 = OpenPath(cells("p1"))
        p2 = OpenPath(cells("p2"))
        return build_rectangle_linked(r, p1, s, p2, kind=kind)
    raise GridParseError(f"unknown family kind {kind!r}")


def _shorter_interval(a: EdgeInterval, b: EdgeInterval) -> EdgeInterval:
    # Ties take the first argument (the lower/earlier interval).
    return a if a.length <= b.length else b


def check_good_l_rectangle(p: Polyomino, spec: FamilySpec) -> bool:
    """The two fill conditions an L-rectangle instance needs for its marking."""
    if spec.kind != "good-l-rectangle":
        raise ValueError("spec is not an L-rectangle instance")
    r_cells = spec.part("r")
    n = max(y for _, y in r_cells) + 1
    v1 = _maximal_interval_through(p, (1, n), VERTICAL)
    v2 = _maximal_interval_through(p, (2, n), VERTICAL)
    short_v = _shorter_interval(v1, v2)
    for k in range(short_v.lo, short_v.hi):
        if (1, k) not in p.cells:
            return False
    for k in range(1, n):
        h_low = _maximal_interval_through(p, (1, k), HORIZONTAL)
        h_high = _maximal_interval_through(p, (1, k + 1), HORIZONTAL)
        short_h = _shorter_interval(h_low, h_high)
        for x in range(short_h.lo, short_h.hi):
            if (x, k) not in p.cells:
                return False
    return True


def _maximal_interval_through(p: Polyomino, point: Point, orientation: str) -> EdgeInterval:
    interval = edge_interval_through(p, point, orientation)
    if interval is None:
        raise ValueError(f"no {orientation} edge interval through {point}")
    return interval


def family_marked_set(p: Polyomino, spec: FamilySpec) -> tuple[frozenset[Point], str]:
    """The marked vertex set certifying a family instance, plus its proof tag."""
    if spec.kind == "psc":
        path_shape = Polyomino.from_cells(spec.part("c"))
        marking = feature_marking(p.cells, find_l_configurations(path_shape),
                                  find_ladders(path_shape, min_steps=3))
        if marking is None:
            raise ConditionViolated(0, "path part has neither an L-configuration nor a 3-step ladder")
        return marking
    r_cells = spec.part("r")
    n = max(y for _, y in r_cells) + 1
    base = frozenset(v for v in vertices(r_cells) if v[0] <= 2 and v[1] <= n)
    if spec.kind == "good-l-rectangle":
        if not check_good_l_rectangle(p, spec):
            raise ConditionViolated(0, "instance is not good: required cells are missing")
        return base, PROOF_MARKED
    if spec.kind == "ladder-rectangle":
        p1 = spec.part("p1")
        s_len = 1
        while s_len < len(p1) and p1[s_len][1] == p1[0][1]:
            s_len += 1
        extra = frozenset(p1[i] for i in range(1, s_len))
        return base | extra, PROOF_MARKED
    raise ConditionViolated(0, f"no marking recipe for kind {spec.kind!r}")


def certify_family(p: Polyomino, spec: FamilySpec,
                   budget: Budget = UNLIMITED) -> PrimalityVerdict:
    """Containment plus budgeted proof of I_P = ker(phi), with the family's marked map."""
    try:
        marked, proof = family_marked_set(p, spec)
    except ConditionViolated as exc:
        if exc.index == 0:
            return PrimalityVerdict("inconclusive", reason=str(exc))
        raise
    return prove_prime(p, toric_map_marked(p, marked), proof, budget)
