"""Closed-path enumeration, shape constructors, and the verification harness.

The enumerator streams every closed path up to a rank bound, once per
translation/rotation/reflection class.  The constructors assemble the
composite families (simple core plus paths plus corner triminoes, and
rectangles linked to a simple shape by two paths) from explicitly placed
parts, validating each defining clause.  ``verify_main_theorem`` sweeps the
enumeration, checks the structural facts on every shape, and certifies
primality within a budget.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Iterator
from itertools import repeat
from pathlib import Path

from .classify import (
    OpenPath,
    Trimino,
    closed_path_certificate,
    find_l_configurations,
    find_ladders,
    has_block_of_length,
    open_path_certificate,
    trimino_certificate,
)
from .grid import (
    Cell,
    EdgeInterval,
    HORIZONTAL,
    Point,
    Polyomino,
    Record,
    TRANSFORM_NAMES,
    VERTICAL,
    cell_edges,
    cell_vertices,
    edge_interval_through,
    edges,
    holes,
    is_simple,
    maximal_blocks,
    transform_cells,
    vertices,
)
from .ideals import ladder_marked_set, toric_map_marked
from .toric import (
    Budget,
    CounterexampleFound,
    PROOF_LADDER,
    PROOF_LCONFIG,
    PROOF_MARKED,
    PrimalityVerdict,
    UNLIMITED,
    certify_closed_path,
    prove_prime,
)
from .zigzag import find_zigzag_walk


class ConditionViolated(ValueError):
    """A family constructor clause failed; ``index`` names the clause."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"condition ({index}): {message}")


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def _normalize_cells(cells: Iterable[Cell]) -> tuple[Cell, ...]:
    cells = list(cells)
    lox = min(c[0] for c in cells)
    loy = min(c[1] for c in cells)
    return tuple(sorted((x - lox, y - loy) for x, y in cells))


class CanonicalForm(Record):
    """Lexicographic minimum over the eight dihedral images, at the origin."""

    cells: tuple[Cell, ...]

    def polyomino(self) -> Polyomino:
        return Polyomino.from_cells(self.cells)

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.cells).encode()).hexdigest()[:24]


def canonical_form(p: Polyomino) -> CanonicalForm:
    best = min(_normalize_cells(transform_cells(name, p.cells)) for name in TRANSFORM_NAMES)
    return CanonicalForm(best)


# ---------------------------------------------------------------------------
# Closed-path enumeration
# ---------------------------------------------------------------------------

def enumerate_closed_paths(max_rank: int) -> Iterator[Polyomino]:
    """Every closed path of rank <= max_rank, once per canonical form.

    Depth-first extension of self-avoiding cell paths rooted at the
    lexicographically least cell; cycles close through a fixed neighbor of
    the root, and surviving cycles are revalidated and deduplicated.  Two
    prunes keep the search small:

    - vertex window: a new cell may share vertices only with the two cells
      before it (and with the root, which closure validation checks), so
      only the 9 cells around it are looked up in a cell -> position map;
    - distance to closure: the path must still reach the closing cell, so
      a step to ``nxt`` is skipped when ``len(path) + 1 + |nxt - closer|_1``
      exceeds the rank bound.  A branch cut this way holds no closed path
      within the bound, so the shapes and their order are unchanged.

    Shapes are yielded in canonical position.
    """
    if max_rank < 8:
        raise ValueError("closed paths have rank at least 8")
    root: Cell = (0, 0)
    second: Cell = (1, 0)
    closer: Cell = (0, 1)
    seen: set[CanonicalForm] = set()

    path: list[Cell] = [root, second]
    position = {root: 0, second: 1}

    def emit() -> Polyomino | None:
        # Being a closed path is invariant under the dihedral group, so each
        # canonical form needs its certificate checked only once.
        shape = Polyomino.from_cells(path)
        form = canonical_form(shape)
        if form in seen:
            return None
        seen.add(form)
        if closed_path_certificate(shape) is None:
            return None
        return form.polyomino()

    def extend() -> Iterator[Polyomino]:
        current = path[-1]
        x, y = current
        length = len(path)
        for nxt in ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1)):
            if nxt in position:
                continue
            if nxt < root:
                continue
            if nxt == closer:
                # Once the root's second neighbor is consumed the cycle is
                # complete; growing through it can never close again.
                if 5 <= length <= max_rank - 1:
                    path.append(nxt)
                    position[nxt] = length
                    result = emit()
                    if result is not None:
                        yield result
                    del position[nxt]
                    path.pop()
                continue
            nx, ny = nxt
            if length + 1 + abs(nx - closer[0]) + abs(ny - closer[1]) > max_rank:
                continue
            # Vertex window: positions 1 .. length - 3 may not touch nxt.
            if any(
                0 < position.get((nx + dx, ny + dy), 0) < length - 2
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
            ):
                continue
            path.append(nxt)
            position[nxt] = length
            yield from extend()
            del position[nxt]
            path.pop()

    yield from extend()


# ---------------------------------------------------------------------------
# Composite family constructors
# ---------------------------------------------------------------------------

class FamilySpec(Record):
    """Validated family instance: the parts and the marked-set recipe."""

    kind: str  # "psc" | "rectangle-linked" | "good-l-rectangle" | "ladder-rectangle"
    parts: tuple[tuple[str, tuple[Cell, ...]], ...]

    def part(self, name: str) -> tuple[Cell, ...]:
        for key, cells in self.parts:
            if key == name:
                return cells
        raise KeyError(name)


def _edge_set(cells: Iterable[Cell]) -> frozenset:
    return frozenset(e for c in cells for e in cell_edges(c))


def _vertex_set(cells: Iterable[Cell]) -> frozenset[Point]:
    return frozenset(v for c in cells for v in cell_vertices(c))


def build_psc(s: Polyomino, c: OpenPath, t1: Trimino, t2: Trimino) -> tuple[Polyomino, FamilySpec]:
    """Assemble simple core + open path + two hooking triminoes.

    All parts are given in one shared coordinate plane.  Raises
    :class:`ConditionViolated` naming the first failed clause.
    """
    if not is_simple(s):
        raise ConditionViolated(1, "core shape must be simple")
    if open_path_certificate(Polyomino.from_cells(c.cells)) is None:
        raise ConditionViolated(1, "path part is not an open path")
    for t in (t1, t2):
        if trimino_certificate(Polyomino.from_cells(t.cells)) is None:
            raise ConditionViolated(1, "hook part is not a trimino")
    vs, vc = vertices(s), _vertex_set(c.cells)
    vt1, vt2 = _vertex_set(t1.cells), _vertex_set(t2.cells)
    if vs & vc:
        raise ConditionViolated(2, "core and path share vertices")
    if vt1 & vt2:
        raise ConditionViolated(2, "the two hooks share vertices")
    es, ec = edges(s), _edge_set(c.cells)
    first_cell_edges = set(cell_edges(c.cells[0]))
    last_cell_edges = set(cell_edges(c.cells[-1]))
    for idx, (t, vt, hook_end_edges) in enumerate(
        ((t1, vt1, first_cell_edges), (t2, vt2, last_cell_edges))
    ):
        et = _edge_set(t.cells)
        with_s = es & et
        if len(with_s) != 1:
            raise ConditionViolated(3, f"hook {idx + 1} must share exactly one edge with the core")
        shared_s = next(iter(with_s))
        a_vertex = next(
            (v for v in t.hooking_vertices if shared_s in t.hooking_edges[v]), None
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
            (v for v in t.hooking_vertices if shared_c in t.hooking_edges[v]), None
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
    for path in (p1, p2):
        if open_path_certificate(Polyomino.from_cells(path.cells)) is None:
            raise ConditionViolated(1, "path part is not an open path")
    vr, vs = vertices(r), vertices(s)
    vp1, vp2 = _vertex_set(p1.cells), _vertex_set(p2.cells)
    if vs & vr:
        raise ConditionViolated(2, "rectangle and linked shape share vertices")
    if vp1 & vp2:
        raise ConditionViolated(2, "the two paths share vertices")
    if p1.cells[0] != (1, n):
        raise ConditionViolated(3, f"first path must start at cell (1,{n})")
    if vp1 & vr != {(1, n), (2, n)}:
        raise ConditionViolated(3, "first path must touch the rectangle in exactly its start edge")
    er, es = edges(r), edges(s)
    ep1, ep2 = _edge_set(p1.cells), _edge_set(p2.cells)
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
        if len(p1.cells) < 2 or p1.cells[1] != (1, n + 1):
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
        lconfigs = find_l_configurations(path_shape)
        if lconfigs:
            return frozenset(cell_vertices(lconfigs[0].corner_cell)), PROOF_LCONFIG
        for ladder in find_ladders(path_shape, min_steps=3):
            try:
                return ladder_marked_set(ladder, p.cells), PROOF_LADDER
            except ValueError:
                continue
        raise ConditionViolated(0, "path part has neither an L-configuration nor a 3-step ladder")
    r_cells = spec.part("r")
    n = max(y for _, y in r_cells) + 1
    base = frozenset(v for v in _vertex_set(r_cells) if v[0] <= 2 and v[1] <= n)
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


# ---------------------------------------------------------------------------
# The verification harness
# ---------------------------------------------------------------------------

class ShapeRecord(Record):
    cells: tuple[Cell, ...]
    rank: int
    l_configurations: int
    ladders3: int
    zigzag: bool
    block3: bool
    hole_count: int
    simple: bool
    verdict: dict

    def to_json_dict(self) -> dict:
        return {
            "cells": [list(c) for c in self.cells],
            "rank": self.rank,
            "l_configurations": self.l_configurations,
            "ladders3": self.ladders3,
            "zigzag": self.zigzag,
            "block3": self.block3,
            "holes": self.hole_count,
            "simple": self.simple,
            "verdict": self.verdict,
        }


def examine_shape(cells: tuple[Cell, ...], budget: Budget = UNLIMITED,
                  certify: bool = True) -> ShapeRecord:
    """Feature scan plus (optional) certification of one closed path.

    The certification reuses the scan's zig-zag walk, L-configurations and
    ladders instead of searching for them again.
    """
    shape = Polyomino.from_cells(cells)
    lconfigs = find_l_configurations(shape)
    ladders = find_ladders(shape, min_steps=3)
    witness = find_zigzag_walk(shape)
    hole_list = holes(shape)
    record_verdict: dict
    if certify:
        verdict = certify_closed_path(shape, budget, witness, lconfigs, ladders)
        record_verdict = verdict.to_json_dict()
    else:
        record_verdict = {"kind": "skipped"}
    has_zigzag = witness is not None
    no_feature = not lconfigs and not ladders
    if has_zigzag != no_feature:
        raise CounterexampleFound(
            f"equivalence failed on {cells}: zigzag={has_zigzag}, "
            f"l_configs={len(lconfigs)}, ladders3={len(ladders)}"
        )
    if certify and record_verdict["kind"] == "prime" and has_zigzag:
        raise CounterexampleFound(f"prime verdict with a zig-zag walk on {cells}")
    if certify and record_verdict["kind"] == "nonprime" and not has_zigzag:
        raise CounterexampleFound(f"nonprime verdict without a zig-zag walk on {cells}")
    return ShapeRecord(
        cells=cells,
        rank=len(cells),
        l_configurations=len(lconfigs),
        ladders3=len(ladders),
        zigzag=has_zigzag,
        block3=has_block_of_length(shape, 3),
        hole_count=len(hole_list),
        simple=is_simple(shape),
        verdict=record_verdict,
    )


class VerificationReport(Record):
    max_rank: int
    records: list[ShapeRecord]

    def per_rank_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for rec in self.records:
            counts[rec.rank] = counts.get(rec.rank, 0) + 1
        return dict(sorted(counts.items()))

    def minimal_zigzag_rank(self) -> int | None:
        ranks = [rec.rank for rec in self.records if rec.zigzag]
        return min(ranks) if ranks else None

    def summary(self) -> dict:
        downgrades = sum(
            1
            for rec in self.records
            if rec.verdict.get("equality") == "containment-only"
        )
        return {
            "max_rank": self.max_rank,
            "shapes": len(self.records),
            "per_rank": {str(k): v for k, v in self.per_rank_counts().items()},
            "l_configuration_shapes": sum(1 for r in self.records if r.l_configurations),
            "ladder3_shapes": sum(1 for r in self.records if r.ladders3),
            "zigzag_shapes": sum(1 for r in self.records if r.zigzag),
            "minimal_zigzag_rank": self.minimal_zigzag_rank(),
            "equality_downgrades": downgrades,
            # A violated check raises CounterexampleFound, so a finished
            # report has none.
            "counterexamples": 0,
        }

    def to_json_lines(self) -> str:
        lines = [json.dumps(r.to_json_dict(), separators=(",", ":"), sort_keys=True)
                 for r in self.records]
        lines.append(json.dumps({"summary": self.summary()},
                                separators=(",", ":"), sort_keys=True))
        return "\n".join(lines) + "\n"


def _cache_dir(explicit: str | None) -> Path | None:
    chosen = explicit or os.environ.get("POLYPRIME_CACHE")
    if not chosen:
        return None
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


# Bump whenever a stored record could differ from what the current code
# computes: a new record field, or a change to how verdicts are proved.
CACHE_SCHEMA = 4


def _cache_key(budget: Budget, certify: bool) -> dict:
    """What a stored record depends on besides the shape."""
    caps = [budget.max_pairs, budget.max_degree, budget.max_seconds] if certify else None
    return {"schema": CACHE_SCHEMA, "certify": certify, "budget": caps}


def _cache_path(cache: Path, digest: str, key: dict) -> Path:
    tag = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]
    return cache / f"{digest}-{tag}.json"


def _cache_load(cache: Path, digest: str, key: dict) -> ShapeRecord | None:
    """The stored record for this shape and key; a missing or unreadable file is a miss."""
    try:
        data = json.loads(_cache_path(cache, digest, key).read_text())
        if data["key"] != key:
            return None
        rec = data["record"]
        return ShapeRecord(
            cells=tuple(tuple(c) for c in rec["cells"]),
            rank=rec["rank"],
            l_configurations=rec["l_configurations"],
            ladders3=rec["ladders3"],
            zigzag=rec["zigzag"],
            block3=rec["block3"],
            hole_count=rec["holes"],
            simple=rec["simple"],
            verdict=rec["verdict"],
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _cache_store(cache: Path, digest: str, key: dict, record: ShapeRecord) -> None:
    """Write through a temporary file, so a reader never sees a partial record.

    The temporary name carries the process id, so concurrent sweeps sharing
    a cache never write to the same file.
    """
    payload = json.dumps({"key": key, "record": record.to_json_dict()},
                         separators=(",", ":"), sort_keys=True)
    path = _cache_path(cache, digest, key)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(payload)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def verify_main_theorem(max_rank: int, budget: Budget = UNLIMITED, jobs: int = 1,
                        certify: bool = True,
                        cache_dir: str | None = None) -> VerificationReport:
    """Sweep every closed path up to the rank bound and check the claims.

    Per shape: the zig-zag/feature equivalence, the length-3 block, the
    unique hole, non-simplicity, and (optionally) the primality verdict with
    containment on the prime side.  Any violation raises
    :class:`CounterexampleFound` - that is the falsification channel.
    ``jobs`` is the number of worker processes, at least 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    shapes = sorted(
        (p.sorted_cells() for p in enumerate_closed_paths(max_rank)),
        key=lambda cells: (len(cells), cells),
    )
    cache = _cache_dir(cache_dir)
    key = _cache_key(budget, certify)
    records: list[ShapeRecord] = []
    pending: list[tuple[Cell, ...]] = []
    cached: dict[tuple[Cell, ...], ShapeRecord] = {}
    for cells in shapes:
        if cache is not None:
            hit = _cache_load(cache, CanonicalForm(cells).digest(), key)
            if hit is not None:
                cached[cells] = hit
                continue
        pending.append(cells)
    fresh: dict[tuple[Cell, ...], ShapeRecord] = {}
    if jobs > 1 and len(pending) > 1:
        # Imported here: a serial sweep need not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for record in pool.map(examine_shape, pending, repeat(budget), repeat(certify),
                                   chunksize=1):
                fresh[record.cells] = record
    else:
        for cells in pending:
            fresh[cells] = examine_shape(cells, budget, certify)
    for cells in shapes:
        record = cached.get(cells) or fresh[cells]
        if cache is not None and cells in fresh:
            _cache_store(cache, CanonicalForm(cells).digest(), key, record)
        # Structural facts guaranteed for every closed path.
        if not record.block3:
            raise CounterexampleFound(f"closed path without a length-3 block: {cells}")
        if record.simple or record.hole_count != 1:
            raise CounterexampleFound(f"closed path without a unique hole: {cells}")
        records.append(record)
    return VerificationReport(max_rank=max_rank, records=records)
