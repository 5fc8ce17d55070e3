"""Closed-path enumeration and the verification harness.

The enumerator streams every closed path up to a rank bound, once per
translation/rotation/reflection class.  ``verify_main_theorem`` sweeps the
enumeration, checks the structural facts on every shape, and certifies
primality within a budget.  This module is part of the structural layer:
it loads the algebra (:mod:`polyprime.toric`, and with it
:mod:`polyprime.ideals`) only when a sweep certifies.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from itertools import repeat
from pathlib import Path

from .budget import Budget, CounterexampleFound, UNLIMITED
from .classify import (
    LConfiguration,
    Ladder,
    closed_path_certificate,
    find_l_configurations,
    find_ladders,
    has_block_of_length,
)
from .grid import (
    Cell,
    Polyomino,
    Record,
    TRANSFORM_NAMES,
    holes,
    is_simple,
    transform_cells,
)
from .zigzag import ZigZagWalk, find_zigzag_walk


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
        import hashlib

        return hashlib.sha256(json.dumps(self.cells).encode()).hexdigest()[:24]


def canonical_form(p: Polyomino) -> CanonicalForm:
    best = min(_normalize_cells(transform_cells(name, p.cells)) for name in TRANSFORM_NAMES)
    return CanonicalForm(best)


# ---------------------------------------------------------------------------
# Closed-path enumeration
# ---------------------------------------------------------------------------

# Every path starts at the root and its right neighbor, and closes through
# the root's upper neighbor.
_ROOT: Cell = (0, 0)
_CLOSER: Cell = (0, 1)


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
    second: Cell = (1, 0)
    yield from _extend_closed_path([_ROOT, second], {_ROOT: 0, second: 1}, set(), max_rank)



def _extend_closed_path(path: list[Cell], position: dict[Cell, int],
                        seen: set[CanonicalForm], max_rank: int) -> Iterator[Polyomino]:
    """Depth-first step of :func:`enumerate_closed_paths` from a partial path.

    ``position`` maps each cell of ``path`` to its index, and ``seen`` holds
    the canonical form of every cycle met so far; every branch restores
    ``path`` and ``position`` before moving on.  The tables are passed in,
    not captured: a recursive closure is a reference cycle, which would
    keep them alive until the next full garbage collection.
    """
    x, y = path[-1]
    length = len(path)
    for nxt in ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1)):
        if nxt in position or nxt < _ROOT:
            continue
        if nxt == _CLOSER:
            # Once the root's second neighbor is consumed the cycle is
            # complete; growing through it can never close again.
            if 5 <= length <= max_rank - 1:
                shape = Polyomino.from_cells(path + [nxt])
                form = canonical_form(shape)
                # Being a closed path is invariant under the dihedral group,
                # so each canonical form needs its certificate checked once.
                if form not in seen:
                    seen.add(form)
                    if closed_path_certificate(shape) is not None:
                        yield form.polyomino()
            continue
        nx, ny = nxt
        if length + 1 + abs(nx - _CLOSER[0]) + abs(ny - _CLOSER[1]) > max_rank:
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
        yield from _extend_closed_path(path, position, seen, max_rank)
        del position[nxt]
        path.pop()


# ---------------------------------------------------------------------------
# The verification harness
# ---------------------------------------------------------------------------

def scan_closed_path(p: Polyomino) -> tuple[ZigZagWalk | None, list[LConfiguration],
                                             list[Ladder]]:
    """The zig-zag walk (or ``None``), L-configurations and 3-step ladders of a closed path.

    Each search runs once.  The main theorem says a closed path has a
    zig-zag walk exactly when it has neither an L-configuration nor a ladder
    of at least three steps; when the searches disagree, this raises
    :class:`CounterexampleFound`.  A sweep and ``certify`` both run it.
    """
    lconfigs = find_l_configurations(p)
    ladders = find_ladders(p, min_steps=3)
    witness = find_zigzag_walk(p)
    if (witness is None) == (not lconfigs and not ladders):
        raise CounterexampleFound(
            f"equivalence failed on {p.sorted_cells()}: zigzag={witness is not None}, "
            f"l_configs={len(lconfigs)}, ladders3={len(ladders)}"
        )
    return witness, lconfigs, ladders


class ShapeRecord(Record):
    cells: tuple[Cell, ...]
    rank: int
    l_configurations: int
    ladders3: int
    zigzag: bool
    block3: bool
    holes: int
    simple: bool
    verdict: dict

    def to_json_dict(self) -> dict:
        data = dict(zip(self._fields, self._values(self)))
        data["cells"] = [list(c) for c in self.cells]
        return data


def examine_shape(cells: tuple[Cell, ...], budget: Budget = UNLIMITED,
                  certify: bool = True) -> ShapeRecord:
    """Checked feature scan plus (optional) certification of one closed path.

    The certification reuses the scan instead of searching again.
    """
    shape = Polyomino.from_cells(cells)
    scan = scan_closed_path(shape)
    witness, lconfigs, ladders = scan
    verdict: dict = {"kind": "skipped"}
    if certify:
        # Imported here: a structural sweep never compiles the Groebner engine.
        from .toric import certify_closed_path

        verdict = certify_closed_path(shape, budget, scan).to_json_dict()
        if verdict["kind"] == "prime" and witness is not None:
            raise CounterexampleFound(f"prime verdict with a zig-zag walk on {cells}")
        if verdict["kind"] == "nonprime" and witness is None:
            raise CounterexampleFound(f"nonprime verdict without a zig-zag walk on {cells}")
    return ShapeRecord(
        cells=cells,
        rank=len(cells),
        l_configurations=len(lconfigs),
        ladders3=len(ladders),
        zigzag=witness is not None,
        block3=has_block_of_length(shape, 3),
        holes=len(holes(shape)),
        simple=is_simple(shape),
        verdict=verdict,
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


def _code_digest() -> str:
    """Digest of the package's sources, so a record computed by other code is never served."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cache_key(budget: Budget, certify: bool) -> dict:
    """What a stored record depends on besides the shape."""
    caps = [budget.max_pairs, budget.max_degree, budget.max_seconds] if certify else None
    return {"code": _code_digest(), "certify": certify, "budget": caps}


def _cache_path(cache: Path, cells: tuple[Cell, ...], key: dict) -> Path:
    import hashlib

    tag = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]
    return cache / f"{CanonicalForm(cells).digest()}-{tag}.json"


def _cache_load(cache: Path, cells: tuple[Cell, ...], key: dict) -> ShapeRecord | None:
    """The stored record for this shape and key.

    A missing or unreadable file is a miss, and so is a record of other
    cells or of another key.
    """
    try:
        data = json.loads(_cache_path(cache, cells, key).read_text())
        rec = data["record"]
        if data["key"] != key or rec["cells"] != [list(c) for c in cells]:
            return None
        rec["cells"] = cells
        return ShapeRecord(**rec)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _cache_store(cache: Path, key: dict, record: ShapeRecord) -> None:
    """Write through a temporary file, so a reader never sees a partial record.

    The temporary name carries the process id, so concurrent sweeps sharing
    a cache never write to the same file.
    """
    payload = json.dumps({"key": key, "record": record.to_json_dict()},
                         separators=(",", ":"), sort_keys=True)
    path = _cache_path(cache, record.cells, key)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(payload)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _sweep_record(cells: tuple[Cell, ...], budget: Budget, certify: bool,
                  cache: Path | None, key: dict | None) -> ShapeRecord:
    """One shape of a sweep: the cached record or a fresh one, checked, then stored.

    Every record, served or fresh, is checked for the structural facts
    guaranteed for every closed path; a fresh one is stored only after.
    """
    record = None if cache is None else _cache_load(cache, cells, key)
    fresh = record is None
    if fresh:
        record = examine_shape(cells, budget, certify)
    if not record.block3:
        raise CounterexampleFound(f"closed path without a length-3 block: {cells}")
    if record.simple or record.holes != 1:
        raise CounterexampleFound(f"closed path without a unique hole: {cells}")
    if fresh and cache is not None:
        _cache_store(cache, key, record)
    return record


def verify_main_theorem(max_rank: int, budget: Budget = UNLIMITED, jobs: int = 1,
                        certify: bool = True,
                        cache_dir: str | None = None) -> VerificationReport:
    """Sweep every closed path up to the rank bound and check the claims.

    Per shape: the zig-zag/feature equivalence, the length-3 block, the
    unique hole, non-simplicity, and (optionally) the primality verdict with
    containment on the prime side.  Any violation raises
    :class:`CounterexampleFound` - that is the falsification channel.
    ``jobs`` is the number of worker processes, at least 1; each shape's
    cache record is read and written by the process that analyses it.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    shapes = sorted(
        (p.sorted_cells() for p in enumerate_closed_paths(max_rank)),
        key=lambda cells: (len(cells), cells),
    )
    cache = _cache_dir(cache_dir)
    key = None if cache is None else _cache_key(budget, certify)
    steps = (shapes, repeat(budget), repeat(certify), repeat(cache), repeat(key))
    if jobs > 1 and len(shapes) > 1:
        # Imported here: a serial sweep need not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        if certify:
            # Compiled once here, so the forked workers inherit it.
            from . import toric  # noqa: F401

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_sweep_record, *steps, chunksize=1))
    else:
        records = list(map(_sweep_record, *steps))
    return VerificationReport(max_rank=max_rank, records=records)
