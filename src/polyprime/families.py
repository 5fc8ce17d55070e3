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
from .zigzag import find_zigzag_walk


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
        # Imported here: a structural sweep never compiles the Groebner engine.
        from .toric import certify_closed_path

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


def _cache_path(cache: Path, digest: str, key: dict) -> Path:
    import hashlib

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
    key = None if cache is None else _cache_key(budget, certify)
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

        if certify:
            # Compiled once here, so the forked workers inherit it.
            from . import toric  # noqa: F401

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
