from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import polyprime
from polyprime import classify, cli, composites, families, grid, ideals, toric, zigzag
from polyprime.classify import OpenPath, closed_path_certificate, trimino_certificate
from polyprime.composites import (
    ConditionViolated,
    build_psc,
    build_rectangle_linked,
    certify_family,
    check_good_l_rectangle,
    family_marked_set,
)
from polyprime.families import (
    canonical_form,
    enumerate_closed_paths,
    examine_shape,
    verify_main_theorem,
)
from polyprime.grid import (
    HORIZONTAL,
    Polyomino,
    TRANSFORM_NAMES,
    VERTICAL,
    holes,
    inner_intervals,
    is_simple,
    maximal_blocks,
    maximal_edge_intervals,
    parse_grid,
    transform_polyomino,
    vertices,
)
from polyprime.ideals import toric_map_marked
from polyprime.toric import Budget, certify_primality

from conftest import all_polyominoes, kills_minors, psc_parts, rectangle


# --- canonical forms ---------------------------------------------------------

def test_canonical_form_translation_invariant(frame3):
    assert canonical_form(frame3) == canonical_form(frame3.translate(7, -3))


@pytest.mark.parametrize("name", TRANSFORM_NAMES)
def test_canonical_form_d4_invariant(name, frame3, ring22):
    for shape in (frame3, ring22):
        assert canonical_form(transform_polyomino(name, shape)) == canonical_form(shape)


def test_canonical_form_idempotent(ring22):
    form = canonical_form(ring22)
    assert canonical_form(form.polyomino()) == form


@given(
    st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=8),
    st.sampled_from(TRANSFORM_NAMES),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
def test_canonical_form_random_orbit(cells, name, shift):
    from polyprime.grid import is_connected

    if not is_connected(cells):
        return
    shape = Polyomino.from_cells(cells)
    moved = transform_polyomino(name, shape).translate(*shift)
    assert canonical_form(moved) == canonical_form(shape)


def test_distinct_shapes_distinct_forms():
    a = Polyomino.from_cells([(0, 0), (1, 0), (2, 0)])
    b = Polyomino.from_cells([(0, 0), (1, 0), (1, 1)])
    assert canonical_form(a) != canonical_form(b)


# --- enumeration -------------------------------------------------------------

def test_enumeration_rank8_unique(frame3):
    shapes = [s for s in enumerate_closed_paths(8)]
    assert len(shapes) == 1
    assert canonical_form(shapes[0]) == canonical_form(frame3)


def test_enumeration_counts_to_14():
    from collections import Counter

    counts = Counter(s.rank for s in enumerate_closed_paths(14))
    assert counts == {8: 1, 10: 1, 12: 3, 14: 6}


def test_enumeration_emits_closed_paths_once():
    forms = [canonical_form(s) for s in enumerate_closed_paths(12)]
    assert len(forms) == len(set(forms))
    for shape in enumerate_closed_paths(12):
        assert closed_path_certificate(shape) is not None


def test_enumeration_rejects_small_bound():
    with pytest.raises(ValueError):
        list(enumerate_closed_paths(7))


def test_enumeration_odd_ranks_empty():
    # Cell cycles are even; an odd bound adds nothing beyond the even ranks.
    assert sorted(s.rank for s in enumerate_closed_paths(9)) == [8]
    assert sorted(s.rank for s in enumerate_closed_paths(11)) == [8, 10]


def test_enumeration_completeness_against_naive_oracle():
    naive = {
        canonical_form(p).cells
        for p in all_polyominoes(10)
        if closed_path_certificate(p) is not None
    }
    fast = {canonical_form(p).cells for p in enumerate_closed_paths(10)}
    assert fast == naive


def _reference_closed_paths(max_rank: int):
    """The enumerator before its distance-to-closure prune, kept as a reference.

    Same depth-first search, but every step is checked against the whole
    path for shared vertices, and no branch is cut for being too far from
    the closing cell.
    """
    root, second, closer = (0, 0), (1, 0), (0, 1)
    seen = set()
    path = [root, second]
    member = {root, second}

    def clash(a, b):
        return abs(a[0] - b[0]) <= 1 and abs(a[1] - b[1]) <= 1

    def extend():
        x, y = path[-1]
        for nxt in ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1)):
            if nxt in member or nxt < root:
                continue
            if nxt == closer:
                if 5 <= len(path) <= max_rank - 1:
                    shape = Polyomino.from_cells(path + [nxt])
                    if closed_path_certificate(shape) is not None:
                        form = canonical_form(shape)
                        if form not in seen:
                            seen.add(form)
                            yield form
                continue
            if len(path) >= max_rank:
                continue
            if any(clash(nxt, path[j]) for j in range(1, len(path) - 2)):
                continue
            path.append(nxt)
            member.add(nxt)
            yield from extend()
            member.discard(nxt)
            path.pop()

    yield from extend()


def test_enumeration_matches_unpruned_reference():
    reference = list(_reference_closed_paths(16))
    pruned = [canonical_form(p) for p in enumerate_closed_paths(16)]
    assert len(pruned) == 35
    assert set(pruned) == set(reference)
    # The prune only cuts branches that yield nothing, so the order holds too.
    assert pruned == reference


def test_enumeration_yields_canonical_position():
    for shape in enumerate_closed_paths(14):
        assert canonical_form(shape).cells == shape.sorted_cells()


def test_all_polyominoes_known_counts():
    from collections import Counter

    counts = Counter(p.rank for p in all_polyominoes(6))
    # Free polyomino counts: 1, 1, 2, 5, 12, 35.
    assert counts == {1: 1, 2: 1, 3: 2, 4: 5, 5: 12, 6: 35}


# --- family constructors -----------------------------------------------------

def test_build_psc_valid(psc_instance):
    shape, spec = psc_instance
    assert shape.rank == 17
    assert len(holes(shape)) == 1
    assert spec.kind == "psc"


def test_build_psc_shifted_hook_fails():
    s, c, t1, t2 = psc_parts()
    bad_t2 = trimino_certificate(
        Polyomino.from_cells([(x + 1, y) for x, y in t2.cells])
    )
    with pytest.raises(ConditionViolated):
        build_psc(s, c, t1, bad_t2)


def test_build_psc_overlapping_core_and_path_fails():
    s, c, t1, t2 = psc_parts()
    overlapping = Polyomino.from_cells([(1, 2), (1, 3)])  # on top of the path start
    with pytest.raises(ConditionViolated) as err:
        build_psc(overlapping, c, t1, t2)
    assert err.value.index == 2


def test_build_psc_requires_simple_core(frame3):
    s, c, t1, t2 = psc_parts()
    with pytest.raises(ConditionViolated) as err:
        build_psc(frame3.translate(20, 20), c, t1, t2)
    assert err.value.index == 1


def test_psc_hole_count_and_simple_after_path_removal(psc_instance):
    shape, spec = psc_instance
    assert len(holes(shape)) == 1
    path_cells = spec.part("c")
    trimmed = Polyomino.from_cells(set(shape.cells) - set(path_cells[2:4]))
    assert is_simple(trimmed)


def test_build_rectangle_linked_valid(good_l_instance):
    shape, spec = good_l_instance
    assert shape.rank == 10
    assert len(holes(shape)) == 1
    assert spec.kind == "good-l-rectangle"


def test_rectangle_too_narrow_rejected():
    r = rectangle(2, 1).translate(1, 1)  # m = 3 < 4
    p1 = OpenPath(((1, 2), (1, 3)))
    s = Polyomino.from_cells([(1, 4), (2, 4)])
    p2 = OpenPath(((3, 4), (3, 3), (3, 2)))
    with pytest.raises(ConditionViolated) as err:
        build_rectangle_linked(r, p1, s, p2)
    assert err.value.index == 1


def test_rectangle_right_edge_landing_allowed_for_l_variant():
    # A right-side landing edge is inside the L-variant's allowed border set.
    r = Polyomino.from_cells([(1, 1), (2, 1), (3, 1)])
    p1 = OpenPath(((1, 2), (1, 3)))
    s = Polyomino.from_cells([(1, 4), (2, 4)])
    p2 = OpenPath(((3, 4), (4, 4), (4, 3), (4, 2), (4, 1)))
    shape, spec = build_rectangle_linked(r, p1, s, p2, kind="good-l-rectangle")
    assert len(holes(shape)) == 1


def test_rectangle_bad_landing_edge_for_ladder_variant():
    # The ladder variant only allows top-edge landings; a right-side landing
    # must be rejected by the border-set clause.
    r = Polyomino.from_cells([(1, 1), (2, 1), (3, 1)])
    p1 = OpenPath(((1, 2), (0, 2), (0, 3), (-1, 3)))
    s = Polyomino.from_cells([(-1, 4)])
    p2 = OpenPath(((-1, 5), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (4, 4), (4, 3), (4, 2), (4, 1)))
    with pytest.raises(ConditionViolated) as err:
        build_rectangle_linked(r, p1, s, p2, kind="ladder-rectangle")
    assert err.value.index == 6


def test_ladder_rectangle_valid(ladder_rect_instance):
    shape, spec = ladder_rect_instance
    assert shape.rank == 16
    assert len(holes(shape)) == 1


def test_good_l_rectangle_checker(good_l_instance):
    shape, spec = good_l_instance
    assert check_good_l_rectangle(shape, spec)


def test_good_l_rectangle_checker_accepts_taller_column(good_l_instance):
    r = Polyomino.from_cells([(1, 1), (2, 1), (3, 1)])
    p1 = OpenPath(((1, 2), (1, 3), (1, 4)))
    s = Polyomino.from_cells([(1, 5), (2, 5)])
    p2 = OpenPath(((3, 5), (3, 4), (3, 3), (3, 2)))
    taller, tspec = build_rectangle_linked(r, p1, s, p2, kind="good-l-rectangle")
    assert check_good_l_rectangle(taller, tspec)


def not_good_instance():
    # A U-shaped core extends both vertical reference lines across heights
    # where the first column has no cells, so the fill condition fails.
    r = Polyomino.from_cells([(1, 1), (2, 1), (3, 1)])
    p1 = OpenPath(((1, 2), (1, 3)))
    s = Polyomino.from_cells(
        [(0, 4), (1, 4), (2, 4), (0, 5), (2, 5), (0, 6), (2, 6)]
    )
    p2 = OpenPath(((3, 4), (3, 3), (3, 2)))
    return build_rectangle_linked(r, p1, s, p2, kind="good-l-rectangle")


def test_good_l_rectangle_checker_detects_missing_cells():
    shape, spec = not_good_instance()
    assert not check_good_l_rectangle(shape, spec)


def test_certify_not_good_instance_inconclusive():
    shape, spec = not_good_instance()
    verdict = certify_family(shape, spec, Budget(max_pairs=10))
    assert verdict.kind == "inconclusive"
    assert "not good" in verdict.reason


# --- family certification ----------------------------------------------------

def test_certify_psc_prime(psc_instance):
    shape, spec = psc_instance
    marked, proof = family_marked_set(shape, spec)
    assert proof == "lconfig-toric"
    assert kills_minors(shape, toric_map_marked(shape, marked))
    verdict = certify_family(shape, spec, Budget(max_seconds=120))
    assert verdict.kind == "prime"


def test_certify_good_l_prime(good_l_instance):
    shape, spec = good_l_instance
    marked, proof = family_marked_set(shape, spec)
    n = max(y for _, y in spec.part("r")) + 1
    assert marked == {v for v in vertices(Polyomino.from_cells(spec.part("r"))) if v[0] <= 2 and v[1] <= n}
    verdict = certify_family(shape, spec, Budget(max_seconds=120))
    assert verdict.kind == "prime" and verdict.equality == "full"


def test_certify_ladder_rect_prime(ladder_rect_instance):
    shape, spec = ladder_rect_instance
    marked, proof = family_marked_set(shape, spec)
    # The corner square of the rectangle's vertex set plus the lower-left
    # corners of the opening block's later cells.
    assert marked == {(1, 1), (2, 1), (1, 2), (2, 2), (0, 2)}
    verdict = certify_family(shape, spec, Budget(max_seconds=120))
    assert verdict.kind == "prime" and verdict.equality == "full"


def test_certify_psc_without_features_inconclusive():
    # Shorter path with no L-configuration and no 3-step ladder.
    s = Polyomino.from_cells([(-1, 0), (-1, 1)])
    c = OpenPath(((1, 2), (1, 3), (0, 3), (-1, 3), (-2, 3), (-3, 3), (-3, 2)))
    t1 = trimino_certificate(Polyomino.from_cells([(0, 0), (1, 0), (1, 1)]))
    t2 = trimino_certificate(Polyomino.from_cells([(-2, 0), (-3, 0), (-3, 1)]))
    shape, spec = build_psc(s, c, t1, t2)
    verdict = certify_family(shape, spec, Budget(max_pairs=10))
    assert verdict.kind == "inconclusive"
    assert "neither" in verdict.reason


# --- harness ------------------------------------------------------------------

def test_examine_shape_frame3(frame3):
    record = examine_shape(tuple(sorted(frame3.cells)), Budget(), certify=True)
    assert record.rank == 8
    assert record.l_configurations == 4
    assert not record.zigzag
    assert record.block3 and record.hole_count == 1 and not record.simple
    assert record.verdict["kind"] == "prime"


def test_verify_main_theorem_rank10_structural():
    report = verify_main_theorem(10, certify=False)
    assert report.summary()["shapes"] == 2
    assert report.summary()["counterexamples"] == 0
    assert report.per_rank_counts() == {8: 1, 10: 1}
    assert report.minimal_zigzag_rank() is None


def test_verify_main_theorem_rank18_structural():
    summary = verify_main_theorem(18, certify=False).summary()
    assert summary["shapes"] == 112
    assert summary["zigzag_shapes"] == 2
    assert summary["minimal_zigzag_rank"] == 16


# --- memory held by a sweep --------------------------------------------------

SHAPE_FILES = sorted((Path(__file__).resolve().parent.parent / "shapes").glob("*.grid"))


def test_shape_analysis_leaves_no_reference_cycles():
    # A cycle outlives its call until a full collection, so a sweep would
    # hold the analysis of finished shapes.
    shapes = [p.sorted_cells() for p in enumerate_closed_paths(14)]
    grids = [parse_grid(path.read_text()) for path in SHAPE_FILES]
    assert shapes and len(grids) == 4
    gc.collect()
    gc.disable()
    try:
        for cells in shapes:
            examine_shape(cells, certify=False)
            examine_shape(cells, certify=True)
        for shape in grids:
            certify_primality(shape)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_leaves_no_reference_cycles():
    # The set of every canonical form met must go with the enumeration.
    gc.collect()
    gc.disable()
    try:
        assert len(list(enumerate_closed_paths(16))) == 35
        assert gc.collect() == 0
    finally:
        gc.enable()


# Tables of each kind that one sweep of rank <= 16 builds, with and without
# certification: one per shape (two for blocks, one per orientation) that
# reads it, so every layer reads the tables of one Polyomino value.
TABLE_BUILDS = {
    False: {"holes": 35, "blocks": 70, "inner intervals": 35, "edge intervals": 13},
    True: {"holes": 35, "blocks": 70, "inner intervals": 35, "edge intervals": 70},
}
TABLES = {
    "_holes": "holes", "_inner_intervals": "inner intervals",
    "_horizontal_blocks": "blocks", "_vertical_blocks": "blocks",
    "_horizontal_edge_intervals": "edge intervals", "_vertical_edge_intervals": "edge intervals",
}


@pytest.mark.parametrize("certify", [False, True])
def test_a_sweep_builds_each_table_once_per_shape(certify, monkeypatch):
    builds = Counter()
    for attr, kind in TABLES.items():
        table = vars(Polyomino)[attr]

        def counted(shape, build=table.func, kind=kind):
            builds[kind] += 1
            return build(shape)

        monkeypatch.setattr(table, "func", counted)
    verify_main_theorem(16, certify=certify)
    assert builds == TABLE_BUILDS[certify]


def test_a_shape_frees_its_tables_with_it(frame3):
    shape = Polyomino(frame3.cells)
    holes(shape), inner_intervals(shape)
    for orientation in (HORIZONTAL, VERTICAL):
        maximal_blocks(shape, orientation), maximal_edge_intervals(shape, orientation)
    refs = [weakref.ref(vars(shape)[attr][0]) for attr in TABLES]
    del shape
    assert [ref() for ref in refs] == [None] * len(TABLES)


def test_no_module_holds_a_memo():
    for module in (polyprime, grid, classify, zigzag, families, ideals, toric, composites, cli):
        for name, value in vars(module).items():
            assert not hasattr(value, "cache_clear"), f"{module.__name__}.{name}"


# The algebraic layer and the composite families: the structural layer
# (shapes, scans, zig-zag search, enumeration, the uncertified sweep) never
# imports them.
ALGEBRA = {"polyprime.toric", "polyprime.ideals", "polyprime.composites"}

# Every public name the package namespace held when it imported all layers
# eagerly; each must still resolve.
PUBLIC_NAMES = (
    "Block", "Budget", "BudgetExhausted", "CanonicalForm", "Cell", "ClosedPathCert",
    "ConditionViolated", "CounterexampleFound", "DisconnectedCellsError", "EdgeInterval",
    "EmptyPolyominoError", "FamilySpec", "GridParseError", "Interval", "LConfiguration",
    "Ladder", "NotInSupportedClass", "OpenPath", "Point", "Polyomino", "PolyominoError",
    "PrimalityVerdict", "ToricMap", "Trimino", "ZigZagWalk", "buchberger", "build_psc",
    "build_rectangle_linked", "canonical_form", "certify_family", "certify_primality",
    "check_containment", "check_good_l_rectangle", "classify", "closed_path_certificate",
    "edges", "enumerate_closed_paths", "export_generators", "families",
    "find_l_configurations", "find_ladders", "find_zigzag_walk", "format_grid",
    "format_shape_json", "grid", "has_block_of_length", "holes", "ideals", "inner_intervals",
    "inner_minors", "integer_kernel", "is_connected", "is_simple", "maximal_blocks",
    "maximal_edge_intervals", "open_path_certificate", "parse_grid", "parse_shape_json",
    "toric", "toric_ideal", "toric_map_ladder", "toric_map_lconfig", "toric_map_marked",
    "trimino_certificate", "verify_main_theorem", "verify_zigzag", "vertex_name",
    "vertex_order", "vertices", "zigzag",
)


def _loaded_after(work: str) -> list[str]:
    """Those of the unwanted modules that a fresh process holds after running ``work``.

    -S: no site hook preloads a module, so only polyprime's imports count.
    """
    src = str(Path(polyprime.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    unwanted = {"concurrent.futures", "multiprocessing", "dataclasses", "inspect", "ast",
                "typing", "hashlib", *ALGEBRA}
    probe = (f"import json, sys, polyprime\n{work}\n"
             f"print(json.dumps(sorted({unwanted!r} & set(sys.modules))))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_process_pool():
    # The pool modules load on demand; the others only cost start-up time,
    # and the algebra is compiled only by a caller that runs it.
    assert _loaded_after("") == []


@pytest.mark.parametrize("work", [
    "polyprime.verify_main_theorem(12, certify=False)",
    "from polyprime.cli import main; main(['enumerate', '--max-rank', '12'])",
    "from polyprime.cli import main; main(['zigzag', 'shapes/diamond16.grid'])",
    "from polyprime.cli import main; main(['classify', 'shapes/ring22.grid'])",
    "from polyprime.cli import main; main(['verify', '--no-certify', '--max-rank', '12'])",
])
def test_structural_work_loads_no_algebra(work, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    assert _loaded_after(work) == []


def test_certified_work_loads_the_algebra():
    assert _loaded_after("polyprime.verify_main_theorem(8)") == sorted(ALGEBRA - {"polyprime.composites"})
    assert _loaded_after("polyprime.certify_family") == sorted(ALGEBRA)


def test_public_names_resolve_and_are_listed():
    import importlib

    listed = dir(polyprime)
    for name in PUBLIC_NAMES:
        assert name in listed, name
        assert getattr(polyprime, name) is not None, name
    for name, module in polyprime._LAZY.items():
        assert name in listed, name
        home = importlib.import_module(f"polyprime.{module}")
        assert name == module or getattr(polyprime, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        polyprime.no_such_name


def test_budget_has_one_home():
    from polyprime import budget, toric

    for name in ("Budget", "BudgetExhausted", "CounterexampleFound", "UNLIMITED"):
        assert getattr(toric, name) is getattr(budget, name), name
    assert toric.Budget is polyprime.Budget


def _scan_calls(monkeypatch, shape) -> tuple[str, list[str]]:
    """(proof, scan calls) of certifying one shape through examine_shape.

    Every module that imports a scan is patched, ideals included: building
    the certifying map must not run the scan again to validate its feature.
    Only the scans are counted; the proof itself is stubbed out.
    """
    from polyprime import families, ideals, toric

    calls = []
    for module in (families, ideals, toric):
        for scan in ("find_zigzag_walk", "find_l_configurations", "find_ladders"):
            original = getattr(module, scan, None)
            if original is None:
                continue
            monkeypatch.setattr(
                module, scan,
                lambda *args, _f=original, _n=scan, **kw: calls.append(_n) or _f(*args, **kw),
            )
    monkeypatch.setattr(toric, "prove_prime",
                        lambda p, phi, proof, budget: toric.PrimalityVerdict("prime", proof))
    record = examine_shape(tuple(sorted(shape.cells)), Budget(), certify=True)
    return record.verdict["proof"], sorted(calls)


SCANS = ["find_l_configurations", "find_ladders", "find_zigzag_walk"]


def test_examine_shape_scans_once(monkeypatch, frame3):
    assert _scan_calls(monkeypatch, frame3) == ("lconfig-toric", SCANS)


def test_examine_shape_scans_a_ladder_shape_once(monkeypatch, ring22):
    assert _scan_calls(monkeypatch, ring22) == ("ladder-toric", SCANS)


def test_verify_main_theorem_rank12_certified():
    report = verify_main_theorem(12, Budget(max_pairs=200_000))
    summary = report.summary()
    assert summary["shapes"] == 5
    assert summary["counterexamples"] == 0
    assert all(r.verdict["kind"] == "prime" for r in report.records)


def test_verify_main_theorem_parallel_matches_serial():
    serial = verify_main_theorem(12, certify=False)
    parallel = verify_main_theorem(12, certify=False, jobs=2)
    assert serial.to_json_lines() == parallel.to_json_lines()


def test_verify_report_json_lines_shape():
    report = verify_main_theorem(10, certify=False)
    lines = report.to_json_lines().strip().splitlines()
    assert len(lines) == 3  # two shapes + summary
    for line in lines[:-1]:
        record = json.loads(line)
        assert set(record) >= {"cells", "rank", "zigzag", "verdict"}
    assert "summary" in json.loads(lines[-1])


def test_verify_cache_round_trip(tmp_path):
    first = verify_main_theorem(10, certify=False, cache_dir=str(tmp_path))
    assert any(tmp_path.iterdir())
    second = verify_main_theorem(10, certify=False, cache_dir=str(tmp_path))
    assert first.to_json_lines() == second.to_json_lines()


def _equalities(report) -> set:
    return {rec.verdict.get("equality") for rec in report.records}


def test_verify_cache_keys_on_budget(tmp_path):
    # A downgrade stored under a tiny budget is not served to an unlimited sweep.
    small = verify_main_theorem(10, Budget(max_pairs=1), cache_dir=str(tmp_path))
    assert _equalities(small) == {"containment-only"}
    full = verify_main_theorem(10, cache_dir=str(tmp_path))
    assert _equalities(full) == {"full"}
    again = verify_main_theorem(10, Budget(max_pairs=1), cache_dir=str(tmp_path))
    assert again.to_json_lines() == small.to_json_lines()
    assert not list(tmp_path.glob("*.tmp"))


def test_verify_cache_keys_on_schema(tmp_path, monkeypatch):
    import polyprime.families as families

    verify_main_theorem(10, Budget(max_pairs=1), cache_dir=str(tmp_path))
    stored = sorted(tmp_path.iterdir())
    for path in stored:
        # Forge the records so that a hit would be visible in the report.
        data = json.loads(path.read_text())
        data["record"]["verdict"]["notes"] = ["forged"]
        path.write_text(json.dumps(data))
    served = verify_main_theorem(10, Budget(max_pairs=1), cache_dir=str(tmp_path))
    assert all(rec.verdict["notes"] == ["forged"] for rec in served.records)
    # Any edit to the package's sources changes the digest the records are keyed by.
    monkeypatch.setattr(families, "_code_digest", lambda: "edited sources")
    fresh = verify_main_theorem(10, Budget(max_pairs=1), cache_dir=str(tmp_path))
    assert all(rec.verdict["notes"] != ["forged"] for rec in fresh.records)


def test_verify_cache_corrupt_file_is_a_miss(tmp_path):
    first = verify_main_theorem(10, certify=False, cache_dir=str(tmp_path))
    paths = sorted(tmp_path.iterdir())
    paths[0].write_text('{"key": {"schema"')  # a partial write
    paths[1].write_text("[]")
    second = verify_main_theorem(10, certify=False, cache_dir=str(tmp_path))
    assert second.to_json_lines() == first.to_json_lines()
    # The recomputed records replaced the damaged files.
    assert all(json.loads(path.read_text())["record"] for path in paths)


def test_verify_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYPRIME_CACHE", str(tmp_path / "envcache"))
    verify_main_theorem(10, certify=False)
    assert any((tmp_path / "envcache").iterdir())


def test_rectangle_linked_removal_leaves_simple(good_l_instance, ladder_rect_instance):
    # Dropping the rectangle's two left cell columns plus a prefix of the
    # first path opens the ring.
    for shape, spec in (good_l_instance, ladder_rect_instance):
        r_cells = spec.part("r")
        n = max(y for _, y in r_cells) + 1
        removed = {(1, k) for k in range(1, n)} | {(2, k) for k in range(1, n)}
        removed |= set(spec.part("p1")[:1])
        trimmed = Polyomino.from_cells(set(shape.cells) - removed)
        assert is_simple(trimmed)


def test_minimal_zigzag_rank_is_16():
    report = verify_main_theorem(16, certify=False)
    assert report.minimal_zigzag_rank() == 16
    zig = [r for r in report.records if r.zigzag]
    assert len(zig) == 1
    assert zig[0].l_configurations == 0 and zig[0].ladders3 == 0
