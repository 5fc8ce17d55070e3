from __future__ import annotations

import json
from pathlib import Path

import pytest

from polyprime.cli import main
from polyprime.grid import format_shape_json

SHAPES = Path(__file__).resolve().parent.parent / "shapes"
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture()
def frame3_grid():
    return str(SHAPES / "frame3.grid")


@pytest.fixture()
def ring22_json(tmp_path, ring22):
    path = tmp_path / "ring22.json"
    path.write_text(format_shape_json(ring22))
    return str(path)


def test_classify_frame3(frame3_grid, capsys):
    assert main(["classify", frame3_grid]) == 0
    out = capsys.readouterr().out
    assert "closed path: yes" in out
    assert "L-configurations: 4" in out


def test_classify_json_output(frame3_grid, capsys):
    assert main(["classify", frame3_grid, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 8
    assert payload["holes"] == 1
    assert payload["inner_intervals"] == 20
    assert len(payload["l_configurations"]) == 4


def test_zigzag_none(ring22_json, capsys):
    assert main(["zigzag", ring22_json]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_zigzag_witness(tmp_path, diamond16, capsys):
    path = tmp_path / "diamond.json"
    path.write_text(format_shape_json(diamond16))
    assert main(["zigzag", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"] is not None
    assert len(payload["witness"]["intervals"]) >= 3


def test_certify_frame3(frame3_grid, capsys):
    assert main(["certify", frame3_grid]) == 0
    out = capsys.readouterr().out
    assert "Prime" in out and "lconfig" in out and "equality=full" in out


def test_certify_nonprime_exit_zero(tmp_path, diamond16, capsys):
    path = tmp_path / "diamond.json"
    path.write_text(format_shape_json(diamond16))
    assert main(["certify", str(path), "--budget-pairs", "1"]) == 0
    assert "NonPrime" in capsys.readouterr().out


def test_certify_budget_exit_code(ring22_json, capsys):
    # Tiny pair budget: containment-only downgrade signals exit 3.
    assert main(["certify", ring22_json, "--budget-pairs", "10"]) == 3
    assert "containment-only" in capsys.readouterr().out


def test_certify_unsupported_input_exit4(tmp_path, psc_instance, capsys):
    shape, _ = psc_instance
    path = tmp_path / "family.json"
    path.write_text(format_shape_json(shape))
    assert main(["certify", str(path)]) == 4


def test_input_error_exit4(tmp_path, capsys):
    bad = tmp_path / "bad.grid"
    bad.write_text("#?#\n")
    assert main(["classify", str(bad)]) == 4
    assert main(["classify", str(tmp_path / "missing.grid")]) == 4
    assert main(["enumerate", "--max-rank", "7"]) == 4


def test_grid_with_leading_offset(tmp_path, capsys):
    path = tmp_path / "offset.grid"
    path.write_text(" ##\n##.\n")
    assert main(["classify", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 4


def test_ideal_export(frame3_grid, capsys):
    assert main(["ideal", frame3_grid]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ring x_0_0")
    assert len(out.strip().splitlines()) == 21  # header + 20 minors


def test_ideal_with_toric(monkeypatch, capsys):
    # The whole stdout, the minors and then the kernel basis, byte for byte.
    # The lconfig marking scans the shape for L-configurations once, and
    # builds the map from the one it found without checking it again.
    from polyprime import cli, ideals, toric

    scans = []
    for module in (cli, ideals, toric):
        original = getattr(module, "find_l_configurations", None)
        if original is not None:
            monkeypatch.setattr(module, "find_l_configurations",
                                lambda p, _f=original: scans.append(p) or _f(p))
    for marked, scan_count in (("none", 0), ("lconfig", 1)):
        scans.clear()
        assert main(["ideal", str(SHAPES / "frame3.grid"), "--toric", "--marked", marked]) == 0
        expected = (DATA / f"frame3_ideal_toric_{marked}.txt").read_text()
        assert capsys.readouterr().out == expected
        assert len(scans) == scan_count, marked


def test_ideal_toric_budget_caps_the_whole_kernel_computation(capsys):
    # 471 S-pairs cover each of the 17 Gröbner runs of this kernel basis,
    # but not all of them together.
    assert main(["ideal", str(SHAPES / "frame3.grid"), "--toric", "--budget-pairs", "471"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exhausted: pair cap (saturation, x_0_1; pairs=472")


def test_ideal_lconfig_marking_needs_an_lconfiguration(ring22_json, capsys):
    # ring22 has no L-configuration; the unmarked map must not stand in for it.
    assert main(["ideal", ring22_json, "--toric", "--marked", "lconfig"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error" in captured.err and "L-configuration" in captured.err


def test_enumerate(capsys):
    assert main(["enumerate", "--max-rank", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["cells"] for line in lines)


def test_verify_summary(capsys):
    assert main(["verify", "--max-rank", "10", "--no-certify"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["counterexamples"] == 0
    assert summary["shapes"] == 2


def test_verify_parallel_jobs(capsys):
    assert main(["verify", "--max-rank", "12", "--no-certify", "--jobs", "2"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["shapes"] == 5


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_fewer_than_one_job(jobs, capsys):
    assert main(["verify", "--max-rank", "8", "--no-certify", "--jobs", jobs]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("command,written", [
    ("classify", "the indented JSON payload"),
    ("ideal", "the exported text"),
    ("verify", "the JSON-lines report"),
])
def test_output_help_names_what_is_written(command, written, capsys):
    assert _exit_code([command, "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"--output OUTPUT also write {written}" in help_text


def test_verify_report_output(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    assert main([
        "verify", "--max-rank", "10", "--no-certify", "--json", "--output", str(out_path),
    ]) == 0
    stdout = capsys.readouterr().out
    assert out_path.read_text() == stdout
    lines = stdout.strip().splitlines()
    assert "summary" in json.loads(lines[-1])


def test_family_command(tmp_path, capsys, good_l_instance):
    _, spec = good_l_instance
    payload = {
        "kind": "good-l-rectangle",
        "r": [list(c) for c in spec.part("r")],
        "p1": [list(c) for c in spec.part("p1")],
        "s": [list(c) for c in spec.part("s")],
        "p2": [list(c) for c in spec.part("p2")],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload))
    assert main(["family", str(path), "--certify", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["good"] is True
    assert result["verdict"]["kind"] == "prime"


def test_family_psc_command(tmp_path, capsys, psc_instance):
    _, spec = psc_instance
    payload = {
        "kind": "psc",
        "s": [list(c) for c in spec.part("s")],
        "c": [list(c) for c in spec.part("c")],
        "t1": [list(c) for c in spec.part("t1")],
        "t2": [list(c) for c in spec.part("t2")],
    }
    path = tmp_path / "psc.json"
    path.write_text(json.dumps(payload))
    assert main(["family", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["holes"] == 1


def test_family_budget_stop_exits_like_certify(capsys):
    # A containment-only verdict exits 3 from both commands.
    argv = ["--certify", "--budget-pairs", "5"]
    assert main(["family", str(SHAPES / "good_l_rectangle.json"), *argv]) == 3
    assert "equality=containment-only" in capsys.readouterr().out
    assert main(["certify", str(SHAPES / "frame3.grid"), *argv[1:]]) == 3
    assert "equality=containment-only" in capsys.readouterr().out


@pytest.mark.parametrize("spec", sorted(path.name for path in SHAPES.glob("*.json")))
def test_shipped_family_spec_certifies_prime(spec, capsys):
    assert main(["family", str(SHAPES / spec), "--certify"]) == 0
    out = capsys.readouterr().out
    assert ", prime (" in out and "equality=full" in out


def test_family_spec_with_a_path_out_of_order_exit4(tmp_path, capsys):
    spec = json.loads((SHAPES / "good_l_rectangle.json").read_text())
    spec["p2"] = [[3, 4], [4, 3], [4, 4], [4, 2], [4, 1]]
    path = tmp_path / "out_of_order.json"
    path.write_text(json.dumps(spec))
    assert main(["family", str(path), "--certify"]) == 4
    assert capsys.readouterr().err.startswith("input error: cells are not an open path")


def test_family_spec_missing_a_part_exit4(tmp_path, capsys):
    path = tmp_path / "no_core.json"
    path.write_text(json.dumps({"kind": "psc", "c": [[0, 0]], "t1": [[1, 1]], "t2": [[2, 2]]}))
    assert main(["family", str(path)]) == 4
    assert capsys.readouterr().err == 'input error: expected an object with a "s" key\n'


def test_family_spec_not_an_object_exit4(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["family", str(path)]) == 4
    assert capsys.readouterr().err.startswith("input error:")


def test_family_spec_part_not_a_cell_list_exit4(tmp_path, capsys):
    path = tmp_path / "bad_part.json"
    path.write_text(json.dumps({"kind": "psc", "s": 5, "c": [[0, 0]], "t1": [[1, 1]], "t2": [[2, 2]]}))
    assert main(["family", str(path)]) == 4
    assert '"s" must be a list of [x, y] integer pairs' in capsys.readouterr().err


def test_json_booleans_are_not_coordinates(tmp_path, capsys):
    # frame3 with every 0 and 1 spelled false and true: bool is a subclass of int.
    path = tmp_path / "frame3.json"
    path.write_text('{"cells": [[false, false], [true, false], [2, false], [2, true], '
                    '[2, 2], [true, 2], [false, 2], [false, true]]}')
    assert main(["certify", str(path)]) == 4
    assert '"cells" must be a list of [x, y] integer pairs' in capsys.readouterr().err


def test_family_spec_boolean_coordinate_exit4(tmp_path, capsys, good_l_instance):
    _, spec = good_l_instance
    payload = {"kind": "good-l-rectangle",
               **{key: [list(c) for c in spec.part(key)] for key in ("r", "p1", "s", "p2")}}
    payload["s"][0][0] = True
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload))
    assert main(["family", str(path)]) == 4
    assert '"s" must be a list of [x, y] integer pairs' in capsys.readouterr().err


@pytest.mark.parametrize("cap", [
    ["--budget-pairs", "-1"],
    ["--budget-degree", "-3"],
    ["--budget-seconds", "-1"],
    ["--budget-seconds", "nan"],
])
def test_negative_or_nan_budget_cap_exit4(cap, capsys):
    assert main(["certify", str(SHAPES / "frame3.grid"), *cap]) == 4
    assert capsys.readouterr().err.startswith("input error: budget cap")


def test_certify_directory_exit4(tmp_path, capsys):
    assert main(["certify", str(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith("input error:")


def test_family_invalid_spec_exit4(tmp_path, capsys):
    path = tmp_path / "nonsense.json"
    path.write_text(json.dumps({"kind": "psc", "s": [[0, 0]], "c": [[5, 5]], "t1": [[9, 9]], "t2": [[12, 12]]}))
    assert main(["family", str(path)]) == 4


def test_byte_stable_outputs(frame3_grid, capsys):
    main(["classify", frame3_grid, "--json"])
    first = capsys.readouterr().out
    main(["classify", frame3_grid, "--json"])
    assert capsys.readouterr().out == first


def _exit_code(argv) -> int:
    with pytest.raises(SystemExit) as stop:
        main(argv)
    return stop.value.code


@pytest.mark.parametrize("argv", [
    [],
    ["certify"],
    ["certify", "shapes/frame3.grid", "--no-such-flag"],
    ["enumerate"],
    ["verify", "--max-rank", "ten"],
])
def test_usage_errors_exit4_not_counterexample(argv, capsys):
    # argparse would exit 2, which this CLI reserves for a counterexample.
    assert _exit_code(argv) == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"], ["enumerate", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert _exit_code(argv) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["classify", "FRAME3", "--budget-pairs", "1"],
    ["zigzag", "FRAME3", "--budget-seconds", "1"],
    ["enumerate", "--max-rank", "8", "--budget-degree", "1"],
    ["enumerate", "--max-rank", "8", "--json"],
    ["ideal", "FRAME3", "--json"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    argv = [str(SHAPES / "frame3.grid") if a == "FRAME3" else a for a in argv]
    assert _exit_code(argv) == 4
    assert "unrecognized arguments" in capsys.readouterr().err


def test_enumerate_output_flag_is_rejected_and_writes_nothing(tmp_path, capsys):
    target = tmp_path / "F"
    assert _exit_code(["enumerate", "--max-rank", "8", "--output", str(target)]) == 4
    assert not target.exists()
    assert capsys.readouterr().out == ""
