"""Tests for the command-line interface and its exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

import coevent
from coevent.cli import EXIT_BAD_INPUT, EXIT_CAP, EXIT_OK, EXIT_VALIDATION, main
from coevent.scenarios import build_scenario, schema_to_json


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scenario_run_emits_valid_report(capsys):
    code, out, _ = run_cli(capsys, "scenario", "run", "pbr-v1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == 2
    assert doc["scenario"] == {"name": "pbr-v1", "parameters": {}}
    assert [e["label"] for e in doc["entries"]] == ["00", "0+", "+0", "++"]
    assert doc["intersection"] == []


def test_scenario_run_out_files_are_byte_identical(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        code, out, _ = run_cli(
            capsys, "scenario", "run", "appendix-theta", "--theta", "0.7",
            "--out", str(path),
        )
        assert code == EXIT_OK
        assert out == ""
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")
    json.loads(first.read_text())


def test_scenario_run_missing_theta_exits_bad_input(capsys):
    code, _, err = run_cli(capsys, "scenario", "run", "appendix-theta")
    assert code == EXIT_BAD_INPUT
    assert "theta" in err


def test_scenario_run_unknown_name_exits_bad_input(capsys):
    code, _, err = run_cli(capsys, "scenario", "run", "nope")
    assert code == EXIT_BAD_INPUT
    assert "unknown scenario" in err


def test_theta_and_theta_deg_are_mutually_exclusive(capsys):
    code, _, err = run_cli(
        capsys, "scenario", "run", "appendix-theta",
        "--theta", "0.7", "--theta-deg", "40",
    )
    assert code == EXIT_BAD_INPUT
    assert "mutually exclusive" in err


def test_theta_deg_matches_radians(capsys, tmp_path):
    by_deg = tmp_path / "deg.json"
    by_rad = tmp_path / "rad.json"
    assert run_cli(capsys, "scenario", "run", "appendix-theta",
                   "--theta-deg", "40", "--out", str(by_deg))[0] == EXIT_OK
    assert run_cli(capsys, "scenario", "run", "appendix-theta",
                   "--theta", str(math.radians(40.0)), "--out", str(by_rad))[0] == EXIT_OK
    assert by_deg.read_bytes() == by_rad.read_bytes()


def test_sweep_emits_points(capsys):
    code, out, _ = run_cli(
        capsys, "scenario", "sweep", "--start", "0.4", "--end", "0.45", "--steps", "2",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["sweep"]["steps"] == 2
    assert len(doc["points"]) == 2
    assert doc["markers"] == []


@pytest.mark.parametrize("args", [
    ("--start", "0.4", "--end", "0.45", "--steps", "1"),
    ("--start", "0.5", "--end", "0.4", "--steps", "3"),
])
def test_sweep_bad_grid_exits_bad_input(capsys, args):
    code, _, err = run_cli(capsys, "scenario", "sweep", *args)
    assert code == EXIT_BAD_INPUT
    assert "error" in err


def _write_schema(tmp_path, name, entry_index=0, **params):
    build = build_scenario(name, params)
    doc = schema_to_json(build.entries[entry_index].schema)
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    return path, doc


def test_scenario_validate_accepts_good_schema(capsys, tmp_path):
    path, _ = _write_schema(tmp_path, "pbr-v2")
    code, out, _ = run_cli(capsys, "scenario", "validate", "--file", str(path))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["passed"] is True
    assert report["validation"]["passed"] is True
    assert len(report["history_labels"]) == 16


def test_scenario_validate_rejects_tampered_unitary(capsys, tmp_path):
    path, doc = _write_schema(tmp_path, "appendix-hamiltonian", theta=0.7)
    doc["slices"][0]["unitary"][0][0] = [1.5, 0.0]
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "scenario", "validate", "--file", str(path))
    assert code == EXIT_VALIDATION
    report = json.loads(out)
    assert report["passed"] is False
    assert "error" in report


def test_scenario_validate_rejects_skewed_basis(capsys, tmp_path):
    path, doc = _write_schema(tmp_path, "pbr-v1")
    doc["slices"][0]["basis"][0][0] = [0.9, 0.1]
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "scenario", "validate", "--file", str(path))
    assert code == EXIT_VALIDATION
    assert json.loads(out)["passed"] is False


def test_scenario_validate_missing_file_exits_bad_input(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "scenario", "validate", "--file", str(tmp_path / "absent.json"),
    )
    assert code == EXIT_BAD_INPUT
    assert "cannot read" in err


def _write_df(tmp_path, entries, labels=None):
    doc = {"entries": entries}
    if labels is not None:
        doc["labels"] = labels
    path = tmp_path / "df.json"
    path.write_text(json.dumps(doc))
    return path


def test_df_analyze_reports_product_zero_pair(capsys, tmp_path, composite_golden):
    path = _write_df(tmp_path, composite_golden["product_matrix"],
                     labels=["h11", "h12", "h21", "h22"])
    code, out, _ = run_cli(capsys, "df", "analyze", "--file", str(path))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["passed"] is True
    assert report["zero_sets"]["nontrivial"] == [["h11", "h22"]]
    assert {tuple(c["support"]) for c in report["coevents"]} == {("h12",), ("h21",)}


def test_df_analyze_invalid_matrix_exits_validation(capsys, tmp_path):
    path = _write_df(tmp_path, [
        [[0.9, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.9, 0.0]],
    ])
    code, out, _ = run_cli(capsys, "df", "analyze", "--file", str(path))
    assert code == EXIT_VALIDATION
    report = json.loads(out)
    assert report["passed"] is False
    assert any("normalization" in line for line in report["validation"]["failures"])


def test_df_analyze_malformed_json_exits_bad_input(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "df", "analyze", "--file", str(path))
    assert code == EXIT_BAD_INPUT
    assert "not valid JSON" in err


def test_df_analyze_missing_entries_exits_bad_input(capsys, tmp_path):
    path = tmp_path / "df.json"
    path.write_text(json.dumps({"labels": ["a", "b"]}))
    code, _, err = run_cli(capsys, "df", "analyze", "--file", str(path))
    assert code == EXIT_BAD_INPUT
    assert "entries" in err


def test_enumeration_cap_exits_cap_code(capsys, monkeypatch):
    monkeypatch.setenv("COEVENT_MAX_OMEGA", "8")
    code, _, err = run_cli(capsys, "scenario", "run", "pbr-v2")
    assert code == EXIT_CAP
    assert "cap exceeded" in err
    assert "COEVENT_MAX_OMEGA = 8" in err


def test_text_format_renders_lines(capsys):
    code, out, _ = run_cli(capsys, "scenario", "run", "pbr-v1", "--format", "text")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines and lines[0] == "admissibility:"
    assert any(line.strip().startswith("schema_version:") for line in lines)
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == EXIT_OK
    assert "coevent" in out


def test_module_entry_point_runs():
    # The child must import the same package as this process, installed or not.
    src = os.path.dirname(os.path.dirname(os.path.abspath(coevent.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coevent.cli", "scenario", "run", "composite-product"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["composition"]["product_label"] == "D_AB"
