"""Tests for the command-line interface and its exit codes."""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import coevent
from coevent import HistorySchema, Slice, computational_basis, limits
from coevent.cli import EXIT_BAD_INPUT, EXIT_CAP, EXIT_OK, EXIT_VALIDATION, main
from coevent.scenarios import build_scenario, schema_to_json

from conftest import planted_coevent_factor


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


@pytest.mark.parametrize("args,name", [
    (("run", "appendix-hamiltonian", "--theta", "inf"), "'theta'"),
    (("run", "appendix-theta", "--theta", "nan"), "'theta'"),
    (("run", "appendix-theta", "--theta-deg", "-inf"), "'theta'"),
    (("sweep", "--start", "0", "--end", "inf", "--steps", "3"), "sweep end"),
    (("sweep", "--start", "-1e308", "--end", "1e308", "--steps", "3"), "sweep range"),
])
def test_non_finite_angles_exit_bad_input(capsys, args, name):
    code, out, err = run_cli(capsys, "scenario", *args)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: ") and name in err and "finite" in err
    assert "Warning" not in err


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


def test_df_analyze_planted_coevents(capsys, tmp_path):
    """A planted DF of 27 histories with five blocks of four, which takes
    the grid join and MMCS: its report lists the five planted zero events,
    all maximal, and the 4^5 = 1,024 transversals of the blocks as its
    co-events."""
    factor, blocks = planted_coevent_factor(np.random.default_rng(27), 27, [4] * 5)
    matrix = np.conjugate(factor) @ factor.T
    path = _write_df(tmp_path, [[[z.real, z.imag] for z in row] for row in matrix.tolist()])
    code, out, _ = run_cli(capsys, "df", "analyze", "--file", str(path))
    assert code == EXIT_OK
    report = json.loads(out)
    labels = [f"h{i + 1}" for i in range(27)]
    zeros = {tuple(lab for i, lab in enumerate(labels) if i not in b) for b in blocks}
    assert report["zero_sets"]["counts"] == {"sectors": 1, "zero_sectorwise": 5,
                                             "nontrivial": 5, "borderline": 0}
    assert {tuple(e) for e in report["zero_sets"]["maximal"]} == zeros
    supports = [tuple(c["support"]) for c in report["coevents"]]
    assert len(supports) == 1024
    assert {tuple(sorted(s)) for s in supports} == {
        tuple(sorted(labels[i] for i in pick)) for pick in itertools.product(*blocks)}


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


@pytest.mark.parametrize("doc", [
    {"entries": 5},
    {"entries": [5]},
    {"entries": [[[1.0, 0.0]]], "labels": 3},
    {"entries": [[[1.0, 0.0]]], "labels": "h"},
])
def test_df_analyze_non_list_field_exits_bad_input(capsys, tmp_path, doc):
    """A raw-DF file whose entries, a row of them, or labels is not a list
    is malformed: one error line and exit 4, no traceback."""
    path = tmp_path / "df.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "df", "analyze", "--file", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert re.fullmatch(r"error: (entries|labels) must be a list, got \S+\n", err)


@pytest.mark.parametrize("entries", [
    [[[1e308, 0.0]]],
    [[[1e308, 0.0], [-1e308, 0.0]], [[-1e308, 0.0], [1e308, 0.0]]],
    [[[8e307, 0.0]] * 3] * 3,
])
def test_df_analyze_overflow_exits_bad_input(capsys, tmp_path, entries):
    """A raw matrix whose Hermitian part, or (for the 3 x 3 of 8e307, whose
    sum of halves stays finite) whose largest eigenvalue, overflows is bad
    input: one error line that names the overflow, exit 4 and no numpy
    warning."""
    path = _write_df(tmp_path, entries)
    code, out, err = run_cli(capsys, "df", "analyze", "--file", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert re.fullmatch(r"error: raw decoherence matrix overflows double precision "
                        r"\(overflow encountered in \w+\)\n", err)


def test_df_analyze_huge_finite_matrix_fails_validation(capsys, tmp_path):
    """Entries of 1e200 stay finite through validation: the matrix fails
    normalization with exit 2 and a report, not an overflow error."""
    path = _write_df(tmp_path, [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]]])
    code, out, err = run_cli(capsys, "df", "analyze", "--file", str(path))
    assert code == EXIT_VALIDATION and err == ""
    report = json.loads(out)
    assert report["validation"]["normalization_residual"] == 2e200
    assert report["validation"]["failures"] == ["normalization residual 2.000e+200"]


@pytest.mark.parametrize("rows, code", [(40, EXIT_BAD_INPUT), (41, EXIT_CAP), (2048, EXIT_CAP)])
def test_df_analyze_refuses_41_rows_before_reading_pairs(capsys, tmp_path, rows, code):
    """ZERO_SET_WORK_LIMIT admits no block of 41 histories even at one factor
    column, and a raw DF's one block is the whole space: 41 or more rows
    exit 3 before any entry is read, so entries that are no pairs at all
    still exit 3 there, and 40 rows of them are bad input (exit 4)."""
    path = _write_df(tmp_path, [["no pair"] * rows] * rows)
    got, out, err = run_cli(capsys, "df", "analyze", "--file", str(path))
    assert got == code and out == ""
    if code == EXIT_CAP:
        assert err == (f"enumeration cap exceeded: zero-set search over a sector of {rows} "
                       f"histories with 1 factor columns needs "
                       f"{((1 << rows // 2) + (1 << rows - rows // 2)) * 2} table entries, "
                       f"above ZERO_SET_WORK_LIMIT = {limits.ZERO_SET_WORK_LIMIT}\n")


@pytest.mark.parametrize("labels", [[1], [["a"]], [None], [True]])
def test_df_analyze_labels_must_be_strings(capsys, tmp_path, labels):
    """Labels that are not JSON strings are malformed, not stringified."""
    path = _write_df(tmp_path, [[[1.0, 0.0]]], labels=labels)
    code, out, err = run_cli(capsys, "df", "analyze", "--file", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == f"error: labels must be strings, got {labels!r}\n"


@pytest.mark.parametrize("field, scale, message", [
    ("initial", 1e308, "ket is not normalized: |v| = 1e+308"),
    ("initial", 1e200, "ket is not normalized: |v| = 1e+200"),
    ("initial", 1.0, "ket is not normalized: |v| = 1.4142135623730951"),
    ("basis", 1e308, "ket is not normalized: |v| = 1e+308"),
    ("unitary", 1e308, "slice evolution is not unitary"),
    ("unitary", 1e200, "slice evolution is not unitary"),
    ("labels", None, "slice labels must be strings, got [0, 1]"),
], ids=["ket-1e308", "ket-1e200", "ket-unnormalized", "basis-1e308", "unitary-1e308",
        "unitary-1e200", "int-labels"])
def test_scenario_validate_huge_entries_and_labels(capsys, tmp_path, field, scale, message):
    """Schema entries far from unit size fail validation with exit 2, a
    plain float in the error and no numpy warning, whether or not their
    squares overflow; slice labels that are not strings fail the same way.
    The ket rows are [scale, 0] and [0, 0], or [1, 1] at scale 1; every
    unitary entry is the scale."""
    path, doc = _write_schema(tmp_path, "appendix-hamiltonian", theta=0.7)
    first = doc["slices"][0]
    if field == "initial":
        doc["initial"] = [[scale, 0.0], [scale if scale == 1.0 else 0.0, 0.0]]
    elif field == "basis":
        first["basis"][0] = [[scale, 0.0], [0.0, 0.0]]
    elif field == "unitary":
        first["unitary"] = [[[scale, 0.0]] * 2] * 2
    else:
        first["labels"] = [0, 1]
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "scenario", "validate", "--file", str(path))
    assert code == EXIT_VALIDATION and err == ""
    report = json.loads(out)
    assert report["passed"] is False
    assert report["error"] == message


@pytest.mark.parametrize("field, value", [
    ("initial", 5), ("dim", True), ("basis", 5), ("basis", [5, 5]), ("labels", 7),
    ("unitary", 3), ("unitary", [3]),
])
def test_scenario_validate_non_list_field_fails_validation(capsys, tmp_path, field, value):
    """A schema file with a non-list field, or a bool dim, reports passed
    false with the error and exits 2, as dim 0 does.  The bool dim sits in a
    one-dimensional schema, which true would otherwise pass as dim 1."""
    path, doc = _write_schema(tmp_path, "pbr-v1")
    if field == "dim":
        doc = {"dim": value, "initial": [[1.0, 0.0]],
               "slices": [{"basis": [[[1.0, 0.0]]], "labels": ["a"]}]}
    elif field == "initial":
        doc[field] = value
    else:
        doc["slices"][0][field] = value
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "scenario", "validate", "--file", str(path))
    assert code == EXIT_VALIDATION
    report = json.loads(out)
    assert report["passed"] is False
    assert field in report["error"]


def test_enumeration_cap_exits_cap_code(capsys, monkeypatch):
    """pbr-v2's branch rows have 64 entries, one above a cap of 63."""
    monkeypatch.setattr(limits, "FACTOR_ENTRY_LIMIT", 63)
    code, _, err = run_cli(capsys, "scenario", "run", "pbr-v2")
    assert code == EXIT_CAP
    assert "cap exceeded" in err
    assert "have 64 entries, above FACTOR_ENTRY_LIMIT = 63" in err


def test_coevent_cap_exits_cap_code(capsys, monkeypatch):
    """appendix-theta at 0.7 lists more than 2 co-events for phi1."""
    monkeypatch.setattr(limits, "COEVENT_COUNT_LIMIT", 2)
    code, out, err = run_cli(capsys, "scenario", "run", "appendix-theta", "--theta", "0.7")
    assert code == EXIT_CAP
    assert out == ""
    assert err == ("enumeration cap exceeded: co-event search found 3 primitive co-events, "
                   "above COEVENT_COUNT_LIMIT = 2\n")


def _write_basis_schema(tmp_path, dim, labels=None, slices=2):
    """A schema file measuring |0> in the computational basis of dim, at each
    of ``slices`` times."""
    basis = Slice(computational_basis(dim, labels))
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema_to_json(
        HistorySchema.from_ket(np.eye(dim)[0], (basis,) * slices))))
    return path


@pytest.mark.parametrize("dim, slices, message", [
    (2, 22, "branch rows of 4194304 histories, 1 state columns and dimension 2 have "
            "8388608 entries, above FACTOR_ENTRY_LIMIT = 4194304"),
    (256, 2, "branch rows of 65536 histories, 1 state columns and dimension 256 have "
             "16777216 entries, above FACTOR_ENTRY_LIMIT = 4194304"),
], ids=["qubit-slices", "factor-entries"])
def test_scenario_validate_over_a_cap_exits_cap_code(capsys, tmp_path, dim, slices, message):
    """scenario validate refuses a schema over a cap as every command does:
    exit 3, nothing on stdout, one line on stderr.  22 qubit slices (2^22
    histories) and two slices of d = 256 (2^16) are both refused by the
    factor cap, before any label or array exists."""
    path = _write_basis_schema(tmp_path, dim, slices=slices)
    code, out, err = run_cli(capsys, "scenario", "validate", "--file", str(path))
    assert (code, out) == (EXIT_CAP, "")
    assert err == f"enumeration cap exceeded: {message}\n"


@pytest.mark.parametrize("labels, dim", [(["1", "11"], 2), (None, 12)], ids=["1-11", "d12"])
def test_scenario_validate_joins_colliding_labels(capsys, tmp_path, labels, dim):
    """Outcome labels whose concatenations collide pass validation, their
    history labels joined by commas."""
    path = _write_basis_schema(tmp_path, dim, labels)
    code, out, _ = run_cli(capsys, "scenario", "validate", "--file", str(path))
    assert code == EXIT_OK
    history_labels = json.loads(out)["history_labels"]
    assert len(history_labels) == dim * dim
    assert {"h_{1,11}", "h_{11,1}"} <= set(history_labels)


def test_scenario_validate_reports_the_failed_residuals(capsys, tmp_path):
    """A basis scaled by 1 + 4e-10 passes the basis check, and the DF it
    builds fails normalization: the report holds the validation block."""
    scaled = 1.0 + 4e-10
    doc = {"dim": 2, "initial": [[1.0, 0.0], [0.0, 0.0]],
           "slices": [{"basis": [[[scaled, 0.0], [0.0, 0.0]], [[0.0, 0.0], [scaled, 0.0]]],
                       "labels": ["0", "1"]}]}
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "scenario", "validate", "--file", str(path))
    assert (code, err) == (EXIT_VALIDATION, "")
    report = json.loads(out)
    assert report["passed"] is False and report["validation"]["passed"] is False
    assert report["validation"]["failures"] == ["normalization residual 1.600e-09"]
    assert report["error"] == ("constructed decoherence functional failed validation: "
                               "normalization residual 1.600e-09")


def test_bad_label_count_exits_bad_input_and_no_variable_sets_a_cap(capsys, tmp_path,
                                                                    monkeypatch):
    """Two labels for a 1 x 1 matrix are bad input.  The package reads no
    environment variable: COEVENT_MAX_OMEGA, which once set a history cap,
    leaves the pbr-v2 report byte-identical at 0 and at 8."""
    path = _write_df(tmp_path, [[[1.0, 0.0]]], labels=["a", "b"])
    code, out, err = run_cli(capsys, "df", "analyze", "--file", str(path))
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == "error: 2 history labels for a 1 x 1 decoherence matrix\n"
    expected = run_cli(capsys, "scenario", "run", "pbr-v2")
    assert expected[0] == EXIT_OK
    for value in ("0", "8"):
        monkeypatch.setenv("COEVENT_MAX_OMEGA", value)
        assert run_cli(capsys, "scenario", "run", "pbr-v2") == expected


def test_zero_set_caps_exit_cap_code(capsys, tmp_path):
    """A classical block of 32 histories is over the zero-set work cap; 24
    histories of which 23 carry amplitude 1e-6 have 2^23 zero events, over
    the candidate cap.  Both exit 3 and name their cap."""
    path = _write_df(tmp_path, [[[1.0 / 32 if i == j else 0.0, 0.0] for j in range(32)]
                                for i in range(32)])
    code, _, err = run_cli(capsys, "df", "analyze", "--file", str(path))
    assert code == EXIT_CAP
    assert "ZERO_SET_WORK_LIMIT = 4194304" in err
    amps = [1.0 - 23e-6] + [1e-6] * 23
    path = _write_df(tmp_path, [[[a * b, 0.0] for b in amps] for a in amps])
    code, _, err = run_cli(capsys, "df", "analyze", "--file", str(path))
    assert code == EXIT_CAP
    assert "ZERO_SET_CANDIDATE_LIMIT = 1048576" in err


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


def test_version_agrees_with_pyproject(capsys):
    """One version: pyproject.toml, coevent.__version__ and --version."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "pyproject.toml")
    with open(path, encoding="utf-8") as fh:
        declared = re.search(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE).group(1)
    assert coevent.__version__ == declared
    assert run_cli(capsys, "--version")[1] == f"coevent, version {declared}\n"


def _readme_section(heading: str) -> str:
    """The README's text after the line ``heading``, up to the next "## "."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        return fh.read().split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_python_api_lists_every_export():
    """The README's "Python API" section lists each name of coevent.__all__
    on a bullet of its own, and no other bare name; each dotted name it
    lists (documented API outside __all__) resolves from the package."""
    section = _readme_section("## Python API")
    listed = re.findall(r"^- `([\w.]+)`", section, re.MULTILINE)
    bare = [name for name in listed if "." not in name]
    assert sorted(bare) == sorted(coevent.__all__)
    for name in listed:
        obj = coevent
        for part in name.split("."):
            obj = getattr(obj, part)


def test_readme_limits_table_gives_every_cap_its_value():
    """Each row of the README's Limits table names an int constant of
    coevent.limits and gives its value, and each such constant has a row."""
    section = _readme_section("### Limits")
    rows = re.findall(r"^\| `(\w+)` \| (\d+) ", section, re.MULTILINE)
    assert len(rows) == section.count("\n| `")
    caps = [(name, value) for name, value in vars(limits).items()
            if name.isupper() and type(value) is int]
    assert sorted((name, int(value)) for name, value in rows) == sorted(caps)


# "DIR" stands for an existing directory.  Every usage error exits 4 with
# one "error:" message on stderr and nothing on stdout; help and version go
# to stdout; negative numbers, -inf among them, are values, not options.
@pytest.mark.parametrize("args,code", [
    ((), EXIT_BAD_INPUT),
    (("scenario",), EXIT_BAD_INPUT),
    (("nope",), EXIT_BAD_INPUT),
    (("scenario", "run"), EXIT_BAD_INPUT),
    (("scenario", "run", "pbr-v1", "--format", "xml"), EXIT_BAD_INPUT),
    (("scenario", "run", "pbr-v1", "--bogus"), EXIT_BAD_INPUT),
    (("scenario", "run", "pbr-v1", "--form", "text"), EXIT_BAD_INPUT),
    (("scenario", "sweep", "--start", "a", "--end", "1", "--steps", "2"), EXIT_BAD_INPUT),
    (("scenario", "sweep", "--start", "0", "--end", "1"), EXIT_BAD_INPUT),
    (("scenario", "run", "pbr-v1", "--out", "DIR"), EXIT_BAD_INPUT),
    (("scenario", "validate", "--file", "DIR"), EXIT_BAD_INPUT),
    (("df", "analyze", "--file", "DIR"), EXIT_BAD_INPUT),
    (("--help",), EXIT_OK),
    (("scenario", "run", "--help"), EXIT_OK),
    (("--version",), EXIT_OK),
    (("scenario", "run", "appendix-theta", "--theta", "-1e-3"), EXIT_OK),
    (("scenario", "run", "appendix-theta", "--theta-deg", "-45"), EXIT_OK),
    (("scenario", "sweep", "--start", "-1e-5", "--end", "0.1", "--steps", "2"), EXIT_OK),
])
def test_usage_exit_codes_and_streams(capsys, tmp_path, args, code):
    argv = [str(tmp_path) if a == "DIR" else a for a in args]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    if code == EXIT_BAD_INPUT:
        assert out == ""
        assert err.startswith("error:")
    elif "--help" in args:
        assert out.lower().startswith("usage:") and err == ""
    elif "--version" in args:
        assert "coevent" in out and "0.1.0" in out
    else:
        assert json.loads(out)["schema_version"] == 2


def test_out_into_missing_directory_exits_bad_input(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "scenario", "run", "pbr-v1", "--out", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert not path.parent.exists()


def _child_env() -> dict:
    """The environment of a child that imports the same package as this
    process, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(coevent.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_cli_imports_no_click():
    code = "import sys, coevent.cli; print('click' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_imports_no_numpy_random():
    """numpy.random is not imported with the package: loading it raises the
    start time and memory of every command."""
    code = "import sys, coevent.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_composite_product_run_imports_no_numpy_ma():
    """The composition's dedupe does not call np.unique, which imports
    numpy.ma on first use: about 10 ms of every composite-product run."""
    code = ("import contextlib, io, sys\n"
            "from coevent.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['scenario', 'run', 'composite-product'])\n"
            "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "coevent.cli", "scenario", "run", "composite-product"],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["composition"]["product_label"] == "D_AB"
