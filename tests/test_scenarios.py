"""Tests for scenario builders, the analysis pipeline, sweeps, and report io."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevent import (
    Event,
    HistorySchema,
    MissingParameterError,
    ProjectiveDecomposition,
    Slice,
    SpaceTooLargeError,
    UnknownScenarioError,
    ValidationFailedError,
    find_zero_sets,
    measure,
)
from coevent import histories, scenarios
from coevent.histories import build_df
from coevent.limits import SWEEP_STEP_LIMIT
from coevent.coevents import enumerate_primitive_coevents
from coevent.scenarios import (
    SCHEMA_VERSION,
    _flag_reasons,
    analyze_df,
    build_scenario,
    emit_report,
    raw_df_from_json,
    run_scenario,
    scenario_names,
    schema_from_json,
    schema_to_json,
    theta_sweep,
)

from coevent.tolerances import EPS_DF

from conftest import (
    THETA_SPECIAL,
    amplitude,
    load_golden,
    outcome_tuples,
    scenario_dfs,
    small_scenario_dfs,
    support_set,
)

ALL_NAMES = [
    "appendix-hamiltonian",
    "appendix-theta",
    "composite-product",
    "pbr-v1",
    "pbr-v2",
]


def _doc_zero_sets(section: dict) -> dict[str, set[tuple[str, ...]]]:
    zs = section["zero_sets"]
    return {k: support_set(zs[k]) for k in ("sectorwise", "nontrivial", "maximal")}


def _doc_coevent_supports(section: dict) -> list[list[str]]:
    return [c["support"] for c in section["coevents"]]


def test_scenario_names_lists_all_known():
    assert scenario_names() == ALL_NAMES


def test_build_scenario_unknown_name_raises():
    with pytest.raises(UnknownScenarioError, match="pbr-v1"):
        build_scenario("no-such-scenario")


@pytest.mark.parametrize("name", ["appendix-theta", "appendix-hamiltonian"])
def test_build_scenario_missing_theta_raises(name):
    with pytest.raises(MissingParameterError, match="theta"):
        build_scenario(name)


@pytest.mark.parametrize("bad", ["0.3", True, None, [0.3], np.bool_(True), np.complex128(0.5)])
def test_build_scenario_rejects_non_real_theta(bad):
    with pytest.raises(MissingParameterError, match="real number"):
        build_scenario("appendix-theta", {"theta": bad})


@pytest.mark.parametrize("name", ["appendix-theta", "appendix-hamiltonian"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_run_scenario_rejects_non_finite_theta(name, bad):
    """Refused by name before any numpy work, so no RuntimeWarning (an error
    under this suite's warning filter) is raised first."""
    with pytest.raises(MissingParameterError, match="'theta' must be a finite real number"):
        run_scenario(name, {"theta": bad})


@pytest.mark.parametrize("name", ["appendix-theta", "appendix-hamiltonian"])
@pytest.mark.parametrize("scalar,plain", [
    (np.float32(0.5), 0.5),
    (np.int64(1), 1),
    (np.float64(0.7), 0.7),
])
def test_numpy_scalar_angles_give_the_plain_reports(name, scalar, plain):
    """A numpy scalar angle is taken as the Python number it holds, in both
    formats; a float32 is not carried into the arithmetic of the bases."""
    for fmt in ("json", "text"):
        assert (emit_report(run_scenario(name, {"theta": scalar}), fmt)
                == emit_report(run_scenario(name, {"theta": plain}), fmt))


@pytest.mark.parametrize("name,params", [
    ("pbr-v1", {"theta": 0.3}),
    ("composite-product", {"mode": "fast"}),
    ("appendix-theta", {"theta": 0.3, "phi": 0.1}),
])
def test_build_scenario_rejects_unexpected_parameters(name, params):
    with pytest.raises(MissingParameterError, match="takes no parameter"):
        build_scenario(name, params)


def test_pbr_v1_report_matches_catalog(pbr_v1_golden):
    doc = run_scenario("pbr-v1")
    assert doc["schema_version"] == SCHEMA_VERSION
    assert [e["label"] for e in doc["entries"]] == ["00", "0+", "+0", "++"]
    for section in doc["entries"]:
        want = pbr_v1_golden["states"][section["label"]]
        assert section["history_labels"] == pbr_v1_golden["label_order"]
        assert section["validation"]["passed"]
        for lab, mu in want["measures"].items():
            assert section["measures"][lab] == pytest.approx(mu, abs=1e-12)
        assert section["measure_vector"] == pytest.approx(
            want["measure_vector"], abs=1e-12
        )
        got = _doc_zero_sets(section)
        assert got["sectorwise"] == support_set(want["zero_events_sectorwise"])
        assert got["nontrivial"] == support_set(want["nontrivial_zero_events"])
        assert got["maximal"] == support_set(want["maximal_zero_events"])
        assert _doc_coevent_supports(section) == want["coevents"]
    assert doc["intersection"] == pbr_v1_golden["intersection"] == []


def test_pbr_v1_admissibility_blocks_orthogonal_outcome():
    doc = run_scenario("pbr-v1")
    blocked = {"00": "xi1", "0+": "xi2", "+0": "xi3", "++": "xi4"}
    for outcome, row in doc["admissibility"].items():
        assert set(row) == set(blocked)
        for state, ok in row.items():
            assert ok == (blocked[state] != outcome)


def test_pbr_v2_report_matches_catalog(pbr_v2_golden):
    doc = run_scenario("pbr-v2")
    assert [e["label"] for e in doc["entries"]] == ["00", "0+", "+0", "++"]
    for section in doc["entries"]:
        want = pbr_v2_golden["states"][section["label"]]
        assert section["history_labels"] == pbr_v2_golden["label_order"]
        for lab, (re, im) in want["amplitudes"].items():
            assert section["measures"][lab] == pytest.approx(
                re * re + im * im, abs=1e-12
            )
        got = _doc_zero_sets(section)
        assert got["nontrivial"] == support_set(want["nontrivial_zero_events"])
        assert got["maximal"] == support_set(want["maximal_zero_events"])
        assert _doc_coevent_supports(section) == want["coevents"]
    assert doc["intersection"] == pbr_v2_golden["intersection"] == []


def test_pbr_v2_variant_conclusions_hold(pbr_v2_golden):
    doc = run_scenario("pbr-v2")
    sections = {e["label"]: e for e in doc["entries"]}
    variants = pbr_v2_golden["coevent_listing_variants"]
    for state, var in variants.items():
        computed = _doc_coevent_supports(sections[state])
        assert computed == var["computed"]
        if var["alternate"] is not None:
            alternate = var["alternate"]
            odd = [s for s in alternate if s not in computed]
            assert len(odd) == 1
            for lab in odd[0]:
                assert sections[state]["measures"][lab] == pytest.approx(0.0, abs=1e-12)
    conclusions = pbr_v2_golden["conclusions"]
    assert conclusions["four_way_intersection_empty"]
    assert doc["intersection"] == []
    assert conclusions["no_0plus_coevent_ends_at_xi2"]
    for sup in _doc_coevent_supports(sections["0+"]):
        assert all(not lab.endswith("xi2}") for lab in sup)


@pytest.mark.parametrize("key,theta", [
    ("0.3", 0.3),
    ("0.7", 0.7),
    ("1.2", 1.2),
    ("atan13", math.atan(1.0 / 3.0)),
])
def test_appendix_theta_reports_match_catalog(appendix_golden, key, theta):
    doc = run_scenario("appendix-theta", {"theta": theta})
    case = appendix_golden["cases"][key]
    assert doc["scenario"]["parameters"]["theta"] == pytest.approx(case["theta"])
    assert [e["label"] for e in doc["entries"]] == ["phi1", "phi2"]
    for section in doc["entries"]:
        want = case["states"][section["label"]]
        assert section["history_labels"] == appendix_golden["label_order"]
        for lab, mu in want["measures"].items():
            assert section["measures"][lab] == pytest.approx(mu, abs=1e-12)
        got = _doc_zero_sets(section)
        assert got["nontrivial"] == support_set(want["nontrivial_zero_events"])
        assert got["maximal"] == support_set(want["maximal_zero_events"])
        assert _doc_coevent_supports(section) == want["coevents"]
    assert support_set(doc["intersection"]) == support_set(case["intersection"])


def _outer_flip_map():
    # theta labels order "+/-" on the outer slices, hamiltonian labels "0/1";
    # the same physical branch sits at the bit-flipped outer outcomes.
    return [(1 - (i >> 2 & 1)) * 4 + (i >> 1 & 1) * 2 + (1 - (i & 1)) for i in range(8)]


@pytest.mark.parametrize("theta", [0.3, 0.7, 1.2])
def test_appendix_hamiltonian_matches_theta_up_to_global_phase(theta):
    direct = build_scenario("appendix-theta", {"theta": theta})
    timed = build_scenario("appendix-hamiltonian", {"theta": theta})
    perm = _outer_flip_map()
    for et, eh in zip(direct.entries, timed.entries):
        amps_t = [amplitude(et.schema, o) for o in outcome_tuples(et.schema)]
        amps_h = [amplitude(eh.schema, o) for o in outcome_tuples(eh.schema)]
        ratios = [amps_h[perm[i]] / amps_t[i]
                  for i in range(8) if abs(amps_t[i]) > 1e-12]
        assert abs(ratios[0]) == pytest.approx(1.0, abs=1e-9)
        expected = np.exp(1j * (math.pi / 4.0 - theta))
        for r in ratios:
            assert r == pytest.approx(expected, abs=1e-9)
        for i in range(8):
            assert (abs(amps_t[i]) < 1e-12) == (abs(amps_h[perm[i]]) < 1e-12)


def test_fixed_slices_are_built_and_checked_once(monkeypatch):
    """After a warm-up report, an appendix-hamiltonian build checks one
    evolution, its theta-dependent one, and reuses the fixed slices; the
    pbr scenarios reuse theirs, shared by every state."""
    run_scenario("appendix-hamiltonian", {"theta": 0.3})
    first = build_scenario("appendix-hamiltonian", {"theta": 0.3})
    checked = []
    is_unitary = histories.is_unitary

    def spy(u):
        checked.append(np.array(u))
        return is_unitary(u)

    monkeypatch.setattr(histories, "is_unitary", spy)
    second = build_scenario("appendix-hamiltonian", {"theta": 1.1})
    theta_slice, *fixed = second.entries[0].schema.slices
    assert len(checked) == 1
    np.testing.assert_array_equal(checked[0], theta_slice.evolution)
    assert all(a is b for a, b in zip(fixed, first.entries[0].schema.slices[1:]))
    assert theta_slice is not first.entries[0].schema.slices[0]
    assert all(e.schema.slices[0] is theta_slice for e in second.entries)
    for name in ("pbr-v1", "pbr-v2"):
        builds = [build_scenario(name) for _ in range(2)]
        slices = {id(s) for b in builds for e in b.entries for s in e.schema.slices}
        assert len(slices) == len(builds[0].entries[0].schema.slices)
    assert len(checked) == 1


@pytest.mark.parametrize("theta", [0.7, THETA_SPECIAL])
def test_appendix_hamiltonian_coevents_match_theta(theta):
    direct = scenario_dfs("appendix-theta", theta=theta)
    timed = scenario_dfs("appendix-hamiltonian", theta=theta)
    perm = _outer_flip_map()
    for label in ("phi1", "phi2"):
        sup_t = {frozenset(perm[i] for i in c.support.indices)
                 for c in enumerate_primitive_coevents(direct[label]).coevents}
        sup_h = {frozenset(c.support.indices)
                 for c in enumerate_primitive_coevents(timed[label]).coevents}
        assert sup_t == sup_h


def test_analyze_df_section_structure():
    df = scenario_dfs("pbr-v1")["0+"]
    section, coevents = analyze_df(df, label="0+")
    assert set(section) >= {
        "label", "history_labels", "validation", "measures", "measure_vector",
        "zero_sets", "coevents", "decoherent_partitions",
    }
    assert section["label"] == "0+"
    assert "sector_measures" in section
    assert sum(section["sector_measures"].values()) == pytest.approx(1.0, abs=1e-12)
    assert set(section["zero_sets"]["counts"]) == {
        "sectors", "zero_sectorwise", "nontrivial", "borderline",
    }
    assert set(section["decoherent_partitions"]) == {"medium", "weak"}
    assert [c["support"] for c in section["coevents"]] == [
        list(c.support.labels) for c in coevents.coevents
    ]
    assert all(c["classical"] == (len(c["support"]) == 1) for c in section["coevents"])


def test_analyze_df_sections_match_event_listings():
    """Sections read masks and the factor; the Event listings and measure()
    are the reference: equal lists, and measures within a few ulps, since
    the row norms sum in another order."""
    cases = small_scenario_dfs() + [
        (f"pbr-v2:{label}", df) for label, df in scenario_dfs("pbr-v2").items()]
    cases.append(("borderline", scenario_dfs("appendix-theta",
                                             theta=THETA_SPECIAL + 1e-4)["phi1"]))
    for name, df in cases:
        section, coevents = analyze_df(df, label="x")
        catalog = find_zero_sets(df)
        space = df.space
        zs = section["zero_sets"]
        assert zs["sectorwise"] == [list(e.labels) for e in catalog.zero_events_sectorwise()]
        assert zs["nontrivial"] == [list(e.labels) for e in catalog.nontrivial_zero_events()]
        assert zs["maximal"] == [list(e.labels) for e in catalog.maximal_zero_events()]
        assert zs["borderline"] == [space.labels_of(m) for s in catalog.sectors
                                    for m in s.borderline_masks]
        assert [c["support"] for c in section["coevents"]] == coevents.support_labels()
        singles = [measure(df, Event(space, 1 << i)) for i in range(space.size)]
        assert section["measure_vector"] == pytest.approx(singles, rel=1e-14, abs=1e-30)
        assert list(section["measures"]) == list(space.labels)
        assert list(section["measures"].values()) == section["measure_vector"]
        if df.space.sectors is not None:
            want = {lab: measure(df, Event(space, m)) for lab, m in df.sectors()}
            assert section["sector_measures"] == pytest.approx(want, rel=1e-14, abs=1e-30)
        else:
            assert "sector_measures" not in section
    assert zs["borderline"], "the last case lists a borderline event"


def test_analyze_df_skips_partitions_for_large_spaces():
    df = scenario_dfs("pbr-v2")["00"]
    section, _ = analyze_df(df, label="00")
    assert set(section["decoherent_partitions"]) == {"skipped"}
    assert "6" in section["decoherent_partitions"]["skipped"]


def test_composite_report_includes_composition_block(composite_golden):
    doc = run_scenario("composite-product")
    assert "intersection" not in doc
    comp = doc["composition"]
    assert comp["product_label"] == "D_AB"
    got = np.array([[complex(re, im) for re, im in row]
                    for row in comp["product_matrix"]])
    want = np.array([[complex(re, im) for re, im in row]
                     for row in composite_golden["product_matrix"]])
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert support_set(comp["emergent_zero"]) == support_set(
        composite_golden["emergent_zero_events"]
    )
    assert len(comp["weak_violations"]) == 1
    violation = comp["weak_violations"][0]
    assert violation["residual"] == pytest.approx(
        composite_golden["fine_product_weak_residual"], abs=1e-12
    )
    medium = doc["entries"][1]["decoherent_partitions"]["medium"]
    cells = [sorted(map(sorted, rep["cells"])) for rep in medium]
    assert sorted(map(sorted, composite_golden["medium_partition_cells"])) in cells


def test_theta_sweep_detects_special_angle():
    start, end = THETA_SPECIAL - 0.02, THETA_SPECIAL + 0.02
    doc = theta_sweep(start, end, 5)
    grid = [p["theta"] for p in doc["points"]]
    assert len(grid) == 5
    assert grid[0] == pytest.approx(start) and grid[-1] == pytest.approx(end)
    assert grid[2] == pytest.approx(THETA_SPECIAL, abs=1e-12)
    assert [p["disjoint"] for p in doc["points"]] == [True, True, False, True, True]
    assert [p["zero_counts"]["phi1"] for p in doc["points"]] == [2, 2, 3, 2, 2]
    assert all(p["zero_counts"]["phi2"] == 6 for p in doc["points"])
    assert all(p["coevent_counts"] == {"phi1": 4, "phi2": 6} for p in doc["points"])
    assert [m["between"] for m in doc["markers"]] == [
        [grid[1], grid[2]], [grid[2], grid[3]],
    ]
    assert all(m["states"] == ["phi1"] for m in doc["markers"])
    assert [f["cell"] for f in doc["flagged_cells"]] == [
        [grid[1], grid[2]], [grid[2], grid[3]],
    ]
    assert all(f["reasons"] == ["tan_theta_one_third"] for f in doc["flagged_cells"])


def test_theta_sweep_clean_window_is_quiet():
    doc = theta_sweep(0.4, 0.6, 11)
    assert doc["sweep"] == {
        "scenario": "appendix-theta", "start": 0.4, "end": 0.6, "steps": 11,
    }
    assert len(doc["points"]) == 11
    assert doc["markers"] == []
    assert doc["flagged_cells"] == []
    for p in doc["points"]:
        assert p["disjoint"]
        assert p["coevent_counts"] == {"phi1": 4, "phi2": 6}
        assert p["zero_counts"] == {"phi1": 2, "phi2": 6}
        assert p["borderline_counts"] == {"phi1": 0, "phi2": 0}


def test_theta_sweep_input_validation():
    with pytest.raises(ValueError, match="steps"):
        theta_sweep(0.0, 1.0, 1)
    with pytest.raises(ValueError, match="end > start"):
        theta_sweep(1.0, 1.0, 3)


@pytest.mark.parametrize("start,end,name", [
    (0.0, math.inf, "end"),
    (-math.inf, 1.0, "start"),
    (math.nan, 1.0, "start"),
    (0.0, math.nan, "end"),
])
def test_theta_sweep_rejects_non_finite_range(start, end, name):
    with pytest.raises(ValueError, match=f"sweep {name} must be a finite number"):
        theta_sweep(start, end, 3)


@pytest.mark.parametrize("start,end,steps", [(-1e308, 1e308, 3), (0.0, 1e308, 3)])
def test_theta_sweep_refuses_an_overflowing_range(monkeypatch, start, end, steps):
    """A finite range whose grid overflows is refused by name, before any
    point is built, not as a non-finite angle."""
    def no_build(*args):
        raise AssertionError("a scenario was built")

    monkeypatch.setattr(scenarios, "build_scenario", no_build)
    with pytest.raises(ValueError, match=re.escape(f"sweep range from {start!r} to {end!r} overflows")):
        theta_sweep(start, end, steps)


def test_theta_sweep_step_cap(monkeypatch):
    """One step over the cap is refused before the grid or any scenario is built."""
    def no_build(*args):
        raise AssertionError("a scenario was built")

    monkeypatch.setattr(scenarios, "build_scenario", no_build)
    with pytest.raises(SpaceTooLargeError, match=f"SWEEP_STEP_LIMIT = {SWEEP_STEP_LIMIT}"):
        theta_sweep(0.0, 1.0, SWEEP_STEP_LIMIT + 1)


def test_flag_reasons_wrap_mod_pi():
    special = math.atan(1.0 / 3.0)
    assert _flag_reasons(special - 1e-6, special + 1e-6) == ["tan_theta_one_third"]
    assert _flag_reasons(special + math.pi - 1e-6, special + math.pi + 1e-6) == [
        "tan_theta_one_third"
    ]
    assert _flag_reasons(-0.01, 0.01) == ["theta_zero"]
    assert _flag_reasons(math.pi - 0.01, math.pi + 0.01) == ["theta_zero"]
    minus = math.atan(-1.0 / 3.0) + math.pi
    assert "tan_theta_minus_one_third" in _flag_reasons(minus - 0.01, minus + 0.01)
    assert _flag_reasons(0.4, 0.6) == []


@pytest.mark.parametrize("name", ALL_NAMES)
def test_run_scenario_reports_are_deterministic(name):
    params = {"theta": 0.7} if name.startswith("appendix") else {}
    first = emit_report(run_scenario(name, params))
    second = emit_report(run_scenario(name, params))
    assert first == second
    doc = json.loads(first.decode("utf-8"))
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["scenario"]["name"] == name


def test_reports_build_no_event(built_events):
    """A shipped report reads masks: run_scenario plus emit_report of every
    scenario, in both formats, builds no Event, checked or bulk."""
    for name in ALL_NAMES:
        doc = run_scenario(name, {"theta": 0.7} if name.startswith("appendix") else {})
        emit_report(doc)
        emit_report(doc, fmt="text")
    assert built_events == {"checked": 0, "bulk": 0}


def test_emit_report_canonical_form():
    doc = {
        "b": 1.0 / 3.0,
        "a": complex(0.25, -0.5),
        "n": np.float64(2.0),
        "i": np.int64(3),
        "neg": -0.0,
        "flag": True,
        "items": [{"z": 1, "y": None}],
    }
    data = emit_report(doc)
    assert data.endswith(b"\n")
    text = data.decode("utf-8")
    assert text.index('"a"') < text.index('"b"') < text.index('"flag"')
    assert "0.333333333333" in text and "0.3333333333333" not in text
    assert json.loads(text)["a"] == [0.25, -0.5]
    assert json.loads(text)["neg"] == 0.0 and "-0.0" not in text
    assert json.loads(text)["i"] == 3
    rendered = emit_report(doc, fmt="text").decode("utf-8")
    assert "a: " not in rendered and "a:" in rendered
    assert rendered.splitlines()[0].startswith("a")
    with pytest.raises(ValueError, match="format"):
        emit_report(doc, fmt="yaml")
    with pytest.raises(TypeError):
        emit_report({"bad": {1, 2}})
    with pytest.raises(ValueError):
        emit_report({"bad": float("nan")})


def test_emit_report_writes_roundoff_as_zero():
    """Residuals on either side of zero at round-off size emit the same bytes."""
    def doc(x):
        return {"residual": x, "pair": complex(x, -x), "values": [x, 1.0 + x]}

    for fmt in ("json", "text"):
        plus, minus = emit_report(doc(5e-17), fmt), emit_report(doc(-5e-17), fmt)
        assert plus == minus == emit_report(doc(0.0), fmt)
        assert b"e-17" not in plus and b"-0.0" not in plus
    assert json.loads(emit_report({"x": 1e-14}))["x"] == 0.0
    assert json.loads(emit_report({"x": -2e-14}))["x"] == -2e-14


@pytest.mark.parametrize("name,params", [
    ("pbr-v2", {}),
    ("appendix-hamiltonian", {"theta": 0.7}),
])
def test_schema_round_trip_preserves_df(name, params):
    build = build_scenario(name, params)
    for entry in build.entries:
        doc = json.loads(json.dumps(schema_to_json(entry.schema)))
        restored = schema_from_json(doc)
        original = build_df(entry.schema)
        rebuilt = build_df(restored)
        assert rebuilt.space.labels == original.space.labels
        np.testing.assert_allclose(rebuilt.matrix, original.matrix, atol=1e-12)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), n_slices=st.integers(1, 3))
def test_schema_json_round_trip_on_random_schemas(seed, dim, n_slices):
    rng = np.random.default_rng(seed)
    slices = []
    for k in range(n_slices):
        kets = list(haar_unitary(rng, dim).T)
        decomposition = ProjectiveDecomposition.from_kets(kets, [f"{k}{i}" for i in range(dim)])
        evolution = haar_unitary(rng, dim) if rng.random() < 0.5 else None
        slices.append(Slice(decomposition, evolution))
    schema = HistorySchema.from_ket(haar_unitary(rng, dim)[:, 0], slices)
    restored = schema_from_json(json.loads(json.dumps(schema_to_json(schema))))
    original, rebuilt = build_df(schema), build_df(restored)
    assert rebuilt.space.labels == original.space.labels
    assert np.max(np.abs(rebuilt.matrix - original.matrix)) <= EPS_DF


def test_schema_to_json_rejects_unserializable():
    from coevent.histories import HistorySchema, Slice
    from coevent.linalg import ProjectiveDecomposition

    rank2 = ProjectiveDecomposition(np.eye(3), (2, 1), ("p", "l"))
    ket = np.array([1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="rank-one"):
        schema_to_json(HistorySchema.from_ket(ket, (Slice(rank2),)))

    from coevent.linalg import computational_basis
    mixed = HistorySchema(np.eye(2) / np.sqrt(2.0), (Slice(computational_basis(2)),))
    with pytest.raises(ValueError, match="pure"):
        schema_to_json(mixed)


def test_schema_from_json_validates_input():
    good = schema_to_json(build_scenario("pbr-v1").entries[0].schema)
    assert schema_from_json(good).dim == 4

    for key in ("dim", "initial", "slices"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(ValueError, match=key):
            schema_from_json(broken)
    with pytest.raises(ValueError, match="JSON object"):
        schema_from_json([1, 2])
    with pytest.raises(ValueError, match="dim"):
        schema_from_json({**good, "dim": 0})
    with pytest.raises(ValueError, match="length"):
        schema_from_json({**good, "dim": 3})
    with pytest.raises(ValueError, match="nonempty"):
        schema_from_json({**good, "slices": []})
    with pytest.raises(ValueError, match="basis"):
        schema_from_json({**good, "slices": [{"labels": ["a"]}]})
    bad_labels = json.loads(json.dumps(good))
    bad_labels["slices"][0]["labels"] = ["only-one"]
    with pytest.raises(ValueError, match="labels"):
        schema_from_json(bad_labels)
    with pytest.raises(ValueError, match="pair"):
        schema_from_json({**good, "initial": [[1.0, "x"]] * 4})
    with pytest.raises(ValueError, match="pair"):
        schema_from_json({**good, "initial": [[1.0]] * 4})


def test_raw_df_from_json_round_trip():
    doc = {
        "entries": [[[0.5, 0.0], [0.0, 0.5]], [[0.0, -0.5], [0.5, 0.0]]],
        "labels": ["u", "v"],
    }
    df = raw_df_from_json(doc)
    assert df.space.labels == ("u", "v")
    np.testing.assert_allclose(
        df.matrix, np.array([[0.5, 0.5j], [-0.5j, 0.5]]), atol=1e-15
    )
    with pytest.raises(ValueError, match="entries"):
        raw_df_from_json({"labels": ["u", "v"]})
    invalid = {"entries": [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]]}
    with pytest.raises(ValidationFailedError) as info:
        raw_df_from_json(invalid)
    assert not info.value.report.passed
