"""Multiplicative co-events: enumeration and comparison across states."""

from __future__ import annotations

import warnings
from itertools import combinations

import numpy as np
import pytest

from coevent import (
    LabelMismatchError,
    SpaceTooLargeError,
    distinguishability_report,
    enumerate_primitive_coevents,
    find_zero_sets,
    raw_df,
)

from conftest import (
    THETA_SPECIAL,
    brute_primitive_masks,
    brute_zero_masks,
    random_amplitude_df,
    scenario_dfs,
    small_scenario_dfs,
    support_set,
)


def test_enumeration_matches_brute_on_scenarios():
    for name, df in small_scenario_dfs():
        got = [c.support.mask for c in enumerate_primitive_coevents(df)]
        assert got == brute_primitive_masks(df), name


def test_enumeration_matches_brute_on_random_dfs():
    rng = np.random.default_rng(73)
    for _ in range(50):
        df = random_amplitude_df(rng, int(rng.integers(4, 9)))
        cset = enumerate_primitive_coevents(df)
        assert [c.support.mask for c in cset] == brute_primitive_masks(df)
        for c in cset:
            assert c.classical == (len(c.support) == 1)


def test_enumeration_order_is_by_size_then_indices():
    df = scenario_dfs("appendix-theta", theta=THETA_SPECIAL)["phi1"]
    cset = enumerate_primitive_coevents(df)
    keys = [(len(c.support), c.support.indices) for c in cset]
    assert keys == sorted(keys)


def test_classical_collapse_without_interference():
    df = raw_df(np.diag([0.4, 0.3, 0.2, 0.1]))
    cset = enumerate_primitive_coevents(df)
    assert [list(c.support.labels) for c in cset] == [["h1"], ["h2"], ["h3"], ["h4"]]
    assert all(c.classical for c in cset)


def test_v1_coevents_match_golden(pbr_v1_golden):
    for label, df in scenario_dfs("pbr-v1").items():
        cset = enumerate_primitive_coevents(df, label=label)
        want = support_set(pbr_v1_golden["states"][label]["coevents"])
        assert support_set(cset.support_labels()) == want


def test_v2_coevents_preclusive_and_minimal(pbr_v2_golden):
    """Sector enumeration agrees with the golden file and the global oracle."""
    df = scenario_dfs("pbr-v2")["0+"]
    cset = enumerate_primitive_coevents(df, label="0+")
    assert support_set(cset.support_labels()) == support_set(
        pbr_v2_golden["states"]["0+"]["coevents"]
    )
    zeros = brute_zero_masks(df)
    for c in cset:
        m = c.support.mask
        assert not any(m & ~z == 0 for z in zeros)
        for i in c.support.indices:
            drop = m & ~(1 << i)
            assert drop == 0 or any(drop & ~z == 0 for z in zeros)


def test_global_fallback_warns_and_caps():
    """Unsectored DFs: no slow-search warning, and the only cap is the zero-set one."""
    df = raw_df(np.diag(np.full(13, 1.0 / 13.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cset = enumerate_primitive_coevents(df)
    assert cset.support_labels() == [[lab] for lab in df.space.labels]
    df32 = raw_df(np.diag(np.full(32, 1.0 / 32.0)))
    with pytest.raises(SpaceTooLargeError, match="ZERO_SET_WORK_LIMIT"):
        enumerate_primitive_coevents(df32)


def test_intersection_at_special_angle(appendix_golden):
    dfs = scenario_dfs("appendix-theta", theta=THETA_SPECIAL)
    sets = [enumerate_primitive_coevents(df, label=lab) for lab, df in dfs.items()]
    shared = distinguishability_report(sets)["intersection"]
    want = support_set(appendix_golden["cases"]["atan13"]["intersection"])
    assert support_set(shared) == want
    assert want  # the whole point of this angle: the intersection is nonempty


def test_intersection_errors():
    with pytest.raises(ValueError):
        distinguishability_report([])
    v1 = scenario_dfs("pbr-v1")["00"]
    sub = scenario_dfs("composite-product")["D_A"]
    sets = [
        enumerate_primitive_coevents(v1, label="a"),
        enumerate_primitive_coevents(sub, label="b"),
    ]
    with pytest.raises(LabelMismatchError, match="different history label sets"):
        distinguishability_report(sets)


def test_enumeration_refuses_a_catalog_of_another_df():
    """A catalog of another DF would drop histories or invent co-events; it
    is refused, while the DF's own catalog gives what a fresh one gives."""
    df = raw_df(np.eye(3) / 3)
    with pytest.raises(ValueError, match="another decoherence functional"):
        enumerate_primitive_coevents(df, find_zero_sets(raw_df(np.eye(2) / 2)))
    own = enumerate_primitive_coevents(df, find_zero_sets(df))
    assert own.support_labels() == [["h1"], ["h2"], ["h3"]]
    assert own.support_labels() == enumerate_primitive_coevents(df).support_labels()


def test_distinguishability_report_v1(pbr_v1_golden):
    dfs = scenario_dfs("pbr-v1")
    sets = [enumerate_primitive_coevents(df, label=lab) for lab, df in dfs.items()]
    report = distinguishability_report(sets)
    assert set(report) == {"intersection", "pairwise_shared", "admissibility"}
    assert report["intersection"] == []
    assert set(report["pairwise_shared"]) == {f"{a}&{b}" for a, b in combinations(dfs, 2)}
    for pair, shared in report["pairwise_shared"].items():
        assert len(shared) == 2, pair
        assert all(len(s) == 1 for s in shared)
    # each state is inadmissible exactly at the xi outcome it is orthogonal to
    blocked = {"00": "xi1", "0+": "xi2", "+0": "xi3", "++": "xi4"}
    assert set(report["admissibility"]) == {"xi1", "xi2", "xi3", "xi4"}
    for outcome, row in report["admissibility"].items():
        assert list(row) == list(dfs)
        for state, ok in row.items():
            assert ok == (blocked[state] != outcome)


def test_distinguishability_report_errors():
    dfs = scenario_dfs("pbr-v1")
    one = enumerate_primitive_coevents(dfs["00"], label="00")
    with pytest.raises(ValueError):
        distinguishability_report([one])
    dup = enumerate_primitive_coevents(dfs["0+"], label="00")
    with pytest.raises(LabelMismatchError):
        distinguishability_report([one, dup])
