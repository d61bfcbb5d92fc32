"""Multiplicative co-events: evaluation, preclusivity, enumeration."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from coevent import (
    CoEvent,
    EmptySupportError,
    Event,
    LabelMismatchError,
    SpaceTooLargeError,
    distinguishability_report,
    enumerate_primitive_coevents,
    evaluate,
    find_zero_sets,
    intersect_coevent_sets,
    is_preclusive,
    raw_df,
)
from coevent.histories import raw_space

from conftest import (
    THETA_SPECIAL,
    brute_primitive_masks,
    brute_zero_masks,
    random_amplitude_df,
    scenario_dfs,
    small_scenario_dfs,
    support_set,
)


def test_evaluate_exhaustive_truth_table():
    space = raw_space(["h1", "h2", "h3", "h4"])
    c = CoEvent(support=Event(space, 0b0101), classical=False)
    for m in range(16):
        assert evaluate(c, Event(space, m)) == (0b0101 & ~m == 0)
    # multiplicativity over every pair of events
    for m in range(16):
        for k in range(16):
            both = evaluate(c, Event(space, m)) and evaluate(c, Event(space, k))
            assert evaluate(c, Event(space, m & k)) == both


def test_evaluate_multiplicative_random():
    space = raw_space([f"h{i}" for i in range(10)])
    rng = np.random.default_rng(71)
    for _ in range(300):
        support = int(rng.integers(1, 1 << 10))
        c = CoEvent(support=Event(space, support), classical=False)
        e = Event(space, int(rng.integers(0, 1 << 10)))
        f = Event(space, int(rng.integers(0, 1 << 10)))
        assert evaluate(c, e.intersection(f)) == (evaluate(c, e) and evaluate(c, f))


def test_evaluate_rejects_foreign_space():
    c = CoEvent(support=Event(raw_space(["h1", "h2"]), 0b01), classical=True)
    with pytest.raises(LabelMismatchError):
        evaluate(c, Event(raw_space(["a", "b"]), 0b01))


def test_is_preclusive_matches_brute():
    for name, df in small_scenario_dfs():
        catalog = find_zero_sets(df)
        zeros = brute_zero_masks(df)
        for m in range(1, 1 << df.size):
            want = not any(m & ~z == 0 for z in zeros)
            assert is_preclusive(Event(df.space, m), catalog) == want, (name, m)


def test_is_preclusive_rejects_empty_support():
    df = scenario_dfs("pbr-v1")["00"]
    with pytest.raises(EmptySupportError):
        is_preclusive(Event(df.space, 0), find_zero_sets(df))


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
    assert cset.support_labels() == [[lab] for lab in df.labels]
    df21 = raw_df(np.diag(np.full(21, 1.0 / 21.0)))
    with pytest.raises(SpaceTooLargeError, match="SECTOR_ENUMERATION_LIMIT"):
        enumerate_primitive_coevents(df21)


def test_intersection_at_special_angle(appendix_golden):
    dfs = scenario_dfs("appendix-theta", theta=THETA_SPECIAL)
    sets = [enumerate_primitive_coevents(df, label=lab) for lab, df in dfs.items()]
    shared = intersect_coevent_sets(sets)
    want = support_set(appendix_golden["cases"]["atan13"]["intersection"])
    assert support_set([list(e.labels) for e in shared]) == want
    assert want  # the whole point of this angle: the intersection is nonempty


def test_intersection_errors():
    with pytest.raises(ValueError):
        intersect_coevent_sets([])
    v1 = scenario_dfs("pbr-v1")["00"]
    sub = scenario_dfs("composite-product")["D_A"]
    sets = [
        enumerate_primitive_coevents(v1, label="a"),
        enumerate_primitive_coevents(sub, label="b"),
    ]
    with pytest.raises(LabelMismatchError):
        intersect_coevent_sets(sets)


def test_distinguishability_report_v1(pbr_v1_golden):
    dfs = scenario_dfs("pbr-v1")
    sets = [enumerate_primitive_coevents(df, label=lab) for lab, df in dfs.items()]
    report = distinguishability_report(sets)
    assert report.labels == tuple(dfs)
    assert report.common == []
    for pair, shared in report.pairwise.items():
        assert len(shared) == 2, pair
        assert all(len(s) == 1 for s in shared)
    # each state is inadmissible exactly at the xi outcome it is orthogonal to
    blocked = {"00": "xi1", "0+": "xi2", "+0": "xi3", "++": "xi4"}
    for outcome, row in report.admissibility.items():
        for state, ok in row.items():
            assert ok == (blocked[state] != outcome)
    doc = report.as_dict()
    assert "00&0+" in doc["pairwise"]
    assert set(doc["admissibility"]) == {"xi1", "xi2", "xi3", "xi4"}


def test_distinguishability_report_errors():
    dfs = scenario_dfs("pbr-v1")
    one = enumerate_primitive_coevents(dfs["00"], label="00")
    with pytest.raises(ValueError):
        distinguishability_report([one])
    dup = enumerate_primitive_coevents(dfs["0+"], label="00")
    with pytest.raises(LabelMismatchError):
        distinguishability_report([one, dup])
