"""Batched DF construction, batched zero-set search and the theta sweep's
co-events against their one-at-a-time references."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevent import (
    HistorySchema,
    ProjectiveDecomposition,
    Slice,
    SpaceTooLargeError,
    build_df,
    build_scenario,
    enumerate_primitive_coevents,
    find_zero_sets,
    limits,
    theta_sweep,
)
from coevent import histories, measure_analysis, scenarios
from coevent.histories import build_dfs
from coevent.measure_analysis import find_zero_set_catalogs

from conftest import brute_block_residual


def haar(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@st.composite
def schema_groups(draw):
    """1 to 5 schemas of one slice structure: dimension 2..4, 1..3 slices
    with drawn outcome ranks (rank 2 and above included), each schema with
    its own Haar bases and, slice by slice, an evolution or none, from a ket
    (r = 1) or a density factor of rank r; some share a slice with the first
    schema.  Sometimes a schema of another state rank is added, a build
    group of its own over the same space."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 4))
    structure = []
    for _ in range(draw(st.integers(1, 3))):
        cuts = sorted(draw(st.sets(st.integers(1, d - 1), max_size=d - 1)))
        ranks = tuple(np.diff([0, *cuts, d]).tolist())
        structure.append((ranks, tuple(f"o{i}" for i in range(len(ranks)))))

    def schema(r, shared=None):
        slices = []
        for j, (ranks, labels) in enumerate(structure):
            if shared is not None and draw(st.booleans()):
                slices.append(shared.slices[j])
                continue
            evolution = haar(rng, d) if draw(st.booleans()) else None
            slices.append(Slice(ProjectiveDecomposition(haar(rng, d), ranks, labels), evolution))
        state = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        return HistorySchema(state / np.linalg.norm(state), tuple(slices))

    r = draw(st.integers(1, d))
    first = schema(r)
    group = [first] + [schema(r, first) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        group.insert(draw(st.integers(0, len(group))), schema(r % d + 1))
    return group, draw(st.sampled_from([1, 2, 3, None]))


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(schema_groups())
def test_batched_builds_and_searches_equal_one_at_a_time(case):
    """Factors, reports and catalogs of a batch equal one-at-a-time builds
    and searches bit for bit, also in chunks of 1, 2 or 3 DFs (a group of up
    to 5 is then more than one chunk and, for most sizes, not a multiple of
    one) and zero-set groups cut to those chunks."""
    schemas, chunk = case
    alone = [build_df(s) for s in schemas]
    catalogs = [find_zero_sets(df) for df in alone]
    step = histories._STEP_ENTRIES
    if chunk is not None:
        d, r = schemas[0].state.shape
        step = chunk * alone[0].size * r * d
    with mock.patch.object(histories, "_STEP_ENTRIES", step):
        batch = build_dfs(schemas)
    with mock.patch.object(measure_analysis, "_STEP_ENTRIES", step):
        found = find_zero_set_catalogs(batch)
    for df, one, catalog, got in zip(batch, alone, catalogs, found):
        assert df.space.labels == one.space.labels and df.space.sectors == one.space.sectors
        assert_same_bits(df.factor, one.factor)
        assert df.validation == one.validation
        assert got.df is df and got.sectors == catalog.sectors
    # The group's slices share their outcome labels, so every DF has one space.
    assert len({id(df.space) for df in batch}) == 1


def test_the_exact_max_choice_reads_the_item_not_the_group(monkeypatch):
    """With _EXACT_ENTRIES just above an appendix-theta item's n^2 r d, the
    item takes the exact max alone and in a group of 4 in chunks of 1, 2 or
    4: the choice reads the item's n and c only, and the dense max agrees."""
    schemas = [entry.schema for theta in (0.3, 0.7)
               for entry in build_scenario("appendix-theta", {"theta": theta}).entries]
    monkeypatch.setattr(histories, "_EXACT_ENTRIES", 8 ** 2 * 2 + 1)
    alone = [build_df(s) for s in schemas]
    assert [df.validation.block_residual for df in alone] == list(map(brute_block_residual, alone))
    for chunk in (1, 2, 4):
        with mock.patch.object(histories, "_STEP_ENTRIES", chunk * 8 * 2):
            assert [df.validation for df in build_dfs(schemas)] == [df.validation for df in alone]


def reference_points(start: float, end: float, steps: int) -> list[dict]:
    """theta_sweep's points, one grid point and one DF at a time."""
    points = []
    for i in range(steps):
        theta = start + (end - start) * i / (steps - 1)
        counts, zero_counts, borderline_counts, sets = {}, {}, {}, []
        for entry in build_scenario("appendix-theta", {"theta": theta}).entries:
            df = build_df(entry.schema)
            catalog = find_zero_sets(df)
            found = enumerate_primitive_coevents(df, catalog, label=entry.label)
            counts[entry.label] = len(found)
            zero_counts[entry.label] = catalog.counts()["zero_sectorwise"]
            borderline_counts[entry.label] = catalog.counts()["borderline"]
            sets.append({c.mask for c in found})
        points.append({"theta": theta, "disjoint": not sets[0] & sets[1],
                       "coevent_counts": counts, "zero_counts": zero_counts,
                       "borderline_counts": borderline_counts})
    return points


def spy_on_mmcs(monkeypatch) -> list:
    """The (sector, maximal masks) of every MMCS run from now on."""
    calls = []
    original = measure_analysis._minimal_preclusive_masks

    def counted(sector, maximal):
        calls.append((sector, maximal))
        return original(sector, maximal)

    monkeypatch.setattr(measure_analysis, "_minimal_preclusive_masks", counted)
    return calls


@pytest.mark.parametrize("start,end,steps", [
    (-1.6, 1.6, 400),
    (-math.atan(1.0 / 3.0), math.atan(1.0 / 3.0), 61),
])
def test_theta_sweep_equals_the_point_by_point_reference(monkeypatch, start, end, steps):
    """A grid crossing atan(-1/3), 0 and atan(1/3) (the second one with
    points on the first and last), in chunks of 7 points (no multiple of
    the grid) as in one: the points equal the reference loop, and MMCS
    never runs, as every sector's co-events come from its zero-set search."""
    want = reference_points(start, end, steps)
    calls = spy_on_mmcs(monkeypatch)
    whole = theta_sweep(start, end, steps)
    assert whole["points"] == want
    monkeypatch.setattr(scenarios, "_SWEEP_CHUNK", 7)
    assert theta_sweep(start, end, steps) == whole
    assert calls == []


def test_shipped_scenarios_and_long_sweeps_never_run_mmcs(monkeypatch):
    """Every shipped scenario and a sweep of SWEEP_STEP_LIMIT steps take
    their co-events from the zero-set search's tables alone."""
    calls = spy_on_mmcs(monkeypatch)
    for name in scenarios.scenario_names():
        needs = scenarios.SCENARIOS[name]["required"]
        for theta in (0.0, math.atan(1.0 / 3.0), 0.7):
            assert scenarios.run_scenario(name, {p: theta for p in needs})["entries"]
    assert len(theta_sweep(-1.6, 1.6, limits.SWEEP_STEP_LIMIT)["points"]) == 10_000
    assert calls == []


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
def test_memoized_coevents_refuse_like_mmcs(monkeypatch, cap):
    """phi2's 6 co-events, 3 a sector, listed by its zero-set search, and
    the same ones when the grid join forces MMCS to run: under a patched
    COEVENT_COUNT_LIMIT both catalogs are refused inside find_zero_sets,
    with one message."""
    df = build_df(build_scenario("appendix-theta", {"theta": 0.5}).entries[1].schema)
    catalog = find_zero_sets(df)
    assert [len(s.primitive_masks) for s in catalog.sectors] == [3, 3]
    calls = spy_on_mmcs(monkeypatch)
    with mock.patch.object(measure_analysis, "_ALL_PAIRS_MAX", 0):
        joined = find_zero_sets(df)
    assert [s.primitive_masks for s in joined.sectors] == [s.primitive_masks
                                                         for s in catalog.sectors]
    assert len(calls) == 2
    monkeypatch.setattr(limits, "COEVENT_COUNT_LIMIT", cap)
    with pytest.raises(SpaceTooLargeError) as table:
        find_zero_sets(df)
    assert len(calls) == 2
    with mock.patch.object(measure_analysis, "_ALL_PAIRS_MAX", 0):
        with pytest.raises(SpaceTooLargeError) as mmcs:
            find_zero_sets(df)
    assert len(calls) > 2
    assert str(table.value) == str(mmcs.value) == (
        f"co-event search found {cap + 1} primitive co-events, "
        f"above COEVENT_COUNT_LIMIT = {cap}")


def test_theta_sweep_refuses_from_its_memo(monkeypatch):
    """A sweep whose phi2 has 6 co-events a point is refused at a cap of 5,
    with MMCS's message, from the tables of its zero-set search; a cap of 6
    lets it through."""
    calls = spy_on_mmcs(monkeypatch)
    monkeypatch.setattr(limits, "COEVENT_COUNT_LIMIT", 5)
    with pytest.raises(SpaceTooLargeError) as info:
        theta_sweep(0.4, 0.6, 3)
    assert str(info.value) == ("co-event search found 6 primitive co-events, "
                               "above COEVENT_COUNT_LIMIT = 5")
    monkeypatch.setattr(limits, "COEVENT_COUNT_LIMIT", 6)
    assert [p["coevent_counts"]["phi2"] for p in theta_sweep(0.4, 0.6, 3)["points"]] == [6] * 3
    assert calls == []
