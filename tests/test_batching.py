"""Batched DF construction, batched zero-set search and the theta sweep's
co-event memo against their one-at-a-time references."""

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
from coevent import coevents, histories, measure_analysis, scenarios
from coevent.coevents import _primitive_masks
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
    schema.  Sometimes a schema of another state rank is added, a group of
    its own."""
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
    assert len({id(df.space) for df in batch}) == len({s.state.shape for s in schemas})


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


@pytest.mark.parametrize("start,end,steps", [
    (-1.6, 1.6, 400),
    (-math.atan(1.0 / 3.0), math.atan(1.0 / 3.0), 61),
])
def test_theta_sweep_equals_the_point_by_point_reference(monkeypatch, start, end, steps):
    """A grid crossing atan(-1/3), 0 and atan(1/3) (the second one with
    points on the first and last), in chunks of 7 points (no multiple of
    the grid) as in one: the points equal the reference loop, and MMCS runs
    once per distinct (sector, maximal masks) key, not per DF and sector."""
    want = reference_points(start, end, steps)
    calls = []
    original = coevents._minimal_preclusive_masks

    def counted(sector, maximal, found=None):
        calls.append((sector, maximal))
        return original(sector, maximal, found)

    monkeypatch.setattr(coevents, "_minimal_preclusive_masks", counted)
    whole = theta_sweep(start, end, steps)
    assert whole["points"] == want
    assert len(calls) == len(set(calls)) <= 12
    monkeypatch.setattr(scenarios, "_SWEEP_CHUNK", 7)
    assert theta_sweep(start, end, steps) == whole


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
def test_memoized_coevents_refuse_like_mmcs(monkeypatch, cap):
    """phi2's 6 co-events, 3 a sector: under a patched COEVENT_COUNT_LIMIT
    the memo, filled before the patch, refuses with MMCS's own message."""
    df = build_df(build_scenario("appendix-theta", {"theta": 0.5}).entries[1].schema)
    catalog = find_zero_sets(df)
    memo = {}
    assert len(_primitive_masks(catalog, memo)) == 6 and len(memo) == 2
    monkeypatch.setattr(limits, "COEVENT_COUNT_LIMIT", cap)
    with pytest.raises(SpaceTooLargeError) as fresh:
        enumerate_primitive_coevents(df, catalog)
    with pytest.raises(SpaceTooLargeError) as memoized:
        _primitive_masks(catalog, memo)
    assert str(memoized.value) == str(fresh.value) == (
        f"co-event search found {cap + 1} primitive co-events, "
        f"above COEVENT_COUNT_LIMIT = {cap}")


def test_theta_sweep_refuses_from_its_memo(monkeypatch):
    """The cap lowered to 5 once the first point's four sectors have run
    through MMCS: the next point's co-events all come from the memo, and
    phi2's 6 are refused with the message MMCS gives under that cap."""
    original = coevents._minimal_preclusive_masks
    calls = []

    def lower_after_four(sector, maximal, found=None):
        out = original(sector, maximal, found)
        calls.append(sector)
        if len(calls) == 4:
            monkeypatch.setattr(limits, "COEVENT_COUNT_LIMIT", 5)
        return out

    monkeypatch.setattr(coevents, "_minimal_preclusive_masks", lower_after_four)
    with pytest.raises(SpaceTooLargeError) as info:
        theta_sweep(0.4, 0.6, 3)
    assert len(calls) == 4
    assert str(info.value) == ("co-event search found 6 primitive co-events, "
                               "above COEVENT_COUNT_LIMIT = 5")
