"""Zero-set catalogs and decoherent partitions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevent import (
    Event,
    InvalidPartitionError,
    NotAZeroSetError,
    SpaceTooLargeError,
    find_decoherent_partitions,
    find_zero_sets,
    is_decoherent_partition,
    measure,
    raw_df,
)
from coevent.measure_analysis import (
    _subset_measures,
    iter_set_partitions,
)

from conftest import (
    brute_decoherent_partitions,
    brute_maximal_masks,
    brute_zero_masks,
    scenario_dfs,
    small_scenario_dfs,
    subset_measures_simple,
    unvalidated_raw_df,
)


def test_subset_measures_against_reference():
    rng = np.random.default_rng(61)
    for k in range(1, 9):
        a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        block = a @ np.conjugate(a.T)
        np.testing.assert_allclose(
            _subset_measures(block), subset_measures_simple(block), atol=1e-10
        )


def test_catalog_matches_brute_oracle():
    for name, df in small_scenario_dfs():
        catalog = find_zero_sets(df)
        zeros = brute_zero_masks(df)
        for m in range(1 << df.size):
            assert catalog.is_zero_event(Event(df.space, m)) == (m in zeros), (name, m)
        got_max = {e.mask for e in catalog.maximal_zero_events()}
        assert got_max == set(brute_maximal_masks(zeros)), name


def test_catalog_matches_brute_on_random_dfs():
    from conftest import random_amplitude_df, random_strong_df

    rng = np.random.default_rng(67)
    cases = [random_amplitude_df(rng, int(rng.integers(4, 9))) for _ in range(20)]
    cases += [random_strong_df(rng, int(rng.integers(3, 7))) for _ in range(10)]
    for df in cases:
        catalog = find_zero_sets(df)
        zeros = brute_zero_masks(df)
        assert {e.mask for e in catalog.zero_events_sectorwise()} == zeros - {0}
        assert {e.mask for e in catalog.maximal_zero_events()} == set(
            brute_maximal_masks(zeros)
        )


def test_catalog_counts_and_sectorwise_v2():
    df = scenario_dfs("pbr-v2")["0+"]
    catalog = find_zero_sets(df)
    counts = catalog.counts()
    assert counts["sectors"] == 4
    assert counts["borderline"] == 0
    zeros = brute_zero_masks(df)
    for event in catalog.zero_events_sectorwise():
        assert event.mask in zeros
    for m in range(1 << df.size):
        assert catalog.is_zero_event(Event(df.space, m)) == (m in zeros)


def test_zero_union_and_complement_measures():
    """Cataloged zeros have zero measure and complements of measure one."""
    for name, df in small_scenario_dfs():
        catalog = find_zero_sets(df)
        for event in catalog.maximal_zero_events():
            assert measure(df, event) <= 1e-9, name
            assert measure(df, event.complement()) == pytest.approx(1.0, abs=1e-9), name


def test_nontrivial_zero_listing_appendix(appendix_golden):
    df = scenario_dfs("appendix-theta", theta=0.7)["phi1"]
    catalog = find_zero_sets(df)
    got = {tuple(sorted(e.labels)) for e in catalog.nontrivial_zero_events()}
    state = appendix_golden["cases"]["0.7"]["states"]["phi1"]
    want = {tuple(sorted(z)) for z in state["nontrivial_zero_events"]}
    assert got == want
    got_max = {tuple(sorted(e.labels)) for e in catalog.maximal_zero_events()}
    assert got_max == {tuple(sorted(z)) for z in state["maximal_zero_events"]}


def test_borderline_band():
    df = raw_df(np.diag([1e-8, 1.0 - 1e-8]))
    catalog = find_zero_sets(df)
    assert [e.labels for e in catalog.borderline_events()] == [("h1",)]
    assert catalog.counts()["borderline"] == 1
    assert not catalog.is_zero_event(Event.from_indices(df.space, [0]))


def test_find_zero_sets_refuses_invalid_df():
    broken = unvalidated_raw_df(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(NotAZeroSetError):
        find_zero_sets(broken)


def test_sector_enumeration_limit():
    df = raw_df(np.eye(21) / 21.0)
    with pytest.raises(SpaceTooLargeError, match="SECTOR_ENUMERATION_LIMIT = 20"):
        find_zero_sets(df)


def test_partition_iterator_counts():
    bell = [1, 2, 5, 15, 52, 203]
    for n, want in zip(range(1, 7), bell):
        assert sum(1 for _ in iter_set_partitions(n, n)) == want
    for n in range(2, 7):
        assert sum(1 for _ in iter_set_partitions(n, 2)) == 2 ** (n - 1)
        assert sum(1 for _ in iter_set_partitions(n, 1)) == 1


def test_partition_iterator_matches_reference():
    def reference(n):
        if n == 1:
            return [[[0]]]
        out = []
        for smaller in reference(n - 1):
            for i, cell in enumerate(smaller):
                out.append(smaller[:i] + [cell + [n - 1]] + smaller[i + 1:])
            out.append(smaller + [[n - 1]])
        return out

    for n in range(1, 6):
        got = set()
        for rgs in iter_set_partitions(n, n):
            cells = {}
            for i, b in enumerate(rgs):
                cells.setdefault(b, []).append(i)
            got.add(frozenset(tuple(c) for c in cells.values()))
        want = {
            frozenset(tuple(c) for c in p) for p in reference(n)
        }
        assert got == want


def test_is_decoherent_partition_product_values(composite_golden):
    df = scenario_dfs("composite-product")["D_AB"]
    space = df.space
    anti = [Event.from_labels(space, ["h11", "h22"]), Event.from_labels(space, ["h12", "h21"])]
    fine = [Event(space, 1 << i) for i in range(4)]
    assert is_decoherent_partition(df, anti, "medium").passed
    med = is_decoherent_partition(df, fine, "medium")
    assert not med.passed
    assert med.residual == pytest.approx(0.25, abs=1e-12)
    weak = is_decoherent_partition(df, fine, "weak")
    assert not weak.passed
    assert weak.residual == pytest.approx(
        abs(composite_golden["re_d_h11_h22"]), abs=1e-12
    )
    split = [Event.from_labels(space, ["h11", "h21"]), Event.from_labels(space, ["h12", "h22"])]
    rep = is_decoherent_partition(df, split, "medium")
    assert not rep.passed and rep.residual == pytest.approx(0.5, abs=1e-12)
    assert is_decoherent_partition(df, split, "weak").passed


def test_partition_validation_errors():
    df = scenario_dfs("composite-product")["D_AB"]
    space = df.space
    good = [Event.from_labels(space, ["h11", "h22"]), Event.from_labels(space, ["h12", "h21"])]
    with pytest.raises(ValueError):
        is_decoherent_partition(df, good, "strong")
    with pytest.raises(InvalidPartitionError):
        is_decoherent_partition(df, good[:1], "medium")
    with pytest.raises(InvalidPartitionError):
        is_decoherent_partition(df, good + [Event(space, 0)], "medium")
    overlap = [Event.from_labels(space, ["h11", "h12", "h21"]), good[0]]
    with pytest.raises(InvalidPartitionError):
        is_decoherent_partition(df, overlap, "weak")
    with pytest.raises(ValueError):
        find_decoherent_partitions(df, "medium", max_cells=0)


def test_find_decoherent_partitions_composite(composite_golden):
    dfs = scenario_dfs("composite-product")
    med = find_decoherent_partitions(dfs["D_AB"], "medium", max_cells=4)
    got = [sorted(tuple(sorted(c)) for c in rep.cell_labels()) for rep in med]
    trivial = [("h11", "h12", "h21", "h22")]
    anti = sorted(tuple(sorted(c)) for c in composite_golden["medium_partition_cells"])
    assert got == [trivial, anti]
    weak = find_decoherent_partitions(dfs["D_AB"], "weak", max_cells=4)
    assert len(weak) == 4
    med_cells = {frozenset(tuple(sorted(c)) for c in rep.cell_labels()) for rep in med}
    weak_cells = {frozenset(tuple(sorted(c)) for c in rep.cell_labels()) for rep in weak}
    assert med_cells <= weak_cells

    sub_med = find_decoherent_partitions(dfs["D_A"], "medium", max_cells=2)
    assert [rep.cell_labels() for rep in sub_med] == [[["h1", "h2"]]]
    sub_weak = find_decoherent_partitions(dfs["D_A"], "weak", max_cells=2)
    assert [rep.cell_labels() for rep in sub_weak] == [[["h1", "h2"]], [["h1"], ["h2"]]]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.sampled_from(["medium", "weak"]),
       st.integers(1, 7))
def test_partition_search_matches_direct_sums(seed, n, mode, max_cells):
    """The batched cell-matrix search finds the partitions a loop over every
    partition with direct submatrix sums finds, in the same order."""
    from conftest import random_amplitude_df

    df = random_amplitude_df(np.random.default_rng(seed), n)
    got = find_decoherent_partitions(df, mode, max_cells)
    want = brute_decoherent_partitions(df, mode, max_cells)
    assert [[c.mask for c in rep.cells] for rep in got] == [cells for cells, _ in want]
    for rep, (_, residual) in zip(got, want):
        assert rep.passed and rep.mode == mode
        assert rep.residual == pytest.approx(residual, abs=1e-12)


def test_weak_contains_medium_appendix():
    df = scenario_dfs("appendix-theta", theta=0.7)["phi1"]
    med = find_decoherent_partitions(df, "medium", max_cells=4)
    weak = find_decoherent_partitions(df, "weak", max_cells=4)
    med_set = {frozenset(tuple(sorted(c)) for c in rep.cell_labels()) for rep in med}
    weak_set = {frozenset(tuple(sorted(c)) for c in rep.cell_labels()) for rep in weak}
    assert med_set <= weak_set


def test_classical_df_decoheres_everywhere():
    df = raw_df(np.diag([0.4, 0.3, 0.2, 0.1]))
    reps = find_decoherent_partitions(df, "medium", max_cells=4)
    assert len(reps) == 15
    assert all(rep.residual <= 1e-12 for rep in reps)


def test_partition_search_guard():
    df = raw_df(np.eye(17) / 17.0)
    with pytest.raises(SpaceTooLargeError):
        find_decoherent_partitions(df, "medium", max_cells=2)
