"""Zero-set catalogs and decoherent partitions."""

from __future__ import annotations

import operator
import time
from itertools import product
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevent import (
    DecoherenceFunctional,
    Event,
    HistorySchema,
    ProjectiveDecomposition,
    Slice,
    SpaceTooLargeError,
    ValidationFailedError,
    build_df,
    build_theta_bases,
    computational_basis,
    find_decoherent_partitions,
    find_zero_sets,
    measure,
    raw_df,
)
from coevent import measure_analysis
from coevent.histories import HistorySpace, ValidationReport, _made, raw_space, sort_masks
from coevent.measure_analysis import _band, _group_measures, _spreader, set_partition_strings
from coevent.tolerances import BORDERLINE_MAX, EPS_DF, EPS_ZERO

from conftest import (
    brute_decoherent_partitions,
    brute_maximal_masks,
    brute_measures,
    brute_partition_residual,
    brute_zero_masks,
    complement,
    is_zero_event,
    label_mask,
    scenario_dfs,
    small_scenario_dfs,
    spread_bits,
    subset_measures_simple,
)


def all_measures(rows: np.ndarray) -> np.ndarray:
    """The measures of every mask of ``rows``, in mask order, by
    _group_measures on a group of one sector."""
    mu = _group_measures(rows[None])
    assert mu.shape == (1, 1 << len(rows))
    return mu[0]


def test_measures_against_reference():
    """The direct half-sum measures over k x c factor rows, with both
    halves nonempty from k = 2, against direct submatrix sums of the Gram
    block, for c below, equal to and above k."""
    rng = np.random.default_rng(61)
    for k in range(0, 11):
        for c in sorted({max(1, k - 2), max(1, k), k + 3}):
            rows = rng.normal(size=(k, c)) + 1j * rng.normal(size=(k, c))
            np.testing.assert_allclose(
                all_measures(rows), subset_measures_simple(np.conjugate(rows) @ rows.T),
                atol=1e-10,
            )


def test_measures_exact_where_the_catalog_needs_it():
    """What find_zero_sets relies on, at k = 11..20 with a null row in
    each: the empty mask is exactly 0.0, each single history exactly its
    row's squared norm (the sum of squares of its real view, in column
    order), and sampled masks agree with a direct |sum_{i in S} V_i|^2.
    The grid join's candidates, the empty mask among them, carry the very
    measures that every pair gets, one formula for both sources."""
    rng = np.random.default_rng(89)
    for k in range(11, 21):
        c = int(rng.integers(1, 7))
        rows = (rng.normal(size=(k, c)) + 1j * rng.normal(size=(k, c))) * rng.uniform(1e-5, 1.0)
        rows[rng.integers(k)] = 0.0
        vals = all_measures(rows)
        assert vals.shape == (1 << k,) and vals[0] == 0.0
        real = rows.view(np.float64)
        assert [vals[1 << i] for i in range(k)] == [sum((r * r).tolist()) for r in real]
        scale = k * float((real * real).sum())
        for m in rng.integers(0, 1 << k, size=64).tolist():
            total = rows[[i for i in range(k) if m >> i & 1]].sum(axis=0)
            assert vals[m] == pytest.approx(np.vdot(total, total).real, rel=0, abs=1e-13 * scale)
        masks, mu = _band(rows, np.inf)
        assert 0 in masks.tolist() and (mu == vals[masks]).all()


def test_catalog_matches_brute_oracle():
    for name, df in small_scenario_dfs():
        catalog = find_zero_sets(df)
        zeros = brute_zero_masks(df)
        for m in range(1 << df.size):
            assert is_zero_event(catalog, m) == (m in zeros), (name, m)
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
        want = [m for _, sector in df.sectors()
                for m in sort_masks([z for z in zeros if z and z & ~sector == 0], df.size)]
        assert [e.mask for e in catalog.zero_events_sectorwise()] == want
        assert {e.mask for e in catalog.maximal_zero_events()} == set(
            brute_maximal_masks(zeros)
        )


def planted_df(rng: np.random.Generator, n: int) -> DecoherenceFunctional:
    """A raw DF over one block of n histories with planted cancellations,
    null histories and, from the amplitudes of size 3e-4, measures near the
    borderline band: each history has one amplitude from a collision-prone
    set in one of a few hidden columns of the factor.

    Half the time a cancelling group of 2m histories (m up to 3) gets +s and
    -s in one column, s^2 between 0.3 and 0.95 EPS_ZERO of the total: each is
    null, a same-sign pair is above EPS_ZERO and m >= 2 makes zero events
    of null histories whose subsets are not all null.
    """
    base = np.array([1.0, -1.0, 0.5, -0.5, 0.0, 1j, -1j, 3e-4, -3e-4j])
    cols = max(2, n // 3)
    while True:
        factor = np.zeros((n, cols), dtype=complex)
        factor[np.arange(n), rng.integers(0, cols, size=n)] = (
            rng.choice(base, size=n) * (0.5 + rng.random()))
        if n >= 2 and rng.random() < 0.5:
            m = int(rng.integers(1, min(3, n // 2) + 1))
            group = rng.choice(n, size=2 * m, replace=False)
            factor[group] = 0.0
            total = float(np.vdot(factor.sum(axis=0), factor.sum(axis=0)).real)
            s = np.sqrt(rng.uniform(0.3, 0.95) * EPS_ZERO * total)
            factor[group, rng.integers(0, cols)] = np.repeat([s, -s], m)
        gram = np.conjugate(factor) @ factor.T
        total = float(gram.real.sum())
        if total > 1e-6:
            return raw_df(gram / total)


def assert_lists_match_scan(df: DecoherenceFunctional, size: np.ndarray) -> None:
    """Every list of the one-block catalog of ``df`` equals the one read off
    ``size``, the direct scan's |mu| of every mask, in canonical order (by
    size, then by member indices)."""
    n = df.size

    def canonical(found, reverse=False):
        return sorted(found, key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1]),
                      reverse=reverse)

    # inside[m]: some subset of m, m included, has positive measure.
    inside = size > EPS_ZERO
    for i in range(n):
        with_bit = np.flatnonzero(np.arange(1 << n) >> i & 1)
        inside[with_bit] |= inside[with_bit ^ (1 << i)]
    zeros = set(np.flatnonzero(size <= EPS_ZERO).tolist())
    catalog = find_zero_sets(df)
    assert [s.label for s in catalog.sectors] == ["all"]
    assert [e.mask for e in catalog.zero_events_sectorwise()] == canonical(zeros - {0})
    assert [e.mask for e in catalog.nontrivial_zero_events()] == canonical(
        m for m in zeros if m.bit_count() >= 2
        and any(inside[m ^ (1 << i)] for i in range(n) if m >> i & 1))
    assert list(catalog.sectors[0].borderline_masks) == canonical(
        np.flatnonzero((size > EPS_ZERO) & (size <= BORDERLINE_MAX)).tolist())
    assert list(catalog.sectors[0].maximal_masks) == canonical(
        brute_maximal_masks(zeros), reverse=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_zero_set_lists_match_direct_scan(seed, n):
    """Every list of the one-block catalog equals the direct scan's, in
    canonical order; the half sums have both halves nonempty from two
    histories on, at odd and even widths."""
    df = planted_df(np.random.default_rng(seed), n)
    assert_lists_match_scan(df, np.abs(brute_measures(df)))


def chunked_measures(df: DecoherenceFunctional) -> np.ndarray:
    """mu of every event by direct sums over the matrix, as brute_measures
    takes them, 2^14 masks at a time."""
    n = df.size
    gram = np.real(df.matrix)
    out = np.empty(1 << n)
    for start in range(0, 1 << n, 1 << 14):
        masks = np.arange(start, min(start + (1 << 14), 1 << n))
        members = (masks[:, None] >> np.arange(n) & 1).astype(float)
        out[masks] = ((members @ gram) * members).sum(axis=1)
    return out


@pytest.mark.parametrize("n", range(1, 21))
def test_zero_set_lists_across_the_crossover(monkeypatch, n):
    """At n = 1..20 both candidate sources, every pair and the grid join of
    the half sums, give the direct scan's lists, in order: the catalog's own
    choice (every pair up to _ALL_PAIRS_MAX entries) and each source forced."""
    df = planted_df(np.random.default_rng(1000 + n), n)
    size = np.abs(chunked_measures(df))
    assert_lists_match_scan(df, size)
    for all_pairs_max in (0, 1 << 30):
        monkeypatch.setattr(measure_analysis, "_ALL_PAIRS_MAX", all_pairs_max)
        assert_lists_match_scan(df, size)


def test_nontrivial_zero_events_at_the_tolerance_edge():
    """Null histories whose same-sign pairs sum above EPS_ZERO: rows s, s,
    -s, -s with s^2 = 0.9e-9, plus one unit row.  Every zero event of three
    or four of them holds a pair {h1, h2} or {h3, h4} of measure 3.6e-9, so
    it is nontrivial although all its members are null; the cancelling
    pairs {h_i, h_j} hold only null singletons and stay trivial."""
    s = np.sqrt(0.9e-9)
    factor = np.array([[s, 0.0], [s, 0.0], [-s, 0.0], [-s, 0.0], [0.0, 1.0]])
    catalog = find_zero_sets(raw_df(factor @ factor.T))
    zero = [e.labels for e in catalog.zero_events_sectorwise()]
    assert zero[4:] == [("h1", "h3"), ("h1", "h4"), ("h2", "h3"), ("h2", "h4"),
                        ("h1", "h2", "h3"), ("h1", "h2", "h4"), ("h1", "h3", "h4"),
                        ("h2", "h3", "h4"), ("h1", "h2", "h3", "h4")]
    assert [e.labels for e in catalog.nontrivial_zero_events()] == zero[8:]
    assert [e.labels for e in catalog.maximal_zero_events()] == [("h1", "h2", "h3", "h4")]


def test_union_assembly_rule_at_the_tolerance_edge():
    """The catalog's rule is "every sector part <= EPS_ZERO", not "the event
    <= EPS_ZERO".  Ket sqrt(1 - d)|p> + sqrt(d)|m>, d = 1.2e-9, measured in
    the basis p/m, then the computational basis: h_{m0} and h_{m1} have
    0.6e-9 each, in different sectors, so their union is a maximal zero event
    of measure 1.2e-9 > EPS_ZERO.  A change of the rule must change this test."""
    r = np.sqrt(0.5)
    p, m = np.array([r, r]), np.array([r, -r])
    pm = ProjectiveDecomposition.from_kets([p, m], ["p", "m"])
    delta = 1.2e-9
    ket = np.sqrt(1.0 - delta) * p + np.sqrt(delta) * m
    df = build_df(HistorySchema.from_ket(ket, (Slice(pm), Slice(computational_basis(2)))))
    assert df.space.labels == ("h_{p0}", "h_{p1}", "h_{m0}", "h_{m1}")
    assert df.sectors() == df.space.sectors
    catalog = find_zero_sets(df)
    union = label_mask(df.space, ["h_{m0}", "h_{m1}"])
    assert catalog.maximal_masks() == [union]
    assert measure(df, Event(df.space, union)) == pytest.approx(delta, rel=1e-6)
    assert measure(df, Event(df.space, union)) > EPS_ZERO
    parts = [measure(df, Event(df.space, union & s.sector_mask)) for s in catalog.sectors]
    assert parts == pytest.approx([delta / 2, delta / 2], rel=1e-6)
    assert is_zero_event(catalog, union) and union not in brute_zero_masks(df)


def alternating_qubit_df() -> DecoherenceFunctional:
    """phi1 = |0> measured five times in the appendix's +/- and 0/1 bases
    at theta = 0.7, in turn: 32 histories in two final sectors."""
    psi01, psipm = build_theta_bases(0.7)
    return build_df(HistorySchema.from_ket(
        [1.0, 0.0], [Slice(psipm if i % 2 == 0 else psi01) for i in range(5)]))


def test_catalog_listings_are_built_unchecked(built_events):
    """The three listings of the 32-history alternating-qubit catalog equal
    the public constructor's events and call none of its checks.  The
    catalog builds one Event per zero mask, once: a second listing builds
    nothing, and the nontrivial events are the zero listing's objects."""
    df = alternating_qubit_df()
    catalog = find_zero_sets(df)
    listings = [catalog.zero_events_sectorwise(), catalog.nontrivial_zero_events(),
                catalog.maximal_zero_events()]
    assert built_events == {"checked": 0, "bulk": len(listings[0]) + len(listings[2])}
    again = catalog.zero_events_sectorwise()
    assert again is not listings[0] and all(map(operator.is_, again, listings[0]))
    assert built_events["bulk"] == len(listings[0]) + len(listings[2])
    zero_objects = {id(e) for e in listings[0]}
    assert listings[1] and all(id(e) in zero_objects for e in listings[1])
    masks = [[m for s in catalog.sectors for m in s.zero_masks],
             [m for s in catalog.sectors for m in s.nontrivial_masks],
             catalog.maximal_masks()]
    assert listings == [[Event(df.space, m) for m in ms] for ms in masks]
    assert built_events["checked"] == sum(map(len, masks)) > 0


def test_zero_sets_of_a_twenty_history_sector_stay_small():
    """A 20-history sector is joined on the grid of its half sums, 2^10
    rows each: the traced peak stays under 4 MB, half of what the 2^20
    table of measures alone would take (8 MB)."""
    rng = np.random.default_rng(79)
    v = rng.normal(size=(20, 12)) + 1j * rng.normal(size=(20, 12))
    gram = np.conjugate(v) @ v.T
    df = raw_df(gram / gram.real.sum())
    tracemalloc.start()
    try:
        catalog = find_zero_sets(df)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert catalog.counts()["zero_sectorwise"] == 0
    assert peak < 4 * 2**20


def test_zero_sets_reach_every_byte_of_a_sector():
    """In one 18-history block, history 17 is null and histories 15 and 16
    cancel; the other 15 are generic.  Local masks reaching the third byte
    are spread to the right histories."""
    rng = np.random.default_rng(83)
    factor = rng.normal(size=(18, 6)) + 1j * rng.normal(size=(18, 6))
    factor[16] = -factor[15]
    factor[17] = 0.0
    gram = np.conjugate(factor) @ factor.T
    catalog = find_zero_sets(raw_df(gram / gram.real.sum()))
    pair, null = (1 << 15) | (1 << 16), 1 << 17
    assert [e.mask for e in catalog.zero_events_sectorwise()] == [null, pair, pair | null]
    assert [e.mask for e in catalog.nontrivial_zero_events()] == [pair, pair | null]
    assert catalog.sectors[0].maximal_masks == (pair | null,)


def test_listings_of_a_seventy_history_space():
    """Five sectors of 14 histories at stride 5 (sector f holds f, f + 5,
    ..., f + 65), each with its own two factor columns: cancelling pairs in
    the last rows, a null history, rows s, s, -s, -s with s^2 = 0.9e-9 of
    the total, a borderline history and generic rows.  Global masks reach
    bit 69, past int64.  Every listing equals a direct scan of each sector's 2^14 masks,
    spread to global bits one bit at a time, in canonical order."""
    rng = np.random.default_rng(70)
    k, sectors, n = 14, 5, 70
    members = [list(range(f, n, sectors)) for f in range(sectors)]
    blocks = [rng.normal(size=(k, 2)) + 1j * rng.normal(size=(k, 2)) for _ in range(sectors)]
    for rows, pairs in zip(blocks, (3, 2, 0, 1, 1)):
        rows[k - 2 * pairs:k - pairs] = -rows[k - pairs:]
    blocks[1][4] = blocks[2][:4] = blocks[3][2] = 0.0

    def total():
        return sum(np.vdot(r.sum(axis=0), r.sum(axis=0)).real for r in blocks)

    blocks[2][:4, 0] = np.sqrt(0.9e-9 * total()) * np.array([1, 1, -1, -1])
    blocks[3][2, 0] = np.sqrt(5e-8 * total())
    factor = np.zeros((n, 2 * sectors), dtype=complex)
    for f, rows in enumerate(blocks):
        factor[members[f], 2 * f:2 * f + 2] = rows
    space = HistorySpace(labels=tuple(f"h{i}" for i in range(n)),
                         sectors=tuple((str(f), sum(1 << g for g in members[f]))
                                       for f in range(sectors)))
    df = DecoherenceFunctional(space, factor / np.sqrt(total()))
    assert df.sectors() == space.sectors

    def canonical(masks):
        return sorted(masks, key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1]))

    local = np.arange(1 << k)
    bits = (local[:, None] >> np.arange(k) & 1).astype(float)
    want = {"zero": [], "nontrivial": [], "borderline": []}
    maximal = []
    for f in range(sectors):
        sums = bits @ df.factor[members[f]]
        mu = (np.abs(sums) ** 2).sum(axis=1)
        inside = mu > EPS_ZERO
        for i in range(k):
            with_bit = np.flatnonzero(local >> i & 1)
            inside[with_bit] |= inside[with_bit ^ (1 << i)]
        zeros = set(np.flatnonzero(mu <= EPS_ZERO).tolist())
        found = {
            "zero": zeros - {0},
            "nontrivial": {m for m in zeros if m.bit_count() >= 2
                           and any(inside[m ^ (1 << i)] for i in range(k) if m >> i & 1)},
            "borderline": set(np.flatnonzero((mu > EPS_ZERO) & (mu <= BORDERLINE_MAX)).tolist()),
        }
        for name, masks in found.items():
            want[name] += canonical(spread_bits(m, members[f]) for m in masks)
        maximal.append([spread_bits(m, members[f]) for m in brute_maximal_masks(zeros)])
    catalog = find_zero_sets(df)
    zero_events = catalog.zero_events_sectorwise()
    assert [e.mask for e in zero_events] == want["zero"]
    assert [e.mask for e in catalog.nontrivial_zero_events()] == want["nontrivial"]
    assert [m for s in catalog.sectors for m in s.borderline_masks] == want["borderline"]
    assert [e.mask for e in catalog.maximal_zero_events()] == canonical(
        {sum(pick) for pick in product(*maximal)})
    assert [len(want[name]) for name in want] == [7 + 7 + 13 + 1 + 1, 7 + 6 + 5 + 1 + 1, 2 + 2]
    assert max(want["zero"]).bit_length() == n
    zero_objects = {id(e) for e in zero_events}
    assert all(id(e) in zero_objects for e in catalog.nontrivial_zero_events())


def factor_df(rows: np.ndarray) -> DecoherenceFunctional:
    """The validated one-block DF of factor rows ``rows``, scaled to unit
    total measure, with no eigendecomposition of its matrix."""
    total = rows.sum(axis=0)
    return DecoherenceFunctional(raw_space([f"h{i + 1}" for i in range(len(rows))]),
                                 rows / np.sqrt(np.vdot(total, total).real))


def paired_rows(rng: np.random.Generator, k: int, m: int) -> tuple[np.ndarray, list[int]]:
    """k rows with c = 2 in a seeded order, m cancelling pairs (v, -v) of
    generic directions and distinct norms and k - 2m generic rows, and the
    masks of the pairs."""
    v = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    v *= np.linspace(0.5, 1.5, m)[:, None]
    rest = rng.normal(size=(k - 2 * m, 2)) + 1j * rng.normal(size=(k - 2 * m, 2))
    order = rng.permutation(k)
    at = np.argsort(order).tolist()
    return (np.concatenate((v, -v, rest))[order],
            [1 << at[i] | 1 << at[m + i] for i in range(m)])


@pytest.mark.parametrize("k, m, seed", [(22, 4, 22), (26, 5, 26), (32, 6, 32), (34, 6, 32)])
def test_cancelling_pairs_above_twenty_histories(k, m, seed):
    """m cancelling pairs among generic rows: the zero events are exactly
    the 2^m - 1 nonempty unions of pairs, all nontrivial, the union of all
    pairs is the one maximal zero event and nothing is borderline.  At
    k = 34 a pair holds history 34, in the fifth byte of the sort key."""
    rows, pairs = paired_rows(np.random.default_rng(seed), k, m)
    catalog = find_zero_sets(factor_df(rows))
    unions = [sum(p for i, p in enumerate(pairs) if pick >> i & 1) for pick in range(1, 1 << m)]
    sector = catalog.sectors[0]
    assert list(sector.zero_masks) == sort_masks(unions, k)
    assert sector.nontrivial_masks == sector.zero_masks
    assert sector.maximal_masks == (sum(pairs),)
    assert sector.borderline_masks == ()
    if k > 32:
        assert max(unions).bit_length() == k


def test_raw_rank_two_gram_keeps_two_columns():
    """The Gram matrix of 20 generic rows and 6 cancelling pairs (c = 2)
    ingested as a raw DF gets a factor of 2 columns, not one per
    rounding-level eigenvalue, so its 32-history block fits the work cap
    and all 63 zero events, the unions of pairs, are catalogued."""
    rows, pairs = paired_rows(np.random.default_rng(32), 32, 6)
    gram = np.conjugate(rows) @ rows.T
    df = raw_df(gram / gram.real.sum())
    assert df.factor.shape == (32, 2)
    unions = [sum(p for i, p in enumerate(pairs) if pick >> i & 1) for pick in range(1, 64)]
    assert list(find_zero_sets(df).sectors[0].zero_masks) == sort_masks(unions, 32)


@pytest.mark.parametrize("c, k", [(1, 14), (1, 18), (2, 18)])
def test_grid_join_near_cell_edges(monkeypatch, c, k):
    """Rows of about 3e-4 beside one unit row: their subset sums spread over
    a few cells of the grid, and hundreds to thousands of events fall in
    the borderline band, many with -H + r or -H - r across a cell edge.
    The grid join, forced, lists every one of them, as the direct scan does."""
    rng = np.random.default_rng(100 + k + c)
    rows = (rng.normal(size=(k, c)) + 1j * rng.normal(size=(k, c))) * 3e-4
    rows[0] = 1.0
    df = factor_df(rows)
    size = np.abs(chunked_measures(df))
    monkeypatch.setattr(measure_analysis, "_ALL_PAIRS_MAX", 0)
    assert_lists_match_scan(df, size)


def test_zero_set_memory_grows_as_the_half_sums():
    """Six cancelling pairs among generic rows at k = 24, 28 and 32: the
    output stays at 63 zero events while the traced peak grows by at most
    about 2^2 per four histories, as the half sums do (the 2^k table would
    grow by 2^4 and take 32 GB at k = 32)."""
    peaks = []
    for k in (24, 28, 32):
        df = factor_df(paired_rows(np.random.default_rng(k), k, 6)[0])
        tracemalloc.start()
        try:
            catalog = find_zero_sets(df)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert catalog.counts()["zero_sectorwise"] == 63
    assert peaks[1] < 5 * peaks[0] and peaks[2] < 5 * peaks[1]
    assert peaks[2] < 24 * 2**20


def test_null_members_of_a_large_sector(monkeypatch):
    """The s, s, -s, -s rows of the tolerance-edge case (s^2 = 0.9e-9),
    spread over both halves of an 18-history sector of generic rows: the
    catalog equals the direct scan, the zero events of three or four of
    them are nontrivial, and their subset measures come from every pair of
    the 4 null rows, not of the sector, which takes the grid join."""
    rng = np.random.default_rng(97)
    rows = np.zeros((18, 3), dtype=complex)
    rows[:, 1:] = rng.normal(size=(18, 2)) + 1j * rng.normal(size=(18, 2))
    null = [1, 8, 12, 17]
    rows[null] = 0.0
    # s^2 = 0.9e-9 of the total measure, which the null rows do not change.
    s = np.sqrt(0.9e-9 * np.vdot(rows.sum(axis=0), rows.sum(axis=0)).real)
    rows[null, 0] = [s, s, -s, -s]
    df = factor_df(rows)
    calls = []

    def band(block, top):
        calls.append((len(block), True))
        return _band(block, top)

    def group(rows):
        calls.append((rows.shape[1], False))
        return _group_measures(rows)

    monkeypatch.setattr(measure_analysis, "_band", band)
    monkeypatch.setattr(measure_analysis, "_group_measures", group)
    assert_lists_match_scan(df, np.abs(chunked_measures(df)))
    assert calls == [(18, True), (4, False)]
    masks = [sum(1 << null[i] for i in pick) for pick in
             [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 2, 3)]]
    assert find_zero_sets(df).sectors[0].nontrivial_masks == tuple(masks)


def test_zero_set_caps():
    """The work cap admits a 40-history block, the width of the sort key,
    only with c = 1, and no wider block; a block whose candidates exceed
    the output cap is refused before they are formed."""
    measure_analysis._check_zero_set_work(40, 1)
    measure_analysis._check_zero_set_work(38, 2)
    with pytest.raises(SpaceTooLargeError, match="sector of 41 histories with 1 factor columns "
                                                 "needs 6291456 table entries, "
                                                 "above ZERO_SET_WORK_LIMIT = 4194304$"):
        measure_analysis._check_zero_set_work(41, 1)
    # 23 rows of 1e-6: every one of their 2^23 subsets is a zero event.
    rows = np.full((24, 1), 1e-6, dtype=complex)
    rows[0] = 1.0
    df = factor_df(rows)
    tracemalloc.start()
    try:
        with pytest.raises(SpaceTooLargeError, match=r"sector of 24 histories has at least \d+ "
                                                     "candidate events, above "
                                                     "ZERO_SET_CANDIDATE_LIMIT = 1048576$"):
            find_zero_sets(df)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_a_random_six_slice_qubit_schema():
    """Six Haar-random qubit slices: 64 histories in two sectors of 32,
    catalogued within the caps.  A sector's 2^32 events have their sums in
    two real dimensions, so by chance dozens fall at or below EPS_ZERO and
    thousands in the borderline band; each is measured directly."""
    rng = np.random.default_rng(5)

    def haar(d):
        q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    slices = [Slice(ProjectiveDecomposition.from_kets(list(haar(2).T), ["0", "1"]), haar(2))
              for _ in range(6)]
    df = build_df(HistorySchema.from_ket([1.0, 0.0], slices))
    assert [m.bit_count() for _, m in df.sectors()] == [32, 32]
    catalog = find_zero_sets(df)
    assert catalog.counts()["zero_sectorwise"] > 0 and catalog.counts()["borderline"] > 1000
    for event in catalog.zero_events_sectorwise():
        assert measure(df, event) <= EPS_ZERO
    for s in catalog.sectors:
        for m in s.borderline_masks:
            assert EPS_ZERO < measure(df, Event(df.space, m)) <= BORDERLINE_MAX


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
        assert is_zero_event(catalog, m) == (m in zeros)


def test_zero_union_and_complement_measures():
    """Cataloged zeros have zero measure and complements of measure one."""
    for name, df in small_scenario_dfs():
        catalog = find_zero_sets(df)
        for event in catalog.maximal_zero_events():
            assert measure(df, event) <= 1e-9, name
            assert measure(df, complement(event)) == pytest.approx(1.0, abs=1e-9), name


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
    assert [df.space.labels_of(m) for s in catalog.sectors
            for m in s.borderline_masks] == [["h1"]]
    assert catalog.counts()["borderline"] == 1
    assert not is_zero_event(catalog, 0b1)


def test_a_failing_report_makes_no_df():
    """No DF holds a failed report, so none reaches the zero-set search: the
    report raw_df rejects a matrix with is refused by the constructor too."""
    with pytest.raises(ValidationFailedError) as info:
        raw_df(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValidationFailedError, match="^decoherence functional failed "
                                                    "validation: hermiticity residual"):
        DecoherenceFunctional(raw_space(["h1", "h2"]), np.zeros((2, 1)), info.value.report)


def test_sector_enumeration_limit():
    """A classical block of 32 histories has 32 factor columns: its half
    sums would hold 2 * 2^16 rows of 64 reals, above the work cap."""
    df = raw_df(np.eye(32) / 32.0)
    with pytest.raises(SpaceTooLargeError, match="sector of 32 histories with 32 factor columns "
                                                 ".* ZERO_SET_WORK_LIMIT = 4194304"):
        find_zero_sets(df)


@pytest.mark.parametrize("top", [62, 63])
def test_spreader_on_both_sides_of_int64(top):
    """Members up to 62 are spread through int64 tables, a member of 63 or
    more through Python ints; either way each local mask of two bytes
    becomes the global mask of its sector's members, as a Python int."""
    members = np.array([[0, 5, 9, 20, 33, 40, 50, 58, 60, top], list(range(1, 11))])
    rng = np.random.default_rng(top)
    local, owner = rng.integers(0, 1 << 10, 64), rng.integers(0, 2, 64)
    spread = _spreader(members)(local, owner)
    assert [type(m) for m in spread] == [int] * 64
    assert spread == [sum(1 << int(g) for b, g in enumerate(members[o]) if m >> b & 1)
                      for m, o in zip(local.tolist(), owner.tolist())]


def test_find_zero_sets_on_many_one_history_sectors(monkeypatch):
    """2^14 one-history sectors, one history carrying all the weight: each
    sector's members come from a walk over its set bits, not over all 2^14
    indices, and the sectors are measured as one group of 2^14 x 4 entries,
    not one call each.  The report holds the exact residuals of this factor."""
    n = 2**14
    space = HistorySpace(labels=tuple(f"h{i}" for i in range(n)),
                         sectors=tuple((str(i), 1 << i) for i in range(n)))
    factor = np.zeros((n, 1), dtype=complex)
    factor[0] = 1.0
    df = _made(space, factor, passed_report(n), "hand-built decoherence functional")
    groups = []

    def group(rows):
        groups.append(rows.shape)
        return _group_measures(rows)

    monkeypatch.setattr(measure_analysis, "_group_measures", group)
    start = time.perf_counter()
    catalog = find_zero_sets(df)
    assert time.perf_counter() - start < 10.0
    assert groups == [(n, 1, 1)]
    assert catalog.counts() == {"sectors": n, "zero_sectorwise": n - 1,
                                "nontrivial": 0, "borderline": 0}
    assert catalog.sectors[1].zero_masks == (2,) and catalog.sectors[0].maximal_masks == (0,)
    assert catalog.sectors[n - 1].maximal_masks == (1 << (n - 1),)


def passed_report(n: int) -> ValidationReport:
    return ValidationReport(size=n, hermiticity_residual=0.0, normalization_residual=0.0,
                            min_eigenvalue=0.0, block_residual=0.0)


def assert_sectors_match_oracles(df: DecoherenceFunctional) -> None:
    """Every sector's four lists against the direct measures of all 2^n masks
    (brute_measures): its zero and borderline masks in canonical order, the
    zero ones with a proper subset above EPS_ZERO (some subset above it,
    closed over one bit at a time) and the maximal ones, those inside no
    other zero mask of the sector (the empty mask when alone); and every
    zero event of the direct scan passes the union-assembly rule."""
    n = df.size
    masks = np.arange(1 << n)
    mu = brute_measures(df)
    some_subset_above = mu > EPS_ZERO
    for j in range(n):
        halves = some_subset_above.reshape(-1, 2, 1 << j)
        halves[:, 1] |= halves[:, 0]
    catalog = find_zero_sets(df)
    assert [(s.label, s.sector_mask) for s in catalog.sectors] == list(df.sectors())
    for s in catalog.sectors:
        inside = masks & ~s.sector_mask == 0
        zero = masks[inside & (mu <= EPS_ZERO)]
        assert s.zero_masks == tuple(sort_masks(zero[1:].tolist(), n))
        assert s.nontrivial_masks == tuple(sort_masks(
            [m for m in zero[1:].tolist() if some_subset_above[m]], n))
        assert s.borderline_masks == tuple(sort_masks(
            masks[inside & (mu > EPS_ZERO) & (mu <= BORDERLINE_MAX)].tolist(), n))
        assert sorted(s.maximal_masks) == [
            m for m in zero.tolist() if not ((zero & m == m) & (zero != m)).any()]
    for m in np.flatnonzero(mu <= EPS_ZERO).tolist():
        assert is_zero_event(catalog, m)


# Amplitudes whose subset sums are exact zeros or far from EPS_ZERO, and
# t = 1.1e-4, whose measures (a^2 + b^2) t^2 fill the borderline band and
# stay 3 % or more from BORDERLINE_MAX (with 1e-4, (1, 3) would sit on it).
AMPLITUDES = (0.0, 1.0, -1.0, 0.5, -0.5, 1j, -1j, 1.1e-4, -1.1e-4)


@st.composite
def block_dfs(draw):
    """Hand-built DFs whose final sectors, of 1 to 6 histories or, with at
    most 3 more, one of 13 that takes the grid join (c = 3), each hold rows
    of drawn amplitudes over their own factor columns, the sectors'
    histories interleaved in a drawn order."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    if draw(st.booleans()):
        sizes = [13, min(sizes[0], 3)]
    columns = [2 if k == 13 else draw(st.integers(1, 2)) for k in sizes]
    order = draw(st.permutations(range(sum(sizes))))
    factor = np.zeros((len(order), sum(columns)), dtype=complex)
    sectors, first, col = [], 0, 0
    for j, (k, c) in enumerate(zip(sizes, columns)):
        members = sorted(order[first:first + k])
        values = draw(st.lists(st.sampled_from(AMPLITUDES), min_size=k * c, max_size=k * c))
        factor[members, col:col + c] = np.reshape(values, (k, c))
        sectors.append((f"s{j}", sum(1 << i for i in members)))
        first, col = first + k, col + c
    space = HistorySpace(labels=tuple(f"h{i}" for i in range(len(order))), sectors=tuple(sectors))
    return _made(space, factor, passed_report(len(order)), "hand-built decoherence functional")


@settings(max_examples=60, deadline=None)
@given(block_dfs(), st.sampled_from([64, 1 << 17]))
def test_grouped_catalog_matches_the_oracles(df, step):
    """Sectors of one size are measured as one group, in chunks of
    _STEP_ENTRIES entries (64 forces a chunk per sector and blocks within
    one), and their lists spread and cut in bulk; each sector's lists
    equal the direct scan's, as a grid-join sector's do."""
    saved = measure_analysis._STEP_ENTRIES
    measure_analysis._STEP_ENTRIES = step
    try:
        assert_sectors_match_oracles(df)
    finally:
        measure_analysis._STEP_ENTRIES = saved


def test_grouped_catalog_at_the_tolerance_edge():
    """The two tolerance-edge inputs: null rows s, s, -s, -s (s^2 = 0.9e-9)
    with a unit row, and the qubit schema of
    test_union_assembly_rule_at_the_tolerance_edge, whose union of sector
    zero events exceeds EPS_ZERO."""
    s = np.sqrt(0.9e-9)
    factor = np.array([[s, 0.0], [s, 0.0], [-s, 0.0], [-s, 0.0], [0.0, 1.0]])
    assert_sectors_match_oracles(raw_df(factor @ factor.T))
    r = np.sqrt(0.5)
    p, m = np.array([r, r]), np.array([r, -r])
    pm = ProjectiveDecomposition.from_kets([p, m], ["p", "m"])
    ket = np.sqrt(1.0 - 1.2e-9) * p + np.sqrt(1.2e-9) * m
    assert_sectors_match_oracles(
        build_df(HistorySchema.from_ket(ket, (Slice(pm), Slice(computational_basis(2))))))


def test_partition_iterator_counts():
    """Row counts are Bell numbers, 2^(n-1) for two cells and 1 for one; rows
    are restricted-growth strings in strictly increasing lexicographic order."""
    bell = [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570]
    for n, want in zip(range(1, 12), bell):
        strings = set_partition_strings(n, n)
        assert strings.shape == (want, n) and strings.dtype == np.int8
        tops = np.maximum.accumulate(strings, axis=1)
        assert (strings[:, 0] == 0).all() and (strings[:, 1:] <= tops[:, :-1] + 1).all()
        rows = strings.tolist()
        assert all(a < b for a, b in zip(rows, rows[1:]))
    for n in range(2, 7):
        assert len(set_partition_strings(n, 2)) == 2 ** (n - 1)
        assert len(set_partition_strings(n, 1)) == 1


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
        for rgs in set_partition_strings(n, n).tolist():
            cells = {}
            for i, b in enumerate(rgs):
                cells.setdefault(b, []).append(i)
            got.add(frozenset(tuple(c) for c in cells.values()))
        want = {
            frozenset(tuple(c) for c in p) for p in reference(n)
        }
        assert got == want


def test_partition_residual_product_values(composite_golden):
    """The composite product's partitions into the anti-diagonal pairs, the
    four singletons and the h11/h21 split, by the oracle's residual and by
    the search's listings: a partition passes a search exactly when its
    oracle residual is at most EPS_DF, with that residual."""
    df = scenario_dfs("composite-product")["D_AB"]
    space = df.space
    anti = [label_mask(space, ["h11", "h22"]), label_mask(space, ["h12", "h21"])]
    fine = [1 << i for i in range(4)]
    split = [label_mask(space, ["h11", "h21"]), label_mask(space, ["h12", "h22"])]
    assert brute_partition_residual(df, anti, "medium") <= EPS_DF
    assert brute_partition_residual(df, fine, "medium") == pytest.approx(0.25, abs=1e-12)
    assert brute_partition_residual(df, fine, "weak") == pytest.approx(
        abs(composite_golden["re_d_h11_h22"]), abs=1e-12
    )
    assert brute_partition_residual(df, split, "medium") == pytest.approx(0.5, abs=1e-12)
    assert brute_partition_residual(df, split, "weak") <= EPS_DF
    for mode in ("medium", "weak"):
        listed = {rep.cell_masks: rep.residual
                  for rep in find_decoherent_partitions(df, mode, df.size)}
        for cells in (anti, fine, split):
            residual = brute_partition_residual(df, cells, mode)
            got = listed.get(tuple(sorted(cells, key=lambda m: m & -m)))
            if residual <= EPS_DF:
                assert got == pytest.approx(residual, abs=1e-12), (mode, cells)
            else:
                assert got is None, (mode, cells)


def test_partition_validation_errors():
    df = scenario_dfs("composite-product")["D_AB"]
    with pytest.raises(ValueError):
        find_decoherent_partitions(df, "strong", max_cells=2)
    with pytest.raises(ValueError):
        find_decoherent_partitions(df, "medium", max_cells=0)


def test_unknown_mode_is_refused_before_the_strings(monkeypatch):
    """A search in an unknown mode fails on the mode before its plan of
    restricted-growth strings is looked up or made."""
    def plan(*args):
        raise AssertionError("a plan was read")

    monkeypatch.setattr(measure_analysis, "_plan", plan)
    with pytest.raises(ValueError, match="unknown decoherence mode 'strong'"):
        find_decoherent_partitions(raw_df(np.eye(3) / 3), "strong", 3)


def plan_was_kept(n: int, max_cells: int) -> bool:
    """Whether _plan(n, max_cells) was a hit of the kept plans."""
    hits = measure_analysis._kept_plan.cache_info().hits
    measure_analysis._plan(n, max_cells)
    return measure_analysis._kept_plan.cache_info().hits > hits


def test_kept_plans_equal_new_strings():
    """A plan read again is the plan built, and equals a new build of the
    strings, with the cell count of each; both arrays are read-only.  A
    size is (n, min(max_cells, n)), and at most 8 sizes are kept, the ones
    used last."""
    kept = measure_analysis._kept_plan
    kept.cache_clear()
    for n in range(1, 9):
        for max_cells in range(1, n + 2):
            strings, counts = measure_analysis._plan(n, max_cells)
            assert measure_analysis._plan(n, max_cells)[0] is strings
            np.testing.assert_array_equal(strings, set_partition_strings(n, max_cells))
            np.testing.assert_array_equal(counts, strings.max(axis=1) + 1)
            assert counts.dtype == np.int8
            assert not strings.flags.writeable and not counts.flags.writeable
            assert kept.cache_info().currsize <= kept.cache_info().maxsize == 8
        assert measure_analysis._plan(n, n + 1)[0] is measure_analysis._plan(n, n)[0]
    # Kept, least recently used first: (8, 1) .. (8, 8).  Reading them in
    # that order keeps that order.
    assert all(plan_was_kept(8, k) for k in range(1, 9))
    assert not plan_was_kept(7, 7) and not plan_was_kept(8, 1)
    # (7, 7) dropped (8, 1), and (8, 1) dropped (8, 2).
    assert all(plan_was_kept(8, k) for k in range(3, 9))
    assert plan_was_kept(7, 7) and plan_was_kept(8, 1) and not plan_was_kept(8, 2)


def test_changing_returned_strings_leaves_later_searches_alone():
    """set_partition_strings returns a new writable array, and a listing
    holds its own copy of the passing strings: writing to either changes no
    later search of the same size."""
    df = raw_df(np.diag([0.4, 0.3, 0.2, 0.1]))
    first = find_decoherent_partitions(df, "medium", 4)
    strings = set_partition_strings(4, 4)
    assert strings.flags.writeable and first.strings.flags.writeable
    strings[:] = 3
    first.strings[:] = 3
    again = find_decoherent_partitions(df, "medium", 4)
    np.testing.assert_array_equal(again.strings, set_partition_strings(4, 4))
    assert [rep.cell_masks for rep in again][-1] == (1, 2, 4, 8)


def test_refused_sizes_are_refused_on_every_call():
    """A refusal is not kept as a plan: a size over PARTITION_COUNT_LIMIT
    is refused again on the next call, before any string exists."""
    df = raw_df(np.eye(12) / 12.0)
    info = measure_analysis._kept_plan.cache_info()
    for _ in range(2):
        with pytest.raises(SpaceTooLargeError, match="PARTITION_COUNT_LIMIT = 1000000"):
            find_decoherent_partitions(df, "weak", max_cells=12)
    assert measure_analysis._kept_plan.cache_info() == info


def test_plans_above_step_entries_are_not_kept():
    """The Bell(11) = 678,570 strings of an all-pass weak search are built
    for that search and not kept.  No kept plan holds more than
    _STEP_ENTRIES strings: the largest, of 10 histories, holds Bell(10)."""
    info = measure_analysis._kept_plan.cache_info()
    found = find_decoherent_partitions(raw_df(np.eye(11) / 11), "weak", 11)
    assert len(found) == 678570
    assert measure_analysis._kept_plan.cache_info() == info
    assert len(measure_analysis._plan(10, 10)[0]) == 115975 <= measure_analysis._STEP_ENTRIES
    assert plan_was_kept(10, 10)


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
    partition with direct submatrix sums finds, in the same order, both as
    the listing's strings and residuals and as the reports read from it."""
    from conftest import random_amplitude_df

    df = random_amplitude_df(np.random.default_rng(seed), n)
    got = find_decoherent_partitions(df, mode, max_cells)
    want = brute_decoherent_partitions(df, mode, max_cells)
    assert got.strings.tolist() == [
        [next(a for a, m in enumerate(cells) if m >> i & 1) for i in range(n)]
        for cells, _ in want]
    np.testing.assert_allclose(got.residuals, [r for _, r in want], rtol=0, atol=1e-12)
    assert [[c.mask for c in rep.cells] for rep in got] == [cells for cells, _ in want]
    for rep, (_, residual) in zip(got, want):
        assert rep.passed and rep.mode == mode
        assert rep.residual == pytest.approx(residual, abs=1e-12)


@pytest.mark.parametrize("n, c, max_cells, seed", [
    (5, 2, 5, 100), (6, 3, 4, 98), (7, 5, 7, 103), (8, 4, 6, 98), (8, 6, 8, 191)],
    ids=["5", "6", "7", "8", "8c6"])
def test_partition_search_across_batches(monkeypatch, n, c, max_cells, seed):
    """With _STEP_ENTRIES = 300 a chunk padded to k cells holds at most
    300 // (k (n + 2c)) strings (7 at k = 2 and 1 at k = 8 for n = 8,
    c = 6), so the strings do not fit in one chunk and the search makes
    hundreds of chunks of one cell count each: chunk edges fall between
    counts, and the strings of some counts are split across chunks.  Both
    modes find the oracle's partitions in its order with its residuals, and
    brute_partition_residual gives the worst partition's residual."""
    from conftest import random_amplitude_df

    chunks = []
    cell_sums = measure_analysis._cell_sums

    def spy(factor, strings):
        chunks.append(set((strings.max(axis=1) + 1).tolist()))
        return cell_sums(factor, strings)

    monkeypatch.setattr(measure_analysis, "_STEP_ENTRIES", 300)
    monkeypatch.setattr(measure_analysis, "_cell_sums", spy)
    df = random_amplitude_df(np.random.default_rng(seed), n, c)
    assert df.factor.shape[1] == c
    for mode in ("medium", "weak"):
        chunks.clear()
        got = find_decoherent_partitions(df, mode, max_cells)
        want = brute_decoherent_partitions(df, mode, max_cells)
        assert all(len(counts) == 1 for counts in chunks)
        assert len({count for counts in chunks for count in counts}) == min(n, max_cells)
        assert any(sum(count in counts for counts in chunks) > 1 for count in range(2, n))
        assert got.strings.tolist() == [
            [next(a for a, m in enumerate(cells) if m >> i & 1) for i in range(n)]
            for cells, _ in want]
        np.testing.assert_allclose(got.residuals, [r for _, r in want], rtol=0, atol=1e-12)
        assert 1 < len(got) < len(set_partition_strings(n, max_cells))
        worst = max(got, key=lambda rep: rep.residual)
        single = brute_partition_residual(df, worst.cell_masks, mode)
        assert single <= EPS_DF and single == pytest.approx(worst.residual, rel=0, abs=1e-15)


def test_weak_search_working_set_is_capped():
    """A generic weak search over Bell(10) = 115,975 partitions finds only
    the one-cell partition, and its traced peak stays under 16 MB: a batch
    holds at most _STEP_ENTRIES cell-matrix entries, whatever the count."""
    rng = np.random.default_rng(101)
    v = rng.normal(size=(10, 4)) + 1j * rng.normal(size=(10, 4))
    gram = np.conjugate(v) @ v.T
    df = raw_df(gram / gram.real.sum())
    tracemalloc.start()
    try:
        found = find_decoherent_partitions(df, "weak", 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [rep.cell_masks for rep in found] == [((1 << 10) - 1,)]
    assert peak < 16 * 2**20


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_weak_partitions_make_the_measure_additive(seed, n):
    """On every weakly decoherent partition the quantum measure is additive:
    mu of a union S of cells is the sum of their measures, up to the
    |S|(|S| - 1) off-diagonal terms 2 Re D(A, B), each within EPS_DF."""
    from conftest import random_amplitude_df

    df = random_amplitude_df(np.random.default_rng(seed), n)
    for rep in find_decoherent_partitions(df, "weak", n):
        cell_mu = [measure(df, c) for c in rep.cells]
        for pick in range(1, 1 << len(rep.cells)):
            chosen = [i for i in range(len(rep.cells)) if pick >> i & 1]
            union = Event(df.space, sum(rep.cells[i].mask for i in chosen))
            assert measure(df, union) == pytest.approx(
                sum(cell_mu[i] for i in chosen), rel=0, abs=len(chosen) ** 2 * EPS_DF)


def test_classical_search_returns_every_partition_as_cells():
    """Every partition of a classical 9-history DF decoheres: the search
    returns all Bell(9) of them in restricted-growth-string order, each as
    nonempty cells that partition the space, ordered by least member."""
    n = 9
    found = find_decoherent_partitions(raw_df(np.eye(n) / n), "medium", n)
    strings = set_partition_strings(n, n).tolist()
    assert len(found) == len(strings) == 21147
    for rep, rgs in zip(found, strings):
        masks = [c.mask for c in rep.cells]
        assert all(masks) and sum(masks) == (1 << n) - 1
        assert [next(c for c, m in enumerate(masks) if m >> i & 1) for i in range(n)] == rgs
        assert rep.passed and rep.residual <= 1e-12


def test_classical_search_keeps_strings_not_reports():
    """All Bell(10) = 115,975 partitions of a classical 10-history DF pass a
    medium search; the listing keeps their strings and residuals, so the
    traced peak stays under 16 MB."""
    df = raw_df(np.eye(10) / 10)
    tracemalloc.start()
    try:
        found = find_decoherent_partitions(df, "medium", 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 115975
    assert peak < 16 * 2**20
    np.testing.assert_array_equal(found.strings, set_partition_strings(10, 10))


def test_listing_builds_reports_only_on_read(monkeypatch):
    """The search builds no PartitionReport; each int read builds one,
    equal to the report built by __init__, negative indices count from the
    end, an index past the end raises IndexError and a slice raises
    TypeError.  Iteration builds each report once, in order."""
    built, read = [], measure_analysis.PartitionListing._reports

    def reports(self, rows):
        reps = read(self, rows)
        built.extend(rep.cell_masks for rep in reps)
        return reps

    df = raw_df(np.diag([0.4, 0.3, 0.2, 0.1]))
    with monkeypatch.context() as search:
        search.setattr(measure_analysis, "PartitionReport", None)
        found = find_decoherent_partitions(df, "medium", 4)
    monkeypatch.setattr(measure_analysis.PartitionListing, "_reports", reports)
    assert len(found) == 15 and built == []
    assert found[-1].cell_masks == (1, 2, 4, 8) == found[14].cell_masks
    assert found[-15].cell_masks == (15,) == found[0].cell_masks
    assert len(built) == 4
    rep = found[3]
    made = measure_analysis.PartitionReport(df.space, rep.cell_masks, "medium", rep.residual, True)
    assert rep == made and hash(rep) == hash(made)
    for bad in (15, -16):
        with pytest.raises(IndexError):
            found[bad]
    with pytest.raises(TypeError):
        found[1:3]
    assert [rep.cell_masks for rep in found] == built[5:]
    assert len(built) == 5 + 15
    # Blocks of 4 reports: the iteration crosses three block edges.
    monkeypatch.setattr(measure_analysis, "_REPORT_BLOCK", 4)
    assert [rep.cell_masks for rep in found] == built[5:20] == built[20:]


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
    """The cap counts partitions, not histories: the 2^16 two-cell partitions
    of 17 histories are searched, the Bell(12) partitions of 12 are refused."""
    from conftest import random_strong_df

    assert [len(set_partition_strings(n, n)) for n in range(1, 12)] == [
        1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570]
    assert len(set_partition_strings(17, 2)) == 2**16
    assert len(set_partition_strings(17, 1)) == 1
    df = random_strong_df(np.random.default_rng(73), 17)
    found = find_decoherent_partitions(df, "medium", max_cells=2)
    assert [len(p.cells) for p in found] == [1]
    with pytest.raises(SpaceTooLargeError, match="12 histories into at most 12 cells has at "
                                                 "least 4213597 partitions, above "
                                                 "PARTITION_COUNT_LIMIT = 1000000"):
        find_decoherent_partitions(raw_df(np.eye(12) / 12.0), "medium", max_cells=12)
    n = 1 << 16
    wide = DecoherenceFunctional(raw_space(f"h{i}" for i in range(n)), np.full((n, 1), 1.0 / n))
    with pytest.raises(SpaceTooLargeError, match="at least 4213597 partitions"):
        find_decoherent_partitions(wide, "weak", max_cells=n)
    assert set_partition_strings(n, 1).shape == (1, n)


def test_partition_strings_grow_in_place():
    """The Bell(11) = 678,570 strings of 11 elements grow in one int8 array
    of the final size: the traced peak stays within 1.5 times the result."""
    tracemalloc.start()
    try:
        strings = set_partition_strings(11, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert strings.shape == (678570, 11)
    assert peak <= 1.5 * strings.nbytes


def test_one_cell_search_over_many_histories():
    """max_cells=1 allows only the one-cell partition, whatever the size."""
    n = 2000
    df = DecoherenceFunctional(raw_space(f"h{i}" for i in range(n)), np.full((n, 1), 1.0 / n))
    found = find_decoherent_partitions(df, "medium", max_cells=1)
    assert [[c.mask for c in p.cells] for p in found] == [[(1 << n) - 1]]
