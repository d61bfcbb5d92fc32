"""Co-event enumeration as minimal-transversal dualization.

Within one sector the minimal preclusive supports are the minimal
transversals of the complements of the maximal zero events.  The oracle
here scans every subset of the sector and keeps the transversals from which
no single member can be dropped, independently of the shipped search.
"""

from __future__ import annotations

import math
from itertools import product
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
    computational_basis,
    enumerate_primitive_coevents,
    find_zero_sets,
    limits,
    raw_df,
)
from coevent import DecoherenceFunctional, measure_analysis
from coevent.histories import HistorySpace, ValidationReport, _made, sort_masks

from coevent.tolerances import EPS_ZERO

from conftest import (brute_measures, brute_primitive_masks, planted_coevent_df,
                      planted_coevent_factor, random_amplitude_df)


def brute_minimal_transversals(members, maximal) -> list[int]:
    """Minimal nonempty sub-supports of the sector meeting every ``sector & ~M``."""
    sector = sum(1 << i for i in members)
    edges = [sector & ~m for m in maximal]

    def transversal(mask):
        return all(mask & e for e in edges)

    found = []
    for bits in range(1, 1 << len(members)):
        mask = sum(1 << i for b, i in enumerate(members) if bits >> b & 1)
        if transversal(mask) and not any(
            mask & ~(1 << i) and transversal(mask & ~(1 << i))
            for i in members if mask >> i & 1
        ):
            found.append(mask)
    return sorted(found)


@st.composite
def sectors_with_maximal_masks(draw):
    """A sector of up to 10 members from 0..69 and an antichain inside it."""
    members = tuple(sorted(draw(st.sets(st.integers(0, 69), max_size=10))))
    parts = draw(st.lists(st.sets(st.sampled_from(members)) if members else st.just(set()),
                          max_size=6))
    masks = {sum(1 << i for i in part) for part in parts}
    antichain = [m for m in masks if not any(o != m and m & ~o == 0 for o in masks)]
    return members, tuple(antichain)


@settings(max_examples=300, deadline=None)
@given(sectors_with_maximal_masks())
def test_minimal_preclusive_masks_match_transversal_oracle(case):
    members, maximal = case
    got = measure_analysis._minimal_preclusive_masks(sum(1 << i for i in members), maximal)
    assert sorted(got) == brute_minimal_transversals(members, maximal)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_enumeration_matches_brute_oracle_on_amplitude_dfs(n, seed):
    df = random_amplitude_df(np.random.default_rng(seed), n)
    got = [c.support.mask for c in enumerate_primitive_coevents(df)]
    assert got == brute_primitive_masks(df)


# Amplitudes whose subset sums are exact zeros or far from EPS_ZERO.
AMPLITUDES = (0.0, 1.0, -1.0, 0.5, -0.5, 1j, -1j)
# s^2 = 0.9e-9: one row of s is a zero event, two of s are not, s and -s are.
EDGE = math.sqrt(0.9e-9)


@st.composite
def sectored_dfs(draw):
    """Hand-built DFs of 1 to 3 final sectors of 1 to 5 histories, each over
    its own 1 or 2 factor columns, their histories interleaved in a drawn
    order.  A sector holds drawn amplitudes, or a unit row and the rows s,
    s, -s, -s, or only zero rows, which make it a zero event itself."""
    kinds = draw(st.lists(st.sampled_from(["drawn", "edge", "zero"]), min_size=1, max_size=3))
    sizes = [5 if kind == "edge" else draw(st.integers(1, 5)) for kind in kinds]
    columns = [draw(st.integers(1, 2)) for _ in kinds]
    order = draw(st.permutations(range(sum(sizes))))
    factor = np.zeros((len(order), sum(columns)), dtype=complex)
    sectors, first, col = [], 0, 0
    for j, (kind, k, c) in enumerate(zip(kinds, sizes, columns)):
        members = order[first:first + k]
        if kind == "drawn":
            values = draw(st.lists(st.sampled_from(AMPLITUDES), min_size=k * c, max_size=k * c))
            factor[members, col:col + c] = np.reshape(values, (k, c))
        elif kind == "edge":
            factor[members, col] = [1.0, EDGE, EDGE, -EDGE, -EDGE]
        sectors.append((f"s{j}", sum(1 << i for i in members)))
        first, col = first + k, col + c
    n = len(order)
    space = HistorySpace(labels=tuple(f"h{i}" for i in range(n)), sectors=tuple(sectors))
    report = ValidationReport(size=n, hermiticity_residual=0.0, normalization_residual=0.0,
                              min_eigenvalue=0.0, block_residual=0.0)
    return _made(space, factor, report, "hand-built decoherence functional")


def union_rule_zeros(df) -> set[int]:
    """Masks of every event whose sector parts all have |mu| <= EPS_ZERO by
    direct sums: the zero events of the union-assembly rule, which holds
    more than a scan of whole events only at the tolerance edge."""
    masks = np.arange(1 << df.size)
    mu = np.abs(brute_measures(df))
    zero = np.ones(len(masks), dtype=bool)
    for _, sector in df.sectors():
        zero &= mu[masks & sector] <= EPS_ZERO
    return set(masks[zero].tolist())


def assert_both_paths_match_brute(df) -> list[int]:
    """With _ALL_PAIRS_MAX at 0 every sector takes the grid join and MMCS;
    with it far above every sector, each takes the subset tables.  Both give
    the oracle's supports, over the union rule's zero events, in canonical
    order, each sector's in its primitive_masks; the supports are returned."""
    want = brute_primitive_masks(df, union_rule_zeros(df))
    for top in (0, 1 << 40):
        with mock.patch.object(measure_analysis, "_ALL_PAIRS_MAX", top):
            catalog = find_zero_sets(df)
        assert [list(s.primitive_masks) for s in catalog.sectors] == [
            [m for m in want if not m & ~s.sector_mask] for s in catalog.sectors]
        assert [c.mask for c in enumerate_primitive_coevents(df, catalog)] == want
    return want


@settings(max_examples=150, deadline=None)
@given(sectored_dfs())
def test_table_and_mmcs_paths_match_the_oracle(df):
    assert_both_paths_match_brute(df)


def tolerance_edge_schema() -> HistorySchema:
    """sqrt(1 - d)|p> + sqrt(d)|m>, d = 1.2e-9, measured in p/m and then in
    the computational basis: a union of sector zero events above EPS_ZERO."""
    r = math.sqrt(0.5)
    p, m = np.array([r, r]), np.array([r, -r])
    pm = ProjectiveDecomposition.from_kets([p, m], ["p", "m"])
    ket = math.sqrt(1.0 - 1.2e-9) * p + math.sqrt(1.2e-9) * m
    return HistorySchema.from_ket(ket, (Slice(pm), Slice(computational_basis(2))))


@pytest.mark.parametrize("make,supports", [
    (lambda: build_df(HistorySchema.from_ket(np.array([1.0, 0.0]), (
        Slice(computational_basis(2)), Slice(computational_basis(2))))), [1]),
    (lambda: build_df(tolerance_edge_schema()), [1, 2]),
    (lambda: raw_df(np.outer(*[[EDGE, EDGE, -EDGE, -EDGE, 1.0]] * 2)), None),
], ids=["ket-measured-twice", "union-above-eps", "s-s-minus-s-minus-s"])
def test_table_and_mmcs_paths_at_the_edges(make, supports):
    """|0> measured twice in the computational basis, whose sector 1 is a
    zero event and has no co-event; the qubit schema whose union of sector
    zero events exceeds EPS_ZERO, where {h_m0, h_m1} is no support, though
    a scan of whole events would make it one; and the rows s, s, -s, -s
    with a unit row."""
    got = assert_both_paths_match_brute(make())
    assert supports is None or got == supports


def four_blocks_of_ten():
    """A 40-member sector at indices 30..69, its four blocks of ten, and the
    complements of the blocks as its maximal zero events."""
    members = tuple(range(30, 70))
    blocks = [members[10 * b: 10 * b + 10] for b in range(4)]
    sector = sum(1 << i for i in members)
    return sector, blocks, tuple(sector & ~sum(1 << i for i in block) for block in blocks)


def test_four_blocks_of_ten_give_ten_thousand_supports():
    """Output-sensitive known answer: 10^4 transversals of a 40-member sector.

    The maximal zero events are the complements of four disjoint blocks, so
    a support is preclusive iff it meets every block.  A walk over the
    C(40, s) subsets of the sector would not finish; the members sit at
    indices 30..69 so the masks straddle the 64-bit boundary.
    """
    sector, blocks, maximal = four_blocks_of_ten()
    got = measure_analysis._minimal_preclusive_masks(sector, maximal)
    want = {sum(1 << i for i in pick) for pick in product(*blocks)}
    assert len(got) == len(want) == 10_000
    assert set(got) == want


def two_planted_sectors() -> DecoherenceFunctional:
    """A DF of two verified sectors of 12 histories, each with blocks of
    five and five (25 co-events) and its own 10 factor columns, so each
    takes the grid join: (2 * 20) << 12 entries are above _ALL_PAIRS_MAX."""
    rng = np.random.default_rng(12)
    factor = np.zeros((24, 20), dtype=complex)
    for j in range(2):
        factor[12 * j:12 * j + 12, 10 * j:10 * j + 10] = (
            planted_coevent_factor(rng, 12, [5, 5])[0] / math.sqrt(2.0))
    space = HistorySpace(labels=tuple(f"h{i}" for i in range(24)),
                         sectors=(("a", (1 << 12) - 1), ("b", ((1 << 12) - 1) << 12)))
    return DecoherenceFunctional(space, factor)


@pytest.mark.parametrize("cap", [9_999, 10_000])
def test_coevent_count_cap(monkeypatch, cap):
    """MMCS stops with SpaceTooLargeError, naming the cap, on the first
    support past COEVENT_COUNT_LIMIT; 10^4 supports pass a cap of 10^4.
    Across the sectors of one DF the count is the sum: two grid-join
    sectors of 25 co-events each pass a cap of 40 in MMCS, and
    find_zero_sets refuses the 50 with the same message."""
    monkeypatch.setattr(limits, "COEVENT_COUNT_LIMIT", cap)
    sector, _, maximal = four_blocks_of_ten()
    mmcs = measure_analysis._minimal_preclusive_masks
    if cap < 10_000:
        with pytest.raises(SpaceTooLargeError, match=f"found {cap + 1} primitive co-events, "
                                                     f"above COEVENT_COUNT_LIMIT = {cap}$"):
            mmcs(sector, maximal)
    else:
        assert len(mmcs(sector, maximal)) == 10_000
    df = two_planted_sectors()
    assert [len(s.primitive_masks) for s in find_zero_sets(df).sectors] == [25, 25]
    calls = []
    monkeypatch.setattr(measure_analysis, "_minimal_preclusive_masks",
                        lambda *args: calls.append(args) or mmcs(*args))
    monkeypatch.setattr(limits, "COEVENT_COUNT_LIMIT", 40)
    with pytest.raises(SpaceTooLargeError, match="^co-event search found 41 primitive "
                                                 "co-events, above COEVENT_COUNT_LIMIT = 40$"):
        find_zero_sets(df)
    assert len(calls) == 2


@pytest.mark.parametrize("seed,k,sizes", [
    (1, 25, [4, 4, 4, 4, 4]),
    (2, 27, [4, 4, 4, 4, 4]),
    (3, 30, [5, 5, 5, 5, 5]),
    (4, 26, [3, 4, 5, 6]),
    (5, 28, [2] * 10),
])
def test_planted_coevents_through_the_pipeline(seed, k, sizes):
    """Planted DFs of one sector of 25 to 30 histories, past the brute
    oracles and inside the grid join: raw_df, find_zero_sets and
    enumerate_primitive_coevents give exactly the planted zero events (each
    nontrivial and maximal, none borderline) and every transversal of the
    blocks as a co-event."""
    df, blocks = planted_coevent_df(np.random.default_rng(seed), k, sizes)
    full = (1 << k) - 1
    zeros = sort_masks([full & ~b for b in blocks], k)
    catalog = find_zero_sets(df)
    (s,) = catalog.sectors
    assert list(s.zero_masks) == list(s.nontrivial_masks) == zeros
    assert list(s.maximal_masks) == zeros[::-1] and s.borderline_masks == ()
    members = [[1 << i for i in range(k) if b >> i & 1] for b in blocks]
    want = sort_masks([sum(pick) for pick in product(*members)], k)
    got = enumerate_primitive_coevents(df, catalog)
    assert len(got) == math.prod(sizes)
    assert [c.mask for c in got] == want
    assert not any(c.classical for c in got)


def test_planted_family_size_limits():
    """ZERO_SET_WORK_LIMIT, which admits a planted sector of 30 histories
    with 5 blocks (25 factor columns, above), refuses one of 31 with 6."""
    df, _ = planted_coevent_df(np.random.default_rng(6), 31, [5] * 6)
    assert df.factor.shape == (31, 25)
    with pytest.raises(SpaceTooLargeError, match="sector of 31 histories with 25 factor "
                                                 "columns needs 4915200 table entries, above "
                                                 "ZERO_SET_WORK_LIMIT = 4194304$"):
        find_zero_sets(df)
