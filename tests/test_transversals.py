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
from coevent import measure_analysis
from coevent.coevents import _minimal_preclusive_masks
from coevent.histories import HistorySpace, ValidationReport, _made

from coevent.tolerances import EPS_ZERO

from conftest import brute_measures, brute_primitive_masks, random_amplitude_df


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
    got = _minimal_preclusive_masks(sum(1 << i for i in members), maximal)
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
    order, which are returned."""
    want = brute_primitive_masks(df, union_rule_zeros(df))
    for top, joined in ((0, True), (1 << 40, False)):
        with mock.patch.object(measure_analysis, "_ALL_PAIRS_MAX", top):
            catalog = find_zero_sets(df)
        assert [s.primitive_masks is None for s in catalog.sectors] == [joined] * len(df.sectors())
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
    got = _minimal_preclusive_masks(sector, maximal)
    want = {sum(1 << i for i in pick) for pick in product(*blocks)}
    assert len(got) == len(want) == 10_000
    assert set(got) == want


@pytest.mark.parametrize("cap", [9_999, 10_000])
def test_coevent_count_cap(monkeypatch, cap):
    """The search stops with SpaceTooLargeError, naming the cap, on the
    first support past COEVENT_COUNT_LIMIT; 10^4 supports pass a cap of
    10^4.  The supports found so far count against the cap."""
    monkeypatch.setattr(limits, "COEVENT_COUNT_LIMIT", cap)
    sector, _, maximal = four_blocks_of_ten()
    if cap < 10_000:
        with pytest.raises(SpaceTooLargeError, match=f"found {cap + 1} primitive co-events, "
                                                     f"above COEVENT_COUNT_LIMIT = {cap}$"):
            _minimal_preclusive_masks(sector, maximal)
    else:
        assert len(_minimal_preclusive_masks(sector, maximal)) == 10_000
        with pytest.raises(SpaceTooLargeError):
            _minimal_preclusive_masks(sector, maximal, [0])
