"""Co-event enumeration as minimal-transversal dualization.

Within one sector the minimal preclusive supports are the minimal
transversals of the complements of the maximal zero events.  The oracle
here scans every subset of the sector and keeps the transversals from which
no single member can be dropped, independently of the shipped search.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevent import SpaceTooLargeError, enumerate_primitive_coevents, limits
from coevent.coevents import _minimal_preclusive_masks

from conftest import brute_primitive_masks, random_amplitude_df


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
