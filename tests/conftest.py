"""Shared fixtures and brute-force oracles.

The oracles deliberately avoid the shipped algorithms: measures come from
direct submatrix sums over every one of the 2^n events, preclusivity is
checked against every zero event instead of per-sector maximal covers, and
minimality falls out of pairwise subset comparison.  Intended for spaces of
at most ~14 histories.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys

import numpy as np
import pytest

from coevent import (
    DecoherenceFunctional,
    Event,
    build_df,
    build_scenario,
    raw_df,
)
from coevent import histories

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EPS = 1e-9


def scenario_dfs(name: str, **params) -> dict[str, DecoherenceFunctional]:
    """Decoherence functionals of a named scenario, keyed by entry label."""
    build = build_scenario(name, params)
    out = {}
    for entry in build.entries:
        out[entry.label] = entry.df if entry.df is not None else build_df(entry.schema)
    return out


def outcome_tuples(schema) -> list[tuple[int, ...]]:
    """Outcome indices of every history in enumeration order: lexicographic,
    first slice most significant."""
    return list(itertools.product(*(range(len(s.decomposition)) for s in schema.slices)))


def projectors(dec) -> list[np.ndarray]:
    """The outcome projectors of a decomposition, each the sum of the outer
    products of the basis columns the outcome owns."""
    return [(dec.basis * row) @ np.conjugate(dec.basis.T) for row in dec.owner]


def amplitude(schema, outcomes) -> complex:
    """<final basis ket| C |initial ket> of a pure-state history whose final
    outcome is rank one, by class-operator products; |amplitude|^2 is the
    history's measure."""
    branch = schema.ket
    for s, i in zip(schema.slices, outcomes):
        if s.evolution is not None:
            branch = s.evolution @ branch
        branch = projectors(s.decomposition)[i] @ branch
    final = schema.slices[-1].decomposition
    assert final.ranks[outcomes[-1]] == 1
    return complex(np.vdot(final.basis[:, final.owner[outcomes[-1]].argmax()], branch))


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def support_set(list_of_label_lists) -> set[tuple[str, ...]]:
    """Order-free form of a family of label lists."""
    return {tuple(sorted(labels)) for labels in list_of_label_lists}


def brute_measures(df: DecoherenceFunctional) -> np.ndarray:
    """mu of every event, indexed by mask, by direct sums over the matrix."""
    n = df.size
    masks = np.arange(1 << n, dtype=np.int64)
    members = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    return np.einsum("mi,ij,mj->m", members, np.real(df.matrix), members)


def brute_zero_masks(df: DecoherenceFunctional) -> set[int]:
    """Masks of every event with |mu| <= EPS, by direct scan over all masks.

    The catalog implements the union-assembly rule "every sector part
    <= EPS_ZERO" (EPS here).  Across verified sectors the parts' measures are
    nonnegative and add, so every event this scan finds passes that rule;
    the catalog lists more only when parts within the tolerance add up to
    more than EPS, as in test_union_assembly_rule_at_the_tolerance_edge.
    """
    return set(np.flatnonzero(np.abs(brute_measures(df)) <= EPS).tolist())


def brute_block_residual(df: DecoherenceFunctional) -> float:
    """The exact largest |D(i, j)| over histories i, j in different final
    sectors, read off the dense matrix."""
    sector = np.zeros(df.size, dtype=int)
    for s, (_, mask) in enumerate(df.space.sectors):
        sector[[i for i in range(df.size) if mask >> i & 1]] = s
    return float(np.abs(df.matrix)[sector[:, None] != sector].max(initial=0.0))


def subset_measures_simple(block: np.ndarray) -> np.ndarray:
    """mu of every subset of a k x k block by direct submatrix sums, O(4^k)."""
    k = block.shape[0]
    out = np.zeros(1 << k)
    for m in range(1 << k):
        idx = [i for i in range(k) if m >> i & 1]
        out[m] = float(np.real(block[np.ix_(idx, idx)].sum()))
    return out


def brute_primitive_masks(df: DecoherenceFunctional,
                          zeros: set[int] | None = None) -> list[int]:
    """Minimal supports contained in no zero event.

    Preclusivity is upward closed, so a preclusive mask is minimal exactly
    when no one-bit removal stays preclusive.
    """
    if zeros is None:
        zeros = brute_zero_masks(df)
    n = df.size
    masks = np.arange(1 << n, dtype=np.int64)
    inside_zero = np.zeros(1 << n, dtype=bool)
    for z in zeros:
        inside_zero |= (masks & ~z) == 0
    preclusive = ~inside_zero
    minimal = preclusive.copy()
    for i in range(n):
        has_bit = (masks >> i & 1) == 1
        minimal[has_bit] &= ~preclusive[masks[has_bit] ^ (1 << i)]

    def bits(m):
        return tuple(i for i in range(n) if m >> i & 1)

    found = [int(m) for m in masks[minimal]]
    return sorted(found, key=lambda m: (bin(m).count("1"), bits(m)))


def brute_maximal_masks(zeros: set[int]) -> list[int]:
    return sorted(
        m for m in zeros
        if not any(o != m and m & ~o == 0 for o in zeros)
    )


def brute_partition_residual(df: DecoherenceFunctional, cell_masks, mode: str) -> float:
    """The largest off-diagonal |D(A, B)| (medium) or |Re D(A, B)| (weak)
    over pairs of cells, by direct submatrix sums of the dense matrix.  The
    cells must be nonempty, disjoint and cover the DF's histories."""
    assert mode in ("medium", "weak"), mode
    n = df.size
    cells = [[i for i in range(n) if m >> i & 1] for m in cell_masks]
    assert all(cells) and sorted(i for c in cells for i in c) == list(range(n)), cell_masks
    residual = 0.0
    for x in range(len(cells)):
        for y in range(x + 1, len(cells)):
            val = complex(df.matrix[np.ix_(cells[x], cells[y])].sum())
            residual = max(residual, abs(val) if mode == "medium" else abs(val.real))
    return residual


def brute_decoherent_partitions(df: DecoherenceFunctional, mode: str,
                                max_cells: int) -> list[tuple[list[int], float]]:
    """(cell masks, residual) of each partition into at most max_cells cells
    whose brute_partition_residual is at most EPS, in restricted-growth-string
    order.
    """
    n = df.size

    def strings(prefix):
        if len(prefix) == n:
            yield prefix
            return
        for b in range(min(max(prefix) + 2, max_cells)):
            yield from strings(prefix + [b])

    out = []
    for rgs in strings([0]):
        masks = [sum(1 << i for i in range(n) if rgs[i] == k) for k in range(max(rgs) + 1)]
        residual = brute_partition_residual(df, masks, mode)
        if residual <= EPS:
            out.append((masks, residual))
    return out


def brute_emergent_masks(a: DecoherenceFunctional, b: DecoherenceFunctional,
                         product: DecoherenceFunctional) -> set[int]:
    """Product zero events lying in one product sector that are not the union
    of the rectangles Z x S and S x Z inside them, Z any factor zero event and
    S any factor event.  Every rectangle and zero event comes from a direct
    scan over all masks; product indices are first system major.
    """
    na, nb = a.size, b.size

    def rect(mask_a, mask_b):
        return sum(mask_b << (i * nb) for i in range(na) if mask_a >> i & 1)

    rects = {rect(z, s) for z in brute_zero_masks(a) for s in range(1 << nb)}
    rects |= {rect(s, z) for z in brute_zero_masks(b) for s in range(1 << na)}
    rects = np.array(sorted(rects), dtype=np.int64)
    sectors = [m for _, m in product.sectors()]
    events = np.array(sorted(m for m in brute_zero_masks(product)
                             if m and any(m & ~s == 0 for s in sectors)), dtype=np.int64)
    out = set()
    for chunk in np.array_split(events, max(1, len(events) // 1024)):
        inside = (rects[None, :] & ~chunk[:, None]) == 0
        covered = np.bitwise_or.reduce(np.where(inside, rects[None, :], 0), axis=1)
        out.update(chunk[covered != chunk].tolist())
    return out


def mask_of(indices) -> int:
    """The mask of the given history indices; a repeated index counts once."""
    return sum(1 << int(i) for i in set(indices))


def spread_bits(local: int, members) -> int:
    """The global mask of a sector-local mask: bit b of ``local`` stands for
    history ``members[b]``, taken one bit at a time."""
    return sum(1 << g for b, g in enumerate(members) if local >> b & 1)


def label_mask(space, labels) -> int:
    """The mask of the histories of ``space`` with the given labels."""
    return mask_of(space.labels.index(lab) for lab in labels)


def complement(event: Event) -> Event:
    """The event of every history outside ``event``."""
    return Event(event.space, event.space.full_mask() & ~event.mask)


def event_value(df: DecoherenceFunctional, a: int, b: int) -> complex:
    """Bilinear extension sum_{i in a, j in b} D(i, j) of two event masks,
    from the sums of their factor rows."""
    def branch_sum(mask):
        return df.factor[[i for i in range(df.size) if mask >> i & 1]].sum(axis=0)

    return complex(np.vdot(branch_sum(a), branch_sum(b)))


def is_zero_event(catalog, mask: int) -> bool:
    """The union-assembly rule: every sector part of ``mask`` is empty or
    one of that sector's zero events."""
    return all(not mask & s.sector_mask or mask & s.sector_mask in s.zero_masks
               for s in catalog.sectors)


def masks_to_labels(df: DecoherenceFunctional, masks) -> set[tuple[str, ...]]:
    return {tuple(sorted(Event(df.space, m).labels)) for m in masks}


def random_strong_df(rng: np.random.Generator, n: int) -> DecoherenceFunctional:
    """Generic strongly positive DF: a normalized complex Gram matrix."""
    while True:
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        gram = np.conjugate(a.T) @ a
        total = float(np.real(gram.sum()))
        if total > 1e-6:
            return raw_df(gram / total)


def random_amplitude_df(rng: np.random.Generator, n: int,
                        sectors: int | None = None) -> DecoherenceFunctional:
    """Strongly positive DF with planted zero events.

    Histories get amplitudes from a small collision-prone set and a random
    hidden sector out of ``sectors`` (default max(2, n // 3)); D(i, j) =
    conj(a_i) a_j within a sector and 0 across, a Gram matrix by
    construction, whose factor has one column per sector holding a nonzero
    amplitude.  The sector assignment is not exposed, so catalogs must fall
    back to the global search.
    """
    base = np.array([1.0, -1.0, 0.5, -0.5, 0.0, 1j, -1j])
    count = sectors or max(2, n // 3)
    while True:
        amps = rng.choice(base, size=n) * (0.5 + rng.random())
        hidden = rng.integers(0, count, size=n)
        mat = np.where(
            hidden[:, None] == hidden[None, :],
            np.conjugate(amps)[:, None] * amps[None, :],
            0.0,
        )
        total = float(np.real(mat.sum()))
        if total > 1e-6:
            return raw_df(mat / total)


def planted_coevent_factor(rng: np.random.Generator, k: int, sizes) -> tuple[np.ndarray, list]:
    """Factor rows of a sector of k histories with planted co-events, and
    its disjoint blocks C_j of the given sizes (ascending index lists, drawn
    at random), which leave at least one history out.

    With K = span{1_{sector - C_j}}, the rows are an orthonormal basis of
    K-perp (c = k - len(sizes) columns), mixed by a random complex matrix
    and scaled so that they sum to a unit vector.  The measure of E is then
    zero exactly when 1_E lies in K, and the only 0/1 vectors of K are 0 and
    the 1_{sector - C_j}: so the zero events are the empty event and each
    sector - C_j, and the primitive co-events are the prod |C_j|
    transversals of the blocks, one member from each.
    """
    assert 0 < sum(sizes) < k and all(sizes)
    order, cuts = rng.permutation(k), np.cumsum([0, *sizes])
    blocks = [sorted(order[a:b].tolist()) for a, b in zip(cuts, cuts[1:])]
    spanning = np.ones((len(blocks), k))
    for j, block in enumerate(blocks):
        spanning[j, block] = 0.0
    basis = np.linalg.svd(spanning)[2][len(blocks):].T
    c = basis.shape[1]
    factor = basis @ (rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)))
    return factor / np.linalg.norm(factor.sum(axis=0)), blocks


def planted_coevent_df(rng: np.random.Generator, k: int, sizes):
    """The raw DF of planted_coevent_factor, with its blocks as masks."""
    factor, blocks = planted_coevent_factor(rng, k, sizes)
    return raw_df(np.conjugate(factor) @ factor.T), [mask_of(b) for b in blocks]


@pytest.fixture
def built_events(monkeypatch):
    """Events built while a test runs: "checked" counts Event.__post_init__
    calls, the public constructor's checks; "bulk" counts the events of
    histories._events, in every coevent module that imported it."""
    counts = {"checked": 0, "bulk": 0}
    check, bulk = Event.__post_init__, histories._events

    def counting_check(self):
        counts["checked"] += 1
        check(self)

    def counting_bulk(space, masks):
        events = bulk(space, masks)
        counts["bulk"] += len(events)
        return events

    monkeypatch.setattr(Event, "__post_init__", counting_check)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coevent" and getattr(module, "_events", None) is bulk:
            monkeypatch.setattr(module, "_events", counting_bulk)
    return counts


@pytest.fixture(scope="session")
def pbr_v1_golden():
    return load_golden("pbr_v1.json")


@pytest.fixture(scope="session")
def pbr_v2_golden():
    return load_golden("pbr_v2.json")


@pytest.fixture(scope="session")
def appendix_golden():
    return load_golden("appendix_theta.json")


@pytest.fixture(scope="session")
def composite_golden():
    return load_golden("composite_product.json")


THETA_GRID = (0.3, 0.7, 1.2)
THETA_SPECIAL = math.atan(1.0 / 3.0)


def small_scenario_dfs() -> list[tuple[str, DecoherenceFunctional]]:
    """Every scenario DF small enough for full 2^n oracle scans."""
    out = []
    for label, df in scenario_dfs("pbr-v1").items():
        out.append((f"pbr-v1:{label}", df))
    for theta in THETA_GRID + (THETA_SPECIAL,):
        for label, df in scenario_dfs("appendix-theta", theta=theta).items():
            out.append((f"theta={theta:.3f}:{label}", df))
    for label, df in scenario_dfs("composite-product").items():
        out.append((f"composite:{label}", df))
    return out
