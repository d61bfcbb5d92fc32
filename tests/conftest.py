"""Shared fixtures and brute-force oracles.

The oracles deliberately avoid the shipped algorithms: measures come from
direct submatrix sums over every one of the 2^n events, preclusivity is
checked against every zero event instead of per-sector maximal covers, and
minimality falls out of pairwise subset comparison.  Intended for spaces of
at most ~14 histories.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from coevent import DecoherenceFunctional, Event, build_df, build_scenario, raw_df, validate_df
from coevent.histories import raw_space

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EPS = 1e-9


def scenario_dfs(name: str, **params) -> dict[str, DecoherenceFunctional]:
    """Decoherence functionals of a named scenario, keyed by entry label."""
    build = build_scenario(name, params)
    out = {}
    for entry in build.entries:
        out[entry.label] = entry.df if entry.df is not None else build_df(entry.schema)
    return out


def unvalidated_raw_df(matrix) -> DecoherenceFunctional:
    """A raw DF that keeps its validation report even when the report fails."""
    mat = np.asarray(matrix, dtype=complex)
    df = DecoherenceFunctional(raw_space(f"h{i + 1}" for i in range(len(mat))), mat)
    df.validation = validate_df(df)
    return df


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def support_set(list_of_label_lists) -> set[tuple[str, ...]]:
    """Order-free form of a family of label lists."""
    return {tuple(sorted(labels)) for labels in list_of_label_lists}


def brute_zero_masks(df: DecoherenceFunctional) -> set[int]:
    """Masks of every event with |mu| <= EPS, by direct scan over all masks."""
    n = df.size
    mat = np.real(df.matrix)
    masks = np.arange(1 << n, dtype=np.int64)
    members = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    mu = np.einsum("mi,ij,mj->m", members, mat, members)
    return set(masks[np.abs(mu) <= EPS].tolist())


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


def brute_decoherent_partitions(df: DecoherenceFunctional, mode: str,
                                max_cells: int) -> list[tuple[list[int], float]]:
    """(cell masks, residual) of each partition into at most max_cells cells
    whose largest off-diagonal |D(A, B)| (medium) or |Re D(A, B)| (weak) is
    at most EPS, by direct submatrix sums, in restricted-growth-string order.
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
        cells = [[i for i in range(n) if rgs[i] == k] for k in range(max(rgs) + 1)]
        residual = 0.0
        for x in range(len(cells)):
            for y in range(x + 1, len(cells)):
                val = complex(df.matrix[np.ix_(cells[x], cells[y])].sum())
                residual = max(residual, abs(val) if mode == "medium" else abs(val.real))
        if residual <= EPS:
            out.append(([sum(1 << i for i in c) for c in cells], residual))
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


def random_amplitude_df(rng: np.random.Generator, n: int) -> DecoherenceFunctional:
    """Strongly positive DF with planted zero events.

    Histories get amplitudes from a small collision-prone set and a random
    hidden sector; D(i, j) = conj(a_i) a_j within a sector and 0 across, a
    Gram matrix by construction.  The sector assignment is not exposed, so
    catalogs must fall back to the global search.
    """
    base = np.array([1.0, -1.0, 0.5, -0.5, 0.0, 1j, -1j])
    while True:
        amps = rng.choice(base, size=n) * (0.5 + rng.random())
        sectors = rng.integers(0, max(2, n // 3), size=n)
        mat = np.where(
            sectors[:, None] == sectors[None, :],
            np.conjugate(amps)[:, None] * amps[None, :],
            0.0,
        )
        total = float(np.real(mat.sum()))
        if total > 1e-6:
            return raw_df(mat / total)


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
