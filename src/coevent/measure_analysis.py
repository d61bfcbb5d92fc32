"""Zero-set catalogs and decoherent-partition search for a validated DF.

Zero events are enumerated exhaustively per final sector and stored with a
union-assembly rule: an event is a zero event iff its part in every sector
is one of that sector's zero events.  This is exact under strong positivity,
where the measure is additive and nonnegative across verified sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product

import numpy as np

from .errors import InvalidPartitionError, NotAZeroSetError, SpaceTooLargeError
from .histories import _STEP_ENTRIES, DecoherenceFunctional, Event, _mask_bits, sort_masks
from .limits import ASSEMBLY_LIMIT, PARTITION_COUNT_LIMIT, SECTOR_ENUMERATION_LIMIT
from .tolerances import BORDERLINE_MAX, EPS_DF, EPS_ZERO


def _subset_measures(block: np.ndarray) -> np.ndarray:
    """mu of every subset of a k x k Hermitian block, indexed by bitmask.

    Built by doubling: adding member b to a mask adds D[b, b] plus twice the
    real part of row b against the existing members.
    """
    k = block.shape[0]
    vals = np.zeros(1 << k)
    rows = 2.0 * np.real(block)
    diag = np.real(np.diagonal(block))
    for b in range(k):
        cross = np.zeros(1 << b)
        for j in range(b):
            half = 1 << j
            cross[half: half << 1] = cross[:half] + rows[b, j]
        vals[1 << b: 1 << (b + 1)] = vals[: 1 << b] + diag[b] + cross
    return vals


def _spread_mask(local_mask: int, members: tuple[int, ...]) -> int:
    g = 0
    b = 0
    while local_mask:
        if local_mask & 1:
            g |= 1 << members[b]
        local_mask >>= 1
        b += 1
    return g


def _maximal_masks(masks: list[int]) -> list[int]:
    """Inclusion-maximal members of a family of bitmasks."""
    out: list[int] = []
    for m in sorted(masks, key=lambda x: -int(x).bit_count()):
        if not any(m & ~kept == 0 for kept in out):
            out.append(m)
    return out


@dataclass(frozen=True)
class SectorZeroData:
    """Exhaustive zero-set data for one final sector (global bitmasks)."""

    label: str
    sector_mask: int
    members: tuple[int, ...]
    zero_masks: frozenset[int]
    maximal_masks: tuple[int, ...]
    nontrivial_masks: tuple[int, ...]
    borderline_masks: tuple[int, ...]


class ZeroSetCatalog:
    """Per-sector zero events of a DF plus the union-assembly rule."""

    def __init__(self, df: DecoherenceFunctional, sectors: tuple[SectorZeroData, ...]):
        self.df = df
        self.sectors = sectors

    def is_zero_event(self, event: Event) -> bool:
        """True iff every sector part of the event is a sector zero event."""
        return all(event.mask & s.sector_mask in s.zero_masks for s in self.sectors)

    def _events(self, mask_lists) -> list[Event]:
        space = self.df.space
        out = []
        for masks in mask_lists:
            out.extend(Event(space, m) for m in sort_masks(space, masks))
        return out

    def zero_events_sectorwise(self) -> list[Event]:
        """Nonempty zero events lying inside a single sector, sector by sector."""
        return self._events([m for m in s.zero_masks if m] for s in self.sectors)

    def nontrivial_zero_events(self) -> list[Event]:
        return self._events(s.nontrivial_masks for s in self.sectors)

    def borderline_events(self) -> list[Event]:
        """Events whose measure falls inside the borderline warning band."""
        return self._events(s.borderline_masks for s in self.sectors)

    def maximal_zero_events(self) -> list[Event]:
        """Inclusion-maximal zero events, assembled as unions across sectors.

        Raises SpaceTooLargeError beyond ASSEMBLY_LIMIT combinations.
        """
        per_sector = [s.maximal_masks or (0,) for s in self.sectors]
        if math.prod(len(masks) for masks in per_sector) > ASSEMBLY_LIMIT:
            raise SpaceTooLargeError(
                f"zero-event assembly exceeds ASSEMBLY_LIMIT = {ASSEMBLY_LIMIT} combinations"
            )
        # Sectors are disjoint, so one mask per sector sums to their union.
        assembled = {sum(choice) for choice in product(*per_sector)}
        return [Event(self.df.space, m) for m in sort_masks(self.df.space, assembled)]

    def counts(self) -> dict:
        return {
            "sectors": len(self.sectors),
            "zero_sectorwise": sum(len([m for m in s.zero_masks if m]) for s in self.sectors),
            "nontrivial": sum(len(s.nontrivial_masks) for s in self.sectors),
            "borderline": sum(len(s.borderline_masks) for s in self.sectors),
        }


def find_zero_sets(df: DecoherenceFunctional) -> ZeroSetCatalog:
    """Exhaustively catalog measure-zero events of a validated DF.

    Enumeration runs per verified final sector, or over the whole space when
    no block structure is available.  Raises SpaceTooLargeError when any
    enumerated block exceeds SECTOR_ENUMERATION_LIMIT members.
    """
    if df.validation is not None and not df.validation.passed:
        raise NotAZeroSetError(
            "refusing to catalog a decoherence functional that failed validation"
        )
    data = []
    for name, sector_mask in df.sectors():
        members = Event(df.space, sector_mask).indices
        k = len(members)
        if k > SECTOR_ENUMERATION_LIMIT:
            raise SpaceTooLargeError(
                f"sector of {k} histories exceeds SECTOR_ENUMERATION_LIMIT = "
                f"{SECTOR_ENUMERATION_LIMIT}"
            )
        rows = df.factor[list(members)]
        block = np.conjugate(rows) @ rows.T
        vals = _subset_measures(block)
        zero_local = np.flatnonzero(np.abs(vals) <= EPS_ZERO)
        border_local = np.flatnonzero((np.abs(vals) > EPS_ZERO) & (np.abs(vals) <= BORDERLINE_MAX))
        diag_pos = [bool(vals[1 << b] > EPS_ZERO) for b in range(k)]
        zero_masks = [_spread_mask(int(m), members) for m in zero_local]
        # Nontrivial: some proper subset has positive measure.  Under strong
        # positivity that is a singleton check, since Cauchy-Schwarz makes
        # every subset of an event of null histories null.
        nontrivial = [
            _spread_mask(int(m), members)
            for m in zero_local
            if int(m).bit_count() >= 2 and any(diag_pos[b] for b in range(k) if m >> b & 1)
        ]
        data.append(SectorZeroData(
            label=name,
            sector_mask=sector_mask,
            members=members,
            zero_masks=frozenset(zero_masks),
            maximal_masks=tuple(_maximal_masks(zero_masks)),
            nontrivial_masks=tuple(nontrivial),
            borderline_masks=tuple(_spread_mask(int(m), members) for m in border_local),
        ))
    return ZeroSetCatalog(df, tuple(data))


@dataclass(frozen=True)
class PartitionReport:
    """Off-diagonal residual of one partition under one decoherence mode."""

    cells: tuple[Event, ...]
    mode: str
    residual: float
    passed: bool

    def cell_labels(self) -> list[list[str]]:
        return [list(c.labels) for c in self.cells]

    def as_dict(self) -> dict:
        return {
            "cells": self.cell_labels(),
            "mode": self.mode,
            "residual": self.residual,
            "passed": self.passed,
        }


def _cell_index(df: DecoherenceFunctional, cells) -> np.ndarray:
    """The cell of each history, for cells that partition the space."""
    bits = _mask_bits([c.mask for c in cells], df.size)
    if not len(bits) or not bits.any(axis=1).all():
        raise InvalidPartitionError("partition cells must be nonempty")
    if not (bits.sum(axis=0) == 1).all():
        raise InvalidPartitionError("cells must be disjoint and cover the space")
    return bits.argmax(axis=0)


def _cell_matrices(factor: np.ndarray, cell_index: np.ndarray) -> np.ndarray:
    """Cell matrices M = conj(W) W^T, W = P^T V, of partitions given as
    cell-index vectors.

    cell_index has shape (..., n) with entries 0..c-1; P is the one-hot
    history-to-cell matrix, so row a of W sums the factor rows of cell a and
    M[..., a, b] = D(cell a, cell b).  A cell no history maps to gives a
    zero row and column.
    """
    onehot = (cell_index[..., :, None] == np.arange(int(cell_index.max()) + 1)).astype(float)
    cells = np.swapaxes(onehot, -1, -2) @ factor
    return np.conjugate(cells) @ np.swapaxes(cells, -1, -2)


def _off_diagonal_residual(cell_mats: np.ndarray, mode: str) -> np.ndarray:
    """Largest off-diagonal |M| (medium) or |Re M| (weak) of each cell matrix."""
    if mode not in ("medium", "weak"):
        raise ValueError(f"unknown decoherence mode {mode!r}")
    vals = np.abs(cell_mats) if mode == "medium" else np.abs(cell_mats.real)
    c = vals.shape[-1]
    flat = vals.reshape(vals.shape[:-2] + (c * c,))
    flat[..., :: c + 1] = 0.0
    return flat.max(axis=-1)


def is_decoherent_partition(df: DecoherenceFunctional, cells, mode: str) -> PartitionReport:
    """Check pairwise off-diagonal terms of a partition.

    mode 'medium' bounds |D(A, B)|, mode 'weak' bounds |Re D(A, B)|; both
    against EPS_DF.
    """
    cells = tuple(cells)
    cell_mats = _cell_matrices(df.factor, _cell_index(df, cells))
    residual = float(_off_diagonal_residual(cell_mats, mode))
    return PartitionReport(cells=cells, mode=mode, residual=residual, passed=residual <= EPS_DF)


def iter_set_partitions(n: int, max_cells: int):
    """Restricted-growth strings over n elements with at most max_cells blocks.

    Yields lists ``a`` with a[0] = 0 and a[i] <= max(a[:i]) + 1, in
    lexicographic order.
    """
    if n == 0:
        return
    a = [0] * n

    def rec(i: int, top: int):
        if i == n:
            yield list(a)
            return
        for b in range(min(top + 1, max_cells - 1) + 1):
            a[i] = b
            yield from rec(i + 1, max(top, b))

    yield from rec(1, 0)


def _partition_count(n: int, max_cells: int) -> int:
    """Set partitions of n elements into at most max_cells blocks, the sum of
    the Stirling numbers S(n, k) over k <= max_cells.  The count grows with
    the number of elements, so it stops at the first m <= n whose count
    passes PARTITION_COUNT_LIMIT: exact up to the cap, a lower bound above."""
    row = [1]  # S(m, k) for k <= min(m, max_cells), from m = 0
    for m in range(1, n + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, len(row))] + [1] * (m <= max_cells)
        if sum(row) > PARTITION_COUNT_LIMIT:
            break
    return sum(row)


def find_decoherent_partitions(df: DecoherenceFunctional, mode: str,
                               max_cells: int) -> list[PartitionReport]:
    """All partitions into at most max_cells cells passing the mode's check.

    Partitions are enumerated as restricted-growth strings (lexicographic),
    cells ordered by least member.  Raises SpaceTooLargeError before any
    work when there are more than PARTITION_COUNT_LIMIT such partitions.
    """
    n = df.size
    if max_cells < 1:
        raise ValueError("max_cells must be at least 1")
    count = _partition_count(n, max_cells)
    if count > PARTITION_COUNT_LIMIT:
        raise SpaceTooLargeError(
            f"partition search over {n} histories into at most {max_cells} cells has at "
            f"least {count} partitions, above PARTITION_COUNT_LIMIT = {PARTITION_COUNT_LIMIT}"
        )
    out = []
    strings = iter_set_partitions(n, max_cells)
    while batch := list(islice(strings, max(1, _STEP_ENTRIES // (n * n or 1)))):
        residuals = _off_diagonal_residual(_cell_matrices(df.factor, np.array(batch)), mode)
        for i in np.flatnonzero(residuals <= EPS_DF):
            cells = tuple(Event(df.space, sum(1 << h for h, b in enumerate(batch[i]) if b == k))
                          for k in range(max(batch[i]) + 1))
            out.append(PartitionReport(cells=cells, mode=mode,
                                       residual=float(residuals[i]), passed=True))
    return out
