"""Zero-set catalogs and decoherent-partition search for a validated DF.

Zero events are enumerated exhaustively per final sector and stored with a
union-assembly rule: an event is a zero event iff its part in every sector
is one of that sector's zero events.  This is exact under strong positivity,
where the measure is additive and nonnegative across verified sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

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
    """Inclusion-maximal members of a family of bitmasks ordered by cardinality."""
    out: list[int] = []
    for m in reversed(masks):
        if not any(m & ~kept == 0 for kept in out):
            out.append(m)
    return out


@dataclass(frozen=True)
class SectorZeroData:
    """Exhaustive zero-set data for one final sector (global bitmasks).

    The mask lists are in canonical order and leave out the empty event,
    except that ``maximal_masks`` is (0,) when the empty event is the only
    zero event of the sector.
    """

    label: str
    sector_mask: int
    zero_masks: tuple[int, ...]
    maximal_masks: tuple[int, ...]
    nontrivial_masks: tuple[int, ...]
    borderline_masks: tuple[int, ...]


class ZeroSetCatalog:
    """Per-sector zero events of a DF plus the union-assembly rule."""

    def __init__(self, df: DecoherenceFunctional, sectors: tuple[SectorZeroData, ...]):
        self.df = df
        self.sectors = sectors

    def is_zero_event(self, event: Event) -> bool:
        """True iff every sector part of the event is empty or a sector zero event."""
        for s in self.sectors:
            part = event.mask & s.sector_mask
            if part and part not in s.zero_masks:
                return False
        return True

    def _events(self, mask_lists) -> list[Event]:
        return [Event(self.df.space, m) for masks in mask_lists for m in masks]

    def zero_events_sectorwise(self) -> list[Event]:
        """Nonempty zero events lying inside a single sector, sector by sector."""
        return self._events(s.zero_masks for s in self.sectors)

    def nontrivial_zero_events(self) -> list[Event]:
        return self._events(s.nontrivial_masks for s in self.sectors)

    def borderline_events(self) -> list[Event]:
        """Events whose measure falls inside the borderline warning band."""
        return self._events(s.borderline_masks for s in self.sectors)

    def maximal_zero_events(self) -> list[Event]:
        """Inclusion-maximal zero events, assembled as unions across sectors.

        Raises SpaceTooLargeError beyond ASSEMBLY_LIMIT combinations.
        """
        per_sector = [s.maximal_masks for s in self.sectors]
        if math.prod(len(masks) for masks in per_sector) > ASSEMBLY_LIMIT:
            raise SpaceTooLargeError(
                f"zero-event assembly exceeds ASSEMBLY_LIMIT = {ASSEMBLY_LIMIT} combinations"
            )
        # Sectors are disjoint, so one mask per sector sums to their union.
        assembled = {sum(choice) for choice in product(*per_sector)}
        return [Event(self.df.space, m) for m in sort_masks(assembled, self.df.size)]

    def counts(self) -> dict:
        return {
            "sectors": len(self.sectors),
            "zero_sectorwise": sum(len(s.zero_masks) for s in self.sectors),
            "nontrivial": sum(len(s.nontrivial_masks) for s in self.sectors),
            "borderline": sum(len(s.borderline_masks) for s in self.sectors),
        }


def find_zero_sets(df: DecoherenceFunctional) -> ZeroSetCatalog:
    """Exhaustively catalog measure-zero events of a validated DF.

    Enumeration runs per verified final sector, or over the whole space when
    no block structure is available.  Raises SpaceTooLargeError when any
    enumerated block exceeds SECTOR_ENUMERATION_LIMIT members.

    A sector's masks are found and sorted in sector-local bits, bit b for
    its b-th member.  Members ascend, so the local canonical order is the
    global one, and each mask is spread to global bits once.
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
        vals = np.abs(_subset_measures(np.conjugate(rows) @ rows.T))
        # The empty event comes first: its measure is exactly 0.
        zero = [_spread_mask(m, members)
                for m in sort_masks(np.flatnonzero(vals <= EPS_ZERO).tolist(), k)]
        border = np.flatnonzero((vals > EPS_ZERO) & (vals <= BORDERLINE_MAX)).tolist()
        # Nontrivial: some proper subset has positive measure.  Under strong
        # positivity that is a singleton check, since Cauchy-Schwarz makes
        # every subset of an event of null histories null.
        null = sum(m for m in zero if m.bit_count() == 1)
        data.append(SectorZeroData(
            label=name,
            sector_mask=sector_mask,
            zero_masks=tuple(zero[1:]),
            maximal_masks=tuple(_maximal_masks(zero)),
            nontrivial_masks=tuple(m for m in zero if m.bit_count() >= 2 and m & ~null),
            borderline_masks=tuple(_spread_mask(m, members) for m in sort_masks(border, k)),
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


def set_partition_strings(n: int, max_cells: int) -> np.ndarray:
    """Restricted-growth strings over n elements with at most max_cells blocks.

    One int8 row per string ``a``, with a[0] = 0 and a[i] <= max(a[:i]) + 1,
    rows in lexicographic order.  The strings grow one element per step,
    each row r getting min(top_r + 2, max_cells) children, top_r its largest
    value; the row count of the next step is the number of partitions of
    one more element, so it is checked against PARTITION_COUNT_LIMIT before
    the step and SpaceTooLargeError names the first count above the cap.
    A value v needs Bell(v + 1) rows under the cap, so v <= 10 fits int8.
    """
    if max_cells < 1:
        raise ValueError("max_cells must be at least 1")
    # One cell allows only the all-zero string.  With two or more, every row
    # has at least two children, so the cap stops the growth within 20 steps.
    strings = np.zeros((min(n, 1), n if max_cells == 1 else min(n, 1)), dtype=np.int8)
    while strings.shape[1] < n:
        children = np.minimum(strings.max(axis=1).astype(np.int64) + 2, max_cells)
        count = int(children.sum())
        if count > PARTITION_COUNT_LIMIT:
            raise SpaceTooLargeError(
                f"partition search over {n} histories into at most {max_cells} cells has at "
                f"least {count} partitions, above PARTITION_COUNT_LIMIT = {PARTITION_COUNT_LIMIT}"
            )
        first_child = np.repeat(np.cumsum(children) - children, children)
        value = (np.arange(count) - first_child).astype(np.int8)
        strings = np.column_stack((np.repeat(strings, children, axis=0), value))
    return strings


def find_decoherent_partitions(df: DecoherenceFunctional, mode: str,
                               max_cells: int) -> list[PartitionReport]:
    """All partitions into at most max_cells cells passing the mode's check.

    Partitions are enumerated as restricted-growth strings (lexicographic),
    cells ordered by least member.  Raises SpaceTooLargeError, before any
    cell matrix is built, when there are more than PARTITION_COUNT_LIMIT
    such partitions.
    """
    n = df.size
    strings = set_partition_strings(n, max_cells)
    step = max(1, _STEP_ENTRIES // (n * n or 1))
    out = []
    for start in range(0, len(strings), step):
        batch = strings[start:start + step]
        residuals = _off_diagonal_residual(_cell_matrices(df.factor, batch), mode)
        for i in np.flatnonzero(residuals <= EPS_DF):
            row = batch[i].tolist()
            cells = tuple(Event(df.space, sum(1 << h for h, b in enumerate(row) if b == k))
                          for k in range(max(row) + 1))
            out.append(PartitionReport(cells=cells, mode=mode,
                                       residual=float(residuals[i]), passed=True))
    return out
