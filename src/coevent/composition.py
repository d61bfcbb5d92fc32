"""Tensor products of decoherence functionals and composition anomalies.

The product DF of independent subsystems multiplies entrywise over pairs,
D((i,k),(j,l)) = D_A(i,j) * D_B(k,l), with the first system major in the
product index.  Composition can create zero events that no subsystem
combination explains, and can break weak decoherence of partitions whose
factors each pass it; both effects are what the report collects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpaceTooLargeError
from .histories import (
    DecoherenceFunctional,
    Event,
    HistorySpace,
    _mask_bits,
    _validated,
    sort_masks,
)
from .limits import COMPOSITION_WORK_LIMIT
from .measure_analysis import (
    PartitionReport,
    ZeroSetCatalog,
    _STEP_ENTRIES,
    _cell_index,
    _cell_matrices,
    _off_diagonal_residual,
    find_decoherent_partitions,
    find_zero_sets,
)
from .tolerances import EPS_DF


def _label_suffix(label: str) -> str:
    return label[1:] if len(label) > 1 and label.startswith("h") else label


def tensor_df(a: DecoherenceFunctional, b: DecoherenceFunctional) -> DecoherenceFunctional:
    """Product DF over pair histories, first system major.

    Product labels concatenate factor labels with a leading 'h' stripped
    from each, so h1 x h2 becomes h12.  Final-sector structure carries over
    when both factors have it: sector 'fa,fb' is the rectangle of sectors fa
    and fb, first system major.
    """
    labels = tuple(
        "h" + _label_suffix(la) + _label_suffix(lb)
        for la in a.space.labels for lb in b.space.labels
    )
    sectors = None
    if a.space.sectors is not None and b.space.sectors is not None:
        sectors = tuple(
            (f"{fa},{fb}", _pair_mask(ma, mb, b.size))
            for fa, ma in a.space.sectors for fb, mb in b.space.sectors
        )
    space = HistorySpace(labels=labels, sectors=sectors)
    return _validated(DecoherenceFunctional(space=space, matrix=np.kron(a.matrix, b.matrix)),
                      "product decoherence functional")


def _pair_mask(mask_a: int, mask_b: int, nb: int) -> int:
    """The rectangle mask_a x mask_b as a product mask, first system major."""
    return sum(mask_b << (i * nb) for i in range(mask_a.bit_length()) if mask_a >> i & 1)


@dataclass(frozen=True)
class WeakViolation:
    """A weak-decoherence failure of a product of passing factor partitions."""

    partition_a: PartitionReport
    partition_b: PartitionReport
    product_cells: tuple[Event, ...]
    residual: float

    def as_dict(self) -> dict:
        return {
            "partition_a": self.partition_a.cell_labels(),
            "partition_b": self.partition_b.cell_labels(),
            "product_cells": [list(c.labels) for c in self.product_cells],
            "residual": self.residual,
        }


@dataclass(frozen=True)
class CompositionReport:
    """Emergent zero events and weak-decoherence violations of a product DF."""

    product: DecoherenceFunctional
    emergent_zero: tuple[Event, ...]
    weak_violations: tuple[WeakViolation, ...]

    def as_dict(self) -> dict:
        return {
            "emergent_zero": [list(e.labels) for e in self.emergent_zero],
            "weak_violations": [v.as_dict() for v in self.weak_violations],
        }


def _emergent_zero_events(cat_a: ZeroSetCatalog, cat_b: ZeroSetCatalog,
                          cat_p: ZeroSetCatalog) -> list[Event]:
    """Product zero events no union of rectangles Z_A x S_B and S_A x Z_B
    covers, in the product catalog's sectorwise order.

    Such a union covers column k of an event E by every factor-A zero event
    inside that column.  Each of those is a union of one zero mask per
    sector, the empty mask included, so the sector zero masks inside the
    column cover the same set and nothing is assembled.  Rows likewise, with B.
    """
    na, nb = cat_a.df.size, cat_b.df.size
    zeros_a = _mask_bits([m for s in cat_a.sectors for m in s.zero_masks if m], na)
    zeros_b = _mask_bits([m for s in cat_b.sectors for m in s.zero_masks if m], nb)
    space = cat_p.df.space
    out = []
    for sector in cat_p.sectors:
        shape = _mask_bits([sector.sector_mask], na * nb).reshape(na, nb)
        # Only factor zero masks inside the sector's rows (columns) fit in its events.
        za = zeros_a[~(zeros_a & ~shape.any(axis=1)).any(axis=1)]
        zb = zeros_b[~(zeros_b & ~shape.any(axis=0)).any(axis=1)]
        masks = sort_masks(space, [m for m in sector.zero_masks if m])
        step = max(1, _STEP_ENTRIES // (len(za) * nb + len(zb) * na + na * nb))
        for start in range(0, len(masks), step):
            chunk = masks[start:start + step]
            events = _mask_bits(chunk, na * nb).reshape(-1, na, nb)
            outside = ~events
            covered = (za.T @ ~(za @ outside)) | (~(outside @ zb.T) @ zb)
            emergent = (covered != events).any(axis=(1, 2))
            out.extend(Event(space, m) for m, flag in zip(chunk, emergent) if flag)
    return out


def _weak_violations(a: DecoherenceFunctional, b: DecoherenceFunctional,
                     product: DecoherenceFunctional, parts_a: list[PartitionReport],
                     parts_b: list[PartitionReport]) -> list[WeakViolation]:
    """Products of the given factor partitions that fail weak decoherence.

    Product cells are a-major, so D(A x B, A' x B') = D_A(A, A') D_B(B, B')
    makes a product partition's cell matrix kron(M_a, M_b); b's cell
    matrices are stacked by cell count and checked against each M_a at once.
    """
    by_count: dict[int, list[int]] = {}
    for i, p in enumerate(parts_b):
        by_count.setdefault(len(p.cells), []).append(i)
    groups = [(idx, _cell_matrices(b.matrix, np.array([_cell_index(b, parts_b[i].cells)
                                                        for i in idx])))
              for idx in by_count.values()]
    out = []
    for pa in parts_a:
        mat_a = _cell_matrices(a.matrix, _cell_index(a, pa.cells))
        failing = []
        for idx, mats_b in groups:
            c = mat_a.shape[-1] * mats_b.shape[-1]
            step = max(1, _STEP_ENTRIES // (c * c))
            for start in range(0, len(idx), step):
                kron = mat_a[None, :, None, :, None] * mats_b[start:start + step, None, :, None, :]
                residuals = _off_diagonal_residual(kron.reshape(-1, c, c), "weak")
                failing.extend((idx[start + j], float(residuals[j]))
                               for j in np.flatnonzero(residuals > EPS_DF))
        for ib, residual in sorted(failing):
            pb = parts_b[ib]
            cells = tuple(Event(product.space, _pair_mask(ca.mask, cb.mask, b.size))
                          for ca in pa.cells for cb in pb.cells)
            out.append(WeakViolation(partition_a=pa, partition_b=pb, product_cells=cells,
                                     residual=residual))
    return out


def composition_anomalies(a: DecoherenceFunctional,
                          b: DecoherenceFunctional) -> CompositionReport:
    """Compare a product DF against its factors.

    A product zero event (from the product catalog's sectorwise listing) is
    emergent when it is not a union of rectangles Z_A x S_B or S_A x Z_B
    with a factor zero event on one side; every such rectangle is zero by
    the rectangle rule, so a covered event is explained by the factors.
    Weak violations are products of weakly decoherent factor partitions
    that fail weak decoherence; SpaceTooLargeError is raised before they
    are checked when the work exceeds COMPOSITION_WORK_LIMIT.
    """
    product = tensor_df(a, b)
    emergent = _emergent_zero_events(find_zero_sets(a), find_zero_sets(b),
                                     find_zero_sets(product))
    parts_a = find_decoherent_partitions(a, "weak", max_cells=a.size)
    parts_b = find_decoherent_partitions(b, "weak", max_cells=b.size)
    work = sum(len(p.cells) ** 2 for p in parts_a) * sum(len(p.cells) ** 2 for p in parts_b)
    if work > COMPOSITION_WORK_LIMIT:
        raise SpaceTooLargeError(
            f"weak-violation check of {work} product cell-matrix entries exceeds "
            f"COMPOSITION_WORK_LIMIT = {COMPOSITION_WORK_LIMIT}"
        )
    return CompositionReport(
        product=product,
        emergent_zero=tuple(emergent),
        weak_violations=tuple(_weak_violations(a, b, product, parts_a, parts_b)),
    )
