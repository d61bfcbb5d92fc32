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

from .histories import DecoherenceFunctional, Event, HistorySpace, _validated
from .measure_analysis import (
    PartitionReport,
    assemble_sector_masks,
    find_decoherent_partitions,
    find_zero_sets,
    is_decoherent_partition,
)


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
    out = 0
    ia = 0
    ma = mask_a
    while ma:
        if ma & 1:
            mb = mask_b
            ib = 0
            while mb:
                if mb & 1:
                    out |= 1 << (ia * nb + ib)
                mb >>= 1
                ib += 1
        ma >>= 1
        ia += 1
    return out


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


def composition_anomalies(a: DecoherenceFunctional,
                          b: DecoherenceFunctional) -> CompositionReport:
    """Compare a product DF against its factors.

    A product zero event (from the product catalog's sectorwise listing) is
    emergent when it is not a union of rectangles Z_A x S_B or S_A x Z_B
    with a factor zero event on one side; every such rectangle is itself
    zero by the rectangle rule, so any covered event is explained by the
    factors alone.  Weak violations are found by checking the product of
    every pair of weakly decoherent factor partitions against the product
    DF.
    """
    product = tensor_df(a, b)
    cat_a = find_zero_sets(a)
    cat_b = find_zero_sets(b)
    cat_p = find_zero_sets(product)

    na = a.size
    nb = b.size
    zeros_a = [m for m in assemble_sector_masks([s.zero_masks for s in cat_a.sectors]) if m]
    zeros_b = [m for m in assemble_sector_masks([s.zero_masks for s in cat_b.sectors]) if m]

    emergent = []
    for event in cat_p.zero_events_sectorwise():
        covered = 0
        for za in zeros_a:
            cols = 0
            for k in range(nb):
                blk = _pair_mask(za, 1 << k, nb)
                if blk & ~event.mask == 0:
                    cols |= 1 << k
            covered |= _pair_mask(za, cols, nb)
        for zb in zeros_b:
            rows = 0
            for i in range(na):
                blk = _pair_mask(1 << i, zb, nb)
                if blk & ~event.mask == 0:
                    rows |= 1 << i
            covered |= _pair_mask(rows, zb, nb)
        if covered != event.mask:
            emergent.append(event)

    parts_a = find_decoherent_partitions(a, "weak", max_cells=a.size)
    parts_b = find_decoherent_partitions(b, "weak", max_cells=b.size)
    violations = []
    for pa in parts_a:
        for pb in parts_b:
            cells = tuple(
                Event(product.space, _pair_mask(ca.mask, cb.mask, nb))
                for ca in pa.cells for cb in pb.cells
            )
            check = is_decoherent_partition(product, cells, "weak")
            if not check.passed:
                violations.append(WeakViolation(
                    partition_a=pa, partition_b=pb, product_cells=cells,
                    residual=check.residual,
                ))
    return CompositionReport(
        product=product,
        emergent_zero=tuple(emergent),
        weak_violations=tuple(violations),
    )
