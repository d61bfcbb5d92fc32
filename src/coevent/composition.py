"""Tensor products of decoherence functionals and composition anomalies.

The product DF of independent subsystems multiplies entrywise over pairs,
D((i,k),(j,l)) = D_A(i,j) * D_B(k,l), with the first system major in the
product index; its factor is the Kronecker product of the factors'
factors.  Composition can create zero events that no subsystem
combination explains, and can break weak decoherence of partitions whose
factors each pass it; both effects are what the report collects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .histories import (
    _STEP_ENTRIES,
    DecoherenceFunctional,
    Event,
    HistorySpace,
    _bits,
    _bulk,
    _events,
    _exact_report,
    _made,
    product_labels,
)
from .limits import refuse_above
from .measure_analysis import (
    PartitionListing,
    PartitionReport,
    _cell_sums,
    _check_zero_set_work,
    _by_key,
    _count_chunks,
    _sector_search,
    _spreader,
    find_decoherent_partitions,
)
from .tolerances import EPS_DF


def _label_suffix(label: str) -> str:
    return label[1:] if len(label) > 1 and label.startswith("h") else label


def tensor_df(a: DecoherenceFunctional, b: DecoherenceFunctional) -> DecoherenceFunctional:
    """Product DF over pair histories, first system major.

    Product labels join the factor labels, a leading 'h' stripped, after an
    'h' (product_labels): h1 x h2 is h12, h1 x h11 is h1,11.  Final-sector
    structure carries over when both factors have it: sector 'fa,fb' is the
    rectangle of sectors fa and fb, first system major.  The product is
    validated by validate_df's exact report as it is made.
    """
    labels = product_labels([[_label_suffix(x) for x in df.space.labels] for df in (a, b)],
                            "h{}")
    sectors = None
    if a.space.sectors is not None and b.space.sectors is not None:
        sectors = tuple(
            (f"{fa},{fb}", _pair_mask(ma, mb, b.size))
            for fa, ma in a.space.sectors for fb, mb in b.space.sectors
        )
    space, factor = HistorySpace(labels=labels, sectors=sectors), np.kron(a.factor, b.factor)
    return _made(space, factor, _exact_report(factor, space), "product decoherence functional")


def _largest_product_block(a: DecoherenceFunctional, b: DecoherenceFunctional) -> int:
    """A lower bound on the histories of the product's largest zero-set
    block: the rectangle of the factors' largest sectors when both spaces
    have sectors, else the whole product space, which then has none."""
    if a.space.sectors is None or b.space.sectors is None:
        return a.size * b.size
    return (max(mask.bit_count() for _, mask in a.space.sectors)
            * max(mask.bit_count() for _, mask in b.space.sectors))


def _columns(mask_a: int, nb: int) -> int:
    """The product mask of mask_a x {history 0 of b}: one bit per a-member i,
    at i * nb."""
    return sum(1 << ((low.bit_length() - 1) * nb) for low in _bits(mask_a))


def _pair_mask(mask_a: int, mask_b: int, nb: int) -> int:
    """The rectangle mask_a x mask_b as a product mask, first system major:
    mask_b copied into the row of every a-member.  mask_b < 2^nb, so the
    product mask_b * _columns(mask_a, nb) has no carries."""
    return mask_b * _columns(mask_a, nb)


@dataclass(frozen=True, slots=True)
class WeakViolation:
    """A weak-decoherence failure of a product of passing factor partitions."""

    partition_a: PartitionReport
    partition_b: PartitionReport
    space: HistorySpace
    product_masks: tuple[int, ...]
    residual: float

    def as_dict(self) -> dict:
        return {
            "partition_a": self.partition_a.cell_labels(),
            "partition_b": self.partition_b.cell_labels(),
            "product_cells": [self.space.labels_of(m) for m in self.product_masks],
            "residual": self.residual,
        }


@dataclass(frozen=True)
class CompositionReport:
    """Emergent zero events and weak-decoherence violations of a product DF."""

    product: DecoherenceFunctional
    emergent_masks: tuple[int, ...]
    weak_violations: tuple[WeakViolation, ...]

    @property
    def emergent_zero(self) -> tuple[Event, ...]:
        return tuple(_events(self.product.space, self.emergent_masks))

    def as_dict(self) -> dict:
        return {
            "emergent_zero": [self.product.space.labels_of(m) for m in self.emergent_masks],
            "weak_violations": [v.as_dict() for v in self.weak_violations],
        }


def _rectangles(search, axis: np.ndarray, stride: int, shifts: np.ndarray) -> np.ndarray:
    """The nonempty zero masks Z of a factor's zero-mask search ``search``
    (_sector_search groups) that lie in ``axis`` (ascending factor
    histories), as int64 masks with history axis[p] at bit p * stride, each
    shifted by every one of ``shifts``."""
    out = []
    for _, group, key, zeros in search:
        pos = axis.searchsorted(group)
        inside = axis[np.minimum(pos, len(axis) - 1)] == group
        bits = zeros[:, None] >> np.arange(group.shape[1]) & 1
        keep = ~(bits.astype(bool) & ~inside[key]).any(axis=1)
        out.append(np.bitwise_or.reduce(
            bits[keep] << np.where(inside, pos * stride, 0)[key[keep]], axis=1))
    return (np.concatenate(out)[:, None] << shifts).ravel()


def _emergent_zero_masks(a: DecoherenceFunctional, b: DecoherenceFunctional,
                         product: DecoherenceFunctional) -> list[int]:
    """Product zero events no union of rectangles Z_A x S_B and S_A x Z_B
    covers, in find_zero_sets' sectorwise order.

    Such a union covers column k of an event E by every factor-A zero event
    inside that column.  Each is a union of one zero mask per sector, the
    empty mask included, so the rectangles Z x {k} of the sector zero masks
    Z inside the column cover the same set.  Rows likewise, with B.  A
    product sector is the rectangle of its w columns and its rows, members
    in row-major order, so each such rectangle is one sector-local mask, and
    E is emergent when the OR of the rectangles inside it is not E.  Chunks
    hold at most _STEP_ENTRIES masks x rectangles, or one mask; only
    emergent masks are spread to global bits.
    """
    bands_a, bands_b = list(_sector_search([a], True)), list(_sector_search([b], True))
    out = {}
    for positions, group, key, zeros in _sector_search([product], zero_only=True):
        for pos, members, events in zip(positions, group, _by_key(zeros, key, len(positions))):
            rows, cols = np.divmod(members, b.size)
            w = np.count_nonzero(rows == rows[0])
            rows, cols = rows[::w], cols[:w]
            rects = np.concatenate((_rectangles(bands_a, rows, w, np.arange(w)), _rectangles(
                bands_b, cols, 1, np.arange(len(rows)) * w)))[:, None]
            step = max(1, _STEP_ENTRIES // max(len(rects), 1))
            found = np.concatenate([
                chunk[np.bitwise_or.reduce(rects * (rects & ~chunk == 0), axis=0) != chunk]
                for chunk in np.split(events, range(step, len(events), step))])
            if len(found):
                out[pos] = _spreader(members[None])(found)
    return [m for pos in sorted(out) for m in out[pos]]


def _cell_matrix_parts(factor: np.ndarray, strings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re M and Im M (k x k x P) of the cell matrices M[a, b] = D(cell a,
    cell b) = sum over columns of conj(W_a) W_b of the strings' partitions."""
    sums = _cell_sums(factor, strings)
    flat = sums.reshape(-1, *sums.shape[2:])
    cross = np.einsum("cap,cbp->abp", sums[:, 0], sums[:, 1])
    return np.einsum("xap,xbp->abp", flat, flat), cross - cross.transpose(1, 0, 2)


def _weak_violations(a: DecoherenceFunctional, b: DecoherenceFunctional,
                     product: DecoherenceFunctional, parts_a: PartitionListing,
                     parts_b: PartitionListing) -> list[WeakViolation]:
    """Products of the given factor partitions that fail weak decoherence,
    ordered by a's partition, then b's.

    Product cells are a-major, so D(A x B, A' x B') = D_A(A, A') D_B(B, B')
    makes a product partition's cell matrix kron(M_a, M_b), and its weak
    residual the largest |Re M_a Re M_b - Im M_a Im M_b| over the product's
    off-diagonal entries.  Each factor's partitions come in chunks
    (_count_chunks) padded to their own largest count k, k^2 cell-matrix
    entries a partition: a's chunks hold at most isqrt(_STEP_ENTRIES)
    entries.  b's hold at most _STEP_ENTRIES over the entries of a's largest
    chunk, and their cell sums, k (n_b + 2 c_b) entries a partition, at most
    _STEP_ENTRIES.  b's are all kept, and each chunk of a is checked against
    each chunk of b by broadcasting, a block of at most _STEP_ENTRIES
    product entries unless one partition alone holds more.
    """
    chunks_a = list(_count_chunks(parts_a.counts, lambda k: k * k, math.isqrt(_STEP_ENTRIES)))
    widest = max(len(idx) * int(parts_a.counts[idx].max()) ** 2 for idx in chunks_a)
    n_b, c_b = b.factor.shape
    kept = [(idx, *_cell_matrix_parts(b.factor, parts_b.strings[idx]))
            for idx in _count_chunks(parts_b.counts,
                                     lambda k: k * max(k * widest, n_b + 2 * c_b), _STEP_ENTRIES)]
    found = []
    for idx_a in chunks_a:
        re_a, im_a = _cell_matrix_parts(a.factor, parts_a.strings[idx_a])
        ka = len(re_a)
        re_a, im_a = re_a[:, :, None, None, :, None], im_a[:, :, None, None, :, None]
        for idx_b, re_b, im_b in kept:
            # Axes (i, i', j, j', a's partition, b's partition).
            vals = re_a * re_b[:, :, None]
            vals -= im_a * im_b[:, :, None]
            np.abs(vals, out=vals)
            da, db = np.arange(ka)[:, None], np.arange(len(re_b))
            vals[da, da, db, db] = 0.0
            residuals = vals.reshape(-1, len(idx_a), len(idx_b)).max(axis=0)
            ja, jb = np.nonzero(residuals > EPS_DF)
            found.append((idx_a[ja], idx_b[jb], residuals[ja, jb]))
    # The one-cell partition always passes, so neither listing is empty.
    ia, ib, residuals = (np.concatenate(parts) for parts in zip(*found))
    order = np.lexsort((ib, ia))
    ia, ib = ia[order].tolist(), ib[order].tolist()
    # One report per partition, those of each listing built together.
    rows_a, rows_b = sorted(set(ia)), sorted(set(ib))
    reports_a = dict(zip(rows_a, parts_a._reports(rows_a)))
    reports_b = dict(zip(rows_b, parts_b._reports(rows_b)))
    columns = {i: [_columns(ca, b.size) for ca in r.cell_masks] for i, r in reports_a.items()}
    masks = [tuple([cb * col for col in columns[i] for cb in reports_b[j].cell_masks])
             for i, j in zip(ia, ib)]
    return _bulk(WeakViolation, len(ia), partition_a=map(reports_a.get, ia),
                 partition_b=map(reports_b.get, ib), space=repeat(product.space),
                 product_masks=masks, residual=residuals[order].tolist())


def composition_anomalies(a: DecoherenceFunctional,
                          b: DecoherenceFunctional) -> CompositionReport:
    """Compare a product DF against its factors.

    A product zero event (in find_zero_sets' sectorwise order) is emergent
    when it is not a union of rectangles Z_A x S_B or S_A x Z_B with a
    factor zero event on one side; every such rectangle is zero by the
    rectangle rule, so a covered event is explained by the factors.  Weak
    violations are products of weakly decoherent factor partitions that
    fail weak decoherence.  The product's ZERO_SET_WORK_LIMIT check comes
    before both factor partition searches, and those and the
    COMPOSITION_WORK_LIMIT check before the product is built, so
    SpaceTooLargeError comes before the product exists.  The product's
    zero-set blocks are the rectangles of the factors' sectors, or the whole
    product space when either factor has none, and its factor has c_a * c_b
    columns.  Zero sets come from the sector searches of both factors and
    the product (_sector_search), with no ZeroSetCatalog.
    """
    _check_zero_set_work(_largest_product_block(a, b), a.factor.shape[1] * b.factor.shape[1])
    parts_a = find_decoherent_partitions(a, "weak", max_cells=a.size)
    parts_b = find_decoherent_partitions(b, "weak", max_cells=b.size)
    work = int((parts_a.counts ** 2).sum()) * int((parts_b.counts ** 2).sum())
    refuse_above("COMPOSITION_WORK_LIMIT", work,
                 f"weak-violation check of {work} product cell-matrix entries")
    product = tensor_df(a, b)
    return CompositionReport(
        product=product,
        emergent_masks=tuple(_emergent_zero_masks(a, b, product)),
        weak_violations=tuple(_weak_violations(a, b, product, parts_a, parts_b)),
    )
