"""Brute-force oracles that check the program's answers.

Nothing here calls the analysis code under test.  Every decoherence
functional is handled through a factor B with one row per history,
D(i, j) = vdot(B[i], B[j]), so a measure is mu(E) = |sum of B over E|^2.
Factors come from the benchmark's own inputs: the generating vectors of a
raw DF, or branch vectors propagated slice by slice from a schema's kets as
products of scalar amplitudes (not class-operator products).  Set-valued
answers come from scanning all 2^k subsets, globally when n <= 20 and per
final sector above that.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

EPS_ZERO = 1e-9
GLOBAL_SCAN_LIMIT = 20
CHUNK_BITS = 14


@dataclass(frozen=True)
class Answer:
    """The set-valued and numeric answers for one DF, as history bitmasks."""

    labels: tuple
    measures: tuple
    zero: frozenset
    nontrivial: frozenset
    maximal: frozenset
    coevents: frozenset


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def masks_from_labels(label_lists, index) -> list:
    return [mask_of(index[lab] for lab in labels) for labels in label_lists]


# ---------------------------------------------------------------------------
# Factors


def history_tuples(shape):
    return list(itertools.product(*[range(d) for d in shape]))


def history_labels(slice_labels) -> tuple:
    """Schema history labels: outcome labels in time order inside h_{...}."""
    return tuple("h_{" + "".join(slice_labels[k][t] for k, t in enumerate(tup)) + "}"
                 for tup in history_tuples([len(ls) for ls in slice_labels]))


def branch_row(ket, slices, outcomes) -> np.ndarray:
    """Branch vector of one history of a pure-state, rank-one schema.

    ``slices`` holds (unitary or None, list of basis kets) per slice.  The
    branch is the final basis ket times the product of the scalar
    amplitudes <b_k| U_k |b_{k-1}>, starting from the initial ket.
    """
    amp = 1.0 + 0.0j
    prev = np.asarray(ket, dtype=complex)
    for (unitary, kets), o in zip(slices, outcomes):
        moved = prev if unitary is None else unitary @ prev
        b = kets[o]
        amp *= np.vdot(b, moved)
        prev = b
        if amp == 0:
            break
    return amp * prev


def schema_factor(ket, slices) -> np.ndarray:
    shape = [len(kets) for _, kets in slices]
    return np.array([branch_row(ket, slices, t) for t in history_tuples(shape)])


def final_sectors(shape) -> list:
    """Member index lists per final outcome, in final-outcome order."""
    tuples = history_tuples(shape)
    return [[i for i, t in enumerate(tuples) if t[-1] == f] for f in range(shape[-1])]


# ---------------------------------------------------------------------------
# Subset scans


def _chunks(k: int):
    step = 1 << min(k, CHUNK_BITS)
    for lo in range(0, 1 << k, step):
        yield np.arange(lo, lo + step, dtype=np.int64)


def _zero_local(sub: np.ndarray) -> np.ndarray:
    """Local masks (over the rows of ``sub``) of every zero-measure subset."""
    k = sub.shape[0]
    shifts = np.arange(k, dtype=np.int64)
    found = []
    for masks in _chunks(k):
        bits = ((masks[:, None] >> shifts) & 1).astype(float)
        sums = bits @ sub
        mu = np.sum(np.abs(sums) ** 2, axis=1)
        found.append(masks[mu <= EPS_ZERO])
    return np.concatenate(found)


def _maximal(zeros: np.ndarray) -> np.ndarray:
    keep = [z for z in zeros.tolist()
            if not np.any((zeros != z) & ((z & ~zeros) == 0))]
    return np.array(keep, dtype=np.int64)


def _minimal_preclusive(k: int, maximal: np.ndarray) -> list:
    """Minimal local masks contained in no maximal zero mask."""
    preclusive = np.zeros(1 << k, dtype=bool)
    for masks in _chunks(k):
        covered = np.zeros(masks.size, dtype=bool)
        for z in maximal.tolist():
            covered |= (masks & ~z) == 0
        preclusive[masks] = ~covered
    out = []
    for masks in _chunks(k):
        keep = preclusive[masks].copy()
        for b in range(k):
            has = (masks >> b) & 1 == 1
            keep[has] &= ~preclusive[masks[has] ^ (1 << b)]
        out.extend(masks[keep].tolist())
    return out


def _spread(local: int, members) -> int:
    return mask_of(members[b] for b in range(len(members)) if local >> b & 1)


def brute_answer(factor: np.ndarray, labels, sectors=None) -> Answer:
    """Oracle answer for the DF with the given factor.

    ``sectors`` lists member indices per verified final sector; None means
    the program sees a single block.  Zero events are reported sectorwise,
    as the program does; maximal zero events and co-events are global.
    """
    n = factor.shape[0]
    measures = tuple(float(np.sum(np.abs(factor[i]) ** 2)) for i in range(n))
    blocks = sectors if sectors is not None else [list(range(n))]
    sector_zero = []
    for members in blocks:
        local = _zero_local(factor[members])
        sector_zero.append([_spread(z, members) for z in local.tolist()])
    zero = set()
    nontrivial = set()
    for members, zs in zip(blocks, sector_zero):
        for z in zs:
            if z:
                zero.add(z)
                if z.bit_count() >= 2 and any(z >> i & 1 and measures[i] > EPS_ZERO
                                              for i in members):
                    nontrivial.add(z)
    if n <= GLOBAL_SCAN_LIMIT:
        everything = _zero_local(factor)
        maximal = _maximal(everything)
        coevents = _minimal_preclusive(n, maximal)
        maximal = maximal.tolist()
    else:
        per_sector_max = [_maximal(np.array(zs, dtype=np.int64)).tolist() for zs in sector_zero]
        maximal = [sum(choice) for choice in itertools.product(*per_sector_max)]
        coevents = []
        for members, mx in zip(blocks, per_sector_max):
            local_max = np.array([_local(m, members) for m in mx], dtype=np.int64)
            coevents.extend(_spread(c, members)
                            for c in _minimal_preclusive(len(members), local_max))
    return Answer(labels=tuple(labels), measures=measures, zero=frozenset(zero),
                  nontrivial=frozenset(nontrivial), maximal=frozenset(maximal),
                  coevents=frozenset(coevents))


def _local(mask: int, members) -> int:
    return mask_of(b for b, i in enumerate(members) if mask >> i & 1)


def compare(expected: Answer, got: Answer, where: str) -> list:
    """Problems found comparing a program answer with the oracle's."""
    problems = []
    if got.labels != expected.labels:
        return [f"{where}: history labels differ"]
    if len(got.measures) != len(expected.measures) or any(
            abs(a - b) > EPS_ZERO for a, b in zip(got.measures, expected.measures)):
        problems.append(f"{where}: measures differ beyond EPS_ZERO")
    for field in ("zero", "nontrivial", "maximal", "coevents"):
        want, have = getattr(expected, field), getattr(got, field)
        if want != have:
            problems.append(f"{where}: {field} differ "
                            f"(missing {len(want - have)}, extra {len(have - want)})")
    return problems


def answer_from_section(section: dict) -> Answer:
    """An Answer read from one report entry (a parsed `entries` element)."""
    labels = tuple(section["history_labels"])
    index = {lab: i for i, lab in enumerate(labels)}
    zs = section["zero_sets"]
    coevents = [c["support"] for c in section["coevents"]]
    return Answer(
        labels=labels,
        measures=tuple(section["measure_vector"]),
        zero=frozenset(masks_from_labels(zs["sectorwise"], index)),
        nontrivial=frozenset(masks_from_labels(zs["nontrivial"], index)),
        maximal=frozenset(masks_from_labels(zs["maximal"], index)),
        coevents=_unique(masks_from_labels(coevents, index)),
    )


def _unique(masks: list) -> frozenset:
    """Masks as a set; a duplicate listing is kept visible as a -1 entry."""
    out = frozenset(masks)
    return out if len(out) == len(masks) else out | {-1}


def answer_from_objects(df, zero, nontrivial, maximal, coevents) -> Answer:
    """An Answer from the program's in-process results: a DF, three event
    lists from its zero-set catalog, and its co-event set."""
    return Answer(
        labels=tuple(df.space.labels),
        measures=tuple(float(np.real(df.matrix[i, i])) for i in range(df.size)),
        zero=frozenset(e.mask for e in zero),
        nontrivial=frozenset(e.mask for e in nontrivial),
        maximal=frozenset(e.mask for e in maximal),
        coevents=_unique([c.support.mask for c in coevents]),
    )


def intersection(answers) -> frozenset:
    out = None
    for a in answers:
        out = a.coevents if out is None else out & a.coevents
    return out


# ---------------------------------------------------------------------------
# Partitions and composition


def set_partitions(n: int, max_cells: int):
    """Every partition of range(n) into at most max_cells cells, as masks."""
    def place(i, cells):
        if i == n:
            yield tuple(cells)
            return
        for c in range(len(cells)):
            cells[c] |= 1 << i
            yield from place(i + 1, cells)
            cells[c] &= ~(1 << i)
        if len(cells) < max_cells:
            cells.append(1 << i)
            yield from place(i + 1, cells)
            cells.pop()
    yield from place(0, [])


def _cell_sum(factor, mask: int) -> np.ndarray:
    idx = [i for i in range(factor.shape[0]) if mask >> i & 1]
    return factor[idx].sum(axis=0)


def partition_residual(factor, cells, mode: str) -> float:
    sums = [_cell_sum(factor, c) for c in cells]
    worst = 0.0
    for a in range(len(sums)):
        for b in range(a + 1, len(sums)):
            val = complex(np.vdot(sums[a], sums[b]))
            worst = max(worst, abs(val) if mode == "medium" else abs(val.real))
    return worst


def decoherent_partitions(factor, mode: str, max_cells: int) -> frozenset:
    n = factor.shape[0]
    return frozenset(frozenset(cells) for cells in set_partitions(n, max_cells)
                     if partition_residual(factor, cells, mode) <= EPS_ZERO)


def product_factor(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Factor of the tensor-product DF, first system major."""
    return np.array([np.kron(a, b) for a in fa for b in fb])


def rectangle(mask_a: int, mask_b: int, nb: int) -> int:
    return mask_of(i * nb + k for i in range(mask_a.bit_length()) if mask_a >> i & 1
                   for k in range(mask_b.bit_length()) if mask_b >> k & 1)


def composition_expected(fa: np.ndarray, fb: np.ndarray):
    """(emergent zero masks, set of weak-violation partition pairs)."""
    na, nb = fa.shape[0], fb.shape[0]
    fp = product_factor(fa, fb)
    zeros_a = [z for z in _zero_local(fa).tolist() if z]
    zeros_b = [z for z in _zero_local(fb).tolist() if z]
    emergent = set()
    for event in _zero_local(fp).tolist():
        if not event:
            continue
        # Every rectangle Z_A x {k} or {i} x Z_B inside the event.
        rects = [rectangle(za, 1 << k, nb) for za in zeros_a for k in range(nb)]
        rects += [rectangle(1 << i, zb, nb) for zb in zeros_b for i in range(na)]
        covered = 0
        for r in rects:
            if r & ~event == 0:
                covered |= r
        if covered != event:
            emergent.add(event)
    violations = set()
    for pa in decoherent_partitions(fa, "weak", na):
        for pb in decoherent_partitions(fb, "weak", nb):
            cells = [rectangle(ca, cb, nb) for ca in pa for cb in pb]
            if partition_residual(fp, cells, "weak") > EPS_ZERO:
                violations.add((pa, pb))
    return frozenset(emergent), frozenset(violations)


# ---------------------------------------------------------------------------
# Golden files


def load_golden(root: str, name: str) -> dict:
    with open(os.path.join(root, "tests", "golden", name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def golden_answer(state: dict, labels) -> Answer:
    """An Answer from one golden `states` entry (the computed variants)."""
    index = {lab: i for i, lab in enumerate(labels)}
    measures = state.get("measure_vector") or [state["measures"][lab] for lab in labels]
    return Answer(
        labels=tuple(labels),
        measures=tuple(measures),
        zero=frozenset(masks_from_labels(state["zero_events_sectorwise"], index)),
        nontrivial=frozenset(masks_from_labels(state["nontrivial_zero_events"], index)),
        maximal=frozenset(masks_from_labels(state["maximal_zero_events"], index)),
        coevents=frozenset(masks_from_labels(state["coevents"], index)),
    )


# Angles (mod pi) where some subset measure of the appendix-theta states
# vanishes, found by scanning theta: near them measures fall into the
# borderline band, so seeded angles keep a margin from them.
VANISHING_ANGLES = (0.0, math.atan(1.0 / 3.0), -math.atan(1.0 / 3.0),
                    math.atan(3.0), -math.atan(3.0), math.pi / 4.0, -math.pi / 4.0)


def near_vanishing(theta: float, margin: float) -> bool:
    for base in VANISHING_ANGLES:
        d = (theta - base) % math.pi
        if min(d, math.pi - d) < margin:
            return True
    return False
