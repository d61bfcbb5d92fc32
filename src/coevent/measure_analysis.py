"""Zero-set catalogs and decoherent-partition search for a validated DF.

Zero events are enumerated exhaustively per final sector and stored with a
union-assembly rule: an event is a zero event iff every sector part has
|mu| <= EPS_ZERO, that is, is empty or one of that sector's zero events.
Across verified sectors the measure is additive and nonnegative, so the rule
is exact for exact zeros.  At the tolerance it is not: the parts' measures
add, so a union of sector zero events can exceed EPS_ZERO.  With a ket
sqrt(1 - d)|p> + sqrt(d)|m>, d = 1.2e-9, measured in the basis p/m and then
the computational basis, {h_{m0}, h_{m1}} is a maximal zero event of
mu = 1.2e-9, each sector part having 0.6e-9.

A sector of k histories splits into a low half of h = k // 2 and a high
half, with subset sums L and H, and mask hi * 2^h + lo has the measure
|H_hi + L_lo|^2, summed directly.  A small sector measures every (hi, lo)
pair; a larger one only the candidates of a grid join of H and L, which
holds every event of measure at most BORDERLINE_MAX, so its work grows as
2^(k/2) plus the output.  ZERO_SET_WORK_LIMIT bounds the half sums and
ZERO_SET_CANDIDATE_LIMIT the candidates of the join.

A support S escapes a maximal zero event M iff S meets the complement
sector - M, so a sector's primitive co-events (the minimal supports
contained in no zero event) are the minimal transversals of the hypergraph
{sector - M : M maximal}.  A sector measured whole reads them off its subset
tables; a grid-join sector, measured only near zero, finds them by the MMCS
algorithm of Murakami & Uno, "Efficient algorithms for dualizing
large-scale hypergraphs", Discrete Appl. Math. 170 (2014), whose cost
follows the number of transversals rather than the 2^k subsets of the
sector.  COEVENT_COUNT_LIMIT bounds the co-events of each DF.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import accumulate, chain, compress, islice, product, repeat

import numpy as np

from . import limits
from .histories import (_STEP_ENTRIES, DecoherenceFunctional, Event, HistorySpace, _bits,
                        _bulk, _events, _per_group, sort_masks)
from .limits import refuse_above
from .tolerances import BORDERLINE_MAX, EPS_DF, EPS_ZERO

# A sector whose 2^k events times its 2c real coordinates number at most
# _ALL_PAIRS_MAX entries takes every (hi, lo) pair as a candidate; a larger
# one takes the grid join's.  Timed per sector on generic and planted rows
# with c = 1, 2, 4 and 8 (2 vCPU, one BLAS thread), every pair was faster
# up to 2^14 entries, the two were about even at 2^15, and the grid join
# was faster from 2^16 (from 2^17 at c = 8).
_ALL_PAIRS_MAX = 1 << 15


# Row p of _BYTE_BITS holds the bits of p, lowest first.
_BYTE_BITS = np.arange(256, dtype=np.int64)[:, None] >> np.arange(8) & 1
_BYTE_BITS_T = _BYTE_BITS.T.astype(np.float64)


def _half_sums(rows: np.ndarray) -> np.ndarray:
    """Sums of every subset of each stack of rows (G x m x w), G x w x 2^m:
    those of the first 8 rows by one product with their bits, which gives
    the empty sum as 0.0 and each single row exactly, the rest by doubling."""
    g, m, w = rows.shape
    q = min(m, 8)
    sums = np.empty((g, w, 1 << m))
    np.matmul(rows[:, :q].transpose(0, 2, 1), _BYTE_BITS_T[:q, :1 << q], out=sums[:, :, :1 << q])
    for b in range(q, m):
        np.add(sums[:, :, :1 << b], rows[:, b, :, None], out=sums[:, :, 1 << b:2 << b])
    return sums


def _check_zero_set_work(k: int, c: int, extra: int = 0) -> None:
    """Raise SpaceTooLargeError when the zero-set search of a k-history
    sector with c factor columns, plus ``extra`` entries, would hold more
    than ZERO_SET_WORK_LIMIT table entries.  The search holds two half-sum
    tables, 2^(k // 2) and 2^(k - k // 2) rows of 2c reals."""
    h = k // 2
    work = ((1 << h) + (1 << (k - h))) * 2 * c + extra
    refuse_above("ZERO_SET_WORK_LIMIT", work, f"zero-set search over a sector of {k} "
                 f"histories with {c} factor columns needs {work} table entries")


# Cells of the grid join are 3 d r wide in each of the d coordinates it keys
# on (r the probe radius), so that -H +- r crosses about 2/3 cell edges in
# all and each H probes about 2 cells.  They are shifted so that 0 sits at
# the golden fraction of a cell: simple amplitudes and their sums are then
# rarely near a cell edge.
_PROBE_RADIUS = math.sqrt(BORDERLINE_MAX) * (1.0 + 1e-6)
_GRID_OFFSET = (math.sqrt(5.0) - 1.0) / 2.0


@cache
def _cell_multipliers(d: int) -> np.ndarray:
    """d odd int64 multipliers of the cell keys: 1..d mixed by the
    splitmix64 finalizer, so no small combination of them vanishes mod 2^64.
    Unmixed, (1..d) * 0x9E3779B97F4A7C15 | 1 has m_1 + m_4 = m_2 + m_3: the
    cells q + e_1 + e_4 and q + e_2 + e_3 would share a key, and an H probing
    both would list their events twice."""
    z = np.arange(1, d + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ z >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return (z ^ z >> np.uint64(31) | np.uint64(1)).view(np.int64)


def _grid_pairs(real: np.ndarray, high: np.ndarray, low: np.ndarray, step: int):
    """Candidate (hi, lo) pairs, in blocks of at most ``step``, that include
    every event of measure at most BORDERLINE_MAX of the sector with real
    factor rows ``real`` (k x 2c), whose half sums are ``high`` and ``low``.

    A member of the band has |H_j + L_j| <= r = sqrt(BORDERLINE_MAX) in
    every coordinate j, so L_lo lies in the cell of -H_hi or, in each
    coordinate where -H_hi +- r crosses a cell edge, the next cell; cells
    are wider than 2r, so each H_hi probes one cell per combination of its
    crossings.  Cells are keyed by the dot product of their integer
    coordinates with odd multipliers; L's keys are sorted once and each
    block's probes before they are looked up.  A key collision only adds a
    candidate.  Raises SpaceTooLargeError, before the pairs are formed, when
    the candidates exceed ZERO_SET_CANDIDATE_LIMIT.
    """
    # Only coordinates whose rows' absolute sum exceeds r can tell events
    # apart; dropping the others merges cells, which keeps every candidate.
    cols = np.flatnonzero(np.abs(real).sum(axis=0) > _PROBE_RADIUS)
    width = 3 * max(len(cols), 1) * _PROBE_RADIUS
    mult = _cell_multipliers(len(cols))
    keys = np.floor(low[cols].T / width + _GRID_OFFSET).astype(np.int64) @ mult
    order = keys.argsort()
    keys = keys[order]
    reach = _PROBE_RADIUS / width
    candidates = 0
    for start in range(0, high.shape[1], step):
        near = high[cols, start:start + step].T / -width + _GRID_OFFSET
        base = np.floor(near - reach)
        crossing = np.floor(near + reach) > base
        rows = np.arange(start, start + len(near))
        probes = base.astype(np.int64) @ mult
        for j in np.flatnonzero(crossing.any(axis=0)).tolist():
            more = np.flatnonzero(crossing[rows - start, j])
            rows = np.concatenate((rows, rows[more]))
            probes = np.concatenate((probes, probes[more] + mult[j]))
        # Sorted probes walk L's keys in order; the final key sort of
        # _sector_search fixes the order of the listed masks.
        by = probes.argsort()
        rows, probes = rows[by], probes[by]
        begin = keys.searchsorted(probes)
        counts = keys.searchsorted(probes, "right") - begin
        found = int(counts.sum())
        candidates += found
        refuse_above("ZERO_SET_CANDIDATE_LIMIT", candidates, f"zero-set search over a sector "
                     f"of {len(real)} histories has at least {candidates} candidate events")
        his = np.repeat(rows, counts)
        los = order[np.arange(found) + np.repeat(begin - (np.cumsum(counts) - counts), counts)]
        for part in range(0, found, step):
            yield his[part:part + step], los[part:part + step]


def _group_measures(rows: np.ndarray) -> np.ndarray:
    """mu(S) = |sum_{i in S} V_i|^2 of every local mask S of G sectors with
    factor rows ``rows`` (G x k x c), G x 2^k in mask order.  The real rows
    (2c columns) split into the low h = k // 2 and the rest, with subset sums
    L and H; mask hi * 2^h + lo has |H_hi + L_lo|^2, squared coordinates
    added in column order, so no measure is negative, the empty mask gets
    0.0 and a single history its row's sum of squares in that order."""
    real = np.ascontiguousarray(rows, dtype=complex).view(np.float64)
    g, k, w = real.shape
    h = k // 2
    low, high = _half_sums(real[:, :h])[:, :, None], _half_sums(real[:, h:])[..., None]
    mu = np.empty((g, 1 << (k - h), 1 << h))
    step = max(1, _STEP_ENTRIES // (max(g * w, 1) << h))
    for start in range(0, 1 << (k - h), step):
        diff = high[:, :, start:start + step] + low
        np.add.reduce(diff * diff, axis=1, out=mu[:, start:start + step])
    return mu.reshape(g, -1)


def _band(rows: np.ndarray, top: float) -> tuple[np.ndarray, np.ndarray]:
    """The grid join's candidate masks (which hold every one of measure at most
    BORDERLINE_MAX) of the sector with factor rows ``rows`` (k x c) of measure
    at most ``top``, and their measures, each as _group_measures gives it."""
    real = np.ascontiguousarray(rows, dtype=complex).view(np.float64)
    h = len(real) // 2
    low, high = _half_sums(real[None, :h])[0], _half_sums(real[None, h:])[0]
    step = max(1, _STEP_ENTRIES // max(real.shape[1], 1))
    found = []
    for hi, lo in _grid_pairs(real, high, low, step):
        diff = high.take(hi, axis=1) + low.take(lo, axis=1)
        mu = (diff * diff).sum(axis=0)
        band = mu <= top
        found.append(((hi << h | lo)[band], mu[band]))
    return found[0] if len(found) == 1 else tuple(map(np.concatenate, zip(*found)))


# Sort key of a sector-local mask of at most 40 bits, as the sum of one
# entry per byte (row p for byte p): size << 40, plus 2^40 - 1 minus the
# mask's 40-bit reversal.  Keys ascend in canonical order (by size, then by
# descending bit-reversed value, as in sort_masks).
_ORDER_KEY = ((_BYTE_BITS.sum(axis=1) << 40)
              - ((_BYTE_BITS @ (128 >> np.arange(8))) << np.arange(32, -1, -8)[:, None])
              + np.array([[(1 << 40) - 1], [0], [0], [0], [0]]))
# The smallest keys of a zero mask of two or more histories and of a
# borderline mask, whose class is added as class << 46: 0 zero, 1 borderline.
_SPLITS = np.array([2 << 40, 1 << 46])


def _order_keys(masks: np.ndarray, k: int) -> np.ndarray:
    """The _ORDER_KEY of each sector-local mask of k bits."""
    keys = _ORDER_KEY[0][masks & 255]
    for j in range(8, k, 8):
        keys += _ORDER_KEY[j // 8][masks >> j & 255]
    return keys


@cache
def _orders(k: int) -> np.ndarray:
    """The 2^k local masks of k bits in the order each class of _sector_search
    lists them (read-only): canonical, but descending in row 1 (maximal)."""
    canon = _order_keys(np.arange(1 << k), k).argsort()
    orders = np.stack((canon, canon[::-1], canon, canon, canon))
    orders.flags.writeable = False
    return orders


def _spreader(members: np.ndarray):
    """The map from sector-local masks (int64, at most 40 bits), each with
    its sector's row of ``members`` (G x k), to a list of global masks: one
    gather per byte in tables of the byte's bits times the members' powers
    of two, ORed: int64 while every member is at most 62 (an enumerate round
    is 8-9 % faster than on object arrays), Python ints of any width beyond."""
    k = members.shape[1]
    powers = np.left_shift(1, members.astype(object if members.max(initial=0) > 62 else np.int64))
    tables = [_BYTE_BITS[:1 << min(8, k - j), :min(8, k - j)].astype(powers.dtype)
              @ powers[:, j:j + 8].T for j in range(0, max(k, 1), 8)]

    def spread(local: np.ndarray, owner=0) -> list[int]:
        out = tables[0][local & 255, owner]
        for j, table in enumerate(tables[1:], 1):
            out |= table[local >> 8 * j & 255, owner]
        return out.tolist()

    return spread


def _by_key(values, key: np.ndarray, count: int) -> list:
    """``values`` cut into the runs of keys 0 .. count - 1 (``key`` ascending)."""
    bounds = key.searchsorted(np.arange(count + 1)).tolist()
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


# Row s of _SUBSETS marks the masks of 4 bits that hold s.
_SUBSETS = (np.arange(16)[:, None] & ~np.arange(16) == 0).astype(np.float64)


def _subset_counts(flags: np.ndarray) -> np.ndarray:
    """Per row of ``flags`` (R x 2^k, mask order), the set flags at the
    subsets of each mask: over the low 4 bits by one product with
    _SUBSETS, then one bit at a time."""
    k = flags.shape[1].bit_length() - 1
    q = min(k, 4)
    counts = (flags.reshape(-1, 1 << q) @ _SUBSETS[:1 << q, :1 << q]).reshape(flags.shape)
    for j in range(q, k):
        half = counts.reshape(len(counts), -1, 2, 1 << j)
        half[:, :, 1] += half[:, :, 0]
    return counts


def _nontrivial(larger: np.ndarray, null: int, null_mu, rows: np.ndarray) -> np.ndarray:
    """Which of a grid-join sector's local zero masks ``larger`` (two or more
    histories) have a proper subset above EPS_ZERO.  A member outside
    ``null`` (the zero single histories, measures ``null_mu``) is one.  As
    sqrt(mu(T)) <= sum_{i in T} sqrt(mu_i), a mask of null members can be
    one only when that sum over all of them exceeds sqrt(EPS_ZERO); then all
    2^z subsets are measured from ``rows`` (charged to ZERO_SET_WORK_LIMIT)."""
    keep = larger & ~null != 0
    if sum(map(math.sqrt, null_mu)) > math.sqrt(EPS_ZERO):
        bits = [b.bit_length() - 1 for b in _bits(null)]
        _check_zero_set_work(len(rows), rows.shape[1], 1 << len(bits))
        inside = _subset_counts(_group_measures(rows[None, bits]) > EPS_ZERO)[0] > 0
        rest = np.flatnonzero(~keep)
        local = np.zeros(len(rest), dtype=np.int64)
        for j, b in enumerate(bits):
            local |= (larger[rest] >> b & 1) << j
        keep[rest] = inside[local]
    return keep


def _minimal_preclusive_masks(sector: int, maximal) -> list[int]:
    """Minimal sub-supports of one sector not covered by any maximal mask.

    These are the minimal transversals of the edges ``sector & ~M``, one per
    maximal mask M, enumerated by MMCS (Murakami & Uno 2014).  A branch keeps
    the chosen vertices, each with its critical edges (uncovered edges that
    only it hits), the remaining candidate vertices and the uncovered edges,
    all as int bitmasks.  It splits on the uncovered edge with the fewest
    candidates and is cut as soon as a chosen vertex loses its last critical
    edge, so every output is minimal and appears once.  Recursion depth is
    bounded by the sector size.  Output order is unspecified.  A sector that
    is itself a zero event gives an empty edge and no supports.  Raises
    SpaceTooLargeError as soon as it finds more than COEVENT_COUNT_LIMIT.
    """
    found: list[int] = []
    edges = [sector & ~mx for mx in maximal] or [sector]
    if not all(edges):
        return found
    edge_of = {1 << j: e for j, e in enumerate(edges)}
    hits: dict[int, int] = {}
    for bit, e in edge_of.items():
        for v in _bits(e):
            hits[v] = hits.get(v, 0) | bit

    def extend(chosen: int, crit: list[tuple[int, int]], cand: int, uncov: int) -> None:
        if not uncov:
            if len(found) >= limits.COEVENT_COUNT_LIMIT:
                refuse_above("COEVENT_COUNT_LIMIT", len(found) + 1,
                             f"co-event search found {len(found) + 1} primitive co-events")
            found.append(chosen)
            return
        pivot = min((edge_of[b] & cand for b in _bits(uncov)), key=int.bit_count)
        cand &= ~pivot
        for v in _bits(pivot):
            hit = hits[v]
            kept = [(u, c & ~hit) for u, c in crit]
            if all(c for _, c in kept):
                extend(chosen | v, kept + [(v, uncov & hit)], cand, uncov & ~hit)
            cand |= v

    extend(0, [], sector, (1 << len(edges)) - 1)
    return found


@dataclass(frozen=True)
class SectorZeroData:
    """Exhaustive zero-set data for one final sector (global bitmasks).

    The mask lists are in canonical order (``maximal_masks`` descending) and
    leave out the empty event, except that ``maximal_masks`` is (0,) when the
    empty event is the only zero event of the sector.  ``primitive_masks``
    are the supports of its primitive preclusive co-events.
    """

    label: str
    sector_mask: int
    zero_masks: tuple[int, ...]
    maximal_masks: tuple[int, ...]
    nontrivial_masks: tuple[int, ...]
    borderline_masks: tuple[int, ...]
    primitive_masks: tuple[int, ...]


class ZeroSetCatalog:
    """Per-sector zero events of a DF plus the union-assembly rule.

    The Events of the zero masks are built on the first listing and kept, one
    per mask; the nontrivial listing hands out the same objects.
    """

    def __init__(self, df: DecoherenceFunctional, sectors: tuple[SectorZeroData, ...]):
        self.df = df
        self.sectors = sectors

    @cached_property
    def _zero_events(self) -> list[Event]:
        return _events(self.df.space, chain.from_iterable(s.zero_masks for s in self.sectors))

    def zero_events_sectorwise(self) -> list[Event]:
        """Nonempty zero events lying inside a single sector, sector by sector."""
        return list(self._zero_events)

    def nontrivial_zero_events(self) -> list[Event]:
        """The zero events with a proper subset of measure above EPS_ZERO; each
        sector's are a subset of its zero events, in the same order, so a
        sector whose zero events are all nontrivial hands them all out."""
        out, events = [], iter(self._zero_events)
        for s in self.sectors:
            mine = islice(events, len(s.zero_masks))
            if len(s.nontrivial_masks) < len(s.zero_masks):
                wanted = set(s.nontrivial_masks)
                mine = compress(mine, map(wanted.__contains__, s.zero_masks))
            out.extend(mine)
        return out

    def maximal_masks(self) -> list[int]:
        """Masks of the inclusion-maximal zero events, assembled as unions
        across sectors, in canonical order.

        Raises SpaceTooLargeError beyond ASSEMBLY_LIMIT combinations.
        """
        per_sector = [s.maximal_masks for s in self.sectors]
        count = math.prod(len(masks) for masks in per_sector)
        refuse_above("ASSEMBLY_LIMIT", count, f"zero-event assembly of {count} combinations")
        # Sectors are disjoint, so one mask per sector sums to their union.
        return sort_masks({sum(choice) for choice in product(*per_sector)}, self.df.size)

    def maximal_zero_events(self) -> list[Event]:
        """The maximal zero events of ``maximal_masks``."""
        return _events(self.df.space, self.maximal_masks())

    def counts(self) -> dict:
        return {
            "sectors": len(self.sectors),
            "zero_sectorwise": sum(len(s.zero_masks) for s in self.sectors),
            "nontrivial": sum(len(s.nontrivial_masks) for s in self.sectors),
            "borderline": sum(len(s.borderline_masks) for s in self.sectors),
        }


def _sector_search(dfs, zero_only: bool = False):
    """The zero-set search of the final sectors of DFs of one factor width c,
    verified when each was made (the whole space without them), by groups:
    sectors of k histories whose (2c) << k entries are at most
    _ALL_PAIRS_MAX (read at call time) in chunks of at most _STEP_ENTRIES
    such entries, and each other sector alone, by the grid join.  A group
    yields its positions in the DFs' sectors() in turn, members (G x k,
    ascending in the sector's DF) and sector-local masks (bit b for
    members[owner, b]) by ascending key = class * G + owner, each sector's
    canonical: nonempty zero masks, then unless ``zero_only`` maximal
    (descending; the empty mask when alone), nontrivial, borderline and
    primitive preclusive ones.  A chunk is measured as one array
    (_group_measures): a zero mask is nontrivial when a subset is above
    EPS_ZERO, and maximal when it is its own only zero superset
    (_subset_counts); a mask is preclusive when it has no zero superset, and
    primitive when no proper subset is.  A larger sector sorts the grid
    join's candidates (_band) by _ORDER_KEY plus class << 46, takes
    _nontrivial, finds its maximal masks in greedy rounds (the last mask
    left is the largest in canonical order, so it is maximal; drop every
    mask inside it) and its primitive ones by MMCS, sorted by _ORDER_KEY.
    Raises SpaceTooLargeError beyond ZERO_SET_WORK_LIMIT (before any table
    is built), ZERO_SET_CANDIDATE_LIMIT or, in one sector, beyond
    COEVENT_COUNT_LIMIT."""
    c, per_df = dfs[0].factor.shape[1], [df.sectors() for df in dfs]
    sectors = [mask for listed in per_df for _, mask in listed]
    sizes: dict[int, list[int]] = {}
    for pos, mask in enumerate(sectors):
        sizes.setdefault(mask.bit_count(), []).append(pos)
    # The DFs' factor rows one after another, and the first row of each sector's DF.
    factor, first = dfs[0].factor, None
    if len(dfs) > 1:
        factor = np.concatenate([df.factor for df in dfs])
        first = np.repeat(np.cumsum([0] + [df.size for df in dfs[:-1]]), list(map(len, per_df)))
    for k in sizes:
        _check_zero_set_work(k, c)
    for k, positions in sizes.items():
        join = (2 * c) << k > _ALL_PAIRS_MAX
        step = 1 if join else max(1, _STEP_ENTRIES // max((2 * c) << k, 1))
        for chunk in (positions[i:i + step] for i in range(0, len(positions), step)):
            members = np.array([[b.bit_length() - 1 for b in _bits(sectors[p])] for p in chunk],
                               dtype=np.int64).reshape(len(chunk), k)
            rows = factor[members if first is None else members + first[chunk, None]]
            if join:
                masks, measures = _band(rows[0], BORDERLINE_MAX)
                keys = _order_keys(masks, k) + ((measures > EPS_ZERO) << 46)
                order = keys.argsort()
                masks, measures = masks[order], measures[order]
                pairs, zeros_end = keys[order].searchsorted(_SPLITS).tolist()
                classes = [masks[1:zeros_end]]
                if not zero_only:
                    null = int(np.bitwise_or.reduce(masks[1:pairs]))
                    keep = _nontrivial(masks[pairs:zeros_end], null, measures[1:pairs], rows[0])
                    maximal, left = [], masks[:zeros_end]
                    while len(left):
                        maximal.append(int(left[-1]))
                        left = left[left & ~maximal[-1] != 0]
                    primitive = np.array(_minimal_preclusive_masks((1 << k) - 1, maximal),
                                         dtype=np.int64)
                    classes += [np.array(maximal, dtype=np.int64),
                                masks[pairs:zeros_end][keep], masks[zeros_end:],
                                primitive[_order_keys(primitive, k).argsort()]]
                key = np.repeat(np.arange(len(classes)), [len(m) for m in classes])
                yield chunk, members, key, np.concatenate(classes)
                continue
            mu = _group_measures(rows)
            g, orders = len(mu), _orders(k)
            flags = zero = mu <= EPS_ZERO
            if not zero_only:
                # Zero supersets of m are zero subsets of 2^k - 1 - m, in reversed rows.
                above = mu > EPS_ZERO
                counts = _subset_counts(np.concatenate((above, ~above[:, ::-1])))
                supersets = counts[g:, ::-1]
                # A mask with no zero superset is preclusive, and primitive when
                # it is its own only preclusive subset.
                preclusive = supersets == 0
                flags = np.concatenate((zero, zero & (supersets == 1), zero & (counts[:g] > 0),
                                        ~zero & (mu <= BORDERLINE_MAX),
                                        preclusive & (_subset_counts(preclusive) == 1)))
            flags = flags[:, orders[0]]
            flags[g:2 * g] = flags[g:2 * g, ::-1]
            flags[:g, 0] = False
            key, pos = np.nonzero(flags)
            yield chunk, members, key, orders[key // g, pos]


def find_zero_sets(df: DecoherenceFunctional) -> ZeroSetCatalog:
    """Exhaustively catalog measure-zero events: find_zero_set_catalogs of one DF."""
    return _catalogs([df])[0]


def find_zero_set_catalogs(dfs) -> list[ZeroSetCatalog]:
    """The zero-set catalog of each DF, those of one factor width searched
    together by _sector_search, which also raises its refusals; a group's
    masks are spread to global bits at once (_spreader), then cut per sector."""
    return _per_group(list(dfs), lambda df: df.factor.shape[1], _catalogs)


def _catalogs(dfs: list[DecoherenceFunctional]) -> list[ZeroSetCatalog]:
    """The catalogs of find_zero_set_catalogs.  Each DF's primitive co-events
    are counted as their groups are spread; more than COEVENT_COUNT_LIMIT of
    one DF are refused, naming cap + 1 as MMCS does."""
    sectors = [s for df in dfs for s in df.sectors()]
    cuts = list(accumulate((len(df.sectors()) for df in dfs), initial=0))
    owner = [d for d in range(len(dfs)) for _ in range(cuts[d], cuts[d + 1])]
    found, cap = [0] * len(dfs), limits.COEVENT_COUNT_LIMIT
    data = [None] * len(sectors)
    for positions, members, key, local in _sector_search(dfs):
        g = len(positions)
        lists = _by_key(tuple(_spreader(members)(local, key % g)), key, 5 * g)
        for j, pos in enumerate(positions):
            data[pos] = SectorZeroData(*sectors[pos], *lists[j::g])
            found[owner[pos]] += len(lists[4 * g + j])
            if found[owner[pos]] > cap:
                refuse_above("COEVENT_COUNT_LIMIT", cap + 1,
                             f"co-event search found {cap + 1} primitive co-events")
    return [ZeroSetCatalog(df, tuple(data[a:b])) for df, a, b in zip(dfs, cuts, cuts[1:])]


@dataclass(frozen=True, slots=True)
class PartitionReport:
    """Off-diagonal residual of one partition, cells as masks over ``space``, in one mode."""

    space: HistorySpace
    cell_masks: tuple[int, ...]
    mode: str
    residual: float
    passed: bool

    @property
    def cells(self) -> tuple[Event, ...]:
        return tuple(_events(self.space, self.cell_masks))

    def cell_labels(self) -> list[list[str]]:
        return [self.space.labels_of(m) for m in self.cell_masks]

    def as_dict(self) -> dict:
        return {
            "cells": self.cell_labels(),
            "mode": self.mode,
            "residual": self.residual,
            "passed": self.passed,
        }


def _cell_sums(factor: np.ndarray, strings: np.ndarray) -> np.ndarray:
    """Cell sums W of partitions given as strings (P x n, cell of each
    history), as an array (c, 2, k, P): [:, 0, a, p] and [:, 1, a, p] are
    the real and imaginary parts of the sum of the factor rows in cell a of
    string p, k one more than the largest value.  A missing cell sums to
    zero.  One real product of the factor's transposed real view (2c x n)
    with the strings' one-hot cells (n x k P) gives them all."""
    n, c = factor.shape
    count = int(strings.max(initial=0)) + 1
    real = np.ascontiguousarray(factor, dtype=complex).view(np.float64)
    onehot = strings.T[:, None, :] == np.arange(count, dtype=strings.dtype)[:, None]
    sums = real.T @ onehot.reshape(n, -1).astype(np.float64)
    return sums.reshape(c, 2, count, len(strings))


# (Re, -Im) of cell a times (Im, Re) of cell b, summed, is Im D(a, b).
_FLIP = np.array([1.0, -1.0])[:, None]


def _pair_residuals(sums: np.ndarray, mode: str) -> np.ndarray:
    """Largest |D(A, B)| (medium) or |Re D(A, B)| (weak) over the cell
    pairs a < b of each partition, from its cell sums (c, 2, k, P):
    D(a, b) = sum over columns of conj(W_a) W_b.  Cell a is paired with
    every later cell at once, by sums of elementwise products along the
    partition axis (einsum, no matrix product); medium takes the largest
    Re^2 + Im^2 and its square root at the end."""
    worst = np.zeros(sums.shape[-1])
    for a in range(sums.shape[2] - 1):
        x, y = sums[:, :, a], sums[:, :, a + 1:]
        vals = np.einsum("crp,crbp->bp", x, y)
        if mode == "medium":
            im = np.einsum("crp,crbp->bp", x * _FLIP, y[:, ::-1])
            vals *= vals
            vals += im * im
        else:
            np.abs(vals, out=vals)
        np.maximum(worst, vals.max(axis=0), out=worst)
    return np.sqrt(worst, out=worst) if mode == "medium" else worst


def _count_chunks(counts: np.ndarray, width, budget: int):
    """Index arrays of strings in chunks padded to their own largest count
    k, each of at most budget // width(k) strings, at least one.  Strings
    that fit in one chunk at their largest count are that chunk, in their
    order; otherwise each chunk holds strings of one count, by ascending
    count (indices ascending within a count)."""
    top = int(counts.max(initial=0))
    if len(counts) * width(top) <= budget:
        yield np.arange(len(counts))
        return
    for count in range(1, top + 1):
        idx = np.flatnonzero(counts == count)
        step = max(1, budget // width(count))
        for first in range(0, len(idx), step):
            yield idx[first:first + step]


def set_partition_strings(n: int, max_cells: int) -> np.ndarray:
    """Restricted-growth strings over n elements with at most max_cells blocks.

    One int8 row per string ``a``, with a[0] = 0 and a[i] <= max(a[:i]) + 1,
    rows in lexicographic order.  The strings grow one element per step,
    each row r getting min(top_r + 2, max_cells) children, top_r its largest
    value.  The row count of every step follows from the counts of rows by
    top value (Stirling numbers of the second kind), so each count is checked
    against PARTITION_COUNT_LIMIT before any row is made, SpaceTooLargeError
    naming the first count above the cap.  The strings then grow in place in
    one array of the final size: each step moves the rows, last first, to
    their children's places, a block of rows at a time.  A value v needs
    Bell(v + 1) rows under the cap, so v <= 10 fits int8.
    """
    if max_cells < 1:
        raise ValueError("max_cells must be at least 1")
    cells = min(max_cells, max(n, 1))
    # One cell allows only the all-zero string.  With two or more, every row
    # has at least two children, so the cap stops the growth within 20 steps.
    steps = range(1, n if cells > 1 else 1)
    # tops[t]: strings of the current length whose largest value is t.
    tops = [min(n, 1)]
    for _ in steps:
        count = sum(r * min(t + 2, cells) for t, r in enumerate(tops))
        refuse_above("PARTITION_COUNT_LIMIT", count, f"partition search over {n} histories into "
                     f"at most {max_cells} cells has at least {count} partitions")
        tops = [r * (t + 1) + (tops[t - 1] if t else 0) for t, r in enumerate(tops + [0])]
        tops = tops[:cells]
    strings = np.zeros((sum(tops), n), dtype=np.int8)
    rows = min(n, 1)
    step = max(1, _STEP_ENTRIES // (2 * cells))
    for m in steps:
        children = np.minimum(strings[:rows, :m].max(axis=1) + 2, cells)
        ends = np.cumsum(children, dtype=np.int64)
        for stop in range(rows, 0, -step):
            first = max(0, stop - step)
            kids = children[first:stop]
            begin = int(ends[first] - kids[0])
            block = slice(begin, int(ends[stop - 1]))
            strings[block, :m] = np.repeat(strings[first:stop, :m], kids, axis=0)
            strings[block, m] = np.arange(block.stop - begin) - np.repeat(
                ends[first:stop] - kids - begin, kids)
        rows = int(ends[-1])
    return strings


@lru_cache(maxsize=8)
def _kept_plan(n: int, max_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """The strings of set_partition_strings(n, max_cells) and their cell
    counts, both int8 and read-only.  _plan keeps those of the 8 sizes of at
    most 10 histories used last: at most Bell(10) = 115,975 (<= _STEP_ENTRIES)
    strings of 11 bytes each, 10 MB in all."""
    strings = set_partition_strings(n, max_cells)
    counts = strings.max(axis=1, initial=-1) + 1
    strings.flags.writeable = counts.flags.writeable = False
    return strings, counts


def _plan(n: int, max_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """The plan of (n, min(max_cells, n)): kept when n <= 10, a size that
    PARTITION_COUNT_LIMIT never refuses, else built, or refused, each call."""
    if n <= 10:
        return _kept_plan(n, min(max_cells, max(n, 1)))
    return _kept_plan.__wrapped__(n, max_cells)


# Reports a PartitionListing builds at a time while it is iterated.
_REPORT_BLOCK = 1024


@cache
def _digit_table(a: int) -> bytes:
    """The bytes.translate table that maps byte a to b"1" and every other
    byte to b"0"."""
    return bytes(49 if v == a else 48 for v in range(256))


class PartitionListing(Sequence):
    """The partitions of ``space`` that passed one search in ``mode``: their
    restricted-growth strings (int8 rows, lexicographic), their residuals and
    cell counts (int64).  Item j (an int) is built as a PartitionReport on
    read, and iteration builds _REPORT_BLOCK reports at a time."""

    def __init__(self, space: HistorySpace, mode: str, strings, residuals, counts):
        self.space, self.mode, self.strings = space, mode, strings
        self.residuals, self.counts = residuals, counts

    def __len__(self) -> int:
        return len(self.strings)

    def __getitem__(self, j) -> PartitionReport:
        j = range(len(self))[operator.index(j)]
        return self._reports(slice(j, j + 1))[0]

    def __iter__(self):
        for first in range(0, len(self), _REPORT_BLOCK):
            yield from self._reports(slice(first, first + _REPORT_BLOCK))

    def _reports(self, rows) -> list[PartitionReport]:
        """The reports of ``rows`` (a slice or a list of row indices), built
        by histories._bulk.  Cell a has the binary digits of its row's
        values, last history first, translated to 1 where the value is a and
        0 elsewhere."""
        masks = [tuple([int(digits.translate(_digit_table(a)), 2) for a in range(count)])
                 for digits, count in zip((row.tobytes()[::-1] for row in self.strings[rows]),
                                          self.counts[rows].tolist())]
        return _bulk(PartitionReport, len(masks), space=repeat(self.space), cell_masks=masks,
                     mode=repeat(self.mode), residual=self.residuals[rows].tolist(),
                     passed=repeat(True))


def find_decoherent_partitions(df: DecoherenceFunctional, mode: str,
                               max_cells: int) -> PartitionListing:
    """All partitions into at most max_cells cells passing the mode's check.

    Partitions are enumerated as restricted-growth strings (lexicographic),
    cells ordered by least member, from the plan of their size (_plan).
    Raises SpaceTooLargeError, before any cell sum is formed, when there are
    more than PARTITION_COUNT_LIMIT such partitions.  The strings are
    checked in chunks (_count_chunks) padded to their own largest count k,
    whose one-hot cells and cell sums hold at most _STEP_ENTRIES entries,
    k (n + 2c) a string; the residuals are written back in the strings'
    order.
    """
    if mode not in ("medium", "weak"):
        raise ValueError(f"unknown decoherence mode {mode!r}")
    n, c = df.factor.shape
    strings, counts = _plan(n, max_cells)
    residuals = np.empty(len(strings))
    for idx in _count_chunks(counts, lambda k: k * (n + 2 * c), _STEP_ENTRIES):
        residuals[idx] = _pair_residuals(_cell_sums(df.factor, strings[idx]), mode)
    passing = residuals <= EPS_DF
    return PartitionListing(df.space, mode, strings[passing], residuals[passing],
                            counts[passing].astype(np.int64))
