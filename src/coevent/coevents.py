"""Primitive preclusive multiplicative co-events.

A multiplicative co-event is the characteristic map of a support S:
phi_S(E) = 1 iff S is a subset of E.  It is preclusive when it vanishes on
every zero event, which holds iff S is contained in no maximal zero event.
Primitive co-events have support-minimal preclusive supports; classical
ones have singleton supports.

Minimal preclusive supports never straddle verified final sectors: a
support's sector parts are covered by per-sector zero events independently,
so any preclusive support stays preclusive after being cut down to one
uncovered sector part.  Enumeration therefore runs sector by sector.

Within a sector, a support S escapes a maximal zero event M iff S meets the
complement sector - M.  The minimal preclusive supports are thus exactly
the minimal transversals of the hypergraph {sector - M : M maximal}, and
they are found by hypergraph dualization with the MMCS algorithm of
Murakami & Uno, "Efficient algorithms for dualizing large-scale
hypergraphs", Discrete Appl. Math. 170 (2014), whose cost follows the
number of transversals rather than the 2^k subsets of the sector.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptySupportError, LabelMismatchError
from .histories import DecoherenceFunctional, Event
from .measure_analysis import ZeroSetCatalog, find_zero_sets


@dataclass(frozen=True)
class CoEvent:
    """A multiplicative co-event, identified by its support."""

    support: Event
    classical: bool

    def __len__(self) -> int:
        return len(self.support)


@dataclass(eq=False)
class CoEventSet:
    """Primitive preclusive co-events of one DF, deterministically ordered."""

    coevents: tuple[CoEvent, ...]
    label: str
    df: DecoherenceFunctional

    def __len__(self) -> int:
        return len(self.coevents)

    def __iter__(self):
        return iter(self.coevents)

    def supports(self) -> list[Event]:
        return [c.support for c in self.coevents]

    def support_labels(self) -> list[list[str]]:
        return [list(c.support.labels) for c in self.coevents]


def _require_same_labels(space_a, space_b):
    if space_a is not space_b and space_a.labels != space_b.labels:
        raise LabelMismatchError("events live over different history label sets")


def evaluate(coevent: CoEvent, event: Event) -> bool:
    """Apply the co-event to an event: true iff the support is contained."""
    _require_same_labels(coevent.support.space, event.space)
    return coevent.support.mask & ~event.mask == 0


def is_preclusive(support: Event, catalog: ZeroSetCatalog) -> bool:
    """True iff the support is contained in no zero event of the catalog.

    Checked sector by sector: the support fails only if every sector part
    is covered by some maximal zero event of its sector.
    """
    if not support:
        raise EmptySupportError("co-event supports must be nonempty")
    for s in catalog.sectors:
        part = support.mask & s.sector_mask
        if not any(part & ~mx == 0 for mx in s.maximal_masks):
            return True
    return False


def _bits(mask: int):
    """Single-bit masks of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _minimal_preclusive_masks(members: tuple[int, ...], maximal: tuple[int, ...]) -> list[int]:
    """Minimal sub-supports of one sector not covered by any maximal mask.

    These are the minimal transversals of the edges ``sector & ~M``, one per
    maximal mask M, enumerated by MMCS (Murakami & Uno 2014).  A branch keeps
    the chosen vertices, each with its critical edges (uncovered edges that
    only it hits), the remaining candidate vertices and the uncovered edges,
    all as int bitmasks.  It splits on the uncovered edge with the fewest
    candidates and is cut as soon as a chosen vertex loses its last critical
    edge, so every output is minimal and appears once.  Recursion depth is
    bounded by the sector size.  Output order is unspecified.
    """
    sector = 0
    for i in members:
        sector |= 1 << i
    edges = [sector & ~mx for mx in maximal] or [sector]
    if not all(edges):
        return []
    edge_of = {1 << j: e for j, e in enumerate(edges)}
    hits: dict[int, int] = {}
    for bit, e in edge_of.items():
        for v in _bits(e):
            hits[v] = hits.get(v, 0) | bit
    found: list[int] = []

    def extend(chosen: int, crit: list[tuple[int, int]], cand: int, uncov: int) -> None:
        if not uncov:
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


def enumerate_primitive_coevents(df: DecoherenceFunctional,
                                 catalog: ZeroSetCatalog | None = None,
                                 label: str = "") -> CoEventSet:
    """All primitive preclusive co-events of a validated DF.

    Runs per final sector when block structure is verified; otherwise over
    the whole space as one sector.  Co-events come out sorted by support
    cardinality, then lexicographically by member indices.
    When no nontrivial zero set exists the result is the classical collapse:
    one singleton co-event per history of positive measure.
    """
    if catalog is None:
        catalog = find_zero_sets(df)
    masks: list[int] = []
    for s in catalog.sectors:
        if s.sector_mask in s.zero_masks:
            continue
        masks.extend(_minimal_preclusive_masks(s.members, s.maximal_masks))
    masks.sort(key=lambda m: (int(m).bit_count(), Event(df.space, m).indices))
    coevents = tuple(
        CoEvent(support=Event(df.space, m), classical=int(m).bit_count() == 1)
        for m in masks
    )
    return CoEventSet(coevents=coevents, label=label, df=df)


def intersect_coevent_sets(sets) -> list[Event]:
    """Supports present in every given co-event set.

    All sets must share one history label tuple; the result is expressed
    over the first set's space, ordered by cardinality then member indices.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one co-event set")
    first = sets[0]
    for other in sets[1:]:
        _require_same_labels(first.df.space, other.df.space)
    shared = set(c.support.mask for c in first.coevents)
    for other in sets[1:]:
        shared &= set(c.support.mask for c in other.coevents)
    space = first.df.space
    return [Event(space, m)
            for m in sorted(shared, key=lambda m: (int(m).bit_count(), Event(space, m).indices))]


@dataclass(frozen=True)
class DistinguishabilityReport:
    """Shared-support and per-final-outcome admissibility summary.

    ``pairwise`` maps (label_i, label_j) to the supports common to both
    sets; ``common`` is the intersection across the whole family;
    ``admissibility`` maps each final outcome to, per set label, whether
    some co-event support lies entirely inside that outcome's sector.
    """

    labels: tuple[str, ...]
    pairwise: dict
    common: list
    admissibility: dict

    def as_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "pairwise": {f"{a}&{b}": [list(s) for s in v]
                         for (a, b), v in sorted(self.pairwise.items())},
            "common": [list(s) for s in self.common],
            "admissibility": {
                f: {lab: bool(v) for lab, v in row.items()}
                for f, row in self.admissibility.items()
            },
        }


def distinguishability_report(sets) -> DistinguishabilityReport:
    """Compare the co-event sets of several initial states on one space."""
    sets = list(sets)
    if len(sets) < 2:
        raise ValueError("need at least two co-event sets to compare")
    first = sets[0]
    for other in sets[1:]:
        _require_same_labels(first.df.space, other.df.space)
    labels = tuple(s.label for s in sets)
    if len(set(labels)) != len(labels):
        raise LabelMismatchError("co-event sets must carry distinct state labels")

    pairwise = {}
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            shared = intersect_coevent_sets([sets[i], sets[j]])
            pairwise[(sets[i].label, sets[j].label)] = [e.labels for e in shared]
    common = [e.labels for e in intersect_coevent_sets(sets)]

    sector_pairs = first.df.space.final_sector_masks()
    if sector_pairs is None:
        sector_pairs = [("all", first.df.space.full_mask())]
    admissibility = {
        f: {s.label: any(c.support.mask & ~mask == 0 for c in s.coevents) for s in sets}
        for f, mask in sector_pairs
    }
    return DistinguishabilityReport(
        labels=labels, pairwise=pairwise, common=common, admissibility=admissibility
    )
