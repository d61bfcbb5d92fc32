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

The zero-set search lists the minimal preclusive supports of each sector
(SectorZeroData.primitive_masks), and counts them against
COEVENT_COUNT_LIMIT; measure_analysis says how.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, repeat

from .errors import LabelMismatchError
from .histories import (DecoherenceFunctional, Event, HistorySpace, _bulk, _events,
                        _require_same_labels, sort_masks)
from .measure_analysis import ZeroSetCatalog, find_zero_sets


@dataclass(frozen=True, slots=True)
class CoEvent:
    """A multiplicative co-event, identified by its support mask over ``space``."""

    space: HistorySpace
    mask: int
    classical: bool

    @property
    def support(self) -> Event:
        return _events(self.space, (self.mask,))[0]


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

    def support_labels(self) -> list[list[str]]:
        return [self.df.space.labels_of(c.mask) for c in self.coevents]


def enumerate_primitive_coevents(df: DecoherenceFunctional,
                                 catalog: ZeroSetCatalog | None = None,
                                 label: str = "") -> CoEventSet:
    """All primitive preclusive co-events of a validated DF.

    Runs per final sector when block structure is verified; otherwise over
    the whole space as one sector.  Co-events come out sorted by support
    cardinality, then lexicographically by member indices.
    When no nontrivial zero set exists the result is the classical collapse:
    one singleton co-event per history of positive measure.  A ``catalog``
    of another DF raises ValueError; more than COEVENT_COUNT_LIMIT co-events
    raise SpaceTooLargeError while the catalog is built.
    """
    if catalog is None:
        catalog = find_zero_sets(df)
    elif catalog.df is not df:
        raise ValueError("the zero-set catalog belongs to another decoherence functional")
    masks = sort_masks(chain.from_iterable(s.primitive_masks for s in catalog.sectors), df.size)
    coevents = _bulk(CoEvent, len(masks), space=repeat(df.space), mask=masks,
                     classical=[m.bit_count() == 1 for m in masks])
    return CoEventSet(coevents=tuple(coevents), label=label, df=df)


def _shared_masks(sets) -> list[int]:
    """Support masks present in every given co-event set (at least one, all
    over one history label tuple), in the first set's order (by
    cardinality, then member indices)."""
    shared = [c.mask for c in sets[0].coevents]
    for other in sets[1:]:
        kept = {c.mask for c in other.coevents}
        shared = [m for m in shared if m in kept]
    return shared


def distinguishability_report(sets) -> dict:
    """Compare the co-event sets of several initial states on one space.

    Returns the report sections ``intersection``, the supports common to
    every set; ``pairwise_shared``, keyed "label_i&label_j", the supports
    common to each pair of sets; and ``admissibility``, which maps each
    final outcome to, per set label, whether some co-event support lies
    entirely inside that outcome's sector.  Supports are label lists.
    """
    sets = list(sets)
    if len(sets) < 2:
        raise ValueError("need at least two co-event sets to compare")
    first = sets[0]
    for other in sets[1:]:
        _require_same_labels(first.df.space, other.df.space)
    labels = tuple(s.label for s in sets)
    if len(set(labels)) != len(labels):
        raise LabelMismatchError("co-event sets must carry distinct state labels")

    labels_of = first.df.space.labels_of
    return {
        "intersection": [labels_of(m) for m in _shared_masks(sets)],
        "pairwise_shared": {f"{a.label}&{b.label}": [labels_of(m) for m in _shared_masks([a, b])]
                            for a, b in combinations(sets, 2)},
        "admissibility": {
            f: {s.label: any(c.mask & ~mask == 0 for c in s.coevents) for s in sets}
            for f, mask in first.df.sectors()
        },
    }
