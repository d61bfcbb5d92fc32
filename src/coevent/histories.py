"""History spaces, branch factors, and the decoherence functional.

A schema is an initial state plus a sequence of slices; each slice is a
projective decomposition applied after an optional unitary evolution.  A
history picks one outcome per slice.  The decoherence functional is

    D(i, j) = Tr(C_i^dagger C_j rho)

with the class operator C_i the right-to-left product of (projector after
evolution) factors, earliest slice rightmost.  The first argument carries
the dagger, so D(i, j) = conj(alpha_i) * alpha_j whenever both histories
share a final outcome and the initial state is pure.  With rho = R R^dagger
and the branch v_i = C_i R flattened, D(i, j) = vdot(v_i, v_j): a
DecoherenceFunctional stores only this Gram factor, one branch per row.
The inputs are factors too: a schema stores R, and each slice the unitary
basis whose columns its outcomes own, so neither rho nor a projector is
formed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import product, repeat

import numpy as np

from .errors import LabelMismatchError, ValidationFailedError
from .limits import MAX_OMEGA_ENV, refuse_above
from .linalg import (ProjectiveDecomposition, as_complex_matrix, as_ket, dagger, is_unitary,
                     read_only)
from .tolerances import EPS_DF, ROUNDOFF_FLOOR, gamma

# Array entries one vectorized step may hold: bounds the memory of the block
# check and of the partition and composition searches to a few MB.
_STEP_ENTRIES = 1 << 17
# build_dfs takes the exact cross-sector max of an item with n^2 c under this,
# where it builds faster than by the leakage bound (n <= 32 at d = 2).
_EXACT_ENTRIES = 1 << 13


@dataclass(frozen=True)
class Slice:
    """One measurement slice: an optional evolution, then a decomposition.

    The evolution is checked here, once, and kept as a read-only copy, so a
    slice shared by several schemas is checked, and its B^dagger U formed,
    only once.
    """

    decomposition: ProjectiveDecomposition
    evolution: np.ndarray | None = None

    def __post_init__(self):
        if self.evolution is not None:
            u = read_only(as_complex_matrix(self.evolution))
            if u.shape != (self.decomposition.dim,) * 2 or not is_unitary(u):
                raise ValueError("slice evolution is not unitary")
            object.__setattr__(self, "evolution", u)

    @cached_property
    def turn(self) -> np.ndarray:
        """B^dagger U, or B^dagger without an evolution: it takes a branch to
        its coefficients in the basis B after the evolution U."""
        turn = dagger(self.decomposition.basis)
        if self.evolution is not None:
            turn = turn @ self.evolution
        turn.flags.writeable = False
        return turn


@dataclass(frozen=True)
class HistorySchema:
    """Initial state plus an ordered tuple of slices on one Hilbert space.

    ``state`` is a d x r factor R of the initial density matrix, rho = R R^dagger
    (one column for a ket), kept as a read-only copy so that the state checks
    cannot go stale.
    """

    state: np.ndarray
    slices: tuple[Slice, ...]

    def __post_init__(self):
        object.__setattr__(self, "state", read_only(self.state))
        object.__setattr__(self, "slices", tuple(self.slices))
        if self.state.ndim != 2:
            raise ValueError("initial state factor must be a matrix")
        if not self.slices:
            raise ValueError("a schema needs at least one slice")
        if any(s.decomposition.dim != self.dim for s in self.slices):
            raise ValueError("slice decomposition has wrong dimension")

    @classmethod
    def from_ket(cls, ket, slices) -> "HistorySchema":
        return cls(as_ket(ket)[:, None], slices)

    @property
    def dim(self) -> int:
        return self.state.shape[0]

    @property
    def ket(self) -> np.ndarray | None:
        """The initial ket of a pure-state schema (one state column), else None."""
        return self.state[:, 0] if self.state.shape[1] == 1 else None


@dataclass(frozen=True, eq=False)
class HistorySpace:
    """Enumerated histories with deterministic labels.

    For schema-backed spaces, ``sectors`` holds one (final label, member
    mask) pair per final-slice outcome, in decomposition order, the masks
    nonempty, disjoint and covering.  Raw spaces carry labels only.
    """

    labels: tuple[str, ...]
    sectors: tuple[tuple[str, int], ...] | None = None

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("history labels must be distinct")
        if self.sectors is not None:
            masks = [mask for _, mask in self.sectors]
            union = reduce(operator.or_, masks, 0)
            if (union != self.full_mask() or not all(masks)
                    or sum(map(int.bit_count, masks)) > self.size):
                raise ValueError("sectors must be nonempty, disjoint and cover the space")

    @property
    def size(self) -> int:
        return len(self.labels)

    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def sector_ids(self) -> np.ndarray:
        """The index of each history's sector, on first use (spaces with sectors)."""
        ids = np.zeros(self.size, dtype=np.intp)
        for s, (_, mask) in enumerate(self.sectors):
            ids[[b.bit_length() - 1 for b in _bits(mask)]] = s
        ids.flags.writeable = False
        return ids

    def labels_of(self, mask: int) -> list[str]:
        """Labels of the histories in ``mask``, in index order."""
        labels = self.labels
        out = []
        while mask:
            low = mask & -mask
            out.append(labels[low.bit_length() - 1])
            mask ^= low
        return out


def raw_space(labels) -> HistorySpace:
    return HistorySpace(labels=tuple(labels))


def _bits(mask: int):
    """Single-bit masks of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


@dataclass(frozen=True, slots=True)
class Event:
    """A subset of a history space, stored as a bitmask over history indices.

    The constructor checks the mask; listings of masks the package built
    itself come from ``_events``, which skips that check.
    """

    space: HistorySpace
    mask: int

    def __post_init__(self):
        object.__setattr__(self, "mask", operator.index(self.mask))
        if self.mask < 0 or self.mask >> self.space.size:
            raise ValueError("event mask addresses histories outside the space")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(b.bit_length() - 1 for b in _bits(self.mask))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.space.labels_of(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0


def _bulk(cls, count: int, **columns) -> list:
    """``count`` new objects of the frozen, slotted dataclass ``cls``, each
    field set from its column (one iterable per field) through the slot
    descriptors, so no __init__ or check runs."""
    out = list(map(object.__new__, repeat(cls, count)))
    for name, values in columns.items():
        list(map(getattr(cls, name).__set__, out, values))
    return out


def _events(space: HistorySpace, masks) -> list[Event]:
    """Events over ``space`` of int masks the package built inside it, built
    by _bulk without the range check."""
    masks = list(masks)
    return _bulk(Event, len(masks), space=repeat(space), mask=masks)


def _mask_bits(masks, n: int) -> np.ndarray:
    """One boolean row per bitmask, bit i in column i."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(int(m).to_bytes(width, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(masks), width), axis=1, count=n, bitorder="little") == 1


# Byte b holds the bits of b in reverse order.
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def sort_masks(masks, width: int) -> list[int]:
    """Masks of ``width`` bits in canonical order: by cardinality, then by
    member indices.

    Of two masks of equal size, the one holding the lowest index of their
    symmetric difference comes first: the one whose bit-reversed value is
    larger.  The reversal runs over whole bytes, which shifts every key by
    the same amount and keeps the order.
    """
    size = (width + 7) // 8

    def key(m):
        m = int(m)
        return m.bit_count(), -int.from_bytes(m.to_bytes(size, "little")
                                              .translate(_REVERSED_BYTES), "big")

    return sorted(masks, key=key)


def product_labels(factors, template: str) -> tuple[str, ...]:
    """Distinct labels of a product's histories, first factor major: ``template``
    around the factor labels concatenated if that keeps them distinct (1 x 2
    is 12); else joined by a comma (1 x 11 is 1,11, 11 x 1 is 11,1); else, as
    for the labels 1, 11 and 1,1, the positions from 1 (1,2, 2,1, ...)."""
    for sep in ("", ","):
        labels = tuple([template.format(sep.join(p)) for p in product(*factors)])
        if len(set(labels)) == len(labels):
            return labels
    positions = [[str(i) for i in range(1, len(f) + 1)] for f in factors]
    return tuple([template.format(",".join(p)) for p in product(*positions)])


def _structure(schema: HistorySchema) -> tuple:
    """A schema's slice structure: its state shape, each slice's labels and ranks."""
    return schema.state.shape, tuple(
        (s.decomposition.labels, s.decomposition.ranks) for s in schema.slices)


@lru_cache(maxsize=8)
def _space(labels: tuple[tuple[str, ...], ...]) -> HistorySpace:
    """The space of slices with these outcome labels, in time order; the
    spaces of the 8 label tuples used last are kept (enumerate_histories)."""
    n = math.prod(map(len, labels))
    repunit = ((1 << n) - 1) // ((1 << len(labels[-1])) - 1)
    space = object.__new__(HistorySpace)  # distinct labels, covering sectors: no check
    space.__dict__.update(labels=product_labels(labels, "h_{{{}}}"),
                          sectors=tuple((lab, repunit << f) for f, lab in enumerate(labels[-1])))
    return space


def enumerate_histories(schema: HistorySchema) -> HistorySpace:
    """All histories of a schema, lexicographic in outcome indices.

    The first slice is the most significant position.  Labels join the
    outcome labels in time order (product_labels), e.g. h_{00xi2} or h_{+0+}.
    Above the history-space cap or FACTOR_ENTRY_LIMIT (read on every call),
    SpaceTooLargeError.  Schemas whose slices have the same outcome labels
    share a kept space, if it has at most 2^12 histories.

    The final slice is the least significant position, so with d final
    outcomes the sector of outcome f holds every d-th history from f: the
    repunit mask (2^n - 1) / (2^d - 1) shifted left by f.
    """
    n = math.prod(len(s.decomposition) for s in schema.slices)
    refuse_above(MAX_OMEGA_ENV, n, f"history space has {n} histories")
    d, r = schema.state.shape
    refuse_above("FACTOR_ENTRY_LIMIT", n * r * d, f"branch rows of {n} histories, {r} state "
                 f"columns and dimension {d} have {n * r * d} entries")
    labels = tuple(s.decomposition.labels for s in schema.slices)
    return (_space if n <= 1 << 12 else _space.__wrapped__)(labels)


@dataclass(frozen=True)
class ValidationReport:
    """Axiom residuals of a DF; ``block_residual`` (None without final sectors)
    is the exact cross-sector max, except for build_dfs' items of n^2 c at
    least _EXACT_ENTRIES, which report the leakage bound when it is at most
    ROUNDOFF_FLOOR.

    ``passed`` requires Hermiticity, normalization, and (when applicable)
    final-sector block structure within EPS_DF, plus a smallest eigenvalue
    of the Hermitian part above -EPS_DF; a NaN residual fails.  Every DF
    holds a passed report; a failed one travels in ValidationFailedError.
    """

    size: int
    hermiticity_residual: float
    normalization_residual: float
    min_eigenvalue: float
    block_residual: float | None

    @property
    def block_applicable(self) -> bool:
        return self.block_residual is not None

    @property
    def failures(self) -> tuple[str, ...]:
        out = []
        if not self.hermiticity_residual <= EPS_DF:
            out.append(f"hermiticity residual {self.hermiticity_residual:.3e}")
        if not self.normalization_residual <= EPS_DF:
            out.append(f"normalization residual {self.normalization_residual:.3e}")
        if not self.min_eigenvalue >= -EPS_DF:
            out.append(f"strong positivity violated, min eigenvalue {self.min_eigenvalue:.3e}")
        if self.block_applicable and not self.block_residual <= EPS_DF:
            out.append(f"final-sector block residual {self.block_residual:.3e}")
        return tuple(out)

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "size": self.size,
            "hermiticity_residual": self.hermiticity_residual,
            "normalization_residual": self.normalization_residual,
            "min_eigenvalue": self.min_eigenvalue,
            "block_applicable": self.block_applicable,
            "block_residual": self.block_residual,
            "passed": self.passed,
            "failures": list(self.failures),
        }


@dataclass(frozen=True, eq=False)
class DecoherenceFunctional:
    """A decoherence functional over a history space, stored as its Gram
    factor V (one row per history): D(i, j) = vdot(V[i], V[j]).

    It is validated when it is made and cannot change after.  Made here,
    ``factor`` is a read-only copy and ``validation`` validate_df's report,
    and a report given with it is checked, not trusted; the package's own
    builders hand over a factor just made with its report (_made).  A
    failing report raises ValidationFailedError."""

    space: HistorySpace
    factor: np.ndarray
    validation: ValidationReport | None = None

    def __post_init__(self):
        object.__setattr__(self, "factor", read_only(self.factor))
        if self.factor.ndim != 2 or self.factor.shape[0] != self.space.size:
            raise ValueError("factor shape does not match the history space")
        for report in filter(None, (self.validation, validate_df(self))):
            _passed(report, "decoherence functional")
        object.__setattr__(self, "validation", report)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense read-only |Omega| x |Omega| matrix conj(V) V^T, on first use."""
        matrix = np.conjugate(self.factor) @ self.factor.T
        matrix.flags.writeable = False
        return matrix

    @property
    def size(self) -> int:
        return self.space.size

    def sectors(self) -> tuple[tuple[str, int], ...]:
        """(final label, member mask) pairs, whose block structure the report
        verifies; without them the whole space as the sector ("all", full mask)."""
        return self.space.sectors or (("all", self.space.full_mask()),)


def _passed(report: ValidationReport, what: str) -> ValidationReport:
    if not report.passed:
        raise ValidationFailedError(f"{what} failed validation: " + ", ".join(report.failures),
                                    report=report)
    return report


def _made(space: HistorySpace, factor: np.ndarray, report: ValidationReport,
          what: str) -> DecoherenceFunctional:
    """The DF of a factor a builder has just made, which no caller holds, and
    its report (_passed): the factor is made read-only, not copied."""
    factor.flags.writeable = False
    df = object.__new__(DecoherenceFunctional)
    df.__dict__.update(space=space, factor=factor, validation=_passed(report, what))
    return df


def build_df(schema: HistorySchema) -> DecoherenceFunctional:
    """The validated decoherence functional of a schema: build_dfs of one."""
    return _build_group([schema])[0]


def build_dfs(schemas) -> list[DecoherenceFunctional]:
    """The DF of each schema; those of one slice structure (_structure) share
    a HistorySpace and are built together, _STEP_ENTRIES branch-row entries
    at most: branches (r rows of length d) times a slice's cached turn
    (B^dagger U)^T, then per outcome k (least significant) the coefficients
    of the columns k owns times B^T.  block_residual is the exact max for
    n^2 r d under _EXACT_ENTRIES; above it, the final slice's leakage bound
    if at most ROUNDOFF_FLOOR, else the exact max.  The rest is validate_df's.
    Each batched operation keeps its one-schema shape item by item, so a DF
    does not depend on the schemas built with it."""
    return _per_group(list(schemas), _structure, _build_group)


def _per_group(items: list, key, run) -> list:
    """run(group) on the items of each key, its results put back in order."""
    groups: dict = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    out = [None] * len(items)
    for idx in groups.values():
        for i, result in zip(idx, run([items[i] for i in idx])):
            out[i] = result
    return out


def _build_group(schemas: list[HistorySchema]) -> list[DecoherenceFunctional]:
    space, (d, r) = enumerate_histories(schemas[0]), schemas[0].state.shape
    step, out = max(1, _STEP_ENTRIES // (space.size * r * d)), []
    for chunk in (schemas[i:i + step] for i in range(0, len(schemas), step)):
        g = len(chunk)
        # Turns stacked contiguous: one row times a transposed operand can round otherwise.
        rows = np.array([s.state for s in chunk]).transpose(0, 2, 1)[:, None]
        for slices in zip(*(s.slices for s in chunk)):
            turns = np.array([s.turn.T for s in slices])
            bases = np.array([s.decomposition.basis for s in slices]).transpose(0, 2, 1)
            owner = slices[0].decomposition.owner
            owned = (rows.reshape(g, -1, d) @ turns).reshape(g, -1, 1, r, d) * owner[:, None]
            rows = (owned.reshape(g, -1, d) @ bases).reshape(g, -1, r, d)
        factors = rows.transpose(0, 1, 3, 2).reshape(g, space.size, -1)
        blocks = (_leakage_bound(rows, [s.slices[-1].decomposition for s in chunk])
                  if space.size ** 2 * r * d >= _EXACT_ENTRIES else [math.inf] * g)
        if exact := [i for i, b in enumerate(blocks) if not b <= ROUNDOFF_FLOOR]:
            for i, b in zip(exact, _block_residual(factors[exact], space.sector_ids)):
                blocks[i] = b
        out += [_made(space, v, report, "constructed decoherence functional")
                for v, report in zip(factors, _residuals(factors, blocks))]
    return out


def _leakage_bound(rows: np.ndarray, decs) -> list[float]:
    """Upper bounds on |D(i, j)| across final sectors, one per item of the final
    branches v_i (``rows``, G x n x r x d; branch i has outcome f = i mod K)
    and its basis B (``decs``), f owning B_f.  With c_i = (B^dagger v_i)_f and
    the leakage e_i = v_i - B_f c_i, D(i, j) = c_i^dagger B_f^dagger B_g c_j
    + e_i^dagger v_j + (v_i - e_i)^dagger e_j, so |D(i, j)| <= 2 max|v| max|e|
    + max|e|^2 + max|c|^2 |B^dagger B off its diagonal blocks|_F, plus a
    round-off allowance.  O(n r d^2); the O(d^3) norm is cached on B."""
    owner = decs[0].owner
    k, d = owner.shape
    g, r = len(rows), rows.shape[2]
    basis = np.array([dec.basis for dec in decs])
    v = rows.reshape(g, -1, k, r, d)
    owned = (rows.reshape(g, -1, d) @ np.conjugate(basis)).reshape(v.shape) * owner[:, None]
    leak = v - (owned.reshape(g, -1, d) @ basis.transpose(0, 2, 1)).reshape(v.shape)
    squares = np.square(np.stack((v, leak, owned)).view(np.float64)).sum(axis=(-2, -1))
    big_v, big_e, big_c = np.sqrt(squares.reshape(3, g, -1).max(axis=2)).tolist()
    # Round-off: D(i, j) sums r d products, e_i two of length d, each within gamma
    # of |v_i| |v_j|, at most the largest norm of a sector times that of another.
    peaks = [sorted(p)[-2:] for p in squares[0].max(axis=1).tolist()]
    pairs = [math.sqrt(p[0] * p[1]) if k > 1 else 0.0 for p in peaks]
    allowance = 2.0 * gamma((r + 2) * d)
    return [2 * bv * be + be ** 2 + bc ** 2 * dec.cross_block_norm + allowance * p
            for bv, be, bc, dec, p in zip(big_v, big_e, big_c, decs, pairs)]


def raw_df(matrix, labels=None) -> DecoherenceFunctional:
    """Ingest an externally supplied decoherence matrix.

    Labels default to h1, h2, ...  A matrix failing Hermiticity,
    normalization, or strong positivity is rejected with
    ValidationFailedError, whose ``report`` holds the residuals of the
    matrix as given.  The factor comes from the same eigendecomposition: the
    eigenvectors of the eigenvalues above n eps lambda_max, eps the machine epsilon.
    A matrix whose Hermitian part, eigenvalues or residuals overflow raises
    ValueError.
    """
    mat = as_complex_matrix(matrix)
    n = mat.shape[0]
    labels = [f"h{i + 1}" for i in range(n)] if labels is None else list(labels)
    if len(labels) != n:
        raise ValueError(f"{len(labels)} history labels for a {n} x {n} decoherence matrix")
    try:
        with np.errstate(over="raise", invalid="raise"):
            w, u = np.linalg.eigh((mat + dagger(mat)) / 2)
            if not np.isfinite(w).all():
                raise FloatingPointError("overflow encountered in eigh")
            report = ValidationReport(
                size=n,
                hermiticity_residual=float(np.max(np.abs(mat - dagger(mat)))) if n else 0.0,
                normalization_residual=float(abs(mat.sum() - 1.0)),
                min_eigenvalue=float(w[0]) if n else 0.0,
                block_residual=None,
            )
    except FloatingPointError as exc:
        raise ValueError(f"raw decoherence matrix overflows double precision ({exc})") from None
    keep = w > n * np.finfo(float).eps * w.max(initial=0.0)
    return _made(raw_space(labels), np.conjugate(u[:, keep]) * np.sqrt(w[keep]), report,
                 "raw decoherence matrix")


def _block_residual(v: np.ndarray, ids: np.ndarray) -> list[float]:
    """Exact largest |D(i, j)| over histories i, j of different sectors (``ids``,
    each history's) of each factor v (G x n x c), O(n^2 c) in O(n) memory: at
    least two rows of about _STEP_ENTRIES products at a time against all n, so
    each D(i, j) rounds as in conj(V) V^T (one row can differ).  NaN wins."""
    g, n, _ = v.shape
    step = max(2, _STEP_ENTRIES // max(g * n, 1))

    def chunk_max(start):
        start = max(0, min(start, n - step))
        cross = np.abs(np.conjugate(v[:, start:start + step]) @ v.transpose(0, 2, 1))
        np.copyto(cross, 0.0, where=ids[start:start + step, None] == ids)
        return cross.max(axis=(1, 2))

    return reduce(np.maximum, map(chunk_max, range(0, n, step)), np.zeros(g)).tolist()


def validate_df(df: DecoherenceFunctional) -> ValidationReport:
    """Check the decoherence-functional axioms on the factor and report residuals.

    D = conj(V) V^T is Hermitian by construction.  The smallest eigenvalue
    comes from the smaller of the n x n and c x c Gram matrices of the n x c
    factor, which share their nonzero eigenvalues; for n > c, D also has the
    eigenvalue 0.  Block structure is checked whenever the space knows its
    final-slice sectors, by the exact cross-sector max (_block_residual),
    O(n^2 c): this DF may have no basis to bound it by, as for hand-built
    spaces and tensor_df products.  The DF constructor computes it; a
    non-finite factor fails it.
    """
    return _exact_report(df.factor, df.space)


def _exact_report(v: np.ndarray, space: HistorySpace) -> ValidationReport:
    """validate_df's report of factor v over ``space``."""
    with np.errstate(all="ignore"):
        block = None if space.sectors is None else _block_residual(v[None], space.sector_ids)[0]
        return _residuals(v[None], [block])[0]


def _residuals(v: np.ndarray, blocks) -> list[ValidationReport]:
    """validate_df's reports of the stacked factors v (G x n x c) with the given
    block residuals, the finite ones' Gram matrices in one stacked eigvalsh;
    a non-finite factor has a non-finite normalization and a NaN min eigenvalue."""
    g, n, c = v.shape
    norms = [abs(float(np.vdot(t, t).real) - 1.0) for t in v.sum(axis=1)]
    lows = [0.0 if math.isfinite(x) else math.nan for x in norms]
    finite = [i for i, x in enumerate(lows) if x == 0.0]
    if n and finite:
        w = v if len(finite) == g else v[finite]
        eig = np.linalg.eigvalsh(w.transpose(0, 2, 1) @ np.conjugate(w) if n > c
                                 else np.conjugate(w) @ w.transpose(0, 2, 1))
        for i, low in zip(finite, (eig.min(axis=1, initial=0.0) if n > c else eig[:, 0]).tolist()):
            lows[i] = low
    return [ValidationReport(n, 0.0, norm, low, block)
            for norm, low, block in zip(norms, lows, blocks)]


def _require_same_labels(space_a: HistorySpace, space_b: HistorySpace) -> None:
    if space_a is not space_b and space_a.labels != space_b.labels:
        raise LabelMismatchError("events live over different history label sets")


def measure(df: DecoherenceFunctional, event: Event) -> float:
    """Quantum measure mu(event) = |sum of its factor rows|^2, 0.0 when empty;
    LabelMismatchError for an event over other history labels."""
    _require_same_labels(df.space, event.space)
    total = df.factor[list(event.indices)].sum(axis=0)
    return float(np.vdot(total, total).real)
