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
from dataclasses import InitVar, dataclass
from functools import cached_property, reduce
from itertools import product, repeat

import numpy as np

from .errors import LabelMismatchError, ValidationFailedError
from .limits import MAX_OMEGA_ENV, refuse_above
from .linalg import (ProjectiveDecomposition, as_complex_matrix, as_ket, dagger, is_unitary,
                     read_only)
from .tolerances import EPS_DF, EPS_UNIT, ROUNDOFF_FLOOR

# Array entries one vectorized step may hold: bounds the memory of the block
# check and of the partition and composition searches to a few MB.
_STEP_ENTRIES = 1 << 17


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

    ``state`` is a d x r factor R of the initial density matrix, rho = R R^dagger:
    one column for a ket, one column per eigenvector for a density matrix,
    kept as a read-only copy so that the state checks cannot go stale.
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

    @classmethod
    def from_density(cls, rho, slices) -> "HistorySchema":
        """A schema whose state factor comes from the eigendecomposition of rho."""
        r = as_complex_matrix(rho)
        if np.max(np.abs(r - dagger(r))) > EPS_UNIT:
            raise ValueError("initial density matrix is not Hermitian")
        if abs(np.trace(r) - 1.0) > EPS_UNIT:
            raise ValueError("initial density matrix must have unit trace")
        w, v = np.linalg.eigh((r + dagger(r)) / 2)
        if w[0] < -EPS_UNIT:
            raise ValueError("initial density matrix must be positive semidefinite")
        return cls(v * np.sqrt(np.clip(w, 0.0, None)), slices)

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


def _events(space: HistorySpace, masks) -> list[Event]:
    """Events over ``space`` of int masks the package built inside it.

    The fields are set through the slot descriptors, so no per-object
    __init__ or range check runs.
    """
    masks = list(masks)
    events = list(map(object.__new__, repeat(Event, len(masks))))
    list(map(Event.space.__set__, events, repeat(space)))
    list(map(Event.mask.__set__, events, masks))
    return events


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


def enumerate_histories(schema: HistorySchema) -> HistorySpace:
    """All histories of a schema, lexicographic in outcome indices.

    The first slice is the most significant position.  Labels join the
    outcome labels in time order (product_labels), e.g. h_{00xi2} or h_{+0+}.
    Above the history-space cap or FACTOR_ENTRY_LIMIT, SpaceTooLargeError.

    The final slice is the least significant position, so with d final
    outcomes the sector of outcome f holds every d-th history from f: the
    repunit mask (2^n - 1) / (2^d - 1) shifted left by f.
    """
    n = math.prod(len(s.decomposition) for s in schema.slices)
    refuse_above(MAX_OMEGA_ENV, n, f"history space has {n} histories")
    d, r = schema.state.shape
    refuse_above("FACTOR_ENTRY_LIMIT", n * r * d, f"branch rows of {n} histories, {r} state "
                 f"columns and dimension {d} have {n * r * d} entries")
    labels = product_labels([s.decomposition.labels for s in schema.slices], "h_{{{}}}")
    final = schema.slices[-1].decomposition
    repunit = ((1 << n) - 1) // ((1 << len(final)) - 1)
    return HistorySpace(
        labels=labels,
        sectors=tuple((lab, repunit << f) for f, lab in enumerate(final.labels)),
    )


@dataclass(frozen=True)
class ValidationReport:
    """Axiom residuals of a DF; ``block_residual`` (None without final sectors)
    is the exact cross-sector max, or build_df's bound when <= ROUNDOFF_FLOOR.

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

    It is validated when it is made and cannot change after: ``factor`` is a
    read-only copy, and ``validation`` the report it is given (build_df's may
    carry its leakage bound, raw_df's holds the matrix's residuals) or else
    validate_df's.  A failing report raises ValidationFailedError naming
    the DF as ``_what``."""

    space: HistorySpace
    factor: np.ndarray
    validation: ValidationReport | None = None
    _what: InitVar[str] = "decoherence functional"

    def __post_init__(self, _what):
        object.__setattr__(self, "factor", read_only(self.factor))
        if self.factor.ndim != 2 or self.factor.shape[0] != self.space.size:
            raise ValueError("factor shape does not match the history space")
        report = validate_df(self) if self.validation is None else self.validation
        if not report.passed:
            raise ValidationFailedError(
                f"{_what} failed validation: " + ", ".join(report.failures), report=report
            )
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


def build_df(schema: HistorySchema) -> DecoherenceFunctional:
    """Construct and validate the decoherence functional of a schema.

    All branches, r rows of length d, are propagated together by two matrix
    products a slice: coefficients in basis B after evolution U, rows times
    the slice's cached turn (B^dagger U)^T, then per outcome k (least
    significant, so rows stay in history order) the coefficients of the
    columns k owns times B^T.
    block_residual is the final slice's leakage bound if at most
    ROUNDOFF_FLOOR, else the exact max; the rest is validate_df's.
    """
    space = enumerate_histories(schema)
    d, r = schema.state.shape
    rows = schema.state.T[None]
    for s in schema.slices:
        dec = s.decomposition
        owned = (rows.reshape(-1, d) @ s.turn.T).reshape(-1, 1, r, d) * dec.owner[:, None]
        rows = (owned.reshape(-1, d) @ dec.basis.T).reshape(-1, r, d)
    factor = rows.transpose(0, 2, 1).reshape(space.size, -1)
    bound = _leakage_bound(rows, schema.slices[-1].decomposition)
    block = bound if bound <= ROUNDOFF_FLOOR else _block_residual(factor, space.sectors)
    return DecoherenceFunctional(space, factor, _residuals(factor, block),
                                 _what="constructed decoherence functional")


def _leakage_bound(rows: np.ndarray, dec: ProjectiveDecomposition) -> float:
    """An upper bound on |D(i, j)| across final sectors, from the final
    branches v_i (``rows``, n x r x d; branch i has outcome f = i mod K) and
    basis B, f owning B_f.  With c_i = (B^dagger v_i)_f and the leakage e_i
    = v_i - B_f c_i, D(i, j) = c_i^dagger B_f^dagger B_g c_j + e_i^dagger
    v_j + (v_i - e_i)^dagger e_j, so |D(i, j)| <= 2 max|v| max|e| + max|e|^2
    + max|c|^2 |B^dagger B off its diagonal blocks|_F, plus a round-off
    allowance.  O(n r d^2); the O(d^3) norm is cached on the decomposition."""
    owner = dec.owner
    k, d = owner.shape
    v = rows.reshape(-1, k, rows.shape[1], d)
    owned = (rows.reshape(-1, d) @ np.conjugate(dec.basis)).reshape(v.shape) * owner[:, None]
    leak = v - (owned.reshape(-1, d) @ dec.basis.T).reshape(v.shape)
    squares = np.square(np.stack((v, leak, owned)).view(np.float64)).sum(axis=(-2, -1))
    big_v, big_e, big_c = np.sqrt(squares.reshape(3, -1).max(axis=1)).tolist()
    cross = dec.cross_block_norm
    # Round-off: D(i, j) sums r d products, e_i two products of length d.
    roundoff = (rows.shape[1] + 2) * d * np.finfo(float).eps * big_v ** 2
    return float(2 * big_v * big_e + big_e ** 2 + big_c ** 2 * cross + roundoff)


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
    return DecoherenceFunctional(raw_space(labels), np.conjugate(u[:, keep]) * np.sqrt(w[keep]),
                                 report, _what="raw decoherence matrix")


def _block_residual(v: np.ndarray, sectors) -> float:
    """Exact largest |D(i, j)| over histories i, j in different final sectors
    of factor v: each sector's rows, a chunk at a time, against the rows of
    later sectors, unpacked one at a time so memory stays O(n).  NaN wins."""
    n = len(v)
    later = np.ones(n, dtype=bool)
    worst = 0.0
    for _, mask in sectors:
        inside = _mask_bits([mask], n)[0]
        later &= ~inside
        rows, others = v[inside], v[later].T
        step = max(1, _STEP_ENTRIES // max(1, others.shape[1]))
        for start in range(0, len(rows), step):
            cross = np.conjugate(rows[start:start + step]) @ others
            worst = np.maximum(worst, np.abs(cross).max(initial=0.0))
    return float(worst)


def validate_df(df: DecoherenceFunctional) -> ValidationReport:
    """Check the decoherence-functional axioms on the factor and report residuals.

    D = conj(V) V^T is Hermitian by construction.  The smallest eigenvalue
    comes from the smaller of the n x n and c x c Gram matrices of the n x c
    factor, which share their nonzero eigenvalues; for n > c, D also has the
    eigenvalue 0.  Block structure is checked whenever the space knows its
    final-slice sectors, by the exact cross-sector max (_block_residual),
    O(n^2 c): this DF may have no basis to bound it by, as for hand-built
    spaces and tensor_df products.  The DF constructor computes it for a DF
    given no report; a non-finite factor fails it.
    """
    v, sectors = df.factor, df.space.sectors
    with np.errstate(all="ignore"):
        return _residuals(v, None if sectors is None else _block_residual(v, sectors))


def _residuals(v: np.ndarray, block_residual: float | None) -> ValidationReport:
    """The report of validate_df for factor v, with the given block residual;
    a non-finite v has a non-finite normalization and a NaN min eigenvalue."""
    n, c = v.shape
    total = v.sum(axis=0)
    normalization = abs(float(np.vdot(total, total).real) - 1.0)
    if not math.isfinite(normalization):
        min_eig = math.nan
    elif n > c:
        min_eig = float(np.linalg.eigvalsh(v.T @ np.conjugate(v)).min(initial=0.0))
    else:
        min_eig = float(np.linalg.eigvalsh(np.conjugate(v) @ v.T)[0]) if n else 0.0
    return ValidationReport(
        size=n,
        hermiticity_residual=0.0,
        normalization_residual=normalization,
        min_eigenvalue=min_eig,
        block_residual=block_residual,
    )


def _require_same_labels(space_a: HistorySpace, space_b: HistorySpace) -> None:
    if space_a is not space_b and space_a.labels != space_b.labels:
        raise LabelMismatchError("events live over different history label sets")


def measure(df: DecoherenceFunctional, event: Event) -> float:
    """Quantum measure mu(event) = |sum of its factor rows|^2, 0.0 when empty;
    LabelMismatchError for an event over other history labels."""
    _require_same_labels(df.space, event.space)
    total = df.factor[list(event.indices)].sum(axis=0)
    return float(np.vdot(total, total).real)
