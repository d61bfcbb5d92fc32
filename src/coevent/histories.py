"""History spaces, class operators, and the decoherence functional.

A schema is an initial state plus a sequence of slices; each slice is a
projective decomposition applied after an optional unitary evolution.  A
history picks one outcome per slice.  The decoherence functional is

    D(i, j) = Tr(C_i^dagger C_j rho)

with the class operator C_i the right-to-left product of (projector after
evolution) factors, earliest slice rightmost.  The first argument carries
the dagger, so D(i, j) = conj(alpha_i) * alpha_j whenever both histories
share a final outcome and the initial state is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import (
    ImaginaryResidueError,
    IndexOutOfRangeError,
    MixedInitialStateError,
    FinalSliceNotRankOneError,
    SpaceTooLargeError,
    ValidationFailedError,
)
from .limits import MAX_OMEGA_ENV, max_omega
from .linalg import ProjectiveDecomposition, as_complex_matrix, as_ket, dagger, is_unitary
from .tolerances import EPS_DF, EPS_UNIT

# Fixed so the reported bilinearity residual is the same on every run.
BILINEARITY_SEED = 7


@dataclass(frozen=True)
class Slice:
    """One measurement slice: an optional evolution, then a decomposition."""

    decomposition: ProjectiveDecomposition
    evolution: np.ndarray | None = None

    def unitary(self) -> np.ndarray:
        if self.evolution is None:
            return np.eye(self.decomposition.dim, dtype=complex)
        return self.evolution


@dataclass
class HistorySchema:
    """Initial state plus an ordered tuple of slices on one Hilbert space."""

    dim: int
    rho: np.ndarray
    slices: tuple[Slice, ...]
    ket: np.ndarray | None = None

    def __post_init__(self):
        self.rho = as_complex_matrix(self.rho)
        if self.rho.shape != (self.dim, self.dim):
            raise ValueError("initial state has wrong dimension")
        if np.max(np.abs(self.rho - dagger(self.rho))) > EPS_UNIT:
            raise ValueError("initial density matrix is not Hermitian")
        if abs(np.trace(self.rho) - 1.0) > EPS_UNIT:
            raise ValueError("initial density matrix must have unit trace")
        if float(np.linalg.eigvalsh((self.rho + dagger(self.rho)) / 2)[0]) < -EPS_UNIT:
            raise ValueError("initial density matrix must be positive semidefinite")
        if not self.slices:
            raise ValueError("a schema needs at least one slice")
        for s in self.slices:
            if s.decomposition.dim != self.dim:
                raise ValueError("slice decomposition has wrong dimension")
            if s.evolution is not None:
                u = as_complex_matrix(s.evolution)
                if u.shape != (self.dim, self.dim) or not is_unitary(u):
                    raise ValueError("slice evolution is not unitary")

    @classmethod
    def from_ket(cls, ket, slices) -> "HistorySchema":
        v = as_ket(ket)
        rho = np.outer(v, np.conjugate(v))
        return cls(dim=v.size, rho=rho, slices=tuple(slices), ket=v)

    @classmethod
    def from_density(cls, rho, slices) -> "HistorySchema":
        r = as_complex_matrix(rho)
        return cls(dim=r.shape[0], rho=r, slices=tuple(slices), ket=None)

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    def shape(self) -> tuple[int, ...]:
        return tuple(len(s.decomposition) for s in self.slices)


@dataclass(eq=False)
class HistorySpace:
    """Enumerated histories with deterministic labels.

    For schema-backed spaces, ``outcome_tuples`` holds one outcome-index
    tuple per history (time order) and ``sectors`` one (final label, member
    mask) pair per final-slice outcome, in decomposition order.  Raw spaces
    (ingested matrices) carry labels only.
    """

    labels: tuple[str, ...]
    outcome_tuples: tuple[tuple[int, ...], ...] | None = None
    sectors: tuple[tuple[str, int], ...] | None = None
    _label_index: dict = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("history labels must be distinct")
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError as exc:
            raise KeyError(f"unknown history label {label!r}") from exc

    def full_mask(self) -> int:
        return (1 << self.size) - 1


def raw_space(labels) -> HistorySpace:
    return HistorySpace(labels=tuple(labels))


@dataclass(frozen=True)
class Event:
    """A subset of a history space, stored as a bitmask over history indices."""

    space: HistorySpace
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.space.size:
            raise ValueError("event mask addresses histories outside the space")

    @classmethod
    def from_indices(cls, space: HistorySpace, indices) -> "Event":
        mask = 0
        for i in indices:
            if not 0 <= i < space.size:
                raise IndexOutOfRangeError(f"history index {i} out of range")
            mask |= 1 << int(i)
        return cls(space, mask)

    @classmethod
    def from_labels(cls, space: HistorySpace, labels) -> "Event":
        return cls.from_indices(space, [space.index_of(lab) for lab in labels])

    @classmethod
    def full(cls, space: HistorySpace) -> "Event":
        return cls(space, space.full_mask())

    @classmethod
    def empty(cls, space: HistorySpace) -> "Event":
        return cls(space, 0)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.space.size) if self.mask >> i & 1)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.space.labels[i] for i in self.indices)

    def __len__(self) -> int:
        return int(self.mask).bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def is_subset_of(self, other: "Event") -> bool:
        return self.mask & ~other.mask == 0

    def union(self, other: "Event") -> "Event":
        return Event(self.space, self.mask | other.mask)

    def intersection(self, other: "Event") -> "Event":
        return Event(self.space, self.mask & other.mask)

    def complement(self) -> "Event":
        return Event(self.space, self.space.full_mask() & ~self.mask)


def sort_masks(space: HistorySpace, masks) -> list[int]:
    """Masks in canonical order: by cardinality, then by member indices."""
    return sorted(masks, key=lambda m: (int(m).bit_count(), Event(space, m).indices))


def enumerate_histories(schema: HistorySchema) -> HistorySpace:
    """All histories of a schema, lexicographic in outcome indices.

    The first slice is the most significant position.  Labels concatenate
    the outcome labels in time order, e.g. h_{00xi2} or h_{+0+}.  Raises
    SpaceTooLargeError beyond the history-space cap (see ``limits``).

    The final slice is the least significant position, so with d final
    outcomes the sector of outcome f holds every d-th history from f: the
    repunit mask (2^n - 1) / (2^d - 1) shifted left by f.
    """
    cap = max_omega()
    n = 1
    for s in schema.slices:
        n *= len(s.decomposition)
    if n > cap:
        raise SpaceTooLargeError(
            f"history space has {n} histories, above {MAX_OMEGA_ENV} = {cap}; "
            f"set {MAX_OMEGA_ENV} to raise it"
        )
    tuples = tuple(product(*[range(len(s.decomposition)) for s in schema.slices]))
    labels = tuple(
        "h_{" + "".join(schema.slices[k].decomposition.labels[t[k]] for k in range(len(t))) + "}"
        for t in tuples
    )
    final = schema.slices[-1].decomposition
    repunit = ((1 << n) - 1) // ((1 << len(final)) - 1)
    return HistorySpace(
        labels=labels,
        outcome_tuples=tuples,
        sectors=tuple((lab, repunit << f) for f, lab in enumerate(final.labels)),
    )


def _check_outcomes(schema: HistorySchema, outcomes) -> tuple[int, ...]:
    t = tuple(int(i) for i in outcomes)
    if len(t) != schema.n_slices:
        raise IndexOutOfRangeError(
            f"expected {schema.n_slices} outcome indices, got {len(t)}"
        )
    for k, i in enumerate(t):
        if not 0 <= i < len(schema.slices[k].decomposition):
            raise IndexOutOfRangeError(f"outcome index {i} out of range at slice {k}")
    return t


def class_operator(schema: HistorySchema, outcomes) -> np.ndarray:
    """Product of (projector after evolution) factors, earliest slice rightmost."""
    t = _check_outcomes(schema, outcomes)
    op = np.eye(schema.dim, dtype=complex)
    for k, i in enumerate(t):
        s = schema.slices[k]
        op = s.decomposition.projectors[i] @ s.unitary() @ op
    return op


def amplitude(schema: HistorySchema, outcomes) -> complex:
    """<final outcome| C |initial ket>, defined for pure states only.

    Requires the final-slice projector of the history to be rank one;
    satisfies D(i, i) = |amplitude(i)|**2.
    """
    t = _check_outcomes(schema, outcomes)
    if schema.ket is None:
        raise MixedInitialStateError("amplitudes require a pure initial state")
    final = schema.slices[-1].decomposition
    if final.rank(t[-1]) != 1:
        raise FinalSliceNotRankOneError("final-slice projector has rank > 1")
    vec = final.vector(t[-1])
    return complex(np.vdot(vec, class_operator(schema, t) @ schema.ket))


@dataclass(frozen=True)
class ValidationReport:
    """Residuals for the decoherence-functional axioms.

    ``passed`` requires Hermiticity, normalization, and (when applicable)
    final-sector block structure within EPS_DF, plus a smallest eigenvalue
    of the Hermitian part above -EPS_DF.
    """

    size: int
    hermiticity_residual: float
    normalization_residual: float
    min_eigenvalue: float
    block_applicable: bool
    block_residual: float | None
    bilinearity_residual: float
    passed: bool
    failures: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "size": self.size,
            "hermiticity_residual": self.hermiticity_residual,
            "normalization_residual": self.normalization_residual,
            "min_eigenvalue": self.min_eigenvalue,
            "block_applicable": self.block_applicable,
            "block_residual": self.block_residual,
            "bilinearity_residual": self.bilinearity_residual,
            "passed": self.passed,
            "failures": list(self.failures),
        }


@dataclass(eq=False)
class DecoherenceFunctional:
    """A validated |Omega| x |Omega| decoherence matrix over a history space."""

    space: HistorySpace
    matrix: np.ndarray
    validation: ValidationReport | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.space.size
        if self.matrix.shape != (n, n):
            raise ValueError("matrix shape does not match the history space")

    @property
    def size(self) -> int:
        return self.space.size

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels

    def entry(self, i: int, j: int) -> complex:
        return complex(self.matrix[i, j])

    def event_value(self, a: Event, b: Event) -> complex:
        """Bilinear extension sum_{i in a, j in b} D(i, j)."""
        ia, ib = a.indices, b.indices
        if not ia or not ib:
            return 0.0 + 0.0j
        return complex(self.matrix[np.ix_(ia, ib)].sum())

    def sectors_verified(self) -> bool:
        """True when final-sector block structure is known to hold."""
        if self.space.sectors is None:
            return False
        rep = self.validation
        return bool(rep and rep.block_applicable and rep.block_residual is not None
                    and rep.block_residual <= EPS_DF)

    def sectors(self) -> tuple[tuple[str, int], ...]:
        """(final label, member mask) pairs when block structure is verified;
        otherwise the whole space as the single sector ("all", full mask)."""
        if self.sectors_verified():
            return self.space.sectors
        return (("all", self.space.full_mask()),)


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((rho + dagger(rho)) / 2)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dagger(v)


def _validated(df: DecoherenceFunctional, what: str) -> DecoherenceFunctional:
    """Attach the validation report, raising ValidationFailedError on failure."""
    df.validation = validate_df(df)
    if not df.validation.passed:
        raise ValidationFailedError(
            f"{what} failed validation: " + ", ".join(df.validation.failures),
            report=df.validation,
        )
    return df


def build_df(schema: HistorySchema) -> DecoherenceFunctional:
    """Construct and validate the decoherence functional of a schema.

    The matrix is assembled as a Gram matrix of per-history branch data, so
    Hermiticity and positive semidefiniteness hold by construction; the
    validation report is still computed and attached.
    """
    space = enumerate_histories(schema)
    ops = [class_operator(schema, t) for t in space.outcome_tuples]
    if schema.ket is not None:
        branches = np.array([op @ schema.ket for op in ops])
    else:
        root = _sqrt_psd(schema.rho)
        branches = np.array([(op @ root).reshape(-1) for op in ops])
    mat = np.conjugate(branches) @ branches.T
    return _validated(DecoherenceFunctional(space=space, matrix=mat),
                      "constructed decoherence functional")


def raw_df(matrix, labels=None) -> DecoherenceFunctional:
    """Ingest an externally supplied decoherence matrix.

    Labels default to h1, h2, ...  A matrix failing Hermiticity,
    normalization, or strong positivity is rejected with
    ValidationFailedError, whose ``report`` holds the residuals.
    """
    mat = as_complex_matrix(matrix)
    n = mat.shape[0]
    if labels is None:
        labels = [f"h{i + 1}" for i in range(n)]
    return _validated(DecoherenceFunctional(space=raw_space(labels), matrix=mat),
                      "raw decoherence matrix")


def validate_df(df: DecoherenceFunctional) -> ValidationReport:
    """Check the decoherence-functional axioms and report residuals.

    Block structure is checked whenever the space knows its final-slice
    sectors.  Bilinearity holds by construction of the event sum; it is
    spot-checked on a few random disjoint event pairs for the report.
    """
    mat = df.matrix
    n = df.size
    herm = float(np.max(np.abs(mat - dagger(mat)))) if n else 0.0
    norm = float(abs(mat.sum() - 1.0))
    min_eig = float(np.linalg.eigvalsh((mat + dagger(mat)) / 2)[0]) if n else 0.0

    block_applicable = df.space.sectors is not None
    block_residual = None
    if block_applicable:
        off_block = np.abs(mat)
        for _, mask in df.space.sectors:
            members = Event(df.space, mask).indices
            off_block[np.ix_(members, members)] = 0.0
        block_residual = float(np.max(off_block))

    rng = np.random.default_rng(BILINEARITY_SEED)
    bilin = 0.0
    for _ in range(4):
        groups = rng.integers(0, 3, size=n)
        a = Event.from_indices(df.space, np.flatnonzero(groups == 0))
        b = Event.from_indices(df.space, np.flatnonzero(groups == 1))
        c = Event.from_indices(df.space, np.flatnonzero(groups == 2))
        lhs = df.event_value(a.union(b), c)
        rhs = df.event_value(a, c) + df.event_value(b, c)
        bilin = max(bilin, abs(lhs - rhs))

    failures = []
    if herm > EPS_DF:
        failures.append(f"hermiticity residual {herm:.3e}")
    if norm > EPS_DF:
        failures.append(f"normalization residual {norm:.3e}")
    if min_eig < -EPS_DF:
        failures.append(f"strong positivity violated, min eigenvalue {min_eig:.3e}")
    if block_residual is not None and block_residual > EPS_DF:
        failures.append(f"final-sector block residual {block_residual:.3e}")

    return ValidationReport(
        size=n,
        hermiticity_residual=herm,
        normalization_residual=norm,
        min_eigenvalue=min_eig,
        block_applicable=block_applicable,
        block_residual=block_residual,
        bilinearity_residual=float(bilin),
        passed=not failures,
        failures=tuple(failures),
    )


def measure(df: DecoherenceFunctional, event: Event) -> float:
    """Quantum measure mu(event) = D(event, event); 0.0 for the empty event."""
    val = df.event_value(event, event)
    if abs(val.imag) > EPS_DF:
        raise ImaginaryResidueError(f"measure has imaginary residue {val.imag:.3e}")
    return float(val.real)

