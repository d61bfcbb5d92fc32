"""Complex linear algebra helpers: kets, projective decompositions, evolutions.

Everything is double-precision complex numpy.  Kets are 1-d arrays, operators
are square 2-d arrays, and tensor products follow numpy's row-major Kronecker
convention (left factor major).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianError
from .tolerances import EPS_UNIT


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def as_ket(v, *, normalized: bool = True) -> np.ndarray:
    """Coerce to a finite complex vector, checking the norm when asked."""
    a = np.asarray(v, dtype=complex).reshape(-1)
    if a.size == 0 or not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("ket must be a nonempty finite vector")
    if normalized and abs(np.linalg.norm(a) - 1.0) > EPS_UNIT:
        raise ValueError(f"ket is not normalized: |v| = {np.linalg.norm(a)!r}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(m, -1, -2))


def is_hermitian(m: np.ndarray, tol: float = EPS_UNIT) -> bool:
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m - dagger(m))) <= tol)


def is_unitary(m: np.ndarray, tol: float = EPS_UNIT) -> bool:
    m = np.asarray(m, dtype=complex)
    eye = np.eye(m.shape[0])
    return bool(np.max(np.abs(dagger(m) @ m - eye)) <= tol)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two kets or two operators, left factor major."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


@dataclass(frozen=True)
class ProjectiveDecomposition:
    """A complete family of mutually orthogonal projectors with outcome labels.

    ``vectors`` holds the defining unit kets when every projector is rank one
    (the usual case here); it is None for decompositions built directly from
    higher-rank projectors.
    """

    dim: int
    projectors: tuple[np.ndarray, ...]
    labels: tuple[str, ...]
    vectors: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if len(self.projectors) != len(self.labels):
            raise ValueError("one label per projector is required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("outcome labels must be distinct")
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for p in self.projectors:
            if p.shape != (self.dim, self.dim):
                raise ValueError("projector has wrong dimension")
            if np.max(np.abs(p - dagger(p))) > EPS_UNIT:
                raise NonHermitianError("projector is not Hermitian")
            if np.max(np.abs(p @ p - p)) > EPS_UNIT:
                raise ValueError("projector is not idempotent")
            total = total + p
        for i, p in enumerate(self.projectors):
            for q in self.projectors[i + 1:]:
                if np.max(np.abs(p @ q)) > EPS_UNIT:
                    raise ValueError("projectors are not mutually orthogonal")
        if np.max(np.abs(total - np.eye(self.dim))) > EPS_UNIT:
            raise ValueError("projectors do not sum to the identity")

    def __len__(self) -> int:
        return len(self.projectors)

    @classmethod
    def from_kets(cls, kets, labels) -> "ProjectiveDecomposition":
        """Rank-one decomposition from an orthonormal basis of kets."""
        vs = tuple(as_ket(k) for k in kets)
        dim = vs[0].size
        projs = tuple(np.outer(v, np.conjugate(v)) for v in vs)
        return cls(dim=dim, projectors=projs, labels=tuple(labels), vectors=vs)

    def rank(self, i: int) -> int:
        return int(round(np.real(np.trace(self.projectors[i]))))

    def all_rank_one(self) -> bool:
        return all(self.rank(i) == 1 for i in range(len(self)))

    def vector(self, i: int) -> np.ndarray:
        """Unit ket spanning projector ``i`` (rank one required).

        When the decomposition was not built from kets, the ket is extracted
        from the projector's top eigenvector with its largest-magnitude entry
        rotated to the positive real axis, so the choice is deterministic.
        """
        if self.vectors is not None:
            return self.vectors[i]
        if self.rank(i) != 1:
            raise ValueError("projector has rank > 1, no single defining ket")
        w, v = np.linalg.eigh(self.projectors[i])
        ket = v[:, -1]
        k = int(np.argmax(np.abs(ket)))
        phase = ket[k] / abs(ket[k])
        return ket / phase


def computational_basis(dim: int, labels=None) -> ProjectiveDecomposition:
    """Standard basis decomposition with labels '0', '1', ... by default."""
    if labels is None:
        labels = [str(i) for i in range(dim)]
    return ProjectiveDecomposition.from_kets(list(np.eye(dim, dtype=complex)), labels)


def build_xi_basis() -> ProjectiveDecomposition:
    """The two-qubit xi basis used by the distinguishability scenarios.

    In computational order |00>, |01>, |10>, |11>:

        xi1 = (|01> + |10>) / sqrt(2)
        xi2 = (|00> - |01> + |10> + |11>) / 2
        xi3 = (|00> + |01> - |10> + |11>) / 2
        xi4 = (|00> - |11>) / sqrt(2)

    Each xi_i is orthogonal to exactly one of |00>, |0+>, |+0>, |++>.
    """
    s = 1.0 / np.sqrt(2.0)
    kets = [
        np.array([0.0, s, s, 0.0], dtype=complex),
        np.array([0.5, -0.5, 0.5, 0.5], dtype=complex),
        np.array([0.5, 0.5, -0.5, 0.5], dtype=complex),
        np.array([s, 0.0, 0.0, -s], dtype=complex),
    ]
    return ProjectiveDecomposition.from_kets(kets, ["xi1", "xi2", "xi3", "xi4"])


def build_theta_bases(theta: float) -> tuple[ProjectiveDecomposition, ProjectiveDecomposition]:
    """Two qubit bases at angles theta and theta + pi/4.

    Returns the pair (psi01, psipm) where

        Psi0 = cos(theta)|0> + sin(theta)|1>       (labels '0', '1')
        Psi+ = cos(theta + pi/4)|0> + sin(theta + pi/4)|1>   (labels '+', '-')

    and Psi1, Psi- are the orthogonal complements sin(t)|0> - cos(t)|1>.
    That orientation matches the rotating frame of unitary_from_hamiltonian
    applied to the computational basis, so amplitudes of timed realizations
    differ from the static bases by one global phase instead of per-history
    signs.
    """

    def pair(t):
        a = np.array([np.cos(t), np.sin(t)], dtype=complex)
        b = np.array([np.sin(t), -np.cos(t)], dtype=complex)
        return a, b

    psi0, psi1 = pair(theta)
    psip, psim = pair(theta + np.pi / 4.0)
    return (
        ProjectiveDecomposition.from_kets([psi0, psi1], ["0", "1"]),
        ProjectiveDecomposition.from_kets([psip, psim], ["+", "-"]),
    )


def unitary_from_hamiltonian(h, t: float) -> np.ndarray:
    """exp(-i h t) computed spectrally from a Hermitian ``h``."""
    a = as_complex_matrix(h)
    if not is_hermitian(a):
        raise NonHermitianError("Hamiltonian must be Hermitian")
    w, v = np.linalg.eigh(a)
    return (v * np.exp(-1j * w * t)) @ dagger(v)
