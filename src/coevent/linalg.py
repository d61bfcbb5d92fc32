"""Complex linear algebra helpers: kets, measurement bases, evolutions.

Everything is double-precision complex numpy.  Kets are 1-d arrays, operators
are square 2-d arrays, and tensor products follow numpy's row-major Kronecker
convention (left factor major).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tolerances import EPS_UNIT


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def as_ket(v) -> np.ndarray:
    """Coerce to a finite complex vector of unit norm, within EPS_UNIT.  The
    norm is scaled as it is summed, so no finite entry overflows it."""
    a = np.asarray(v, dtype=complex).reshape(-1)
    if a.size == 0 or not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("ket must be a nonempty finite vector")
    norm = math.hypot(*a.real.tolist(), *a.imag.tolist())
    if abs(norm - 1.0) > EPS_UNIT:
        raise ValueError(f"ket is not normalized: |v| = {norm!r}")
    return a


def read_only(m) -> np.ndarray:
    """A complex copy of ``m`` that refuses writes, so no check of it goes stale."""
    a = np.array(m, dtype=complex)
    a.flags.writeable = False
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(m, -1, -2))


def is_unitary(m: np.ndarray) -> bool:
    """True for a square matrix with orthonormal columns, within EPS_UNIT."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    # Entries far above 1 overflow the product to inf or nan, which fails.
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.max(np.abs(dagger(m) @ m - np.eye(m.shape[0]))) <= EPS_UNIT)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two kets or two operators, left factor major."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


@dataclass(frozen=True)
class ProjectiveDecomposition:
    """A complete family of orthogonal outcomes, stored as one unitary basis.

    Outcome i owns the next ``ranks[i]`` columns of ``basis``; its projector
    is the sum of their outer products and is never formed.  ``basis`` is a
    read-only copy, checked once; the products read from it are cached.
    """

    basis: np.ndarray
    ranks: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", read_only(self.basis))
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.ranks) != len(self.labels):
            raise ValueError("one label per outcome is required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("outcome labels must be distinct")
        if not is_unitary(self.basis):
            raise ValueError("decomposition basis is not unitary")
        if min(self.ranks, default=0) < 1 or sum(self.ranks) != self.dim:
            raise ValueError("outcome ranks must be positive and sum to the dimension")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def owner(self) -> np.ndarray:
        """The k x d one-hot matrix whose row i marks the columns outcome i owns."""
        owner = np.repeat(np.eye(len(self)), self.ranks, axis=1)
        owner.flags.writeable = False
        return owner

    @cached_property
    def cross_block_norm(self) -> float:
        """|B^dagger B off its diagonal blocks|_F: how far the outcomes' column
        blocks are from orthogonal, round-off for a unitary B."""
        owner = self.owner
        return float(np.linalg.norm(dagger(self.basis) @ self.basis * (owner.T @ owner == 0)))

    def __len__(self) -> int:
        return len(self.ranks)

    @classmethod
    def from_kets(cls, kets, labels) -> "ProjectiveDecomposition":
        """Rank-one decomposition from an orthonormal basis of kets."""
        vs = [as_ket(k) for k in kets]
        if len({v.size for v in vs}) > 1:
            raise ValueError("basis kets must all have the same dimension")
        return cls(np.column_stack(vs), (1,) * len(vs), labels)


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
    That orientation matches the rotating frame of spectral_unitary
    applied to the computational basis, so amplitudes of timed realizations
    differ from the static bases by one global phase instead of per-history
    signs.  A theta beyond the finite floats raises ValueError before numpy.
    """
    if not abs(theta) <= sys.float_info.max:
        raise ValueError(f"basis angle must be finite, got {theta!r}")

    def rotation(t):
        c, s = np.cos(t), np.sin(t)
        return np.array([[c, s], [s, -c]], dtype=complex)

    # Each basis is checked unitary once, which also checks both columns' norms.
    return (ProjectiveDecomposition(rotation(theta), (1, 1), ("0", "1")),
            ProjectiveDecomposition(rotation(theta + np.pi / 4.0), (1, 1), ("+", "-")))


def spectral_unitary(spectrum, t: float) -> np.ndarray:
    """exp(-i h t) from the eigh (w, v) of a Hermitian h."""
    w, v = spectrum
    return (v * np.exp(-1j * w * t)) @ dagger(v)
