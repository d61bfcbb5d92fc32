"""Basis construction and unitaries."""

from __future__ import annotations

import numpy as np
import pytest

from coevent import (
    NonHermitianError,
    ProjectiveDecomposition,
    build_theta_bases,
    build_xi_basis,
    computational_basis,
    tensor,
    unitary_from_hamiltonian,
)
from coevent.linalg import as_complex_matrix, as_ket, dagger, is_hermitian, is_unitary

RT2 = 1.0 / np.sqrt(2.0)


def test_as_ket_checks_normalization():
    v = as_ket([RT2, RT2 * 1j])
    assert v.dtype == complex
    with pytest.raises(ValueError):
        as_ket([1.0, 1.0])
    raw = as_ket([2.0, 0.0], normalized=False)
    assert raw[0] == 2.0
    with pytest.raises(ValueError):
        as_ket([np.inf, 0.0], normalized=False)


def test_as_complex_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        as_complex_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_complex_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_dagger_and_checks():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    np.testing.assert_allclose(dagger(a), a.conj().T)
    assert is_hermitian(a + dagger(a))
    assert not is_hermitian(a + dagger(a) + 0.01j * np.eye(4))
    q, _ = np.linalg.qr(a)
    assert is_unitary(q)
    assert not is_unitary(2.0 * q)


def test_tensor_identity_and_trace():
    np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    pp = 0.5 * np.ones((2, 2), dtype=complex)
    np.testing.assert_allclose(np.trace(tensor(p0, pp)), 1.0)


def test_tensor_associative_and_bilinear():
    rng = np.random.default_rng(11)
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    np.testing.assert_allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), atol=1e-12)
    np.testing.assert_allclose(
        tensor(a + c, b), tensor(a, b) + tensor(c, b), atol=1e-12
    )
    np.testing.assert_allclose(tensor(2.5 * a, b), 2.5 * tensor(a, b), atol=1e-12)


def test_xi4_from_pm_product_states():
    """(|+-> + |-+>)/sqrt(2) collapses to (|00> - |11>)/sqrt(2)."""
    plus = np.array([RT2, RT2], dtype=complex)
    minus = np.array([RT2, -RT2], dtype=complex)
    built = (tensor(plus, minus) + tensor(minus, plus)) * RT2
    np.testing.assert_allclose(built, build_xi_basis().vector(3), atol=1e-12)


def test_xi_basis_vectors():
    basis = build_xi_basis()
    assert basis.labels == ("xi1", "xi2", "xi3", "xi4")
    expected = np.array([
        [0.0, RT2, RT2, 0.0],
        [0.5, -0.5, 0.5, 0.5],
        [0.5, 0.5, -0.5, 0.5],
        [RT2, 0.0, 0.0, -RT2],
    ])
    for i in range(4):
        np.testing.assert_allclose(basis.vector(i), expected[i], atol=1e-12)
    gram = expected @ expected.T
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


def test_xi_orthogonality_pattern():
    """Each xi vector kills exactly one of |00>, |0+>, |+0>, |++>."""
    plus = np.array([RT2, RT2])
    zero = np.array([1.0, 0.0])
    states = [tensor(a, b) for a in (zero, plus) for b in (zero, plus)]
    basis = build_xi_basis()
    overlaps = np.array([
        [abs(np.vdot(basis.vector(i), s)) for s in states] for i in range(4)
    ])
    zeros = overlaps < 1e-12
    # xi1 kills |00>, xi2 kills |0+>, xi3 kills |+0>, xi4 kills |++>
    np.testing.assert_array_equal(zeros, np.eye(4, dtype=bool))


def test_computational_basis_defaults():
    basis = computational_basis(3)
    assert basis.labels == ("0", "1", "2")
    assert basis.all_rank_one()
    np.testing.assert_allclose(basis.vector(2), [0.0, 0.0, 1.0])


def test_projective_decomposition_rejects_bad_input():
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    skew = np.array([RT2, RT2], dtype=complex)
    with pytest.raises(ValueError):
        ProjectiveDecomposition.from_kets([e0, skew], ["a", "b"])
    with pytest.raises(ValueError):
        ProjectiveDecomposition.from_kets([e0, e1], ["a", "a"])
    with pytest.raises(ValueError):
        ProjectiveDecomposition.from_kets([e0, e1], ["a"])
    p0 = np.outer(e0, e0)
    with pytest.raises(ValueError):
        ProjectiveDecomposition(dim=2, projectors=(p0,), labels=("a",))
    with pytest.raises(ValueError):
        ProjectiveDecomposition(dim=2, projectors=(0.5 * p0, np.eye(2) - 0.5 * p0),
                                labels=("a", "b"))
    with pytest.raises(NonHermitianError):
        ProjectiveDecomposition(
            dim=2,
            projectors=(p0 + np.array([[0.0, 0.1], [0.0, 0.0]]), np.outer(e1, e1)),
            labels=("a", "b"),
        )


def test_rank_and_vector_extraction():
    plane = np.diag([1.0, 1.0, 0.0]).astype(complex)
    line = np.diag([0.0, 0.0, 1.0]).astype(complex)
    dec = ProjectiveDecomposition(dim=3, projectors=(plane, line), labels=("p", "l"))
    assert dec.rank(0) == 2
    assert dec.rank(1) == 1
    assert not dec.all_rank_one()
    with pytest.raises(ValueError):
        dec.vector(0)
    np.testing.assert_allclose(dec.vector(1), [0.0, 0.0, 1.0], atol=1e-12)

    v = np.array([RT2, RT2 * 1j])
    p = np.outer(v, v.conj())
    dec2 = ProjectiveDecomposition(dim=2, projectors=(p, np.eye(2) - p), labels=("v", "w"))
    got = dec2.vector(0)
    # phase fixed: the largest-magnitude entry lands on the positive real axis
    np.testing.assert_allclose(got, v, atol=1e-12)


def test_theta_bases_over_grid():
    """Construction re-verifies orthogonality and completeness at each angle."""
    for theta in np.linspace(-np.pi, np.pi, 100):
        psi01, psipm = build_theta_bases(float(theta))
        assert psi01.labels == ("0", "1")
        assert psipm.labels == ("+", "-")
        np.testing.assert_allclose(
            psi01.vector(0), [np.cos(theta), np.sin(theta)], atol=1e-12
        )
        np.testing.assert_allclose(
            psi01.vector(1), [np.sin(theta), -np.cos(theta)], atol=1e-12
        )
        np.testing.assert_allclose(
            psipm.vector(0),
            [np.cos(theta + np.pi / 4), np.sin(theta + np.pi / 4)],
            atol=1e-12,
        )


def test_theta_bases_at_zero():
    psi01, psipm = build_theta_bases(0.0)
    np.testing.assert_allclose(psi01.vector(0), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(psipm.vector(0), [RT2, RT2], atol=1e-12)
    np.testing.assert_allclose(psipm.vector(1), [RT2, -RT2], atol=1e-12)


def test_unitary_from_hamiltonian_closed_form():
    h = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
    w = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(w, [0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(unitary_from_hamiltonian(h, 0.0), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(unitary_from_hamiltonian(h, np.pi), np.eye(2), atol=1e-12)
    for t in (0.3, 1.1, 4.0):
        rot = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        np.testing.assert_allclose(
            unitary_from_hamiltonian(h, t), np.exp(-1j * t) * rot, atol=1e-12
        )


def test_unitary_one_parameter_group():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + dagger(a)
        s, t = rng.normal(size=2)
        u = unitary_from_hamiltonian(h, s + t)
        np.testing.assert_allclose(
            u, unitary_from_hamiltonian(h, s) @ unitary_from_hamiltonian(h, t),
            atol=1e-9,
        )
        assert is_unitary(u)


def test_unitary_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        unitary_from_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
