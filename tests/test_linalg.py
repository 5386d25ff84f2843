"""Eigendecomposition and spectral-calculus tests with independent oracles."""

import numpy as np
import pytest

from nearscat import linalg
from nearscat.disk import assemble_nearfield_matrix
from nearscat.errors import DomainError
from nearscat.linalg import hermitian_eig, nsharp, spectral_gap_rank

from reference import abs_op, imag_part_op, nsharp_from_parts, real_part_op, sqrt_op_apply


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


# ---------------------------------------------------------------------------
# hermitian_eig


def test_identity_spectrum():
    vals, _ = hermitian_eig(np.eye(5, dtype=complex))
    assert np.allclose(vals, 1.0)


def test_pauli_y_spectrum():
    a = np.array([[0, 1j], [-1j, 0]], dtype=complex)
    vals, _ = hermitian_eig(a)
    assert np.allclose(vals, [1.0, -1.0])


def test_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    for n in (2, 8, 32, 64):
        a = random_hermitian(rng, n)
        vals, v = hermitian_eig(a)
        rebuilt = (v * vals) @ v.conj().T
        assert np.linalg.norm(rebuilt - a) <= 1e-10 * np.linalg.norm(a)
        gram = v.conj().T @ v
        assert np.linalg.norm(gram - np.eye(n)) <= 1e-10


def test_eigenpair_residuals():
    rng = np.random.default_rng(8)
    a = random_hermitian(rng, 16)
    vals, vecs = hermitian_eig(a)
    norm = np.linalg.norm(a, 2)
    for j in range(16):
        res = a @ vecs[:, j] - vals[j] * vecs[:, j]
        assert np.linalg.norm(res) <= 1e-10 * norm


def test_ordering_descending_magnitude():
    a = np.diag([1.0, -3.0, 2.0, -2.0]).astype(complex)
    vals, _ = hermitian_eig(a)
    assert np.allclose(vals, [-3.0, 2.0, -2.0, 1.0])


def test_phase_determinism():
    rng = np.random.default_rng(9)
    a = random_hermitian(rng, 6)
    _, v1 = hermitian_eig(a)
    _, v2 = hermitian_eig(a.copy())
    assert np.array_equal(v1, v2)


def test_non_square_rejected():
    with pytest.raises(DomainError):
        hermitian_eig(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# Re / Im parts: the reference operators, and nsharp, which forms them itself


def test_parts_identity():
    rng = np.random.default_rng(10)
    n = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    re, im = real_part_op(n), imag_part_op(n)
    assert np.allclose(re + 1j * im, n)
    assert np.allclose(re, re.conj().T)
    assert np.allclose(im, im.conj().T)
    assert np.array_equal(nsharp(n, "nonabsorbing"), abs_op(re) + abs_op(im))


def test_parts_on_hermitian_and_skew():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 4)
    assert np.allclose(real_part_op(h), h)
    assert np.allclose(imag_part_op(h), 0.0)
    assert np.allclose(imag_part_op(1j * h), h)
    # nsharp sees one part of each: Im(h) = 0 and Re(ih) = 0
    assert np.allclose(nsharp(h, "nonabsorbing"), abs_op(h))
    assert np.allclose(nsharp(1j * h, "nonabsorbing"), abs_op(h))
    assert np.allclose(nsharp(h, "absorbing"), 0.0)
    assert any(np.allclose(nsharp(1j * h, "absorbing"), sign * h) for sign in (1.0, -1.0))


# ---------------------------------------------------------------------------
# |B| / nsharp / sqrt


def test_abs_op_diagonal():
    d = np.diag([-2.0, 3.0]).astype(complex)
    assert np.allclose(abs_op(d), np.diag([2.0, 3.0]))
    # nsharp of a Hermitian d is |Re(d)| = |d|, and of i d is |Im(i d)| = |d|
    assert np.allclose(nsharp(d, "nonabsorbing"), np.diag([2.0, 3.0]))
    assert np.allclose(nsharp(1j * d, "nonabsorbing"), np.diag([2.0, 3.0]))


def test_abs_op_psd_identity_and_square():
    rng = np.random.default_rng(12)
    b = random_hermitian(rng, 8)
    psd = b @ b.conj().T
    assert np.allclose(abs_op(psd), psd, atol=1e-10)
    assert np.allclose(abs_op(b) @ abs_op(b), b @ b, atol=1e-10)
    assert np.allclose(nsharp(1j * psd, "nonabsorbing"), psd, atol=1e-10)
    abs_b = nsharp(b, "nonabsorbing")
    assert np.allclose(abs_b @ abs_b, b @ b, atol=1e-10)


@pytest.mark.parametrize("regime", linalg.REGIMES)
def test_nsharp_is_the_reference_composition_bit_for_bit(regime, fig6_medium, fig7_medium):
    # the folded parts, the inline |B| and the eigenvalue-only sign give
    # the bits of |Re N| + |Im N| or sigma Im N composed operator by operator
    matrices = [assemble_nearfield_matrix(medium, 20, 64).data
                for medium in (fig6_medium, fig7_medium)]
    rng = np.random.default_rng(16)
    matrices += [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                 for n in (1, 2, 7, 32, 64)]
    for n in matrices:
        assert np.array_equal(nsharp(n, regime), nsharp_from_parts(n, regime))


def test_nsharp_rejects_non_square():
    for regime in linalg.REGIMES:
        with pytest.raises(DomainError):
            nsharp(np.zeros((2, 3), dtype=complex), regime)


def test_nsharp_zero_and_psd():
    z = np.zeros((3, 3), dtype=complex)
    assert np.allclose(nsharp(z, "nonabsorbing"), 0.0)
    rng = np.random.default_rng(13)
    b = random_hermitian(rng, 5)
    psd = b @ b.conj().T
    assert np.allclose(nsharp(psd, "nonabsorbing"), psd, atol=1e-10)


def test_nsharp_absorbing_sign_resolution(monkeypatch):
    # sigma is chosen so the result is the positive combination of +-Im(N);
    # only the spectrum is read, so no eigenvectors are formed, and a tie of
    # |lambda| goes to the positive eigenvalue, as in hermitian_eig's order
    def no_eigenvectors(a):
        raise AssertionError("nsharp formed eigenvectors")

    monkeypatch.setattr(linalg, "hermitian_eig", no_eigenvectors)
    d = np.diag([2.0, 1.0]).astype(complex)
    up = nsharp(1j * d, "absorbing")
    down = nsharp(-1j * d, "absorbing")
    assert np.allclose(up, d)
    assert np.allclose(down, d)
    tie = np.diag([1.0, -1.0]).astype(complex)
    assert np.array_equal(nsharp(1j * tie, "absorbing"), tie)
    assert np.array_equal(nsharp(-1j * tie, "absorbing"), -tie)


def test_nsharp_unknown_regime():
    with pytest.raises(DomainError):
        nsharp(np.eye(2, dtype=complex), "weird")


def test_fig7_absorbing_nsharp_positive(fig7_medium):
    matrix = assemble_nearfield_matrix(fig7_medium, 20, 64)
    vals, _ = hermitian_eig(nsharp(matrix.data, "absorbing"))
    lmax = vals[0]
    assert lmax > 0
    assert vals.min() >= -1e-10 * lmax


def test_sqrt_op_squares_back():
    rng = np.random.default_rng(14)
    b = random_hermitian(rng, 8)
    psd = b @ b.conj().T
    eig = hermitian_eig(psd)
    g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    once = sqrt_op_apply(*eig, g)
    twice = sqrt_op_apply(*eig, once)
    assert np.linalg.norm(twice - psd @ g) <= 1e-9 * np.linalg.norm(psd @ g)


def test_sqrt_op_eigenvector():
    vals, vecs = hermitian_eig(np.diag([4.0, 1.0]).astype(complex))
    out = sqrt_op_apply(vals, vecs, vecs[:, 0])
    assert np.allclose(out, 2.0 * vecs[:, 0])


def test_sqrt_norm_identity():
    rng = np.random.default_rng(15)
    b = random_hermitian(rng, 10)
    psd = b @ b.conj().T
    eig = hermitian_eig(psd)
    for _ in range(5):
        g = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        half = sqrt_op_apply(*eig, g)
        lhs = np.linalg.norm(half) ** 2
        rhs = np.vdot(g, psd @ g).real
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_sqrt_rejects_indefinite():
    eig = hermitian_eig(np.diag([1.0, -0.5]).astype(complex))
    with pytest.raises(DomainError):
        sqrt_op_apply(*eig, np.ones(2, dtype=complex))


# ---------------------------------------------------------------------------
# rank


def test_spectral_gap_rank():
    assert spectral_gap_rank(np.array([1.0, 0.5, 1e-8, 1e-9])) == 2
    flat = np.array([1.0, 0.99, 0.98])
    assert spectral_gap_rank(flat) in (1, 2)  # no pronounced gap; small rank
    # the scan stops at the first value below n * eps * s_1: no gap beyond it
    assert spectral_gap_rank(np.array([1.0, 1e-3, 1e-20, 1e-300])) == 2
    assert spectral_gap_rank(np.zeros(4)) == 0
    # with a noise level delta the scan stops at delta * s_1: a larger gap
    # in the noise tail no longer wins
    noisy = np.array([1.0, 0.6, 0.02, 0.018, 0.0005])
    assert spectral_gap_rank(noisy) == 4
    assert spectral_gap_rank(noisy, delta=0.2) == 2
