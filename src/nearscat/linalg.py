"""Hermitian eigendecomposition, numerical rank, and the spectral operator
calculus (|B|, square roots, the N-sharp combinations).

Matrices are plain complex numpy arrays.  The eigensolver is backed by
LAPACK via numpy.linalg.eigh behind the module's contract: real spectrum
ordered by descending magnitude, orthonormal eigenvectors with a
deterministic phase (first nonzero component real and positive).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NotHermitianError

HERMITIAN_TOL = 1e-8


@dataclass(frozen=True)
class EigenSystem:
    eigenvalues: np.ndarray  # real, descending by |lambda|
    eigenvectors: np.ndarray  # orthonormal columns, eigenvectors[:, j] <-> eigenvalues[j]

    @property
    def size(self):
        return self.eigenvalues.size


def _fix_phases(vecs):
    """Rotate each column so its first nonzero component is real positive.

    The rotations |p|/p are numpy scalar divisions: the array division
    rounds differently in the last bit for some complex p.
    """
    nonzero = np.abs(vecs) > 1e-300
    pivots = vecs[np.argmax(nonzero, axis=0), np.arange(vecs.shape[1])]
    out = vecs.copy()
    cols = np.flatnonzero(nonzero.any(axis=0))  # all-zero columns stay as they are
    out[:, cols] = vecs[:, cols] * np.array([abs(p) / p for p in pivots[cols]])
    return out


def hermitian_eig(a):
    """Full eigensystem of a Hermitian matrix.

    Ordering: descending |lambda|, ties broken by descending signed lambda.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    norm = np.linalg.norm(a)
    dev = np.linalg.norm(a - a.conj().T)
    if norm > 0 and dev > HERMITIAN_TOL * norm:
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {dev / norm:.3e} relative"
        )
    h = (a + a.conj().T) / 2.0
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    order = np.lexsort((-vals, -np.abs(vals)))
    return EigenSystem(
        eigenvalues=vals[order], eigenvectors=_fix_phases(vecs[:, order])
    )


def real_part_op(n):
    """Re(N) = (N + N*)/2; Hermitian by construction."""
    n = np.asarray(n, dtype=complex)
    if n.ndim != 2 or n.shape[0] != n.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {n.shape}")
    return (n + n.conj().T) / 2.0


def imag_part_op(n):
    """Im(N) = (N - N*)/(2i); Hermitian by construction."""
    n = np.asarray(n, dtype=complex)
    if n.ndim != 2 or n.shape[0] != n.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {n.shape}")
    return (n - n.conj().T) / 2.0j


def abs_op(b):
    """Spectral absolute value sum |lambda_j| psi_j psi_j* of a Hermitian b."""
    eig = hermitian_eig(b)
    v = eig.eigenvectors
    return (v * np.abs(eig.eigenvalues)) @ v.conj().T


REGIMES = ("nonabsorbing", "absorbing")


def nsharp(n, regime, sigma=None):
    """Positive selfadjoint data combination.

    regime 'nonabsorbing': |Re(N)| + |Im(N)|.
    regime 'absorbing':    sigma * Im(N) with |sigma| = 1.  For absorbing
    media one of the two signs is positive; by default sigma is resolved
    from the data (sign of the dominant eigenvalue of Im(N)), since the
    sign depends on the time-harmonic/source conventions baked into the
    measured kernel.  Pass sigma = +1 or -1 to pin it.

    Positivity beyond the sign choice is a consequence of the media
    hypotheses, not enforced here; the eigensystem consumers clip small
    negatives and reject large ones.
    """
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}")
    if regime == "nonabsorbing":
        return abs_op(real_part_op(n)) + abs_op(imag_part_op(n))
    im = imag_part_op(n)
    if sigma is None:
        vals = hermitian_eig(im).eigenvalues
        sigma = 1.0 if (vals.size and vals[0] >= 0.0) else -1.0
    if sigma not in (1, -1, 1.0, -1.0):
        raise DomainError(f"sigma must be +1 or -1, got {sigma!r}")
    return sigma * im


def sqrt_op_apply(eig, g):
    """Apply the spectral square root of a PSD eigensystem to a vector.

    Eigenvalues in [-1e-8*lambda_max, 0) are clipped to zero; anything more
    negative signals a wrong-regime N-sharp and is an error.
    """
    vals = np.asarray(eig.eigenvalues, dtype=float)
    lmax = float(np.max(np.abs(vals))) if vals.size else 0.0
    if lmax > 0 and np.min(vals) < -1e-8 * lmax:
        raise DomainError(
            f"eigenvalue {np.min(vals):.3e} is too negative for a square root "
            f"(lambda_max = {lmax:.3e})"
        )
    clipped = np.clip(vals, 0.0, None)
    v = eig.eigenvectors
    coeff = v.conj().T @ np.asarray(g, dtype=complex)
    return v @ (np.sqrt(clipped) * coeff)


def numerical_rank(eig, rel_tol=None):
    """Count of eigenvalues above rel_tol * |lambda_1|.

    The default rel_tol mirrors the usual max(m, n)*eps convention used by
    dense rank commands.
    """
    vals = np.abs(np.asarray(eig.eigenvalues, dtype=float))
    if vals.size == 0 or vals[0] == 0.0:
        return 0
    if rel_tol is None:
        rel_tol = vals.size * np.finfo(float).eps
    if not 0.0 < rel_tol < 1.0:
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    return int(np.count_nonzero(vals > rel_tol * vals[0]))


def spectral_gap_rank(eig, floor_rel=None):
    """Rank estimate at the largest multiplicative gap of the spectrum.

    Scans |lambda_j| (descending) above the machine floor and returns the
    index after which the ratio |lambda_j| / |lambda_{j+1}| is largest.
    Robust for effectively low-rank data whose trailing spectrum sits well
    above machine precision (finite-size scatterers, noise floors).
    """
    vals = np.abs(np.asarray(eig.eigenvalues, dtype=float))
    if vals.size == 0 or vals[0] == 0.0:
        return 0
    if floor_rel is None:
        floor_rel = vals.size * np.finfo(float).eps
    floor = floor_rel * vals[0]
    above = int(np.count_nonzero(vals > floor))
    if above == 0:
        return 0
    if above == vals.size:
        # no machine-floor cut; gap must come from the interior
        tail = vals
    else:
        tail = vals[: above + 1]
    if tail.size < 2:
        return above
    ratios = tail[:-1] / np.maximum(tail[1:], 1e-300)
    return int(np.argmax(ratios)) + 1
