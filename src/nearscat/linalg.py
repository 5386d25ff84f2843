"""Hermitian eigendecomposition, the spectral-gap rank, and the N-sharp
combination of a data matrix (|Re N| + |Im N|, or sigma Im N when absorbing).

Matrices are plain complex numpy arrays.  The eigensolver decomposes the
Hermitian part (a + a^H)/2 with LAPACK's eigh: real spectrum by descending
magnitude, orthonormal eigenvectors in LAPACK's phase, which no consumer
reads (each uses |(phi, v)|^2 or v |lambda| v^H).
"""

import numpy as np

from .errors import DomainError


def hermitian_eig(a):
    """(values, vectors) of the Hermitian part (a + a^H)/2 of a square matrix:
    the real spectrum and the orthonormal columns, vectors[:, j] <-> values[j].

    Ordering: descending |lambda|, ties broken by descending signed lambda.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    order = np.lexsort((-vals, -np.abs(vals)))
    return vals[order], vecs[:, order]


REGIMES = ("nonabsorbing", "absorbing")


def nsharp(n, regime):
    """Positive selfadjoint data combination.

    regime 'nonabsorbing': |Re(N)| + |Im(N)|, with Re(N) = (N + N^H)/2,
                           Im(N) = (N - N^H)/(2i) and |B| = v |lambda| v^H.
    regime 'absorbing':    sigma * Im(N) with |sigma| = 1.  For absorbing
    media one of the two signs is positive; sigma is resolved from the data
    (sign of the dominant eigenvalue of Im(N)), since the sign depends on
    the time-harmonic/source conventions baked into the measured kernel.

    Positivity beyond the sign choice is a consequence of the media
    hypotheses, not enforced here; the eigensystem consumers clip small
    negatives and reject large ones.
    """
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}")
    n = np.asarray(n, dtype=complex)
    if n.ndim != 2 or n.shape[0] != n.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {n.shape}")
    im = (n - n.conj().T) / 2.0j
    if regime == "nonabsorbing":
        # |B| = v |lambda| v^H; hermitian_eig leaves the exactly Hermitian Re(N) as is
        re_abs, im_abs = ((v * np.abs(vals)) @ v.conj().T
                          for vals, v in map(hermitian_eig, ((n + n.conj().T) / 2.0, im)))
        return re_abs + im_abs
    # only the sign of the eigenvalue of largest |lambda| is read, ties going
    # to the positive one as in hermitian_eig's order: the ascending values
    # of eigvalsh suffice, and no eigenvectors are formed
    vals = np.linalg.eigvalsh(im)
    sigma = 1.0 if (vals.size and vals[-1] >= -vals[0]) else -1.0
    return sigma * im


def spectral_gap_rank(values, delta=0.0):
    """Rank estimate at the largest multiplicative gap of a spectrum.

    Scans |s_j| (descending; singular values or eigenvalues) down to the
    first one at or below the floor max(n * eps, delta) * |s_1| and returns
    the index after which the ratio |s_j| / |s_{j+1}| is largest.  n * eps
    is the usual SVD rank floor; delta is the relative data noise level, as
    no singular value below delta * s_1 can be told from a perturbation of
    norm delta * s_1 (Weyl).  Robust for effectively low-rank data whose
    trailing spectrum sits well above machine precision (finite-size
    scatterers, noise floors).
    """
    vals = np.abs(np.asarray(values, dtype=float))
    if vals.size == 0 or vals[0] == 0.0:
        return 0
    floor = max(vals.size * np.finfo(float).eps, delta) * vals[0]
    above = int(np.count_nonzero(vals > floor))
    tail = vals[: above + 1]
    if tail.size < 2:
        return above
    ratios = tail[:-1] / np.maximum(tail[1:], 1e-300)
    return int(np.argmax(ratios)) + 1
