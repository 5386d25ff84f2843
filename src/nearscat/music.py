"""MUSIC localization from the multi-static response matrix.

The signal subspace comes from the SVD N = U S V*: its rank is the
spectral-gap rank of the singular values, and the noise space is
U[:, r:].  Taking the SVD of N itself, not an eigendecomposition of N N*,
keeps the condition number unsquared.  The indicator is the reciprocal
squared norm of the noise-space projection of the steering vector; it
blows up at scatterer centers.  It is the spectral range test of
`sampling` with unit weights on the noise space, evaluated block by block
by `sampling.grid_indicators` on the matrix's sensors and wavenumber.
"""

import numpy as np

from .errors import DomainError
from .linalg import spectral_gap_rank
from .sampling import grid_indicators


def build_music(matrix, rank_override=None):
    """(rank, noise_vectors): the signal-subspace dimension r of a
    MultistaticMatrix and the left singular vectors U[:, r:] of its data,
    as columns, that span the noise space.

    Default rank detection uses the largest multiplicative spectral gap:
    finite-size scatterers leave a physically low-rank signal subspace whose
    trailing spectrum sits orders of magnitude above machine precision, so
    an eps-relative threshold badly overcounts.  The gap is sought only
    above the matrix's noise level noise_delta * sigma_1, where signal can
    be told from noise.  Pass rank_override to pin the cut by hand.
    """
    data = np.asarray(matrix.data, dtype=complex)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {data.shape}")
    u, sigma, _ = np.linalg.svd(data)
    if rank_override is None:
        r = spectral_gap_rank(sigma, matrix.noise_delta)
    else:
        r = int(rank_override)
        if not 0 <= r <= data.shape[0]:
            raise DomainError(f"rank override {r} outside [0, {data.shape[0]}]")
    return r, u[:, r:]


def music_field(matrix, grid, rank_override=None):
    """(rank, values): the rank of build_music and
    I(z) = [sum_{j>r} |(phi_z, u_j)|^2]^{-1} over a sampling grid, for the
    steering vectors phi_z = Phi(sensors, z) of the matrix's sensors at its
    wavenumber."""
    rank, noise = build_music(matrix, rank_override)
    (values,) = grid_indicators(
        noise, np.ones((1, noise.shape[1])), matrix.sensors, matrix.wavenumber, grid
    )
    return rank, values
