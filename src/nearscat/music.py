"""MUSIC localization from the multi-static response matrix.

The indicator is the reciprocal squared norm of the noise-subspace
projection of the steering vector; it blows up at scatterer centers.  It is
the spectral range test of `sampling` with unit weights on the noise
subspace, evaluated block by block by `sampling.grid_indicators`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fields import IndicatorField
from .linalg import hermitian_eig, spectral_gap_rank
from .sampling import grid_indicators


@dataclass(frozen=True)
class MusicModel:
    eigenvalues: np.ndarray  # of N N*, in hermitian_eig order
    eigenvectors: np.ndarray
    rank: int


def build_music(matrix, rank_override=None):
    """Eigendecompose N N* and pick the signal-subspace dimension.

    Default rank detection uses the largest multiplicative spectral gap:
    finite-size scatterers leave a physically low-rank signal subspace whose
    trailing spectrum sits orders of magnitude above machine precision, so
    an eps-relative threshold badly overcounts.  Pass rank_override to pin
    the cut by hand (the right call under heavy noise).
    """
    data = np.asarray(matrix.data, dtype=complex)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {data.shape}")
    vals, vecs = hermitian_eig(data @ data.conj().T)
    if rank_override is not None:
        r = int(rank_override)
        if not 0 <= r <= data.shape[0]:
            raise DomainError(f"rank override {r} outside [0, {data.shape[0]}]")
    elif np.max(np.abs(vals)) == 0.0:
        r = 0
    else:
        r = spectral_gap_rank(vals)
    return MusicModel(eigenvalues=vals, eigenvectors=vecs, rank=r)


def music_field(model, sensors, k, grid):
    """I(z) = [sum_{j>r} |(phi_z, w_j)|^2]^{-1} over a sampling grid, for the
    steering vectors phi_z = Phi(sensors, z) at wavenumber k."""
    noise_vecs = model.eigenvectors[:, model.rank :]
    (values,) = grid_indicators(
        noise_vecs, np.ones((1, noise_vecs.shape[1])), sensors, k, grid.points
    )
    return IndicatorField(grid=grid, values=values)
