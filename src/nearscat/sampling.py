"""One blocked grid pipeline for the spectral kernel
1 / sum_j w_j |(phi_z, v_j)|^2 over steering vectors phi_z = Phi(., z),
shared by MUSIC (unit weights) and by the factorization-method indicator
W(z) (Picard sum, w_j = 1/lambda_j) and the modified linear sampling method
P(z) (regularized solutions of N_sharp g_z = Phi(., z),
w_j = lambda_j^3 f(lambda_j^2)^2), which share one projection per block.

Discrete inner products on the measurement curve carry a uniform
arc-length weight so sums approximate L2(C) pairings.  Eigenvectors are
kept l2-orthonormal internally; the weight enters Picard sums and norms as
a single global factor, which leaves every relative classification
untouched (scaling covariance).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, DomainError
from .fields import IndicatorField
from .linalg import hermitian_eig
from .specfun import fundamental_solution_many

SENTINEL_CAP = 1e12
CLIP_REL = 1e-12
# Grid points per block of the indicator pipeline: 1 MB of steering columns
# for 64 sensors.  Blocks that start on the BLAS kernel's column boundaries
# reproduce the single-shot projection bit for bit, as 1024 does.
_BLOCK = 1024


@dataclass(frozen=True)
class FilterSpec:
    """Regularization filter f_eps approximating 1/t with t*f_eps(t) <= C_reg.

    kind: 'tikhonov' (1/(t+eps)), 'cutoff' (1/t above eps, else 0) or
    'landweber' ((1 - (1-a t)^(1/eps))/t).
    """

    kind: str
    eps: float
    a: float | None = None

    def __post_init__(self):
        if self.kind not in ("tikhonov", "cutoff", "landweber"):
            raise DomainError(f"unknown filter kind {self.kind!r}")
        if self.eps <= 0.0:
            raise DomainError(f"filter eps must be positive, got {self.eps}")
        if self.kind == "landweber" and (self.a is None or self.a <= 0.0):
            raise DomainError("landweber filter needs a positive step constant a")


def filter_value(f, t):
    """f_eps(t), elementwise over positive t."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError(f"filter argument must be positive, got {np.min(t)}")
    if f.kind == "tikhonov":
        return 1.0 / (t + f.eps)
    if f.kind == "cutoff":
        return np.where(t > f.eps, 1.0 / t, 0.0)
    # landweber
    base = 1.0 - f.a * t
    if np.any(base < 0.0):
        raise DomainError(f"landweber step a = {f.a} too large for t = {np.max(t)}")
    return (1.0 - base ** (1.0 / f.eps)) / t


@dataclass(frozen=True)
class PicardData:
    """Positive part of an N_sharp eigensystem plus the curve weight."""

    eigenvalues: np.ndarray  # retained, descending, > 0
    eigenvectors: np.ndarray  # matching l2-orthonormal columns
    weight: float = 1.0

    @property
    def size(self):
        return self.eigenvalues.size


def make_picard_data(nsharp_matrix, weight=1.0):
    """Eigendecompose N_sharp and keep eigenvalues above CLIP_REL * lambda_1.

    Small negatives (hypothesis-tolerance violations) are discarded with the
    rest of the clipped spectrum.
    """
    vals, vecs = hermitian_eig(nsharp_matrix)
    if vals.size == 0 or np.max(np.abs(vals)) == 0.0:
        raise DegenerateSpectrumError("N_sharp has no spectrum above the clip")
    lmax = float(np.max(vals))
    if lmax <= 0.0:
        raise DegenerateSpectrumError("N_sharp has no positive eigenvalues")
    # lambda_1 itself is kept, and the kept values are positive, so
    # hermitian_eig's descending-|lambda| order is already descending
    keep = vals > CLIP_REL * lmax
    return PicardData(eigenvalues=vals[keep], eigenvectors=vecs[:, keep], weight=float(weight))


def cutoff_at_rank(data):
    """Spectral-cutoff filter that keeps every retained mode.

    The clip of make_picard_data is the only truncation of N_sharp: the
    cutoff parameter sits just below lambda_min^2, so the filter is 1/t on
    every retained lambda^2 and the MLSM weights lambda^3 f(lambda^2)^2
    equal the FM weights 1/lambda up to rounding.
    """
    return FilterSpec(kind="cutoff", eps=float(data.eigenvalues[-1] ** 2 * (1.0 - 1e-9)))


@dataclass(frozen=True)
class EquivalenceReport:
    eps_sequence: tuple
    values: tuple  # ||N_sharp^{1/2} g_z^eps||^2 per eps
    partial_sum: float  # first M_terms Picard terms
    full_sum: float  # full retained Picard sum
    violations: tuple  # human-readable diagnostics, empty when clean

    @property
    def ok(self):
        return not self.violations


def fm_mlsm_equivalence_check(data, phi_z, m_terms, eps_sequence, f_kind="tikhonov", a=None, tol=1e-9):
    """Numerical check of the two-sided Picard bracketing for C_reg = 1 filters.

    The upper bound holds at every eps (term-wise, since t f(t) <= 1); the
    lower bound is a limit statement, checked at the smallest eps against
    the first m_terms Picard terms.  m_terms should index modes with
    lambda_j^2 well above the smallest eps, otherwise the filter has not yet
    resolved them.
    """
    eps_sequence = tuple(float(e) for e in eps_sequence)
    if len(eps_sequence) > 1 and any(
        e2 >= e1 for e1, e2 in zip(eps_sequence, eps_sequence[1:])
    ):
        raise DomainError("eps_sequence must be strictly decreasing")
    if not 1 <= m_terms <= data.size:
        raise DomainError(f"m_terms must lie in [1, {data.size}], got {m_terms}")

    c = data.eigenvectors.conj().T @ np.asarray(phi_z, dtype=complex)
    lam = data.eigenvalues
    picard_terms = data.weight * np.abs(c) ** 2 / lam
    partial = float(np.sum(picard_terms[:m_terms]))
    full = float(np.sum(picard_terms))

    values = []
    for e in eps_sequence:
        fvals = filter_value(FilterSpec(kind=f_kind, eps=e, a=a), lam**2)
        values.append(float(data.weight * np.sum(lam**3 * fvals**2 * np.abs(c) ** 2)))

    violations = []
    scale = max(full, 1.0)
    for e, v in zip(eps_sequence, values):
        if v > full + tol * scale:
            violations.append(
                f"upper bound broken at eps={e:g}: value {v:.6e} > full sum {full:.6e}"
            )
    if partial > values[-1] + tol * scale:
        violations.append(
            f"lower bound broken at eps={eps_sequence[-1]:g}: partial sum "
            f"{partial:.6e} > value {values[-1]:.6e}"
        )
    for (e1, v1), (e2, v2) in zip(
        zip(eps_sequence, values), zip(eps_sequence[1:], values[1:])
    ):
        if v2 < v1 * (1.0 - 1e-12) - tol * scale:
            violations.append(
                f"value not monotone: eps {e1:g} -> {e2:g} gave {v1:.6e} -> {v2:.6e}"
            )
    return EquivalenceReport(
        eps_sequence=eps_sequence,
        values=tuple(values),
        partial_sum=partial,
        full_sum=full,
        violations=tuple(violations),
    )


def picard_weights(data, f):
    """Weight rows (FM, MLSM) of the spectral kernel for a Picard system and
    an MLSM filter f: weight/lambda_j and weight * lambda_j^3 f(lambda_j^2)^2."""
    lam = data.eigenvalues
    return np.stack(
        [data.weight / lam, data.weight * lam**3 * filter_value(f, lam**2) ** 2]
    )


def _indicator_block(vecs_h, weights, phis):
    """Row i: 1 / sum_j weights[i, j] |(phi_z, v_j)|^2 per column phi_z of
    phis, sentinel-capped; vecs_h holds the conjugated v_j as rows."""
    a = np.abs(vecs_h @ phis) ** 2  # (modes, points)
    sums = np.stack([np.sum(w[:, None] * a, axis=0) for w in weights])
    return np.where(sums <= 1.0 / SENTINEL_CAP, SENTINEL_CAP, 1.0 / np.maximum(sums, 1e-300))


def grid_indicators(vecs, weights, sensors, k, points):
    """Spectral indicators over sampling points (npts, 2), one row per row
    of weights (rows, modes).

    Points go in blocks of _BLOCK: each block builds its steering columns
    Phi(sensors, z), projects them onto vecs once and reduces with every
    weight row, so memory stays bounded as the grid grows.
    """
    vecs_h = vecs.conj().T
    out = np.empty((weights.shape[0], points.shape[0]))
    for start in range(0, points.shape[0], _BLOCK):
        block = points[start : start + _BLOCK]
        phis = fundamental_solution_many(k, sensors.points, block)
        out[:, start : start + len(block)] = _indicator_block(vecs_h, weights, phis)
    return out


def fm_mlsm_fields(data, sensors, k, grid, f=None):
    """W(z) = [Picard sum]^{-1} and P(z) = |(N_sharp g_z, g_z)|^{-1} over a
    grid, for g_z = sum_j lambda_j f(lambda_j^2) (phi_z, psi_j) psi_j, from
    one projection of each steering vector.

    The default filter (f None, a config's `filter: null`) is
    cutoff_at_rank, which keeps every retained mode: the MLSM weights then
    equal the FM weights up to rounding, so P is W to about 1e-15 relative.
    A regularized MLSM needs an explicit f.
    """
    if f is None:
        f = cutoff_at_rank(data)
    w, p = grid_indicators(data.eigenvectors, picard_weights(data, f), sensors, k, grid.points)
    return (
        IndicatorField(grid=grid, values=w),
        IndicatorField(grid=grid, values=p),
    )
