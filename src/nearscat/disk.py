"""Exact series scattering by the penetrable homogeneous unit disk and the
truncated, Riemann-discretized near-field matrix on the measurement circle
of radius 2.

The incident fields are conjugated point sources, which is why the kernel
carries |H^(1)_m(2k)|^2: the second-kind Hankel factor from the source
conjugates against the first-kind radiating factor on the real line.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .born import MultistaticMatrix
from .errors import DomainError, NearscatError
from .geometry import make_sensor_array
from .specfun import bessel_j_orders, derivative_orders, hankel1_orders

SENSOR_RADIUS = 2.0
RESONANCE_TOL = 1e-14


@dataclass(frozen=True)
class DiskMedium:
    """Isotropic coefficient A = a*I and constant index n inside the unit disk."""

    a: complex
    n: complex
    k: float = 1.0

    def __post_init__(self):
        if self.a == 0:  # the series divides by a
            raise DomainError("disk coefficient a must be nonzero")


def _series_terms(medium, trunc):
    """Numerator and denominator of sigma_m for m = 0..trunc: one all-orders
    Bessel pass at each of k and k sqrt(n/a)."""
    a, n, k = complex(medium.a), complex(medium.n), float(medium.k)
    if k <= 0.0:
        raise DomainError(f"wavenumber must be positive, got {k}")
    root_prod = cmath.sqrt(n * a)
    j_in = bessel_j_orders(trunc + 1, k * cmath.sqrt(n / a))  # principal branch
    h_k = hankel1_orders(trunc + 1, k)
    j_k = h_k.real  # the J_m(k) that hankel1_orders filled it from
    jp_in = root_prod * derivative_orders(j_in)
    j_in = j_in[:-1]
    num = j_in * derivative_orders(j_k) - jp_in * j_k[:-1]
    den = j_in * derivative_orders(h_k) - jp_in * h_k[:-1]
    return num, den


def _check_resonance(den, k):
    """NearscatError at the lowest order whose denominator vanished."""
    small = np.flatnonzero(np.abs(den) <= RESONANCE_TOL)
    if small.size:
        raise NearscatError(
            f"series denominator vanished at order {small[0]} (k = {k}); "
            "wavenumber is numerically a resonance"
        )


def series_coefficients(medium, trunc):
    """sigma_m for m = 0..trunc."""
    num, den = _series_terms(medium, trunc)
    _check_resonance(den, medium.k)
    return num / den


def kernel_weights(medium, trunc):
    """sigma_m * |H^(1)_m(2k)|^2 for m = 0..trunc."""
    k = float(medium.k)
    h = hankel1_orders(trunc, SENSOR_RADIUS * k)
    with np.errstate(over="ignore"):
        h2 = np.abs(h) ** 2
    big = np.flatnonzero(~np.isfinite(h2))
    if big.size:
        raise DomainError(
            f"|H^(1)_m(2k)|^2 overflows at order {big[0]} (k = {k}); "
            "lower the truncation"
        )
    return series_coefficients(medium, trunc) * h2


def assemble_nearfield_matrix(medium, trunc, quad_points):
    """Discretized truncated near-field operator, as a MultistaticMatrix on
    the Q sensors of the circle of radius SENSOR_RADIUS it was sampled on.

    Entry (i, j) = (2 pi / Q) * u^s(theta_i, theta_j) with theta_i uniform
    on [0, 2 pi); the Riemann weight is folded in so matrix-vector products
    approximate the integral operator.  Circulant by construction.
    """
    q = int(quad_points)
    if q < 2 * trunc + 2:
        raise DomainError(
            f"quad_points = {q} cannot resolve order {trunc}; need >= {2 * trunc + 2}"
        )
    w = kernel_weights(medium, trunc)
    d = 2.0 * np.pi * np.arange(q) / q
    m = np.arange(1, trunc + 1)
    kernel = w[0] + (np.exp(1j * np.outer(d, m)) @ w[1:]) + (
        np.exp(-1j * np.outer(d, m)) @ w[1:]
    )
    kernel = 0.25j * (2.0 * np.pi / q) * kernel  # value at angle difference d
    idx = (np.arange(q)[:, None] - np.arange(q)[None, :]) % q
    return MultistaticMatrix(data=kernel[idx], sensors=make_sensor_array(q, SENSOR_RADIUS),
                             wavenumber=float(medium.k))
