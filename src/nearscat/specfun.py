"""Integer-order Bessel and Hankel functions and the 2-D Helmholtz
fundamental solution.

Real arguments return results with exactly zero imaginary part where the
mathematics demands it.  Derivatives use the two-term recurrence
J'_0 = -J_1 and J'_m = (J_{m-1} - J_{m+1})/2 so that every derivative
check reduces to a function-value check.
"""

import numpy as np
from scipy import special

from .errors import DomainError

# Overflow guards: series/asymptotic accuracy is only warranted inside
# this envelope for the desk-scale wavenumbers used here.
MAX_ABS_ARG = 700.0
MAX_ORDER = 200


def _check_order(order):
    if order < 0 or int(order) != order:
        raise DomainError(f"order must be a nonnegative integer, got {order!r}")
    if order > MAX_ORDER:
        raise DomainError(f"order {order} exceeds supported maximum {MAX_ORDER}")


def _check_arg(r):
    if r > MAX_ABS_ARG:
        raise DomainError(f"|z| = {r:.3g} exceeds overflow guard {MAX_ABS_ARG}")


def bessel_j(order, z):
    """Bessel function of the first kind J_order(z) for real or complex z.

    For real z the result is returned as a real float (imaginary part is
    exactly zero).
    """
    _check_order(order)
    z = complex(z)
    _check_arg(abs(z))
    if z.imag == 0.0:
        return float(special.jv(order, z.real))
    return complex(special.jv(order, z))


def bessel_y(order, x):
    """Bessel function of the second kind Y_order(x), real x > 0."""
    _check_order(order)
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"bessel_y requires x > 0, got {x}")
    _check_arg(x)
    return float(special.yn(order, x))


def hankel1(order, x):
    """First-kind Hankel function H^(1)_order(x) = J + iY for real x > 0."""
    _check_order(order)
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"hankel1 requires x > 0, got {x}")
    _check_arg(x)
    return complex(special.hankel1(order, x))


def bessel_j_prime(order, z):
    """Derivative of J_order via the two-term recurrence."""
    if order == 0:
        jp = bessel_j(1, z)
        return -jp
    return (bessel_j(order - 1, z) - bessel_j(order + 1, z)) / 2.0


def hankel1_prime(order, x):
    """Derivative of H^(1)_order via the same recurrence as bessel_j_prime."""
    if order == 0:
        return -hankel1(1, x)
    return (hankel1(order - 1, x) - hankel1(order + 1, x)) / 2.0


def fundamental_solution_many(k, points_x, points_y):
    """Vectorized Φ over all pairs: returns matrix Φ(x_i, y_j).

    points_x: (Nx, 2), points_y: (Ny, 2).  No pair may coincide, and every
    k|x_i - y_j| must lie inside the MAX_ABS_ARG envelope that bessel_j
    enforces.  Φ = (i/4)(J_0 + iY_0) is filled from the real-argument
    Bessel functions, so Re Φ = -Y_0/4 and Im Φ = J_0/4 exactly.
    """
    if k <= 0.0:
        raise DomainError(f"wavenumber must be positive, got {k}")
    px = np.asarray(points_x, dtype=float)
    py = np.asarray(points_y, dtype=float)
    out = np.empty((px.shape[0], py.shape[0]), dtype=complex)
    # |x - y| without hypot or temporaries: dy is squared in out.imag, which
    # J0 overwrites below.  A separation whose square underflows reads as 0.
    kr = px[:, None, 0] - py[None, :, 0]
    dy = np.subtract(px[:, None, 1], py[None, :, 1], out=out.imag)
    kr *= kr
    dy *= dy
    kr += dy
    np.sqrt(kr, out=kr)
    kr *= k
    if kr.size:
        if kr.min() == 0.0:
            raise DomainError("fundamental_solution is singular at coincident points")
        if kr.max() > MAX_ABS_ARG:
            raise DomainError(
                f"k|x - y| = {kr.max():.3g} exceeds overflow guard {MAX_ABS_ARG}"
            )
    special.y0(kr, out=out.real)
    out.real *= -0.25
    special.j0(kr, out=out.imag)
    out.imag *= 0.25
    return out
