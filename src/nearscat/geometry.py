"""Sensor arrays, sampling grids, scatterer shapes and Gauss quadrature.

Shapes are the ellipse, a disk being one with equal semi-axes, and the
axis-aligned rectangle; each owns its rules.  Ellipse quadrature uses a polar
map with Gauss-Legendre in radius squared, which keeps the r = 0 Jacobian
from degrading the rule's accuracy.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError


@dataclass(frozen=True)
class SensorArray:
    """Coincident sources/receivers equally spaced on a circle about the
    origin; point i is radius*(cos(2pi(i-1)/N), sin(2pi(i-1)/N))."""

    count: int
    radius: float
    points: np.ndarray  # (count, 2)


def make_sensor_array(n, radius):
    if n < 1 or int(n) != n:
        raise DomainError(f"sensor count must be a positive integer, got {n!r}")
    if radius <= 0.0:
        raise DomainError(f"sensor radius must be positive, got {radius}")
    theta = 2.0 * np.pi * np.arange(n) / n
    pts = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    return SensorArray(count=int(n), radius=float(radius), points=pts)


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform lattice xs x ys over a rectangle, corners included.  Point
    iy * nx + ix is (xs[ix], ys[iy]): row-major, y the outer loop."""

    xs: np.ndarray  # (nx,)
    ys: np.ndarray  # (ny,)

    @property
    def nx(self):
        return self.xs.size

    @property
    def ny(self):
        return self.ys.size


def make_grid(bounds, nx, ny):
    """bounds = (xmin, xmax, ymin, ymax).

    Note: acceptance sweeps deliberately use rectangles whose corners fall
    outside the sensor circle, so no containment check happens here.
    """
    xmin, xmax, ymin, ymax = (float(b) for b in bounds)
    if nx < 2 or ny < 2:
        raise DomainError("grid needs nx, ny >= 2")
    if xmax <= xmin or ymax <= ymin:
        raise DomainError(f"degenerate grid bounds {bounds!r}")
    return SamplingGrid(np.linspace(xmin, xmax, nx), np.linspace(ymin, ymax, ny))


# ---------------------------------------------------------------------------
# Shapes: each rejects sizes that would turn it inside out (its quadrature
# rule would mirror it into a valid shape while `contains` is False everywhere)


def _check_size(name, value):
    if not 0.0 < value < np.inf:  # NaN too
        raise DomainError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Ellipse:
    center: tuple
    a: float  # semi-axis along x
    b: float  # semi-axis along y

    def __post_init__(self):
        _check_size("a", self.a)
        _check_size("b", self.b)

    def contains(self, p):
        p = np.asarray(p, dtype=float)
        u = (p[..., 0] - self.center[0]) / self.a
        v = (p[..., 1] - self.center[1]) / self.b
        return u * u + v * v < 1.0

    def scaled(self, eps):
        return Ellipse(self.center, eps * self.a, eps * self.b)

    def diameter(self):
        return 2.0 * max(self.a, self.b)

    def quadrature(self, order):
        """Polar map with the radial rule placed in r^2, so that
        dx = (1/2) d(r^2) dtheta carries no singular Jacobian."""
        # unit disk in (s = r^2, theta), then anisotropic stretch by (a, b)
        s, ws = _gl(order, 0.0, 1.0)
        th, wt = _gl(order, 0.0, 2.0 * np.pi)
        r = np.sqrt(s)
        gx = np.outer(r, np.cos(th))
        gy = np.outer(r, np.sin(th))
        ww = 0.5 * np.outer(ws, wt) * self.a * self.b
        nodes = np.column_stack(
            [self.center[0] + self.a * gx.ravel(), self.center[1] + self.b * gy.ravel()]
        )
        return QuadratureRule(nodes=nodes, weights=ww.ravel())


def Disk(center, radius):
    """The disk of the given radius: an ellipse with equal semi-axes."""
    _check_size("radius", radius)
    return Ellipse(center, radius, radius)


@dataclass(frozen=True)
class Rectangle:
    corner_min: tuple
    corner_max: tuple

    def __post_init__(self):
        (x0, y0), (x1, y1) = self.corner_min, self.corner_max
        if not (x0 < x1 and y0 < y1):  # NaN too
            raise DomainError(
                f"corner_min {self.corner_min} must be below corner_max {self.corner_max} "
                "on both axes"
            )

    def contains(self, p):
        p = np.asarray(p, dtype=float)
        return (
            (p[..., 0] > self.corner_min[0])
            & (p[..., 0] < self.corner_max[0])
            & (p[..., 1] > self.corner_min[1])
            & (p[..., 1] < self.corner_max[1])
        )

    def scaled(self, eps):
        lo, hi = np.asarray(self.corner_min, float), np.asarray(self.corner_max, float)
        c = (lo + hi) / 2.0
        return Rectangle(tuple(c + eps * (lo - c)), tuple(c + eps * (hi - c)))

    def diameter(self):
        (x0, y0), (x1, y1) = self.corner_min, self.corner_max
        return float(np.hypot(x1 - x0, y1 - y0))

    def quadrature(self, order):
        """Affine map of the tensor-product rule."""
        xs, wx = _gl(order, self.corner_min[0], self.corner_max[0])
        ys, wy = _gl(order, self.corner_min[1], self.corner_max[1])
        gx, gy = np.meshgrid(xs, ys)
        ww = np.outer(wy, wx)
        return QuadratureRule(
            nodes=np.column_stack([gx.ravel(), gy.ravel()]), weights=ww.ravel()
        )


def scaled(shape, eps):
    """The shape scaled by eps > 0 about its center, for small-size
    convergence studies; the shape itself at eps = 1."""
    if not eps > 0.0:  # NaN too
        raise DomainError(f"epsilon_scale must be positive, got {eps}")
    return shape if eps == 1.0 else shape.scaled(eps)


@dataclass(frozen=True)
class ScattererSpec:
    """A shape with a refractive index function n(x) -> complex."""

    shape: object
    index_fn: object  # callable (x1, x2) -> complex, vectorized


def constant_index(n):
    """Index function for a homogeneous scatterer."""
    nval = complex(n)

    def fn(x1, x2):
        return np.full(np.broadcast(x1, x2).shape, nval)

    return fn


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray  # (P, 2)
    weights: np.ndarray  # (P,)


@lru_cache(maxsize=None)  # orders are capped at 64
def _leggauss(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and read-only, as every caller shares them."""
    x, w = leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl(order, lo, hi):
    x, w = _leggauss(order)
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    return mid + half * x, half * w


def quadrature_order(order):
    """order as an int, if it is an integer in [2, 64]."""
    if order < 2 or order > 64 or int(order) != order:
        raise DomainError(f"quadrature order must be an integer in [2, 64], got {order!r}")
    return int(order)


def gauss_quadrature(shape, order):
    """The shape's tensor-product Gauss-Legendre rule of the given order."""
    return shape.quadrature(quadrature_order(order))
