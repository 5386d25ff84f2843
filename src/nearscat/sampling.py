"""One blocked grid pipeline for the spectral kernel
1 / sum_j w_j |(phi_z, v_j)|^2 over steering vectors phi_z = Phi(., z),
shared by MUSIC (unit weights) and by the factorization-method indicator
W(z) (Picard sum, w_j = 1/lambda_j) and the modified linear sampling method
P(z) (regularized solutions of N_sharp g_z = Phi(., z),
w_j = lambda_j^3 f(lambda_j^2)^2), which share one projection per block.
Each weight row is reduced on its own, as the sum of its Re(c)^2 and
Im(c)^2 sums; without a filter P is W, and only W is reduced.

The steering columns are built once per orbit of the mirror maps of the
square (x -> -x, y -> -y, x <-> y and their products) that send both the
sensor set and the grid onto themselves: Phi(x_i, g z) = Phi(g^-1 x_i, z),
so Phi is evaluated on a fundamental domain F only, and the image points
g(F) reuse it with the sensor order permuted: each block of F takes one
product with the eigenvectors stacked once per map.  A grid is a lattice
xs x ys by its type, and the block's points are gathered from its axes by
their lattice indices.  The maps are found from the coordinates: each must
move no coordinate of xs, ys or the sensors further than _SYM_ULPS = 16
ulp of the largest |coordinate| from its image.  A uniform circle of Q
sensors and a centred square grid share all 8 maps (Q a multiple of 4),
so Phi is built at about 1/8 of the points.  Values at the image points
sum the same terms in another order, so they agree with a direct
evaluation to the last few digits (1e-13 relative on figure1-3, 2e-11 on
figure6/7); a grid that shares no map is evaluated exactly as by the
plain blocked loop.

Discrete inner products on the measurement curve carry a uniform
arc-length weight so sums approximate L2(C) pairings: `fm_mlsm_fields`
takes it from the matrix's sensor circle, 2 pi R / Q for Q sensors at
radius R.  Eigenvectors are kept l2-orthonormal internally; the weight
enters Picard sums and norms as a single global factor, which leaves every
relative classification untouched (scaling covariance).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NearscatError
from .linalg import hermitian_eig, nsharp
from .specfun import fundamental_solution_many

SENTINEL_CAP = 1e12
CLIP_REL = 1e-12
# Points of F per block of the indicator pipeline: a 1.1 MB product for 64
# sensors, 35 modes and 8 mirror maps.  Blocks that start on the BLAS
# kernel's column boundaries reproduce the single-shot projection bit for
# bit, as 256 does.  _SCAN: lattice points per row chunk of the scan for F.
_BLOCK, _SCAN = 256, 8192


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


def make_picard_data(nsharp_matrix):
    """(eigenvalues, eigenvectors) of N_sharp: the eigenvalues above
    CLIP_REL * lambda_1, descending and positive, and their l2-orthonormal
    eigenvectors as columns.

    Small negatives (hypothesis-tolerance violations) are discarded with the
    rest of the clipped spectrum.
    """
    vals, vecs = hermitian_eig(nsharp_matrix)
    lmax = float(np.max(vals, initial=0.0))
    if not lmax > 0.0:  # an empty spectrum too
        raise NearscatError("N_sharp has no positive eigenvalues")
    # lambda_1 itself is kept, and the kept values are positive, so
    # hermitian_eig's descending-|lambda| order is already descending
    keep = vals > CLIP_REL * lmax
    return vals[keep], vecs[:, keep]


def picard_weights(eigenvalues, weight, f=None):
    """Weight rows of the spectral kernel for the eigenvalues of
    make_picard_data and the curve weight: FM's weight/lambda_j, then, for
    an MLSM filter f, weight * lambda_j^3 f(lambda_j^2)^2.  A filter that
    cuts every retained mode leaves P(z) with nothing to sum and is
    rejected."""
    lam = eigenvalues
    rows = [weight / lam]
    if f is not None:
        rows.append(weight * lam**3 * filter_value(f, lam**2) ** 2)
        if not rows[1].any():
            raise NearscatError(f"the {f.kind} filter with eps = {f.eps:g} cuts every "
                                f"retained mode (lambda_1^2 = {lam[0] ** 2:g})")
    return np.stack(rows)


def _indicator_block(vecs_h, weights, phis, maps=1):
    """Row i: 1 / sum_j weights[i, j] |(phi_z, v_j)|^2 per column phi_z of
    phis, sentinel-capped, map by map; vecs_h stacks the conjugated v_j as
    rows once per map.  The einsum over the squared float view, unlike a
    threaded BLAS gemv, rounds a column alike at any block width, and a
    row's bits depend on no other row or map.  No modes read the cap."""
    modes, points = weights.shape[1], phis.shape[1]
    c = (vecs_h @ phis).view(float)  # (maps * modes, 2 points): Re, Im interleaved
    np.square(c, out=c)
    a = c.reshape(maps, modes, 2 * points)
    parts = np.stack([np.einsum("j,gjp->gp", w, a) for w in weights])
    sums = (parts[..., ::2] + parts[..., 1::2]).reshape(len(weights), -1)
    return np.where(sums <= 1.0 / SENTINEL_CAP, SENTINEL_CAP, 1.0 / np.maximum(sums, 1e-300))


# The mirror maps of the square as integer matrices [[a, b], [c, d]] acting
# on (x, y): x -> -x, y -> -y, x <-> y and their products, identity first.
_MAPS = (
    (1, 0, 0, 1), (1, 0, 0, -1), (-1, 0, 0, 1), (-1, 0, 0, -1),
    (0, 1, 1, 0), (0, 1, -1, 0), (0, -1, 1, 0), (0, -1, -1, 0),
)
# A map is a symmetry of the sensors and the grid when it moves no coordinate
# further than _SYM_ULPS * eps * (largest |coordinate|) from its image.  The
# circles of make_sensor_array deviate by at most 3.3 ulp at 32 and 64
# sensors and 9.75 ulp up to the CLI's cap of 1,024; linspace grids by at
# most 3 ulp.
_SYM_ULPS = 16


def _mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _maps_lattice(m, axes, tol):
    """Whether m maps the lattice xs x ys onto itself within tol."""
    a, b, c, d = m
    for target, (col, sign) in zip(axes, ((0, a) if a else (1, b), (0, c) if c else (1, d))):
        src = axes[col]
        if src.size != target.size or not (np.abs(sign * src - target[::sign]) <= tol).all():
            return False
    return True


def _symmetry_group(sensors, grid):
    """(maps, perms): the maps of _MAPS that send both the sensor set and the
    grid onto themselves, as rows (a, b, c, d), identity first, and the
    sensor permutation of each, perms[g, j] the image of sensor j.

    Each map is checked against the grid's axes xs, ys and the sensors.  On
    a uniform circle starting at angle 0, a map sends sensor j to
    det * j + t Q/4 (mod Q), where t is the quarter turn that takes (1, 0)
    to its first column (a, c); when t Q/4 is not an integer, no sensor lies
    at the image, and the coordinate check drops the map.
    """
    pts, q = sensors.points, sensors.count
    axes = grid.xs, grid.ys
    scale = max(np.max(np.abs(v)) for v in (*axes, pts))
    tol = _SYM_ULPS * np.finfo(float).eps * scale
    m = np.array(_MAPS)
    a, b, c, d = m.T[..., None]
    turn = 1 - a + 2 * (c < 0)  # the quarter turn that takes (1, 0) to (a, c)
    perm = ((a * d - b * c) * np.arange(q) + turn * q // 4) % q
    images = m.reshape(-1, 2, 2) @ pts.T  # images[g, :, j]: map g of sensor j
    fits = (np.abs(images - pts[perm].transpose(0, 2, 1)) <= tol).all(axis=(1, 2))
    fits &= [_maps_lattice(g, axes, tol) for g in _MAPS]
    group = [g for g, ok in zip(_MAPS, fits) if ok]
    # two maps that each pass within tol may have a product that misses it:
    # F is a fundamental domain only for a group; else the identity is used alone
    if not all(_mul(g, h) in group for g in group for h in group):
        fits = np.arange(len(_MAPS)) == 0
    return m[fits], perm[fits]


def _image_rule(grid, maps):
    """Columns (alpha, beta, gamma) over the maps (|G|, 4) such that the map
    g sends the lattice point (ix, iy) to the flat grid index
    alpha_g ix + beta_g iy + gamma_g.  The maps act on the centred integers
    (2 ix - (nx - 1), 2 iy - (ny - 1)), so the rule is exact; a map that
    swaps x and y is only in the group when nx = ny."""
    a, b, c, d = maps.T[..., None]
    mx, my = grid.nx - 1, grid.ny - 1
    shift_x = ((1 - a) * mx - b * my) // 2
    shift_y = ((1 - d) * my - c * mx) // 2
    return a + c * grid.nx, b + d * grid.nx, shift_x + shift_y * grid.nx


def _domain_blocks(grid, maps):
    """Flat indices of the fundamental domain F of the group maps (an
    (|G|, 4) array, identity first), _BLOCK at a time (the last block may be
    shorter) and in index order.

    A point belongs to F when its centred indices (u, v) are the
    lexicographic maximum, u first, of its orbit: for the whole group
    F = {x >= 0, 0 <= y <= x}.  The positive x-axis, where sensor 0 lies,
    is always in F.  Under the key u w + v, the key of (u, v) less that of
    g(u, v) is p_g u + q_g v with p_g >= 0 for each map of the square, so
    on row v, F holds the u >= -q_g v / p_g of every g with p_g > 0, and
    nothing if a g with p_g = 0 has q_g v < 0.  Rows are gathered about
    _SCAN points at a time, so memory stays O(_SCAN + _BLOCK).
    """
    nx, ny = grid.nx, grid.ny
    w = 2 * max(nx, ny)  # u * w + v orders (u, v) lexicographically, as |v| < w / 2
    a, b, c, d = maps.T[..., None]
    p, qv = (1 - a) * w - c, (1 - b * w - d) * (2 * np.arange(ny) - (ny - 1))
    # per row, the least u in F (w: none) and its ix, as u = 2 ix - (nx - 1)
    least = np.where(p > 0, -(qv // np.maximum(p, 1)), np.where(qv < 0, w, -w)).max(axis=0)
    start = (least + nx) // 2
    ix = np.arange(nx)
    rows = max(1, _SCAN // nx)
    pending = np.empty(0, dtype=np.intp)
    for y0 in range(0, ny, rows):
        inside = np.flatnonzero(ix >= start[y0 : y0 + rows, None])
        pending = np.concatenate([pending, y0 * nx + inside])
        while pending.size >= _BLOCK:
            yield pending[:_BLOCK]
            pending = pending[_BLOCK:]
    if pending.size:
        yield pending


def grid_indicators(vecs, weights, sensors, k, grid):
    """Spectral indicators over the lattice points of a SamplingGrid, one row
    per row of weights (rows, modes).

    Phi(x_i, g z) = Phi(g^-1 x_i, z) for every mirror map g of the square
    that sends the sensor set and the grid onto themselves (their group G,
    see _symmetry_group), so the steering columns are built only on the
    fundamental domain F of G, in blocks of _BLOCK points.  The vectors are
    stacked once, one copy per g with its sensor rows permuted by g, so a
    block takes one product with the stack, one reduction per weight row
    and one write per map to the points g(F), in reverse group order.
    Memory stays O(_BLOCK) as the grid grows.  A point reached by several
    maps (on a mirror axis or a diagonal) so keeps the value of the first
    of them in group order, and every point of F keeps the identity's, its
    direct value; a point of g(F) gets its sums in another order and agrees
    with the direct kernel to the last few digits.  With G = {identity}
    this is the plain loop over grid blocks.
    """
    maps, perms = _symmetry_group(sensors, grid)
    # row block g: the conjugated vectors with their sensor rows permuted by g
    stacked = np.concatenate(vecs[perms].conj(), axis=1).T
    alpha, beta, gamma = _image_rule(grid, maps)
    out = np.empty((weights.shape[0], grid.nx * grid.ny))
    for block in _domain_blocks(grid, maps):
        iy, ix = np.divmod(block, grid.nx)
        phis = fundamental_solution_many(k, sensors.points, np.column_stack([grid.xs[ix], grid.ys[iy]]))
        images = alpha * ix + beta * iy + gamma  # row g: the points g(block)
        values = _indicator_block(stacked, weights, phis, len(maps))
        values = values.reshape(len(weights), len(maps), -1)
        for g in reversed(range(len(maps))):  # the first map at a point writes last
            out[:, images[g]] = values[:, g]
    return out


def fm_mlsm_fields(matrix, regime, grid, f=None):
    """(retained_modes, rows): the modes make_picard_data keeps of the
    N_sharp of a MultistaticMatrix in the given regime, and the rows
    W(z) = [Picard sum]^{-1} and P(z) = |(N_sharp g_z, g_z)|^{-1} over a
    grid, for g_z = sum_j lambda_j f(lambda_j^2) (phi_z, psi_j) psi_j, from
    one projection of each steering vector of the matrix's sensors.

    The default filter (f None, a config's `filter: null`) keeps every
    retained mode, f(t) = 1/t: the MLSM weights lambda^3 f(lambda^2)^2 are
    then the FM weights 1/lambda, so only W is reduced and rows holds it
    alone, as P too.  A regularized MLSM needs an explicit f.
    """
    lam, vecs = make_picard_data(nsharp(matrix.data, regime))
    sensors = matrix.sensors
    weights = picard_weights(lam, 2.0 * np.pi * sensors.radius / sensors.count, f)
    return lam.size, grid_indicators(vecs, weights, sensors, matrix.wavenumber, grid)
