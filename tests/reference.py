"""Independent reference paths that the tests check the package against.

They live here rather than in `nearscat` because nothing in the package
needs them: each is the direct, slow form of a vectorised or algebraically
reduced computation in `src/`, or, as fm_mlsm_equivalence_check, a numerical
form of a statement about one.
"""

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.linalg import solve_triangular

from nearscat.bayes import PosteriorSummary, _histogram_mode, _quadratic_form, design_matrix
from nearscat.born import _gather_nodes
from nearscat.disk import kernel_weights, series_coefficients
from nearscat.errors import DomainError, NearscatError
from nearscat.linalg import hermitian_eig
from nearscat.sampling import (
    _MAPS,
    _SYM_ULPS,
    SENTINEL_CAP,
    FilterSpec,
    _maps_lattice,
    _mul,
    filter_value,
)
from nearscat.specfun import (
    _check_order,
    bessel_j_orders,
    bessel_y_orders,
    derivative_orders,
    fundamental_solution_many,
    hankel1_orders,
)

# One-order special functions: each reads the last entry of the
# all-orders pass in `specfun`.


def bessel_j(order, z):
    """Bessel function of the first kind J_order(z) for real or complex z.

    For real z the result is returned as a real float (imaginary part is
    exactly zero).
    """
    return bessel_j_orders(order, z)[-1].item()


def bessel_y(order, x):
    """Bessel function of the second kind Y_order(x), real x > 0."""
    return float(bessel_y_orders(order, x)[-1])


def hankel1(order, x):
    """First-kind Hankel function H^(1)_order(x) = J + iY for real x > 0."""
    return complex(hankel1_orders(order, x)[-1])


def bessel_j_prime(order, z):
    """Derivative of J_order via the two-term recurrence."""
    _check_order(order)
    return derivative_orders(bessel_j_orders(order + 1, z))[-1].item()


def hankel1_prime(order, x):
    """Derivative of H^(1)_order via the same recurrence as bessel_j_prime."""
    _check_order(order)
    return complex(derivative_orders(hankel1_orders(order + 1, x))[-1])


def fundamental_solution(k, x, y):
    """2-D outgoing fundamental solution (i/4) H^(1)_0(k|x - y|) at one pair,
    through the scalar `hankel1`: J_0 by Miller's recurrence, Y_0 from the
    real kernel that Φ uses too (test_specfun checks both against mpmath).

    Symmetric in its two point arguments; x == y is a singularity.
    """
    if k <= 0.0:
        raise DomainError(f"wavenumber must be positive, got {k}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = float(np.hypot(x[0] - y[0], x[1] - y[1]))
    if r == 0.0:
        raise DomainError("fundamental_solution is singular at x = y")
    return 0.25j * hankel1(0, k * r)


# Pointwise forward models: one entry of an assembled matrix each.


def born_scattered_field(scatterers, rule_order, k, x, y):
    """u_B^s(x, y) = k^2 sum_p w_p (n(z_p) - 1) Phi(x, z_p) Phi(z_p, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for spec in scatterers:
        if spec.shape.contains(x) or spec.shape.contains(y):
            raise DomainError("source/receiver point lies inside a scatterer")
    nodes, cw = _gather_nodes(scatterers, rule_order)
    px = fundamental_solution_many(k, x[None, :], nodes)[0]
    py = fundamental_solution_many(k, nodes, y[None, :])[:, 0]
    return complex(k**2 * np.sum(cw * px * py))


def sigma_m(medium, m):
    """Series coefficient of the scattered field for angular order m >= 0;
    a resonance at any order up to m raises."""
    if m < 0 or int(m) != m:
        raise DomainError(f"order must be a nonnegative integer, got {m!r}")
    return complex(series_coefficients(medium, int(m))[m])


def disk_scattered_field(medium, trunc, x_angle, y_angle):
    """u^s between the points on the measurement circle at polar angles
    x_angle and y_angle: (i/4) sum over |m| <= trunc of
    sigma_m |H^(1)_m(2k)|^2 e^{i m (x_angle - y_angle)}.
    """
    w = kernel_weights(medium, trunc)
    d = float(x_angle) - float(y_angle)
    m = np.arange(1, trunc + 1)
    total = w[0] + np.sum(w[1:] * (np.exp(1j * m * d) + np.exp(-1j * m * d)))
    return 0.25j * total


def circulant_symbol(medium, trunc, quad_points):
    """Closed-form eigenvalues of the assembled circulant.

    Mode m contributes 2 pi (i/4) sigma_|m| |H^(1)_m(2k)|^2 for |m| <= trunc
    (each m >= 1 twice via +-m) and zero beyond; returned in DFT mode order
    f = 0..Q-1 with m = f for f <= Q/2 and m = f - Q otherwise.
    """
    q = int(quad_points)
    w = kernel_weights(medium, trunc)
    f = np.arange(q)
    m = np.minimum(f, q - f)  # |m| of DFT mode f
    out = np.zeros(q, dtype=complex)
    kept = m <= trunc
    out[kept] = 2.0 * np.pi * 0.25j * w[m[kept]]
    return out


def sqrt_op_apply(values, vectors, g):
    """Apply the spectral square root of a PSD eigensystem to a vector.

    Eigenvalues in [-1e-8*lambda_max, 0) are clipped to zero; anything more
    negative signals a wrong-regime N-sharp and is an error.
    """
    vals = np.asarray(values, dtype=float)
    lmax = float(np.max(np.abs(vals))) if vals.size else 0.0
    if lmax > 0 and np.min(vals) < -1e-8 * lmax:
        raise DomainError(
            f"eigenvalue {np.min(vals):.3e} is too negative for a square root "
            f"(lambda_max = {lmax:.3e})"
        )
    clipped = np.clip(vals, 0.0, None)
    coeff = vectors.conj().T @ np.asarray(g, dtype=complex)
    return vectors @ (np.sqrt(clipped) * coeff)


# N-sharp composed from the three operators `linalg.nsharp` folds.


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
    vals, v = hermitian_eig(b)
    return (v * np.abs(vals)) @ v.conj().T


def nsharp_from_parts(n, regime):
    """|Re(N)| + |Im(N)|, or sigma Im(N) with sigma the sign of the first
    eigenvalue of Im(N) in hermitian_eig's order (largest |lambda|, a tie
    going to the positive one), from the full eigendecomposition."""
    if regime == "nonabsorbing":
        return abs_op(real_part_op(n)) + abs_op(imag_part_op(n))
    im = imag_part_op(n)
    vals, _ = hermitian_eig(im)
    return (1.0 if vals[0] >= 0.0 else -1.0) * im


def cutoff_at_rank(picard):
    """Spectral-cutoff filter that keeps every retained mode of an
    (eigenvalues, eigenvectors) pair of make_picard_data.

    The clip of make_picard_data is the only truncation of N_sharp: the
    cutoff parameter sits just below lambda_min^2, so the filter is 1/t on
    every retained lambda^2 and the MLSM weights lambda^3 f(lambda^2)^2
    equal the FM weights 1/lambda up to rounding.
    """
    lam, _ = picard
    return FilterSpec(kind="cutoff", eps=float(lam[-1] ** 2 * (1.0 - 1e-9)))


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


def fm_mlsm_equivalence_check(picard, weight, phi_z, m_terms, eps_sequence, f_kind="tikhonov",
                              a=None, tol=1e-9):
    """Numerical check of the two-sided Picard bracketing for C_reg = 1
    filters, for an (eigenvalues, eigenvectors) pair and a curve weight.

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
    lam, vecs = picard
    if not 1 <= m_terms <= lam.size:
        raise DomainError(f"m_terms must lie in [1, {lam.size}], got {m_terms}")

    c = vecs.conj().T @ np.asarray(phi_z, dtype=complex)
    picard_terms = weight * np.abs(c) ** 2 / lam
    partial = float(np.sum(picard_terms[:m_terms]))
    full = float(np.sum(picard_terms))

    values = []
    for e in eps_sequence:
        fvals = filter_value(FilterSpec(kind=f_kind, eps=e, a=a), lam**2)
        values.append(float(weight * np.sum(lam**3 * fvals**2 * np.abs(c) ** 2)))

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


def indicators_per_point(vecs_h, weights, phis):
    """The spectral kernel's reduction one point and one weight row at a
    time: 1 / fsum_j w_j (Re(c_j)^2 + Im(c_j)^2), sentinel-capped as in the
    package.  The projections c = vecs_h @ phis come from the package's own
    single product: a product per point rounds differently, and the Picard
    weights amplify that to about 1e-12, which would hide the reduction."""
    projections = (vecs_h @ phis).T.tolist()
    out = np.empty((len(weights), len(projections)))
    for z, c in enumerate(projections):
        power = [v.real * v.real + v.imag * v.imag for v in c]
        for i, w in enumerate(weights.tolist()):
            total = math.fsum(wj * pj for wj, pj in zip(w, power))
            out[i, z] = SENTINEL_CAP if total <= 1.0 / SENTINEL_CAP else 1.0 / total
    return out


def _indicator_block_per_map(vecs_h, weights, phis):
    """Row i: 1 / sum_j weights[i, j] |(phi_z, v_j)|^2 per column phi_z of
    phis, sentinel-capped; vecs_h holds the conjugated v_j as rows.  A row's
    bits do not depend on the other rows."""
    c = vecs_h @ phis  # (modes, points)
    a = c.real * c.real + c.imag * c.imag
    sums = np.stack([w @ a for w in weights])
    return np.where(sums <= 1.0 / SENTINEL_CAP, SENTINEL_CAP, 1.0 / np.maximum(sums, 1e-300))


def _centred(grid, idx):
    """Lattice indices of flat grid indices as centred integers
    (u, v) = (2 ix - (nx - 1), 2 iy - (ny - 1)), on which the maps act
    exactly."""
    iy, ix = np.divmod(idx, grid.nx)
    return 2 * ix - (grid.nx - 1), 2 * iy - (grid.ny - 1)


def _image(grid, m, u, v):
    """Flat grid indices of the map m applied to the centred points (u, v)."""
    a, b, c, d = m
    gu, gv = a * u + b * v, c * u + d * v
    return (gv + (grid.ny - 1)) // 2 * grid.nx + (gu + (grid.nx - 1)) // 2


_PER_MAP_BLOCK = 1024


def _domain_blocks_per_map(grid, maps):
    """Flat indices of the fundamental domain F of the group maps,
    _PER_MAP_BLOCK at a time (the last block may be shorter) and in index
    order.

    A point belongs to F when its centred indices (u, v) are the
    lexicographic maximum, u first, of its orbit: for the whole group
    F = {x >= 0, 0 <= y <= x}.  The positive x-axis, where sensor 0 lies,
    is always in F.  The grid is scanned about _PER_MAP_BLOCK * |G| points
    at a time, so memory stays O(_PER_MAP_BLOCK).
    """
    nx, ny = grid.nx, grid.ny
    w = 2 * max(nx, ny)  # u * w + v orders (u, v) lexicographically, as |v| < w / 2
    u = 2 * np.arange(nx) - (nx - 1)
    rows = max(1, _PER_MAP_BLOCK * len(maps) // nx)
    pending = np.empty(0, dtype=np.intp)
    for y0 in range(0, ny, rows):
        v = 2 * np.arange(y0, min(y0 + rows, ny))[:, None] - (ny - 1)
        key = w * u + v
        top = key
        for a, b, c, d in maps[1:]:  # the key of g(u, v) is (a w + c) u + (b w + d) v
            top = np.maximum(top, (a * w + c) * u + (b * w + d) * v)
        pending = np.concatenate([pending, y0 * nx + np.flatnonzero(key == top)])
        while pending.size >= _PER_MAP_BLOCK:
            yield pending[:_PER_MAP_BLOCK]
            pending = pending[_PER_MAP_BLOCK:]
    if pending.size:
        yield pending


def _sensor_permutation(m, sensors, tol):
    """p with m(sensor j) = sensor p[j] within tol, or None.

    On a uniform circle starting at angle 0, m sends sensor j to
    det(m) * j + t Q/4 (mod Q), where t is the quarter turn that takes (1, 0)
    to m's first column; a t Q/4 that is not an integer drops the map.
    """
    a, b, c, d = m
    q = len(sensors)
    turn = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}[(a, c)]
    if turn * q % 4:
        return None
    perm = ((a * d - b * c) * np.arange(q) + turn * q // 4) % q
    image = sensors @ np.array(m, dtype=float).reshape(2, 2).T
    return perm if (np.abs(image - sensors[perm]) <= tol).all() else None


def symmetry_group_per_map(sensors, grid):
    """`sampling._symmetry_group` one map at a time: (maps, perms), the maps
    of the square that send both the sensor set and the lattice grid onto
    themselves, identity first, and the sensor permutation of each."""
    pts = sensors.points
    group = [(_MAPS[0], np.arange(len(pts)))]
    axes = grid.xs, grid.ys
    scale = max(np.max(np.abs(axes[0])), np.max(np.abs(axes[1])), np.max(np.abs(pts)))
    tol = _SYM_ULPS * np.finfo(float).eps * scale
    perms = {m: _sensor_permutation(m, pts, tol)
             for m in _MAPS[1:] if _maps_lattice(m, axes, tol)}
    maps = [_MAPS[0]] + [m for m, p in perms.items() if p is not None]
    # two maps that each pass within tol may have a product that misses it:
    # F is a fundamental domain only for a group
    if all(_mul(m, n) in maps for m in maps for n in maps):
        group += [(m, perms[m]) for m in maps[1:]]
    return np.array([m for m, _ in group]), np.array([p for _, p in group])


def grid_indicators_per_map(vecs, weights, sensors, k, grid):
    """The grid pipeline one mirror map at a time: each block of the
    fundamental domain F is projected once per map g, onto the vectors with
    their sensor rows permuted by g, reduced as w @ (Re(c)^2 + Im(c)^2) and
    scattered to g(F).  The identity is projected last, so every point of F
    keeps its direct value; among the other maps, a point that several of
    them reach keeps the value of the one first in group order."""
    maps, perms = symmetry_group_per_map(sensors, grid)
    group = [(tuple(m), perm) for m, perm in zip(maps.tolist(), perms)]
    vecs_h = vecs.conj().T
    # the identity last, so that its values are the ones the points of F keep
    projections = [(m, vecs_h[:, perm]) for m, perm in group[::-1]]
    points = grid_points(grid)
    out = np.empty((weights.shape[0], len(points)))
    for block in _domain_blocks_per_map(grid, [m for m, _ in group]):
        phis = fundamental_solution_many(k, sensors.points, points[block])
        u, v = _centred(grid, block)
        for m, vh in projections:
            out[:, _image(grid, m, u, v)] = _indicator_block_per_map(vh, weights, phis)
    return out


def _log_posterior_from_mu(model, readings, gamma, eta, mu):
    resid = readings.values - mu
    loglike = -float(np.sum(resid.real**2 + resid.imag**2)) / (2.0 * readings.delta**2)
    logp_eta = -float(np.sum((eta - gamma) ** 2)) / (2.0 * model.h**2)
    logp_gamma = -(gamma**2) / (2.0 * model.prior_sd**2)
    return loglike + logp_eta + logp_gamma


# The batch length of `bayes.run_mh`'s draw layout, restated rather than
# imported so that a change of the layout fails the samplers below.
MH_BATCH = 100


def reference_run_mh(model, readings):
    """The joint random-walk MH of `bayes.run_mh`, evaluating the full complex
    residual over every reading at each step.

    Takes the random numbers in `run_mh`'s batch layout: at the start of
    every 100-step batch of m steps, standard_normal((m, P + 1)) (row i holds
    step i's eta draws, then gamma's) and then random(m), the accept
    uniforms.  Step i proposes d with L^T d = s z_i, solved by back
    substitution, where Q = L L^T is the posterior precision and
    s = 2.38 / sqrt(P + 1).  Returns the chains.
    """
    b = design_matrix(model, readings)
    p = b.shape[1]
    dim = p + 1
    chol_t = np.linalg.cholesky(_quadratic_form(model, readings)[0]).T
    scale = 2.38 / np.sqrt(dim)

    rng = np.random.default_rng(model.seed)
    gamma = 0.0
    eta = np.zeros(p)
    mu = b @ eta
    logp = _log_posterior_from_mu(model, readings, gamma, eta, mu)

    chain_gamma = np.empty(model.iterations)
    chain_logpost = np.empty(model.iterations)
    for it in range(model.iterations):
        if it % MH_BATCH == 0:
            m = min(MH_BATCH, model.iterations - it)
            z = rng.standard_normal((m, dim))
            uniforms = rng.random(m)
        i = it % MH_BATCH
        d = solve_triangular(chol_t, scale * z[i], lower=False)
        eta_new = eta + d[:p]
        gamma_new = gamma + d[p]
        mu_new = mu + b @ d[:p]
        logp_new = _log_posterior_from_mu(model, readings, gamma_new, eta_new, mu_new)
        if np.log(uniforms[i]) < logp_new - logp:
            gamma, eta, mu, logp = gamma_new, eta_new, mu_new, logp_new
        chain_gamma[it] = gamma
        chain_logpost[it] = logp
    return SimpleNamespace(chain_gamma=chain_gamma, chain_logpost=chain_logpost)


def tail_fill_run_mh(model, readings):
    """`bayes.run_mh`'s batch loop with per-step chain arrays: every batch
    fills both chains with the current state, and every acceptance refills
    the tail of the batch from the accepted step on, adding the step's gamma
    increment and log ratio to running totals.  It takes the same random
    numbers and does the same arithmetic as `run_mh` (whitened steps, Gram
    scoring, one update of w per batch), so the two chains must agree bit
    for bit.  Returns the chains.
    """
    q, lin, logp, _ = _quadratic_form(model, readings)
    chol = np.linalg.cholesky(q)
    w = np.linalg.solve(chol, lin)
    dim = q.shape[0]
    p = dim - 1
    scale = 2.38 / np.sqrt(dim)

    rng = np.random.default_rng(model.seed)
    gamma = 0.0

    n = model.iterations
    chain_gamma = np.empty(n)
    chain_logpost = np.empty(n)
    for start in range(0, n, MH_BATCH):
        stop = min(start + MH_BATCH, n)
        m = stop - start
        zs = scale * rng.standard_normal((m, dim))
        log_u = np.log(rng.random(m)).tolist()
        gram = zs @ zs.T
        r = zs @ w - 0.5 * gram.diagonal()
        chain_gamma[start:stop] = gamma
        chain_logpost[start:stop] = logp
        accepted = []
        for j in range(m):
            log_ratio = float(r[j])
            if log_u[j] < log_ratio:
                gamma += float(zs[j, p]) / float(chol[p, p])
                logp += log_ratio
                r -= gram[j]
                chain_gamma[start + j : stop] = gamma
                chain_logpost[start + j : stop] = logp
                accepted.append(j)
        if accepted:
            w -= np.add.reduce(zs.take(accepted, axis=0))
    return SimpleNamespace(chain_gamma=chain_gamma, chain_logpost=chain_logpost)


def predicted_mean(model, support, gamma_field, x, y):
    """mu(x, y) for node values eta(z_p) = gamma_field on the model's rule
    over the shape support."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if support.contains(x) or support.contains(y):
        raise DomainError("evaluation point lies inside the reconstructed support")
    k = model.k
    px = fundamental_solution_many(k, x[None, :], model.rhat.nodes)[0]
    py = fundamental_solution_many(k, model.rhat.nodes, y[None, :])[:, 0]
    return complex(
        k**2 * np.sum(model.rhat.weights * np.asarray(gamma_field, dtype=complex) * px * py)
    )


def log_posterior(model, readings, gamma, eta):
    """Unnormalized log posterior (additive constants dropped)."""
    if readings.delta <= 0.0:
        raise DomainError("readings.delta must be positive for the likelihood")
    gamma = float(gamma)
    eta = np.asarray(eta, dtype=float)
    resid = readings.values - design_matrix(model, readings) @ eta
    loglike = -float(np.sum(resid.real**2 + resid.imag**2)) / (2.0 * readings.delta**2)
    logp_eta = -float(np.sum((eta - gamma) ** 2)) / (2.0 * model.h**2)
    logp_gamma = -(gamma**2) / (2.0 * model.prior_sd**2)
    return loglike + logp_eta + logp_gamma


# The 1-D reduction (eta pinned to gamma): its conjugate-normal closed form,
# and an MH chain on it that criterion 9 checks against that form.


def conjugate_posterior(model, readings):
    """Exact posterior (mean, sd) of gamma when eta is pinned to gamma.

    With mu = gamma * s, s = B @ 1, the Gaussian likelihood is conjugate to
    the N(0, prior_sd^2) prior.
    """
    b = design_matrix(model, readings)
    s = b @ np.ones(b.shape[1])
    d2 = readings.delta**2
    precision = float(np.sum(s.real**2 + s.imag**2)) / d2 + 1.0 / model.prior_sd**2
    lin = float(np.sum(readings.values.real * s.real + readings.values.imag * s.imag)) / d2
    return lin / precision, 1.0 / np.sqrt(precision)


def run_mh_collapsed(model, readings, proposal_sd=None):
    """MH on the 1-D reduction; used to validate detailed balance."""
    b = design_matrix(model, readings)
    s = b @ np.ones(b.shape[1])
    d2 = readings.delta**2

    def logp_of(g):
        resid = readings.values - g * s
        return (
            -float(np.sum(resid.real**2 + resid.imag**2)) / (2.0 * d2)
            - g**2 / (2.0 * model.prior_sd**2)
        )

    if proposal_sd is None:
        _, post_sd = conjugate_posterior(model, readings)
        proposal_sd = 2.4 * post_sd
    rng = np.random.default_rng(model.seed)
    gamma = 0.0
    logp = logp_of(gamma)
    chain = np.empty(model.iterations)
    accepted = 0
    for it in range(model.iterations):
        g_new = gamma + proposal_sd * rng.standard_normal()
        lp_new = logp_of(g_new)
        if np.log(rng.uniform()) < lp_new - logp:
            gamma, logp = g_new, lp_new
            accepted += 1
        chain[it] = gamma
    rate = accepted / model.iterations
    if rate < 0.01:
        raise NearscatError(f"acceptance rate {rate:.3%} below 1%")
    samples = chain[model.burn_in :: model.thinning]
    return PosteriorSummary(
        samples=samples,
        mean=float(np.mean(samples)),
        sd=float(np.std(samples, ddof=1)),
        map_estimate=_histogram_mode(samples),
        acceptance_rate=rate,
        chain_gamma=chain,
    )


# Field writers, readers and image analysis that only the tests use.


def grid_points(grid):
    """The (nx * ny, 2) points of a SamplingGrid, row-major with y the outer
    loop, as a meshgrid of its axes."""
    gx, gy = np.meshgrid(grid.xs, grid.ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def as_image(grid, values):
    """(ny, nx) view of a grid's values."""
    return values.reshape(grid.ny, grid.nx)


def write_field_csv_rows(grid, values, path):
    """The field CSV through Python's own '%.17g', one `%` call per grid
    row: each distinct coordinate is formatted once, the nx x strings are
    spliced into one row template, and each grid row fills it with the row's
    y (formatted once) interleaved with its values."""
    nx = grid.nx
    xs = map("{:.17g}".format, grid.xs.tolist())
    template = "".join(x + ",%s,%.17g\n" for x in xs)
    ys = map("{:.17g}".format, grid.ys.tolist())
    args = [None] * (2 * nx)
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for y, row in zip(ys, as_image(grid, values).tolist()):
            args[::2] = [y] * nx
            args[1::2] = row
            fh.write(template % tuple(args))


def expand_runs(n, run_start, *run_values):
    """The per-step arrays of an n-step chain given as runs: run k holds
    run_values[i][k] from step run_start[k] to the next run's start."""
    lengths = np.diff(np.asarray(run_start, dtype=np.intp), append=n)
    return tuple(np.repeat(values, lengths) for values in run_values)


# runs per chain.csv block: the text of one block is in memory at a time
_CHAIN_BLOCK_RUNS = 256


def write_chain_csv_rows(chain_gamma, chain_logpost, path):
    """CSV with header "iteration,gamma,log_post", one row per chain entry.

    A rejected Metropolis-Hastings step repeats the previous state, so the
    chain is written as runs of repeated states.  States are told apart by
    their bit patterns: 0.0 and -0.0 differ there, and NaN equals NaN.  Each
    run's state is formatted once into a row template with a `%d` slot for
    the iteration; a block of runs repeats each template over its run, and
    one `%` call fills in the block's iteration numbers.  Blocks keep the
    text in memory at a few hundred runs, whatever the chain's length.
    """
    gamma = np.asarray(chain_gamma, dtype=float)
    logpost = np.asarray(chain_logpost, dtype=float)
    bits = np.stack([gamma, logpost]).view(np.int64)
    new = np.ones(gamma.size, dtype=bool)
    np.any(bits[:, 1:] != bits[:, :-1], axis=0, out=new[1:])
    starts = np.flatnonzero(new)
    lengths = np.diff(starts, append=gamma.size).tolist()
    edges = starts.tolist() + [gamma.size]
    # float text holds no "%", so the iteration slot is the only one
    rows = list(map("%d,{:.17g},{:.17g}\n".format,
                    gamma[starts].tolist(), logpost[starts].tolist()))
    with open(path, "w") as fh:
        fh.write("iteration,gamma,log_post\n")
        for b in range(0, len(rows), _CHAIN_BLOCK_RUNS):
            e = min(b + _CHAIN_BLOCK_RUNS, len(rows))
            block = "".join(map(operator.mul, rows[b:e], lengths[b:e]))
            fh.write(block % tuple(range(edges[b], edges[e])))


def read_field_csv(path):
    """The (x, y, value) columns of a field CSV."""
    rows = Path(path).read_text().strip().splitlines()[1:]
    return np.array([[float(c) for c in r.split(",")] for r in rows])


def argmax_point(grid, values):
    """The grid point of the largest value."""
    return grid_points(grid)[int(np.argmax(values))]


def local_maxima(grid, values, top=None):
    """Grid points that beat their 8-neighborhood, sorted by value descending.

    Returns (points, values).
    """
    img = as_image(grid, values)
    ny, nx = img.shape
    padded = np.full((ny + 2, nx + 2), -np.inf)
    padded[1:-1, 1:-1] = img
    neigh = np.full(img.shape, -np.inf)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            neigh = np.maximum(neigh, padded[1 + dy : 1 + dy + ny, 1 + dx : 1 + dx + nx])
    mask = img > neigh
    ys, xs = np.nonzero(mask)
    vals = img[ys, xs]
    order = np.argsort(-vals)
    ys, xs, vals = ys[order], xs[order], vals[order]
    if top is not None:
        ys, xs, vals = ys[:top], xs[:top], vals[:top]
    pts = np.column_stack([grid.xs[xs], grid.ys[ys]])
    return pts, vals
