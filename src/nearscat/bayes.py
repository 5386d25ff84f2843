"""Hierarchical Bayesian estimation of the constant contrast gamma ~ n(x0) - 1
on a reconstructed support, via Gaussian random-walk Metropolis-Hastings.

Model: readings u_i ~ N(mu_i, delta^2) circularly in the complex plane with
mu_i = k^2 sum_p w_p eta(z_p) Phi(x_i, z_p) Phi(z_p, x_i), eta_p ~ N(gamma, h^2),
and gamma given the wide normal prior N(0, prior_sd^2) standing in for a
flat prior.
"""

import sys
from dataclasses import dataclass, field

import numpy as np

from .born import DEFAULT_RULE_ORDER, assemble_multistatic
from .errors import DomainError, NearscatError
from .geometry import QuadratureRule, gauss_quadrature
from .specfun import fundamental_solution_many


@dataclass(frozen=True)
class Readings:
    points: np.ndarray  # (R, 2) co-located source and receiver of each reading, on C
    values: np.ndarray  # (R,) complex scattered-field readings
    delta: float  # noise standard deviation (per real component)


def synthesize_readings(scatterers, sensors, k, noise_frac, seed,
                        rule_order=DEFAULT_RULE_ORDER):
    """One backscatter reading per sensor with additive complex noise.

    The data set pairs each receiver with the co-located source (the i-th
    entry of the sensor array serves as both), giving count(sensors)
    readings.  noise_frac scales the per-component noise std against the
    RMS magnitude of the noiseless data (15% noise -> noise_frac = 0.15).
    """
    m = assemble_multistatic(scatterers, sensors, k, rule_order).data
    u = np.diag(m).copy()
    rms = float(np.sqrt(np.mean(np.abs(u) ** 2)))
    delta = noise_frac * rms
    if delta > 0.0:
        rng = np.random.default_rng(seed)
        u = u + delta * (rng.standard_normal(u.size) + 1j * rng.standard_normal(u.size))
    return Readings(points=sensors.points, values=u, delta=float(delta))


_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # the normal positive floats


@dataclass(frozen=True)
class BayesModel:
    rhat: QuadratureRule  # rule over the reconstructed support
    k: float
    h: float  # Taylor spread of eta about gamma
    prior_sd: float = 1e5
    iterations: int = 20000
    burn_in: int = 5000
    thinning: int = 1
    seed: int = 0

    def __post_init__(self):
        # `not x > 0` also rejects NaN.  The posterior uses the squares,
        # which must neither underflow to 0 nor overflow.
        for name in ("h", "prior_sd"):
            value = getattr(self, name)
            if not value > 0.0:
                raise DomainError(f"{name} must be positive, got {value}")
            if not _TINY <= float(value) * float(value) <= _HUGE:
                raise DomainError(
                    f"{name} = {value} has a square outside the float range "
                    f"[{_TINY:.3g}, {_HUGE:.3g}]"
                )
        if self.burn_in < 0:
            raise DomainError(f"burn_in must be nonnegative, got {self.burn_in}")
        if self.iterations <= self.burn_in:
            raise DomainError("iterations must exceed burn_in")
        if self.thinning < 1:
            raise DomainError(f"thinning must be at least 1, got {self.thinning}")
        if self.kept < 2:
            raise DomainError(
                f"thinning {self.thinning} keeps {self.kept} draw after burn-in; the sd needs 2"
            )
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")

    @property
    def kept(self):
        """The number of post-burn-in draws that thinning keeps."""
        return len(range(self.burn_in, self.iterations, self.thinning))


def make_bayes_model(shape, k, rule_order=3, h=None, **kwargs):
    rule = gauss_quadrature(shape, rule_order)
    h = shape.diameter() if h is None else h
    return BayesModel(rhat=rule, k=k, h=float(h), **kwargs)


def design_matrix(model, readings):
    """B with mu = B @ eta: B[i, p] = k^2 w_p Phi(x_i, z_p) Phi(z_p, x_i) for
    source and receiver at x_i.  Phi(z, x) is Phi(x, z) bit for bit, so one
    evaluation serves both factors."""
    k = model.k
    phi = fundamental_solution_many(k, readings.points, model.rhat.nodes)
    return k**2 * model.rhat.weights[None, :] * phi * phi


@dataclass(frozen=True)
class PosteriorSummary:
    samples: np.ndarray  # retained gamma draws
    mean: float
    sd: float
    map_estimate: float  # histogram mode
    acceptance_rate: float
    chain_gamma: np.ndarray = field(repr=False, default=None)  # every iteration
    runs: tuple = field(repr=False, default=None)  # (run_start, run_gamma, run_logpost): see run_mh


def _histogram_mode(samples, bins=60):
    counts, edges = np.histogram(samples, bins=bins)
    i = int(np.argmax(counts))
    return float((edges[i] + edges[i + 1]) / 2.0)


def _quadratic_form(model, readings):
    """(Q, l, c, share) with log posterior -1/2 theta^T Q theta + l^T theta + c.

    theta = (eta_1..eta_P, gamma).  The model is linear-Gaussian in theta
    (real eta, complex readings), so the form is exact:
    Q_eta,eta = Re(B^H B)/delta^2 + I/h^2, Q_eta,gamma = -1/h^2,
    Q_gamma,gamma = P/h^2 + 1/prior_sd^2, l = (Re(B^H u)/delta^2, 0), and
    c = -|u|^2/(2 delta^2) is the log posterior at theta = 0.  share =
    ||Re(B^H B)||_2 h^2/delta^2 = ||[Re B; Im B]||_2^2 h^2/delta^2 sizes the
    data term against the prior's 1/h^2 term.
    """
    if readings.delta <= 0.0:
        raise DomainError("readings.delta must be positive for the likelihood")
    b = design_matrix(model, readings)
    u = readings.values
    p = b.shape[1]
    d2 = readings.delta**2
    h2 = model.h**2
    q = np.empty((p + 1, p + 1))
    q[:p, :p] = (b.conj().T @ b).real / d2 + np.eye(p) / h2
    q[:p, p] = q[p, :p] = -1.0 / h2
    q[p, p] = p / h2 + 1.0 / model.prior_sd**2
    lin = np.zeros(p + 1)
    lin[:p] = (b.conj().T @ u).real / d2
    c = -float(np.sum(u.real**2 + u.imag**2)) / (2.0 * d2)
    share = np.linalg.norm(np.vstack([b.real, b.imag]), 2) ** 2 * h2 / d2
    return q, lin, c, share


def run_mh(model, readings):
    """Joint random-walk MH over theta = (eta, gamma); deterministic given the seed.

    The log posterior is the exact quadratic form of `_quadratic_form`, so
    the proposal takes its shape: d = s L^-T z, with Q = L L^T, z standard
    normal and s = 2.38 / sqrt(dim) (Roberts, Gelman & Gilks 1997).  For a
    step zs = s z the log ratio is zs.w - 1/2 |zs|^2, where w = L^-1 l at
    the start and moves by -zs on acceptance; gamma, the last coordinate,
    moves by zs[P] / L[P, P], as L^-T is upper triangular.

    The draws of a random-walk sampler do not depend on its state, so the
    chain goes one batch of m <= 50 steps at a time.  A batch takes its
    random numbers in two calls: an (m, P + 1) standard normal block, whose
    row i holds step i's P eta draws and then gamma's, followed by m accept
    uniforms.  The batch is scored from its Gram matrix G = zs zs^T: its
    log ratios start as r = zs.w - 1/2 diag(G), and an acceptance at step j
    moves them by -G[j], one m-vector update, after which the scan goes on
    from j + 1.  w moves once per batch, by the sum of the accepted zs.

    Most steps are rejected and repeat the state before them, so the chain
    is kept as runs: each acceptance records only the step it happens at
    and its log ratio.  After the last batch, the runs' gamma and log_post
    are the cumulative sums of the accepted increments and log ratios
    (`np.cumsum` adds in sequence, as a running total would).  The summary
    carries the runs and the per-step gamma chain expanded from them.
    """
    q, lin, logp, share = _quadratic_form(model, readings)
    try:
        chol = np.linalg.cholesky(q)
    except np.linalg.LinAlgError:
        raise NearscatError(
            f"the posterior precision for h = {model.h:g} and prior_sd = "
            f"{model.prior_sd:g} is not positive definite in floating point"
        ) from None
    if share <= np.finfo(float).eps:
        raise NearscatError(
            f"the data term of the posterior precision for h = {model.h:g} and noise delta = "
            f"{readings.delta:g} is {share:.3g} of its 1/h^2 term, below the float precision"
        )
    w = np.linalg.solve(chol, lin)
    dim = q.shape[0]
    p = dim - 1
    scale = 2.38 / np.sqrt(dim)
    gamma_pivot = float(chol[p, p])

    rng = np.random.default_rng(model.seed)
    n = model.iterations
    # run k holds (gamma, log_post) from step run_start[k] on: the sums of
    # increments[:k + 1] and ratios[:k + 1], whose entry 0 is the start state
    # and whose entry k is the acceptance that began run k.  An acceptance
    # at step 0 leaves the first run empty.
    run_start = [0]
    ratios = [logp]
    increments = [0.0]
    batch_len = 50
    for start in range(0, n, batch_len):
        m = min(batch_len, n - start)
        zs = scale * rng.standard_normal((m, dim))
        log_u = np.log(rng.random(m)).tolist()
        gram = zs @ zs.T
        r = zs @ w - 0.5 * gram.diagonal()
        scores = r.tolist()
        accepted = []  # the batch's accepted steps
        t = 0
        while True:
            for j in range(t, m):
                if log_u[j] < scores[j]:
                    break
            else:
                break
            accepted.append(j)
            ratios.append(scores[j])
            r -= gram[j]
            scores = r.tolist()
            t = j + 1
        if accepted:
            w -= np.add.reduce(zs.take(accepted, axis=0))
            increments += (zs[accepted, p] / gamma_pivot).tolist()
            run_start += [start + j for j in accepted]

    run_start = np.array(run_start)
    run_gamma = np.cumsum(increments)
    chain_gamma = np.repeat(run_gamma, np.diff(run_start, append=n))
    # BayesModel keeps at least 2 draws, so at least 2 steps follow burn-in
    rate = np.count_nonzero(np.diff(chain_gamma[model.burn_in :])) / (n - model.burn_in - 1)
    if rate < 0.01:
        raise NearscatError(f"acceptance rate {rate:.3%} below 1% after burn-in")
    samples = chain_gamma[model.burn_in :: model.thinning]
    return PosteriorSummary(
        samples=samples,
        mean=float(np.mean(samples)),
        sd=float(np.std(samples, ddof=1)),
        map_estimate=_histogram_mode(samples),
        acceptance_rate=rate,
        chain_gamma=chain_gamma,
        runs=(run_start, run_gamma, np.cumsum(ratios)),
    )
