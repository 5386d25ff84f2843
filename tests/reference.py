"""Independent reference paths that the tests check the package against.

They live here rather than in `nearscat` because nothing in the package
needs them: each is the direct, slow form of a vectorised or algebraically
reduced computation in `src/`.
"""

from types import SimpleNamespace

import numpy as np

from nearscat.bayes import design_matrix
from nearscat.errors import DomainError
from nearscat.specfun import hankel1


def fundamental_solution(k, x, y):
    """2-D outgoing fundamental solution (i/4) H^(1)_0(k|x - y|) at one pair,
    through the scalar AMOS Hankel function.

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


def _log_posterior_from_mu(model, readings, gamma, eta, mu):
    resid = readings.values - mu
    loglike = -float(np.sum(resid.real**2 + resid.imag**2)) / (2.0 * readings.delta**2)
    logp_eta = -float(np.sum((eta - gamma) ** 2)) / (2.0 * model.h**2)
    logp_gamma = -(gamma**2) / (2.0 * model.prior_sd**2)
    return loglike + logp_eta + logp_gamma


def reference_run_mh(model, readings):
    """The joint random-walk MH of `bayes.run_mh`, evaluating the full complex
    residual over every reading at each step.

    Draws eta's increments with standard_normal(P), then gamma's with
    standard_normal(), then the accept uniform, and adapts the proposal
    scale during burn-in exactly as `run_mh` does.  Returns the chains.
    """
    b = design_matrix(model, readings)
    p = b.shape[1]
    dim = p + 1
    sd_eta = model.proposal_sd_eta
    if sd_eta is None:
        sd_eta = 2.4 * model.h / np.sqrt(dim)
    sd_gamma = model.proposal_sd_gamma
    if sd_gamma is None:
        sd_gamma = sd_eta

    rng = np.random.default_rng(model.seed)
    gamma = 0.0
    eta = np.zeros(p)
    mu = b @ eta
    logp = _log_posterior_from_mu(model, readings, gamma, eta, mu)

    chain_gamma = np.empty(model.iterations)
    chain_logpost = np.empty(model.iterations)
    log_scale = 0.0
    batch_acc = 0
    batch_len = 50
    for it in range(model.iterations):
        s = np.exp(log_scale)
        d_eta = s * sd_eta * rng.standard_normal(p)
        d_gamma = s * sd_gamma * rng.standard_normal()
        eta_new = eta + d_eta
        gamma_new = gamma + d_gamma
        mu_new = mu + b @ d_eta
        logp_new = _log_posterior_from_mu(model, readings, gamma_new, eta_new, mu_new)
        if np.log(rng.uniform()) < logp_new - logp:
            gamma, eta, mu, logp = gamma_new, eta_new, mu_new, logp_new
            batch_acc += 1
        chain_gamma[it] = gamma
        chain_logpost[it] = logp
        if it < model.burn_in and (it + 1) % batch_len == 0:
            log_scale += 0.5 * (batch_acc / batch_len - 0.234)
            batch_acc = 0
    return SimpleNamespace(chain_gamma=chain_gamma, chain_logpost=chain_logpost)
