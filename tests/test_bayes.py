"""Bayesian index-estimation tests: posterior algebra, the sampler against a
per-step residual reference and the exact Gaussian posterior, MH correctness
against the conjugate closed form, and recovery on the paper-scale
configuration."""

import numpy as np
import pytest

from nearscat.bayes import (
    Readings,
    design_matrix,
    make_bayes_model,
    run_mh,
    synthesize_readings,
)
from nearscat.cli import run
from nearscat.errors import DomainError, NearscatError
from nearscat.geometry import Disk, Ellipse, Rectangle, ScattererSpec

from reference import (
    born_scattered_field,
    conjugate_posterior,
    expand_runs,
    fundamental_solution,
    log_posterior,
    predicted_mean,
    reference_run_mh,
    run_mh_collapsed,
    tail_fill_run_mh,
)


@pytest.fixture(scope="module")
def readings15(bayes_scatterer, unit_sensors32):
    return synthesize_readings([bayes_scatterer], unit_sensors32, 1.0, 0.15, seed=11)


@pytest.fixture(scope="module")
def model_true(bayes_square):
    return make_bayes_model(
        bayes_square, 1.0, iterations=20000, burn_in=5000, seed=3
    )


# ---------------------------------------------------------------------------
# model pieces


def test_support_diameter():
    # h defaults to |D|, the diameter of the support
    for shape, diameter in [
        (Disk(center=(0, 0), radius=0.3), 0.6),
        (Ellipse(center=(0, 0), a=0.3, b=0.1), 0.6),
        (Rectangle(corner_min=(-0.2, -0.2), corner_max=(0.2, 0.2)), 0.4 * np.sqrt(2)),
    ]:
        assert make_bayes_model(shape, 1.0).h == pytest.approx(diameter)
    assert make_bayes_model(Disk(center=(0, 0), radius=0.3), 1.0, h=0.1).h == 0.1


def test_model_validation(bayes_square):
    with pytest.raises(DomainError):
        make_bayes_model(bayes_square, 1.0, h=-1.0)
    with pytest.raises(DomainError):
        make_bayes_model(bayes_square, 1.0, iterations=100, burn_in=100)


@pytest.mark.parametrize(
    "bad",
    [
        {"h": float("nan")},
        {"burn_in": -1},
        {"thinning": 0},
        {"thinning": -1},
        {"prior_sd": 0.0},
        {"prior_sd": float("nan")},
        {"h": 0.0},
        {"h": float("inf")},
        {"seed": -1},
    ],
)
def test_model_rejects_bad_settings(bayes_square, bad):
    with pytest.raises(DomainError):
        make_bayes_model(bayes_square, 1.0, **bad)


def test_readings_are_backscatter(readings15, unit_sensors32):
    assert readings15.values.size == 32
    assert np.array_equal(readings15.points, unit_sensors32.points)
    assert readings15.delta > 0


def test_predicted_mean_zero_field(model_true, bayes_square):
    x, y = (1.0, 0.0), (0.0, 1.0)
    zeros = np.zeros(model_true.rhat.nodes.shape[0])
    assert predicted_mean(model_true, bayes_square, zeros, x, y) == 0.0


def test_predicted_mean_matches_born(model_true, bayes_square):
    # eta = 1 over the square equals the Born field with n = 2 at the same rule
    x, y = (1.0, 0.0), (0.0, 1.0)
    p = model_true.rhat.nodes.shape[0]
    mu = predicted_mean(model_true, bayes_square, np.ones(p), x, y)
    spec = ScattererSpec(bayes_square, lambda x1, x2: np.full_like(x1, 2.0, dtype=complex))
    order = int(round(np.sqrt(p)))
    ref = born_scattered_field([spec], order, 1.0, x, y)
    assert mu == pytest.approx(ref, rel=1e-12)


def test_predicted_mean_linearity(model_true, bayes_square):
    rng = np.random.default_rng(30)
    p = model_true.rhat.nodes.shape[0]
    eta = rng.standard_normal(p)
    x, y = (1.0, 0.0), (0.0, 1.0)
    assert predicted_mean(model_true, bayes_square, 2 * eta, x, y) == pytest.approx(
        2 * predicted_mean(model_true, bayes_square, eta, x, y), rel=1e-12
    )


def test_predicted_mean_rejects_interior_point(model_true, bayes_square):
    with pytest.raises(DomainError):
        predicted_mean(
            model_true, bayes_square, np.zeros(model_true.rhat.nodes.shape[0]), (0.0, 0.0), (1.0, 0.0)
        )


def test_log_posterior_perfect_fit_zero(model_true, readings15):
    p = model_true.rhat.nodes.shape[0]
    b = design_matrix(model_true, readings15)
    # construct readings that the zero state fits exactly
    perfect = Readings(readings15.points, b @ np.zeros(p), readings15.delta)
    assert log_posterior(model_true, perfect, 0.0, np.zeros(p)) == 0.0


def test_log_posterior_quadratic_scaling(model_true, readings15):
    p = model_true.rhat.nodes.shape[0]
    eta = np.zeros(p)
    lp1 = log_posterior(model_true, readings15, 0.0, eta)
    doubled = Readings(readings15.points, 2.0 * readings15.values, readings15.delta)
    lp2 = log_posterior(model_true, doubled, 0.0, eta)
    assert lp2 == pytest.approx(4.0 * lp1, rel=1e-12)


def test_log_posterior_rejects_zero_delta(model_true, readings15):
    bad = Readings(readings15.points, readings15.values, 0.0)
    p = model_true.rhat.nodes.shape[0]
    with pytest.raises(DomainError):
        log_posterior(model_true, bad, 0.0, np.zeros(p))


# ---------------------------------------------------------------------------
# chains


def test_seed_determinism(model_true, readings15):
    s1 = run_mh(model_true, readings15)
    s2 = run_mh(model_true, readings15)
    assert np.array_equal(s1.chain_gamma, s2.chain_gamma)
    assert s1.mean == s2.mean


def _square(half_width):
    return Rectangle(
        corner_min=(-half_width, -half_width), corner_max=(half_width, half_width)
    )


@pytest.mark.parametrize(
    "half_width, seed, proposal",
    [
        (0.2, 0, {}),
        (0.2, 1, {}),
        (0.265, 0, {}),
        (0.265, 1, {}),
        (0.2, 2, {"h": 0.15, "prior_sd": 10.0}),
    ],
)
def test_run_mh_matches_residual_reference(readings15, half_width, seed, proposal):
    # `proposal` holds settings that reshape the proposal through Q
    model = make_bayes_model(
        _square(half_width), 1.0, iterations=1500, burn_in=500, seed=seed, **proposal
    )
    got = run_mh(model, readings15)
    ref = reference_run_mh(model, readings15)
    assert np.array_equal(got.chain_gamma, ref.chain_gamma)
    assert 0.05 <= got.acceptance_rate <= 0.6
    _, logpost = expand_runs(model.iterations, *got.runs)
    rel = np.abs(logpost - ref.chain_logpost) / np.abs(ref.chain_logpost)
    assert rel.max() <= 1e-12


@pytest.mark.parametrize(
    "iterations, burn_in",
    [
        (1537, 520),  # neither a multiple of the 100-step batch
        (1537, 0),  # no burn-in
        (1501, 500),  # a last batch of one step
        (1599, 599),  # burn-in ends one step short of a batch edge
        (1509, 500),  # a last batch shorter than one 16-step scan window
    ],
)
def test_run_mh_batch_edges_match_residual_reference(readings15, iterations, burn_in):
    model = make_bayes_model(
        _square(0.2), 1.0, iterations=iterations, burn_in=burn_in, seed=4
    )
    got = run_mh(model, readings15)
    ref = reference_run_mh(model, readings15)
    assert np.array_equal(got.chain_gamma, ref.chain_gamma)
    assert 0.05 <= got.acceptance_rate <= 0.6
    _, logpost = expand_runs(model.iterations, *got.runs)
    rel = np.abs(logpost - ref.chain_logpost) / np.abs(ref.chain_logpost)
    assert rel.max() <= 1e-12


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize(
    "half_width, iterations, burn_in, seed, proposal",
    [
        (0.2, 20000, 5000, 3, {}),  # the figure4 chain length
        (0.2, 1500, 500, 0, {}),
        (0.2, 1500, 500, 1, {}),
        (0.265, 1500, 500, 0, {}),  # the figure5 support
        (0.265, 1500, 500, 7, {}),
        (0.2, 1500, 500, 2, {"h": 0.15, "prior_sd": 10.0}),  # another Q
        (0.2, 1537, 520, 4, {}),
        (0.2, 1537, 0, 4, {}),
        (0.2, 1501, 500, 4, {}),
        (0.2, 1599, 599, 4, {}),
        (0.2, 1509, 500, 4, {}),
    ],
)
def test_run_mh_chains_bitwise_equal_tail_fill(readings15, half_width, iterations,
                                               burn_in, seed, proposal):
    # chain.csv prints log_post to 17 digits, so its bits are pinned, not a tolerance
    model = make_bayes_model(_square(half_width), 1.0, iterations=iterations,
                             burn_in=burn_in, seed=seed, **proposal)
    got = run_mh(model, readings15)
    ref = tail_fill_run_mh(model, readings15)
    gamma, logpost = expand_runs(model.iterations, *got.runs)
    assert _same_bits(got.chain_gamma, ref.chain_gamma)
    assert _same_bits(gamma, ref.chain_gamma)
    assert _same_bits(logpost, ref.chain_logpost)


def _exact_gamma_posterior(model, readings):
    """(mean, sd) of gamma under the exact posterior N(Q^-1 b, Q^-1).

    theta = (gamma, eta).  The readings u = B eta + noise are stacked as the
    real system A = [Re B; Im B], y = [Re u; Im u]; B is built pair by pair
    from the scalar reference Phi.
    """
    k, nodes, weights = model.k, model.rhat.nodes, model.rhat.weights
    b = np.array([
        [k**2 * w * fundamental_solution(k, x, z) * fundamental_solution(k, z, y)
         for z, w in zip(nodes, weights)]
        for x, y in zip(readings.points, readings.points)
    ])
    a = np.vstack([b.real, b.imag])
    y = np.concatenate([readings.values.real, readings.values.imag])
    d2, h2, p = readings.delta**2, model.h**2, len(weights)
    q = np.zeros((p + 1, p + 1))
    q[0, 0] = p / h2 + 1.0 / model.prior_sd**2
    q[0, 1:] = q[1:, 0] = -1.0 / h2
    q[1:, 1:] = a.T @ a / d2 + np.eye(p) / h2
    rhs = np.concatenate([[0.0], a.T @ y / d2])
    cov = np.linalg.inv(q)
    return float((cov @ rhs)[0]), float(np.sqrt(cov[0, 0]))


def _obm_mcse(samples):
    """Monte Carlo standard error of the mean by overlapping batch means
    (batches of n^(2/3) samples, several autocorrelation times here)."""
    n = samples.size
    size = int(n ** (2.0 / 3.0))
    csum = np.concatenate([[0.0], np.cumsum(samples)])
    means = (csum[size:] - csum[:-size]) / size
    var = n * size / ((n - size) * (n - size + 1)) * np.sum((means - samples.mean()) ** 2)
    return float(np.sqrt(var / n))


@pytest.mark.parametrize(
    "half_width, h",
    [(0.2, None), (0.265, None), (0.2, 1e-3)],
    ids=["figure4", "figure5", "figure4-h1e-3"],
)
def test_mh_matches_exact_gaussian_posterior(readings15, half_width, h):
    # at h = 1e-3 the prior ties each eta to gamma far tighter than the data
    # do, so the posterior is a thin ridge along the all-ones direction
    model = make_bayes_model(
        _square(half_width), 1.0, rule_order=3, h=h, prior_sd=1e5,
        iterations=20000, burn_in=5000, seed=101,
    )
    exact_mean, exact_sd = _exact_gamma_posterior(model, readings15)
    s = run_mh(model, readings15)
    assert abs(s.mean - exact_mean) <= 5.0 * _obm_mcse(s.samples)
    assert s.sd == pytest.approx(exact_sd, rel=0.2)


def test_figure5_benchmark_seed_matches_exact_posterior(bayes_scatterer, unit_sensors32,
                                                        tmp_path):
    # `cli.run(seed=58)` seeds both the noise and the chain; the benchmark
    # checks this run against the exact posterior too
    run(preset="figure5", seed=58, out_dir=tmp_path)
    table = np.loadtxt(tmp_path / "chain.csv", delimiter=",", skiprows=1)
    samples = table[5000:, 1]
    readings = synthesize_readings([bayes_scatterer], unit_sensors32, 1.0, 0.15,
                                   seed=58, rule_order=16)
    model = make_bayes_model(_square(0.265), 1.0, rule_order=3, prior_sd=1e5)
    exact_mean, _ = _exact_gamma_posterior(model, readings)
    assert abs(samples.mean() - exact_mean) <= 5.0 * _obm_mcse(samples)


def test_sample_count_contract(bayes_square, readings15):
    model = make_bayes_model(
        bayes_square, 1.0, iterations=2000, burn_in=500, thinning=3, seed=3
    )
    s = run_mh(model, readings15)
    assert s.samples.size == len(range(500, 2000, 3))


def test_zero_noise_recovery(bayes_square, unit_sensors32):
    spec = ScattererSpec(
        bayes_square, lambda x1, x2: np.full_like(x1, 2.0, dtype=complex)
    )
    clean = synthesize_readings([spec], unit_sensors32, 1.0, 0.0, seed=0)
    rms = float(np.sqrt(np.mean(np.abs(clean.values) ** 2)))
    r = Readings(clean.points, clean.values, 0.01 * rms)
    model = make_bayes_model(bayes_square, 1.0, iterations=20000, burn_in=5000, seed=3)
    # the model recovers gamma (exact posterior), and the chain its posterior
    # mean to within Monte Carlo error
    exact_mean, _ = _exact_gamma_posterior(model, r)
    assert abs(exact_mean - 1.0) <= 0.05
    s = run_mh(model, r)
    assert abs(s.mean - exact_mean) <= 5.0 * _obm_mcse(s.samples)


def test_paper_recovery_true_support(model_true, readings15):
    s = run_mh(model_true, readings15)
    assert abs(s.mean - 1.0) <= 0.3
    assert s.sd > 0
    assert 0.05 <= s.acceptance_rate <= 0.6


def test_paper_recovery_inflated_support(readings15):
    dhat = Rectangle(corner_min=(-0.265, -0.265), corner_max=(0.265, 0.265))
    model = make_bayes_model(dhat, 1.0, iterations=20000, burn_in=5000, seed=3)
    s = run_mh(model, readings15)
    assert abs(s.mean - 1.0) <= 2.0 * s.sd


def test_collapsed_mh_matches_conjugate(model_true, readings15):
    closed_mean, closed_sd = conjugate_posterior(model_true, readings15)
    s = run_mh_collapsed(model_true, readings15)
    # batch-means Monte-Carlo standard error
    ns = s.samples.size
    b = 50
    means = s.samples[: ns // b * b].reshape(-1, b).mean(axis=1)
    mcse = means.std(ddof=1) / np.sqrt(means.size)
    assert abs(s.mean - closed_mean) <= 3.0 * mcse
    assert s.sd == pytest.approx(closed_sd, rel=0.15)


def test_posterior_contraction(model_true, bayes_scatterer, unit_sensors32):
    # halving the noise (regenerated data) strictly reduces the closed-form
    # posterior sd of the collapsed model, over 5 paired runs
    for seed in range(5):
        r1 = synthesize_readings([bayes_scatterer], unit_sensors32, 1.0, 0.15, seed)
        r2 = synthesize_readings([bayes_scatterer], unit_sensors32, 1.0, 0.075, seed)
        _, sd1 = conjugate_posterior(model_true, r1)
        _, sd2 = conjugate_posterior(model_true, r2)
        assert sd2 < sd1


def test_model_rejects_thinning_that_keeps_one_draw(readings15):
    # 300 post-burn-in iterations thinned by 300 keep one draw: no sd
    with pytest.raises(DomainError, match="keeps 1 draw"):
        make_bayes_model(_square(0.2), 1.0, iterations=400, burn_in=100, thinning=300, seed=3)
    kept = make_bayes_model(_square(0.2), 1.0, iterations=400, burn_in=100, thinning=299, seed=3)
    assert run_mh(kept, readings15).samples.size == 2


def test_chain_error_on_pathological_proposal(bayes_square, readings15):
    # two draws are kept, so the sd guard passes; at seed 3 the one step after
    # burn-in is rejected, and the acceptance rate of 0 is refused
    burn_in = 1999
    bad = make_bayes_model(
        bayes_square, 1.0, iterations=burn_in + 2, burn_in=burn_in, seed=3
    )
    assert bad.kept == 2
    with pytest.raises(NearscatError, match="acceptance rate"):
        run_mh(bad, readings15)
