"""Acceptance gate: the ten release criteria, one test each.

Every test prints a single PASS/FAIL line (visible with `pytest -s`, or in
the captured output of a failing run) and asserts the criterion at its
stated tolerance.
"""

import json
import time

import mpmath
import numpy as np
import pytest
from scipy.stats import spearmanr

from nearscat.bayes import make_bayes_model, run_mh, synthesize_readings
from nearscat.born import add_noise, assemble_multistatic
from nearscat.cli import PRESETS, run
from nearscat.disk import DiskMedium, assemble_nearfield_matrix
from nearscat.geometry import Rectangle, ScattererSpec, constant_index, make_sensor_array
from nearscat.linalg import hermitian_eig, nsharp
from nearscat.music import music_field
from nearscat.sampling import fm_mlsm_fields
from nearscat.specfun import fundamental_solution_many

from conftest import CURVE_WEIGHT
from reference import (
    bessel_j,
    bessel_y,
    circulant_symbol,
    conjugate_posterior,
    fm_mlsm_equivalence_check,
    grid_points,
    local_maxima,
    run_mh_collapsed,
    sigma_m,
)

mpmath.mp.dps = 30


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} — {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _deadline(number, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.1f}s"
    return elapsed


# ---------------------------------------------------------------------------


def test_criterion_1_special_functions():
    started = time.perf_counter()
    worst_w = 0.0
    for m in range(31):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            lhs = bessel_j(m + 1, x) * bessel_y(m, x) - bessel_j(m, x) * bessel_y(
                m + 1, x
            )
            rhs = 2.0 / (np.pi * x)
            worst_w = max(worst_w, abs(lhs - rhs) / abs(rhs))

    rng = np.random.default_rng(101)
    worst_j = 0.0
    for _ in range(200):
        m = int(rng.integers(0, 12))
        z = complex(rng.uniform(-5, 5), rng.uniform(-3, 3))
        ref = complex(mpmath.besselj(m, mpmath.mpc(z)))
        err = abs(bessel_j(m, z) - ref) / max(abs(ref), 1e-300)
        worst_j = max(worst_j, err)

    elapsed = _deadline(1, started, 5.0)
    ok = worst_w <= 1e-10 and worst_j <= 1e-11
    _report(
        1,
        ok,
        f"Wronskian rel err {worst_w:.2e} (tol 1e-10), complex J vs "
        f"extended-precision oracle {worst_j:.2e} (tol 1e-11), {elapsed:.1f}s",
    )


def test_criterion_2_eigensolver():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_recon, worst_orth = 0.0, 0.0
    for trial in range(100):
        size = int(rng.integers(2, 65))
        g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        a = (g + g.conj().T) / 2.0
        vals, vecs = hermitian_eig(a)
        recon = vecs @ np.diag(vals) @ vecs.conj().T
        worst_recon = max(
            worst_recon,
            np.linalg.norm(a - recon) / max(np.linalg.norm(a), 1e-300),
        )
        gram = vecs.conj().T @ vecs
        worst_orth = max(worst_orth, np.max(np.abs(gram - np.eye(size))))
    elapsed = _deadline(2, started, 30.0)
    ok = worst_recon <= 1e-9 and worst_orth <= 1e-10
    _report(
        2,
        ok,
        f"reconstruction {worst_recon:.2e} (tol 1e-9), orthonormality "
        f"{worst_orth:.2e} (tol 1e-10) over 100 matrices, {elapsed:.1f}s",
    )


def test_criterion_3_music_localization(figure1_scatterers, unit_sensors32, grid101):
    started = time.perf_counter()
    truths = np.array([[-0.5, 0.5], [0.5, -0.5]])
    cell = 1.8 / 100

    m = assemble_multistatic(figure1_scatterers, unit_sensors32, 1.0, 16)
    rank, values = music_field(m, grid101)
    rank_ok = rank == 2
    pts, _ = local_maxima(grid101, values, top=2)
    clean_err = max(np.abs(pts - t).max(axis=1).min() for t in truths)

    _, noisy = music_field(add_noise(m, 0.02, 7), grid101)
    pts_n, _ = local_maxima(grid101, noisy, top=2)
    noisy_err = max(np.abs(pts_n - t).max(axis=1).min() for t in truths)

    elapsed = _deadline(3, started, 20.0)
    ok = rank_ok and clean_err <= cell + 1e-12 and noisy_err <= 2 * cell + 1e-12
    _report(
        3,
        ok,
        f"rank {rank} (want 2), noiseless peak error {clean_err / cell:.2f} "
        f"cells (tol 1), delta=0.02 error {noisy_err / cell:.2f} cells (tol 2), "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_zero_contrast(unit_sensors32):
    square = Rectangle(corner_min=(-0.2, -0.2), corner_max=(0.2, 0.2))
    spec = ScattererSpec(square, constant_index(1.0))
    m = assemble_multistatic([spec], unit_sensors32, 1.0, 8)
    born_zero = not np.any(m.data)
    sigmas_zero = all(sigma_m(DiskMedium(a=1.0, n=1.0), m_idx) == 0 for m_idx in range(21))
    ok = born_zero and sigmas_zero
    _report(
        4,
        ok,
        f"n=1 multistatic matrix exactly zero: {born_zero}, sigma_m = 0 for "
        f"m<=20 at a=1,n=1: {sigmas_zero} (exact)",
    )


def test_criterion_5_disk_diagonalization(fig6_medium):
    started = time.perf_counter()
    matrix = assemble_nearfield_matrix(fig6_medium, 20, 64).data
    eigvals = np.linalg.eigvals(matrix)
    symbol = circulant_symbol(fig6_medium, 20, 64)
    order_e = np.lexsort((eigvals.imag, eigvals.real))
    order_s = np.lexsort((symbol.imag, symbol.real))
    err = np.max(np.abs(eigvals[order_e] - symbol[order_s])) / np.max(np.abs(symbol))
    elapsed = _deadline(5, started, 5.0)
    ok = err <= 1e-9
    _report(
        5,
        ok,
        f"circulant eigenvalues vs Fourier symbol, paired rel err {err:.2e} "
        f"(tol 1e-9), {elapsed:.1f}s",
    )


def _jaccard_half_interior_median(values, grid):
    r = np.hypot(*grid_points(grid).T)
    inside = r <= 1.0
    pred = values >= 0.5 * np.median(values[inside])
    return np.sum(pred & inside) / np.sum(pred | inside)


def test_criterion_6_factorization_method(fig6_matrix, disk_grid101):
    started = time.perf_counter()
    _, (w,) = fm_mlsm_fields(fig6_matrix, "nonabsorbing", disk_grid101)
    jac = _jaccard_half_interior_median(w, disk_grid101)
    r = np.hypot(*grid_points(disk_grid101).T)
    core = w[r <= 0.8].mean()
    annulus = w[(r >= 1.2) & (r <= 1.8)].mean()
    elapsed = _deadline(6, started, 30.0)
    ok = jac >= 0.5 and core >= 10 * annulus
    _report(
        6,
        ok,
        f"Jaccard {jac:.3f} (tol 0.5), core/annulus mean W ratio "
        f"{core / annulus:.1f} (tol 10), {elapsed:.1f}s",
    )


def test_criterion_7_absorbing_regime(fig7_medium, disk_grid101):
    started = time.perf_counter()
    matrix = assemble_nearfield_matrix(fig7_medium, 20, 64)
    ns = nsharp(matrix.data, "absorbing")
    vals, _ = hermitian_eig(ns)
    lam_max, lam_min = vals.max(), vals.min()
    positive = lam_min >= -1e-10 * lam_max

    _, (w,) = fm_mlsm_fields(matrix, "absorbing", disk_grid101)
    jac = _jaccard_half_interior_median(w, disk_grid101)
    elapsed = _deadline(7, started, 30.0)
    ok = positive and jac >= 0.5
    _report(
        7,
        ok,
        f"lambda_min/lambda_max {lam_min / lam_max:.2e} (tol -1e-10), "
        f"Jaccard {jac:.3f} (tol 0.5), {elapsed:.1f}s",
    )


def test_criterion_8_fm_mlsm_equivalence(fig6_picard, fig6_matrix, disk_sensors64, disk_grid101):
    started = time.perf_counter()
    eps_seq = [10.0 ** (-j) for j in range(1, 9)]
    rng = np.random.default_rng(808)
    lam, _ = fig6_picard
    m_cut = int(np.count_nonzero(lam**2 > eps_seq[-1]))

    def sample(r_lo, r_hi, n):
        r = rng.uniform(r_lo, r_hi, n)
        th = rng.uniform(0.0, 2 * np.pi, n)
        return np.column_stack([r * np.cos(th), r * np.sin(th)])

    worst_change, min_growth, bracketing_ok = 0.0, np.inf, True
    for z in np.vstack([sample(0.05, 0.6, 20), sample(1.3, 1.8, 20)]):
        interior = np.hypot(*z) < 1.0
        phi = fundamental_solution_many(1.0, disk_sensors64.points, z[None, :])[:, 0]
        rep = fm_mlsm_equivalence_check(fig6_picard, CURVE_WEIGHT, phi, lam.size, eps_seq)
        # upper bound + monotone dynamics under the tikhonov filter
        if any("upper" in v or "monotone" in v for v in rep.violations):
            bracketing_ok = False
        # exact two-sided bracketing under the spectral cutoff filter
        rep_cut = fm_mlsm_equivalence_check(
            fig6_picard, CURVE_WEIGHT, phi, m_cut, eps_seq, f_kind="cutoff"
        )
        bracketing_ok = bracketing_ok and rep_cut.ok
        if interior:
            change = abs(rep.values[-1] - rep.values[-2]) / rep.values[-2]
            worst_change = max(worst_change, change)
        else:
            min_growth = min(min_growth, rep.values[-1] / rep.values[0])

    _, rows = fm_mlsm_fields(fig6_matrix, "nonabsorbing", disk_grid101)
    w, p = rows[0], rows[-1]
    rho = spearmanr(w, p).statistic

    elapsed = _deadline(8, started, 60.0)
    ok = worst_change <= 0.01 and min_growth >= 10.0 and bracketing_ok and rho >= 0.9
    _report(
        8,
        ok,
        f"interior last-decade change {worst_change:.2%} (tol 1%), exterior "
        f"growth {min_growth:.1f}x (tol 10x), Picard bracketing "
        f"{'clean' if bracketing_ok else 'violated'} (tol 1e-9), "
        f"Spearman(W,P) {rho:.3f} (tol 0.9), {elapsed:.1f}s",
    )


def test_criterion_9_bayesian_recovery(bayes_square, bayes_scatterer, unit_sensors32):
    started = time.perf_counter()
    readings = synthesize_readings([bayes_scatterer], unit_sensors32, 1.0, 0.15, seed=11)

    model = make_bayes_model(bayes_square, 1.0, iterations=20000, burn_in=5000, seed=3)
    post = run_mh(model, readings)
    mean_ok = abs(post.mean - 1.0) <= 0.3

    dhat = Rectangle(corner_min=(-0.265, -0.265), corner_max=(0.265, 0.265))
    model_hat = make_bayes_model(dhat, 1.0, iterations=20000, burn_in=5000, seed=3)
    post_hat = run_mh(model_hat, readings)
    cover_ok = abs(post_hat.mean - 1.0) <= 2.0 * post_hat.sd

    closed_mean, _ = conjugate_posterior(model, readings)
    collapsed = run_mh_collapsed(model, readings)
    b = 50
    ns = collapsed.samples.size
    batch_means = collapsed.samples[: ns // b * b].reshape(-1, b).mean(axis=1)
    mcse = batch_means.std(ddof=1) / np.sqrt(batch_means.size)
    conj_ok = abs(collapsed.mean - closed_mean) <= 3.0 * mcse

    elapsed = _deadline(9, started, 120.0)
    ok = mean_ok and cover_ok and conj_ok
    _report(
        9,
        ok,
        f"true-support mean {post.mean:.3f} sd {post.sd:.3f} (tol 1±0.3), "
        f"inflated-support mean {post_hat.mean:.3f} sd {post_hat.sd:.3f} "
        f"(covers 1 within 2sd: {cover_ok}), collapsed-vs-conjugate gap "
        f"{abs(collapsed.mean - closed_mean) / mcse:.2f} MCSE (tol 3), {elapsed:.1f}s",
    )


def _validate_pgm(path):
    tokens = path.read_text().split()
    if tokens[0] != "P2":
        return False
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    pixels = [int(t) for t in tokens[4:]]
    return len(pixels) == w * h and maxval == 255 and all(
        0 <= px <= maxval for px in pixels
    )


def test_criterion_10_determinism_and_formats(tmp_path):
    identical, pgm_ok = True, True
    for preset in sorted(PRESETS):
        dirs = [tmp_path / f"{preset}-{i}" for i in (0, 1)]
        for d in dirs:
            run(preset=preset, out_dir=d)
        for name in ("field.csv", "mlsm.csv", "chain.csv"):
            if (dirs[0] / name).exists():
                identical = identical and (dirs[0] / name).read_bytes() == (
                    dirs[1] / name
                ).read_bytes()
        for pgm in dirs[0].glob("*.pgm"):
            pgm_ok = pgm_ok and _validate_pgm(pgm)
    ok = identical and pgm_ok
    _report(
        10,
        ok,
        f"all presets rerun byte-identical CSVs: {identical}, "
        f"PGM P2 grammar valid: {pgm_ok}",
    )
