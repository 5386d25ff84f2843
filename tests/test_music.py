"""MUSIC tests: range characterization on synthetic rank models and the
two-scatterer localization configuration."""

import numpy as np
import pytest

from nearscat.born import MultistaticMatrix, add_noise, assemble_multistatic
from nearscat.cli import PRESETS, validate_config
from nearscat.errors import DomainError
from nearscat.geometry import Ellipse, ScattererSpec, constant_index, make_grid
from nearscat.music import build_music, music_field
from nearscat.sampling import SENTINEL_CAP
from nearscat.specfun import fundamental_solution_many

from reference import (
    argmax_point,
    fundamental_solution,
    grid_points,
    indicators_per_point,
    local_maxima,
)


def music_at(model, sensors, k, points):
    """MUSIC indicator at arbitrary points: the per-point oracle of the
    spectral kernel, unit weights on the noise space."""
    phis = fundamental_solution_many(k, sensors.points, np.atleast_2d(points))
    noise_h = model.vectors[:, model.rank :].conj().T
    return indicators_per_point(noise_h, np.ones((1, len(noise_h))), phis)[0]


def synthetic_rank_matrix(sensors, k, centers, strengths):
    """Noiseless point-scatterer model N = U S U^T with U of steering vectors."""
    u = fundamental_solution_many(k, sensors.points, np.asarray(centers, dtype=float))
    s = np.diag(np.asarray(strengths, dtype=complex))
    return MultistaticMatrix(
        data=u @ s @ u.T, sensors=sensors, wavenumber=float(k)
    )


def test_zero_matrix_rank_zero(unit_sensors32):
    m = MultistaticMatrix(
        data=np.zeros((32, 32), dtype=complex), sensors=unit_sensors32, wavenumber=1.0
    )
    model = build_music(m)
    assert model.rank == 0
    # empty signal subspace: every steering vector sits in the null space
    assert music_at(model, unit_sensors32, 1.0, (0.1, 0.2))[0] < SENTINEL_CAP


@pytest.mark.parametrize("nx, ny", [(21, 21), (21, 17)])  # 8 and 4 mirror maps
def test_empty_noise_space_gives_the_sentinel_everywhere(unit_sensors32, nx, ny):
    centers = [(-0.5, 0.5)]
    m = synthetic_rank_matrix(unit_sensors32, 1.0, centers, [1.0])
    model = build_music(m, rank_override=32)
    fld = music_field(model, unit_sensors32, 1.0, make_grid((-0.9, 0.9, -0.9, 0.9), nx, ny))
    assert fld.values.shape == (nx * ny,)
    assert (fld.values == SENTINEL_CAP).all()


def test_synthetic_rank_three_detected(unit_sensors32):
    centers = [(-0.5, 0.5), (0.5, -0.5), (0.0, 0.3)]
    m = synthetic_rank_matrix(unit_sensors32, 1.0, centers, [1.0, 0.7, 0.4])
    model = build_music(m)
    assert model.rank == 3


def test_weak_scatterer_below_sqrt_eps_gap_detected(unit_sensors32):
    # sigma_2 / sigma_1 = 1e-6 sits below sqrt(eps): an eigensolve of N N*
    # squares it to 1e-12 and loses the weak point in rounding, the SVD of N
    # keeps it
    centers = [(-0.5, 0.5), (0.4, -0.3)]
    m = synthetic_rank_matrix(unit_sensors32, 1.0, centers, [1.0, 1e-6])
    model = build_music(m)
    assert model.rank == 2
    fld = music_field(model, unit_sensors32, 1.0, make_grid((-0.9, 0.9, -0.9, 0.9), 37, 37))
    pts, _ = local_maxima(fld, top=2)
    for truth in centers:
        assert np.abs(pts - np.asarray(truth)).max(axis=1).min() <= 1e-12


def test_rank_override_and_validation(unit_sensors32):
    m = synthetic_rank_matrix(unit_sensors32, 1.0, [(-0.5, 0.5)], [1.0])
    assert build_music(m, rank_override=5).rank == 5
    with pytest.raises(DomainError):
        build_music(m, rank_override=33)


def test_range_test_blows_up_at_centers(unit_sensors32):
    centers = [(-0.5, 0.5), (0.5, -0.5)]
    m = synthetic_rank_matrix(unit_sensors32, 1.0, centers, [1.0, 1.0])
    model = build_music(m)
    rng = np.random.default_rng(20)
    background = music_at(model, unit_sensors32, 1.0, rng.uniform(-0.8, 0.8, (200, 2)))
    at_centers = music_at(model, unit_sensors32, 1.0, centers).min()
    assert at_centers >= 1e6 * np.median(background)


def test_projector_identity(figure1_scatterers, unit_sensors32):
    m = assemble_multistatic(figure1_scatterers, unit_sensors32, 1.0, 16)
    model = build_music(m)
    zs = [(0.31, -0.12), (0.0, 0.0), (0.7, 0.2), (-0.3, -0.6)]
    # explicit noise-space projector I - U_s U_s^H from the signal subspace
    u_s = model.vectors[:, : model.rank]
    projector = np.eye(32) - u_s @ u_s.conj().T
    values = music_at(model, unit_sensors32, 1.0, zs)
    for z, value in zip(zs, values):
        phi = np.array([fundamental_solution(1.0, x, z) for x in unit_sensors32.points])
        brute = np.linalg.norm(projector @ phi) ** 2
        assert 1.0 / value == pytest.approx(brute, rel=1e-10)


def test_figure1_localization(figure1_scatterers, unit_sensors32, grid101):
    m = assemble_multistatic(figure1_scatterers, unit_sensors32, 1.0, 16)
    model = build_music(m)
    assert model.rank == 2
    fld = music_field(model, unit_sensors32, 1.0, grid101)
    assert np.all(fld.values >= 0.0)
    pts, _ = local_maxima(fld, top=2)
    cell = 1.8 / 100
    for truth in [(-0.5, 0.5), (0.5, -0.5)]:
        err = np.abs(pts - np.asarray(truth)).max(axis=1).min()
        assert err <= cell + 1e-12


def test_figure1_noise_robustness(figure1_scatterers, unit_sensors32, grid101):
    m = assemble_multistatic(figure1_scatterers, unit_sensors32, 1.0, 16)
    clean = music_field(build_music(m), unit_sensors32, 1.0, grid101)
    noisy = music_field(build_music(add_noise(m, 0.05, 7)), unit_sensors32, 1.0, grid101)
    p_clean, _ = local_maxima(clean, top=2)
    p_noisy, _ = local_maxima(noisy, top=2)
    cell = 1.8 / 100
    for p in p_noisy:
        err = np.abs(p_clean - p).max(axis=1).min()
        assert err <= 2 * cell + 1e-12


def test_figure1_noise_rank_scans_above_the_noise_level(figure1_scatterers, unit_sensors32):
    # at delta = 0.2, seed 9 the tail gap sigma_31 / sigma_32 = 32.0 beats
    # the signal gap sigma_2 / sigma_3 = 30.6; below delta * sigma_1 signal
    # cannot be told from noise, so the scan stops there
    m = assemble_multistatic(figure1_scatterers, unit_sensors32, 1.0, 16)
    assert build_music(add_noise(m, 0.2, 9)).rank == 2
    assert build_music(add_noise(m, 0.2, 3)).rank == 2


@pytest.mark.parametrize("preset", ["figure1", "figure2", "figure3"])
def test_preset_grids_match_direct_kernel(preset):
    # each grid point's value agrees with the kernel on its own steering
    # column, whichever mirror image of the fundamental domain it lies in
    s = validate_config(PRESETS[preset])
    matrix = assemble_multistatic(s["scatterers"], s["sensors"], s["k"], s["rule_order"])
    model = build_music(matrix)
    fld = music_field(model, s["sensors"], s["k"], s["grid"])
    noise = model.vectors[:, model.rank :]
    phis = fundamental_solution_many(s["k"], s["sensors"].points, grid_points(s["grid"]))
    direct = 1.0 / np.sum(np.abs(noise.conj().T @ phis) ** 2, axis=0)
    np.testing.assert_allclose(fld.values, direct, rtol=1e-10, atol=0.0)


def test_figure1_discrimination(figure1_scatterers, unit_sensors32, grid101):
    m = assemble_multistatic(figure1_scatterers, unit_sensors32, 1.0, 16)
    fld = music_field(build_music(m), unit_sensors32, 1.0, grid101)
    centers = np.array([[-0.5, 0.5], [0.5, -0.5]])
    points = grid_points(grid101)
    d = np.minimum(
        np.abs(points - centers[0]).max(axis=1),
        np.abs(points - centers[1]).max(axis=1),
    )
    far = fld.values[d > 0.3]
    at_centers = min(
        fld.values[np.argmin(np.linalg.norm(points - c, axis=1))]
        for c in centers
    )
    assert at_centers >= 100 * np.percentile(far, 95)


def test_figure2_argmax(unit_sensors32, grid101):
    spec = ScattererSpec(
        Ellipse(center=(0.5, -0.5), a=0.2, b=0.1), constant_index(2.0 + 1.0j)
    )
    m = assemble_multistatic([spec], unit_sensors32, 1.0, 16)
    fld = music_field(build_music(m), unit_sensors32, 1.0, grid101)
    z = argmax_point(fld)
    cell = 1.8 / 100
    assert np.abs(z - np.array([0.5, -0.5])).max() <= cell + 1e-12
