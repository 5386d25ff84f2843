"""Exact disk-series tests: sigma_m against an independent boundary-system
solve, circulant structure, and the closed-form Fourier symbol."""

import cmath

import numpy as np
import pytest

from nearscat.disk import (
    SENSOR_RADIUS,
    DiskMedium,
    assemble_nearfield_matrix,
    kernel_weights,
    series_coefficients,
)
from nearscat.errors import DomainError, NearscatError
from nearscat.geometry import make_sensor_array

from reference import (
    bessel_j,
    bessel_j_prime,
    circulant_symbol,
    disk_scattered_field,
    hankel1,
    hankel1_prime,
    sigma_m,
)


def sigma_oracle(medium, m):
    """Independent 2x2 boundary-system solve.

    Unknowns (alpha, beta) from the transmission conditions at the disk
    boundary with the conjugated point source as incident field; sigma_m is
    alpha divided by its (i/4) H^(2)_m(2k) e^{-im y} prefactor.
    """
    a, n, k = complex(medium.a), complex(medium.n), float(medium.k)
    q = k * cmath.sqrt(n / a)
    pref = 0.25j * np.conj(hankel1(m, 2.0 * k))  # source angle set to 0
    lhs = np.array(
        [
            [hankel1(m, k), -bessel_j(m, q)],
            [hankel1_prime(m, k), -cmath.sqrt(n * a) * bessel_j_prime(m, q)],
        ]
    )
    rhs = pref * np.array([bessel_j(m, k), bessel_j_prime(m, k)])
    alpha, _ = np.linalg.solve(lhs, rhs)
    return alpha / pref


def test_sigma_zero_contrast_exactly_zero():
    medium = DiskMedium(a=1.0, n=1.0, k=1.0)
    for m in range(0, 21):
        assert sigma_m(medium, m) == 0.0


def test_sigma_against_boundary_solve_oracle(fig6_medium, fig7_medium):
    for medium in (fig6_medium, fig7_medium, DiskMedium(a=2.0 + 0.0j, n=3.0, k=1.5)):
        for m in range(0, 12):
            ref = sigma_oracle(medium, m)
            val = sigma_m(medium, m)
            assert abs(val - ref) <= 1e-12 * max(abs(ref), 1e-30)


def test_sigma_deep_evanescent_decay(fig6_medium):
    assert abs(sigma_m(fig6_medium, 20)) <= 1e-15


def test_sigma_validation(fig6_medium):
    with pytest.raises(DomainError):
        sigma_m(fig6_medium, -1)
    with pytest.raises(DomainError):
        sigma_m(DiskMedium(a=0.5, n=5.0, k=0.0), 0)


def test_resonance_detection():
    # n chosen as a numerically exact root of the m = 0 series denominator
    # at a = 1, k = 1 (located by high-precision root finding)
    n_res = 1.2522593555094796 - 1.6250693654358740j
    medium = DiskMedium(a=1.0, n=n_res, k=1.0)
    with pytest.raises(NearscatError, match="denominator vanished at order 0"):
        sigma_m(medium, 0)


def test_series_coefficients_shape(fig6_medium):
    sig = series_coefficients(fig6_medium, 20)
    assert sig.shape == (21,)
    assert sig[0] == sigma_m(fig6_medium, 0)


def test_scattered_field_zero_contrast():
    medium = DiskMedium(a=1.0, n=1.0, k=1.0)
    assert disk_scattered_field(medium, 20, 0.3, 1.1) == 0.0


def test_scattered_field_depends_on_angle_difference(fig6_medium):
    v1 = disk_scattered_field(fig6_medium, 20, 0.9, 0.2)
    v2 = disk_scattered_field(fig6_medium, 20, 1.6, 0.9)
    assert v1 == pytest.approx(v2, rel=1e-13)


def test_scattered_field_truncation_refinement(fig6_medium):
    v20 = disk_scattered_field(fig6_medium, 20, 0.4, 2.0)
    v30 = disk_scattered_field(fig6_medium, 30, 0.4, 2.0)
    assert abs(v20 - v30) <= 1e-12


def test_matrix_is_circulant(fig6_medium):
    m = assemble_nearfield_matrix(fig6_medium, 20, 64).data
    rolled = np.roll(np.roll(m, 1, axis=0), 1, axis=1)
    assert np.array_equal(m, rolled)


def test_matrix_entries_are_weighted_fields(fig6_medium):
    q = 64
    m = assemble_nearfield_matrix(fig6_medium, 20, q).data
    angles = 2.0 * np.pi * np.arange(q) / q
    for i, j in [(0, 0), (3, 17), (50, 2)]:
        expect = (2.0 * np.pi / q) * disk_scattered_field(
            fig6_medium, 20, angles[i], angles[j]
        )
        assert m[i, j] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("q", [48, 64])
def test_matrix_record_carries_the_circle_it_was_sampled_on(fig6_medium, q):
    record = assemble_nearfield_matrix(fig6_medium, 20, q)
    sensors = make_sensor_array(q, SENSOR_RADIUS)
    assert (record.sensors.count, record.sensors.radius) == (sensors.count, sensors.radius)
    assert np.array_equal(record.sensors.points, sensors.points)
    assert record.data.shape == (q, q)
    assert record.wavenumber == fig6_medium.k
    assert record.noise_delta == 0.0


def test_quad_points_validation(fig6_medium):
    with pytest.raises(DomainError):
        assemble_nearfield_matrix(fig6_medium, 20, 40)


def test_circulant_eigenvalues_match_symbol(fig6_medium, fig7_medium):
    for medium in (fig6_medium, fig7_medium):
        m = assemble_nearfield_matrix(medium, 20, 64).data
        # DFT diagonalization oracle: eigenvalues of a circulant are the DFT
        # of its first column
        dft = np.fft.fft(m[:, 0])
        symbol = circulant_symbol(medium, 20, 64)
        order = np.lexsort((dft.imag, dft.real))
        order_s = np.lexsort((symbol.imag, symbol.real))
        scale = np.max(np.abs(symbol))
        assert np.max(np.abs(dft[order] - symbol[order_s])) <= 1e-10 * scale


def test_symbol_multiplicity_two(fig6_medium):
    symbol = circulant_symbol(fig6_medium, 20, 64)
    w = kernel_weights(fig6_medium, 20)
    for m in range(1, 21):
        expect = 2.0 * np.pi * 0.25j * w[m]
        assert symbol[m] == pytest.approx(expect)
        assert symbol[64 - m] == pytest.approx(expect)
    assert np.all(symbol[21:44] == 0.0)

