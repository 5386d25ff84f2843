"""Born forward-model tests: quadrature oracles, reciprocity, noise contract."""

import numpy as np
import pytest

from nearscat.born import add_noise, assemble_multistatic
from nearscat.errors import DomainError
from nearscat.geometry import (
    Disk,
    ScattererSpec,
    constant_index,
    gauss_quadrature,
    make_sensor_array,
)
from nearscat.linalg import hermitian_eig

from reference import born_scattered_field, fundamental_solution


def test_zero_contrast_is_exact_zero(unit_sensors32):
    spec = ScattererSpec(Disk(center=(-0.5, 0.5), radius=0.2), constant_index(1.0))
    val = born_scattered_field([spec], 16, 1.0, (1.0, 0.0), (0.0, 1.0))
    assert val == 0.0
    m = assemble_multistatic([spec], unit_sensors32, 1.0, 16)
    assert np.all(m.data == 0.0)


def test_field_symmetry():
    spec = ScattererSpec(Disk(center=(-0.5, 0.5), radius=0.2), constant_index(5.0))
    x, y = (1.0, 0.0), (0.0, 1.0)
    a = born_scattered_field([spec], 16, 1.0, x, y)
    b = born_scattered_field([spec], 16, 1.0, y, x)
    assert a == pytest.approx(b, rel=1e-13)


def test_against_brute_force_quadrature_sum():
    spec = ScattererSpec(Disk(center=(-0.5, 0.5), radius=0.2), constant_index(5.0))
    k, x, y = 1.0, np.array([1.0, 0.0]), np.array([0.0, 1.0])
    rule = gauss_quadrature(spec.shape, 8)
    ref = 0.0 + 0.0j
    for (zx, zy), w in zip(rule.nodes, rule.weights):
        ref += (
            k**2
            * w
            * (5.0 - 1.0)
            * fundamental_solution(k, x, (zx, zy))
            * fundamental_solution(k, (zx, zy), y)
        )
    val = born_scattered_field([spec], 8, k, x, y)
    assert val == pytest.approx(ref, rel=1e-13)


def test_quadrature_refinement():
    spec = ScattererSpec(Disk(center=(-0.5, 0.5), radius=0.2), constant_index(5.0))
    a = born_scattered_field([spec], 16, 1.0, (1.0, 0.0), (0.0, 1.0))
    b = born_scattered_field([spec], 32, 1.0, (1.0, 0.0), (0.0, 1.0))
    assert abs(a - b) <= 1e-9 * abs(b)


def test_point_inside_scatterer_rejected():
    spec = ScattererSpec(Disk(center=(-0.5, 0.5), radius=0.2), constant_index(5.0))
    with pytest.raises(DomainError):
        born_scattered_field([spec], 16, 1.0, (-0.5, 0.5), (0.0, 1.0))


def test_multistatic_reciprocity(figure1_scatterers, unit_sensors32):
    m = assemble_multistatic(figure1_scatterers, unit_sensors32, 1.0, 16)
    assert np.linalg.norm(m.data - m.data.T) <= 1e-12 * np.linalg.norm(m.data)


def test_linearity_in_contrast(unit_sensors32):
    shape = Disk(center=(-0.5, 0.5), radius=0.2)
    m1 = assemble_multistatic(
        [ScattererSpec(shape, constant_index(2.0))], unit_sensors32, 1.0, 16
    )
    m2 = assemble_multistatic(
        [ScattererSpec(shape, constant_index(3.0))], unit_sensors32, 1.0, 16
    )
    assert np.allclose(m2.data, 2.0 * m1.data, rtol=1e-12)


def test_pointlike_scatterer_rank_one(unit_sensors32):
    spec = ScattererSpec(Disk(center=(-0.5, 0.5), radius=0.01), constant_index(5.0))
    m = assemble_multistatic([spec], unit_sensors32, 1.0, 16)
    vals, _ = hermitian_eig(m.data @ m.data.conj().T)
    assert vals[1] <= 1e-4 * vals[0]


def test_sensor_inside_scatterer_rejected():
    sensors = make_sensor_array(8, 0.1)
    spec = ScattererSpec(Disk(center=(0.0, 0.0), radius=0.5), constant_index(2.0))
    with pytest.raises(DomainError):
        assemble_multistatic([spec], sensors, 1.0, 8)


# ---------------------------------------------------------------------------
# noise


def test_noise_zero_is_identity(figure1_scatterers, unit_sensors32):
    m = assemble_multistatic(figure1_scatterers, unit_sensors32, 1.0, 16)
    assert add_noise(m, 0.0, 3) is m


def test_noise_spectral_norm_and_determinism(figure1_scatterers, unit_sensors32):
    m = assemble_multistatic(figure1_scatterers, unit_sensors32, 1.0, 16)
    n1 = add_noise(m, 0.02, 7)
    n2 = add_noise(m, 0.02, 7)
    n3 = add_noise(m, 0.02, 8)
    assert np.array_equal(n1.data, n2.data)
    assert not np.array_equal(n1.data, n3.data)
    e = (n1.data / m.data - 1.0) / 0.02
    assert np.linalg.norm(e, 2) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(e.imag) > 0  # complex perturbation


def test_noise_negative_delta_rejected(figure1_scatterers, unit_sensors32):
    m = assemble_multistatic(figure1_scatterers, unit_sensors32, 1.0, 16)
    with pytest.raises(DomainError):
        add_noise(m, -0.1, 0)
