"""Shared fixtures: the standard experiment configurations used across tests."""

import numpy as np
import pytest

from nearscat.disk import SENSOR_RADIUS, DiskMedium, assemble_nearfield_matrix
from nearscat.geometry import (
    Disk,
    Ellipse,
    Rectangle,
    ScattererSpec,
    constant_index,
    make_grid,
    make_sensor_array,
)
from nearscat.linalg import nsharp
from nearscat.sampling import fm_mlsm_fields, make_picard_data


@pytest.fixture(scope="session")
def figure1_scatterers():
    return [
        ScattererSpec(Disk(center=(-0.5, 0.5), radius=0.2), constant_index(5.0)),
        ScattererSpec(Ellipse(center=(0.5, -0.5), a=0.2, b=0.1), constant_index(5.0)),
    ]


@pytest.fixture(scope="session")
def unit_sensors32():
    return make_sensor_array(32, 1.0)


@pytest.fixture(scope="session")
def grid101():
    return make_grid((-0.9, 0.9, -0.9, 0.9), 101, 101)


@pytest.fixture(scope="session")
def disk_grid101():
    return make_grid((-1.8, 1.8, -1.8, 1.8), 101, 101)


@pytest.fixture(scope="session")
def disk_sensors64():
    return make_sensor_array(64, SENSOR_RADIUS)


@pytest.fixture(scope="session")
def fig6_medium():
    return DiskMedium(a=0.5 + 0.0j, n=5.0 + 0.0j, k=1.0)


@pytest.fixture(scope="session")
def fig7_medium():
    return DiskMedium(a=3.0 - 1.0j, n=0.25 + 2.0j, k=1.0)


# the arc-length weight 2 pi R / Q of the disk figures' 64 sensors
CURVE_WEIGHT = 2.0 * np.pi * SENSOR_RADIUS / 64


@pytest.fixture(scope="session")
def fig6_matrix(fig6_medium):
    return assemble_nearfield_matrix(fig6_medium, 20, 64)


@pytest.fixture(scope="session")
def fig6_picard(fig6_matrix):
    """(eigenvalues, eigenvectors) of the figure6 N_sharp."""
    return make_picard_data(nsharp(fig6_matrix.data, "nonabsorbing"))


@pytest.fixture(scope="session")
def fig6_fields(fig6_matrix, disk_grid101):
    """The figure6 FM and MLSM values (W, P) over disk_grid101 at k = 1."""
    _, rows = fm_mlsm_fields(fig6_matrix, "nonabsorbing", disk_grid101)
    return rows[0], rows[-1]


@pytest.fixture(scope="session")
def fig7_matrix(fig7_medium):
    return assemble_nearfield_matrix(fig7_medium, 20, 64)


@pytest.fixture(scope="session")
def fig7_picard(fig7_matrix):
    """(eigenvalues, eigenvectors) of the figure7 N_sharp."""
    return make_picard_data(nsharp(fig7_matrix.data, "absorbing"))


@pytest.fixture(scope="session")
def bayes_square():
    return Rectangle(corner_min=(-0.2, -0.2), corner_max=(0.2, 0.2))


@pytest.fixture(scope="session")
def bayes_scatterer(bayes_square):
    return ScattererSpec(bayes_square, lambda x1, x2: np.asarray(x1) ** 2 + 2.0)
