"""Born-approximation near-field data for small isotropic scatterers.

Assembles the multi-static response matrix over coincident source/receiver
arrays and injects spectrally normalized multiplicative noise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import SensorArray, gauss_quadrature
from .specfun import fundamental_solution_many

DEFAULT_RULE_ORDER = 16


@dataclass(frozen=True)
class MultistaticMatrix:
    data: np.ndarray  # (N, N) complex
    sensors: SensorArray
    wavenumber: float
    noise_delta: float = 0.0


def _gather_nodes(scatterers, rule_order):
    """Stack quadrature nodes and contrast-weighted weights of all scatterers."""
    nodes = []
    cw = []  # (n(z_p) - 1) * omega_p
    for spec in scatterers:
        rule = gauss_quadrature(spec.shape, rule_order)
        nvals = np.asarray(
            spec.index_fn(rule.nodes[:, 0], rule.nodes[:, 1]), dtype=complex
        )
        nodes.append(rule.nodes)
        cw.append((nvals - 1.0) * rule.weights)
    return np.vstack(nodes), np.concatenate(cw)


def check_sensors_outside(scatterers, sensors):
    """Raise DomainError if a sensor lies inside a scatterer: the data are
    the scattered field at sensors outside every scatterer."""
    for i, spec in enumerate(scatterers):
        if np.any(spec.shape.contains(sensors.points)):
            raise DomainError(f"a sensor lies inside scatterer {i}")


def assemble_multistatic(scatterers, sensors, k, rule_order=DEFAULT_RULE_ORDER):
    """Matrix of Born fields over all source/receiver pairs of the array."""
    check_sensors_outside(scatterers, sensors)
    nodes, cw = _gather_nodes(scatterers, rule_order)
    a = fundamental_solution_many(k, sensors.points, nodes)  # (N, P)
    data = k**2 * ((a * cw[None, :]) @ a.T)
    return MultistaticMatrix(data=data, sensors=sensors, wavenumber=float(k))


def add_noise(matrix, delta, seed):
    """Entry-wise multiplicative noise u(1 + delta*E) with ||E||_2 = 1.

    E has i.i.d. complex standard-normal entries rescaled by its spectral
    norm; deterministic for a given seed.
    """
    if delta < 0.0:
        raise DomainError(f"noise level must be nonnegative, got {delta}")
    if delta == 0.0:
        return matrix
    rng = np.random.default_rng(seed)
    n = matrix.data.shape[0]
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e /= np.linalg.norm(e, 2)
    return MultistaticMatrix(
        data=matrix.data * (1.0 + delta * e),
        sensors=matrix.sensors,
        wavenumber=matrix.wavenumber,
        noise_delta=float(delta),
    )
