"""Special-function tests against extended-precision mpmath oracles and the
classical Bessel identities."""

import importlib.util
from pathlib import Path

import mpmath
import numpy as np
import pytest

from nearscat import specfun
from nearscat.errors import DomainError
from nearscat.geometry import Rectangle, gauss_quadrature, make_sensor_array
from nearscat.specfun import (
    MAX_ABS_ARG,
    MAX_ORDER,
    SEAM,
    bessel_j_orders,
    bessel_y_orders,
    fundamental_solution_many,
)

from reference import (
    bessel_j,
    bessel_j_prime,
    bessel_y,
    fundamental_solution,
    hankel1,
    hankel1_prime,
)

mpmath.mp.dps = 30


def oracle_j(order, z):
    """Extended-precision J_m via the ascending power series."""
    v = mpmath.besselj(order, mpmath.mpc(z))
    return complex(v)


def oracle_y(order, x):
    return float(mpmath.bessely(order, mpmath.mpf(x)))


# ---------------------------------------------------------------------------
# bessel_j


def test_j0_at_zero():
    assert bessel_j(0, 0.0) == 1.0


def test_jm_at_zero():
    for m in range(1, 6):
        assert bessel_j(m, 0.0) == 0.0


def test_j_complex_against_series_oracle():
    val = bessel_j(3, 2.5 + 0.5j)
    ref = oracle_j(3, 2.5 + 0.5j)
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_j_real_argument_is_real_float():
    v = bessel_j(2, 1.7)
    assert isinstance(v, float)


def test_j_conjugation_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
        m = int(rng.integers(0, 10))
        a = bessel_j(m, np.conj(z))
        b = np.conj(bessel_j(m, z))
        assert abs(a - b) <= 1e-12 * max(abs(b), 1e-30)


def test_j_three_term_recurrence():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = int(rng.integers(1, 31))
        z = complex(rng.uniform(0.5, 30), rng.uniform(0, 3))
        lhs = bessel_j(m - 1, z) + bessel_j(m + 1, z)
        rhs = (2.0 * m / z) * bessel_j(m, z)
        scale = max(abs(rhs), abs(lhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_j_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, 800.0)
    with pytest.raises(DomainError):
        bessel_j(201, 1.0)


# ---------------------------------------------------------------------------
# bessel_y / hankel1


def test_y0_log_singularity_trend():
    assert bessel_y(0, 0.001) < -4.0


def test_wronskian_identity():
    # J_{m+1} Y_m - J_m Y_{m+1} = 2/(pi x)
    for m in range(0, 31):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            lhs = bessel_j(m + 1, x) * bessel_y(m, x) - bessel_j(m, x) * bessel_y(
                m + 1, x
            )
            rhs = 2.0 / (np.pi * x)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_y_against_oracle():
    for m, x in [(0, 1.0), (2, 5.0), (7, 3.3), (15, 12.0)]:
        assert abs(bessel_y(m, x) - oracle_y(m, x)) <= 1e-11 * max(
            abs(oracle_y(m, x)), 1.0
        )


def test_y_orders_overflow_to_minus_inf():
    ys = bessel_y_orders(MAX_ORDER, 0.5)
    assert np.isfinite(ys[:100]).all()
    assert ys[-1] == -np.inf and not np.isnan(ys).any()


def test_y_domain_error():
    with pytest.raises(DomainError):
        bessel_y(0, 0.0)
    with pytest.raises(DomainError):
        bessel_y(0, -1.0)


@pytest.mark.parametrize("fn", [bessel_y, hankel1, hankel1_prime])
def test_scalar_argument_guard(fn):
    # the same MAX_ABS_ARG envelope as bessel_j and Φ
    assert np.isfinite(fn(0, 699.0))
    with pytest.raises(DomainError):
        fn(0, 1e9)


def test_hankel1_composition():
    v = hankel1(0, 1.0)
    assert v == pytest.approx(bessel_j(0, 1.0) + 1j * bessel_y(0, 1.0), abs=1e-15)


def test_hankel1_conjugate_is_second_kind():
    for m in (0, 1, 4):
        h2 = complex(mpmath.hankel2(m, 2.0))
        assert abs(np.conj(hankel1(m, 2.0)) - h2) <= 1e-12 * abs(h2)


def test_hankel1_high_order_grows():
    assert abs(hankel1(5, 2.0)) > abs(hankel1(0, 2.0))


# ---------------------------------------------------------------------------
# derivatives


def test_jprime_at_zero():
    assert bessel_j_prime(0, 0.0) == 0.0
    assert bessel_j_prime(1, 0.0) == 0.5


def test_jprime_finite_difference():
    h = 1e-5
    fd = (bessel_j(2, 1.3 + h) - bessel_j(2, 1.3 - h)) / (2 * h)
    assert abs(bessel_j_prime(2, 1.3) - fd) <= 1e-8


def test_hprime_recurrence_definition():
    assert hankel1_prime(0, 1.0) == -hankel1(1, 1.0)
    expect = (hankel1(2, 2.0) - hankel1(4, 2.0)) / 2.0
    assert hankel1_prime(3, 2.0) == pytest.approx(expect, abs=1e-15)


def test_hprime_finite_difference():
    h = 1e-5
    fd = (hankel1(1, 0.7 + h) - hankel1(1, 0.7 - h)) / (2 * h)
    assert abs(hankel1_prime(1, 0.7) - fd) <= 1e-8


# ---------------------------------------------------------------------------
# fundamental solution


def test_phi_symmetry_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        y = rng.uniform(-2, 2, 2)
        if np.allclose(x, y):
            continue
        assert fundamental_solution(1.0, x, y) == fundamental_solution(1.0, y, x)
    # the vectorised Φ is transpose-symmetric bit for bit: bayes.design_matrix
    # takes Φ(z, x) from its one Φ(x, z) evaluation
    sensors = make_sensor_array(32, 1.0).points
    sets = [(rng.uniform(-2, 2, (40, 2)), rng.uniform(-2, 2, (25, 2)), k) for k in (0.5, 1.0, 3.7)]
    for half in (0.2, 0.265):  # figure4 and figure5 supports at rule order 3
        square = Rectangle(corner_min=(-half, -half), corner_max=(half, half))
        sets.append((sensors, gauss_quadrature(square, 3).nodes, 1.0))
    for a, b, k in sets:
        ab = np.ascontiguousarray(fundamental_solution_many(k, a, b))
        ba_t = np.ascontiguousarray(fundamental_solution_many(k, b, a).T)
        assert np.array_equal(ab.view(np.int64), ba_t.view(np.int64))


def test_phi_unit_distance_value():
    v = fundamental_solution(1.0, (0.0, 0.0), (1.0, 0.0))
    assert v == pytest.approx(0.25j * (bessel_j(0, 1.0) + 1j * bessel_y(0, 1.0)))


def test_phi_addition_theorem():
    # For |y| > |x|: Phi(x, y) = (i/4) sum_m H_m(k|y|) J_m(k|x|) e^{im(tx - ty)}
    k = 1.0
    x = np.array([0.5 * np.cos(0.7), 0.5 * np.sin(0.7)])
    y = np.array([2.0 * np.cos(-1.1), 2.0 * np.sin(-1.1)])
    tx, ty = 0.7, -1.1
    total = hankel1(0, k * 2.0) * bessel_j(0, k * 0.5)
    for m in range(1, 41):
        term = hankel1(m, k * 2.0) * bessel_j(m, k * 0.5)
        total += term * (np.exp(1j * m * (tx - ty)) + np.exp(-1j * m * (tx - ty)))
    ref = 0.25j * total
    val = fundamental_solution(k, x, y)
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_phi_scalar_oracle_against_mpmath_hankel():
    # the scalar reference Φ that the other modules' tests use as their oracle
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        y = rng.uniform(-2, 2, 2)
        k = rng.uniform(0.5, 3.0)
        kr = k * float(np.hypot(*(x - y)))
        ref = complex(0.25j * mpmath.hankel1(0, mpmath.mpf(kr)))
        assert abs(fundamental_solution(k, x, y) - ref) <= 1e-14 * abs(ref)


def test_phi_singularity_and_bad_k():
    with pytest.raises(DomainError):
        fundamental_solution(1.0, (0.3, 0.3), (0.3, 0.3))
    with pytest.raises(DomainError):
        fundamental_solution_many(1.0, [(0.3, 0.3)], [(0.3, 0.3)])
    with pytest.raises(DomainError):
        fundamental_solution(0.0, (0.0, 0.0), (1.0, 0.0))
    with pytest.raises(DomainError):
        fundamental_solution_many(0.0, [(0.0, 0.0)], [(1.0, 0.0)])


def test_phi_many_matches_scalar():
    rng = np.random.default_rng(4)
    px = rng.uniform(-2, 2, (4, 2))
    py = rng.uniform(3, 5, (3, 2))
    mat = fundamental_solution_many(1.3, px, py)
    for i in range(4):
        for j in range(3):
            assert mat[i, j] == pytest.approx(
                fundamental_solution(1.3, px[i], py[j]), rel=1e-14
            )


@pytest.mark.parametrize(
    "lo, hi, rel",
    [(1e-3, 100.0, 1e-14), (100.0, MAX_ABS_ARG, 1e-13)],
)
def test_phi_many_against_mpmath_hankel(lo, hi, rel):
    # Points on a ray from the origin at k = 1, so k|x - y| is exactly the
    # abscissa and the check measures Φ itself, not the rounding of |x - y|.
    # Cephes' asymptotic phase costs about a digit near kr = MAX_ABS_ARG.
    rng = np.random.default_rng(6)
    r = np.exp(rng.uniform(np.log(lo), np.log(hi), 200))
    r[-1] = hi
    ys = np.column_stack([r, np.zeros_like(r)])
    phi = fundamental_solution_many(1.0, np.zeros((1, 2)), ys)[0]
    ref = np.array([complex(0.25j * mpmath.hankel1(0, mpmath.mpf(x))) for x in r])
    assert np.max(np.abs(phi - ref) / np.abs(ref)) <= rel


def test_phi_many_domain_errors():
    origin = np.zeros((1, 2))
    edge = np.array([[MAX_ABS_ARG / 2.0, 0.0]])
    assert np.isfinite(fundamental_solution_many(2.0, origin, edge)).all()
    with pytest.raises(DomainError):
        fundamental_solution_many(2.0 * (1.0 + 1e-15), origin, edge)
    with pytest.raises(DomainError):
        fundamental_solution_many(1e9, origin, np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        fundamental_solution_many(1.0, origin, np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):  # the squared separation underflows to 0
        fundamental_solution_many(1.0, origin, np.array([[1e-200, 0.0]]))
    with pytest.raises(DomainError):
        fundamental_solution_many(0.0, origin, edge)


# ---------------------------------------------------------------------------
# the NumPy kernels: generated coefficients, the branch seam, Miller's J_m


def test_generator_reproduces_committed_coefficients():
    path = Path(__file__).resolve().parents[1] / "tools" / "gen_specfun_coeffs.py"
    spec = importlib.util.spec_from_file_location("gen_specfun_coeffs", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.SEAM == SEAM
    assert gen.source() in Path(specfun.__file__).read_text()


_SEAM_POINTS = [SEAM * f for f in (0.5, 0.9, 0.99, 0.999999)] + [
    np.nextafter(SEAM, 0.0), SEAM, np.nextafter(SEAM, np.inf)
] + [SEAM * f for f in (1.000001, 1.01, 1.1, 2.0)]


def test_phi_across_the_seam_against_mpmath():
    # one block holding both sides of the seam: the mixed path, which gathers
    r = np.array(_SEAM_POINTS)
    phi = fundamental_solution_many(1.0, np.zeros((1, 2)), np.column_stack([r, 0 * r]))[0]
    ref = np.array([complex(0.25j * mpmath.hankel1(0, mpmath.mpf(x))) for x in r])
    assert np.max(np.abs(phi - ref) / np.abs(ref)) <= 1e-14


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("x", _SEAM_POINTS)
def test_hankel01_across_the_seam_against_mpmath(order, x):
    # one point at a time: each branch runs alone
    ref = complex(mpmath.hankel1(order, mpmath.mpf(x)))
    assert abs(hankel1(order, x) - ref) <= 1e-14 * abs(ref)


def _complex_points():
    """|z| up to MAX_ABS_ARG in every quadrant, with |Im z| >= 1 or |z| <= 2."""
    points = [0.5 * np.exp(0.3j), 2.0 * np.exp(0.05j), 2.0 * np.exp(-2.0j), 1j]
    for r in (8.0, 30.0, 120.0, 400.0, 0.999 * MAX_ABS_ARG):
        for theta in (0.2, 1.3, np.pi / 2, 2.5, -0.6, -2.9):
            z = r * np.exp(1j * theta)
            if abs(z.imag) < 1.0:
                z = complex(z.real, np.copysign(1.0, z.imag))
            points.append(complex(z))
    return points


@pytest.mark.parametrize("z", _complex_points())
def test_j_all_orders_against_mpmath(z):
    js = bessel_j_orders(MAX_ORDER, z)
    assert js.shape == (MAX_ORDER + 1,)
    for m in list(range(0, MAX_ORDER, 7)) + [MAX_ORDER]:
        ref = complex(mpmath.besselj(m, mpmath.mpc(z)))
        # below 1e-300 J_m underflows: an absolute check there
        assert abs(js[m] - ref) <= 1e-12 * max(abs(ref), 1e-300), m


@pytest.mark.parametrize("x", [0.7, 37.5, 699.0])
def test_j_all_orders_real_axis_against_mpmath(x):
    # on the real axis J_m has zeros: the error is relative to |H_m(x)|
    js = bessel_j_orders(MAX_ORDER, x)
    assert js.dtype == float
    for m in range(0, MAX_ORDER + 1, 9):
        ref = mpmath.hankel1(m, mpmath.mpf(x))
        assert abs(js[m] - float(ref.real)) <= 1e-12 * max(float(abs(ref)), 1e-300), m


def test_single_orders_match_the_all_orders_pass():
    # the recurrence start depends on |z| alone, so every path gives the same number
    for z in (1.3, 2.5 + 0.5j, 650.0 - 40.0j):
        js = bessel_j_orders(MAX_ORDER, z)
        assert all(bessel_j(m, z) == js[m] for m in (0, 1, 17, MAX_ORDER))
