"""Integer-order Bessel and Hankel functions and the 2-D Helmholtz
fundamental solution, in NumPy alone.

Method:

- Real J_0, Y_0, J_1, Y_1 (`_bessel01`).  For x <= SEAM, polynomials in x^2
  with the logarithm split off: J_n = x^n a(u), Y_n = (2/pi)(ln(x) J_n - n/x)
  + x^n b(u), u = 2 x^2 / SEAM^2 - 1.  For x > SEAM, the modulus/phase form
  H_n = sqrt(2/(pi x)) e^{i(x - (2n+1) pi/4)} (P + iQ/x), P and Q polynomials
  in 2 (SEAM/x)^2 - 1.  The phase e^{ix} comes from x itself, through
  t = tan(x/2), never from a shifted argument such as x - pi/4, whose
  rounding grows with x.  The coefficients are generated from mpmath by
  tools/gen_specfun_coeffs.py.
- J_m(z), real or complex, every order in one pass (`bessel_j_orders`):
  Miller's backward recurrence on the ratios J_n/J_{n-1} from an order above
  both MAX_ORDER and |z|, normalised by e^{iz} = J_0 + 2 sum i^n J_n for
  Im z <= 0 and by e^{-iz} = J_0 + 2 sum (-i)^n J_n for Im z > 0.  Both sums
  have terms no larger than their total, so nothing cancels.  The start does
  not depend on the orders asked for, so J_m(z) is the same number whichever
  function returns it.
- Y_m(x) and H_m(x) = J_m + iY_m for real x > 0 by forward recurrence from
  Y_0 and Y_1.  Derivatives use J'_0 = -J_1 and J'_m = (J_{m-1} - J_{m+1})/2,
  so every derivative check reduces to a function-value check.

Verified against mpmath (tests/test_specfun.py):

- real 0 < x <= MAX_ABS_ARG: J_n + iY_n, n = 0, 1, and the fundamental
  solution within 1e-14 of |H_n(x)| and |Φ| up to x = 100 and within 1e-13
  beyond, on both sides of SEAM as well (measured: below 1e-15 for
  J_n + iY_n everywhere, where SciPy's j0/y0 reach 3e-14 near x = 700);
- complex |z| <= MAX_ABS_ARG, orders 0..MAX_ORDER: J_m(z) within 1e-12 of
  |J_m(z)| where |Im z| >= 1 (closer to the real axis J_m has zeros, and the
  error is relative to |J_m| + |Y_m| there), or of 1e-300 where J_m
  underflows.

Real arguments return results with exactly zero imaginary part where the
mathematics demands it.
"""

import cmath
import math

import numpy as np

from .errors import DomainError

# Overflow guards: the envelope inside which the functions are verified.
MAX_ABS_ARG = 700.0
MAX_ORDER = 200
# Real arguments x <= SEAM take the power form, x > SEAM the modulus/phase form.
SEAM = 5.0

# --- generated by tools/gen_specfun_coeffs.py: do not edit by hand ---------
# x <= SEAM: (a, b) per order, J_n = x^n a(u), Y_n = (2/pi) (ln(x) J_n - n/x) + x^n b(u)
_SMALL = (
    (  # order 0
        (2.969447332958378e-12, -6.04993694723965e-12),
        (-1.3408115586282428e-10, 2.6577889877100746e-10),
        (5.059294185929358e-09, -9.7209552080454e-09),
        (-1.5718405867627207e-07, 2.914215949635149e-07),
        (3.9285088877689495e-06, -6.985504374077061e-06),
        (-7.683433615676234e-05, 0.00012994629120518142),
        (0.0011343635095863093, -0.0018028096665503853),
        (-0.012035214154289672, 0.017635345389255822),
        (0.08539182354259674, -0.11151682184328655),
        (-0.3601807659503913, 0.38851639956571976),
        (0.7094160035335417, -0.47057636552972876),
        (-0.21650541389819158, -0.4326558222855129),
        (-0.3847445098140454, 0.4837248578102995),
    ),
    (  # order 1
        (1.1621889632590412e-13, -2.397782341669183e-13),
        (-5.7018453078703506e-12, 1.1462847037754036e-11),
        (2.356632323536745e-10, -4.6013010745475043e-10),
        (-8.094869431415498e-09, 1.528888444673751e-08),
        (2.263453713594777e-07, -4.1137780795312436e-07),
        (-5.02849137748372e-06, 8.733098315276175e-06),
        (8.605445634303652e-05, -0.00014141835794484212),
        (-0.0010889889692024138, 0.0016688031328605528),
        (0.009628171323463516, -0.013433433740818165),
        (-0.05465076706726198, 0.06634695354779145),
        (0.17288676765618544, -0.16312020358118715),
        (-0.22701312113073338, 0.09108650838448443),
        (0.03464086622371068, 0.13974939033568806),
    ),
)
# x > SEAM: (P, Q) per order, H_n = sqrt(2/(pi x)) e^{i(x - (2n+1) pi/4)} (P + iQ/x)
_LARGE = (
    (  # order 0
        (3.6143863492486003e-12, -2.94327129581268e-11),
        (-6.0851008658033115e-12, 4.770246642662113e-11),
        (-3.743592980512026e-12, 3.7121100198228953e-11),
        (2.988413800218761e-12, -3.618929295768869e-11),
        (2.4823644443773408e-11, -1.752801131039423e-10),
        (-5.082479939257905e-11, 3.3091678762037385e-10),
        (9.7250551457765e-11, -5.41411429084043e-10),
        (-2.770150410595211e-10, 1.4746496139194456e-09),
        (8.562292591841693e-10, -4.3111212998225006e-09),
        (-2.8729929399972917e-09, 1.331336743511037e-08),
        (1.1058301818592053e-08, -4.639454171682686e-08),
        (-5.086393341848671e-08, 1.8870020721569143e-07),
        (2.9759010201737064e-07, -9.409878689496748e-07),
        (-2.4599633493181304e-06, 6.239113373662662e-06),
        (3.491730581077085e-05, -6.33871544119338e-05),
        (-0.0013274931271998205, 0.0013142139729058887),
        (0.9986347659091991, -0.12361496352611874),
    ),
    (  # order 1
        (-3.837516448159508e-12, 3.1188752240087856e-11),
        (6.475546904709408e-12, -5.065579238060707e-11),
        (3.919356832784674e-12, -3.895148389909489e-11),
        (-3.064293450123631e-12, 3.766372881041026e-11),
        (-2.6622329676450118e-11, 1.8728579114511882e-10),
        (5.480950189472372e-11, -3.554360792459824e-10),
        (-1.0595089749231098e-10, 5.881102590005307e-10),
        (3.0312304895803643e-10, -1.607413397358268e-09),
        (-9.422147494996673e-10, 4.72047349108077e-09),
        (3.1875529562097118e-09, -1.4682001130091701e-08),
        (-1.2402701962004368e-08, 5.163797721314335e-08),
        (5.791626554980492e-08, -2.1266447712144217e-07),
        (-3.466719151341159e-07, 1.0798857495406617e-06),
        (2.9786211346350553e-06, -7.369928163660711e-06),
        (-4.5782806529390985e-05, 7.89809417655322e-05),
        (0.0022414632139165767, -0.0018648496218367006),
        (1.0022906462560661, 0.3730474331740803),
    ),
)
# --- end of generated block ------------------------------------------------


def _stacked(table):
    """Per order, the coefficient pairs as (2, 1) columns for `_horner`."""
    return tuple(tuple(np.array(pair)[:, None] for pair in order) for order in table)


_SMALL_COLUMNS = _stacked(_SMALL)
_LARGE_COLUMNS = _stacked(_LARGE)
# (i^n for Im z <= 0 or (-i)^n for Im z > 0) for n = 1..4, repeating
_PHASES = {True: (1j, -1.0, -1j, 1.0), False: (-1j, -1.0, 1j, 1.0)}
_LENTZ_TINY = 1e-300  # stands in for a recurrence denominator that is exactly 0
_PHI_CHUNK = 8192  # pairs per kernel call in fundamental_solution_many


def _check_order(order):
    if order < 0 or int(order) != order:
        raise DomainError(f"order must be a nonnegative integer, got {order!r}")
    if order > MAX_ORDER:
        raise DomainError(f"order {order} exceeds supported maximum {MAX_ORDER}")
    return int(order)


def _check_arg(r):
    if not r <= MAX_ABS_ARG:  # NaN too
        raise DomainError(f"|z| = {r:.3g} exceeds overflow guard {MAX_ABS_ARG}")


def _check_positive(name, x):
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"{name} requires x > 0, got {x}")
    _check_arg(x)
    return x


def _horner(columns, u):
    """Two polynomials at the points u in one stacked Horner pass: row i of
    the (2, len(u)) result is sum_k columns[k][i] u^(K - k)."""
    acc = np.multiply(u, columns[0], out=np.empty((2, u.size)))
    for c in columns[1:-1]:
        acc += c
        acc *= u
    acc += columns[-1]
    return acc


def _small(n, x):
    u = x * x
    u *= 2.0 / SEAM**2
    u -= 1.0
    jy = _horner(_SMALL_COLUMNS[n], u)  # rows a(u), b(u)
    if n:
        jy *= x
    log_part = np.log(x)
    log_part *= jy[0]
    if n:
        log_part -= 1.0 / x
    log_part *= 2.0 / np.pi
    jy[1] += log_part
    return jy


def _large(n, x):
    v = (2.0 * SEAM**2) / (x * x)
    v -= 1.0
    pq = _horner(_LARGE_COLUMNS[n], v)  # rows P, Q
    pq[1] /= x
    # e^{ix} = (1 - t^2 + 2it) / (1 + t^2), t = tan(x/2): with AVX-512, NumPy's
    # tan is vectorised (about 4 ns a value on a 2-vCPU Xeon) and its sin and
    # cos are not (about 25 ns each).  The error is a few ulp of |H_n|.
    t = np.multiply(x, 0.5)
    np.tan(t, out=t)
    t2 = t * t
    scale = np.multiply(x, np.pi)
    np.sqrt(scale, out=scale)
    scale *= 1.0 + t2
    # rows S = P + Q/x and D = P - Q/x, over sqrt(pi x) (1 + t^2)
    pq[0] += pq[1]
    pq[1] *= -2.0
    pq[1] += pq[0]
    pq /= scale
    # H_0 = e^{ix} (S - iD) = U + iV and H_1 = -i(U + iV), with
    # U = S cos x + D sin x and V = S sin x - D cos x
    np.subtract(1.0, t2, out=t2)
    t *= 2.0
    uv = np.multiply(pq, t2)  # cos x rows
    pq *= t  # sin x rows
    uv[0] += pq[1]
    np.subtract(pq[0], uv[1], out=uv[1])
    if n:
        uv = uv[::-1]
        uv[1] *= -1.0
    return uv


def _bessel01(n, x):
    """Rows J_n(x) and Y_n(x), n = 0 or 1, at a 1-D array of 0 < x <= MAX_ABS_ARG."""
    if x.size == 0 or x.max() <= SEAM:  # every preset at k = 1: no mask, no gather
        return _small(n, x)
    if x.min() > SEAM:
        return _large(n, x)
    jy = np.empty((2, x.size))
    near = np.flatnonzero(x <= SEAM)  # indices: faster than boolean masks here
    jy[:, near] = _small(n, x[near])
    far = np.flatnonzero(x > SEAM)
    jy[:, far] = _large(n, x[far])
    return jy


def _miller_start(r):
    """An order far enough above MAX_ORDER and |z| = r that the backward
    recurrence has forgotten its start by the orders it returns."""
    return int(max(MAX_ORDER, r) + 10.0 * r ** (1.0 / 3.0)) + 30


def bessel_j_orders(max_order, z):
    """J_0(z), ..., J_max_order(z) for real or complex z, in one pass.

    A real z gives a float array, a complex one a complex array.
    """
    max_order = _check_order(max_order)
    z = complex(z)
    r = abs(z)
    _check_arg(r)
    real = z.imag == 0.0
    out = np.zeros(max_order + 1, dtype=float if real else complex)
    if r == 0.0:
        out[0] = 1.0
        return out
    w = z.real if real else z
    top = _miller_start(r)
    ratios = [0.0] * top  # ratios[n - 1] = J_n / J_{n-1}
    ratio = 0.0
    for n in range(top, 0, -1):
        den = 2 * n - w * ratio
        ratio = w / (den if den != 0 else _LENTZ_TINY)
        ratios[n - 1] = ratio
    rel = np.cumprod(ratios)  # J_n / J_0, n = 1..top
    lower = z.imag <= 0.0
    phases = np.resize(_PHASES[lower], top)
    j0 = cmath.exp(1j * z if lower else -1j * z) / (1.0 + 2.0 * np.dot(phases, rel))
    if real:
        j0 = j0.real
    out[0] = j0
    out[1:] = j0 * rel[:max_order]
    return out


def bessel_y_orders(max_order, x):
    """Y_0(x), ..., Y_max_order(x) for real x > 0, by forward recurrence;
    orders beyond overflow read -inf."""
    max_order = _check_order(max_order)
    x = _check_positive("bessel_y", x)
    at = np.array([x])
    ys = [float(_bessel01(0, at)[1, 0]), float(_bessel01(1, at)[1, 0])]
    for m in range(1, max_order):
        nxt = 2 * m / x * ys[m] - ys[m - 1]
        ys.append(nxt if math.isfinite(nxt) else -math.inf)
    return np.array(ys[: max_order + 1])


def hankel1_orders(max_order, x):
    """H^(1)_0(x), ..., H^(1)_max_order(x) = J + iY for real x > 0."""
    max_order = _check_order(max_order)
    x = _check_positive("hankel1", x)
    out = np.empty(max_order + 1, dtype=complex)
    out.imag = bessel_y_orders(max_order, x)
    out.real = bessel_j_orders(max_order, x)
    return out


def derivative_orders(values):
    """f'_0, ..., f'_{M-1} from f_0, ..., f_M for f = J or H^(1), by the
    recurrences f'_0 = -f_1 and f'_m = (f_{m-1} - f_{m+1})/2."""
    out = np.empty(len(values) - 1, dtype=values.dtype)
    out[0] = -values[1]
    out[1:] = (values[:-2] - values[2:]) / 2.0
    return out


def fundamental_solution_many(k, points_x, points_y):
    """Vectorized Φ over all pairs: returns matrix Φ(x_i, y_j).

    points_x: (Nx, 2), points_y: (Ny, 2).  No pair may coincide, and every
    k|x_i - y_j| must lie inside the MAX_ABS_ARG envelope.  Φ = (i/4)(J_0 + iY_0) is filled from the real-argument
    Bessel functions, so Re Φ = -Y_0/4 and Im Φ = J_0/4 exactly.
    """
    if k <= 0.0:
        raise DomainError(f"wavenumber must be positive, got {k}")
    px = np.asarray(points_x, dtype=float)
    py = np.asarray(points_y, dtype=float)
    out = np.empty((px.shape[0], py.shape[0]), dtype=complex)
    # |x - y| without hypot or temporaries: dy is squared in out.imag, which
    # J0 overwrites below.  A separation whose square underflows reads as 0.
    kr = px[:, None, 0] - py[None, :, 0]
    dy = np.subtract(px[:, None, 1], py[None, :, 1], out=out.imag)
    kr *= kr
    dy *= dy
    kr += dy
    np.sqrt(kr, out=kr)
    kr *= k
    if kr.size:
        if kr.min() == 0.0:
            raise DomainError("fundamental_solution is singular at coincident points")
        if not kr.max() <= MAX_ABS_ARG:  # NaN too
            raise DomainError(
                f"k|x - y| = {kr.max():.3g} exceeds overflow guard {MAX_ABS_ARG}"
            )
    flat_kr, flat_out = kr.ravel(), out.ravel()
    # In chunks, so the temporaries stay in cache and the allocator reuses them
    for start in range(0, flat_kr.size, _PHI_CHUNK):
        part = slice(start, start + _PHI_CHUNK)
        jy = _bessel01(0, flat_kr[part])
        np.multiply(jy[1], -0.25, out=flat_out[part].real)
        np.multiply(jy[0], 0.25, out=flat_out[part].imag)
    return out
