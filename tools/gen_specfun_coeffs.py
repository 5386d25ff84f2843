"""Generate the polynomial coefficients of `nearscat.specfun` from mpmath.

    python tools/gen_specfun_coeffs.py

prints the block of literal tuples that `src/nearscat/specfun.py` carries
between its "generated" markers.  The tests import this script and check
that it reproduces the committed tuples exactly.

For orders n = 0, 1 and real x > 0 the fits are:

- x <= SEAM, in u = x^2 / (SEAM^2 / 2) - 1:
    J_n(x) = x^n a(u),
    Y_n(x) = (2/pi) ln(x) J_n(x) - n 2/(pi x) + x^n b(u);
- x > SEAM, in v = 2 (SEAM / x)^2 - 1:
    H^(1)_n(x) = sqrt(2 / (pi x)) e^{i(x - (2n + 1) pi/4)} (P(v) + i Q(v) / x).

Each of a, b, P, Q is the Chebyshev series of the function at 64 nodes in
40-digit arithmetic, truncated at the degree below and recast as monomial
coefficients, which are rounded to doubles last.  Their absolute values sum
to at most 1.9, so Horner's rule loses little to cancellation.  The first Chebyshev term dropped is below 4e-17 for a, b and
P, and below 3.1e-16 for Q, which is divided by x > SEAM.
"""

import mpmath as mp

SEAM = 5
SMALL_DEGREE = 12
LARGE_DEGREE = 16
NODES = 64


def _chebyshev(f, degree):
    """Chebyshev coefficients 0..degree of f on [-1, 1] from NODES nodes."""
    theta = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
    vals = [f(mp.cos(t)) for t in theta]
    return [
        mp.fsum(v * mp.cos(k * t) for v, t in zip(vals, theta)) * (1 if k == 0 else 2) / NODES
        for k in range(degree + 1)
    ]


def _monomial(cheb):
    """Monomial coefficients, highest degree first, of sum_k cheb[k] T_k(u)."""
    t_prev, t_cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
    mono = [cheb[0]] + [mp.mpf(0)] * (len(cheb) - 1)
    for c in cheb[1:]:
        for i, a in enumerate(t_cur):
            mono[i] += c * a
        t_prev, t_cur = t_cur, [2 * a - b for a, b in
                                zip([mp.mpf(0)] + t_cur, t_prev + [mp.mpf(0)] * 2)]
    return tuple(float(c) for c in reversed(mono))


def _small(n):
    def x_of(u):
        return mp.sqrt((u + 1) * SEAM**2 / 2)

    def a(u):
        x = x_of(u)
        return mp.besselj(n, x) / x**n

    def b(u):
        x = x_of(u)
        log_part = 2 / mp.pi * (mp.log(x) * mp.besselj(n, x) - n / x)
        return (mp.bessely(n, x) - log_part) / x**n

    return a, b


def _large(n):
    def h(v):
        x = SEAM / mp.sqrt((v + 1) / 2)
        phase = mp.exp(-1j * (x - (2 * n + 1) * mp.pi / 4))
        return mp.hankel1(n, x) * mp.sqrt(mp.pi * x / 2) * phase, x

    def p(v):
        return h(v)[0].real

    def q(v):
        val, x = h(v)
        return val.imag * x

    return p, q


def coefficients():
    """{name: tuple of (first, second) coefficient pairs, highest degree first}."""
    out = {}
    with mp.workdps(40):
        for name, fits, degree in (("_SMALL", _small, SMALL_DEGREE),
                                   ("_LARGE", _large, LARGE_DEGREE)):
            out[name] = tuple(
                tuple(zip(*(_monomial(_chebyshev(f, degree)) for f in fits(n)))) for n in (0, 1)
            )
    return out


def source():
    """The generated block of specfun.py."""
    doc = {
        "_SMALL": "x <= SEAM: (a, b) per order, J_n = x^n a(u), Y_n = (2/pi) (ln(x) J_n - n/x) + x^n b(u)",
        "_LARGE": "x > SEAM: (P, Q) per order, H_n = sqrt(2/(pi x)) e^{i(x - (2n+1) pi/4)} (P + iQ/x)",
    }
    lines = []
    for name, orders in coefficients().items():
        lines.append(f"# {doc[name]}")
        lines.append(f"{name} = (")
        for n, pairs in enumerate(orders):
            lines.append(f"    (  # order {n}")
            lines.extend(f"        ({a!r}, {b!r})," for a, b in pairs)
            lines.append("    ),")
        lines.append(")")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(source(), end="")
