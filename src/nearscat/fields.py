"""Indicator fields over sampling grids and their on-disk formats.

CSV: header "x,y,value", row-major with y as the outer loop, every number
written as Python's '%.17g' writes it.  Chain CSV: header
"iteration,gamma,log_post", 17 significant digits.  PGM: ASCII P2, 8-bit,
linear min-to-max scaling (constant fields render as mid-gray 128), the
pixel text taken from a table of the 256 levels' '%d ' cells.

Field and chain CSV text is made by `_g17`: the '%.17g' bytes of a float64
array, in NumPy.  For |v| in [1e-250, 1e250] it takes the decimal exponent x
from floor(log10|v|), so that P = |v| * 10**(16 - x) lies in [1e16, 1e17)
and the 17 digits are round(P); log10 can be one off near a power of ten,
so x is corrected, and P formed again, where the computed P falls outside.
10**q is a double pair hi + lo built from Python integers, with
|hi + lo - 10**q| <= 2**-106 * 10**q.  The product |v| * hi is split
exactly into p + e by Dekker's method (no FMA needed), and r = e + |v| * lo.
With |e| <= 8 and |v * lo| <= 2**-53 * P < 12, p lies within 20 of
P >= 1e16, so p > 2**53 is an integer and round(P) = p + round(r); the
computed r is within 1e-14 of the exact P - p.  The rounding is therefore
certain unless the fractional part of r lies within 1e-6 of 1/2.  Python's
own '%.17g' writes those near-ties, and also zeros, infinities, NaN and
magnitudes outside [1e-250, 1e250].  An error of 1e-14 in the range test
of P cannot change the text either: at P just below 1e16 (or 1e17) it
decides only between 17 digits that round up to the next power of ten and
that power itself.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import SamplingGrid


@dataclass(frozen=True)
class IndicatorField:
    grid: SamplingGrid
    values: np.ndarray  # (nx*ny,), row-major, y outer loop

    def as_image(self):
        """(ny, nx) view of the values."""
        return self.values.reshape(self.grid.ny, self.grid.nx)


# values per block of CSV text: bounds the text matrix and the kernel's
# temporaries, whatever the grid's size
_TEXT_BLOCK = 4096
_WIDTH = 24  # the longest '%.17g' text, such as '-1.2345678901234567e-250'
_LO, _HI = 1e-250, 1e250  # the kernel's range of magnitudes
_TIE = 1e-6  # the half-window about 1/2 in which rounding goes to '%.17g'
_QMIN, _QMAX = -240, 270  # the powers 10**q that values in range need
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves

# The text of a value is gathered from a source row of 26 bytes: sign (or
# pad), the 17 digits, '.', '0', 'e', the exponent's sign, its three
# digits, and a zero pad byte that the writer drops.
_SIGN, _POINT, _ZERO, _E, _ESIGN, _EXP, _PAD = 0, 18, 19, 20, 21, 22, 25
_SRC = 26
# a decimal exponent per layout: fixed form for -4 <= x <= 16 as '%g' has
# it, then exponent form with a 2-digit and a 3-digit exponent
_FORMS = (*range(-4, 17), 17, 100)


def _layout(x, keep):
    """Source-row offsets of the '%.17g' text of 17 digits with decimal
    exponent x, of which the first `keep` stay once trailing zeros go."""
    if not -4 <= x <= 16:
        frac = [_POINT, *range(2, keep + 1)] if keep > 1 else []
        exp = range(_EXP if abs(x) >= 100 else _EXP + 1, _PAD)
        out = [_SIGN, 1, *frac, _E, _ESIGN, *exp]
    elif x >= 0:
        frac = [_POINT, *range(x + 2, keep + 1)] if keep > x + 1 else []
        out = [_SIGN, *range(1, x + 2), *frac]
    else:
        out = [_SIGN, _ZERO, _POINT, *[_ZERO] * (-x - 1), *range(1, keep + 1)]
    return out + [_PAD] * (_WIDTH - len(out))


@functools.cache
def _tables():
    """The kernel's constant tables, made on first use: a row per power
    10**q, holding hi, lo and hi's two Dekker halves; the 4-digit groups
    '0000'..'9999' as uint32; and the offset map of each layout in _FORMS
    and count of trailing zeros."""
    pows = []
    for q in range(_QMIN, _QMAX + 1):
        if q >= 0:
            hi = float(10**q)
            lo = float(10**q - int(hi))
        else:
            den = 10**-q
            hi = 1 / den  # correctly rounded
            num, two = hi.as_integer_ratio()
            lo = (two - num * den) / (two * den)  # 10**q - hi, rounded
        c = _SPLIT * hi
        hi_hi = c - (c - hi)
        pows.append((hi, lo, hi_hi, hi - hi_hi))
    k = np.arange(10**4)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    groups = (ord("0") + digits).astype(np.uint8).view(np.uint32).ravel()
    maps = np.array([_layout(x, 17 - tz) for x in _FORMS for tz in range(17)], dtype=np.intp)
    tables = np.array(pows), groups, maps
    for t in tables:
        t.flags.writeable = False
    return tables


def _scaled(a, x, pows):
    """(p, r): a * 10**(16 - x) = p + r, p the rounded product and r the
    correction, which is within 1e-14 while the product is below 2**57."""
    hi, lo, hi_hi, hi_lo = np.take(pows, 16 - x - _QMIN, axis=0).T
    p = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    e = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    return p, e + a * lo


def _g17_block(v):
    """(n, _WIDTH) uint8: the '%.17g' text of each value of the 1-D v,
    followed by zero pad bytes."""
    pows, groups, maps = _tables()
    a = np.abs(v)
    ok = (a >= _LO) & (a <= _HI)  # False for 0, inf and NaN
    a[~ok] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)
    p, r = _scaled(a, x, pows)
    # log10 can be one off near a power of ten: the exact product must lie
    # in [1e16, 1e17)
    below = (p - 1e16) + r < 0.0
    above = (p - 1e17) + r >= 0.0
    off = below | above
    if off.any():
        x[off] += above[off].astype(np.intp) - below[off]
        p[off], r[off] = _scaled(a[off], x[off], pows)
        ok[off] &= ((p[off] - 1e16) + r[off] >= 0.0) & ((p[off] - 1e17) + r[off] < 0.0)
    ok &= np.abs(r - np.floor(r) - 0.5) >= _TIE
    n = p.astype(np.int64) + np.floor(r + 0.5).astype(np.int64)
    carry = n == 10**17  # rounded up to the next power of ten
    n[carry] = 10**16
    x += carry
    x[~ok] = 0  # any layout will do: the text of these values is replaced below

    src = np.empty((v.size, _SRC), dtype=np.uint8)
    src[:, _SIGN] = np.where(np.signbit(v), ord("-"), 0)
    high, low = np.divmod(n, 10**8)
    lead, high = np.divmod(high, 10**8)
    src[:, 1] = ord("0") + lead
    quads = np.empty((v.size, 4), dtype=np.int64)
    np.divmod(high, 10**4, out=(quads[:, 0], quads[:, 1]))
    np.divmod(low, 10**4, out=(quads[:, 2], quads[:, 3]))
    src[:, 2:18] = np.take(groups, quads).view(np.uint8)
    src[:, _POINT], src[:, _ZERO], src[:, _E], src[:, _PAD] = ord("."), ord("0"), ord("e"), 0
    # the digits of |x| as '0hdd', whose leading '0' the exponent's sign replaces
    src[:, _ESIGN:_PAD] = np.take(groups, np.abs(x)).view(np.uint8).reshape(-1, 4)
    src[:, _ESIGN] = np.where(x < 0, ord("-"), ord("+"))
    trailing = np.argmax(src[:, 17:0:-1] != ord("0"), axis=1)
    # the position of x's layout in _FORMS
    form = np.where((x >= -4) & (x <= 16), x + 4, np.where(np.abs(x) >= 100, 22, 21))
    index = np.take(maps, form * 17 + trailing, axis=0)
    index += np.arange(0, v.size * _SRC, _SRC)[:, None]
    out = np.take(src, index)
    rest = np.flatnonzero(~ok)
    if rest.size:
        text = b"".join((b"%.17g" % u).ljust(_WIDTH, b"\0") for u in v[rest].tolist())
        out[rest] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _WIDTH)
    return out


def _g17(values):
    """(n, _WIDTH) uint8: the '%.17g' text of each of the n values, padded
    with zero bytes; the values go through the kernel in blocks."""
    values = np.asarray(values, dtype=float).ravel()
    out = np.empty((values.size, _WIDTH), dtype=np.uint8)
    for b in range(0, values.size, _TEXT_BLOCK):
        out[b : b + _TEXT_BLOCK] = _g17_block(values[b : b + _TEXT_BLOCK])
    return out


def write_field_csv(fld, path):
    """Each distinct coordinate is formatted once.  A block is a few grid
    rows, or part of one row on grids wider than a block: a uint8 matrix of
    x, y and value text with their separators, written as one buffer once
    its zero pad bytes are dropped."""
    img = fld.as_image()
    ny, nx = img.shape
    coords = _g17(np.concatenate([fld.grid.xs, fld.grid.ys]))
    xs, ys = coords[:nx], coords[nx:]
    rows = max(1, _TEXT_BLOCK // nx)
    cols = min(nx, _TEXT_BLOCK)
    w = _WIDTH
    line = np.empty((rows, cols, 3 * w + 3), dtype=np.uint8)
    line[..., w] = line[..., 2 * w + 1] = ord(",")
    line[..., -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(b"x,y,value\n")
        for j in range(0, ny, rows):
            for i in range(0, nx, cols):
                block = line[: min(rows, ny - j), : min(cols, nx - i)]
                k, m = block.shape[:2]
                block[..., :w] = xs[i : i + m]
                block[..., w + 1 : 2 * w + 1] = ys[j : j + k, None]
                text = _g17(img[j : j + k, i : i + m])
                block[..., 2 * w + 2 : 3 * w + 2] = text.reshape(k, m, w)
                fh.write(block.tobytes().translate(None, b"\0"))


# rows per chain.csv block: the text of one block is in memory at a time,
# whatever the chain's length.  2048 rows are about 120 kB of row text and at
# most 4096 values through _g17, one kernel block; 4096 rows raised the peak
# RSS of a figure4/5 pass by about 1 MB for no measurable speed
_CHAIN_BLOCK = 2048


def write_chain_csv(run_start, run_gamma, run_logpost, n, path):
    """CSV with header "iteration,gamma,log_post", one row per step of an
    n-step chain given as runs: run k holds (run_gamma[k], run_logpost[k])
    from step run_start[k] to the next run's start, and may be empty.

    A block of _CHAIN_BLOCK rows is a uint8 matrix: the iteration numbers
    from the kernel's 4-digit groups, their leading zeros made pad bytes,
    then each run's "gamma,log_post" text, made by `_g17` once per run that
    meets the block and repeated over the run's rows.  The block is written
    as one buffer once its pad bytes are dropped.
    """
    groups = _tables()[1]
    quads = -(-len(str(max(n - 1, 0))) // 4)
    w = 4 * quads  # the iteration's text, led by zero pad bytes
    g, c = w + 1, w + _WIDTH + 1  # the columns of gamma and of its comma
    line = np.empty((min(n, _CHAIN_BLOCK), c + _WIDTH + 2), dtype=np.uint8)
    line[:, w] = line[:, c] = ord(",")
    line[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(b"iteration,gamma,log_post\n")
        for b in range(0, n, _CHAIN_BLOCK):
            e = min(b + _CHAIN_BLOCK, n)
            block = line[: e - b]
            rest = np.arange(b, e)
            quad = np.empty((e - b, quads), dtype=np.intp)
            for i in range(quads - 1, 0, -1):
                rest, quad[:, i] = np.divmod(rest, 10**4)
            quad[:, 0] = rest
            block[:, :w] = np.take(groups, quad).view(np.uint8)
            # column k holds a leading zero of every number below 10**(w-1-k)
            for k in range(w - 1):
                block[: max(10 ** (w - 1 - k) - b, 0), k] = 0
            # the runs that meet the block
            r0 = np.searchsorted(run_start, b, side="right") - 1
            r1 = np.searchsorted(run_start, e)
            text = _g17(np.stack([run_gamma[r0:r1], run_logpost[r0:r1]], axis=1)).reshape(-1, 2, _WIDTH)
            edges = np.append(run_start[r0:r1], e)
            edges[0] = b
            run = np.repeat(np.arange(r1 - r0), np.diff(edges))
            block[:, g:c] = text[run, 0]
            block[:, c + 1 : -1] = text[run, 1]
            fh.write(block.tobytes().translate(None, b"\0"))


@functools.cache
def _pgm_cells():
    """The text '%d ' of each level 0..255, led by zero pad bytes to 4 bytes,
    as a read-only uint32 per level, made on first use."""
    return np.frombuffer(b"".join((b"%d " % v).rjust(4, b"\0") for v in range(256)),
                         dtype=np.uint32)


def write_field_pgm(fld, path):
    """A finite range too wide for a float is scaled through its halves."""
    img = fld.as_image()
    bad = int(np.count_nonzero(~np.isfinite(img)))
    if bad:
        raise DomainError(f"cannot scale a PGM: the field has {bad} non-finite value(s)")
    lo, hi = float(np.min(img)), float(np.max(img))
    if hi > lo:
        span = hi - lo
        if span == np.inf:
            img, lo, span = img / 2.0, lo / 2.0, hi / 2.0 - lo / 2.0
        pix = np.rint((img - lo) / span * 255.0).astype(int)
    else:
        pix = np.full(img.shape, 128, dtype=int)
    text = np.take(_pgm_cells(), pix).view(np.uint8)  # (ny, 4 nx)
    text[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(b"P2\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(text.tobytes().translate(None, b"\0"))
