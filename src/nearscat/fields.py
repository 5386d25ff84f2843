"""Indicator fields over sampling grids and their on-disk formats.

CSV: header "x,y,value", row-major with y as the outer loop, 17 significant
digits.  Chain CSV: header "iteration,gamma,log_post", 17 significant digits.
PGM: ASCII P2, 8-bit, linear min-to-max scaling (constant fields render as
mid-gray 128).
"""

import operator
from dataclasses import dataclass

import numpy as np

from .geometry import SamplingGrid


@dataclass(frozen=True)
class IndicatorField:
    grid: SamplingGrid
    values: np.ndarray  # (nx*ny,), row-major, y outer loop

    def as_image(self):
        """(ny, nx) view of the values."""
        return self.values.reshape(self.grid.ny, self.grid.nx)


def write_field_csv(fld, path):
    """Each distinct coordinate is formatted once: the nx x strings are spliced
    into one row template, and each grid row is one `%` call on the row's y
    (formatted once) interleaved with its values."""
    nx = fld.grid.nx
    xs = map("{:.17g}".format, fld.grid.points[:nx, 0].tolist())
    template = "".join(x + ",%s,%.17g\n" for x in xs)
    ys = map("{:.17g}".format, fld.grid.points[::nx, 1].tolist())
    args = [None] * (2 * nx)
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for y, row in zip(ys, fld.as_image().tolist()):
            args[::2] = [y] * nx
            args[1::2] = row
            fh.write(template % tuple(args))


# runs per chain.csv block: the text of one block is in memory at a time
_CHAIN_BLOCK_RUNS = 256


def write_chain_csv(chain_gamma, chain_logpost, path):
    """CSV with header "iteration,gamma,log_post", one row per chain entry.

    A rejected Metropolis-Hastings step repeats the previous state, so the
    chain is written as runs of repeated states.  States are told apart by
    their bit patterns: 0.0 and -0.0 differ there, and NaN equals NaN.  Each
    run's state is formatted once into a row template with a `%d` slot for
    the iteration; a block of runs repeats each template over its run, and
    one `%` call fills in the block's iteration numbers.  Blocks keep the
    text in memory at a few hundred runs, whatever the chain's length.
    """
    gamma = np.asarray(chain_gamma, dtype=float)
    logpost = np.asarray(chain_logpost, dtype=float)
    bits = np.stack([gamma, logpost]).view(np.int64)
    new = np.ones(gamma.size, dtype=bool)
    np.any(bits[:, 1:] != bits[:, :-1], axis=0, out=new[1:])
    starts = np.flatnonzero(new)
    lengths = np.diff(starts, append=gamma.size).tolist()
    edges = starts.tolist() + [gamma.size]
    # float text holds no "%", so the iteration slot is the only one
    rows = list(map("%d,{:.17g},{:.17g}\n".format,
                    gamma[starts].tolist(), logpost[starts].tolist()))
    with open(path, "w") as fh:
        fh.write("iteration,gamma,log_post\n")
        for b in range(0, len(rows), _CHAIN_BLOCK_RUNS):
            e = min(b + _CHAIN_BLOCK_RUNS, len(rows))
            block = "".join(map(operator.mul, rows[b:e], lengths[b:e]))
            fh.write(block % tuple(range(edges[b], edges[e])))


def write_field_pgm(fld, path):
    img = fld.as_image()
    lo, hi = float(np.min(img)), float(np.max(img))
    if hi > lo:
        pix = np.rint((img - lo) / (hi - lo) * 255.0).astype(int)
    else:
        pix = np.full(img.shape, 128, dtype=int)
    row = " ".join(["%d"] * img.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"P2\n{img.shape[1]} {img.shape[0]}\n255\n")
        fh.writelines(map(row.__mod__, map(tuple, pix.tolist())))
