"""Indicator fields over sampling grids and their on-disk formats.

CSV: header "x,y,value", row-major with y as the outer loop, 17 significant
digits.  Chain CSV: header "iteration,gamma,log_post", 17 significant digits.
PGM: ASCII P2, 8-bit, linear min-to-max scaling (constant fields render as
mid-gray 128).
"""

import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import SamplingGrid


@dataclass(frozen=True)
class IndicatorField:
    grid: SamplingGrid
    values: np.ndarray  # (nx*ny,), row-major, y outer loop
    metadata: dict = field(default_factory=dict)

    def as_image(self):
        """(ny, nx) view of the values."""
        return self.values.reshape(self.grid.ny, self.grid.nx)

    def argmax_point(self):
        i = int(np.argmax(self.values))
        return self.grid.points[i]


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


def write_chain_csv(chain_gamma, chain_logpost, path):
    """CSV with header "iteration,gamma,log_post", one row per chain entry.

    A rejected Metropolis-Hastings step repeats the previous state, so each
    run of repeated states is formatted once.  States are told apart by
    their bit patterns: 0.0 and -0.0 differ there, and NaN equals NaN.
    """
    gamma = np.asarray(chain_gamma, dtype=float)
    logpost = np.asarray(chain_logpost, dtype=float)
    bits = np.stack([gamma, logpost]).view(np.int64)
    new = np.ones(gamma.size, dtype=bool)
    np.any(bits[:, 1:] != bits[:, :-1], axis=0, out=new[1:])
    states = list(map(",{:.17g},{:.17g}\n".format,
                      gamma[new].tolist(), logpost[new].tolist()))
    with open(path, "w") as fh:
        fh.write("iteration,gamma,log_post\n")
        fh.writelines(map(operator.concat, map(str, range(gamma.size)),
                          map(states.__getitem__, (np.cumsum(new) - 1).tolist())))


def read_field_csv(path):
    rows = Path(path).read_text().strip().splitlines()[1:]
    out = np.array([[float(c) for c in r.split(",")] for r in rows])
    return out  # columns x, y, value


def write_field_pgm(fld, path):
    img = fld.as_image()
    lo, hi = float(np.min(img)), float(np.max(img))
    if hi > lo:
        pix = np.rint((img - lo) / (hi - lo) * 255.0).astype(int)
    else:
        pix = np.full(img.shape, 128, dtype=int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{img.shape[1]} {img.shape[0]}\n255\n")
        fh.writelines(" ".join(map(str, row)) + "\n" for row in pix.tolist())


def local_maxima(fld, top=None):
    """Grid points that beat their 8-neighborhood, sorted by value descending.

    Returns (points, values).
    """
    img = fld.as_image()
    ny, nx = img.shape
    padded = np.full((ny + 2, nx + 2), -np.inf)
    padded[1:-1, 1:-1] = img
    neigh = np.full(img.shape, -np.inf)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            neigh = np.maximum(neigh, padded[1 + dy : 1 + dy + ny, 1 + dx : 1 + dx + nx])
    mask = img > neigh
    ys, xs = np.nonzero(mask)
    vals = img[ys, xs]
    order = np.argsort(-vals)
    ys, xs, vals = ys[order], xs[order], vals[order]
    if top is not None:
        ys, xs, vals = ys[:top], xs[:top], vals[:top]
    xc = fld.grid.x_coords()
    yc = fld.grid.y_coords()
    pts = np.column_stack([xc[xs], yc[ys]])
    return pts, vals
