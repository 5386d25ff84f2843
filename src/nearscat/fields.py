"""Indicator fields over sampling grids and their on-disk formats.

CSV: header "x,y,value", row-major with y as the outer loop, 17 significant
digits.  PGM: ASCII P2, 8-bit, linear min-to-max scaling (constant fields
render as mid-gray 128).
"""

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
    x, y = fld.grid.points.T.tolist()
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        fh.writelines(map("{:.17g},{:.17g},{:.17g}\n".format, x, y, fld.values.tolist()))


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
