"""Oracle checks on the files a preset run writes.

Every expectation here is the benchmark's own: the grids, the true scatterer
centres and the Bayesian model are written down below, not read back from
the package's presets, so a change that alters what a preset computes fails
the check instead of moving the yardstick.

- MUSIC (figure1-3): the top local maxima of the indicator lie within one
  101x101 preset cell (0.018) of the true centres, both ways; figure1 has
  signal rank 2.
- FM/MLSM (figure6-7): thresholding W at half its interior median gives a
  Jaccard index >= 0.5 against the unit disk, the core (r <= 0.8) to annulus
  (1.2 <= r <= 1.8) mean ratio of W is >= 10, and on figure6
  Spearman(W, P) >= 0.9.
- Bayes (figure4-5): the MH mean of gamma lies within 5 batch-means MCSE of
  the exact Gaussian posterior N(Q^-1 b, Q^-1) of the linear model, and the MH
  sd within 20 % of the exact sd.
- Formats: CSV headers, row counts and grid coordinates; PGM P2 grammar and
  its documented linear min-to-max scaling of the CSV values.

Each problem is reported as "<check>: <detail>"; an empty list is a pass.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from nearscat.bayes import design_matrix, make_bayes_model, synthesize_readings
from nearscat.geometry import Rectangle, ScattererSpec, make_sensor_array

CELL = 0.018  # one cell of the 101x101 preset grid on [-0.9, 0.9]^2

MUSIC_GRID = ((-0.9, 0.9, -0.9, 0.9), 101, 101)
DISK_GRID = ((-1.8, 1.8, -1.8, 1.8), 101, 101)
MUSIC_CENTRES = {
    "figure1": ((-0.5, 0.5), (0.5, -0.5)),
    "figure2": ((0.5, -0.5),),
    "figure3": ((0.0, 0.0),),
}
MUSIC_RANK = {"figure1": 2}
DISK_PRESETS = ("figure6", "figure7")

# figure4/5: readings from the square [-0.2, 0.2]^2 with n = x1^2 + 2 seen by
# 32 sensors on the unit circle (k = 1, 15 % noise, order-16 quadrature);
# the model puts an order-3 rule on the square support of half-width below.
BAYES_SUPPORT = {"figure4": 0.2, "figure5": 0.265}
BAYES_NOISE_SEED = 11  # the presets' own noise seed, used when no seed is given
BAYES_ITERATIONS = 20000
BAYES_BURN_IN = 5000
PRIOR_SD = 1e5
# Over 520 chains (seeds 0-259, both presets) |z| reached 3.9 and sd(z) was
# 1.15 on figure5: at 4 MCSE a correct sampler fails about one chain in 2000,
# at 5 (extrapolating a normal tail) one in 70 000.  A chain shifted by 5
# posterior sd gives z > 100.
MAX_Z = 5.0

FIELD_HEADER = "x,y,value"
CHAIN_HEADER = "iteration,gamma,log_post"
EXPECTED_FILES = {
    "music": {"field.csv", "field.pgm", "manifest.json"},
    "disk": {"field.csv", "field.pgm", "mlsm.csv", "mlsm.pgm", "manifest.json"},
    "bayes": {"chain.csv", "summary.json", "manifest.json"},
}


class CheckError(Exception):
    """An output file that cannot be checked further."""


def kind_of(preset):
    if preset in MUSIC_CENTRES:
        return "music"
    if preset in DISK_PRESETS:
        return "disk"
    if preset in BAYES_SUPPORT:
        return "bayes"
    raise KeyError(f"no oracle for preset {preset!r}")


def grid_of(run):
    return MUSIC_GRID if kind_of(run.preset) == "music" else DISK_GRID


# ---------------------------------------------------------------------------
# Byte identity between passes


def digests(run_dir):
    """sha256 of every output file except manifest.json (it holds a wall time)."""
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.iterdir())
        if p.name != "manifest.json"
    }


def same_outputs(first, now):
    if now == first:
        return []
    changed = sorted(k for k in set(first) | set(now) if first.get(k) != now.get(k))
    return [f"bytes: {', '.join(changed)} differ from the first pass"]


# ---------------------------------------------------------------------------
# Formats


def _read_table(path, header, rows):
    text = Path(path).read_text()
    if not text.endswith("\n"):
        raise CheckError(f"csv.rows: {Path(path).name} does not end in a newline")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        raise CheckError(f"csv.header: {Path(path).name} header {lines[0]!r}")
    if len(lines) - 1 != rows:
        raise CheckError(
            f"csv.rows: {Path(path).name} has {len(lines) - 1} rows, want {rows}"
        )
    try:
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        raise CheckError(f"csv.parse: {Path(path).name}: {exc}") from None
    if table.shape[1] != header.count(",") + 1 or not np.all(np.isfinite(table)):
        raise CheckError(f"csv.parse: {Path(path).name} has bad or non-finite cells")
    return table


def read_field(path, grid):
    """Values of a field CSV as an (ny, nx) image, after checking its layout."""
    (xmin, xmax, ymin, ymax), nx, ny = grid
    table = _read_table(path, FIELD_HEADER, nx * ny)
    gx, gy = np.meshgrid(np.linspace(xmin, xmax, nx), np.linspace(ymin, ymax, ny))
    if not (np.allclose(table[:, 0], gx.ravel(), rtol=0, atol=1e-12)
            and np.allclose(table[:, 1], gy.ravel(), rtol=0, atol=1e-12)):
        raise CheckError(f"csv.grid: {Path(path).name} points are not the row-major grid")
    return table[:, 2].reshape(ny, nx)


def check_pgm(path, img):
    """P2 grammar, the grid's dimensions, and linear min-to-max scaling of img."""
    name = Path(path).name
    tokens = Path(path).read_text().split()
    if len(tokens) < 4 or tokens[0] != "P2":
        return [f"pgm.grammar: {name} lacks the P2 header"]
    try:
        w, h, maxval = (int(t) for t in tokens[1:4])
        pix = np.array([int(t) for t in tokens[4:]])
    except ValueError:
        return [f"pgm.grammar: {name} has a non-integer token"]
    if (h, w) != img.shape or maxval != 255 or pix.size != w * h:
        return [f"pgm.grammar: {name} is {w}x{h}/{maxval} with {pix.size} pixels"]
    if pix.min() < 0 or pix.max() > maxval:
        return [f"pgm.grammar: {name} pixel outside [0, {maxval}]"]
    lo, hi = float(img.min()), float(img.max())
    want = (img - lo) / (hi - lo) * 255.0 if hi > lo else np.full(img.shape, 128.0)
    err = np.max(np.abs(pix.reshape(img.shape) - want))
    if err > 0.5 + 1e-6:
        return [f"pgm.scale: {name} is off the CSV's linear scaling by {err:.2f} levels"]
    return []


# ---------------------------------------------------------------------------
# MUSIC


def local_maxima(img, grid, top):
    """Grid points that beat all 8 neighbours, largest first."""
    (xmin, xmax, ymin, ymax), nx, ny = grid
    padded = np.pad(img, 1, constant_values=-np.inf)
    neigh = np.full(img.shape, -np.inf)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            if (dy, dx) != (1, 1):
                neigh = np.maximum(neigh, padded[dy:dy + ny, dx:dx + nx])
    ys, xs = np.nonzero(img > neigh)
    order = np.argsort(-img[ys, xs], kind="stable")[:top]
    return np.column_stack([np.linspace(xmin, xmax, nx)[xs[order]],
                            np.linspace(ymin, ymax, ny)[ys[order]]])


def music_problems(preset, img, grid, result):
    problems = []
    if preset in MUSIC_RANK and result.get("rank") != MUSIC_RANK[preset]:
        problems.append(f"music.rank: rank {result.get('rank')}, want {MUSIC_RANK[preset]}")
    if not np.all(img > 0):
        problems.append("music.values: indicator is not positive everywhere")
    centres = np.array(MUSIC_CENTRES[preset])
    peaks = local_maxima(img, grid, top=len(centres))
    if len(peaks) < len(centres):
        return problems + [f"music.peaks: {len(peaks)} local maxima, want {len(centres)}"]
    dist = np.hypot(*(peaks[:, None, :] - centres[None, :, :]).transpose(2, 0, 1))
    if dist.min(axis=0).max() > CELL or dist.min(axis=1).max() > CELL:
        problems.append(
            f"music.peaks: top maxima {peaks.round(4).tolist()} not within {CELL} "
            f"of centres {centres.tolist()}"
        )
    return problems


# ---------------------------------------------------------------------------
# Factorization method / MLSM


def fm_problems(preset, w, p, grid):
    (xmin, xmax, ymin, ymax), nx, ny = grid
    gx, gy = np.meshgrid(np.linspace(xmin, xmax, nx), np.linspace(ymin, ymax, ny))
    r = np.hypot(gx, gy).ravel()
    w = w.ravel()
    inside = r <= 1.0
    pred = w >= 0.5 * np.median(w[inside])
    jaccard = np.sum(pred & inside) / np.sum(pred | inside)
    ratio = w[r <= 0.8].mean() / w[(r >= 1.2) & (r <= 1.8)].mean()
    problems = []
    if not jaccard >= 0.5:
        problems.append(f"fm.jaccard: {jaccard:.3f} < 0.5")
    if not ratio >= 10.0:
        problems.append(f"fm.contrast: core/annulus {ratio:.2f} < 10")
    if preset == "figure6":
        rho = spearmanr(w, p.ravel()).statistic
        if not rho >= 0.9:
            problems.append(f"fm.spearman: Spearman(W, P) {rho:.3f} < 0.9")
    return problems


# ---------------------------------------------------------------------------
# Bayes


def exact_posterior(preset, seed):
    """Mean and sd of gamma under the exact Gaussian posterior.

    The model is linear-Gaussian in theta = (gamma, eta): readings
    u = B eta + complex noise of per-component sd delta, eta | gamma ~
    N(gamma 1, h^2 I), gamma ~ N(0, prior_sd^2).  Stacking real and imaginary
    parts (A = [Re B; Im B], y = [Re u; Im u]) gives precision
    Q = [[P/h^2 + 1/s^2, -1/h^2 1^T], [-1/h^2 1, A^T A/delta^2 + I/h^2]] and
    b = [0, A^T y/delta^2]; the posterior is N(Q^-1 b, Q^-1).  The readings
    are the run's input, regenerated from the same seed with the package's
    synthesize_readings; B comes from its design_matrix.
    """
    square = Rectangle(corner_min=(-0.2, -0.2), corner_max=(0.2, 0.2))
    scatterer = ScattererSpec(square, lambda x1, x2: np.asarray(x1, float) ** 2 + 2.0)
    readings = synthesize_readings(
        [scatterer], make_sensor_array(32, 1.0), 1.0, noise_frac=0.15,
        seed=BAYES_NOISE_SEED if seed is None else seed, rule_order=16,
    )
    a = BAYES_SUPPORT[preset]
    h = float(np.hypot(2 * a, 2 * a))  # the support's diameter
    model = make_bayes_model(Rectangle(corner_min=(-a, -a), corner_max=(a, a)), 1.0,
                             rule_order=3, h=h, prior_sd=PRIOR_SD)
    b_mat = design_matrix(model, readings)
    a_mat = np.vstack([b_mat.real, b_mat.imag])
    y = np.concatenate([readings.values.real, readings.values.imag])
    d2 = readings.delta**2
    p = a_mat.shape[1]
    q = np.zeros((p + 1, p + 1))
    q[0, 0] = p / h**2 + 1.0 / PRIOR_SD**2
    q[0, 1:] = q[1:, 0] = -1.0 / h**2
    q[1:, 1:] = a_mat.T @ a_mat / d2 + np.eye(p) / h**2
    rhs = np.concatenate([[0.0], a_mat.T @ y / d2])
    cov = np.linalg.inv(q)
    return float((cov @ rhs)[0]), float(np.sqrt(cov[0, 0]))


def batch_means_mcse(samples):
    """Monte Carlo standard error of the mean by overlapping batch means.

    Batches of n^(2/3) samples (608 of the 15 000 kept) are several times the
    chains' integrated autocorrelation time (up to ~120 on figure5), so the
    estimate is not biased low the way sqrt(n) batches are.
    """
    n = samples.size
    size = int(n ** (2.0 / 3.0))
    csum = np.concatenate([[0.0], np.cumsum(samples)])
    means = (csum[size:] - csum[:-size]) / size
    var = n * size / ((n - size) * (n - size + 1)) * np.sum((means - samples.mean()) ** 2)
    return float(np.sqrt(var / n))


def bayes_stats(preset, seed, chain_path):
    """(MH mean, MH sd, MCSE, exact mean, exact sd) from a chain.csv."""
    table = _read_table(chain_path, CHAIN_HEADER, BAYES_ITERATIONS)
    if not np.array_equal(table[:, 0], np.arange(BAYES_ITERATIONS)):
        raise CheckError("csv.rows: chain.csv iterations are not 0..N-1")
    samples = table[BAYES_BURN_IN:, 1]
    exact_mean, exact_sd = exact_posterior(preset, seed)
    return (float(samples.mean()), float(samples.std(ddof=1)),
            batch_means_mcse(samples), exact_mean, exact_sd)


def bayes_problems(preset, seed, run_dir):
    mean, sd, mcse, exact_mean, exact_sd = bayes_stats(preset, seed, run_dir / "chain.csv")
    problems = []
    z = abs(mean - exact_mean) / mcse
    if not z <= MAX_Z:
        problems.append(
            f"bayes.mean: MH mean {mean:.4f} is {z:.1f} MCSE from exact {exact_mean:.4f}"
        )
    if not abs(sd / exact_sd - 1.0) <= 0.2:
        problems.append(f"bayes.sd: MH sd {sd:.4f} vs exact {exact_sd:.4f}")
    summary = json.loads((run_dir / "summary.json").read_text())
    for key, value in (("mean", mean), ("sd", sd)):
        got = summary.get(key)
        if not (isinstance(got, float) and abs(got - value) <= 1e-9 * abs(value)):
            problems.append(f"bayes.summary: summary.json {key} {got!r} vs chain {value!r}")
    return problems


# ---------------------------------------------------------------------------


def check_outputs(run, seed, run_dir, result):
    """Every oracle and format check for one preset run's output directory."""
    run_dir = Path(run_dir)
    kind = kind_of(run.preset)
    present = {p.name for p in run_dir.iterdir()} if run_dir.is_dir() else set()
    if present != EXPECTED_FILES[kind]:
        return [f"files: wrote {sorted(present)}, want {sorted(EXPECTED_FILES[kind])}"]
    try:
        json.loads((run_dir / "manifest.json").read_text())
        if kind == "bayes":
            return bayes_problems(run.preset, seed, run_dir)
        grid = grid_of(run)
        img = read_field(run_dir / "field.csv", grid)
        problems = check_pgm(run_dir / "field.pgm", img)
        if kind == "music":
            return problems + music_problems(run.preset, img, grid, result)
        companion = read_field(run_dir / "mlsm.csv", grid)
        problems += check_pgm(run_dir / "mlsm.pgm", companion)
        return problems + fm_problems(run.preset, img, companion, grid)
    except CheckError as exc:
        return [str(exc)]
    except json.JSONDecodeError as exc:
        return [f"json: {exc}"]
