"""Indicator-field container and CSV/PGM format tests."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nearscat
from nearscat import bayes, cli, fields
from nearscat.errors import DomainError
from nearscat.fields import (
    IndicatorField,
    _g17,
    write_chain_csv,
    write_field_csv,
    write_field_pgm,
)
from nearscat.geometry import SamplingGrid, make_grid
from nearscat.sampling import SENTINEL_CAP

from reference import (
    argmax_point,
    expand_runs,
    grid_points,
    local_maxima,
    read_field_csv,
    write_chain_csv_rows,
    write_field_csv_rows,
)


def small_field():
    grid = make_grid((0.0, 1.0, 0.0, 1.0), 2, 2)
    return IndicatorField(grid=grid, values=np.array([0.0, 1.0, 2.0, 3.0]))


def test_as_image_row_major():
    fld = small_field()
    assert np.array_equal(fld.as_image(), [[0.0, 1.0], [2.0, 3.0]])


def test_argmax_point():
    fld = small_field()
    assert np.allclose(argmax_point(fld), [1.0, 1.0])


def test_csv_roundtrip(tmp_path):
    grid = make_grid((-0.3, 0.7, 0.1, 0.9), 4, 3)
    rng = np.random.default_rng(40)
    fld = IndicatorField(grid=grid, values=rng.uniform(0, 5, 12))
    path = tmp_path / "field.csv"
    write_field_csv(fld, path)
    txt = path.read_text().splitlines()
    assert txt[0] == "x,y,value"
    back = read_field_csv(path)
    assert np.array_equal(back[:, :2], grid_points(grid))
    assert np.array_equal(back[:, 2], fld.values)


def test_pgm_linear_scale(tmp_path):
    fld = small_field()
    path = tmp_path / "f.pgm"
    write_field_pgm(fld, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    pixels = [int(v) for row in lines[3:] for v in row.split()]
    assert pixels == [0, 85, 170, 255]


def test_pgm_constant_field_midgray(tmp_path):
    grid = make_grid((0, 1, 0, 1), 2, 2)
    fld = IndicatorField(grid=grid, values=np.full(4, 7.0))
    path = tmp_path / "c.pgm"
    write_field_pgm(fld, path)
    pixels = [int(v) for row in path.read_text().splitlines()[3:] for v in row.split()]
    assert pixels == [128, 128, 128, 128]


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_pgm_rejects_non_finite_fields(tmp_path, bad):
    # inf used to cast to a negative pixel, nan to an all-128 picture
    grid = make_grid((0, 1, 0, 1), 2, 2)
    fld = IndicatorField(grid=grid, values=np.array([0.0, 1.0, 2.0, bad]))
    with pytest.raises(DomainError, match="1 non-finite value"):
        write_field_pgm(fld, tmp_path / "f.pgm")
    assert not (tmp_path / "f.pgm").exists()


def reference_csv(fld):
    lines = ["x,y,value"]
    for (x, y), v in zip(grid_points(fld.grid), fld.values):
        lines.append(f"{x:.17g},{y:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"


def reference_pgm(fld):
    img = fld.as_image()
    lo, hi = float(np.min(img)), float(np.max(img))
    lines = ["P2", f"{img.shape[1]} {img.shape[0]}", "255"]
    for row in img:
        if hi > lo:
            pixels = (int(np.rint((v - lo) / (hi - lo) * 255.0)) for v in row)
        else:
            pixels = (128 for _ in row)
        lines.append(" ".join(str(p) for p in pixels))
    return "\n".join(lines) + "\n"


def _mixed_values():
    values = np.random.default_rng(41).normal(0.0, 1e3, 35)
    values[[0, 5, 9, 17, 34]] = [SENTINEL_CAP, 1e-300, 0.0, -1e-300, -SENTINEL_CAP]
    return values


@pytest.mark.parametrize(
    "values",
    [
        _mixed_values(),
        np.where(np.arange(35) == 12, 5e-324, 1e-300),
        np.full(35, -2.5),
        np.full(35, SENTINEL_CAP),
    ],
    ids=["mixed", "subnormal", "constant", "all-capped"],
)
def test_writers_match_per_cell_reference(tmp_path, values):
    fld = IndicatorField(grid=make_grid((-0.9, 1.0 / 3.0, -1.8, 1e-7), 7, 5), values=values)
    write_field_csv(fld, tmp_path / "f.csv")
    write_field_pgm(fld, tmp_path / "f.pgm")
    assert (tmp_path / "f.csv").read_text() == reference_csv(fld)
    assert (tmp_path / "f.pgm").read_text() == reference_pgm(fld)


def thin_grid(nx, ny):
    """A grid one or two cells wide; make_grid stops at two, the writers do not."""
    return SamplingGrid(np.linspace(-0.9, 1.0 / 3.0, nx), np.linspace(-1.8, 1e-7, ny))


THIN = [(2, 9), (9, 2), (1, 9), (9, 1)]


@pytest.mark.parametrize("nx, ny", THIN)
def test_csv_matches_per_cell_reference_on_thin_grids(tmp_path, nx, ny):
    values = np.random.default_rng(42).normal(0.0, 1e3, nx * ny)
    fld = IndicatorField(grid=thin_grid(nx, ny), values=values)
    write_field_csv(fld, tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_text() == reference_csv(fld)


@pytest.mark.parametrize("nx, ny", THIN)
def test_pgm_matches_per_cell_reference_on_thin_grids(tmp_path, nx, ny):
    values = np.random.default_rng(42).normal(0.0, 1e3, nx * ny)
    fld = IndicatorField(grid=thin_grid(nx, ny), values=values)
    write_field_pgm(fld, tmp_path / "f.pgm")
    assert (tmp_path / "f.pgm").read_text() == reference_pgm(fld)


def reference_chain_csv(gamma, logpost):
    lines = ["iteration,gamma,log_post"]
    for it, (g, lp) in enumerate(zip(gamma, logpost)):
        lines.append(f"{it},{g:.17g},{lp:.17g}")
    return "\n".join(lines) + "\n"


_NAN = float("nan")


def _runs(lengths, gamma, logpost, n=None):
    """((run_start, run_gamma, run_logpost), n): an n-step chain of runs of
    the given lengths, cut to the runs that start before step n, the last
    of which runs on to step n."""
    starts = np.cumsum(lengths) - lengths
    n = int(np.sum(lengths)) if n is None else n
    keep = starts < n
    return (starts[keep], np.asarray(gamma)[keep], np.asarray(logpost)[keep]), n


@pytest.mark.parametrize(
    "lengths, gamma, logpost",
    [
        ([3, 2, 2], [1.5, 2.0, 1.5], [-3.0, -2.5, -3.0]),
        ([1, 1, 1], [0.1, 0.2, 0.2], [_NAN, _NAN, -7.0]),
        ([1], [0.1], [-2.0]),
        ([1] * 12, [0.1, 0.2] * 6, [-1e-300, -5e-324] * 6),
        ([], [], []),
    ],
    ids=["repeats", "nan-run-logpost", "one-row", "alternating", "empty"],
)
def test_chain_csv_matches_per_row_reference(tmp_path, lengths, gamma, logpost):
    runs, n = _runs(np.array(lengths, dtype=int), gamma, logpost)
    write_chain_csv(*runs, n, tmp_path / "chain.csv")
    want = reference_chain_csv(*expand_runs(n, *runs))
    assert (tmp_path / "chain.csv").read_text() == want


def _long_chain():
    """About 3,000 runs of 1-12 steps, one run longer than a write block,
    and NaN, signed-zero and infinite states among them."""
    rng = np.random.default_rng(43)
    lengths = rng.integers(1, 13, 3000)
    lengths[1000] = 4000
    gamma = rng.normal(0.0, 1.0, lengths.size)
    logpost = rng.normal(-50.0, 10.0, lengths.size)
    gamma[[7, 8, 300, 301]] = [_NAN, _NAN, 0.0, -0.0]
    logpost[[7, 300, 301, 302, 303, 1500]] = [_NAN, 0.0, -0.0, np.inf, -np.inf, _NAN]
    gamma[[302, 303]] = [np.inf, -np.inf]
    return _runs(lengths, gamma, logpost)


def test_chain_csv_matches_per_row_reference_across_blocks(tmp_path):
    runs, n = _long_chain()
    write_chain_csv(*runs, n, tmp_path / "chain.csv")
    got = (tmp_path / "chain.csv").read_text().splitlines()
    want = reference_chain_csv(*expand_runs(n, *runs)).splitlines()
    # the first differing line, not a diff of some 30,000 lines
    first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert first is None, f"line {first}: {got[first]!r} != {want[first]!r}"
    assert len(got) == len(want)


def assert_chain_csv_matches_rows_writer(tmp_path, runs, n):
    write_chain_csv(*runs, n, tmp_path / "chain.csv")
    write_chain_csv_rows(*expand_runs(n, *runs), tmp_path / "rows.csv")
    got = (tmp_path / "chain.csv").read_bytes()
    want = (tmp_path / "rows.csv").read_bytes()
    if got != want:
        # the first differing line, not a diff of up to a million lines
        pairs = zip(got.splitlines(), want.splitlines())
        i, (g, w) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        raise AssertionError(f"line {i}: {g!r} != {w!r}")


def _random_runs(size, seed):
    """A chain of `size` steps in runs of 1-12 repeated states."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 13, size // 6 + 1)
    gamma = rng.normal(1.0, 0.2, lengths.size)
    logpost = rng.normal(-40.0, 5.0, lengths.size)
    return _runs(lengths, gamma, logpost, size)


@pytest.mark.parametrize("size", [11, 10_001, 100_001, 1_000_001],
                         ids=["9-10", "9999-10000", "99999-100000", "999999-1000000"])
def test_chain_csv_matches_rows_writer_across_iteration_digits(tmp_path, size):
    assert_chain_csv_matches_rows_writer(tmp_path, *_random_runs(size, size))


@pytest.mark.parametrize("size", [1, fields._CHAIN_BLOCK - 1, fields._CHAIN_BLOCK,
                                  fields._CHAIN_BLOCK + 1, 2 * fields._CHAIN_BLOCK + 1])
def test_chain_csv_matches_rows_writer_about_a_block(tmp_path, size):
    assert_chain_csv_matches_rows_writer(tmp_path, *_random_runs(size, size))


def _every_step_accepts(n):
    # run 0, the start state, is empty: step 0 accepts, as does every step after it
    rng = np.random.default_rng(45)
    return _runs(np.array([0] + [1] * n), rng.normal(0.0, 1.0, n + 1),
                 rng.normal(-30.0, 3.0, n + 1))


@pytest.mark.parametrize(
    "chain",
    [
        _runs(np.array([0, 3, 1, 2]), [0.0, 0.5, 0.25, -0.125], [-10.0, -9.5, -9.25, -9.0]),
        _runs(np.array([2000, 100, 100]), [1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]),
        _every_step_accepts(fields._CHAIN_BLOCK + 7),
        _runs(np.array([2 * fields._CHAIN_BLOCK + 1]), [0.75], [-4.5]),
    ],
    ids=["empty-first-run", "run-across-a-block-edge", "every-step-accepts", "single-run"],
)
def test_chain_csv_from_runs_matches_rows_writer(tmp_path, chain):
    assert_chain_csv_matches_rows_writer(tmp_path, *chain)


def test_chain_csv_matches_rows_writer_on_special_values(tmp_path):
    special = [0.0, -0.0, _NAN, np.inf, -np.inf, 5e-324, -5e-324,
               1e300, -1e300, 1e-300, -1e-300]
    rng = np.random.default_rng(44)
    gamma = rng.choice(special, 400)
    logpost = rng.choice(special, 400)
    lengths = rng.integers(1, 5, 400)
    assert_chain_csv_matches_rows_writer(tmp_path, *_runs(lengths, gamma, logpost))


@pytest.mark.parametrize("preset", ["figure4", "figure5"])
@pytest.mark.parametrize("seed", [0, 7])
def test_chain_csv_matches_rows_writer_on_preset_chains(tmp_path, monkeypatch, preset, seed):
    original = bayes.run_mh
    summaries = []

    def capturing(model, readings):
        summaries.append(original(model, readings))
        return summaries[-1]

    monkeypatch.setattr(bayes, "run_mh", capturing)
    cli.run(preset=preset, out_dir=tmp_path / "run", seed=seed)
    (summary,) = summaries
    write_chain_csv_rows(*expand_runs(summary.chain_gamma.size, *summary.runs),
                         tmp_path / "rows.csv")
    assert (tmp_path / "run" / "chain.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


# ---------------------------------------------------------------------------
# The '%.17g' text kernel


def assert_g17_matches_printf(values):
    values = np.asarray(values, dtype=float)
    text = _g17(values)
    lines = np.concatenate([text, np.full((values.size, 1), ord("\n"), np.uint8)], axis=1)
    got = lines.tobytes().translate(None, b"\0").decode()
    want = "".join(map("{:.17g}\n".format, values.tolist()))
    if got != want:
        pairs = zip(values.tolist(), got.splitlines(), want.splitlines())
        value, g, w = next(p for p in pairs if p[1] != p[2])
        raise AssertionError(f"{value!r}: kernel {g!r}, '%.17g' {w!r}")


def _ulp_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def test_g17_random_bit_patterns():
    bits = np.random.default_rng(44).integers(0, 2**64, 1_050_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert values.size >= 10**6
    assert np.count_nonzero(values < 0) > 4 * 10**5
    assert np.count_nonzero(values > 0) > 4 * 10**5
    assert_g17_matches_printf(values)


def test_g17_powers_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_g17_matches_printf(np.concatenate([powers, -powers]))


def test_g17_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_g17_matches_printf(_ulp_neighbours(np.concatenate([powers, -powers])))


def test_g17_form_and_range_edges():
    # fixed form runs from 1e-4 to just below 1e17; 1e±250 bound the kernel's range
    edges = [1e-5, 1e-4, 1e16, 1e17, 1e-250, 1e250, 0.5, 1.0, 9.5, 99999999999999999.0]
    assert_g17_matches_printf(_ulp_neighbours(edges + [-e for e in edges]))


def test_g17_special_values():
    tiny = np.finfo(float).tiny
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310,
                np.nextafter(tiny, 0.0), tiny, -tiny, np.finfo(float).max, -np.finfo(float).max]
    assert_g17_matches_printf(specials)


def test_g17_exact_ties():
    # m / 2**k with m odd is m * 5**k / 10**k exactly: 18 significant digits
    # ending in 5 when 1e17 <= m * 5**k < 1e18, a tie for 17 digits
    rng = np.random.default_rng(45)
    ties = []
    for k in range(2, 26):
        lo, hi = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
        for m in rng.integers(lo, hi, 400).tolist():
            m |= 1
            if m * 5**k < 10**18:
                ties.append(m / 2**k)
    assert len(ties) > 8000
    assert_g17_matches_printf(np.concatenate([ties, np.negative(ties)]))


def test_g17_log_uniform_values():
    rng = np.random.default_rng(46)
    values = np.exp(rng.uniform(-700.0, 700.0, 200_000)) * rng.choice([-1.0, 1.0], 200_000)
    assert_g17_matches_printf(values)


def test_import_builds_no_text_tables():
    script = (
        "import sys, nearscat.cli\n"
        "from nearscat import fields\n"
        "print(fields._tables.cache_info().currsize, fields._pgm_cells.cache_info().currsize,"
        " 'fractions' in sys.modules, 'decimal' in sys.modules)\n"
    )
    src = Path(nearscat.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "False", "False"]


@pytest.mark.parametrize("preset", ["figure1", "figure2", "figure3", "figure6", "figure7"])
def test_csv_matches_row_template_on_preset_fields(tmp_path, monkeypatch, preset):
    written = []

    def both(fld, path):
        write_field_csv(fld, path)
        write_field_csv_rows(fld, path.with_suffix(".rows"))
        written.append(path)

    monkeypatch.setattr(cli, "write_field_csv", both)
    cli.run(preset=preset, out_dir=tmp_path)
    # a disk run's MLSM field is its FM field under `filter: null`: one CSV
    # is formatted, and mlsm.csv is a copy of its bytes
    assert written == [tmp_path / "field.csv"]
    assert written[0].read_bytes() == written[0].with_suffix(".rows").read_bytes()
    if preset in ("figure6", "figure7"):
        assert (tmp_path / "mlsm.csv").read_bytes() == written[0].read_bytes()


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("preset", ["figure1", "figure2", "figure3", "figure6", "figure7"])
def test_pgm_matches_per_cell_reference_on_preset_fields(tmp_path, monkeypatch, preset, seed):
    written = []

    def checked(fld, path):
        write_field_pgm(fld, path)
        written.append(path.read_text() == reference_pgm(fld))

    monkeypatch.setattr(cli, "write_field_pgm", checked)
    cli.run(preset=preset, out_dir=tmp_path, seed=seed)
    assert written == [True]


def test_pgm_ramp_hits_every_level(tmp_path):
    fld = IndicatorField(grid=thin_grid(256, 1), values=np.linspace(-3.0, 5.0, 256))
    write_field_pgm(fld, tmp_path / "f.pgm")
    text = (tmp_path / "f.pgm").read_text()
    assert text == reference_pgm(fld)
    assert text.splitlines()[3].split() == [str(v) for v in range(256)]


def test_pgm_scales_a_finite_range_wider_than_a_float(tmp_path):
    # max - min overflows to inf: the range is scaled through its halves
    # instead of writing the pixel -9223372036854775808
    fld = IndicatorField(grid=thin_grid(4, 1), values=np.array([-1e308, 0.0, 1.0, 1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_field_pgm(fld, tmp_path / "f.pgm")
    assert (tmp_path / "f.pgm").read_text() == "P2\n4 1\n255\n0 128 128 255\n"


def _fallback_values(size):
    """Values the kernel leaves to '%.17g': zeros, non-finite values,
    magnitudes beyond 1e±250 and exact ties."""
    pool = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-300, 1e300,
                     -1.7976931348623157e308, 2.0**-25, 4000000000000001 / 4])
    return pool[np.arange(size) % pool.size]


@pytest.mark.parametrize("block", [None, 4, 5])
@pytest.mark.parametrize("nx, ny", [(1, 9), (9, 1), (1, 1), (9, 7), (2, 9)])
@pytest.mark.parametrize("kind", ["normal", "fallback"])
def test_csv_matches_row_template_on_thin_grids_and_blocks(tmp_path, monkeypatch,
                                                           block, nx, ny, kind):
    # blocks of 4 or 5 values split the 9-wide rows and group the 1-wide ones
    if block is not None:
        monkeypatch.setattr(fields, "_TEXT_BLOCK", block)
    values = (np.random.default_rng(47).normal(0.0, 1e3, nx * ny) if kind == "normal"
              else _fallback_values(nx * ny))
    fld = IndicatorField(grid=thin_grid(nx, ny), values=values)
    write_field_csv(fld, tmp_path / "f.csv")
    write_field_csv_rows(fld, tmp_path / "rows.csv")
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_local_maxima_ordering():
    grid = make_grid((0, 4, 0, 4), 5, 5)
    values = np.zeros(25)
    values[6] = 3.0  # (1, 1)
    values[18] = 5.0  # (3, 3)
    fld = IndicatorField(grid=grid, values=values)
    pts, vals = local_maxima(fld, top=2)
    assert np.allclose(vals, [5.0, 3.0])
    assert np.allclose(pts[0], [3.0, 3.0])
    assert np.allclose(pts[1], [1.0, 1.0])
