"""Self-test of the output checks: they accept good outputs and reject bad ones.

    python3 perfbench/selftest.py

Runs every preset of every workload with the presets' own seeds and with one
other seed, and requires `checks.check_outputs` to find no problem.  Then it
corrupts copies of the default-seed outputs and requires the named check to
fire on each: a MUSIC peak shifted by two cells, an FM field flipped
(W -> max + min - W), a gamma chain shifted by 5 exact posterior sd, a CSV
with its last row cut off, and a pass whose bytes differ from the first.
Prints one PASS/FAIL line per case and exits 1 if any case fails.
"""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import nearscat.cli as cli  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402

OTHER_SEED = 7


def rewrite_column(path, column, fn):
    """Replace one CSV column by fn(old values), keeping the other cells' text."""
    lines = path.read_text().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    new = fn(np.array([float(r[column]) for r in rows]))
    for r, v in zip(rows, new):
        r[column] = repr(float(v))
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def write_pgm(path, img):
    lo, hi = img.min(), img.max()
    pix = np.rint((img - lo) / (hi - lo) * 255.0).astype(int)
    rows = [" ".join(map(str, row)) for row in pix]
    path.write_text("\n".join(["P2", f"{img.shape[1]} {img.shape[0]}", "255", *rows]) + "\n")


def shift_peak(run_dir, run):
    grid = checks.grid_of(run)
    img = np.roll(checks.read_field(run_dir / "field.csv", grid), 2, axis=1)
    rewrite_column(run_dir / "field.csv", 2, lambda _: img.ravel())
    write_pgm(run_dir / "field.pgm", img)


def flip_fm(run_dir, run):
    rewrite_column(run_dir / "field.csv", 2, lambda w: w.max() + w.min() - w)
    write_pgm(run_dir / "field.pgm", checks.read_field(run_dir / "field.csv",
                                                       checks.grid_of(run)))


def shift_chain(run_dir, run):
    _, sd = checks.exact_posterior(run.preset, None)
    rewrite_column(run_dir / "chain.csv", 1, lambda g: g + 5.0 * sd)


def truncate_csv(run_dir, run):
    path = run_dir / "field.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


CORRUPTIONS = (
    ("shifted MUSIC peak", Run("figure1"), shift_peak, "music.peaks"),
    ("flipped FM field", Run("figure6"), flip_fm, "fm.jaccard"),
    ("gamma chain + 5 sd", Run("figure4"), shift_chain, "bayes.mean"),
    ("truncated CSV", Run("figure1"), truncate_csv, "csv.rows"),
)


def report(ok, what, problems):
    print(f"{'PASS' if ok else 'FAIL'} {what}" + (f": {problems}" if problems else ""))
    return ok


def main():
    work = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    ok = True
    good = {}
    for seed in (None, OTHER_SEED):
        for name, runs in WORKLOADS.items():
            for i, run in enumerate(runs):
                run_dir = work / f"seed{seed}" / f"{name}-{i}-{run.preset}"
                result = cli.run(preset=run.preset, out_dir=run_dir, seed=seed)
                problems = checks.check_outputs(run, seed, run_dir, result)
                ok &= report(not problems, f"accepts {name}/{run.preset} seed={seed}",
                             problems)
                if seed is None:
                    good[run.preset] = (run_dir, result)

    for what, run, corrupt, tag in CORRUPTIONS:
        src, result = good[run.preset]
        bad = work / "corrupt" / tag
        shutil.copytree(src, bad)
        corrupt(bad, run)
        problems = checks.check_outputs(run, None, bad, result)
        fired = any(p.startswith(tag + ":") for p in problems)
        ok &= report(fired, f"rejects {what} ({tag})", problems)

    src, _ = good["figure1"]
    bad = work / "corrupt" / "bytes"
    shutil.copytree(src, bad)
    truncate_csv(bad, Run("figure1"))
    problems = checks.same_outputs(checks.digests(src), checks.digests(bad))
    ok &= report(bool(problems) and problems[0].startswith("bytes:"),
                 "rejects a pass whose bytes differ from the first (bytes)", problems)

    shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
