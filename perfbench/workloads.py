"""The benchmark's workloads and the loop that runs and checks their passes.

A workload is an ordered list of preset runs.  One *pass* executes every run
once, in order, through the public entry point ``nearscat.cli.run``.  Each
pass writes into a fresh directory; the first pass of a process is untimed
(warm-up) and its outputs go through every oracle check in ``checks``.  Every
later pass must write byte-identical outputs (``manifest.json`` excepted),
and then the oracle verdict of the first pass carries over to it.
"""

import shutil
import time
import traceback
from dataclasses import dataclass, field

from checks import check_outputs, digests, same_outputs


@dataclass
class Run:
    preset: str


# Why each workload exists (see BENCHMARK.json for the one-line form):
#   imaging   figure1-3 (Born forward model + MUSIC, 32 sensors) then
#             figure6-7 (disk series, N-sharp, FM and MLSM, 64 sensors), all on
#             101x101 grids: every imaging layer.  figure6-7 build their
#             64x10201 steering matrix twice per run, figure1-3 once, so
#             "build it once" shows in the sampling counts.
#   bayes-mh  two 20 000-step MH chains: the Python MH loop dominates and
#             imaging code barely runs, so it is the control both ways.
WORKLOADS = {
    "imaging": (Run("figure1"), Run("figure2"), Run("figure3"),
                Run("figure6"), Run("figure7")),
    "bayes-mh": (Run("figure4"), Run("figure5")),
}


@dataclass
class PassLog:
    """Timings and verdicts of the passes made by one process."""

    pass_s: list = field(default_factory=list)  # timed passes only
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def run_pass(cli, runs, seed, out_dir):
    """Execute one pass; returns (wall seconds, per-run results or exceptions)."""
    outcomes = []
    t0 = time.perf_counter()
    for i, r in enumerate(runs):
        try:
            res = cli.run(preset=r.preset, out_dir=out_dir / f"{i}-{r.preset}",
                          seed=seed)
        except Exception as exc:  # a failed run is counted, not fatal
            res = exc
        outcomes.append(res)
    return time.perf_counter() - t0, outcomes


def measure(cli, runs, seed, work_dir, seconds, min_passes, on_pass=None):
    """Warm-up pass (fully checked), then timed passes for `seconds`.

    A pass starts only if one more pass as long as the last one ends within
    `seconds`, unless fewer than `min_passes` were timed.  `on_pass(index,
    out_dir)` is called after every pass (index 0 is the warm-up), outside
    the timed region, before its outputs are deleted.
    """
    log = PassLog()
    first, first_ok = None, []
    n = 0
    deadline = wall = None
    while (deadline is None or len(log.pass_s) < min_passes
           or time.perf_counter() + wall <= deadline):
        out_dir = work_dir / f"pass{n}"
        wall, outcomes = run_pass(cli, runs, seed, out_dir)
        for i, (r, res) in enumerate(zip(runs, outcomes)):
            run_dir = out_dir / f"{i}-{r.preset}"
            tag = f"pass {n} run {i} ({r.preset})"
            if isinstance(res, Exception):
                problems = ["raised " + "".join(traceback.format_exception(res))]
            elif first is None:
                problems = check_outputs(r, seed, run_dir, res)
            else:
                problems = same_outputs(first[i], digests(run_dir))
                if not (problems or first_ok[i]):
                    problems = ["same outputs as the first pass, which failed its checks"]
            if first is None:
                first_ok.append(not problems)
            log.attempted += 1
            if problems:
                log.failed += 1
                log.problems.extend(f"{tag}: {p}" for p in problems)
        if first is None:
            first = [digests(out_dir / f"{i}-{r.preset}") for i, r in enumerate(runs)]
            deadline = time.perf_counter() + seconds
        else:
            log.pass_s.append(wall)
        if on_pass is not None:
            on_pass(n, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        n += 1
    return log
