"""The nearscat benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads are defined in ``workloads.py``; every output is checked
by ``checks.py``.  Metric names, units and bounds are listed in
``BENCHMARK.json``; the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh interpreters of the time to
               `import nearscat.cli`, one started after every pass (outside
               the timed region), so the samples span the whole run
  pass_s_mean  mean wall time of a timed pass (warm-up excluded), i.e. the
               timed seconds over the passes made in them.  The host's speed
               swings by up to 1.6x on a 10-30 s scale; the mean weighs those
               phases in proportion, where the median jumps between them
  peak_rss_mb  ru_maxrss of a fresh process that ran one pass
  ok_frac      share of attempted preset runs that neither raised nor
               failed a check
--trace 1 reports the per-layer metrics: untimed passes in this process for
half the time, then two traced child processes for a quarter each.  Per-pass
medians are reported; counts must agree exactly across every traced pass.

A result file with the host and input record, every sample and every problem
found is written to .bench_out/.  `python3 perfbench/selftest.py` shows that
the output checks accept good outputs and reject corrupted ones.  Exit code 0 means the run was measured
(`correct` says whether the outputs passed); any other code means it could
not be, for instance because src/nearscat is missing.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
BLAS_THREADS = "1"  # one process, one BLAS thread: the steadiest load on a shared host

# Before numpy loads, in this process and every child it starts.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS
os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
sys.path[:0] = [str(SRC), str(HERE)]


def child(*args, timeout=170):
    """Run child.py in a fresh interpreter; returns its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_record():
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "cpu_model": cpu or platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
    }


def end_to_end(workload, seed, seconds, work_dir):
    from workloads import WORKLOADS, measure

    rss = child("rss", workload, seed, work_dir / "rss")

    import nearscat.cli as cli

    setup = []
    log = measure(cli, WORKLOADS[workload], seed, work_dir / "main", seconds, min_passes=3,
                  on_pass=lambda n, out_dir: setup.append(child("setup")["import_s"]))
    attempted = log.attempted + len(WORKLOADS[workload])
    failed = log.failed + len(rss["errors"])
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s_mean": statistics.fmean(log.pass_s),
        "peak_rss_mb": rss["maxrss_kb"] / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    samples = {"setup_s": setup, "pass_s": log.pass_s}
    problems = [f"rss child: {e}" for e in rss["errors"]] + log.problems
    return metrics, samples, attempted, failed, problems


def per_layer(workload, seed, seconds, work_dir):
    from tracer import EXACT
    from workloads import WORKLOADS, measure

    import nearscat.cli as cli

    log = measure(cli, WORKLOADS[workload], seed, work_dir / "main", seconds / 2,
                  min_passes=3)
    attempted, failed, problems = log.attempted, log.failed, list(log.problems)
    traced = []
    for k in (1, 2):
        spans = OUT / f"spans-{workload}-seed{seed}-{k}.json"
        res = child("trace", workload, seed, work_dir / f"trace{k}", seconds / 4, spans)
        attempted += res["attempted"]
        failed += res["failed"]
        problems += [f"traced run {k}: {p}" for p in res["problems"]]
        traced.append(res)
    passes = [m for res in traced for m in res["metrics"]]
    for name in EXACT:
        values = sorted({m[name] for m in passes})
        if len(values) > 1:
            problems.append(f"trace.exact: {name} differs across traced passes: {values}")
    metrics = {name: statistics.median(m[name] for m in passes) for name in passes[0]}
    metrics.update({name: passes[0][name] for name in EXACT})
    traced_s = [s for res in traced for s in res["pass_s"]]
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(log.pass_s)
    samples = {"pass_s": log.pass_s, "traced_pass_s": traced_s, "per_pass": passes}
    return metrics, samples, attempted, failed, problems


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        measure_fn = per_layer if args.trace else end_to_end
        metrics, samples, attempted, failed, problems = measure_fn(
            args.workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": [asdict(r) for r in WORKLOADS[args.workload]],
        "host": host_record(),
        "result": result,
        "samples": samples,
        "problems": problems,
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"passes timed: {len(samples['pass_s'])}; record: {path.relative_to(ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    if not (SRC / "nearscat" / "cli.py").is_file():
        sys.exit(f"{SRC / 'nearscat'} not found: run from the root of a nearscat checkout")
    main()
