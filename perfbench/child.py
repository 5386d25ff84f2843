"""Fresh-interpreter measurements that run.py starts one at a time.

    python3 perfbench/child.py setup
        time `import nearscat.cli`; prints {"import_s": ...}
    python3 perfbench/child.py rss   WORKLOAD SEED WORK_DIR
        run one pass of the workload; prints {"maxrss_kb": ...}
    python3 perfbench/child.py trace WORKLOAD SEED WORK_DIR SECONDS SPANS_FILE
        install the tracer, make a warm-up pass and traced passes for SECONDS,
        write every span to SPANS_FILE; prints the per-pass metrics

run.py puts the package's source directory on PYTHONPATH and fixes the
BLAS thread count in the environment.  The last stdout line is JSON.
"""

import json
import sys
import time


def setup():
    t0 = time.perf_counter()
    import nearscat.cli  # noqa: F401

    return {"import_s": time.perf_counter() - t0}


def rss(workload, seed, work_dir):
    import resource
    from pathlib import Path

    import nearscat.cli as cli
    from workloads import WORKLOADS, run_pass

    _, outcomes = run_pass(cli, WORKLOADS[workload], seed, Path(work_dir))
    errors = [repr(o) for o in outcomes if isinstance(o, Exception)]
    return {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "errors": errors}


def trace(workload, seed, work_dir, seconds, spans_file):
    from pathlib import Path

    import nearscat.cli as cli
    from tracer import Tracer, pass_metrics
    from workloads import WORKLOADS, measure

    tracer = Tracer()
    tracer.install()
    spans, per_pass = [], []

    def on_pass(index, out_dir):
        records = tracer.take(index)
        if index == 0:  # warm-up
            return
        spans.extend(records)
        other = sum(p.stat().st_size for p in out_dir.rglob("*")
                    if p.is_file() and p.name != "manifest.json")
        per_pass.append(pass_metrics(records, other))

    log = measure(cli, WORKLOADS[workload], seed, Path(work_dir), seconds,
                  min_passes=2, on_pass=on_pass)
    Path(spans_file).write_text(json.dumps(spans))
    return {"pass_s": log.pass_s, "metrics": per_pass, "attempted": log.attempted,
            "failed": log.failed, "problems": log.problems}


def main(argv):
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        out = setup()
    elif mode == "rss":
        workload, seed, work_dir = args
        out = rss(workload, int(seed), work_dir)
    elif mode == "trace":
        workload, seed, work_dir, seconds, spans_file = args
        out = trace(workload, int(seed), work_dir, float(seconds), spans_file)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
