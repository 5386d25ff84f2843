"""The committed BENCH_<n>.json files: a small schema, and summaries that
agree with the benchmark records they summarise."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
METRICS = ("setup_s", "pass_s_mean", "peak_rss_mb", "ok_frac")
SIDES = ("parent", "change")


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_schema(path):
    bench = json.loads(path.read_text())
    assert bench["schema"] == 1
    assert len(bench["commits"]["parent"]) == 40
    assert set(bench["commits"]) == set(SIDES)
    for key in ("cpu_model", "nproc", "python", "numpy", "blas", "blas_threads"):
        assert key in bench["host"]
    for side in SIDES:
        tier1 = bench["tier1"][side]
        assert tier1["passed"] > 0
        assert tier1["wall_s"] and min(tier1["wall_s"]) > 0.0
    assert bench["claim"]["workload"] in bench["workloads"]
    assert bench["claim"]["metric"] in METRICS
    for workload in bench["workloads"].values():
        pairs = workload["pairs"]
        assert len(pairs) >= 5  # the median of at least 5 repeats
        assert len({pair["seed"] for pair in pairs}) == len(pairs)
        for pair in pairs:
            for side in SIDES:
                run = pair[side]
                assert set(run["metrics"]) == set(METRICS)
                assert run["pass_s"] and min(run["pass_s"]) > 0.0
                assert run["attempted"] > 0 and run["failed"] >= 0
        for side in SIDES:
            for name in METRICS:
                median = statistics.median(pair[side]["metrics"][name] for pair in pairs)
                assert workload["median"][side][name] == pytest.approx(median, abs=1e-6)
        faster = sum(p["change"]["metrics"]["pass_s_mean"] < p["parent"]["metrics"]["pass_s_mean"]
                     for p in pairs)
        assert workload["change_faster_pairs"] == faster
