"""Self-test of the benchmark, on tiny runs of every workload.

    python3 -m pytest perfbench -q        (from the repository root)
"""
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import refs  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def tiny(workload, trace=False, seed=3):
    return bench.run(workload, seed, 0.05, trace, ROOT, tiny=True)["result"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_passes_and_reports_every_metric(workload):
    r = tiny(workload)
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    assert set(r["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in r["metrics"].values())


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_planted_tangle_error_counts_as_failed(monkeypatch):
    real = refs.tangle_set

    def off_by_1e3(s):
        ref = real(s)
        ref["tau_abc"] += 1e-3
        return ref

    monkeypatch.setattr(refs, "tangle_set", off_by_1e3)
    r = tiny("invariant-sweep")
    assert not r["correct"]
    assert r["failed"] == r["attempted"] > 0
    assert r["metrics"]["main_per_s"]["value"] == 0.0
    assert r["metrics"]["second_per_s"]["value"] == 0.0


def test_throughput_counts_passed_operations_only():
    m = harness.Margins()

    def op(passes):
        def run(api):
            time.sleep(0.005)
            return passes

        return harness.Op("main", "synthetic", run,
                          lambda out: m.expect("fs", out, "planted failure"))

    tally = harness.Tally()
    harness.drive(iter([[op(True), op(False)]] * 4), None, 60.0, tally)
    assert (tally.attempted, tally.failed) == (8, 4)
    assert [u for u, _ in tally.rounds["main"]] == [1] * 4
    # one passed operation per ~10 ms of busy time, not two
    assert harness.rate(tally.rounds["main"]) == pytest.approx(100.0, rel=0.3)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert harness.tail(range(100)) == (90.0, 89)
    assert harness.tail(range(12)) == (100.0, 11)


def test_traced_run_reports_every_per_layer_metric():
    r = tiny("gate-synthesis", trace=True)
    assert r["correct"]
    assert set(r["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert r["metrics"]["gates.apply.us_p50"]["value"] > 0
    assert r["metrics"]["cli.analyze.s_p50"]["value"] > 0
    assert r["metrics"]["probe.cli_nan.accepted"]["unit"] == "count"


def test_refuses_to_run_without_sources():
    bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        p = subprocess.run([*SPEC["command"], "--workload", "invariant-sweep", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0
    assert p.stdout == ""
