"""A tiny run of each workload, traced and untraced."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads
from perfbench.run import ROOT


def small(name, monkeypatch):
    if name == "tables":
        monkeypatch.setattr(workloads, "TABLE_SIZES", (40, 60, 90))
        monkeypatch.setattr(workloads, "TABLE_DRAWS", 300)
    workload = workloads.make(name, 1)
    if name == "pairs":
        workload.records = workload.records[:5]
        workload.pass_items = 5
    if name == "choice-remote":
        workload.records = workload.records[:4]
        workload.pass_items = 4
        workload.fake.latency_s = 0.0
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(name, trace, monkeypatch, tmp_path):
    workload = small(name, monkeypatch)
    spans = tmp_path / "spans.jsonl"
    result, report = run.run(workload, 0.0, trace, [(0.5, 0.0025)], spans_path=spans)
    assert result["correct"], report["quality"]
    assert result["failed"] == 0 and result["attempted"] >= workload.pass_items
    assert set(result["metrics"]) == set(run.declared_units(trace))
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert report["detail"]["inputs"] == workload.pass_items
    if trace:
        rows = [json.loads(line) for line in spans.read_text().splitlines()]
        assert {"name", "start", "end", "parent", "item"} <= set(rows[0])
        layer_self = sum(v["value"] for k, v in result["metrics"].items()
                         if k.endswith(".self_s") or k == "backends.remote.wait_s")
        assert layer_self == pytest.approx(result["metrics"]["trace.item_s"]["value"])


def test_remote_counts_match_the_requests_served(monkeypatch):
    workload = small("choice-remote", monkeypatch)
    result, report = run.run(workload, 0.0, 1, [(0.5, 0.0025)])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert report["workload"] == "choice-remote"
    # one request per sample or score call, none retried, one at a time
    assert m["backends.remote.requests"] == m["backends.sample.calls"] + m["backends.score.calls"]
    assert m["backends.remote.requests"] == sum(workload.fake.by_path.values())
    assert m["backends.remote.retries"] == 0
    assert m["backends.remote.max_in_flight"] == 1
    # two compares per record, one curve per compare
    assert m["core.distance_curve.calls"] == m["bench.pair_score.calls"] == 8


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairs", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
