"""Smoke tests of the benchmark harness on tiny corpora (a few dozen accounts, 2 days)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, tracer, worker
from perfbench.workloads import WORKLOADS, config_text

# each workload's shape, shrunk: same topology and rates, a few dozen accounts
TINY = {
    "two_block_polarized": dict(days=2, humans_per_block=20, bots_per_block=4),
    "planted_bot_retweet": dict(days=2, n_bots=4, n_humans=30),
}


def _tiny(workload) -> dict:
    return TINY[workload.spec["topology"]]


def _package_bindings() -> dict:
    from botimpact.graph import DirectedGraph

    owners = tracer._package_modules() + [DirectedGraph]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_reports_every_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 2)  # one untraced and one traced pass
    workload = WORKLOADS[name]
    record = run.run_workload(workload, 11, 0, True, tmp_path, _tiny(workload))
    assert record["failed_stage_frac"] == 0, record["passes"]
    assert record["correct"]
    assert [p["traced"] for p in record["passes"]] == [False, True]
    for kind, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        line = run.summary_line({**record, "trace": kind})
        assert line["attempted"] == 10 and line["failed"] == 0
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {n: u for n, u, _ in table}
    assert record["digests"]["tree"] and record["digests"]["files"]["report.txt"]
    results = tmp_path / "results"
    assert (results / f"{name}-seed11-trace1.json").exists()
    assert (results / f"{name}-seed11-trace1-pass1.spans.jsonl").stat().st_size > 0


def _tiny_corpus(tmp_path: Path, monkeypatch) -> Path:
    from botimpact.synth import generate

    workload = WORKLOADS["polarized-1k"]
    generate(workload.synth_spec(3, **_tiny(workload)), tmp_path / "corpus")
    (tmp_path / "run.cfg").write_text(config_text(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_traced_pass_restores_every_binding(tmp_path, monkeypatch):
    _tiny_corpus(tmp_path, monkeypatch)
    before = _package_bindings()
    result = worker.run_pass("run.cfg", tmp_path / "spans.jsonl")
    assert result["leftover_wrappers"] == []
    assert tracer.leftover_wrappers() == []
    after = _package_bindings()  # the pass may import further modules; compare the old ones
    assert {key: after[key] for key in before} == before
    assert all(stage["error"] is None for stage in result["stages"].values())
    assert result["layers"]["calls"]["pipeline.stage_build"] == 1
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_untraced_pass_installs_nothing(tmp_path, monkeypatch):
    _tiny_corpus(tmp_path, monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("untraced pass installed a wrapper")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    result = worker.run_pass("run.cfg")
    assert all(stage["error"] is None for stage in result["stages"].values())
    assert "layers" not in result


def test_worker_reports_a_crashed_pass_and_exits(tmp_path):
    worker_ = run.Worker(tmp_path)  # no run.cfg here, so the pass raises
    try:
        p = worker_.run_pass(tmp_path / "pass-0.json", None)
    finally:
        worker_.close()
    assert p["crashed"]
    assert "config file not found" in p["stages"]["build"]["error"]
    assert worker_.proc.returncode == 0


def test_self_time_excludes_wrapped_children(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: clock[0])
    t = tracer.Tracer()

    def items():
        for _ in range(3):
            clock[0] += 0.5
            yield None

    gen = t.wrap_generator("gen", items, "gen.items")

    def child():
        clock[0] += 2.0
        for _ in gen():
            clock[0] += 1.0  # consumer time stays with the child

    wrapped_child = t.wrap("child", child)

    def parent():
        clock[0] += 1.0
        wrapped_child()
        clock[0] += 1.0

    t.wrap("parent", parent)()
    assert t.self_s == {"parent": 2.0, "child": 5.0, "gen": 1.5}
    assert t.counts["gen.items"] == 3
    assert t.calls == {"parent": 1, "child": 1, "gen": 1}


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == table


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "polarized-1k", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
