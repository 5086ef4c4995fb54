"""Benchmark of the botimpact pipeline: stage times, layer times, detection quality.

    python3 perfbench/run.py --workload polarized-1k [--seed 11] [--seconds 50] [--trace 0]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Set-up generates the workload's synth corpus several
times; then a worker forks one fresh process per pass, which runs build ->
detect -> classify -> ghic -> report, until about ``--seconds`` have passed
(at least three passes), and every pass is checked.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``, where traced and untraced passes
alternate.  The full record, with the SHA-256 of every output file, goes to
``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 3
MIN_PASSES = 3
EXIT_WAIT_S = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STAGES = ("build", "detect", "classify", "ghic", "report")
QUALITY = ("bot_precision", "bot_recall", "bot_auc")

# name, unit, better
END_TO_END = [
    ("pipeline_s", "s", "lower"),
    ("tweets_per_s", "1/s", "higher"),
    *((f"{stage}_s", "s", "lower") for stage in STAGES),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    *((name, "ratio", "higher") for name in QUALITY),
]

_SPAN_SECONDS = [
    "ingest.load_tweets", "ingest.load_profiles", "ingest.build_follower_network",
    "ingest.build_daily_retweet_network",
    "graph.load_edge_list", "graph.save_edge_list", "graph.induced_subgraph",
    "botdetect.infer_bot_probabilities",
    "opinion.preprocess_wellposed", "opinion.assemble_system", "opinion.solve_equilibrium",
    "ghic.ghic", "ghic.daily_ghic_series",
    "accounts.build_account_records", "accounts.group_summary",
    "accounts.retweet_leaderboard", "accounts.follower_overlap",
    "accounts.co_partisan_fraction",
    "report.build_report",
    *(f"pipeline.stage_{stage}" for stage in STAGES),
]
_SPAN_CALLS = [
    "ingest.load_tweets", "graph.load_edge_list", "graph.induced_subgraph",
    "graph.add_interaction", "botdetect.infer_bot_probabilities", "ghic.ghic",
    "accounts.co_partisan_fraction",
]
_COUNTS = [
    ("ingest.tweets_yielded", "lower"), ("graph.edges_loaded", "lower"),
    ("botdetect.bp_iterations", "lower"), ("botdetect.factor_pairs", "lower"),
    ("botdetect.unconverged_days", "lower"),
    ("opinion.solves.dense", "lower"), ("opinion.solves.gmres", "lower"),
    ("opinion.gmres_iterations", "lower"), ("opinion.unknowns", "lower"),
    ("opinion.reclassified", "lower"), ("ghic.reverted", "lower"),
    ("ghic.skipped_days", "lower"),
]
PER_LAYER = [
    *((f"{span}.s", "s", "lower") for span in _SPAN_SECONDS),
    *((f"{span}.calls", "count", "lower") for span in _SPAN_CALLS),
    *((name, "count", better) for name, better in _COUNTS),
    ("ingest.parse_reuse", "ratio", "higher"),
    ("botdetect.s_per_iteration", "s", "lower"),
    ("opinion.max_residual", "relative", "lower"),
    ("ghic.solves_per_call", "ratio", "lower"),
    ("ghic.full_solve_reuse", "ratio", "higher"),
    ("pipeline.bytes_written", "bytes", "lower"),
    ("synth.generate.s", "s", "lower"),
    ("synth.tweets_generated", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- set-up ---------------------------------------------------------------------------


def set_up(workload, seed: int, work: Path, spec_overrides: dict) -> dict:
    """Generate the corpus and load the config, SETUP_REPEATS times, timed."""
    from botimpact.config import PipelineConfig
    from botimpact.synth import generate

    from perfbench import checks, workloads

    config_path = work / "run.cfg"
    config_path.write_text(workloads.config_text(), encoding="utf-8")
    corpus = work / "corpus"
    total, synth_only, corpus_digests = [], [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(corpus, ignore_errors=True)
        start = time.perf_counter()
        summary = generate(workload.synth_spec(seed, **spec_overrides), corpus)
        generated = time.perf_counter()
        PipelineConfig.load(config_path)
        end = time.perf_counter()
        total.append(end - start)
        synth_only.append(generated - start)
        corpus_digests.append(checks.tree_digests(corpus)["tree"])
    problems = []
    if len(set(corpus_digests)) != 1:
        problems.append("synth produced different corpora from one spec")
    return {"summary": summary, "setup_s": total, "synth_s": synth_only,
            "corpus_digest": corpus_digests[0], "problems": problems}


# -- passes ---------------------------------------------------------------------------


class Worker:
    """The worker process of one run (``perfbench/worker.py``); it forks a child per pass.

    BLAS runs one thread: the pipeline is one caller on a few shared cores, and a
    second BLAS thread would measure the scheduler more than the solver.
    """

    def __init__(self, work: Path):
        env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(SRC)])
        self.log_path = work / "worker.log"
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.worker", "--config", "run.cfg"],
                cwd=work, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=log, text=True, start_new_session=True,
            )

    def run_pass(self, result_path: Path, spans_path: Path | None) -> dict:
        request = {"result": result_path.name, "spans": spans_path and spans_path.name}
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            reply = self.proc.stdout.readline()
        except OSError:
            reply = ""
        error = json.loads(reply)["error"] if reply else "worker exited"
        if error:
            log = self.log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            crashed = f"{error}: {log}"
            return {"stages": {s: {"s": 0.0, "error": crashed} for s in STAGES},
                    "pipeline_s": 0.0, "peak_rss_mb": 0.0, "crashed": True}
        return json.loads(result_path.read_text(encoding="utf-8"))

    def close(self) -> None:
        """Close its input, so it exits, and wait for it; kill it and its pass if it does not."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def check_pass(p: dict, work: Path, summary: dict, reference: dict,
               baseline: tuple | None) -> dict:
    """Problems found in one pass, keyed by the stage they are charged to."""
    from perfbench import checks

    out = work / "out"
    problems = {stage: [] for stage in STAGES}
    if p.get("crashed"):
        return problems
    for stage, digest in p["digests"]["stages"].items():
        if digest != reference["stages"][stage]:
            problems[stage].append("outputs differ from the first run of this source and seed")
    if p.get("leftover_wrappers"):
        problems["report"].append(f"wrappers left installed: {p['leftover_wrappers']}")
    try:
        problems["build"] += checks.build_conserves_corpus(out, summary)
        problems["ghic"] += checks.ghic_series_complete(out)
        quality = checks.detection_quality(out, work / "corpus")
    except (OSError, KeyError, ValueError) as exc:
        problems["report"].append(f"outputs unreadable: {type(exc).__name__}: {exc}")
        return problems
    p["quality"] = quality
    if baseline is not None:
        moved = {k: quality[k] for k, expected in zip(QUALITY, baseline)
                 if abs(quality[k] - expected) > 1e-12}
        if moved:
            problems["detect"].append(f"detection moved from the baseline: {moved}")
    if not quality["flagged"]:
        problems["detect"].append("no account flagged as a bot")
    return problems


def _reference(path: Path, key: dict, first: dict) -> dict:
    """Digests of the first run with this source, spec and seed; stored on first use."""
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
        if stored["key"] == key:
            return stored["digests"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"key": key, "digests": first}, indent=1, sort_keys=True),
                    encoding="utf-8")
    return first


# -- metrics --------------------------------------------------------------------------


def pass_time(values) -> float:
    """The 90th percentile of one run's pass times.

    A shared host runs at its usual speed with spells, from seconds to
    minutes long, in which it is up to nearly twice as fast; how many passes
    of a run fall in such spells varies from run to run, and moves the median
    with it.  The 90th percentile follows the usual speed, and it still
    leaves out most of a single slow straggler among ten passes.
    """
    values = list(values)
    return quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end_metrics(untraced: list[dict], setup: dict) -> dict:
    pipeline_s = pass_time(p["pipeline_s"] for p in untraced)
    values = {
        "pipeline_s": pipeline_s,
        "tweets_per_s": setup["summary"]["tweets"] / pipeline_s,
        **{f"{s}_s": pass_time(p["stages"][s]["s"] for p in untraced) for s in STAGES},
        "setup_s": median(setup["setup_s"]),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
        **{k: untraced[0]["quality"][k] for k in QUALITY},
    }
    return {name: values[name] for name, _, _ in END_TO_END}


def per_layer_metrics(traced: list[dict], untraced: list[dict], setup: dict) -> dict:
    layers = [p["layers"] for p in traced]
    calls, counts = layers[0]["calls"], layers[0]["counts"]

    def self_s(span: str) -> float:
        return median(layer["self_s"].get(span, 0.0) for layer in layers)

    values = {f"{span}.s": self_s(span) for span in _SPAN_SECONDS}
    values.update({f"{span}.calls": calls.get(span, 0) for span in _SPAN_CALLS})
    values.update({name: counts.get(name, 0) for name, _ in _COUNTS})
    values.update({
        "ingest.parse_reuse": _ratio(setup["summary"]["tweets"],
                                     counts.get("ingest.tweets_yielded", 0)),
        "botdetect.s_per_iteration": _ratio(self_s("botdetect.infer_bot_probabilities"),
                                            counts.get("botdetect.bp_iterations", 0)),
        "opinion.max_residual": layers[0]["maxima"].get("opinion.max_residual", 0.0),
        "ghic.solves_per_call": _ratio(calls.get("opinion.solve_network", 0),
                                       calls.get("ghic.ghic", 0)),
        "ghic.full_solve_reuse": _ratio(counts.get("ghic.days_computed", 0),
                                        calls.get("ghic.ghic", 0)),
        "pipeline.bytes_written": traced[0]["digests"]["bytes"],
        "synth.generate.s": median(setup["synth_s"]),
        "synth.tweets_generated": setup["summary"]["tweets"],
        "trace.overhead_frac": median(p["pipeline_s"] for p in traced)
        / median(p["pipeline_s"] for p in untraced) - 1.0,
    })
    return {name: values[name] for name, _, _ in PER_LAYER}


# -- one run --------------------------------------------------------------------------


def run_workload(workload, seed: int, seconds: float, trace: bool, work_root: Path,
                 spec_overrides: dict | None = None) -> dict:
    """Set up, run passes for ``seconds``, check them; returns the full record."""
    from perfbench import checks
    from perfbench.workloads import DEFAULT_SEED

    spec_overrides = spec_overrides or {}
    baseline = workload.baseline if seed == DEFAULT_SEED and not spec_overrides else None
    work = work_root / f"{workload.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = set_up(workload, seed, work, spec_overrides)
    key = {"source": checks.source_digest(SRC), "spec": {**workload.spec, **spec_overrides},
           "seed": seed}
    passes: list[dict] = []
    reference = None
    pass_s: list[float] = []
    worker = Worker(work)
    try:
        start = time.perf_counter()
        # no pass starts that would likely end after ``seconds``
        while len(passes) < MIN_PASSES or (
                time.perf_counter() - start + median(pass_s) < seconds):
            pass_start = time.perf_counter()
            traced = trace and len(passes) % 2 == 1
            shutil.rmtree(work / "out", ignore_errors=True)
            index = len(passes)
            p = worker.run_pass(work / f"pass-{index}.json",
                                work / f"pass-{index}.spans.jsonl" if traced else None)
            p["traced"] = traced
            if not p.get("crashed"):
                p["digests"] = checks.tree_digests(work / "out")
                if reference is None:
                    reference = _reference(
                        work_root / "reference" / f"{workload.name}-seed{seed}.json",
                        key, p["digests"])
            p["problems"] = check_pass(p, work, setup["summary"], reference, baseline)
            passes.append(p)
            pass_s.append(time.perf_counter() - pass_start)
    finally:
        worker.close()

    attempted = len(passes) * len(STAGES)
    failed = sum(1 for p in passes for s in STAGES
                 if p["stages"][s]["error"] or p["problems"][s])
    correct = failed == 0 and not setup["problems"]
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "spec": key["spec"], "source_digest": key["source"],
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_stage_frac": failed / attempted,
        "setup": {k: v for k, v in setup.items() if k != "summary"},
        "corpus": setup["summary"],
        "passes": [{k: v for k, v in p.items() if k != "digests"} for p in passes],
        "digests": passes[0].get("digests"),
    }
    if all("quality" in p for p in passes):
        untraced = [p for p in passes if not p["traced"]]
        record["end_to_end"] = end_to_end_metrics(untraced, setup)
        if trace:
            record["per_layer"] = per_layer_metrics(
                [p for p in passes if p["traced"]], untraced, setup)
    results = work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    for index, p in enumerate(passes):
        spans = work / f"pass-{index}.spans.jsonl"
        if spans.exists():
            shutil.move(spans, results / f"{stem}-pass{index}.spans.jsonl")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    shutil.rmtree(work)
    return record


def summary_line(record: dict) -> dict:
    """The last stdout line: every metric of the chosen kind, by name and unit."""
    table = PER_LAYER if record["trace"] else END_TO_END
    values = record.get("per_layer" if record["trace"] else "end_to_end", {})
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in table if name in values},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="botimpact pipeline benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "botimpact" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'botimpact'}; run inside a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    record = run_workload(WORKLOADS[args.workload], seed, args.seconds, bool(args.trace), WORK)
    for p in record["passes"]:
        for stage, problems in p["problems"].items():
            error = p["stages"][stage]["error"]
            for message in ([error] if error else []) + problems:
                print(f"pass failed at {stage}: {message}", file=sys.stderr)
    print(json.dumps(summary_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
