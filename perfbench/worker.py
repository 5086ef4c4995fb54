"""Pipeline passes in fresh processes: the five stages, timed.

Run it from a workload's work directory, where the config's relative paths
resolve, with the checkout root and its ``src`` on ``PYTHONPATH``:

    python3 -m perfbench.worker --config run.cfg

It imports the pipeline once, then reads one JSON request a line from
standard input, ``{"result": "pass-0.json", "spans": null}``, and forks a
child for each: the child runs one pass, writes its record to ``result``
and exits, so no pass sees what an earlier one left in memory, and none
pays for the imports.  The reply is one JSON line, ``{"error": null}`` or
the reason the child failed.  The worker exits when its input closes.

With ``spans`` the child traces the layers and writes the spans there when
the pass ends; without it nothing is wrapped.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

STAGES = ("build", "detect", "classify", "ghic", "report")
PASS_TIMEOUT_S = 120


def _stage_report(cfg) -> None:
    """What the CLI's ``report`` command does: build the text, write it atomically."""
    from botimpact import report

    text = report.build_report(cfg)
    out_path = Path(cfg.out_dir) / "report.txt"
    tmp = out_path.with_name(out_path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(out_path)


def run_pass(config_path: str | Path, spans_path: str | Path | None = None) -> dict:
    """Run the five stages once; a stage that raises is recorded, not fatal."""
    from botimpact import pipeline
    from botimpact.config import PipelineConfig

    from perfbench import tracer as tr

    cfg = PipelineConfig.load(config_path)
    tracer = None
    report_stage = _stage_report
    if spans_path is not None:
        tracer = tr.Tracer()
        tr.install_layers(tracer)
        report_stage = tracer.wrap("pipeline.stage_report", _stage_report)
    stages: dict[str, dict] = {}
    try:
        start = time.perf_counter()
        for name in STAGES:
            # looked up per call, so the traced pass runs the wrappers
            fn = report_stage if name == "report" else getattr(pipeline, f"stage_{name}")
            t0 = time.perf_counter()
            error = None
            try:
                fn(cfg)
            except Exception as exc:  # a failed stage is a measured outcome
                error = f"{type(exc).__name__}: {exc}"
            stages[name] = {"s": time.perf_counter() - t0, "error": error}
        pipeline_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "stages": stages,
        "pipeline_s": pipeline_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["leftover_wrappers"] = tr.leftover_wrappers()
        tracer.write_spans(Path(spans_path))
    return result


def _fork_pass(config_path: str, result_path: str, spans_path: str | None) -> str | None:
    """Run one pass in a forked child; the reason it failed, or None."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.dup2(2, 1)  # standard output carries the replies; the pass prints to stderr
            result = run_pass(config_path, spans_path)
            Path(result_path).write_text(json.dumps(result, sort_keys=True) + "\n",
                                         encoding="utf-8")
            code = 0
        except BaseException as exc:  # reported through the exit code
            print(f"pass crashed: {type(exc).__name__}: {exc}", file=sys.stderr, flush=True)
        finally:
            os._exit(code)
    deadline = time.monotonic() + PASS_TIMEOUT_S
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            code = os.waitstatus_to_exitcode(status)
            return None if code == 0 else f"pass exited with {code}"
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return f"pass exceeded {PASS_TIMEOUT_S} s"
        time.sleep(0.01)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    args = parser.parse_args()
    # what run_pass imports before its clock starts, so a child's timings match
    from botimpact import pipeline  # noqa: F401
    from botimpact.config import PipelineConfig  # noqa: F401

    from perfbench import tracer  # noqa: F401

    for line in sys.stdin:
        request = json.loads(line)
        error = _fork_pass(args.config, request["result"], request.get("spans"))
        print(json.dumps({"error": error}), flush=True)


if __name__ == "__main__":
    main()
