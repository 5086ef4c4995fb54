"""Command-line front end: build, detect-bots, classify, ghic, synth, report.

Exit codes: 0 success, 2 configuration problem, 3 input problem,
4 numerical failure, 1 anything else.
"""

from __future__ import annotations

import logging
import sys
from pathlib import Path

import click

from . import pipeline, report, synth
from .config import ConfigError, PipelineConfig
from .ingest import IngestError
from .opinion import SolverError
from .synth import SynthSpecError

EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

log = logging.getLogger("botimpact")


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_config(ctx: click.Context) -> PipelineConfig:
    opts = ctx.obj
    try:
        return PipelineConfig.load(opts.get("config"), opts.get("out"))
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))


def _run_stage(ctx: click.Context, stage) -> dict:
    cfg = _load_config(ctx)
    try:
        return stage(cfg)
    except (IngestError, pipeline.StageError, FileNotFoundError) as exc:
        _fail(EXIT_INPUT, str(exc))
    except SolverError as exc:
        _fail(EXIT_NUMERIC, str(exc))


@click.group()
@click.option("--config", type=click.Path(), default=None, help="key = value config file")
@click.option("--out", type=click.Path(), default=None, help="output directory (overrides config)")
@click.option("--seed", type=int, default=None, help="seed for synth generation")
@click.option("-v", "--verbose", is_flag=True, help="debug logging")
@click.pass_context
def main(ctx: click.Context, config, out, seed, verbose) -> None:
    """Information-flow network analysis: bots, opinions, and influence."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    ctx.obj = {"config": config, "out": out, "seed": seed}


@main.command()
@click.pass_context
def build(ctx: click.Context) -> None:
    """Parse tweets/profiles into networks, daily activity and account content."""
    payload = _run_stage(ctx, pipeline.stage_build)
    click.echo(
        f"build: {payload['tweets_parsed']} tweets over {payload['days']} day(s), "
        f"{payload['accounts']} accounts, {payload['follower_edges']} follower edges"
    )


@main.command("detect-bots")
@click.pass_context
def detect_bots(ctx: click.Context) -> None:
    """Run daily factor-graph inference and emit the union bot set."""
    payload = _run_stage(ctx, pipeline.stage_detect)
    click.echo(f"detect-bots: {payload['bots']} bot(s) across {payload['days']} day(s)")


@main.command()
@click.pass_context
def classify(ctx: click.Context) -> None:
    """Assign partisanship/Qanon/bot labels and aggregate content metrics."""
    payload = _run_stage(ctx, pipeline.stage_classify)
    click.echo(
        f"classify: {payload['accounts']} accounts "
        f"({payload['bots']} bots, {payload['qanon']} Qanon)"
    )


@main.command()
@click.pass_context
def ghic(ctx: click.Context) -> None:
    """Compute the daily influence-centrality series and per-bot efficiency."""
    payload = _run_stage(ctx, pipeline.stage_ghic)
    click.echo(
        f"ghic: {payload['days_computed']} day(s) computed, "
        f"{payload['days_skipped']} skipped"
    )


@main.command("synth")
@click.option("--spec", "spec_path", type=click.Path(), required=True,
              help="generator spec file (key = value)")
@click.pass_context
def synth_cmd(ctx: click.Context, spec_path) -> None:
    """Generate a synthetic corpus with a ground-truth sidecar."""
    opts = ctx.obj
    try:
        spec = synth.SynthSpec.from_file(spec_path)
        if opts.get("seed") is not None:
            spec.seed = opts["seed"]
        outdir = opts.get("out") or "synth_out"
        summary = synth.generate(spec, outdir)
    except FileNotFoundError as exc:
        _fail(EXIT_INPUT, str(exc))
    except SynthSpecError as exc:
        _fail(EXIT_CONFIG, str(exc))
    click.echo(
        f"synth: {summary['topology']} with {summary['accounts']} accounts, "
        f"{summary['tweets']} tweets over {summary['days']} day(s) -> {outdir}"
    )


@main.command("report")
@click.pass_context
def report_cmd(ctx: click.Context) -> None:
    """Write the consolidated text report from available stage outputs."""

    def _write_report(cfg: PipelineConfig) -> str:
        text = report.build_report(cfg)
        out_path = Path(cfg.out_dir) / "report.txt"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        pipeline._atomic_write_text(out_path, text)
        return text

    click.echo(_run_stage(ctx, _write_report))


if __name__ == "__main__":
    main()
