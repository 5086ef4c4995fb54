import csv
import functools
import gzip
import json
import re
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from botimpact import opinion
from botimpact.cli import main
from botimpact.config import ConfigError, PipelineConfig
from botimpact.pipeline import (
    load_accounts,
    stage_build,
    stage_classify,
    stage_detect,
    stage_ghic,
)
from botimpact.report import _merged_retweet_network, build_report


@pytest.fixture
def runner():
    return CliRunner()


def _write_spec(path: Path, **overrides) -> Path:
    fields = {
        "seed": 21,
        "topology": "two_block_polarized",
        "days": 3,
        "humans_per_block": 12,
        "bots_per_block": 3,
        "qanon_bot_frac": 0.5,
        "human_rate": 1.0,
        "bot_rate": 8.0,
    }
    fields.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    return path


def _write_config(path: Path, corpus: Path, out: Path) -> Path:
    path.write_text(
        f"tweets = {corpus / 'tweets.jsonl'}\n"
        f"profiles = {corpus / 'profiles.jsonl'}\n"
        f"ratings = {corpus / 'ratings.csv'}\n"
        f"out_dir = {out}\n"
    )
    return path


def _run(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def _unreadable(tmp_path: Path, kind: str) -> Path:
    """A file holding a byte that is not UTF-8, or a directory."""
    if kind == "not utf-8":
        path = tmp_path / "not_utf8.txt"
        path.write_bytes(b"# caf\xff\n")
    else:
        path = tmp_path / "a_directory"
        path.mkdir()
    return path


@pytest.fixture
def corpus(tmp_path, runner):
    spec = _write_spec(tmp_path / "spec.txt")
    out = tmp_path / "corpus"
    result = _run(runner, ["--out", str(out), "synth", "--spec", str(spec)])
    assert result.exit_code == 0, result.output
    return out


def test_synth_writes_expected_files(corpus):
    for name in ("tweets.jsonl", "profiles.jsonl", "ratings.csv",
                 "labels_truth.csv", "synth_summary.json"):
        assert (corpus / name).exists()


def test_full_pipeline_and_manifest_counts(tmp_path, runner, corpus):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    for cmd in ("build", "detect-bots", "classify", "ghic", "report"):
        result = _run(runner, ["--config", str(cfg), cmd])
        assert result.exit_code == 0, f"{cmd}: {result.output}"

    manifest = json.loads((out / "manifest.json").read_text())
    summary = json.loads((corpus / "synth_summary.json").read_text())
    assert manifest["build"]["accounts"] == summary["accounts"]
    assert manifest["build"]["days"] == summary["days"]
    assert manifest["build"]["tweets_parsed"] == summary["tweets"]
    assert manifest["build"]["retweets_total"] == summary["retweets"]
    report_text = (out / "report.txt").read_text()
    for section in ("Corpus", "Account types", "Network structure", "Impact"):
        assert section in report_text


def test_ghic_solver_failure_exits_4_naming_the_day(tmp_path, runner, corpus, monkeypatch):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    for cmd in ("build", "detect-bots", "classify", "ghic"):
        assert _run(runner, ["--config", str(cfg), cmd]).exit_code == 0, cmd
    with open(out / "ghic_series.csv", newline="", encoding="utf-8") as fh:
        first_day = next(csv.DictReader(fh))["day"]

    # BiCGSTAB gets two iterations, too few for any day
    monkeypatch.setattr(opinion, "solve_equilibrium",
                        functools.partial(opinion.solve_equilibrium, max_iter=2))
    result = runner.invoke(main, ["--config", str(cfg), "ghic"])
    assert result.exit_code == 4, result.output
    assert f"error: {first_day}: bicgstab did not converge in 2 iterations" in result.output


def test_rerun_produces_identical_checksums(tmp_path, runner, corpus):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    checksums = []
    for _ in range(2):
        for cmd in ("build", "detect-bots", "classify", "ghic"):
            result = _run(runner, ["--config", str(cfg), cmd])
            assert result.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        checksums.append(
            {stage: payload["checksums"] for stage, payload in manifest.items()}
        )
    assert checksums[0] == checksums[1]


def test_missing_profiles_file_exits_nonzero_with_path(tmp_path, runner, corpus):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        f"tweets = {corpus / 'tweets.jsonl'}\n"
        f"profiles = {tmp_path / 'missing_profiles.jsonl'}\n"
        f"out_dir = {out}\n"
    )
    result = runner.invoke(main, ["--config", str(cfg), "build"])
    assert result.exit_code == 3
    assert "missing_profiles.jsonl" in result.output


def _unreadable_input(tmp_path: Path, source: Path, kind: str) -> Path:
    """A gzip copy of ``source`` cut in half, one whose deflate stream opens with
    an invalid block type, or a directory."""
    path = tmp_path / f"{kind.replace(' ', '_')}_{source.name}.gz"
    data = gzip.compress(source.read_bytes())
    if kind == "truncated gzip":
        path.write_bytes(data[:len(data) // 2])
    elif kind == "corrupt gzip":
        path.write_bytes(data[:10] + b"\xff" + data[11:])  # the 10-byte header, then BTYPE 11
    else:
        path.mkdir()
    return path


@pytest.mark.parametrize("kind", ["truncated gzip", "corrupt gzip", "directory"])
@pytest.mark.parametrize("key", ["tweets", "profiles"])
def test_unreadable_tweets_or_profiles_file_exits_3_naming_it(tmp_path, runner, corpus, key,
                                                              kind):
    path = _unreadable_input(tmp_path, corpus / f"{key}.jsonl", kind)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    cfg.write_text(cfg.read_text() + f"{key} = {path}\n")
    result = runner.invoke(main, ["--config", str(cfg), "build"])
    assert result.exit_code == 3, result.output
    assert f"error: {path}: unreadable" in result.output
    assert not (out / "manifest.json").exists()


def test_bad_config_value_exits_2(tmp_path, runner):
    cfg = tmp_path / "cfg.txt"
    # the threshold range is (0.5, 1]: a cut at 0.5 would flag every coin-flip account
    for value in ("0.3", "0.5"):
        cfg.write_text(f"bot_threshold = {value}\n")
        result = runner.invoke(main, ["--config", str(cfg), "build"])
        assert result.exit_code == 2, value
        assert "bot_threshold" in result.output
    # so is a config file that is not UTF-8, or a directory
    for kind in ("not utf-8", "directory"):
        path = _unreadable(tmp_path, kind)
        result = runner.invoke(main, ["--config", str(path), "build"])
        assert result.exit_code == 2, result.output
        assert f"error: {path}: unreadable" in result.output


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_config_value_exits_2(tmp_path, runner, value):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"bp_psi_hh = {value}\n")
    result = runner.invoke(main, ["--config", str(cfg), "build"])
    assert result.exit_code == 2
    assert "bp_psi_hh" in result.output


@pytest.mark.parametrize("line", ["bp_prior_bot = 0", "bp_prior_bot = 1.0"])
def test_out_of_range_bp_setting_exits_2_at_build(tmp_path, runner, line):
    """Config holds belief propagation to its own ranges, so detect-bots cannot
    be the first to find a bad one."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    result = runner.invoke(main, ["--config", str(cfg), "build"])
    assert result.exit_code == 2
    assert f"error: {line.split()[0]} must be in" in result.output


def test_non_finite_config_field_rejected_without_a_file():
    with pytest.raises(ConfigError, match="bp_psi_hh"):
        PipelineConfig(bp_psi_hh=float("nan")).validate()
    with pytest.raises(ConfigError, match="bp_weight_cap"):
        PipelineConfig(bp_weight_cap=float("inf")).validate()


def test_unknown_config_key_exits_2(tmp_path, runner):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("mystery_knob = 5\n")
    result = runner.invoke(main, ["--config", str(cfg), "build"])
    assert result.exit_code == 2


REMOVED_KEYS = ("anti_keywords", "pro_keywords", "solver_tol", "solver_max_iter",
                "dense_fallback")
# belief propagation's numerics, the histogram width and the GHIC groups are constants
CONSTANT_KEYS = ("bp_damping", "bp_max_iterations", "bp_tolerance", "histogram_bins",
                 "ghic_groups")


def test_removed_config_keys_are_unknown(tmp_path, runner, corpus):
    cfg = tmp_path / "cfg.txt"
    for key in REMOVED_KEYS:
        cfg.write_text(f"{key} = 500\n")
        result = runner.invoke(main, ["--config", str(cfg), "build"])
        assert result.exit_code == 2
        assert f"unknown key {key!r}" in result.output

    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    assert _run(runner, ["--config", str(cfg), "build"]).exit_code == 0
    snapshot = json.loads((out / "manifest.json").read_text())["build"]["config"]
    assert not set(REMOVED_KEYS + CONSTANT_KEYS) & set(snapshot)


@pytest.mark.parametrize("cmd", ["build", "detect-bots", "classify", "ghic", "report"])
@pytest.mark.parametrize("key", CONSTANT_KEYS)
def test_keys_of_the_constants_are_unknown_to_every_command(tmp_path, runner, key, cmd):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"out_dir = {out}\n{key} = 20\n")
    result = runner.invoke(main, ["--config", str(cfg), cmd])
    assert result.exit_code == 2, result.output
    assert f"unknown key {key!r}" in result.output
    assert not out.exists()


def test_stages_refuse_upstream_files_changed_since_written(tmp_path, runner, corpus):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    for cmd in ("build", "detect-bots", "classify", "ghic", "report"):
        assert _run(runner, ["--config", str(cfg), cmd]).exit_code == 0, cmd

    active = out / "daily_active.csv"
    original = active.read_bytes()
    active.write_bytes(original + original.splitlines(keepends=True)[-1])
    result = runner.invoke(main, ["--config", str(cfg), "ghic"])
    assert result.exit_code == 3
    assert "rerun build" in result.output

    active.write_bytes(original)
    assert _run(runner, ["--config", str(cfg), "ghic"]).exit_code == 0
    content = out / "account_content.jsonl"
    original = content.read_bytes()
    content.write_bytes(original + b'{"account_id": "intruder", "tweet_count": 9}\n')
    result = runner.invoke(main, ["--config", str(cfg), "classify"])
    assert result.exit_code == 3
    assert "rerun build" in result.output

    content.write_bytes(original)
    assert _run(runner, ["--config", str(cfg), "classify"]).exit_code == 0
    (out / "bots.txt").unlink()
    result = runner.invoke(main, ["--config", str(cfg), "classify"])
    assert result.exit_code == 3
    assert "rerun detect-bots" in result.output


def test_report_refuses_files_changed_since_their_stage(tmp_path, runner, corpus):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    for cmd in ("build", "detect-bots", "classify", "ghic", "report"):
        assert _run(runner, ["--config", str(cfg), cmd]).exit_code == 0, cmd

    for name, stage in (("accounts.csv", "classify"), ("ghic_per_bot.csv", "ghic"),
                        ("follower.cols", "build"), ("accounts.json", "build")):
        path = out / name
        original = path.read_bytes()
        if name == "accounts.csv":
            path.write_bytes(original.replace(b",anti,", b",pro,"))
        else:
            path.write_bytes(original + original.splitlines(keepends=True)[-1])
        assert path.read_bytes() != original
        result = runner.invoke(main, ["--config", str(cfg), "report"])
        assert result.exit_code == 3, name
        assert f"rerun {stage}" in result.output
        path.write_bytes(original)
    assert _run(runner, ["--config", str(cfg), "report"]).exit_code == 0


def test_stages_after_build_read_no_raw_input(tmp_path, runner, corpus):
    outputs = []
    for raw_inputs_present in (True, False):
        out = tmp_path / f"out_{raw_inputs_present}"
        cfg = _write_config(tmp_path / f"cfg_{raw_inputs_present}.txt", corpus, out)
        assert _run(runner, ["--config", str(cfg), "build"]).exit_code == 0
        if not raw_inputs_present:
            (corpus / "tweets.jsonl").rename(tmp_path / "tweets.moved")
            (corpus / "profiles.jsonl").unlink()
        for cmd in ("detect-bots", "classify", "ghic", "report"):
            result = _run(runner, ["--config", str(cfg), cmd])
            assert result.exit_code == 0, f"{cmd}: {result.output}"
        outputs.append([(out / n).read_bytes() for n in ("accounts.csv", "report.txt")])
    assert outputs[0] == outputs[1]


def test_stage_order_enforced(tmp_path, runner, corpus):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    result = runner.invoke(main, ["--config", str(cfg), "detect-bots"])
    assert result.exit_code == 3  # build outputs missing


def test_a_new_build_retires_every_later_stage(tmp_path, runner, corpus):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    for cmd in ("build", "detect-bots", "classify", "ghic"):
        assert _run(runner, ["--config", str(cfg), cmd]).exit_code == 0, cmd
    later = {n for stage in ("detect", "classify", "ghic")
             for n in json.loads((out / "manifest.json").read_text())[stage]["checksums"]}

    # a larger corpus built into the same directory
    spec = _write_spec(tmp_path / "spec_b.txt", seed=4, humans_per_block=20)
    corpus_b = tmp_path / "corpus_b"
    assert _run(runner, ["--out", str(corpus_b), "synth", "--spec", str(spec)]).exit_code == 0
    cfg_b = _write_config(tmp_path / "cfg_b.txt", corpus_b, out)
    assert _run(runner, ["--config", str(cfg_b), "build"]).exit_code == 0
    assert list(json.loads((out / "manifest.json").read_text())) == ["build"]
    assert not any((out / name).exists() for name in later)

    result = runner.invoke(main, ["--config", str(cfg_b), "ghic"])
    assert result.exit_code == 3
    assert "rerun classify" in result.output
    result = _run(runner, ["--config", str(cfg_b), "report"])
    assert result.exit_code == 0
    account_types = result.output.split("Account types")[1].split("Retweet leaderboards")[0]
    assert "not available" in account_types

    # detect retires classify and ghic, classify retires ghic
    for cmd in ("detect-bots", "classify", "ghic"):
        assert _run(runner, ["--config", str(cfg_b), cmd]).exit_code == 0, cmd
    assert _run(runner, ["--config", str(cfg_b), "detect-bots"]).exit_code == 0
    assert sorted(json.loads((out / "manifest.json").read_text())) == ["build", "detect"]
    assert not (out / "accounts.csv").exists() and not (out / "ghic_series.csv").exists()
    assert _run(runner, ["--config", str(cfg_b), "classify"]).exit_code == 0
    assert sorted(json.loads((out / "manifest.json").read_text())) == [
        "build", "classify", "detect"]


def test_an_unreadable_manifest_exits_3_and_build_starts_afresh(tmp_path, runner, corpus):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    for cmd in ("build", "detect-bots"):
        assert _run(runner, ["--config", str(cfg), cmd]).exit_code == 0, cmd
    # bad JSON, then valid JSON of the wrong shape at each level
    for text in ("{not json", "[]", '{"build": []}', '{"detect": {"checksums": []}}'):
        (out / "manifest.json").write_text(text)
        for cmd in ("report", "detect-bots", "classify"):
            result = runner.invoke(main, ["--config", str(cfg), cmd])
            assert result.exit_code == 3, (text, cmd, result.output)
            assert "unreadable" in result.output and "rerun build" in result.output

        assert _run(runner, ["--config", str(cfg), "build"]).exit_code == 0, text
        assert list(json.loads((out / "manifest.json").read_text())) == ["build"]
    for cmd in ("detect-bots", "classify", "ghic", "report"):
        assert _run(runner, ["--config", str(cfg), cmd]).exit_code == 0, cmd


# (field of the build entry or of its window, value; None drops the field)
@pytest.mark.parametrize("field, value", [
    ("window", None), ("start", None), ("duration_days", None), ("tweets_parsed", None),
    *(("duration_days", days) for days in ("3", 0, -2, 2.0, True)),
])
def test_a_build_entry_without_the_fields_its_readers_need_exits_3(tmp_path, runner, corpus,
                                                                   field, value):
    """classify divides tweet counts by the window's days and report prints the
    entry's fields, so either refuses an entry that lacks them, and no rate of
    inf is written."""
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    for cmd in ("build", "detect-bots"):
        assert _run(runner, ["--config", str(cfg), cmd]).exit_code == 0, cmd
    path = out / "manifest.json"
    original = path.read_text()
    manifest = json.loads(original)
    build = manifest["build"]
    entry = build["window"] if field in build["window"] else build
    if value is None:
        del entry[field]
    else:
        entry[field] = value
    path.write_text(json.dumps(manifest))
    for cmd in ("classify", "report"):
        result = runner.invoke(main, ["--config", str(cfg), cmd])
        assert result.exit_code == 3, (cmd, result.output)
        assert "unreadable" in result.output and "rerun build" in result.output
    assert not (out / "accounts.csv").exists()

    path.write_text(original)
    assert _run(runner, ["--config", str(cfg), "classify"]).exit_code == 0


def _five_then_two_days(tmp_path, runner, out, commands) -> Path:
    """Run ``commands`` on a 5-day corpus, then on a 2-day one, into ``out``."""
    for days in (5, 2):
        spec = _write_spec(tmp_path / f"spec{days}.txt", days=days)
        corpus = tmp_path / f"corpus{days}"
        assert _run(runner, ["--out", str(corpus), "synth", "--spec", str(spec)]).exit_code == 0
        cfg = _write_config(tmp_path / f"cfg{days}.txt", corpus, out)
        for cmd in commands:
            result = _run(runner, ["--config", str(cfg), cmd])
            assert result.exit_code == 0, f"{cmd}: {result.output}"
    return cfg


def _tamper_first_listed_day(out: Path) -> None:
    manifest = json.loads((out / "manifest.json").read_text())
    listed = next(n for n in sorted(manifest["build"]["checksums"]) if n.startswith("retweet_"))
    with open(out / listed, "a", encoding="utf-8") as fh:
        fh.write("intruder\n")


def test_detect_reads_only_the_days_build_listed(tmp_path, runner):
    out = tmp_path / "out"
    cfg = _five_then_two_days(tmp_path, runner, out, ("build", "detect-bots"))
    # the files only the 5-day entries listed went with those entries
    assert len(list(out.glob("retweet_*.cols"))) == 2
    assert len(list(out.glob("posterior_*.csv"))) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["build"]["days"] == 2
    assert manifest["detect"]["days"] == 2
    days = [n[len("retweet_"):-len(".cols")] for n in manifest["build"]["checksums"]
            if n.startswith("retweet_")]
    posteriors = [n for n in manifest["detect"]["checksums"] if n.startswith("posterior_")]
    assert sorted(posteriors) == sorted(f"posterior_{day}.csv" for day in days)

    # a day file that build did not list is never read
    (out / "retweet_1999-01-01.cols").write_text("ghost\tghoster\t5\n")
    assert _run(runner, ["--config", str(cfg), "detect-bots"]).exit_code == 0
    assert json.loads((out / "manifest.json").read_text())["detect"]["days"] == 2
    assert not (out / "posterior_1999-01-01.csv").exists()

    _tamper_first_listed_day(out)
    result = runner.invoke(main, ["--config", str(cfg), "detect-bots"])
    assert result.exit_code == 3
    assert "rerun build" in result.output


def test_report_reads_only_the_days_build_listed(tmp_path, runner):
    out = tmp_path / "out"
    cfg = _five_then_two_days(tmp_path, runner, out, ("build", "detect-bots", "classify"))
    (out / "retweet_1999-01-01.cols").write_text("ghost\tghoster\t50\n")  # not listed
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    accounts = load_accounts(out)
    authors, retweeters, counts = _merged_retweet_network(out, accounts)
    assert counts.sum() == manifest["build"]["retweets_total"]
    assert "ghost" not in accounts
    assert max(authors.max(), retweeters.max()) < len(accounts)
    assert _run(runner, ["--config", str(cfg), "report"]).exit_code == 0

    # without a build entry the leaderboards are not available
    manifest_path.write_text(json.dumps({k: v for k, v in manifest.items() if k != "build"}))
    result = _run(runner, ["--config", str(cfg), "report"])
    assert result.exit_code == 0
    leaderboards = result.output.split("Retweet leaderboards")[1].split("Network structure")[0]
    assert "not available" in leaderboards

    manifest_path.write_text(json.dumps(manifest))
    _tamper_first_listed_day(out)
    result = runner.invoke(main, ["--config", str(cfg), "report"])
    assert result.exit_code == 3
    assert "rerun build" in result.output


def test_invalid_synth_spec_exits_2(tmp_path, runner):
    spec = tmp_path / "spec.txt"
    spec.write_text("topology = mars_colony\n")
    result = runner.invoke(main, ["synth", "--spec", str(spec)])
    assert result.exit_code == 2
    assert "topology" in result.output
    # so is a spec that is not UTF-8, or a directory
    for kind in ("not utf-8", "directory"):
        path = _unreadable(tmp_path, kind)
        result = runner.invoke(main, ["--out", str(tmp_path / "out"), "synth", "--spec", str(path)])
        assert result.exit_code == 2, result.output
        assert f"error: {path}: unreadable" in result.output
    # so is a negative --seed, which numpy's seeding would refuse with a traceback
    spec.write_text("days = 1\n")
    result = runner.invoke(main, ["--out", str(tmp_path / "neg"), "--seed", "-3", "synth",
                                  "--spec", str(spec)])
    assert result.exit_code == 2, result.output
    assert "seed" in result.output
    assert not (tmp_path / "neg").exists()


def test_negative_planted_field_exits_2(tmp_path, runner):
    spec = tmp_path / "spec.txt"
    spec.write_text("topology = planted_bot_retweet\nfollow_out = -1\n")
    result = runner.invoke(main, ["--out", str(tmp_path / "out"), "synth", "--spec", str(spec)])
    assert result.exit_code == 2
    assert "follow_out" in result.output


def test_seed_flag_overrides_spec(tmp_path, runner):
    spec = _write_spec(tmp_path / "spec.txt", days=1)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    r1 = _run(runner, ["--out", str(out_a), "--seed", "99", "synth", "--spec", str(spec)])
    r2 = _run(runner, ["--out", str(out_b), "--seed", "99", "synth", "--spec", str(spec)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (out_a / "tweets.jsonl").read_bytes() == (out_b / "tweets.jsonl").read_bytes()
    summary = json.loads((out_a / "synth_summary.json").read_text())
    assert summary["seed"] == 99


def test_report_without_ghic_notes_missing_section(tmp_path, runner, corpus):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    for cmd in ("build", "detect-bots", "classify"):
        assert _run(runner, ["--config", str(cfg), cmd]).exit_code == 0
    result = _run(runner, ["--config", str(cfg), "report"])
    assert result.exit_code == 0
    assert "Impact" in result.output
    assert "not available" in result.output


def test_workers_other_than_one_exits_2(tmp_path, runner, corpus):
    cfg = _write_config(tmp_path / "cfg.txt", corpus, tmp_path / "out")
    result = runner.invoke(main, ["--config", str(cfg), "--workers", "2", "build"])
    assert result.exit_code == 2
    assert "--workers" in result.output
    cfg.write_text(cfg.read_text() + "workers = 2\n")
    result = runner.invoke(main, ["--config", str(cfg), "build"])
    assert result.exit_code == 2
    assert "workers must be 1" in result.output
    assert not (tmp_path / "out").exists()


def test_every_stage_retires_the_report(tmp_path, runner, corpus):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    for cmd in ("build", "detect-bots", "classify", "ghic"):
        if cmd != "build":
            assert _run(runner, ["--config", str(cfg), "report"]).exit_code == 0
            assert (out / "report.txt").exists()
        assert _run(runner, ["--config", str(cfg), cmd]).exit_code == 0, cmd
        assert not (out / "report.txt").exists(), cmd

    # a full run, then a build of another corpus: no report of the old corpus stays
    assert _run(runner, ["--config", str(cfg), "report"]).exit_code == 0
    spec = _write_spec(tmp_path / "spec_b.txt", seed=4, humans_per_block=20)
    corpus_b = tmp_path / "corpus_b"
    assert _run(runner, ["--out", str(corpus_b), "synth", "--spec", str(spec)]).exit_code == 0
    cfg_b = _write_config(tmp_path / "cfg_b.txt", corpus_b, out)
    assert _run(runner, ["--config", str(cfg_b), "build"]).exit_code == 0
    assert not (out / "report.txt").exists()


def test_planted_qanon_bot_prevalence_reported(tmp_path, runner):
    """With a detection-capable potential table, the reported bot prevalence
    among Qanon accounts tracks the planted fraction from the truth sidecar."""
    import csv

    corpus = tmp_path / "corpus"
    spec = _write_spec(
        tmp_path / "spec.txt",
        seed=5, days=3, humans_per_block=200, bots_per_block=20,
        qanon_bot_frac=0.2, qanon_human_frac=0.18,
        human_rate=1.0, bot_rate=50.0, retweet_frac=0.4, p_intra=0.05,
    )
    assert _run(runner, ["--out", str(corpus), "synth", "--spec", str(spec)]).exit_code == 0
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        f"tweets = {corpus / 'tweets.jsonl'}\n"
        f"profiles = {corpus / 'profiles.jsonl'}\n"
        f"ratings = {corpus / 'ratings.csv'}\n"
        f"out_dir = {out}\n"
        "bp_psi_hh = 1.5\nbp_psi_hb = 2.0\nbp_psi_bh = 1.0\nbp_psi_bb = 0.5\n"
    )
    for cmd in ("build", "detect-bots", "classify", "report"):
        assert _run(runner, ["--config", str(cfg), cmd]).exit_code == 0

    with open(corpus / "labels_truth.csv", newline="") as fh:
        truth = {row["account_id"]: row for row in csv.DictReader(fh)}
    planted_bots = {a for a, row in truth.items() if row["is_bot"] == "1"}
    qanon_truth = {a for a, row in truth.items() if row["block"].endswith("qanon")}
    planted_fraction = len(qanon_truth & planted_bots) / len(qanon_truth)

    with open(out / "accounts.csv", newline="") as fh:
        rows = {row["account_id"]: row for row in csv.DictReader(fh)}
    detected = {a for a, row in rows.items() if row["bot"] == "1"}
    qanon = {a for a, row in rows.items() if row["qanon"] == "1"}
    reported_fraction = len(qanon & detected) / len(qanon)
    assert reported_fraction == pytest.approx(planted_fraction, abs=0.05)

    report_text = (out / "report.txt").read_text()
    assert f"qanon        {reported_fraction:.4f}" in report_text


def test_classify_without_ratings_warns_and_omits_media(tmp_path, runner, corpus):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        f"tweets = {corpus / 'tweets.jsonl'}\n"
        f"profiles = {corpus / 'profiles.jsonl'}\n"
        f"ratings = {tmp_path / 'no_ratings.csv'}\n"
        f"out_dir = {out}\n"
    )
    for cmd in ("build", "detect-bots", "classify"):
        assert _run(runner, ["--config", str(cfg), cmd]).exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["classify"]["warning"] == (
        f"ratings file {tmp_path / 'no_ratings.csv'} missing; media quality columns left empty")
    import csv

    with open(out / "accounts.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["media_quality"] == "" for row in rows)
    with open(out / "group_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["mean_media_quality"] == "" for row in rows)


@pytest.mark.parametrize("header, row, message", [
    ("domain,rating", "site01.example,9", "line 3: rating for 'site01.example' outside"),
    ("domain,rating", "site01.example,abc", "line 3: could not convert"),
    ("domain,score", "site01.example,3", "line 1: the header must name"),
    ("domain,rating", " .,3", "line 3: no domain in ' .'"),
])
def test_malformed_ratings_file_exits_3_naming_the_line(tmp_path, runner, corpus, header,
                                                        row, message):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text(f"{header}\nsite02.example,2\n{row}\n", encoding="utf-8")
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    cfg.write_text(cfg.read_text() + f"ratings = {ratings}\n")
    for cmd in ("build", "detect-bots"):
        assert _run(runner, ["--config", str(cfg), cmd]).exit_code == 0
    result = runner.invoke(main, ["--config", str(cfg), "classify"])
    assert result.exit_code == 3
    assert f"{ratings}, {message}" in result.output
    assert not (out / "accounts.csv").exists()


@pytest.mark.parametrize("key", ["qanon_keywords", "ratings"])
@pytest.mark.parametrize("kind", ["not utf-8", "directory"])
def test_unreadable_keywords_or_ratings_file_exits_3_naming_it(tmp_path, runner, corpus, key,
                                                                kind):
    path = _unreadable(tmp_path, kind)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    cfg.write_text(cfg.read_text() + f"{key} = {path}\n")
    for cmd in ("build", "detect-bots"):
        assert _run(runner, ["--config", str(cfg), cmd]).exit_code == 0
    result = runner.invoke(main, ["--config", str(cfg), "classify"])
    assert result.exit_code == 3, result.output
    assert f"error: {path}: unreadable" in result.output  # the file, and no line in it
    assert not (out / "accounts.csv").exists()


def test_a_qanon_keywords_file_replaces_the_packaged_list(tmp_path, runner, corpus):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.txt", corpus, out)
    for cmd in ("build", "detect-bots", "classify"):
        assert _run(runner, ["--config", str(cfg), cmd]).exit_code == 0
    names = ("accounts.csv", "group_summary.csv")
    packaged = [(out / name).read_bytes() for name in names]
    assert any(row[3] == "1" for row in _csv_rows(out / "accounts.csv")[1:])  # qanon
    keywords = tmp_path / "qanon.txt"
    cfg.write_text(cfg.read_text() + f"qanon_keywords = {keywords}\n")
    # the packaged terms in upper and mixed case match as the packaged list does
    keywords.write_text("WWG1WGA\nQAnon\nTheGreatAwakening\n", encoding="utf-8")
    assert _run(runner, ["--config", str(cfg), "classify"]).exit_code == 0
    assert [(out / name).read_bytes() for name in names] == packaged
    # so do the hashtag forms: only a bare # as a line's first word makes a comment
    keywords.write_text("# Qanon terms\n#WWG1WGA\n  #QAnon\n#TheGreatAwakening\n",
                        encoding="utf-8")
    assert _run(runner, ["--config", str(cfg), "classify"]).exit_code == 0
    assert [(out / name).read_bytes() for name in names] == packaged
    # a list of comments alone is empty
    keywords.write_text("# Qanon terms\n#\n  # WWG1WGA\n", encoding="utf-8")
    assert _run(runner, ["--config", str(cfg), "classify"]).exit_code == 0
    assert all(row[3] == "0" for row in _csv_rows(out / "accounts.csv")[1:])


def _renamed_corpus(corpus: Path, dst: Path, rename) -> Path:
    """A copy of a synth corpus with every account id passed through ``rename``."""
    dst.mkdir()
    for name in ("tweets.jsonl", "profiles.jsonl"):
        lines = []
        for line in (corpus / name).read_text(encoding="utf-8").splitlines():
            obj = json.loads(line)
            for key in ("author_id", "retweeted_author_id", "account_id"):
                if obj.get(key):
                    obj[key] = rename(obj[key])
            if "following_ids" in obj:
                obj["following_ids"] = [rename(f) for f in obj["following_ids"]]
            lines.append(json.dumps(obj, ensure_ascii=False) + "\n")
        (dst / name).write_text("".join(lines), encoding="utf-8")
    shutil.copy(corpus / "ratings.csv", dst / "ratings.csv")
    return dst


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_ids_with_tabs_line_breaks_and_non_ascii_survive_every_stage(tmp_path, runner):
    # a common prefix and a suffix below every id character keep the sorted order
    def rename(account: str) -> str:
        return f"\t{account},\n\"é☃"

    corpus = tmp_path / "corpus"
    spec = _write_spec(tmp_path / "spec.txt", bot_rate=20.0, retweet_frac=0.6)
    assert _run(runner, ["--out", str(corpus), "synth", "--spec", str(spec)]).exit_code == 0
    runs = {}
    for name, source in (("plain", corpus),
                         ("odd", _renamed_corpus(corpus, tmp_path / "odd", rename))):
        out = tmp_path / f"out_{name}"
        cfg = PipelineConfig(
            tweets=str(source / "tweets.jsonl"), profiles=str(source / "profiles.jsonl"),
            ratings=str(source / "ratings.csv"), out_dir=str(out),
            bp_psi_hh=1.5, bp_psi_hb=2.0, bp_psi_bh=1.0, bp_psi_bb=0.5,
        )
        for stage in (stage_build, stage_detect, stage_classify, stage_ghic):
            stage(cfg)
        runs[name] = (out, build_report(cfg))
    (plain, plain_report), (odd, odd_report) = runs["plain"], runs["odd"]

    bots = [row[0] for row in _csv_rows(plain / "bots.txt")]
    assert bots
    assert [row[0] for row in _csv_rows(odd / "bots.txt")] == [rename(b) for b in bots]
    for name in ["accounts.csv"] + [p.name for p in plain.glob("posterior_*.csv")]:
        rows = _csv_rows(plain / name)
        assert _csv_rows(odd / name) == [rows[0]] + [[rename(r[0])] + r[1:] for r in rows[1:]]
    for name in ("histogram.csv", "group_summary.csv", "ghic_series.csv", "ghic_per_bot.csv"):
        assert (odd / name).read_bytes() == (plain / name).read_bytes(), name

    leaders = re.findall(r"^    (u\d+) +(\d+)$", plain_report, flags=re.MULTILINE)
    assert leaders
    for account, count in leaders:
        assert f"    {rename(account):<16} {count}\n" in odd_report
    assert odd_report.count("\t") == len(leaders)
