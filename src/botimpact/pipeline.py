"""File-to-file pipeline stages behind the CLI.

Every stage reads flat files, writes flat files (text ones atomically: temp
then rename), and updates ``manifest.json`` with row counts and content
checksums.  ``build`` writes its networks as network files (see ``graph``)
on the sorted account list in ``accounts.json``, straight from the columns
``ingest`` returns, and takes each account's description from the same
pass over the profile rows that gives the follower network; every later
stage works on positions in that list too, and uses ids only in the rows
it writes.  ``classify`` builds the account table (see ``accounts``) from
build's per-account content and the bot list and writes it as accounts.csv,
which ``account_table`` alone reads back for ``ghic`` and ``report``.
Outputs carry no timestamps, so identical inputs and configuration
reproduce byte-identical results.
"""

from __future__ import annotations

import csv
import fnmatch
import hashlib
import json
import logging
import math
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import accounts as acc
from . import botdetect, ingest
from .config import PipelineConfig
from .ghic import daily_ghic_series, ghic_per_bot
from .graph import load_columns, load_edge_list, save_edge_list
from .opinion import identify_stubborn

log = logging.getLogger(__name__)

# manifest entry -> the command that writes it
_COMMANDS = {"build": "build", "detect": "detect-bots", "classify": "classify", "ghic": "ghic"}


class StageError(RuntimeError):
    """A pipeline stage could not run (usually missing or stale prior outputs)."""


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def _atomic_write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence],
                       **fmt) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, **fmt)
        if header:
            writer.writerow(header)
        writer.writerows(rows)
    tmp.replace(path)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# the build entry's fields that report prints; classify reads the window too
_BUILD_FIELDS = {"window", "tweets_parsed", "tweets_skipped", "accounts", "follower_edges",
                 "retweets_total"}


def _read_manifest(out_dir: Path) -> dict:
    """The stage entries of ``manifest.json``, {} before any stage has run; an
    unreadable manifest, one that is not an object of stage objects each with
    an object of checksums, or one whose build entry lacks a field that report
    prints or a window of a positive integer ``duration_days`` (classify
    divides by it) raises StageError ("rerun build")."""
    path = out_dir / "manifest.json"
    if not path.exists():
        return {}
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise StageError(f"{path} unreadable ({exc}); rerun build") from None
    if not (isinstance(manifest, dict) and all(
            isinstance(entry, dict) and isinstance(entry.get("checksums", {}), dict)
            for entry in manifest.values())):
        raise StageError(f"{path} unreadable (not an object of stage entries); rerun build")
    if "build" in manifest:
        build = manifest["build"]
        window = build.get("window")
        days = window.get("duration_days") if isinstance(window, dict) else None
        if not (type(days) is int and days > 0 and {"start", "end"} <= window.keys()
                and _BUILD_FIELDS <= build.keys()):
            raise StageError(f"{path} unreadable (the build entry lacks a field or a positive "
                             "integer duration_days); rerun build")
    return manifest


def _update_manifest(out_dir: Path, stage: str, payload: dict, files: Iterable[Path]) -> None:
    """Record the stage's outputs and drop the entries of the later stages, which
    read them; then delete the files a previous or dropped entry listed and this
    one does not, and ``report.txt``, so no reader finds a stale file from an
    earlier run.

    ``build`` replaces an unreadable manifest: it drops every other entry anyway.
    """
    try:
        manifest = _read_manifest(out_dir)
    except StageError:
        if stage != "build":
            raise
        manifest = {}
    later = list(_COMMANDS)[list(_COMMANDS).index(stage) + 1:]
    previous = [manifest.get(stage, {})] + [manifest.pop(name, {}) for name in later]
    payload = dict(payload)
    payload["checksums"] = {p.name: _sha256(p) for p in sorted(files)}
    manifest[stage] = payload
    _atomic_write_text(out_dir / "manifest.json",
                       json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    listed = {name for entry in previous for name in entry.get("checksums", {})}
    for name in sorted(listed - set(payload["checksums"])) + ["report.txt"]:
        if Path(name).name == name:  # a bare file name, as the stages write them
            (out_dir / name).unlink(missing_ok=True)


# -- build ------------------------------------------------------------------------


def stage_build(cfg: PipelineConfig) -> dict:
    """Parse raw files into networks, daily activity, and the per-account
    content table that classify reads instead of the raw files; every output
    derives from one parse of each tweet into columns and one pass over the
    profile rows (see ``ingest``)."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tweet_stats = ingest.ParseStats()
    tweets = ingest.tweet_columns(ingest.load_tweets(cfg.tweets, stats=tweet_stats))
    if not tweets.author.size:
        raise ingest.IngestError(f"no parseable tweets in {cfg.tweets}")
    first, last = tweets.window()

    profile_stats = ingest.ParseStats()
    profiles = ingest.load_profiles(cfg.profiles, cfg.followings_cap, stats=profile_stats)
    follower, descriptions = ingest.build_follower_network(profiles, tweets.accounts)
    _atomic_write_text(out_dir / "accounts.json", json.dumps(tweets.accounts) + "\n")
    save_edge_list(out_dir / "follower.cols", follower)

    written = [out_dir / "accounts.json", out_dir / "follower.cols"]
    days = tweets.days()
    active: list[tuple[str, str]] = []
    for day, rows in days:
        path = out_dir / f"retweet_{day.isoformat()}.cols"
        author = tweets.author[rows]
        save_edge_list(path, ingest.build_daily_retweet_network(
            tweets.accounts, author, tweets.retweeted[rows]))
        written.append(path)
        active += ((day.isoformat(), tweets.accounts[i]) for i in np.unique(author).tolist())

    # classify's whole input, in account order: JSON floats round-trip, so its means are exact
    _atomic_write_text(
        out_dir / "account_content.jsonl",
        "".join(json.dumps(row) + "\n" for row in ingest.account_content(tweets, descriptions)),
    )

    _atomic_write_rows(out_dir / "daily_active.csv", ["day", "account_id"], active)
    written += [out_dir / n for n in ("account_content.jsonl", "daily_active.csv")]

    payload = {
        "config": cfg.snapshot(),
        "window": {"start": first.isoformat(), "end": last.isoformat(),
                   "duration_days": (last - first).days + 1},
        "tweets_parsed": tweet_stats.parsed,
        "tweets_skipped": tweet_stats.skipped,
        "profiles_parsed": profile_stats.parsed,
        "profiles_skipped": profile_stats.skipped,
        "accounts": len(tweets.accounts),
        "days": len(days),
        "follower_edges": follower[1].size,
        "retweets_total": int(np.count_nonzero(tweets.retweeted >= 0)),
    }
    _update_manifest(out_dir, "build", payload, written)
    return payload


# -- bot detection -----------------------------------------------------------------


def _listed_paths(out_dir: Path, stage: str, pattern: str) -> list[Path]:
    """The files matching ``pattern`` that ``stage``'s manifest entry lists,
    checksums verified.

    Files left behind by an earlier run into the same directory are not
    listed, so they are never read.  A missing manifest or entry, no listed
    match, or a missing or changed file raises StageError ("rerun <stage>").
    """
    rerun = f"rerun {_COMMANDS[stage]}"
    manifest_path = out_dir / "manifest.json"
    entry = _read_manifest(out_dir).get(stage)
    if entry is None:
        raise StageError(f"{manifest_path} has no {stage} entry; {rerun}")
    paths = []
    for name, digest in sorted(entry.get("checksums", {}).items()):
        if not fnmatch.fnmatchcase(name, pattern):
            continue
        path = out_dir / name
        if not path.exists():
            raise StageError(f"{path} missing; {rerun}")
        if _sha256(path) != digest:
            raise StageError(f"{path} changed since {stage}; {rerun}")
        paths.append(path)
    if not paths:
        raise StageError(f"{manifest_path} lists no {pattern} under {stage}; {rerun}")
    return paths


def load_accounts(out_dir: Path) -> list[str]:
    """The sorted corpus account list that build's network files index."""
    [path] = _listed_paths(out_dir, "build", "accounts.json")
    return json.loads(path.read_text(encoding="utf-8"))


# equal-width bins of the pooled daily marginals in histogram.csv
HISTOGRAM_BINS = 20


def stage_detect(cfg: PipelineConfig) -> dict:
    """Daily factor-graph inference, threshold, and cross-day union, one day
    file at a time, each in its file's node order; accounts.json is sorted, so
    rows in position order are in id order."""
    out_dir = Path(cfg.out_dir)
    accounts = load_accounts(out_dir)
    day_paths = _listed_paths(out_dir, "build", "retweet_*.cols")
    params = cfg.bp_params()

    written: list[Path] = []
    bot = np.zeros(len(accounts), dtype=bool)
    marginals = []
    unconverged = 0
    for day_path in day_paths:
        network = load_edge_list(day_path, accounts)
        posterior = botdetect.infer_bot_probabilities(network, params)
        nodes, p = network.labels, posterior.marginals
        order = np.argsort(nodes)
        converged = str(posterior.converged).lower()
        path = out_dir / f"posterior_{day_path.stem.removeprefix('retweet_')}.csv"
        _atomic_write_rows(
            path,
            ["account_id", "bot_probability", "converged"],
            ((accounts[i], _fmt(x), converged)
             for i, x in zip(nodes[order].tolist(), p[order].tolist())),
        )
        written.append(path)
        bot[nodes[p > cfg.bot_threshold]] = True
        marginals.append(p)
        unconverged += not posterior.converged

    bots_path = out_dir / "bots.txt"
    # one id a line, quoted when it holds a comma, a quote or a line break
    _atomic_write_rows(bots_path, (), ([accounts[i]] for i in np.flatnonzero(bot).tolist()),
                       lineterminator="\n")
    written.append(bots_path)

    hist_counts, edges = botdetect.probability_histogram(np.concatenate(marginals), HISTOGRAM_BINS)
    hist_path = out_dir / "histogram.csv"
    _atomic_write_rows(
        hist_path,
        ["bin_low", "bin_high", "count"],
        [
            (_fmt(edges[i]), _fmt(edges[i + 1]), hist_counts[i])
            for i in range(len(hist_counts))
        ],
    )
    written.append(hist_path)

    payload = {
        "days": len(day_paths),
        "bots": int(np.count_nonzero(bot)),
        "unconverged_days": unconverged,
    }
    _update_manifest(out_dir, "detect", payload, written)
    return payload


# -- classification ------------------------------------------------------------------


def _positions(path: Path, ids: Sequence[str], accounts: list[str], rerun: str) -> np.ndarray:
    """The positions in ``accounts`` of the ids a file names; an id not in the
    list raises StageError naming the file."""
    index = {account: i for i, account in enumerate(accounts)}
    for account in ids:
        if account not in index:
            raise StageError(f"{path} names {account!r}, which accounts.json does not list; "
                             f"{rerun}")
    return np.array([index[account] for account in ids], dtype=np.int64)


def _opt(x: float) -> str:
    return "" if math.isnan(x) else _fmt(x)


def stage_classify(cfg: PipelineConfig) -> dict:
    """The account table over the positions of accounts.json, written as
    accounts.csv, and the group summary table.

    account_content.jsonl must list the accounts of accounts.json in order
    ("rerun build"), and bots.txt only accounts it lists ("rerun detect-bots").
    """
    out_dir = Path(cfg.out_dir)
    accounts = load_accounts(out_dir)
    [content_path] = _listed_paths(out_dir, "build", "account_content.jsonl")
    with open(content_path, encoding="utf-8") as fh:  # one JSON object a line: one decode
        content = json.loads("[" + ",".join(fh) + "]")
    if [row["account_id"] for row in content] != accounts:
        raise StageError(f"{content_path} does not list the accounts of accounts.json in order; "
                         "rerun build")
    [bots_path] = _listed_paths(out_dir, "detect", "bots.txt")
    with open(bots_path, newline="", encoding="utf-8") as fh:
        bot_ids = [row[0] for row in csv.reader(fh)]
    bot = np.zeros(len(accounts), dtype=bool)
    bot[_positions(bots_path, bot_ids, accounts, "rerun detect-bots")] = True

    ratings = None
    warning = None
    if Path(cfg.ratings).exists():
        ratings = acc.MediaRatingsTable.from_csv(cfg.ratings)
    else:
        warning = f"ratings file {cfg.ratings} missing; media quality columns left empty"
        log.warning(warning)

    table = acc.build_account_records(
        content,
        _read_manifest(out_dir)["build"]["window"]["duration_days"],
        bot,
        acc.load_keywords(cfg.qanon_keywords),
        cfg.partisan_cutoff,
        ratings=ratings,
    )

    accounts_path = out_dir / "accounts.csv"
    _atomic_write_rows(
        accounts_path,
        ["account_id", "opinion", "partisanship", "qanon", "bot", "scored",
         "tweet_count", "tweet_rate", "media_quality", "mean_toxicity"],
        zip(accounts, map(_fmt, table.opinion.tolist()),
            [acc.PRO if pro else acc.ANTI for pro in table.pro.tolist()],
            *(column.astype(int).tolist() for column in (table.qanon, table.bot, table.scored)),
            table.tweet_count.tolist(), map(_fmt, table.tweet_rate.tolist()),
            map(_opt, table.media_quality.tolist()), map(_opt, table.mean_toxicity.tolist())),
    )

    summary_path = out_dir / "group_summary.csv"
    _atomic_write_rows(
        summary_path,
        ["partisanship", "bot", "qanon", "accounts", "tweets",
         "mean_tweet_rate", "mean_media_quality", "mean_toxicity"],
        [(*row[:5], *map(_opt, row[5:])) for row in acc.group_summary(table)],
    )

    payload = {
        "accounts": len(accounts),
        "bots": int(np.count_nonzero(table.bot)),
        "qanon": int(np.count_nonzero(table.qanon)),
        "warning": warning,
    }
    _update_manifest(out_dir, "classify", payload, [accounts_path, summary_path])
    return payload


# -- ghic -----------------------------------------------------------------------------


def _load_csv(out_dir: Path, stage: str, name: str) -> list[dict]:
    [path] = _listed_paths(out_dir, stage, name)
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def account_table(out_dir: Path, accounts: list[str]) -> acc.AccountTable:
    """The account table that accounts.csv holds (this is its one reader), over
    the positions of ``accounts``; a file that does not list exactly those
    accounts, in that order, raises StageError ("rerun classify")."""
    [path] = _listed_paths(out_dir, "classify", "accounts.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    if [row[0] for row in rows] != accounts:
        raise StageError(f"{path} does not list the accounts of accounts.json in order; "
                         "rerun classify")
    columns = dict(zip(header, zip(*rows)))

    def floats(name: str) -> np.ndarray:
        return np.array([float(x) if x else np.nan for x in columns[name]], dtype=np.float64)

    def flags(name: str, value: str = "1") -> np.ndarray:
        return np.array([x == value for x in columns[name]], dtype=bool)

    return acc.AccountTable(
        opinion=floats("opinion"), scored=flags("scored"),
        tweet_count=np.array([int(x) for x in columns["tweet_count"]], dtype=np.int64),
        tweet_rate=floats("tweet_rate"), pro=flags("partisanship", acc.PRO),
        qanon=flags("qanon"), bot=flags("bot"), media_quality=floats("media_quality"),
        mean_toxicity=floats("mean_toxicity"),
    )


def _load_daily_active(out_dir: Path, accounts: list[str]) -> dict[date, np.ndarray]:
    """Each day's active accounts as a mask over ``accounts``; an id not in the
    list raises StageError ("rerun build")."""
    [path] = _listed_paths(out_dir, "build", "daily_active.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        _, *rows = csv.reader(fh)
    days, ids = zip(*rows)
    position = _positions(path, ids, accounts, "rerun build")
    names, day = np.unique(days, return_inverse=True)
    active = np.zeros((names.size, len(accounts)), dtype=bool)
    active[day, position] = True
    return dict(zip(map(date.fromisoformat, names.tolist()), active))


def stage_ghic(cfg: PipelineConfig) -> dict:
    """Daily influence series and per-bot efficiency distributions.

    The follower network, the accounts.csv columns and each day's active
    accounts all index the sorted account list in accounts.json; the
    follower network holds every account, in that order.
    """
    out_dir = Path(cfg.out_dir)
    accounts = load_accounts(out_dir)
    [follower_path] = _listed_paths(out_dir, "build", "follower.cols")
    nodes, src, tgt, _ = load_columns(follower_path, accounts)
    if not np.array_equal(nodes, np.arange(len(accounts))):
        raise StageError(f"{follower_path} does not hold the accounts of accounts.json "
                         "in order; rerun build")
    table = account_table(out_dir, accounts)
    active_by_day = _load_daily_active(out_dir, accounts)

    groups = table.groups
    fixed = identify_stubborn(table.opinion, groups["all_bots"], cfg.stubborn_low_pct,
                              cfg.stubborn_high_pct)
    arrays = (src, tgt, table.tweet_rate, fixed, table.opinion)
    series = daily_ghic_series(arrays, active_by_day, groups)
    per_bot = ghic_per_bot(series, groups)

    series_path = out_dir / "ghic_series.csv"
    _atomic_write_rows(
        series_path,
        ["day", "group", "ghic", "active_nodes", "group_active_count", "ghic_per_bot"],
        [
            (entry.day.isoformat(), name, _fmt(result.value), entry.active_nodes,
             result.target_count,
             _fmt(result.value / result.target_count) if result.target_count else "")
            for entry in series.entries for name, result in sorted(entry.results.items())
        ],
    )

    box_path = out_dir / "ghic_per_bot.csv"
    _atomic_write_rows(
        box_path, ["group", "min", "q1", "median", "q3", "max", "mean", "n"],
        [
            (name, "", "", "", "", "", "", 0) if stats is None else
            (name, *map(_fmt, (stats.minimum, stats.q1, stats.median, stats.q3,
                               stats.maximum, stats.mean)), stats.n)
            for name, stats in per_bot.items()  # in group order
        ],
    )

    payload = {
        "days_computed": len(series.entries),
        "days_skipped": len(series.skipped_days),
        "groups": sorted(groups),
    }
    _update_manifest(out_dir, "ghic", payload, [series_path, box_path])
    return payload
