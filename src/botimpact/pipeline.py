"""File-to-file pipeline stages behind the CLI.

Every stage reads flat files, writes flat files (text ones atomically: temp
then rename), and updates ``manifest.json`` with row counts and content
checksums.  ``build`` writes its networks as network files (see ``graph``)
on the sorted account list in ``accounts.json``, straight from the columns
``ingest`` returns; every later stage but ``detect-bots`` works on positions
in that list too.  Outputs carry no timestamps, so identical inputs and
configuration reproduce byte-identical results.
"""

from __future__ import annotations

import csv
import fnmatch
import hashlib
import json
import logging
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import accounts as acc
from . import botdetect, ingest
from .config import GROUP_NAMES, PipelineConfig
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


def _read_manifest(out_dir: Path) -> dict:
    """The stage entries of ``manifest.json``, {} before any stage has run; an
    unreadable manifest raises StageError ("rerun build")."""
    path = out_dir / "manifest.json"
    if not path.exists():
        return {}
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise StageError(f"{path} unreadable ({exc}); rerun build") from None


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
    derives from one parse of each tweet into columns (see ``ingest``)."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tweet_stats = ingest.ParseStats()
    tweets = ingest.tweet_columns(ingest.load_tweets(cfg.tweets, stats=tweet_stats))
    if not tweets.author.size:
        raise ingest.IngestError(f"no parseable tweets in {cfg.tweets}")
    window = tweets.window()
    content = ingest.account_content(tweets)

    # profiles are streamed once, so descriptions are noted on their way to the network
    def _noting_descriptions(profiles: Iterable[ingest.UserProfileRecord]):
        for profile in profiles:
            if profile.account_id in content:
                content[profile.account_id].description = profile.description
            yield profile

    profile_stats = ingest.ParseStats()
    profiles = ingest.load_profiles(
        cfg.profiles, stats=profile_stats, followings_cap=cfg.followings_cap
    )
    follower = ingest.build_follower_network(_noting_descriptions(profiles), tweets.accounts)
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

    # classify's whole input: JSON floats round-trip, so its means are exact
    _atomic_write_text(
        out_dir / "account_content.jsonl",
        "".join(
            json.dumps({"account_id": a, **vars(content[a])}) + "\n" for a in sorted(content)
        ),
    )

    _atomic_write_rows(out_dir / "daily_active.csv", ["day", "account_id"], active)
    written += [out_dir / n for n in ("account_content.jsonl", "daily_active.csv")]

    payload = {
        "config": cfg.snapshot(),
        "window": {"start": window.start.isoformat(), "end": window.end.isoformat(),
                   "duration_days": window.duration_days},
        "tweets_parsed": tweet_stats.parsed,
        "tweets_skipped": tweet_stats.skipped,
        "profiles_parsed": profile_stats.parsed,
        "profiles_skipped": profile_stats.skipped,
        "accounts": len(content),
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


def stage_detect(cfg: PipelineConfig) -> dict:
    """Daily factor-graph inference, threshold, and cross-day union."""
    out_dir = Path(cfg.out_dir)
    accounts = load_accounts(out_dir)
    day_paths = _listed_paths(out_dir, "build", "retweet_*.cols")
    params = cfg.bp_params()

    results = [
        (path.stem.removeprefix("retweet_"),
         botdetect.infer_bot_probabilities(load_edge_list(path, accounts), params))
        for path in day_paths
    ]

    written: list[Path] = []
    daily_sets = []
    pooled_values: list[float] = []
    for day, posterior in results:
        path = out_dir / f"posterior_{day}.csv"
        _atomic_write_rows(
            path,
            ["account_id", "bot_probability", "converged"],
            [
                (a, _fmt(p), str(posterior.converged).lower())
                for a, p in sorted(posterior.marginals.items())
            ],
        )
        written.append(path)
        daily_sets.append(botdetect.threshold_bots(posterior, cfg.bot_threshold))
        pooled_values.extend(posterior.marginals.values())

    bots = botdetect.union_daily_bots(daily_sets)
    bots_path = out_dir / "bots.txt"
    # one id a line, quoted when it holds a comma, a quote or a line break
    _atomic_write_rows(bots_path, (), ([b] for b in sorted(bots)), lineterminator="\n")
    written.append(bots_path)

    hist_counts, edges = botdetect.probability_histogram(pooled_values, cfg.histogram_bins)
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
        "days": len(results),
        "bots": len(bots),
        "unconverged_days": sum(1 for _, post in results if not post.converged),
    }
    _update_manifest(out_dir, "detect", payload, written)
    return payload


# -- classification ------------------------------------------------------------------


def _load_bots(out_dir: Path) -> set[str]:
    [path] = _listed_paths(out_dir, "detect", "bots.txt")
    with open(path, newline="", encoding="utf-8") as fh:
        return {row[0] for row in csv.reader(fh)}


def _load_content(out_dir: Path) -> dict[str, ingest.AccountContent]:
    [path] = _listed_paths(out_dir, "build", "account_content.jsonl")
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    return {row.pop("account_id"): ingest.AccountContent(**row) for row in rows}


def _keyword_set(path: str, label: str) -> acc.KeywordSet:
    if path:
        return acc.load_keywords(path, label)
    return acc.packaged_keywords(label)


def stage_classify(cfg: PipelineConfig) -> dict:
    """Per-account labels and aggregates plus the group summary table."""
    out_dir = Path(cfg.out_dir)
    content = _load_content(out_dir)
    bots = _load_bots(out_dir)

    ratings = None
    warning = None
    if Path(cfg.ratings).exists():
        ratings = acc.MediaRatingsTable.from_csv(cfg.ratings)
    else:
        warning = f"ratings file {cfg.ratings} missing; media quality columns omitted"
        log.warning(warning)

    qanon_kw = _keyword_set(cfg.qanon_keywords, "qanon")
    records = acc.build_account_records(
        content,
        _read_manifest(out_dir)["build"]["window"]["duration_days"],
        bots,
        qanon_kw,
        ratings=ratings,
        cutoff=cfg.partisan_cutoff,
    )

    def _opt(x: float | None) -> str:
        return "" if x is None else _fmt(x)

    accounts_path = out_dir / "accounts.csv"
    _atomic_write_rows(
        accounts_path,
        ["account_id", "opinion", "partisanship", "qanon", "bot", "scored",
         "tweet_count", "tweet_rate", "media_quality", "mean_toxicity"],
        [
            (
                r.account_id, _fmt(r.opinion), r.partisanship, int(r.qanon),
                int(r.bot), int(r.scored), r.tweet_count, _fmt(r.tweet_rate),
                _opt(r.media_quality), _opt(r.mean_toxicity),
            )
            for r in (records[a] for a in sorted(records))
        ],
    )

    summary_path = out_dir / "group_summary.csv"
    rows = []
    for row in acc.group_summary(records.values()):
        rows.append(
            (
                row.partisanship or "all",
                "" if row.bot is None else int(row.bot),
                "" if row.qanon is None else int(row.qanon),
                row.accounts,
                row.tweets,
                _fmt(row.mean_rate),
                _opt(row.mean_media_quality),
                _opt(row.mean_toxicity),
            )
        )
    _atomic_write_rows(
        summary_path,
        ["partisanship", "bot", "qanon", "accounts", "tweets",
         "mean_tweet_rate", "mean_media_quality", "mean_toxicity"],
        rows,
    )

    payload = {
        "accounts": len(records),
        "bots": sum(1 for r in records.values() if r.bot),
        "qanon": sum(1 for r in records.values() if r.qanon),
        "warning": warning,
    }
    _update_manifest(out_dir, "classify", payload, [accounts_path, summary_path])
    return payload


# -- ghic -----------------------------------------------------------------------------


def _load_csv(out_dir: Path, stage: str, name: str) -> list[dict]:
    [path] = _listed_paths(out_dir, stage, name)
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@dataclass
class AccountTable:
    """accounts.csv as columns over the positions of the sorted account list."""

    opinion: np.ndarray  # measured opinion
    tweet_rate: np.ndarray
    side: np.ndarray  # partisanship of scored accounts: 0 unscored, 1 anti, 2 pro
    groups: dict[str, np.ndarray]  # each of GROUP_NAMES -> bool mask


def account_table(rows: list[dict], accounts: list[str]) -> AccountTable:
    """The rows of accounts.csv placed by their position in ``accounts``, and the
    bot groups: all bots, anti-Trump bots, pro-Trump non-Qanon bots and Qanon
    bots.  Rows that are not exactly the accounts raise StageError ("rerun
    classify")."""
    index = {account: i for i, account in enumerate(accounts)}
    position = [index.get(row["account_id"], -1) for row in rows]
    if sorted(position) != list(range(len(accounts))):
        raise StageError("accounts.csv does not list the accounts of accounts.json; "
                         "rerun classify")
    ordered = [rows[i] for i in np.argsort(position)]

    def flag(key: str, value: str) -> np.ndarray:
        return np.array([row[key] == value for row in ordered], dtype=bool)

    bot, qanon, anti, pro = (flag("bot", "1"), flag("qanon", "1"),
                             flag("partisanship", acc.ANTI), flag("partisanship", acc.PRO))
    return AccountTable(
        opinion=np.array([float(row["opinion"]) for row in ordered], dtype=np.float64),
        tweet_rate=np.array([float(row["tweet_rate"]) for row in ordered], dtype=np.float64),
        side=np.where(flag("scored", "1"), anti + 2 * pro, 0).astype(np.int8),
        groups=dict(zip(GROUP_NAMES, (bot, bot & anti, bot & pro & ~qanon, bot & qanon))),
    )


def _load_daily_active(out_dir: Path, accounts: list[str]) -> dict[date, np.ndarray]:
    """Each day's active accounts as a mask over ``accounts``; an id not in the
    list raises StageError ("rerun build")."""
    [path] = _listed_paths(out_dir, "build", "daily_active.csv")
    index = {account: i for i, account in enumerate(accounts)}
    positions: dict[date, list[int]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["account_id"] not in index:
                raise StageError(f"{path} names {row['account_id']!r}, which accounts.json "
                                 "does not list; rerun build")
            positions.setdefault(date.fromisoformat(row["day"]), []).append(
                index[row["account_id"]])
    return {day: np.bincount(p, minlength=len(accounts)) > 0 for day, p in positions.items()}


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
    table = account_table(_load_csv(out_dir, "classify", "accounts.csv"), accounts)
    active_by_day = _load_daily_active(out_dir, accounts)

    fixed = identify_stubborn(table.opinion, table.groups["all_bots"], cfg.stubborn_low_pct,
                              cfg.stubborn_high_pct)
    groups = {name: table.groups[name] for name in cfg.group_names()}
    arrays = (src, tgt, table.tweet_rate, fixed, table.opinion)
    series = daily_ghic_series(arrays, active_by_day, groups)
    per_bot = ghic_per_bot(series, groups)

    series_path = out_dir / "ghic_series.csv"
    _atomic_write_rows(
        series_path,
        ["day", "group", "ghic", "active_nodes", "group_active_count", "ghic_per_bot"],
        [
            (entry.day.isoformat(), name, _fmt(result.value), entry.active_nodes,
             entry.group_active[name],
             _fmt(result.value / entry.group_active[name]) if entry.group_active[name] else "")
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
