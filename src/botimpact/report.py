"""Consolidated plain-text report over the outputs of the stages that have run.

A section whose stage has no manifest entry reads "not available"; every file
a section reads is one its stage's entry lists, with the checksum verified.
The bot prevalence, leaderboard and network sections read accounts.csv as the
account table, masks over the positions of ``accounts.json``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import accounts as acc
from .config import PipelineConfig
from .graph import load_columns
from .pipeline import _listed_paths, _load_csv, _read_manifest, account_table, load_accounts

_MISSING = "  (not available: run the {stage} stage first)\n"


def _fmt_opt(value: str, digits: int = 4) -> str:
    return f"{float(value):.{digits}f}" if value else "-"


def _section(title: str) -> str:
    return f"\n{title}\n{'-' * len(title)}\n"


def build_report(cfg: PipelineConfig) -> str:
    out_dir = Path(cfg.out_dir)
    parts: list[str] = ["botimpact pipeline report\n=========================\n"]

    manifest = _read_manifest(out_dir)

    parts.append(_section("Corpus"))
    build = manifest.get("build")
    if build:
        window = build["window"]
        parts.append(
            f"  window         {window['start']} .. {window['end']}"
            f" ({window['duration_days']} days)\n"
            f"  tweets parsed  {build['tweets_parsed']} (skipped {build['tweets_skipped']})\n"
            f"  accounts       {build['accounts']}\n"
            f"  follower edges {build['follower_edges']}\n"
            f"  retweets       {build['retweets_total']}\n"
        )
    else:
        parts.append(_MISSING.format(stage="build"))

    table = summary = None
    if "classify" in manifest:
        summary = _load_csv(out_dir, "classify", "group_summary.csv")
        if build:
            accounts = load_accounts(out_dir)
            table = account_table(out_dir, accounts)
    parts.append(_section("Account types"))
    if summary:
        parts.append(
            "  partisanship  bot  qanon  accounts  tweets  mean_rate  media_q  toxicity\n"
        )
        for row in summary:
            parts.append(
                f"  {row['partisanship']:<12}  {row['bot'] or '-':<3}  {row['qanon'] or '-':<5}"
                f"  {row['accounts']:>8}  {row['tweets']:>6}"
                f"  {_fmt_opt(row['mean_tweet_rate']):>9}"
                f"  {_fmt_opt(row['mean_media_quality']):>7}"
                f"  {_fmt_opt(row['mean_toxicity']):>8}\n"
            )
        parts.append("\n  bot prevalence:\n")
        if table is None:
            parts.append(_MISSING.format(stage="build"))
        else:  # by the written partisanship, scored or not
            for name, members in (("anti", ~table.pro), ("pro", table.pro),
                                  ("qanon", table.qanon)):
                if n := int(np.count_nonzero(members)):
                    fraction = int(np.count_nonzero(members & table.bot)) / n
                    parts.append(f"    {name:<12} {fraction:.4f}  (n={n})\n")
    else:
        parts.append(_MISSING.format(stage="classify"))

    parts.append(_section("Retweet leaderboards"))
    if table is not None:
        groups, side = table.groups, table.side
        retweets = _merged_retweet_network(out_dir, accounts)
        anti, pro = groups["anti_bots"], groups["pro_bots"] | groups["qanon_bots"]
        for title, bots in (("anti-Trump bots", anti), ("pro-Trump bots", pro)):
            parts.append(f"  most retweeted by {title}:\n")
            if not bots.any():
                parts.append("    (no such bots detected)\n")
                continue
            board = acc.retweet_leaderboard(*retweets, bots, k=10)
            if not board:
                parts.append("    (no retweets from this group)\n")
            for i, count in board:
                parts.append(f"    {accounts[i]:<16} {int(count)}\n")
    else:
        parts.append(_MISSING.format(stage="build + classify"))

    parts.append(_section("Network structure"))
    if table is not None:
        [follower_path] = _listed_paths(out_dir, "build", "follower.cols")
        src, tgt, _ = _global_columns(follower_path, accounts)
        a_only, b_only, both = acc.follower_overlap(src, tgt, anti, pro)
        parts.append(
            f"  followers of anti-Trump bots only: {a_only}\n"
            f"  followers of pro-Trump bots only:  {b_only}\n"
            f"  following both sides:              {both}\n"
        )
        parts.append("  mean co-partisan follower fraction:\n")
        for name, group in (("anti bots", "anti_bots"), ("pro non-Qanon bots", "pro_bots"),
                            ("Qanon bots", "qanon_bots")):
            fractions = acc.co_partisan_fraction(src, tgt, groups[group], side).tolist()
            value = f"{acc.ordered_mean(fractions):.4f}" if fractions else "-"
            parts.append(f"    {name:<20} {value}  (bots with labeled followers: {len(fractions)})\n")
    else:
        parts.append(_MISSING.format(stage="build + classify"))

    parts.append(_section("Impact (daily influence centrality)"))
    if "ghic" in manifest:
        series = _load_csv(out_dir, "ghic", "ghic_series.csv")
        box = _load_csv(out_dir, "ghic", "ghic_per_bot.csv")
        by_group: dict[str, list[float]] = {}
        for row in series:
            by_group.setdefault(row["group"], []).append(float(row["ghic"]))
        for name in sorted(by_group):
            values = by_group[name]
            parts.append(
                f"  {name:<12} days={len(values)}  mean={acc.ordered_mean(values):+.6f}"
                f"  min={min(values):+.6f}  max={max(values):+.6f}\n"
            )
        parts.append("\n  per-bot daily efficiency:\n")
        parts.append("    group        n      mean        median\n")
        for row in box:
            mean = _fmt_opt(row["mean"], 6)
            median = _fmt_opt(row["median"], 6)
            parts.append(f"    {row['group']:<12} {row['n']:>3}  {mean:>10}  {median:>10}\n")
    else:
        parts.append(_MISSING.format(stage="ghic"))

    return "".join(parts)


def _global_columns(path: Path, accounts: list[str]) -> tuple[np.ndarray, ...]:
    """(sources, targets, weights) of a network file, as positions in ``accounts``."""
    nodes, src, tgt, w = load_columns(path, accounts)
    return nodes[src], nodes[tgt], w


def _merged_retweet_network(out_dir: Path, accounts: list[str]) -> tuple[np.ndarray, ...]:
    """(authors, retweeters, counts) of every daily retweet network the last build
    listed, as positions in ``accounts``; a listed file missing or changed raises
    StageError."""
    days = [_global_columns(path, accounts)
            for path in _listed_paths(out_dir, "build", "retweet_*.cols")]
    return tuple(np.concatenate(column) for column in zip(*days))
