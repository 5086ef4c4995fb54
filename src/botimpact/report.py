"""Consolidated plain-text report over the outputs of the stages that have run.

A section whose stage has no manifest entry reads "not available"; every file
a section reads is one its stage's entry lists, with the checksum verified.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import accounts as acc
from .config import PipelineConfig
from .graph import DirectedGraph, load_columns, load_edge_list
from .pipeline import _listed_paths, _load_csv, load_accounts

_MISSING = "  (not available: run the {stage} stage first)\n"


def _fmt_opt(value: str, digits: int = 4) -> str:
    return f"{float(value):.{digits}f}" if value else "-"


def _section(title: str) -> str:
    return f"\n{title}\n{'-' * len(title)}\n"


def build_report(cfg: PipelineConfig) -> str:
    out_dir = Path(cfg.out_dir)
    parts: list[str] = ["botimpact pipeline report\n=========================\n"]

    manifest = {}
    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))

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

    rows = summary = None
    if "classify" in manifest:
        rows = _load_csv(out_dir, "classify", "accounts.csv")
        summary = _load_csv(out_dir, "classify", "group_summary.csv")
    parts.append(_section("Account types"))
    if rows and summary:
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
        for name, members in _prevalence_groups(rows).items():
            if members:
                fraction = sum(1 for r in members if r["bot"] == "1") / len(members)
                parts.append(f"    {name:<12} {fraction:.4f}  (n={len(members)})\n")
    else:
        parts.append(_MISSING.format(stage="classify"))

    parts.append(_section("Retweet leaderboards"))
    accounts = load_accounts(out_dir) if build else None
    merged = _merged_retweet_network(out_dir, accounts)
    if rows and merged is not None:
        bot_side = {
            "anti-Trump bots": {r["account_id"] for r in rows
                                if r["bot"] == "1" and r["partisanship"] == "anti"},
            "pro-Trump bots": {r["account_id"] for r in rows
                               if r["bot"] == "1" and r["partisanship"] == "pro"},
        }
        for title, bots in bot_side.items():
            parts.append(f"  most retweeted by {title}:\n")
            if not bots:
                parts.append("    (no such bots detected)\n")
                continue
            board = acc.retweet_leaderboard(merged, lambda a, b=bots: a in b, k=10)
            if not board:
                parts.append("    (no retweets from this group)\n")
            for account, count in board:
                parts.append(f"    {account:<16} {int(count)}\n")
    else:
        parts.append(_MISSING.format(stage="build + classify"))

    parts.append(_section("Network structure"))
    if rows and build:
        [follower_path] = _listed_paths(out_dir, "build", "follower.cols")
        follower = load_edge_list(follower_path, accounts)
        anti_bots = {r["account_id"] for r in rows
                     if r["bot"] == "1" and r["partisanship"] == "anti"}
        pro_bots = {r["account_id"] for r in rows
                    if r["bot"] == "1" and r["partisanship"] == "pro"}
        a_only, b_only, both = acc.follower_overlap(follower, anti_bots, pro_bots)
        parts.append(
            f"  followers of anti-Trump bots only: {a_only}\n"
            f"  followers of pro-Trump bots only:  {b_only}\n"
            f"  following both sides:              {both}\n"
        )
        labels = {r["account_id"]: r["partisanship"] for r in rows if r["scored"] == "1"}
        parts.append("  mean co-partisan follower fraction:\n")
        for name, bots in (
            ("anti bots", anti_bots),
            ("pro non-Qanon bots",
             {r["account_id"] for r in rows
              if r["bot"] == "1" and r["partisanship"] == "pro" and r["qanon"] != "1"}),
            ("Qanon bots", {r["account_id"] for r in rows if r["qanon"] == "1" and r["bot"] == "1"}),
        ):
            fractions = [
                f for f in (
                    acc.co_partisan_fraction(follower, bot, labels) for bot in sorted(bots)
                ) if f is not None
            ]
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


def _prevalence_groups(rows: list[dict]) -> dict[str, list[dict]]:
    return {
        "anti": [r for r in rows if r["partisanship"] == "anti"],
        "pro": [r for r in rows if r["partisanship"] == "pro"],
        "qanon": [r for r in rows if r["qanon"] == "1"],
    }


def _merged_retweet_network(out_dir: Path, accounts: list[str] | None) -> DirectedGraph | None:
    """Every daily retweet network the last build listed, in one graph on ``accounts``
    (None without them); a listed file missing or changed raises StageError."""
    if accounts is None:
        return None
    days = [load_columns(path, accounts)
            for path in _listed_paths(out_dir, "build", "retweet_*.cols")]
    columns = zip(*((nodes[src], nodes[tgt], w) for nodes, src, tgt, w in days))
    return DirectedGraph._from_arrays(accounts, *(np.concatenate(c) for c in columns))
