"""The report's network statistics against naive per-edge references.

The reference below is how the statistics used to be computed: it walks a
``DirectedGraph`` edge by edge with string ids, dicts and sets.  The package
computes them with ``bincount`` and masks over account positions.  Both run on
the same classified tables of small synth corpora of every topology, so any
change in grouping, tie order, follower counting or fraction rounding shows up
as an inequality.  The tables are perturbed so that every corner occurs: Qanon
bots, tied leaderboard counts, bots with no labeled follower, unscored bots and
empty groups.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest

from botimpact import accounts as acc
from botimpact import report
from botimpact.config import PipelineConfig
from botimpact.graph import DirectedGraph, load_columns
from botimpact.pipeline import (StageError, _listed_paths, account_table, load_accounts,
                                stage_build, stage_classify, stage_detect)
from botimpact.synth import SynthSpec, generate

from conftest import network_graph

SPECS = {
    "two_block_polarized": dict(days=3, humans_per_block=12, bots_per_block=3,
                                qanon_bot_frac=0.5, human_rate=1.0, bot_rate=8.0),
    "planted_bot_retweet": dict(days=2, n_bots=6, n_humans=40, bot_rate=6.0,
                                bot_rt_human=4.0, human_rt_human=2.0, follow_out=4),
    "core_periphery_qanon": dict(days=2, core_bots=4, periphery_humans=30),
}
SEEDS = range(3)


# -- the reference -------------------------------------------------------------------


def _id_graph(path, accounts) -> DirectedGraph:
    """The network file at ``path`` as a graph labelled by account ids."""
    return network_graph(load_columns(path, accounts), accounts)


def _edges(graph: DirectedGraph):
    src, tgt, w = graph.edge_arrays()
    for e in range(len(src)):
        yield graph.labels[int(src[e])], graph.labels[int(tgt[e])], float(w[e])


def _ref_leaderboard(network: DirectedGraph, bots: set[str], k: int) -> list[tuple[str, float]]:
    received: dict[str, float] = {}
    for author, retweeter, w in _edges(network):
        if retweeter in bots:
            received[author] = received.get(author, 0.0) + w
    return sorted(received.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def _ref_followers(network: DirectedGraph) -> dict[str, list[str]]:
    followers: dict[str, list[str]] = {}
    for followee, follower, _ in _edges(network):
        followers.setdefault(followee, []).append(follower)
    return followers


def _ref_overlap(followers, set_a: set[str], set_b: set[str]) -> tuple[int, int, int]:
    fa = {f for account in set_a for f in followers.get(account, ())}
    fb = {f for account in set_b for f in followers.get(account, ())}
    both = fa & fb
    return len(fa - both), len(fb - both), len(both)


def _ref_co_partisan(followers, bot: str, labels: dict[str, str]) -> float | None:
    own = labels.get(bot)
    if own is None:
        return None
    sides = [labels[f] for f in followers.get(bot, ()) if f in labels]
    return sum(1 for side in sides if side == own) / len(sides) if sides else None


def _ref_groups(rows: list[dict]) -> dict[str, set[str]]:
    bots = [row for row in rows if row["bot"] == "1"]
    return {
        "all_bots": {row["account_id"] for row in bots},
        "anti_bots": {row["account_id"] for row in bots if row["partisanship"] == "anti"},
        "pro_bots": {row["account_id"] for row in bots
                     if row["partisanship"] == "pro" and row["qanon"] != "1"},
        "qanon_bots": {row["account_id"] for row in bots if row["qanon"] == "1"},
    }


def _ref_merged(out, accounts) -> DirectedGraph:
    merged = DirectedGraph()
    for account in accounts:
        merged.add_node(account)
    for path in _listed_paths(out, "build", "retweet_*.cols"):
        for author, retweeter, w in _edges(_id_graph(path, accounts)):
            merged.add_interaction(author, retweeter, w)
    return merged


# -- the comparison --------------------------------------------------------------------


def _classified(tmp_path, topology: str, seed: int):
    corpus, out = tmp_path / f"{topology}-{seed}", tmp_path / f"{topology}-{seed}-out"
    generate(SynthSpec(seed=seed, topology=topology, **SPECS[topology]), corpus)
    cfg = PipelineConfig(tweets=str(corpus / "tweets.jsonl"),
                         profiles=str(corpus / "profiles.jsonl"),
                         ratings=str(corpus / "ratings.csv"), out_dir=str(out))
    for stage in (stage_build, stage_detect, stage_classify):
        stage(cfg)
    with open(out / "accounts.csv", newline="", encoding="utf-8") as fh:
        return out, list(csv.DictReader(fh))


def _flags(rows: list[dict], key: str) -> np.ndarray:
    return np.array([row[key] == "1" for row in rows], dtype=bool)


def _perturbed(rows: list[dict], seed: int) -> list[dict]:
    """Some humans made bots, some pro bots Qanon, some bots unscored."""
    rng = random.Random(seed)
    rows = [dict(row) for row in rows]
    for row in rows:
        if rng.random() < 0.3:
            row["bot"] = "1"
        if row["bot"] == "1" and row["partisanship"] == "pro" and rng.random() < 0.3:
            row["qanon"] = "1"
        if row["bot"] == "1" and rng.random() < 0.2:
            row["scored"] = "0"
    return rows


def test_network_statistics_match_the_per_edge_reference(tmp_path):
    seen = dict.fromkeys(("qanon bot", "tied counts", "no labeled follower",
                          "unscored bot", "empty group"), 0)
    for topology in SPECS:
        for seed in SEEDS:
            out, classified = _classified(tmp_path, topology, seed)
            accounts = load_accounts(out)
            retweets = report._merged_retweet_network(out, accounts)
            [follower_path] = _listed_paths(out, "build", "follower.cols")
            src, tgt, _ = report._global_columns(follower_path, accounts)
            ref_retweets = _ref_merged(out, accounts)
            followers = _ref_followers(_id_graph(follower_path, accounts))
            classified_table = account_table(out, accounts)
            assert [row["account_id"] for row in classified] == accounts

            for rows in (classified, _perturbed(classified, seed)):
                table = dataclasses.replace(classified_table, bot=_flags(rows, "bot"),
                                            qanon=_flags(rows, "qanon"),
                                            scored=_flags(rows, "scored"))
                masks, side = dict(table.groups), table.side
                ids = _ref_groups(rows)
                ids["pro_trump"] = ids["pro_bots"] | ids["qanon_bots"]
                masks["pro_trump"] = masks["pro_bots"] | masks["qanon_bots"]
                ids["nobody"], masks["nobody"] = set(), masks["all_bots"] & False
                labels = {r["account_id"]: r["partisanship"] for r in rows if r["scored"] == "1"}
                seen["qanon bot"] += len(ids["qanon_bots"])

                for name, bots in ids.items():
                    assert {accounts[i] for i in masks[name].nonzero()[0]} == bots, name
                    seen["empty group"] += not bots
                    seen["unscored bot"] += len(bots - set(labels))
                    for k in (3, 10, len(accounts)):
                        board = acc.retweet_leaderboard(*retweets, masks[name], k=k)
                        expected = _ref_leaderboard(ref_retweets, bots, k)
                        assert [(accounts[i], c) for i, c in board] == expected, (name, k)
                        counts = [c for _, c in expected]
                        seen["tied counts"] += len(counts) - len(set(counts))

                    fractions = acc.co_partisan_fraction(src, tgt, masks[name], side).tolist()
                    reference = [_ref_co_partisan(followers, b, labels) for b in sorted(bots)]
                    assert fractions == [f for f in reference if f is not None], name
                    seen["no labeled follower"] += sum(
                        1 for b, f in zip(sorted(bots), reference) if b in labels and f is None
                    )

                for a in ids:
                    for b in ("anti_bots", "pro_trump", "nobody", a):
                        overlap = acc.follower_overlap(src, tgt, masks[a], masks[b])
                        assert overlap == _ref_overlap(followers, ids[a], ids[b]), (a, b)

    assert all(seen.values()), seen


def test_the_account_table_holds_accounts_csv_by_position(tmp_path):
    out, rows = _classified(tmp_path, "two_block_polarized", 0)
    accounts = load_accounts(out)
    table = account_table(out, accounts)
    codes = {"anti": 1, "pro": 2}
    assert len(rows) == len(accounts) == table.opinion.size
    for i, (account, row) in enumerate(zip(accounts, rows)):
        assert row["account_id"] == account
        assert table.side[i] == (codes[row["partisanship"]] if row["scored"] == "1" else 0)
        assert table.pro[i] == (row["partisanship"] == "pro")
        for name in ("bot", "qanon", "scored"):
            assert getattr(table, name)[i] == (row[name] == "1"), name
        assert table.tweet_count[i] == int(row["tweet_count"])
        for name in ("opinion", "tweet_rate", "media_quality", "mean_toxicity"):
            value = getattr(table, name)[i]
            assert (np.isnan(value) if row[name] == "" else value == float(row[name])), name


def _rewrite_accounts_csv(out, rows: list[dict]) -> None:
    """accounts.csv replaced by ``rows``, its manifest checksum updated to match."""
    path = out / "accounts.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["classify"]["checksums"]["accounts.csv"] = hashlib.sha256(
        path.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def test_an_account_table_of_other_accounts_is_refused(tmp_path):
    out, rows = _classified(tmp_path, "two_block_polarized", 0)
    accounts = load_accounts(out)
    renamed = [dict(rows[0], account_id="someone-else")] + rows[1:]
    for bad in (rows[1:], rows + rows[:1], renamed, rows[::-1]):
        _rewrite_accounts_csv(out, bad)
        with pytest.raises(StageError, match="rerun classify"):
            account_table(out, accounts)
    _rewrite_accounts_csv(out, rows)
    account_table(out, accounts)
