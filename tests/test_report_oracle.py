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

import random

import pytest

from botimpact import accounts as acc
from botimpact import report
from botimpact.config import PipelineConfig
from botimpact.graph import DirectedGraph, load_edge_list
from botimpact.pipeline import (StageError, _listed_paths, _load_csv, account_table, load_accounts,
                                stage_build, stage_classify, stage_detect)
from botimpact.synth import SynthSpec, generate

SPECS = {
    "two_block_polarized": dict(days=3, humans_per_block=12, bots_per_block=3,
                                qanon_bot_frac=0.5, human_rate=1.0, bot_rate=8.0),
    "planted_bot_retweet": dict(days=2, n_bots=6, n_humans=40, bot_rate=6.0,
                                bot_rt_human=4.0, human_rt_human=2.0, follow_out=4),
    "core_periphery_qanon": dict(days=2, core_bots=4, periphery_humans=30),
}
SEEDS = range(3)


# -- the reference -------------------------------------------------------------------


def _edges(graph: DirectedGraph):
    src, tgt, w = graph.edge_arrays()
    for e in range(len(src)):
        yield graph.label(int(src[e])), graph.label(int(tgt[e])), float(w[e])


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
        for author, retweeter, w in _edges(load_edge_list(path, accounts)):
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
    return out, _load_csv(out, "classify", "accounts.csv")


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
            followers = _ref_followers(load_edge_list(follower_path, accounts))

            for rows in (classified, _perturbed(classified, seed)):
                table = account_table(rows, accounts)
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


def test_groups_and_sides_follow_the_account_list_not_the_row_order(tmp_path):
    out, rows = _classified(tmp_path, "two_block_polarized", 0)
    accounts = load_accounts(out)
    table = account_table(rows, accounts)
    shuffled = account_table(rows[::-1], accounts)
    for name in ("opinion", "tweet_rate", "side"):
        assert (getattr(table, name) == getattr(shuffled, name)).all(), name
    assert all((table.groups[name] == shuffled.groups[name]).all() for name in table.groups)
    side = table.side
    codes = {"anti": 1, "pro": 2}
    for row in rows:
        i = accounts.index(row["account_id"])
        assert side[i] == (codes[row["partisanship"]] if row["scored"] == "1" else 0)
        assert table.opinion[i] == float(row["opinion"])
        assert table.tweet_rate[i] == float(row["tweet_rate"])


def test_an_account_table_of_other_accounts_is_refused(tmp_path):
    out, rows = _classified(tmp_path, "two_block_polarized", 0)
    accounts = load_accounts(out)
    renamed = [dict(rows[0], account_id="someone-else")] + rows[1:]
    for bad in (rows[1:], rows + rows[:1], renamed):
        with pytest.raises(StageError, match="rerun classify"):
            account_table(bad, accounts)

