"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import csv
import hashlib
import json
import math
import shutil
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from botimpact.botdetect import (
    FactorGraphParams,
    exhaustive_oracle,
    infer_bot_probabilities,
)
from botimpact.cli import main as cli_main
from botimpact.config import PipelineConfig
from botimpact.ghic import ghic
from botimpact.graph import DirectedGraph
from botimpact.ingest import (
    account_content,
    build_daily_retweet_network,
    build_follower_network,
    load_profiles,
    load_tweets,
    tweet_columns,
)
from botimpact.opinion import fixed_point_oracle, identify_stubborn, solve_network
from botimpact.synth import SynthSpec, generate

from conftest import (
    auc_score, edge_dict, graph_of, network_graph, random_instance, solver_inputs,
)
from test_botdetect import _random_forest
from test_ghic import _ghic

N_EQUILIBRIUM_INSTANCES = 100
SOLVER_ORACLE_TOL = 1e-8
GHIC_INSTANCES = 50
FOREST_INSTANCES = 50
FOREST_TOL = 1e-9
AUC_SEEDS = 10
AUC_FLOOR = 0.9
ECHO_SEEDS = 10
ECHO_WINS_REQUIRED = 9


def _solved_instances():
    for seed in range(N_EQUILIBRIUM_INSTANCES):
        g, lam, fixed, anchor = random_instance(seed=1000 + seed)
        src, tgt, _ = g.edge_arrays()
        yield src, tgt, lam, fixed, anchor, solve_network(src, tgt, lam, fixed, anchor)


def test_criterion_1_equilibrium_matches_oracle():
    start = time.time()
    worst = 0.0
    for src, tgt, lam, fixed, anchor, (opinion, final) in _solved_instances():
        oracle = fixed_point_oracle(src, tgt, lam, final, anchor)
        assert np.array_equal(oracle[final], opinion[final])
        if not final.all():
            gap = float(np.max(np.abs(opinion - oracle)))
            worst = max(worst, gap)
            assert gap <= SOLVER_ORACLE_TOL
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(
        f"\ncriterion 1 PASS: solver/oracle agreement on {N_EQUILIBRIUM_INSTANCES} "
        f"instances, worst gap {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_2_maximum_principle_and_rate_scaling():
    start = time.time()
    for src, tgt, lam, fixed, anchor, (opinion, final) in _solved_instances():
        if final.all():
            continue
        lo = anchor[final].min()
        hi = anchor[final].max()
        for value in opinion[~final]:
            assert lo - 1e-9 <= value <= hi + 1e-9
        scaled, scaled_final = solve_network(src, tgt, lam * 4.0, fixed, anchor)
        assert np.array_equal(scaled_final, final)
        for i in np.flatnonzero(~final):
            assert scaled[i] == pytest.approx(opinion[i], abs=1e-8)
    print(
        "\ncriterion 2 PASS: maximum principle and rate-scale invariance on "
        f"{N_EQUILIBRIUM_INSTANCES} instances, {time.time() - start:.1f}s"
    )


def _sign_instance(seed: int):
    """Anchored instance: S stubborn at 1, anchor at 0 feeding every free node."""
    rng = np.random.default_rng(seed)
    g, lam, _, _ = random_instance(seed=seed, n_lo=15, n_hi=60)
    names = g.labels
    anchor, rest = names[0], names[1:]
    ones = set(rng.choice(rest, size=max(1, len(rest) // 5), replace=False).tolist())
    g2 = DirectedGraph()
    for name in names:
        g2.add_node(name)
    edges = edge_dict(g)
    for (u, v), w in edges.items():
        g2.add_interaction(u, v, w)
    for name in names:
        if name != anchor and name not in ones and (anchor, name) not in edges:
            g2.add_interaction(anchor, name, 1.0)
    rates = {name: float(lam[i]) for i, name in enumerate(names)}
    rates[anchor] = max(rates[anchor], 1.0)
    opinions = {name: 0.5 for name in names}
    opinions.update({b: 1.0 for b in ones})
    opinions[anchor] = 0.0
    return g2, rates, {anchor: 0.0, **{b: 1.0 for b in ones}}, opinions, ones


def test_criterion_3_ghic_axioms_and_worked_example():
    # the worked five-node network, cross-checked against the averaging oracle
    g = graph_of([("s", "h1"), ("a", "h1"), ("s", "h2"), ("a", "h2"), ("a", "h3")])
    rates = {n: 1.0 for n in g.labels}
    stubborn = {"s": 1.0, "a": 0.0}
    opinions = {"s": 1.0, "a": 0.0, "h1": 0.5, "h2": 0.5, "h3": 0.5}
    src, tgt, fixed, anchor = solver_inputs(g, stubborn)
    theta = fixed_point_oracle(src, tgt, np.ones(g.node_count), fixed, anchor)
    reduced = g.induced_subgraph({"a", "h1", "h2", "h3"})
    src, tgt, fixed, anchor = solver_inputs(reduced, {"a": 0.0})
    theta_removed = fixed_point_oracle(src, tgt, np.ones(reduced.node_count), fixed, anchor)
    expected = np.mean(
        [theta[g.labels.index(h)] - theta_removed[reduced.labels.index(h)]
         for h in ("h1", "h2", "h3")]
    )
    result = _ghic(g, rates, stubborn, opinions, {"s"})
    assert expected == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert result.value == pytest.approx(1.0 / 3.0, abs=1e-9)

    zero_positive = 0
    for seed in range(GHIC_INSTANCES):
        g2, rates2, stubborn2, opinions2, ones = _sign_instance(2000 + seed)
        empty = _ghic(g2, rates2, stubborn2, opinions2, set())
        assert empty.value == 0.0  # exact
        result2 = _ghic(g2, rates2, stubborn2, opinions2, ones)
        assert result2.value >= -1e-12  # sign semantics
        assert abs(result2.value) <= 1.0 + 1e-12  # |GHIC| <= max psi - min psi
        src2, tgt2, _ = g2.edge_arrays()
        has_v1_follower = any(
            g2.label(int(t)) not in stubborn2
            for b in ones
            for t in tgt2[src2 == g2.labels.index(b)]
        )
        if has_v1_follower and result2.reverted == 0 and result2.value > 0:
            zero_positive += 1
        # removing a node with no path into the free set moves nothing
        lone = DirectedGraph()
        for name in g2.labels:
            lone.add_node(name)
        for (u, v), w in edge_dict(g2).items():
            lone.add_interaction(u, v, w)
        lone.add_node("offside")
        rates_l = dict(rates2, offside=5.0)
        opinions_l = dict(opinions2, offside=1.0)
        stubborn_l = dict(stubborn2, offside=1.0)
        no_path = _ghic(lone, rates_l, stubborn_l, opinions_l, {"offside"})
        assert no_path.value == 0.0
    assert zero_positive > 0
    print(
        f"\ncriterion 3 PASS: GHIC axioms on {GHIC_INSTANCES} instances; "
        "worked example = 1/3"
    )


def test_criterion_4_bp_exact_on_forests_and_label_symmetry():
    worst = 0.0
    for seed in range(FOREST_INSTANCES):
        g = _random_forest(seed=3000 + seed)
        post = infer_bot_probabilities(g)
        exact = exhaustive_oracle(g)
        assert post.converged
        gap = float(np.max(np.abs(post.marginals - exact)))
        worst = max(worst, gap)
        assert gap <= FOREST_TOL
    symmetric = FactorGraphParams(psi_hh=1.6, psi_hb=0.7, psi_bh=0.7, psi_bb=1.6)
    g = graph_of([("a", "b", 3.0), ("b", "c", 1.0), ("c", "a", 2.0), ("c", "d", 4.0)])
    post = infer_bot_probabilities(g, symmetric)
    assert post.marginals.tolist() == [0.5] * 4
    print(
        f"\ncriterion 4 PASS: BP matches enumeration on {FOREST_INSTANCES} forests "
        f"(worst gap {worst:.2e}); symmetric marginals exactly 0.5"
    )


def test_criterion_5_planted_bot_recovery(tmp_path):
    start = time.time()
    aucs = []
    for seed in range(AUC_SEEDS):
        out = tmp_path / f"seed{seed}"
        spec = SynthSpec(
            seed=seed, topology="planted_bot_retweet", days=2, n_bots=30, n_humans=300
        )
        generate(spec, out)
        with open(out / "labels_truth.csv", newline="") as fh:
            labels = {r["account_id"]: r["is_bot"] == "1" for r in csv.DictReader(fh)}
        tweets = tweet_columns(load_tweets(out / "tweets.jsonl"))
        scores: dict[str, float] = {}
        for _, rows in tweets.days():
            net = build_daily_retweet_network(
                tweets.accounts, tweets.author[rows], tweets.retweeted[rows]
            )
            graph = network_graph(net, tweets.accounts)
            post = infer_bot_probabilities(graph)
            for account, prob in zip(graph.labels, post.marginals.tolist()):
                scores[account] = max(scores.get(account, 0.0), prob)
        pos = [scores.get(a, 0.0) for a, is_bot in labels.items() if is_bot]
        neg = [scores.get(a, 0.0) for a, is_bot in labels.items() if not is_bot]
        aucs.append(auc_score(pos, neg))
    elapsed = time.time() - start
    mean_auc = float(np.mean(aucs))
    assert mean_auc >= AUC_FLOOR
    assert elapsed < 60.0
    print(
        f"\ncriterion 5 PASS: mean AUC {mean_auc:.4f} over {AUC_SEEDS} seeds "
        f"(min {min(aucs):.4f}), {elapsed:.1f}s"
    )


def _per_bot_core_ghic(seed: int, audience: str, workdir: Path) -> float:
    out = workdir / f"{audience}{seed}"
    spec = SynthSpec(
        seed=seed, topology="core_periphery_qanon", days=2, core_bots=8,
        periphery_humans=60, k_follow=3, bot_rate=20.0, audience=audience,
    )
    generate(spec, out)
    with open(out / "labels_truth.csv", newline="") as fh:
        labels = {r["account_id"]: r for r in csv.DictReader(fh)}
    tweets = list(load_tweets(out / "tweets.jsonl"))
    columns = tweet_columns(tweets)
    first, last = columns.window()
    nodes = columns.accounts
    (_, src, tgt, _), descriptions = build_follower_network(
        load_profiles(out / "profiles.jsonl"), nodes)
    rates = {c["account_id"]: c["tweet_count"] / ((last - first).days + 1)
             for c in account_content(columns, descriptions) if c["tweet_count"]}
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for author, _, _, _, opinion, _ in tweets:
        if not math.isnan(opinion):  # the tweet carries a score
            sums[author] = sums.get(author, 0.0) + opinion
            counts[author] = counts.get(author, 0) + 1
    opinions = {a: sums[a] / counts[a] for a in sums}
    opinion = np.array([opinions.get(a, 0.5) for a in nodes])
    bot = np.array([labels[a]["is_bot"] == "1" for a in nodes])
    # the percentile cuts are taken over the accounts with a scored tweet
    scored = np.array([a in opinions for a in nodes])
    fixed = np.zeros(len(nodes), dtype=bool)
    fixed[scored] = identify_stubborn(opinion[scored], bot[scored])
    network = (src, tgt, np.array([rates.get(a, 0.0) for a in nodes]), fixed, opinion)
    result = ghic(network, solve_network(*network), bot)
    return result.value / np.count_nonzero(bot)


def test_criterion_6_echo_chamber_lowers_per_bot_impact(tmp_path):
    wins = 0
    gaps = []
    for seed in range(ECHO_SEEDS):
        echo = _per_bot_core_ghic(seed, "echo", tmp_path)
        mixed = _per_bot_core_ghic(seed, "mixed", tmp_path)
        wins += echo < mixed
        gaps.append(mixed - echo)
    assert wins >= ECHO_WINS_REQUIRED
    print(
        f"\ncriterion 6 PASS: echo-chamber per-bot GHIC below mixed-audience in "
        f"{wins}/{ECHO_SEEDS} seeds (median gap {np.median(gaps):+.4f})"
    )


def test_criterion_7_paper_anchored_defaults():
    cfg = PipelineConfig.load()
    assert cfg.partisan_cutoff == 0.5
    assert cfg.bot_threshold == 0.8
    assert cfg.stubborn_low_pct == 0.10
    assert cfg.stubborn_high_pct == 0.90
    assert cfg.followings_cap == 2000
    # the cutoff is inclusive on the anti side
    from botimpact.accounts import build_account_records, load_keywords

    content = [{"tweet_count": 1, "mean_opinion": opinion, "mean_toxicity": None, "urls": [],
                "description": ""} for opinion in (0.5, 0.5 + 1e-9)]
    table = build_account_records(content, 1, np.zeros(2, dtype=bool),
                                  load_keywords(""), cutoff=cfg.partisan_cutoff)
    assert table.pro.tolist() == [False, True]
    params = FactorGraphParams()
    assert params.psi_hb > params.psi_bb and params.psi_hh > params.psi_bh
    assert PipelineConfig().bp_params() == params  # the bp_ defaults are FactorGraphParams's
    print(
        "\ncriterion 7 PASS: defaults 0.5 inclusive-anti cutoff, 0.8 bot threshold, "
        "10/90 percentiles, 2000 followings cap"
    )


@pytest.fixture(scope="module")
def e2e_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    corpus = root / "corpus"
    spec = SynthSpec(
        seed=11, topology="two_block_polarized", days=30,
        humans_per_block=470, bots_per_block=30, qanon_bot_frac=0.3,
        human_rate=0.5, bot_rate=20.0, p_intra=0.02, eps=0.1,
    )
    summary = generate(spec, corpus)
    return root, corpus, summary


def _digest_tree(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def test_criterion_8_end_to_end_determinism(e2e_corpus):
    root, corpus, summary = e2e_corpus
    assert summary["accounts"] == 1000
    assert summary["days"] == 30
    assert 40_000 <= summary["tweets"] <= 60_000
    out = root / "out"
    cfg_path = root / "cfg.txt"
    cfg_path.write_text(
        f"tweets = {corpus / 'tweets.jsonl'}\n"
        f"profiles = {corpus / 'profiles.jsonl'}\n"
        f"ratings = {corpus / 'ratings.csv'}\n"
        f"out_dir = {out}\n"
    )
    runner = CliRunner()
    start = time.time()
    digests = []
    for attempt in range(2):
        if out.exists():
            shutil.rmtree(out)
        for cmd in ("build", "detect-bots", "classify", "ghic", "report"):
            result = runner.invoke(
                cli_main, ["--config", str(cfg_path), cmd], catch_exceptions=False
            )
            assert result.exit_code == 0, f"{cmd} failed: {result.output}"
        digests.append(_digest_tree(out))
    elapsed = time.time() - start
    assert digests[0] == digests[1]
    assert elapsed < 300.0
    print(
        f"\ncriterion 8 PASS: {summary['tweets']} tweets, byte-identical outputs "
        f"({len(digests[0])} files) across two runs, {elapsed:.1f}s total"
    )


def test_criterion_9_ingest_conservation(e2e_corpus):
    _, corpus, summary = e2e_corpus
    tweets = list(load_tweets(corpus / "tweets.jsonl"))
    corpus_retweets = sum(1 for _, _, retweeted, *_ in tweets if retweeted is not None)
    assert corpus_retweets == summary["retweets"]
    columns = tweet_columns(tweets)
    daily_weight = 0.0
    for _, rows in columns.days():
        daily_weight += build_daily_retweet_network(
            columns.accounts, columns.author[rows], columns.retweeted[rows]
        )[3].sum()
    assert daily_weight == corpus_retweets  # exact: integer-valued weights

    first, last = columns.window()
    duration_days = (last - first).days + 1
    counts = {c["account_id"]: c["tweet_count"]
              for c in account_content(columns, [""] * len(columns.accounts)) if c["tweet_count"]}
    assert sum(counts.values()) == len(tweets) == summary["tweets"]
    rates = {a: c / duration_days for a, c in counts.items()}
    reconstructed = round(sum(rates.values()) * duration_days)
    assert reconstructed == len(tweets)
    print(
        f"\ncriterion 9 PASS: daily retweet weights sum to {corpus_retweets}; "
        f"rate totals reconstruct {len(tweets)} tweets exactly"
    )
