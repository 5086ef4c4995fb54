import hashlib
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from botimpact.accounts import co_partisan_fraction
from botimpact.ingest import (
    ParseStats,
    build_follower_network,
    load_profiles,
    load_tweets,
)
from botimpact.pipeline import FOLLOWINGS_CAP as CAP
from botimpact.synth import (
    SynthSpec,
    SynthSpecError,
    generate,
)

from conftest import network_graph



def _digest_dir(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
    }


def _small_two_block(**kw) -> SynthSpec:
    base = dict(
        seed=3, topology="two_block_polarized", days=2,
        humans_per_block=8, bots_per_block=2, human_rate=1.0, bot_rate=5.0,
    )
    base.update(kw)
    return SynthSpec(**base)


def _load_labels(outdir: Path) -> dict[str, dict]:
    import csv

    with open(outdir / "labels_truth.csv", newline="") as fh:
        return {row["account_id"]: row for row in csv.DictReader(fh)}


def test_determinism_byte_identical(tmp_path):
    spec = _small_two_block()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    generate(spec, out1)
    generate(_small_two_block(), out2)
    assert _digest_dir(out1) == _digest_dir(out2)


def test_different_seed_changes_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    generate(_small_two_block(), out1)
    generate(_small_two_block(seed=4), out2)
    assert _digest_dir(out1) != _digest_dir(out2)


def test_round_trip_through_ingest_zero_skips(tmp_path):
    for topology in ("two_block_polarized", "core_periphery_qanon", "planted_bot_retweet"):
        out = tmp_path / topology
        spec = SynthSpec(seed=5, topology=topology, days=2, humans_per_block=6,
                         bots_per_block=2, core_bots=3, periphery_humans=10,
                         n_bots=4, n_humans=12, bot_rate=5.0)
        summary = generate(spec, out)
        tweet_stats = ParseStats()
        tweets = list(load_tweets(out / "tweets.jsonl", stats=tweet_stats))
        assert tweet_stats.skipped == 0
        assert len(tweets) == summary["tweets"]
        profile_stats = ParseStats()
        profiles = list(load_profiles(out / "profiles.jsonl", CAP, stats=profile_stats))
        assert profile_stats.skipped == 0
        assert len(profiles) == summary["accounts"]


def _bot_fractions(profiles, labels) -> list[float]:
    """Co-partisan fraction of each planted bot with a labeled follower, blocks as
    sides, on the follower network over every labelled account."""
    accounts = sorted(labels)
    (_, src, tgt, _), _ = build_follower_network(profiles, accounts)
    blocks = sorted({row["block"] for row in labels.values()})
    bots = np.array([labels[a]["is_bot"] == "1" for a in accounts], dtype=bool)
    side = np.array([1 + blocks.index(labels[a]["block"]) for a in accounts])
    return co_partisan_fraction(src, tgt, bots, side).tolist()


def test_two_block_eps_zero_no_cross_edges(tmp_path):
    out = tmp_path / "tb"
    spec = _small_two_block(eps=0.0, p_intra=0.5)
    generate(spec, out)
    labels = _load_labels(out)
    profiles = list(load_profiles(out / "profiles.jsonl", CAP))
    blocks = {a: row["block"] for a, row in labels.items()}
    for account, _, following in profiles:
        for followee in following:
            assert blocks[followee] == blocks[account]
    # with an all-corpus follower network, every bot's followers are co-partisan
    assert all(fraction == 1.0 for fraction in _bot_fractions(profiles, labels))


def test_two_block_eps_one_mixes_followers(tmp_path):
    # Monte Carlo over seeds: with eps=1 and equal blocks the expected
    # co-partisan fraction is one half
    fractions = []
    for seed in range(100):
        spec = SynthSpec(
            seed=seed, topology="two_block_polarized", days=1,
            humans_per_block=12, bots_per_block=3, eps=1.0, p_intra=0.4,
            human_rate=0.5, bot_rate=2.0,
        )
        out = tmp_path / f"s{seed}"
        generate(spec, out)
        labels = _load_labels(out)
        profiles = list(load_profiles(out / "profiles.jsonl", CAP))
        fractions += _bot_fractions(profiles, labels)
    assert abs(float(np.mean(fractions)) - 0.5) < 0.05


def test_two_block_degenerate_single_community(tmp_path):
    out = tmp_path / "single"
    spec = _small_two_block(humans_per_block=10, bots_per_block=0,
                            humans_block_b=0, bots_block_b=0)
    summary = generate(spec, out)
    assert summary["accounts"] == 10
    labels = _load_labels(out)
    assert {row["block"] for row in labels.values()} == {"anti"}


def test_core_periphery_structure(tmp_path):
    out = tmp_path / "cp"
    spec = SynthSpec(seed=9, topology="core_periphery_qanon", days=2,
                     core_bots=4, periphery_humans=20, k_follow=2, bot_rate=5.0)
    generate(spec, out)
    labels = _load_labels(out)
    core = {a for a, row in labels.items() if row["block"] == "core"}
    following_of = {account: following
                    for account, _, following in load_profiles(out / "profiles.jsonl", CAP)}
    human_human_edges = 0
    for account, row in labels.items():
        if row["block"] == "periphery":
            following = set(following_of[account])
            assert following, "every periphery human follows at least one core bot"
            assert following <= core
            human_human_edges += sum(1 for f in following if f not in core)
    assert human_human_edges == 0


def test_planted_zero_bots_marginals_at_or_below_prior(tmp_path):
    out = tmp_path / "nobots"
    spec = SynthSpec(seed=2, topology="planted_bot_retweet", days=1,
                     n_bots=0, n_humans=25, human_rt_human=2.0)
    generate(spec, out)
    labels = _load_labels(out)
    assert all(row["is_bot"] == "0" for row in labels.values())
    from botimpact.botdetect import infer_bot_probabilities
    from botimpact.ingest import build_daily_retweet_network, tweet_columns

    tweets = tweet_columns(load_tweets(out / "tweets.jsonl"))
    [(_, rows)] = tweets.days()
    net = build_daily_retweet_network(tweets.accounts, tweets.author[rows], tweets.retweeted[rows])
    post = infer_bot_probabilities(network_graph(net, tweets.accounts))
    assert np.all(post.marginals <= 0.5 + 1e-9)


def test_labels_sidecar_never_fed_to_inference(tmp_path):
    # the tweet and profile files must not leak the planted labels
    out = tmp_path / "leak"
    generate(_small_two_block(), out)
    tweets_text = (out / "tweets.jsonl").read_text()
    profiles_text = (out / "profiles.jsonl").read_text()
    assert "is_bot" not in tweets_text
    assert "is_bot" not in profiles_text
    assert "block" not in profiles_text


def test_spec_file_parsing_and_validation(tmp_path):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text(
        "seed = 11\ntopology = core_periphery_qanon\ncore_bots = 5  # comment\n"
        "start_day = 2020-03-01\np_core = 0.25\n"
    )
    spec = SynthSpec.from_file(spec_path)
    assert spec.seed == 11 and spec.core_bots == 5
    assert spec.start_day == date(2020, 3, 1) and spec.p_core == 0.25

    bad_date = tmp_path / "bad_date.txt"
    bad_date.write_text("start_day = March\n")
    with pytest.raises(SynthSpecError, match="start_day"):
        SynthSpec.from_file(bad_date)

    bad = tmp_path / "bad.txt"
    bad.write_text("no_such_field = 3\n")
    with pytest.raises(SynthSpecError, match="no_such_field"):
        SynthSpec.from_file(bad)

    invalid = tmp_path / "invalid.txt"
    invalid.write_text("topology = planted_bot_retweet\nn_humans = 0\n")
    with pytest.raises(SynthSpecError, match="n_humans"):
        SynthSpec.from_file(invalid)

    not_finite = tmp_path / "not_finite.txt"
    not_finite.write_text("eps = nan\n")
    with pytest.raises(SynthSpecError, match="eps"):
        SynthSpec.from_file(not_finite)

    negative_seed = tmp_path / "negative_seed.txt"
    negative_seed.write_text("seed = -2\n")
    with pytest.raises(SynthSpecError, match="seed"):
        SynthSpec.from_file(negative_seed)


@pytest.mark.parametrize("field", ["humans_block_b", "bots_block_b"])
def test_block_b_below_minus_one_rejected(tmp_path, field):
    # only -1 mirrors block a; -7 is no size
    spec = SynthSpec(days=1, humans_per_block=4, bots_per_block=2, **{field: -7})
    with pytest.raises(SynthSpecError, match=field):
        generate(spec, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    SynthSpec(days=1, **{field: -1}).validate()


def test_non_finite_spec_field_rejected_without_a_file():
    with pytest.raises(SynthSpecError, match="eps"):
        SynthSpec(eps=float("nan")).validate()


@pytest.mark.parametrize(
    "field", ["follow_out", "bot_rt_human", "human_rt_human", "human_rt_bot", "bot_rt_bot"]
)
def test_negative_planted_field_rejected(tmp_path, field):
    spec = SynthSpec(topology="planted_bot_retweet", days=1, n_bots=2, n_humans=5,
                     **{field: -1})
    with pytest.raises(SynthSpecError, match=field):
        generate(spec, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_generate_dispatch_unknown_topology():
    spec = SynthSpec(topology="nope")
    with pytest.raises(SynthSpecError):
        spec.validate()
