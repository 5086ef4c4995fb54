import gzip
import json
from datetime import date, datetime, timezone

import pytest

from botimpact.ingest import (
    CollectionWindow,
    IngestError,
    ParseStats,
    TweetRecord,
    account_content,
    active_set,
    bucket_by_day,
    build_daily_retweet_network,
    build_follower_network,
    load_profiles,
    load_tweets,
    observed_window,
)

from conftest import edge_dict


def _tweet_line(tweet_id, author, ts, retweeted=None, opinion=0.5, **extra):
    record = {
        "tweet_id": tweet_id,
        "author_id": author,
        "timestamp": ts,
        "text": "hello",
        "retweeted_author_id": retweeted,
        "urls": [],
        "opinion": opinion,
        "toxicity": 0.1,
    }
    record.update(extra)
    return json.dumps(record)


def _write_tweets(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _rec(author, day_str, retweeted=None):
    return TweetRecord(
        tweet_id=f"{author}-{day_str}",
        author_id=author,
        timestamp=datetime.fromisoformat(day_str + "T12:00:00+00:00"),
        retweeted_author_id=retweeted,
    )


def test_load_tweets_all_valid(tmp_path):
    path = tmp_path / "tweets.jsonl"
    _write_tweets(path, [_tweet_line(f"t{i}", "a", "2020-01-01T00:00:00Z") for i in range(3)])
    stats = ParseStats()
    records = list(load_tweets(path, stats=stats))
    assert len(records) == 3
    assert stats.parsed == 3 and stats.skipped == 0


def test_load_tweets_skips_truncated_line(tmp_path):
    path = tmp_path / "tweets.jsonl"
    lines = [
        _tweet_line("t1", "a", "2020-01-01T00:00:00Z"),
        '{"tweet_id": "t2", "author_id"',
        _tweet_line("t3", "b", "2020-01-01T00:00:00Z"),
    ]
    _write_tweets(path, lines)
    stats = ParseStats()
    records = list(load_tweets(path, stats=stats))
    assert len(records) == 2
    assert stats.skipped == 1


def test_load_tweets_rejects_out_of_range_opinion(tmp_path):
    path = tmp_path / "tweets.jsonl"
    _write_tweets(path, [_tweet_line("t1", "a", "2020-01-01T00:00:00Z", opinion=1.3)])
    stats = ParseStats()
    assert list(load_tweets(path, stats=stats)) == []
    assert stats.skipped == 1


def test_load_tweets_rejects_self_retweet(tmp_path):
    path = tmp_path / "tweets.jsonl"
    _write_tweets(path, [_tweet_line("t1", "a", "2020-01-01T00:00:00Z", retweeted="a")])
    stats = ParseStats()
    assert list(load_tweets(path, stats=stats)) == []
    assert stats.skipped == 1


def test_load_tweets_missing_file_fatal(tmp_path):
    with pytest.raises(IngestError):
        list(load_tweets(tmp_path / "nope.jsonl"))


def test_load_tweets_gzip(tmp_path):
    path = tmp_path / "tweets.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(_tweet_line("t1", "a", "2020-01-01T00:00:00Z") + "\n")
    assert len(list(load_tweets(path))) == 1


def test_utc_day_bucketing():
    late = TweetRecord(
        tweet_id="t", author_id="a",
        timestamp=datetime(2020, 1, 1, 23, 59, 59, tzinfo=timezone.utc),
    )
    assert late.day == date(2020, 1, 1)
    shifted = TweetRecord(
        tweet_id="t2", author_id="a",
        timestamp=datetime.fromisoformat("2020-01-02T01:30:00+02:00"),
    )
    assert shifted.day == date(2020, 1, 1)


def test_profiles_cap_enforced(tmp_path):
    path = tmp_path / "profiles.jsonl"
    record = {"account_id": "a", "description": "", "following_ids": [f"f{i}" for i in range(10)]}
    path.write_text(json.dumps(record) + "\n")
    profile = next(load_profiles(path, followings_cap=4))
    assert len(profile.following_ids) == 4


def test_window_validation():
    with pytest.raises(IngestError):
        CollectionWindow(date(2020, 1, 5), date(2020, 1, 1))
    w = CollectionWindow(date(2020, 1, 1), date(2020, 1, 1))
    assert w.duration_days == 1


def test_daily_retweet_network_weight_is_count():
    tweets = [_rec("v", "2020-01-01", retweeted="u") for _ in range(3)]
    net = build_daily_retweet_network(tweets, date(2020, 1, 1))
    assert edge_dict(net) == {("u", "v"): 3.0}


def test_daily_retweet_network_day_bucketing():
    tweets = [
        _rec("v", "2020-01-01", retweeted="u"),
        _rec("v", "2020-01-02", retweeted="u"),
    ]
    net = build_daily_retweet_network(tweets, date(2020, 1, 1))
    assert edge_dict(net) == {("u", "v"): 1.0}
    net2 = build_daily_retweet_network(tweets, date(2020, 1, 2))
    assert edge_dict(net2) == {("u", "v"): 1.0}


def test_daily_retweet_network_chain_matches_recount():
    tweets = [
        _rec("v", "2020-01-01", retweeted="u"),
        _rec("w", "2020-01-01", retweeted="v"),
        _rec("lurker", "2020-01-01"),
    ]
    net = build_daily_retweet_network(tweets, date(2020, 1, 1))
    # independent recount straight off the tweet list
    expected: dict[tuple[str, str], int] = {}
    for t in tweets:
        if t.retweeted_author_id:
            key = (t.retweeted_author_id, t.author_id)
            expected[key] = expected.get(key, 0) + 1
    assert edge_dict(net) == {k: float(v) for k, v in expected.items()}
    assert "lurker" in net  # original tweets create the author node, no edge


def test_follower_network_direction_and_restriction():
    from botimpact.ingest import UserProfileRecord

    profiles = [UserProfileRecord(account_id="i", following_ids=["j", "ghost"])]
    net = build_follower_network(profiles, corpus={"i", "j"})
    assert edge_dict(net) == {("j", "i"): 1.0}  # information flows followee -> follower
    assert "ghost" not in net


def test_follower_network_mutual():
    from botimpact.ingest import UserProfileRecord

    profiles = [
        UserProfileRecord(account_id="a", following_ids=["b"]),
        UserProfileRecord(account_id="b", following_ids=["a"]),
    ]
    net = build_follower_network(profiles, corpus={"a", "b"})
    assert set(edge_dict(net)) == {("a", "b"), ("b", "a")}


def _rates(tweets, window) -> dict[str, float]:
    """Posting rates as build writes them: whole-window count / window duration."""
    return {
        a: c.tweet_count / window.duration_days
        for a, c in account_content(tweets).items() if c.tweet_count
    }


def test_tweet_rates_arithmetic():
    window = CollectionWindow(date(2020, 1, 1), date(2020, 4, 12))
    assert window.duration_days == 103
    tweets = [_rec("a", "2020-01-01") for _ in range(206)]
    rates = _rates(tweets, window)
    assert rates["a"] == pytest.approx(2.0)
    single = _rates([_rec("b", "2020-02-01")], window)
    assert single["b"] == pytest.approx(1 / 103, abs=1e-9)


def test_tweet_rates_linearity():
    window = CollectionWindow(date(2020, 1, 1), date(2020, 4, 12))
    tweets = [_rec("a", "2020-01-01")] * 103 + [_rec("b", "2020-01-02")] * 206
    rates = _rates(tweets, window)
    assert rates["b"] == pytest.approx(2 * rates["a"])


def test_rate_totals_reconstruct_corpus_exactly():
    tweets = [_rec(f"a{i % 5}", f"2020-01-0{1 + i % 7}") for i in range(53)]
    content = account_content(tweets)
    assert sum(c.tweet_count for c in content.values()) == 53  # integers before any division


def test_active_set_rules():
    tweets = [
        _rec("author", "2020-01-01"),
        _rec("retweeter", "2020-01-01", retweeted="quiet"),
    ]
    active = active_set(tweets, date(2020, 1, 1))
    assert active == {"author", "retweeter"}  # the retweeted account is not active
    assert active_set(tweets, date(2020, 1, 2)) == set()


def test_daily_weights_sum_to_corpus_retweet_count():
    tweets = []
    for day in ("2020-01-01", "2020-01-02", "2020-01-03"):
        tweets += [_rec("v", day, retweeted="u")] * 2
        tweets += [_rec("w", day, retweeted="v")]
        tweets += [_rec("u", day)]
    total_retweets = sum(1 for t in tweets if t.retweeted_author_id)
    by_day = bucket_by_day(tweets)
    daily_total = sum(
        build_daily_retweet_network(day_tweets, day).total_weight()
        for day, day_tweets in by_day.items()
    )
    assert daily_total == total_retweets


def test_corpus_and_window_derivation():
    tweets = [_rec("a", "2020-01-03"), _rec("b", "2020-01-01", retweeted="c")]
    content = account_content(tweets)
    assert set(content) == {"a", "b", "c"}
    assert content["c"].tweet_count == 0  # retweeted only
    window = observed_window(tweets)
    assert window.start == date(2020, 1, 1) and window.end == date(2020, 1, 3)


def test_account_content_aggregates():
    def tweet(opinion, toxicity, urls):
        return TweetRecord(
            tweet_id="t", author_id="a", timestamp=datetime(2020, 1, 1, tzinfo=timezone.utc),
            retweeted_author_id="b", urls=urls, opinion=opinion, toxicity=toxicity,
        )

    tweets = [tweet(0.1, None, ["u1", "u2"]), tweet(None, 0.4, []), tweet(0.7, 0.2, ["u3"])]
    content = account_content(tweets)
    a = content["a"]
    assert a.tweet_count == 3
    assert a.mean_opinion == (0.1 + 0.7) / 2  # over scored tweets only
    assert a.mean_toxicity == (0.4 + 0.2) / 2
    assert a.urls == ["u1", "u2", "u3"]  # in tweet order
    b = content["b"]
    assert (b.tweet_count, b.mean_opinion, b.mean_toxicity, b.urls) == (0, None, None, [])
