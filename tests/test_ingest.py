import csv
import gzip
import json
import math
import random
from datetime import date

import pytest

from botimpact.accounts import ordered_mean
from botimpact.config import PipelineConfig
from botimpact.ingest import (
    IngestError,
    ParseStats,
    account_content,
    build_daily_retweet_network,
    build_follower_network,
    load_profiles,
    load_tweets,
    tweet_columns,
)
from botimpact.pipeline import FOLLOWINGS_CAP, stage_build

from conftest import column_edges, edge_dict, network_graph


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


NAN = float("nan")


def _row(author, day, retweeted=None, urls=(), opinion=NAN, toxicity=NAN):
    """A tweet row as load_tweets yields it; ``day`` is an ISO date or a date."""
    day = date.fromisoformat(day) if isinstance(day, str) else day
    return author, day.toordinal(), retweeted, list(urls), opinion, toxicity


def _daily_networks(tweets):
    """{day: retweet network}, as stage_build derives them from the columns and
    detect-bots loads them."""
    columns = tweet_columns(tweets)
    return {
        day: network_graph(build_daily_retweet_network(
            columns.accounts, columns.author[rows], columns.retweeted[rows]
        ), columns.accounts)
        for day, rows in columns.days()
    }


def _content(columns):
    """account_content without profile descriptions."""
    return account_content(columns, [""] * len(columns.accounts))


def _run_build(tmp_path, tweet_lines, profile_lines=()):
    """stage_build over the given raw lines; returns the output directory."""
    tweets, profiles = tmp_path / "tweets.jsonl", tmp_path / "profiles.jsonl"
    _write_tweets(tweets, tweet_lines)
    profiles.write_text("".join(line + "\n" for line in profile_lines), encoding="utf-8")
    out = tmp_path / "out"
    stage_build(PipelineConfig(tweets=str(tweets), profiles=str(profiles), out_dir=str(out)))
    return out


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


@pytest.mark.parametrize("score", [{"opinion": "0.7"}, {"opinion": True}, {"toxicity": False}],
                         ids=["text_opinion", "true_opinion", "false_toxicity"])
def test_load_tweets_rejects_a_score_that_is_not_a_number(tmp_path, score):
    path = tmp_path / "tweets.jsonl"
    _write_tweets(path, [_tweet_line("t1", "a", "2020-01-01T00:00:00Z", **score)])
    stats = ParseStats()
    assert list(load_tweets(path, stats=stats)) == []
    assert (stats.parsed, stats.skipped) == (0, 1)


def test_load_tweets_reads_integer_scores_as_numbers(tmp_path):
    path = tmp_path / "tweets.jsonl"
    _write_tweets(path, [_tweet_line("t1", "a", "2020-01-01T00:00:00Z", opinion=1, toxicity=0)])
    [row] = load_tweets(path)
    assert row[4:] == (1.0, 0.0) and type(row[4]) is float


def test_load_tweets_rejects_self_retweet(tmp_path):
    path = tmp_path / "tweets.jsonl"
    _write_tweets(path, [_tweet_line("t1", "a", "2020-01-01T00:00:00Z", retweeted="a")])
    stats = ParseStats()
    assert list(load_tweets(path, stats=stats)) == []
    assert stats.skipped == 1


def test_build_counts_timestamp_outside_datetime_range_as_skipped(tmp_path):
    # valid ISO text, but the offset moves it before 0001-01-01 UTC
    out = _run_build(tmp_path, [
        _tweet_line("t1", "a", "2020-01-01T00:00:00Z"),
        _tweet_line("t2", "b", "0001-01-01T00:30:00+01:00"),
    ])
    build = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["build"]
    assert (build["tweets_parsed"], build["tweets_skipped"]) == (1, 1)


def test_load_tweets_missing_file_fatal(tmp_path):
    with pytest.raises(IngestError):
        list(load_tweets(tmp_path / "nope.jsonl"))


def test_load_tweets_gzip(tmp_path):
    path = tmp_path / "tweets.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(_tweet_line("t1", "a", "2020-01-01T00:00:00Z") + "\n")
    assert len(list(load_tweets(path))) == 1


@pytest.mark.parametrize("gzipped", [False, True])
def test_a_line_that_is_not_utf8_counts_as_skipped(tmp_path, gzipped):
    tweets = [_tweet_line(f"t{i}", "a", "2020-01-01T00:00:00Z").encode() for i in range(20)]
    tweets.insert(5, b'{"x": "\xff"}')
    # UTF-8 beyond ASCII is read as before
    accented = json.loads(_tweet_line("t20", "é", "2020-01-02T00:00:00Z"))
    tweets.append(json.dumps(accented, ensure_ascii=False).encode())
    profiles = [b'{"account_id": "a", "description": "caf\xe9"}',
                json.dumps({"account_id": "é", "following_ids": ["a"]},
                           ensure_ascii=False).encode()]
    paths = tmp_path / "tweets.jsonl", tmp_path / "profiles.jsonl"
    for path, lines in zip(paths, (tweets, profiles)):
        data = b"".join(line + b"\n" for line in lines)
        path.write_bytes(gzip.compress(data) if gzipped else data)

    stats = ParseStats()
    assert [row[0] for row in load_tweets(paths[0], stats)] == ["a"] * 20 + ["é"]
    assert (stats.parsed, stats.skipped) == (21, 1)
    stats = ParseStats()
    assert [row[0] for row in load_profiles(paths[1], FOLLOWINGS_CAP, stats)] == ["é"]
    assert (stats.parsed, stats.skipped) == (1, 1)

    out = tmp_path / "out"
    payload = stage_build(PipelineConfig(tweets=str(paths[0]), profiles=str(paths[1]),
                                         out_dir=str(out)))
    assert (payload["tweets_skipped"], payload["profiles_skipped"]) == (1, 1)
    assert payload["follower_edges"] == 1


def test_utc_day_bucketing(tmp_path):
    path = tmp_path / "tweets.jsonl"
    stamps = [
        "2020-01-01T23:59:59+00:00",  # last second of the UTC day
        "2020-01-02T01:30:00+02:00",  # local date ahead of UTC
        "2020-01-01T22:30:00-02:00",  # local date behind UTC
        "2020-01-01T23:00:00Z",
        "2020-01-01T23:00:00",  # naive: read as UTC
    ]
    _write_tweets(path, [_tweet_line(f"t{i}", "a", ts) for i, ts in enumerate(stamps)])
    days = [date.fromordinal(day) for _, day, *_ in load_tweets(path)]
    assert days == [date(2020, 1, 1), date(2020, 1, 1), date(2020, 1, 2),
                    date(2020, 1, 1), date(2020, 1, 1)]


def test_profiles_cap_enforced(tmp_path):
    path = tmp_path / "profiles.jsonl"
    record = {"account_id": "a", "description": "", "following_ids": [f"f{i}" for i in range(10)]}
    path.write_text(json.dumps(record) + "\n")
    [(account_id, description, following)] = load_profiles(path, 4)
    assert (account_id, description, following) == ("a", "", ["f0", "f1", "f2", "f3"])


def test_daily_retweet_network_weight_is_count():
    tweets = [_row("v", "2020-01-01", retweeted="u") for _ in range(3)]
    net = _daily_networks(tweets)[date(2020, 1, 1)]
    assert edge_dict(net) == {("u", "v"): 3.0}


def test_daily_retweet_network_day_bucketing():
    tweets = [
        _row("v", "2020-01-01", retweeted="u"),
        _row("v", "2020-01-02", retweeted="u"),
    ]
    nets = _daily_networks(tweets)
    assert list(nets) == [date(2020, 1, 1), date(2020, 1, 2)]
    assert edge_dict(nets[date(2020, 1, 1)]) == {("u", "v"): 1.0}
    assert edge_dict(nets[date(2020, 1, 2)]) == {("u", "v"): 1.0}


def test_daily_retweet_network_chain_matches_recount():
    tweets = [
        _row("v", "2020-01-01", retweeted="u"),
        _row("w", "2020-01-01", retweeted="v"),
        _row("lurker", "2020-01-01"),
    ]
    [net] = _daily_networks(tweets).values()
    # independent recount straight off the tweet list
    expected: dict[tuple[str, str], int] = {}
    for author, _, retweeted, *_ in tweets:
        if retweeted:
            key = (retweeted, author)
            expected[key] = expected.get(key, 0) + 1
    assert edge_dict(net) == {k: float(v) for k, v in expected.items()}
    assert "lurker" in net.labels  # original tweets create the author node, no edge
    # as the id-sorted edges first name them, then the authors without a retweet
    assert net.labels == ["u", "v", "w", "lurker"]


def test_follower_network_direction_and_restriction():
    profiles = [("i", "first", ["j", "ghost"]), ("ghost", "outsider", ["i"]), ("i", "last", [])]
    net, descriptions = build_follower_network(profiles, ["i", "j"])
    assert column_edges(net, ["i", "j"]) == {("j", "i"): 1.0}  # followee -> follower
    assert net[0].tolist() == [0, 1]  # every account, in list order, and no "ghost"
    assert descriptions == ["last", ""]  # the last profile wins; "" without one


def test_follower_network_mutual():
    net, _ = build_follower_network([("a", "", ["b"]), ("b", "", ["a"])], ["a", "b"])
    assert set(column_edges(net, ["a", "b"])) == {("a", "b"), ("b", "a")}


def _rates(tweets, duration_days) -> dict[str, float]:
    """Posting rates as classify derives them: whole-window count / window duration."""
    return {
        c["account_id"]: c["tweet_count"] / duration_days
        for c in _content(tweet_columns(tweets)) if c["tweet_count"]
    }


WINDOW_DAYS = 103  # 2020-01-01 to 2020-04-12, inclusive


def test_tweet_rates_arithmetic():
    tweets = [_row("a", "2020-01-01") for _ in range(206)]
    rates = _rates(tweets, WINDOW_DAYS)
    assert rates["a"] == pytest.approx(2.0)
    single = _rates([_row("b", "2020-02-01")], WINDOW_DAYS)
    assert single["b"] == pytest.approx(1 / 103, abs=1e-9)


def test_tweet_rates_linearity():
    tweets = [_row("a", "2020-01-01")] * 103 + [_row("b", "2020-01-02")] * 206
    rates = _rates(tweets, WINDOW_DAYS)
    assert rates["b"] == pytest.approx(2 * rates["a"])


def test_rate_totals_reconstruct_corpus_exactly():
    tweets = [_row(f"a{i % 5}", f"2020-01-0{1 + i % 7}") for i in range(53)]
    content = _content(tweet_columns(tweets))
    assert sum(c["tweet_count"] for c in content) == 53  # integers before any division


def test_active_set_rules(tmp_path):
    out = _run_build(tmp_path, [
        _tweet_line("t1", "retweeter", "2020-01-01T10:00:00Z", retweeted="quiet"),
        _tweet_line("t2", "author", "2020-01-01T11:00:00Z"),
        _tweet_line("t3", "author", "2020-01-03T11:00:00Z"),
    ])
    with open(out / "daily_active.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    # the retweeted account is not active; a day without tweets has no rows
    assert rows == [["day", "account_id"], ["2020-01-01", "author"],
                    ["2020-01-01", "retweeter"], ["2020-01-03", "author"]]


def test_daily_weights_sum_to_corpus_retweet_count():
    tweets = []
    for day in ("2020-01-01", "2020-01-02", "2020-01-03"):
        tweets += [_row("v", day, retweeted="u")] * 2
        tweets += [_row("w", day, retweeted="v")]
        tweets += [_row("u", day)]
    total_retweets = sum(1 for _, _, retweeted, *_ in tweets if retweeted)
    daily_total = sum(net.edge_arrays()[2].sum() for net in _daily_networks(tweets).values())
    assert daily_total == total_retweets


def test_corpus_and_window_derivation(tmp_path):
    tweets = [_row("a", "2020-01-03"), _row("b", "2020-01-01", retweeted="c")]
    columns = tweet_columns(tweets)
    content = _content(columns)
    assert [c["account_id"] for c in content] == ["a", "b", "c"]  # sorted
    assert content[2]["tweet_count"] == 0  # retweeted only
    assert columns.window() == (date(2020, 1, 1), date(2020, 1, 3))
    # build's window counts both ends, so a one-day corpus lasts one day
    for last, duration_days in (("2020-01-03", 3), ("2020-01-01", 1)):
        out = _run_build(tmp_path, [_tweet_line("t1", "a", f"{last}T23:59:59Z"),
                                    _tweet_line("t2", "b", "2020-01-01T00:00:00Z", retweeted="c")])
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["build"]["window"] == {"start": "2020-01-01", "end": last,
                                               "duration_days": duration_days}
    with pytest.raises(IngestError, match="no parseable tweets"):
        _run_build(tmp_path, ['{"tweet_id": "t1", "author_id": ""}'])


def test_account_content_aggregates():
    def tweet(opinion, toxicity, urls):
        return _row("a", "2020-01-01", "b", urls, opinion, toxicity)

    tweets = [tweet(0.1, NAN, ["u1", "u2"]), tweet(NAN, 0.4, []), tweet(0.7, 0.2, ["u3"])]
    a, b = account_content(tweet_columns(tweets), ["bio", ""])
    assert a == {"account_id": "a", "tweet_count": 3,
                 "mean_opinion": (0.1 + 0.7) / 2,  # over scored tweets only
                 "mean_toxicity": (0.4 + 0.2) / 2, "urls": ["u1", "u2", "u3"],  # in tweet order
                 "description": "bio"}
    assert b == {"account_id": "b", "tweet_count": 0, "mean_opinion": None,
                 "mean_toxicity": None, "urls": [], "description": ""}


def test_account_content_means_add_left_to_right():
    # opinions whose compensated sum differs from the left-to-right one
    rng = random.Random(7)
    tweets = [
        _row(f"a{rng.randrange(5)}", date(2020, 1, 1 + rng.randrange(3)),
             opinion=rng.random() if rng.random() < 0.8 else NAN, toxicity=rng.random())
        for _ in range(2000)
    ]
    for c in _content(tweet_columns(tweets)):
        own = [t for t in tweets if t[0] == c["account_id"]]
        assert c["mean_opinion"] == ordered_mean([t[4] for t in own if not math.isnan(t[4])])
        assert c["mean_toxicity"] == ordered_mean([t[5] for t in own])
