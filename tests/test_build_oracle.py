"""stage_build, byte for byte, against a deliberately naive per-record build.

The reference below parses each line into a dict and derives every build
file with plain dicts, sets and ``sorted``.  It shares nothing with the
package but the standard library's JSON and CSV writers and ``np.save``, so
any change in parse rules, day bucketing, node order, edge weights, means or
file format shows up as a byte difference on the randomized corpora.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import random
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from botimpact.config import PipelineConfig
from botimpact.pipeline import stage_build

CAP = 4
SEEDS = range(6)


# -- the reference build ------------------------------------------------------------


def _read_lines(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return [line.strip() for line in raw.decode("utf-8").split("\n")]


def _score(obj, key):
    """null, or a JSON number (not a string or a boolean) in [0, 1]."""
    value = obj.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(key)
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(key)
    return value


def _ref_id(value):
    """Ids are JSON strings or integers (not booleans); an integer keeps its digits."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise TypeError("id")
    return str(value)


def _ref_tweet(obj):
    author = _ref_id(obj["author_id"])
    if not _ref_id(obj["tweet_id"]) or not author:
        raise ValueError("empty id")
    retweeted = obj.get("retweeted_author_id")
    if retweeted is not None:
        retweeted = _ref_id(retweeted) or None
    if retweeted == author:
        raise ValueError("self-retweet")
    urls = obj.get("urls") or []
    if not isinstance(urls, list) or not all(isinstance(u, str) for u in urls):
        raise ValueError("urls")
    stamp = obj["timestamp"]
    if not isinstance(stamp, str):
        raise TypeError("timestamp")
    if stamp.endswith("Z"):
        stamp = stamp[:-1] + "+00:00"
    ts = datetime.fromisoformat(stamp)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return {
        "author": author,
        "day": ts.astimezone(timezone.utc).date(),
        "retweeted": retweeted,
        "urls": urls,
        "opinion": _score(obj, "opinion"),
        "toxicity": _score(obj, "toxicity"),
    }


def _ref_profile(obj):
    account = _ref_id(obj["account_id"])
    if not account:
        raise ValueError("empty id")
    following = obj.get("following_ids") or []
    if not isinstance(following, list):
        raise ValueError("following")
    following = [_ref_id(f) for f in following]  # every entry, also past the cap
    description = obj.get("description") or ""  # a falsy value is no description
    if not isinstance(description, str):
        raise TypeError("description")
    return account, description, following[:CAP]


def _parse_all(path, parse):
    records, skipped = [], 0
    for line in _read_lines(path):
        if not line:
            continue
        try:
            records.append(parse(json.loads(line)))
        except (ValueError, KeyError, TypeError):
            skipped += 1
    return records, skipped


def _network_file(corpus, order, weights):
    """corpus: sorted ids; order: the network's ids in node order;
    weights: {(source, target): count}.

    Four .npy records: the nodes' positions in the corpus; the edges' source
    and target positions in ``order``, sorted; their weights.
    """
    position = {a: i for i, a in enumerate(order)}
    edges = sorted(weights, key=lambda e: (position[e[0]], position[e[1]]))
    buf = io.BytesIO()
    for column, dtype in (([corpus.index(a) for a in order], "<i8"),
                          ([position[u] for u, _ in edges], "<i8"),
                          ([position[v] for _, v in edges], "<i8"),
                          ([weights[e] for e in edges], "<f8")):
        np.save(buf, np.array(column, dtype=dtype))
    return buf.getvalue()


def _first_named(nodes, weights):
    """A day network's node order: as the id-sorted edges first name them,
    source before target, then the isolated nodes in sorted order."""
    named = dict.fromkeys(x for edge in sorted(weights) for x in edge)
    return list(named) + [a for a in nodes if a not in named]


def _csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _mean(values):
    if not values:
        return None
    total = 0.0
    for x in values:
        total += x
    return total / len(values)


def reference_build(tweets_path, profiles_path):
    """({file name: bytes}, manifest counts) as the build writes them."""
    tweets, tweets_skipped = _parse_all(tweets_path, _ref_tweet)
    profiles, profiles_skipped = _parse_all(profiles_path, _ref_profile)
    corpus = sorted({t["author"] for t in tweets}
                    | {t["retweeted"] for t in tweets if t["retweeted"]})
    members = set(corpus)
    days = sorted({t["day"] for t in tweets})
    duration = (days[-1] - days[0]).days + 1
    files = {"accounts.json": json.dumps(corpus) + "\n"}

    follows: dict = {}
    descriptions = {}
    for account, description, following in profiles:
        if account not in members:
            continue
        descriptions[account] = description
        for followee in following:
            if followee in members and followee != account:
                follows[followee, account] = follows.get((followee, account), 0) + 1
    files["follower.cols"] = _network_file(corpus, corpus, follows)

    active_rows = []
    for day in days:
        own = [t for t in tweets if t["day"] == day]
        nodes = sorted({t["author"] for t in own}
                       | {t["retweeted"] for t in own if t["retweeted"]})
        retweets: dict = {}
        for t in own:
            if t["retweeted"]:
                key = (t["retweeted"], t["author"])
                retweets[key] = retweets.get(key, 0) + 1
        files[f"retweet_{day.isoformat()}.cols"] = _network_file(
            corpus, _first_named(nodes, retweets), retweets)
        active_rows += [(day.isoformat(), a) for a in sorted({t["author"] for t in own})]
    files["daily_active.csv"] = _csv(["day", "account_id"], active_rows)

    content_lines = []
    for account in corpus:
        own = [t for t in tweets if t["author"] == account]
        content_lines.append(json.dumps({
            "account_id": account,
            "tweet_count": len(own),
            "mean_opinion": _mean([t["opinion"] for t in own if t["opinion"] is not None]),
            "mean_toxicity": _mean([t["toxicity"] for t in own if t["toxicity"] is not None]),
            "urls": [u for t in own for u in t["urls"]],
            "description": descriptions.get(account, ""),
        }) + "\n")
    files["account_content.jsonl"] = "".join(content_lines)

    counts = {
        "window": {"start": days[0].isoformat(), "end": days[-1].isoformat(),
                   "duration_days": duration},
        "tweets_parsed": len(tweets),
        "tweets_skipped": tweets_skipped,
        "profiles_parsed": len(profiles),
        "profiles_skipped": profiles_skipped,
        "accounts": len(corpus),
        "days": len(days),
        "follower_edges": len(follows),
        "retweets_total": sum(1 for t in tweets if t["retweeted"]),
    }
    return {name: f if isinstance(f, bytes) else f.encode("utf-8")
            for name, f in files.items()}, counts


# -- randomized corpora ---------------------------------------------------------------

_MALFORMED_TWEETS = [
    '{"tweet_id": "x", "author_id"',  # truncated
    '[1, 2, 3]',
    '"just a string"',
    '{"tweet_id": "x", "timestamp": "2020-01-01T00:00:00Z"}',  # no author
    '{"tweet_id": "", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z"}',
    '{"tweet_id": "x", "author_id": "u1", "timestamp": "yesterday"}',
    '{"tweet_id": "x", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z", "opinion": 1.5}',
    '{"tweet_id": "x", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z", '
    '"toxicity": "high"}',
    '{"tweet_id": "x", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z", "urls": "a.com"}',
    '{"tweet_id": "x", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z", '
    '"retweeted_author_id": "u1"}',  # self-retweet
    '{"tweet_id": "x", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z"} trailing',
    '{"tweet_id": "x", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z"} '
    '{"tweet_id": "y", "author_id": "u2", "timestamp": "2020-01-01T00:00:00Z"}',  # two objects
    '\ufeff{"tweet_id": "x", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z"}',  # BOM
    '{"tweet_id": "x", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z", '
    '"opinion": Infinity}',
    '{"tweet_id": "x", "author_id": null, "timestamp": "2020-01-01T00:00:00Z"}',
    '{"tweet_id": "x", "author_id": true, "timestamp": "2020-01-01T00:00:00Z"}',
    '{"tweet_id": "x", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z", '
    '"retweeted_author_id": {"x": 1}}',
    '{"tweet_id": "x", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z", '
    '"urls": ["a.com", null]}',
    '{"tweet_id": "x", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z", '
    '"urls": [{"x": 1}]}',
    '{"tweet_id": "x", "author_id": "u1", "timestamp": 20200101}',
    '{"tweet_id": "x", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z", "opinion": "0.7"}',
    '{"tweet_id": "x", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z", "opinion": true}',
    '{"tweet_id": "x", "author_id": "u1", "timestamp": "2020-01-01T00:00:00Z", '
    '"toxicity": false}',
]

_MALFORMED_PROFILES = [
    '{"account_id": ""}',
    '{"description": "no id"}',
    '{"account_id": "u1", "following_ids": "u2"}',
    '{"account_id": "u1"',
    '{"account_id": null}',
    '{"account_id": "u1", "following_ids": ["u2", null]}',
    '{"account_id": "u1", "description": {"x": 1}}',
    '{"account_id": "u1", "description": 5}',
]


def _stamp(rng: random.Random) -> str:
    """A time near midnight in a random offset, written as the offset, Z, or naive;
    some carry fractional seconds, of one to six digits after a Z."""
    utc = datetime(2020, 1, 1, tzinfo=timezone.utc) + timedelta(
        days=rng.randrange(4), hours=rng.choice([0, 1, 22, 23, 12]), minutes=rng.randrange(60),
        seconds=rng.randrange(60), microseconds=rng.choice([0, 0, 0, rng.randrange(10**6)]))
    style = rng.random()
    if style < 0.2:
        digits = rng.randrange(7)
        fraction = f".{utc.microsecond:06d}"[:digits + 1] if digits else ""
        return utc.strftime("%Y-%m-%dT%H:%M:%S") + fraction + "Z"
    if style < 0.35:
        return utc.replace(tzinfo=None).isoformat()
    offset = timedelta(minutes=rng.choice([-600, -330, -120, 60, 120, 330, 540, 840]))
    return utc.astimezone(timezone(offset)).isoformat()


def _write_corpus(tmp_path, seed: int):
    rng = random.Random(seed)
    # ids whose sorted order differs from first appearance; one JSON integer id;
    # ids holding a tab, a line break, a comma and a quote
    ids = [f"u{i}" for i in rng.sample(range(40), 25)] + [
        "Zed", "ápex", 17, "tab\tbed", "two\nlines", 'com,ma "q"']
    tweet_lines = []
    for k in range(300):
        if rng.random() < 0.05:
            tweet_lines.append(rng.choice(_MALFORMED_TWEETS))
            continue
        if rng.random() < 0.02:
            tweet_lines.append("")
        author = rng.choice(ids)
        record = {"tweet_id": f"t{k}", "author_id": author, "timestamp": _stamp(rng)}
        roll = rng.random()
        if roll < 0.4:
            record["retweeted_author_id"] = rng.choice([i for i in ids if i != author])
        elif roll < 0.5:
            record["retweeted_author_id"] = ""  # an original tweet
        elif roll < 0.55:
            record["retweeted_author_id"] = "only-retweeted"  # never an author
        if rng.random() < 0.8:
            record["opinion"] = rng.random()
        if rng.random() < 0.7:
            record["toxicity"] = rng.choice([rng.random(), 0, 1])
        if rng.random() < 0.05:
            record["text"] = float("nan")  # a NaN literal where nothing reads it
        if rng.random() < 0.3:
            record["urls"] = [f"https://site{rng.randrange(5)}.com/{k}"
                              for _ in range(rng.randrange(1, 3))]
        tweet_lines.append(json.dumps(record))

    profile_lines = []
    for account in ids + ["outsider", "only-retweeted", "u1"]:  # "u1" may repeat
        following = [rng.choice(ids + ["ghost", account]) for _ in range(rng.randrange(8))]
        if following and rng.random() < 0.3:
            following.append(following[0])  # a duplicate follow
        profile_lines.append(json.dumps({
            "account_id": account, "description": f"about {account} #{rng.randrange(9)}",
            "following_ids": following,
        }))
    profile_lines += _MALFORMED_PROFILES
    rng.shuffle(profile_lines)

    tweets = tmp_path / ("tweets.jsonl.gz" if seed % 2 else "tweets.jsonl")
    text = "\n".join(tweet_lines) + "\n"
    if seed % 2:
        with gzip.open(tweets, "wt", encoding="utf-8") as fh:
            fh.write(text)
    else:
        tweets.write_text(text, encoding="utf-8")
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text("\n".join(profile_lines) + "\n", encoding="utf-8")
    return tweets, profiles


@pytest.mark.parametrize("seed", SEEDS)
def test_build_matches_naive_reference(tmp_path, seed):
    tweets, profiles = _write_corpus(tmp_path, seed)
    out = tmp_path / "out"
    cfg = PipelineConfig(tweets=str(tweets), profiles=str(profiles), out_dir=str(out),
                         followings_cap=CAP)
    payload = stage_build(cfg)

    expected, counts = reference_build(tweets, profiles)
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert written == set(expected)
    for name, data in expected.items():
        assert (out / name).read_bytes() == data, name
    assert {key: payload[key] for key in counts} == counts
    # the corpus exercises what it claims to
    assert counts["tweets_skipped"] > 0 and counts["profiles_skipped"] > 0
    assert counts["days"] >= 4
