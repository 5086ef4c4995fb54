"""Streaming ingestion of tweet and profile files, and the columnar build.

Input files are line-delimited JSON (plain or gzip).  Each line is decoded
once and must be UTF-8 holding exactly one JSON value; malformed lines are
skipped and tallied rather than aborting the run, and a missing or
unreadable file is fatal.
Each tweet becomes one plain row in column order, its UTC day already an
ordinal, and each profile one plain row: account id, description and
capped following ids.  The build drains the tweet rows into per-tweet
columns (``tweet_columns``) and derives the window, day slices, daily
retweet networks and per-account content from them; one pass over the
profile rows gives the follower network and each account's description.
No list of rows is held.  A network comes out as the four columns of its
file (see ``graph``): node positions in the sorted account list, then edge
columns over those nodes.
"""

from __future__ import annotations

import gzip
import json
import logging
import zlib
from array import array
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .graph import merge_edges

log = logging.getLogger(__name__)

# author, day ordinal, retweeted author or None, urls, opinion, toxicity (NaN when unscored)
TweetRow = tuple[str, int, str | None, Sequence[str], float, float]
# account id, description ("" for none), following ids truncated at the cap
ProfileRow = tuple[str, str, list[str]]
_NAN = float("nan")
_decode = json.JSONDecoder().raw_decode


class IngestError(ValueError):
    """Fatal ingestion problem: a missing or unreadable input file, or no
    parseable tweet."""


@dataclass
class ParseStats:
    parsed: int = 0
    skipped: int = 0


def _id(value) -> str:
    """A tweet or account id: a JSON string, or a JSON integer as its decimal string."""
    if type(value) is str:
        return value
    if type(value) is int:  # not a bool
        return str(value)
    raise TypeError(f"id {value!r} is not a string or an integer")


def _parse_tweet(obj: dict) -> TweetRow:
    author_id = _id(obj["author_id"])
    if not _id(obj["tweet_id"]) or not author_id:  # required, but not kept
        raise ValueError("empty tweet_id or author_id")
    retweeted = obj.get("retweeted_author_id")
    if retweeted is not None:
        retweeted = _id(retweeted) or None  # "" is an original
        if retweeted == author_id:
            raise ValueError("self-retweet")
    urls = obj.get("urls")
    if urls is None or urls == []:  # 0, "", false and {} are malformed below
        urls = ()  # shared by the many tweets without a URL, so no list is kept for them
    elif not isinstance(urls, list) or not all(type(u) is str for u in urls):
        raise ValueError("urls must be a list of strings")
    if type(stamp := obj["timestamp"]) is not str:
        raise TypeError("timestamp must be a string")
    if stamp.endswith("Z"):  # fromisoformat rejects a date-only "2020-01-01Z"
        stamp = stamp[:-1] + "+00:00"
    ts = datetime.fromisoformat(stamp)
    if ts.tzinfo is not None:  # a naive timestamp is read as UTC
        ts = ts.astimezone(timezone.utc)
    return (author_id, ts.toordinal(), retweeted, urls, _score(obj.get("opinion"), "opinion"),
            _score(obj.get("toxicity"), "toxicity"))


def _score(value, name: str) -> float:
    """An opinion or toxicity score: null (NaN) or a JSON number, not a string or
    a boolean, in [0, 1]."""
    if value is None:
        return _NAN
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"{name} {value!r} is not a number")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} {value} outside [0,1]")
    return float(value)


def _parse_profile(obj: dict, followings_cap: int) -> ProfileRow:
    account_id = _id(obj["account_id"])
    if not account_id:
        raise ValueError("empty account_id")
    following = obj.get("following_ids")
    if not isinstance(following, list | None):
        raise ValueError("following_ids must be a list")
    if type(description := obj.get("description") or "") is not str:
        raise TypeError("description must be a string")
    return account_id, description, [_id(f) for f in following or ()][:followings_cap]


def _parse_lines(
    path: str | Path, kind: str, parse: Callable[[dict], object], stats: ParseStats | None
) -> Iterator:
    """Decode each stripped non-blank line once, accepting what ``json.loads`` accepts,
    and parse it, in file order; bad lines, those that are not UTF-8 included,
    are counted and skipped.  A file that cannot be opened or read to its end
    (a directory, a truncated or corrupt gzip stream) raises IngestError
    naming it."""
    if not Path(path).exists():
        raise IngestError(f"{kind} file not found: {path}")
    stats = stats if stats is not None else ParseStats()
    try:
        with open(path, "rb") as fh:
            gzipped = fh.read(2) == b"\x1f\x8b"
        # a byte that is not UTF-8 decodes to a lone surrogate, which encode() refuses
        with (gzip.open if gzipped else open)(path, "rt", encoding="utf-8",
                                              errors="surrogateescape") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    if not line.isascii():
                        line.encode()
                    obj, end = _decode(line)
                    if end != len(line):
                        raise ValueError("data after the JSON value")
                    rec = parse(obj)
                except (ValueError, KeyError, TypeError, OverflowError):
                    stats.skipped += 1
                    continue
                stats.parsed += 1
                yield rec
    except (OSError, EOFError, zlib.error) as exc:
        raise IngestError(f"{path}: unreadable ({type(exc).__name__}: {exc})") from None
    if stats.skipped:
        log.warning("%s: skipped %d malformed line(s)", path, stats.skipped)


def load_tweets(path: str | Path, stats: ParseStats | None = None) -> Iterator[TweetRow]:
    """A generator of tweet rows (``TweetRow``) in file order; bad lines are skipped."""
    return _parse_lines(path, "tweets", _parse_tweet, stats)


def load_profiles(
    path: str | Path, followings_cap: int, stats: ParseStats | None = None
) -> Iterator[ProfileRow]:
    """A generator of profile rows (``ProfileRow``) in file order; following lists
    are truncated at the cap, and bad lines are skipped."""
    return _parse_lines(path, "profiles", lambda o: _parse_profile(o, followings_cap), stats)


# -- the columnar build ---------------------------------------------------------


@dataclass
class TweetColumns:
    """A tweet corpus as per-tweet columns, in input order."""

    accounts: list[str]  # every author and retweeted author, sorted
    author: np.ndarray  # index into accounts
    day: np.ndarray  # date.toordinal() of the UTC day
    retweeted: np.ndarray  # index into accounts, -1 for an original tweet
    opinion: np.ndarray  # NaN where the tweet carries no score
    toxicity: np.ndarray
    urls: list[Sequence[str]]

    def window(self) -> tuple[date, date]:
        """The first and last UTC day."""
        return date.fromordinal(self.day.min()), date.fromordinal(self.day.max())

    def days(self) -> list[tuple[date, np.ndarray]]:
        """Each UTC day, ascending, with its tweets' row numbers in input order."""
        order = np.argsort(self.day, kind="stable")
        days, starts = np.unique(self.day[order], return_index=True)
        return list(zip(map(date.fromordinal, days.tolist()), np.split(order, starts[1:])))


def tweet_columns(tweets: Iterable[TweetRow]) -> TweetColumns:
    """Drain a stream of tweet rows into columns; account ids are indexed in sorted order."""
    index: dict[str, int] = {}  # in order of first appearance until re-ranked below
    author, day, retweeted = array("q"), array("q"), array("q")
    opinion, toxicity = array("d"), array("d")
    urls: list[Sequence[str]] = []
    for author_id, ordinal, rt, tweet_urls, score, toxic in tweets:
        author.append(index.setdefault(author_id, len(index)))
        day.append(ordinal)
        retweeted.append(-1 if rt is None else index.setdefault(rt, len(index)))
        opinion.append(score)
        toxicity.append(toxic)
        urls.append(tweet_urls)
    accounts = sorted(index)
    rank = np.full(len(index) + 1, -1, dtype=np.int64)  # the last entry maps -1 to itself
    rank[[index[a] for a in accounts]] = np.arange(len(accounts))
    author, day, retweeted = (np.frombuffer(c, dtype=np.int64) for c in (author, day, retweeted))
    return TweetColumns(accounts, rank[author], day, rank[retweeted],
                        np.frombuffer(opinion), np.frombuffer(toxicity), urls)


def group_means(group: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Means of the non-NaN ``values`` over the ``n`` groups that ``group`` numbers,
    each added in input order, as ``accounts.ordered_mean`` adds; NaN for a
    group without any."""
    scored = ~np.isnan(values)
    counts = np.bincount(group[scored], minlength=n)
    sums = np.bincount(group[scored], weights=values[scored], minlength=n)
    return np.divide(sums, counts, out=np.full(n, np.nan), where=counts > 0)


def account_content(tweets: TweetColumns, descriptions: Sequence[str]) -> list[dict]:
    """The rows of account_content.jsonl, in account order: ``account_id``,
    ``tweet_count``, ``mean_opinion`` and ``mean_toxicity`` over the tweets
    carrying a score (None without any), ``urls`` in tweet order, and the
    ``description`` at the account's position in ``descriptions``.

    Retweeted-only accounts get zero tweets.
    """
    n = len(tweets.accounts)
    opinion, toxicity = ([None if m != m else m for m in group_means(tweets.author, v, n).tolist()]
                         for v in (tweets.opinion, tweets.toxicity))
    order = np.argsort(tweets.author, kind="stable")  # each author's rows in input order
    own = np.split(order, np.searchsorted(tweets.author[order], np.arange(1, n)))
    return [
        {"account_id": account, "tweet_count": own[i].size, "mean_opinion": opinion[i],
         "mean_toxicity": toxicity[i],
         "urls": [url for row in own[i].tolist() for url in tweets.urls[row]],
         "description": descriptions[i]}
        for i, account in enumerate(tweets.accounts)
    ]


def build_daily_retweet_network(
    accounts: list[str], author: np.ndarray, retweeted: np.ndarray
) -> list[np.ndarray]:
    """Retweet network ``[nodes, sources, targets, weights]`` of one UTC day's
    tweets, given as positions in the sorted ``accounts`` (``retweeted`` is -1
    for an original tweet, which creates the author node only); edge (u, v)
    carries the number of times v retweeted u that day.  Nodes come as the
    (source, target)-sorted edges first name them, then the authors without a
    retweet: the order in which belief propagation has always added messages
    (sorted order moves some marginals at 1/2 by an ulp, across a histogram
    bin edge)."""
    shared = retweeted >= 0
    src, tgt = retweeted[shared], author[shared]
    n = len(accounts)
    ends = np.column_stack(np.divmod(np.unique(src * n + tgt), n)).ravel()
    named = ends[np.sort(np.unique(ends, return_index=True)[1])]
    nodes = np.concatenate((named, np.setdiff1d(author, named)))
    rank = np.empty(n, dtype=np.int64)
    rank[nodes] = np.arange(nodes.size)
    return [nodes, *merge_edges(nodes.size, rank[src], rank[tgt], np.ones(src.size))]


def build_follower_network(
    profiles: Iterable[ProfileRow], accounts: list[str]
) -> tuple[list[np.ndarray], list[str]]:
    """Follower network ``[nodes, sources, targets, weights]`` over the sorted
    corpus ``accounts``, and each account's description in list order, from
    one pass over the profile rows.

    Account i following j yields the edge (j, i): information flows from the
    followee to the follower.  Every corpus account is a node, in list order,
    even if isolated, so daily active subnetworks can always be induced.  An
    account without a profile has description ""; of repeated profiles, the
    last one's description counts.  Profiles of other accounts are ignored.
    """
    index = {account: i for i, account in enumerate(accounts)}
    descriptions = [""] * len(accounts)
    ends: list[int] = []  # followee, follower, followee, follower, ...
    for account_id, description, following in profiles:
        follower = index.get(account_id)
        if follower is not None:
            descriptions[follower] = description
            for followee in map(index.get, following):
                if followee is not None and followee != follower:
                    ends += (followee, follower)
    src, tgt = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    n = len(accounts)
    return [np.arange(n), *merge_edges(n, src, tgt, np.ones(src.size))], descriptions
