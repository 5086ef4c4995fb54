"""Streaming ingestion of tweet and profile files.

Input files are line-delimited JSON (plain or gzip).  Malformed lines are
skipped and tallied rather than aborting the run; an unreadable file is
fatal.  Days are bucketed on UTC boundaries.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Collection, Iterable, Iterator

from .graph import DirectedGraph, open_maybe_gzip

log = logging.getLogger(__name__)

DEFAULT_FOLLOWINGS_CAP = 2000


class IngestError(ValueError):
    """Fatal ingestion problem (unreadable file, invalid window...)."""


@dataclass
class TweetRecord:
    tweet_id: str
    author_id: str
    timestamp: datetime
    text: str = ""
    retweeted_author_id: str | None = None
    urls: list[str] = field(default_factory=list)
    opinion: float | None = None
    toxicity: float | None = None

    @property
    def day(self) -> date:
        return self.timestamp.astimezone(timezone.utc).date()


@dataclass
class UserProfileRecord:
    account_id: str
    description: str = ""
    following_ids: list[str] = field(default_factory=list)


@dataclass
class CollectionWindow:
    """Inclusive UTC day range; duration is data-derived, never hard-coded."""

    start: date
    end: date

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise IngestError(f"window end {self.end} precedes start {self.start}")

    @property
    def duration_days(self) -> int:
        return (self.end - self.start).days + 1


@dataclass
class ParseStats:
    parsed: int = 0
    skipped: int = 0


def _parse_timestamp(value: str) -> datetime:
    # Python 3.10 fromisoformat does not accept a trailing Z.
    if value.endswith("Z"):
        value = value[:-1] + "+00:00"
    ts = datetime.fromisoformat(value)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


def _unit_interval(value) -> float | None:
    if value is None:
        return None
    x = float(value)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"score {x} outside [0,1]")
    return x


def _parse_tweet(obj: dict) -> TweetRecord:
    tweet_id = str(obj["tweet_id"])
    author_id = str(obj["author_id"])
    if not tweet_id or not author_id:
        raise ValueError("empty tweet_id or author_id")
    retweeted = obj.get("retweeted_author_id")
    if retweeted is not None:
        retweeted = str(retweeted)
        if not retweeted:
            retweeted = None
        elif retweeted == author_id:
            raise ValueError("self-retweet")
    urls = obj.get("urls") or []
    if not isinstance(urls, list):
        raise ValueError("urls must be a list")
    return TweetRecord(
        tweet_id=tweet_id,
        author_id=author_id,
        timestamp=_parse_timestamp(str(obj["timestamp"])),
        text=str(obj.get("text") or ""),
        retweeted_author_id=retweeted,
        urls=[str(u) for u in urls],
        opinion=_unit_interval(obj.get("opinion")),
        toxicity=_unit_interval(obj.get("toxicity")),
    )


def load_tweets(path: str | Path, stats: ParseStats | None = None) -> Iterator[TweetRecord]:
    """Yield tweet records in file order; bad lines are counted and skipped."""
    if not Path(path).exists():
        raise IngestError(f"tweets file not found: {path}")
    stats = stats if stats is not None else ParseStats()
    with open_maybe_gzip(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = _parse_tweet(json.loads(line))
            except (ValueError, KeyError, TypeError):
                stats.skipped += 1
                continue
            stats.parsed += 1
            yield rec
    if stats.skipped:
        log.warning("%s: skipped %d malformed line(s)", path, stats.skipped)


def load_profiles(
    path: str | Path,
    stats: ParseStats | None = None,
    followings_cap: int = DEFAULT_FOLLOWINGS_CAP,
) -> Iterator[UserProfileRecord]:
    """Yield profile records; following lists are truncated at the cap."""
    if not Path(path).exists():
        raise IngestError(f"profiles file not found: {path}")
    stats = stats if stats is not None else ParseStats()
    with open_maybe_gzip(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                account_id = str(obj["account_id"])
                if not account_id:
                    raise ValueError("empty account_id")
                following = obj.get("following_ids") or []
                if not isinstance(following, list):
                    raise ValueError("following_ids must be a list")
                rec = UserProfileRecord(
                    account_id=account_id,
                    description=str(obj.get("description") or ""),
                    following_ids=[str(f) for f in following[:followings_cap]],
                )
            except (ValueError, KeyError, TypeError):
                stats.skipped += 1
                continue
            stats.parsed += 1
            yield rec
    if stats.skipped:
        log.warning("%s: skipped %d malformed line(s)", path, stats.skipped)


# -- corpus-level derivations ------------------------------------------------


@dataclass
class AccountContent:
    """One corpus account's tweets, reduced to what classification reads."""

    tweet_count: int = 0
    mean_opinion: float | None = None  # over the tweets carrying a score
    mean_toxicity: float | None = None
    urls: list[str] = field(default_factory=list)  # in tweet order
    description: str = ""


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def account_content(tweets: Iterable[TweetRecord]) -> dict[str, AccountContent]:
    """One entry per account appearing as author or retweeted author.

    Retweeted-only accounts get zero tweets.  Descriptions come from the
    profiles and are filled in by the caller.
    """
    by_author: dict[str, list[TweetRecord]] = {}
    for t in tweets:
        by_author.setdefault(t.author_id, []).append(t)
        if t.retweeted_author_id is not None:
            by_author.setdefault(t.retweeted_author_id, [])
    return {
        account: AccountContent(
            tweet_count=len(own),
            mean_opinion=_mean([t.opinion for t in own if t.opinion is not None]),
            mean_toxicity=_mean([t.toxicity for t in own if t.toxicity is not None]),
            urls=[url for t in own for url in t.urls],
        )
        for account, own in by_author.items()
    }


def observed_window(tweets: Iterable[TweetRecord]) -> CollectionWindow:
    lo: date | None = None
    hi: date | None = None
    for t in tweets:
        d = t.day
        lo = d if lo is None or d < lo else lo
        hi = d if hi is None or d > hi else hi
    if lo is None:
        raise IngestError("cannot derive a collection window from an empty corpus")
    return CollectionWindow(lo, hi)


def bucket_by_day(tweets: Iterable[TweetRecord]) -> dict[date, list[TweetRecord]]:
    buckets: dict[date, list[TweetRecord]] = {}
    for t in tweets:
        buckets.setdefault(t.day, []).append(t)
    return buckets


def build_daily_retweet_network(tweets: Iterable[TweetRecord], day: date) -> DirectedGraph:
    """Retweet network for one UTC day.

    Nodes are that day's authors and retweeted authors; edge (u, v) carries
    the number of times v retweeted u that day.  Original tweets create the
    author node only.  Nodes are inserted in sorted id order so the graph
    layout is independent of input ordering.
    """
    day_tweets = [t for t in tweets if t.day == day]
    ids: set[str] = set()
    for t in day_tweets:
        ids.add(t.author_id)
        if t.retweeted_author_id is not None:
            ids.add(t.retweeted_author_id)
    graph = DirectedGraph()
    for account in sorted(ids):
        graph.add_node(account)
    for t in day_tweets:
        if t.retweeted_author_id is not None:
            graph.add_interaction(t.retweeted_author_id, t.author_id, 1.0)
    return graph


def build_follower_network(
    profiles: Iterable[UserProfileRecord], corpus: Collection[str]
) -> DirectedGraph:
    """Follower network restricted to corpus accounts.

    Account i following j yields the edge (j, i): information flows from the
    followee to the follower.  Every corpus account becomes a node even if
    isolated, so daily active subnetworks can always be induced.
    """
    graph = DirectedGraph()
    for account in sorted(corpus):
        graph.add_node(account)
    for p in profiles:
        if p.account_id not in corpus:
            continue
        for followee in p.following_ids:
            if followee in corpus and followee != p.account_id:
                graph.add_interaction(followee, p.account_id, 1.0)
    return graph


def active_set(tweets: Iterable[TweetRecord], day: date) -> set[str]:
    """Accounts that authored at least one tweet (retweets count) on ``day``."""
    return {t.author_id for t in tweets if t.day == day}
