"""Per-account labels, aggregates, and group statistics.

Partisanship comes from the mean opinion score of an account's scored
tweets (anti at or below the cutoff, pro above).  Qanon status is a
keyword rule over profile descriptions, applied to pro accounts only.
Media quality averages fact-checker trust ratings over the rated news
domains an account linked to.

The network statistics (leaderboard, follower overlap, co-partisan
fraction) take a network as its edge columns: ``src`` and ``tgt`` are
positions in the sorted account list, so boolean account masks select
groups and ties in id order are ties in position order.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from functools import reduce
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping
from urllib.parse import urlsplit

import numpy as np

from .ingest import AccountContent, IngestError

PARTISAN_CUTOFF = 0.5
ANTI = "anti"
PRO = "pro"

_TOKEN_RE = re.compile(r"[0-9a-z]+")


@dataclass
class AccountRecord:
    account_id: str
    opinion: float
    tweet_rate: float
    tweet_count: int
    partisanship: str
    qanon: bool
    bot: bool
    media_quality: float | None = None
    mean_toxicity: float | None = None
    scored: bool = True  # False when no tweet carried an opinion score


# -- keyword sets ------------------------------------------------------------


@dataclass(frozen=True)
class KeywordSet:
    """Case-folded match terms for one label.

    Single-word terms match whole tokens (hashtag marks are ignored on both
    sides, so the term ``maga`` matches ``#MAGA`` in text); multiword terms
    match as case-insensitive substrings.
    """

    label: str
    tokens: frozenset[str]
    phrases: tuple[str, ...]

    @staticmethod
    def from_terms(label: str, terms: Iterable[str]) -> "KeywordSet":
        tokens: set[str] = set()
        phrases: list[str] = []
        for raw in terms:
            term = raw.strip().casefold().lstrip("#")
            if not term:
                continue
            if any(ch.isspace() for ch in term):
                phrases.append(term)
            else:
                tokens.add(term)
        return KeywordSet(label, frozenset(tokens), tuple(sorted(phrases)))

    def matches(self, text: str) -> bool:
        folded = text.casefold()
        if any(p in folded for p in self.phrases):
            return True
        return not self.tokens.isdisjoint(_TOKEN_RE.findall(folded))


def load_keywords(path: str | Path, label: str) -> KeywordSet:
    """Load a one-term-per-line keyword file; ``#``-prefixed lines are comments.

    Hashtag keywords are therefore stored bare (``maga`` rather than
    ``#MAGA``); matching ignores hashtag marks anyway.
    """
    terms = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        terms.append(line)
    return KeywordSet.from_terms(label, terms)


def packaged_keywords(label: str) -> KeywordSet:
    """Keyword set shipped with the package; only ``qanon`` is packaged."""
    ref = resources.files("botimpact.data").joinpath(f"{label}_keywords.txt")
    with resources.as_file(ref) as path:
        return load_keywords(path, label)


# -- labels ------------------------------------------------------------------


def label_partisanship(mean_opinion: float, cutoff: float = PARTISAN_CUTOFF) -> str:
    """``anti`` at or below the cutoff, ``pro`` above it."""
    if not 0.0 <= mean_opinion <= 1.0:
        raise ValueError(f"mean opinion {mean_opinion} outside [0,1]")
    return ANTI if mean_opinion <= cutoff else PRO


def label_qanon(description: str, partisanship: str, qanon_keywords: KeywordSet) -> bool:
    """True iff the account is pro and its description matches a Qanon term."""
    return partisanship == PRO and qanon_keywords.matches(description)


# -- media quality -----------------------------------------------------------


class MediaRatingsTable:
    """Trust ratings (1-5) keyed by registrable news-site domain.

    A URL matches a rated domain when its host equals the domain or is a
    subdomain of it, so ``www.example.com/a`` matches a rated
    ``example.com``.  This keys matching off the ratings list itself and
    avoids carrying a public-suffix database.
    """

    def __init__(self, ratings: Iterable[tuple[str, float | str]]):
        """From (domain, rating) pairs, in order; a later pair for a domain wins."""
        self._ratings: dict[str, float] = {}
        for domain, rating in ratings:
            domain = domain.strip().casefold().lstrip(".")
            rating = float(rating)
            if not 1.0 <= rating <= 5.0:
                raise ValueError(f"rating for {domain!r} outside [1,5]: {rating}")
            self._ratings[domain] = rating

    @staticmethod
    def from_csv(path: str | Path) -> "MediaRatingsTable":
        """Read ``domain,rating`` rows (header required); a malformed header or
        row raises IngestError naming the file and the line."""
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, restval="")
            try:  # the table takes the rows one by one, so line_num is the bad row's
                if not {"domain", "rating"} <= set(reader.fieldnames or ()):
                    raise ValueError("the header must name the domain and rating columns")
                return MediaRatingsTable((row["domain"], row["rating"]) for row in reader)
            except ValueError as exc:
                raise IngestError(f"{path}, line {reader.line_num}: {exc}") from None

    def rating_for_url(self, url: str) -> float | None:
        """Rating of the URL's site, or None when unrated.

        Raises ValueError for URLs without a parseable host.
        """
        host = urlsplit(url if "//" in url else "//" + url).hostname
        if not host:
            raise ValueError(f"no host in URL {url!r}")
        host = host.casefold()
        while True:
            rating = self._ratings.get(host)
            if rating is not None:
                return rating
            dot = host.find(".")
            if dot == -1:
                return None
            host = host[dot + 1 :]


def media_quality_score(
    urls: Iterable[str], ratings: MediaRatingsTable
) -> tuple[float | None, int]:
    """Mean trust rating over every rated URL the account shared.

    Each rated URL occurrence counts once, including several in one tweet.
    Returns (score or None when no rated URL was shared, malformed URL tally).
    """
    rated: list[float] = []
    malformed = 0
    for url in urls:
        try:
            rating = ratings.rating_for_url(url)
        except ValueError:
            malformed += 1
            continue
        if rating is not None:
            rated.append(rating)
    return ordered_mean(rated), malformed


# -- account assembly ---------------------------------------------------------


def build_account_records(
    content: Mapping[str, AccountContent],
    duration_days: int,
    bots: set[str],
    qanon_keywords: KeywordSet,
    ratings: MediaRatingsTable | None = None,
    cutoff: float = PARTISAN_CUTOFF,
) -> dict[str, AccountRecord]:
    """Assemble one AccountRecord per corpus account; its tweet rate is its
    tweet count over the window's ``duration_days``.

    Accounts with zero scored tweets get the neutral opinion 0.5 and are
    flagged unscored so partisan statistics can exclude them.
    """
    out: dict[str, AccountRecord] = {}
    for account in sorted(content):
        c = content[account]
        opinion = 0.5 if c.mean_opinion is None else c.mean_opinion
        partisanship = label_partisanship(opinion, cutoff)
        quality = None
        if ratings is not None:
            quality, _ = media_quality_score(c.urls, ratings)
        out[account] = AccountRecord(
            account_id=account,
            opinion=opinion,
            tweet_rate=c.tweet_count / duration_days,
            tweet_count=c.tweet_count,
            partisanship=partisanship,
            qanon=label_qanon(c.description, partisanship, qanon_keywords),
            bot=account in bots,
            media_quality=quality,
            mean_toxicity=c.mean_toxicity,
            scored=c.mean_opinion is not None,
        )
    return out


# -- group statistics ----------------------------------------------------------


@dataclass
class GroupRow:
    partisanship: str  # "" on the totals row
    bot: bool | None
    qanon: bool | None
    accounts: int
    tweets: int
    mean_rate: float
    mean_media_quality: float | None
    mean_toxicity: float | None


def ordered_mean(values: list[float]) -> float | None:
    """Mean added left to right, None for no values.  Python 3.12's ``sum``
    compensates rounding, so ``sum(v) / len(v)`` would differ by interpreter."""
    return reduce(lambda total, x: total + x, values, 0.0) / len(values) if values else None


def group_summary(accounts: Iterable[AccountRecord]) -> list[GroupRow]:
    """One row per populated (partisanship, bot, qanon) cell plus a totals row."""
    cells: dict[tuple[str, bool, bool], list[AccountRecord]] = {}
    everyone: list[AccountRecord] = []
    for rec in accounts:
        cells.setdefault((rec.partisanship, rec.bot, rec.qanon), []).append(rec)
        everyone.append(rec)

    def _row(key_part: str, bot, qanon, members: list[AccountRecord]) -> GroupRow:
        return GroupRow(
            partisanship=key_part,
            bot=bot,
            qanon=qanon,
            accounts=len(members),
            tweets=sum(r.tweet_count for r in members),
            mean_rate=ordered_mean([r.tweet_rate for r in members]),
            mean_media_quality=ordered_mean(
                [r.media_quality for r in members if r.media_quality is not None]
            ),
            mean_toxicity=ordered_mean(
                [r.mean_toxicity for r in members if r.mean_toxicity is not None]
            ),
        )

    rows = [
        _row(part, bot, qanon, members)
        for (part, bot, qanon), members in sorted(cells.items())
    ]
    if everyone:
        rows.append(_row("", None, None, everyone))
    return rows


def retweet_leaderboard(
    src: np.ndarray, tgt: np.ndarray, w: np.ndarray, retweeters: np.ndarray, k: int
) -> list[tuple[int, float]]:
    """Top-k (account position, retweets received) over the edges whose
    retweeter ``tgt`` is in the boolean account mask ``retweeters``.

    Descending by count; ties broken by position, which is account id order
    on the sorted account list.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    kept = retweeters[tgt]
    received = np.bincount(src[kept], weights=w[kept], minlength=retweeters.size)
    authors = np.flatnonzero(received)
    top = authors[np.argsort(-received[authors], kind="stable")[:k]]
    return list(zip(top.tolist(), received[top].tolist()))


def follower_overlap(
    src: np.ndarray, tgt: np.ndarray, set_a: np.ndarray, set_b: np.ndarray
) -> tuple[int, int, int]:
    """(A-only, B-only, both) follower counts for two boolean account masks."""
    fa, fb = (np.bincount(tgt[m[src]], minlength=m.size) > 0 for m in (set_a, set_b))
    both = int(np.count_nonzero(fa & fb))
    return int(np.count_nonzero(fa)) - both, int(np.count_nonzero(fb)) - both, both


def co_partisan_fraction(
    src: np.ndarray, tgt: np.ndarray, bots: np.ndarray, side: np.ndarray
) -> np.ndarray:
    """Per bot of the boolean account mask ``bots``, in account order, the
    fraction of its labeled followers sharing the bot's partisanship.

    ``side`` codes each account's partisanship, 0 for unlabeled.  A bot that
    is unlabeled or has no labeled follower has no fraction (not 0).
    """
    labeled = bots[src] & (side[src] > 0) & (side[tgt] > 0)
    followers = np.bincount(src[labeled], minlength=bots.size)
    shared = np.bincount(src[labeled & (side[src] == side[tgt])], minlength=bots.size)
    return shared[followers > 0] / followers[followers > 0]
