"""The account table, its labels and group statistics.

``AccountTable`` holds the accounts.csv columns over the positions of the
sorted account list, and ``classify``, ``ghic`` and ``report`` pass it
between them.  Partisanship comes from the mean opinion score of an
account's scored tweets (anti at or below the cutoff, pro above).  Qanon
status is a keyword rule over profile descriptions, applied to pro accounts
only.  Media quality averages fact-checker trust ratings over the rated news
domains an account linked to; a URL without a host counts as unrated.

The network statistics (leaderboard, follower overlap, co-partisan
fraction) take a network as its edge columns: ``src`` and ``tgt`` are
positions in the sorted account list, so boolean account masks select
groups and ties in id order are ties in position order.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence
from urllib.parse import urlsplit

import numpy as np

from .config import read_text
from .ingest import IngestError, group_means

ANTI = "anti"
PRO = "pro"

_TOKEN_RE = re.compile(r"[0-9a-z]+")
_NOT_IN_A_HOST = re.compile(r"[/:@?#\s]")


# -- keyword sets ------------------------------------------------------------


@dataclass(frozen=True)
class KeywordSet:
    """Case-folded match terms.

    A term that is one token of ASCII letters and digits matches whole
    tokens (hashtag marks are ignored on both sides, so the term ``maga``
    matches ``#MAGA`` in text); any other term, multiword or holding another
    character such as ``q-anon``, matches as a case-insensitive substring.
    """

    tokens: frozenset[str]
    phrases: tuple[str, ...]

    @staticmethod
    def from_terms(terms: Iterable[str]) -> "KeywordSet":
        tokens: set[str] = set()
        phrases: list[str] = []
        for raw in terms:
            term = raw.strip().casefold().lstrip("#")
            if not term:
                continue
            if _TOKEN_RE.fullmatch(term):
                tokens.add(term)
            else:
                phrases.append(term)
        return KeywordSet(frozenset(tokens), tuple(sorted(phrases)))

    def matches(self, text: str) -> bool:
        folded = text.casefold()
        if any(p in folded for p in self.phrases):
            return True
        return not self.tokens.isdisjoint(_TOKEN_RE.findall(folded))


def load_keywords(path: str | Path) -> KeywordSet:
    """Load a one-term-per-line keyword file, or the packaged Qanon list when
    ``path`` is empty.

    A line whose first word is a bare ``#`` (a ``#`` at the end of the line
    or followed by whitespace) is a comment.  A hashtag term may be written
    with its mark (``#MAGA``) or bare (``maga``); matching ignores the mark.
    """
    if path:
        text = read_text(path, IngestError)
    else:
        text = resources.files("botimpact.data").joinpath("qanon_keywords.txt").read_text(
            encoding="utf-8")
    return KeywordSet.from_terms(line for line in text.splitlines()
                                 if line.split(maxsplit=1)[:1] != ["#"])


# -- media quality -----------------------------------------------------------


class MediaRatingsTable:
    """Trust ratings (1-5) keyed by registrable news-site domain.

    A URL matches a rated domain when its host equals the domain or is a
    subdomain of it, so ``www.example.com/a`` matches a rated
    ``example.com``.  This keys matching off the ratings list itself and
    avoids carrying a public-suffix database.

    A URL's site is its text before the third ``/``, once a URL without
    ``//`` has gained a leading ``//``, and the table rates each site once.
    That is exact, because ``urlsplit`` finds and checks the host within
    that text: a scheme holds no ``/``, so a host follows the first two
    ``/`` and ends at the next ``/``, ``?`` or ``#``; and the tabs and
    newlines that ``urlsplit`` drops are never ``/``.
    """

    def __init__(self, ratings: Iterable[tuple[str, float | str]]):
        """From (domain, rating) rows, in order; a later row for a domain wins."""
        self._ratings: dict[str, float] = {}
        self._sites: dict[str, float | None] = {}
        for raw, rating, *extra in ratings:
            if extra:
                raise ValueError(f"more fields than the header names: {extra!r}")
            domain = raw.strip().casefold().lstrip(".")
            if not domain:
                raise ValueError(f"no domain in {raw!r}")
            if _NOT_IN_A_HOST.search(domain):
                raise ValueError(f"domain {raw!r} holds a character no host name can hold")
            rating = float(rating)
            if not 1.0 <= rating <= 5.0:
                raise ValueError(f"rating for {domain!r} outside [1,5]: {rating}")
            self._ratings[domain] = rating

    @staticmethod
    def from_csv(path: str | Path) -> "MediaRatingsTable":
        """Read ``domain,rating`` rows (header required); a malformed header or
        row raises IngestError naming the file and the line, and a file that
        cannot be read or is not UTF-8 one naming the file."""
        reader = csv.DictReader(io.StringIO(read_text(path, IngestError), newline=""), restval="")
        try:  # the table takes the rows one by one, so line_num is the bad row's
            if not {"domain", "rating"} <= set(reader.fieldnames or ()):
                raise ValueError("the header must name the domain and rating columns")
            # DictReader keys the fields past the header's by None
            return MediaRatingsTable((row["domain"], row["rating"], *row.get(None, ()))
                                     for row in reader)
        except ValueError as exc:
            raise IngestError(f"{path}, line {reader.line_num}: {exc}") from None

    def rating_for_url(self, url: str) -> float | None:
        """Rating of the URL's site, or None when unrated or without a host."""
        site = "/".join((url if "//" in url else "//" + url).split("/", 3)[:3])
        if site not in self._sites:
            self._sites[site] = self._rate_site(site)
        return self._sites[site]

    def _rate_site(self, site: str) -> float | None:
        try:
            host = urlsplit(site).hostname
        except ValueError:  # a malformed bracketed host, such as ``http://[::1``
            return None
        if not host:
            return None
        host = host.casefold()
        while True:
            rating = self._ratings.get(host)
            if rating is not None:
                return rating
            dot = host.find(".")
            if dot == -1:
                return None
            host = host[dot + 1 :]


# -- the account table ---------------------------------------------------------


@dataclass
class AccountTable:
    """The accounts.csv columns over the positions of the sorted account list."""

    opinion: np.ndarray  # mean opinion score, 0.5 where unscored
    scored: np.ndarray  # some tweet carried an opinion score
    tweet_count: np.ndarray
    tweet_rate: np.ndarray  # tweet_count over the window's days
    pro: np.ndarray  # opinion above the partisan cutoff; every other account is anti
    qanon: np.ndarray
    bot: np.ndarray
    media_quality: np.ndarray  # NaN where no rated URL was shared, or no ratings were read
    mean_toxicity: np.ndarray  # NaN where no tweet carried a toxicity score

    @property
    def side(self) -> np.ndarray:
        """Partisanship of scored accounts: 0 unscored, 1 anti, 2 pro."""
        return np.where(self.scored, 1 + self.pro, 0).astype(np.int8)

    @property
    def groups(self) -> dict[str, np.ndarray]:
        """The bot groups that ``ghic`` scores, as masks: all bots, anti-Trump
        bots, pro-Trump non-Qanon bots and Qanon bots."""
        bot = self.bot
        return {"all_bots": bot, "anti_bots": bot & ~self.pro,
                "pro_bots": bot & self.pro & ~self.qanon, "qanon_bots": bot & self.qanon}


def build_account_records(
    content: Sequence[Mapping],
    duration_days: int,
    bot: np.ndarray,
    qanon_keywords: KeywordSet,
    cutoff: float,
    ratings: MediaRatingsTable | None = None,
) -> AccountTable:
    """The account table from the rows of account_content.jsonl, in account
    order, and the bot mask; a tweet rate is the tweet count over the window's
    ``duration_days``.

    Accounts with no scored tweet get the neutral opinion 0.5, and so fall on
    the inclusive anti side of the default ``cutoff`` 0.5, and are flagged
    unscored so partisan statistics can exclude them.  Qanon is the keyword
    rule over the descriptions of pro accounts.  Media quality is the mean
    rating of an account's rated URL occurrences, added left to right as
    ``ordered_mean`` adds, NaN without any or without ``ratings``.
    """
    n = len(content)
    mean_opinion = np.array([c["mean_opinion"] for c in content], dtype=np.float64)  # None: NaN
    scored = ~np.isnan(mean_opinion)
    opinion = np.where(scored, mean_opinion, 0.5)
    pro = opinion > cutoff
    count = np.array([c["tweet_count"] for c in content], dtype=np.int64)
    media_quality = np.full(n, np.nan)
    if ratings is not None:  # each URL occurrence in account order, NaN where unrated
        urls = [c["urls"] for c in content]
        owner = np.repeat(np.arange(n), [len(u) for u in urls])
        rating = np.array([ratings.rating_for_url(url) for u in urls for url in u],
                          dtype=np.float64)
        media_quality = group_means(owner, rating, n)
    return AccountTable(
        opinion=opinion, scored=scored, tweet_count=count, tweet_rate=count / duration_days,
        pro=pro,
        qanon=np.array([p and qanon_keywords.matches(c["description"])
                        for p, c in zip(pro.tolist(), content)], dtype=bool),
        bot=bot,
        media_quality=media_quality,
        mean_toxicity=np.array([c["mean_toxicity"] for c in content], dtype=np.float64),
    )


# -- group statistics ----------------------------------------------------------


def ordered_mean(values: Sequence[float] | np.ndarray) -> float | None:
    """Mean added left to right from 0.0, None for no values.  Python 3.12's
    ``sum`` compensates rounding and ``np.sum`` adds pairwise, so either would
    round differently; a running sum adds one value at a time."""
    if not len(values):
        return None
    # overflow to inf and inf - inf add silently, as Python floats do
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.accumulate(np.concatenate(([0.0], values)))[-1]
    return float(total) / len(values)


_CELLS = [(part, bot, qanon) for part in (ANTI, PRO) for bot in (0, 1) for qanon in (0, 1)]


def group_summary(table: AccountTable) -> list[tuple]:
    """The rows of group_summary.csv: (partisanship, bot, qanon, accounts,
    tweets, mean tweet rate, mean media quality, mean toxicity) for each
    populated cell in that key order, then the totals row ("all", "", "", ...).
    A mean without values is NaN.

    Each account's cell code ``4*pro + 2*bot + qanon`` is its position in the
    key order.  Every sum is a ``bincount``, which adds each cell's accounts in
    position order as ``ordered_mean`` does (``np.sum`` adds pairwise and
    would round differently).
    """
    code = 4 * table.pro + 2 * table.bot + table.qanon
    return (_cell_rows(table, code, _CELLS)
            + _cell_rows(table, np.zeros_like(code), [("all", "", "")]))


def _cell_rows(table: AccountTable, cell: np.ndarray, keys: list[tuple]) -> list[tuple]:
    n = len(keys)
    accounts = np.bincount(cell, minlength=n)
    tweets = np.bincount(cell, weights=table.tweet_count, minlength=n).astype(np.int64)
    means = [group_means(cell, values, n).tolist()
             for values in (table.tweet_rate, table.media_quality, table.mean_toxicity)]
    return [(*keys[c], int(accounts[c]), int(tweets[c]), *(m[c] for m in means))
            for c in np.flatnonzero(accounts).tolist()]


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
