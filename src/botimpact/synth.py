"""Seeded synthetic corpora with planted ground truth.

Three topologies cover the pipeline's interesting regimes:

* ``two_block_polarized`` — two partisan communities, dense follow edges
  inside each block and an ``eps``-scaled fraction across, opinions planted
  near the block means;
* ``core_periphery_qanon`` — an interconnected bot core whose periphery
  humans follow only core bots and never each other, with either an ``echo``
  audience (opinions matching the core) or a ``mixed`` one;
* ``planted_bot_retweet`` — retweet behavior where bots retweet humans at a
  high rate, humans retweet humans moderately, and everything into bots is
  rare.

All randomness is counter-based (Philox keyed by seed, stream, and entity
index), so identical specs produce byte-identical files regardless of
generation order.  Planted labels go to a sidecar file that inference never
reads.

Per-account work is array draws and index arithmetic.  A two-block or core
account's follow row is one ``rng.random(k)`` over the k other candidates in
index order, which yields the same doubles as k scalar ``rng.random()``
calls.  Retweet pools are shared lists, indexed rather than copied: an
account that sits in its own pool at position ``own`` draws ``j`` from one
fewer candidates and takes ``pool[j + (j >= own)]``, so every draw matches a
pick from a copy of the pool with the account removed.

An ``_Account`` stores only what its roster decides: its index, block, bot
flag, opinion, description, follow list and retweet pool.  The rest is
derived where it is used: the id from the index (once per account), and the
tweet rate and the range of rated domains it links from the spec and the bot
flag.  Each topology builds its accounts in one loop over the indices.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import date, timedelta
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import check_finite, read_key_values

TOPOLOGIES = ("two_block_polarized", "core_periphery_qanon", "planted_bot_retweet")

_STREAMS = {
    "opinion": 0,
    "follow": 1,
    "tweets": 2,
    "description": 3,
}

_ANTI_TERMS = ("#resist", "#voteblue", "#theresistance")
_PRO_TERMS = ("#maga", "#kag", "#trump2020")
_QANON_TERM = "#wwg1wga"

# what json.dumps(..., sort_keys=True) builds on every call
_JSON = json.JSONEncoder(sort_keys=True)

# synthetic rated news domains, low to high trust
_DOMAIN_POOL = tuple((f"site{k:02d}.example", 1.0 + 4.0 * k / 9.0) for k in range(10))


class SynthSpecError(ValueError):
    """Invalid generator specification; message names the offending field."""


@dataclass
class SynthSpec:
    seed: int = 0
    topology: str = "two_block_polarized"
    days: int = 30
    start_day: date = date(2020, 1, 1)
    human_rate: float = 1.0  # tweets/day
    bot_rate: float = 100.0  # bots post about two orders of magnitude more
    retweet_frac: float = 0.3
    url_prob: float = 0.15
    opinion_concentration: float = 8.0
    tweet_score_concentration: float = 60.0
    # two_block_polarized
    humans_per_block: int = 50
    bots_per_block: int = 5
    humans_block_b: int = -1  # -1 mirrors block a
    bots_block_b: int = -1
    qanon_bot_frac: float = 0.0  # fraction of pro-block bots marked Qanon
    qanon_human_frac: float = 0.0  # fraction of pro-block humans marked Qanon
    p_intra: float = 0.2
    eps: float = 0.05  # cross-block follow probability = eps * p_intra
    anti_mean: float = 0.12
    pro_mean: float = 0.88
    # core_periphery_qanon
    core_bots: int = 10
    periphery_humans: int = 100
    k_follow: int = 3
    p_core: float = 0.5
    audience: str = "echo"  # echo | mixed
    core_opinion_mean: float = 0.92
    # planted_bot_retweet
    n_bots: int = 30
    n_humans: int = 300
    bot_rt_human: float = 8.0  # expected retweets/day
    human_rt_human: float = 3.0
    human_rt_bot: float = 0.01
    bot_rt_bot: float = 0.01
    amplify_targets: int = 3  # bots concentrate retweets on this many accounts
    follow_out: int = 10

    def validate(self) -> None:
        check_finite(self, SynthSpecError)
        if self.topology not in TOPOLOGIES:
            raise SynthSpecError(f"topology must be one of {TOPOLOGIES}, got {self.topology!r}")
        positive = ("days", "human_rate", "bot_rate", "opinion_concentration",
                    "tweet_score_concentration")
        for name in positive:
            if getattr(self, name) <= 0:
                raise SynthSpecError(f"{name} must be positive")
        unit = ("retweet_frac", "url_prob", "qanon_bot_frac", "qanon_human_frac",
                "p_intra", "p_core", "anti_mean", "pro_mean", "core_opinion_mean")
        for name in unit:
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise SynthSpecError(f"{name} must be in [0,1]")
        if self.eps < 0:
            raise SynthSpecError("eps must be >= 0")
        if self.seed < 0:
            raise SynthSpecError("seed must be >= 0")
        if self.topology == "two_block_polarized":
            if self.humans_per_block + self.bots_per_block < 1:
                raise SynthSpecError("humans_per_block + bots_per_block must be >= 1")
            if min(self.humans_per_block, self.bots_per_block) < 0:
                raise SynthSpecError("block sizes must be >= 0")
            for name in ("humans_block_b", "bots_block_b"):
                if getattr(self, name) < -1:
                    raise SynthSpecError(f"{name} must be >= 0, or -1 to mirror block a")
        if self.topology == "core_periphery_qanon":
            if self.core_bots < 1:
                raise SynthSpecError("core_bots must be >= 1")
            if self.periphery_humans < 1:
                raise SynthSpecError("periphery_humans must be >= 1")
            if self.k_follow < 1:
                raise SynthSpecError("k_follow must be >= 1")
            if self.audience not in ("echo", "mixed"):
                raise SynthSpecError("audience must be 'echo' or 'mixed'")
        if self.topology == "planted_bot_retweet":
            if self.n_bots < 0:
                raise SynthSpecError("n_bots must be >= 0")
            if self.n_humans < 1:
                raise SynthSpecError("n_humans must be >= 1")
            if self.amplify_targets < 1:
                raise SynthSpecError("amplify_targets must be >= 1")
            for name in ("follow_out", "bot_rt_human", "human_rt_human", "human_rt_bot",
                         "bot_rt_bot"):
                if getattr(self, name) < 0:
                    raise SynthSpecError(f"{name} must be >= 0")

    @staticmethod
    def from_file(path: str | Path) -> "SynthSpec":
        """Parse a ``key = value`` spec file (# comments allowed)."""
        spec = SynthSpec(**read_key_values(path, SynthSpec, SynthSpecError))
        spec.validate()
        return spec


def _rng(seed: int, stream: str, *index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_STREAMS[stream], *index))
    return np.random.Generator(np.random.Philox(ss))


def _beta(rng: np.random.Generator, mean: float, concentration: float) -> float:
    mean = min(max(mean, 1e-3), 1.0 - 1e-3)
    return float(rng.beta(mean * concentration, (1.0 - mean) * concentration))


@dataclass
class _Account:
    index: int
    block: str
    is_bot: bool
    opinion: float
    description: str
    following: list[str]
    retweet_pool: list[str]  # candidate accounts this one retweets; shared, may hold this one
    own: int  # this account's position in retweet_pool; len(retweet_pool) when absent

    @cached_property
    def account_id(self) -> str:
        return _account_id(self.index)


def generate(spec: SynthSpec, outdir: str | Path) -> dict:
    """Generate the corpus for ``spec`` into ``outdir``.

    Writes ``tweets.jsonl``, ``profiles.jsonl``, ``ratings.csv``,
    ``labels_truth.csv`` and ``synth_summary.json``; returns the summary.
    """
    spec.validate()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if spec.topology == "two_block_polarized":
        roster = _roster_two_block(spec)
    elif spec.topology == "core_periphery_qanon":
        roster = _roster_core_periphery(spec)
    else:
        roster = _roster_planted_retweets(spec)
    return _emit(spec, roster, outdir)


# -- rosters --------------------------------------------------------------------


def _account_id(index: int) -> str:
    return f"u{index:05d}"


def _description(spec: SynthSpec, index: int, block: str, qanon: bool) -> str:
    rng = _rng(spec.seed, "description", index)
    parts = ["synthetic account"]
    terms = _ANTI_TERMS if block == "anti" else _PRO_TERMS
    if block in ("anti", "pro") and rng.random() < 0.6:
        parts.append(terms[int(rng.integers(len(terms)))])
    if qanon:
        parts.append(_QANON_TERM)
    return " ".join(parts)


def _roster_two_block(spec: SynthSpec) -> list[_Account]:
    humans_b = spec.humans_block_b if spec.humans_block_b >= 0 else spec.humans_per_block
    bots_b = spec.bots_block_b if spec.bots_block_b >= 0 else spec.bots_per_block
    members: list[tuple[bool, bool]] = []  # (pro, is_bot): each block's humans, then its bots
    for side, humans, bots in ((False, spec.humans_per_block, spec.bots_per_block),
                               (True, humans_b, bots_b)):
        members += [(side, False)] * humans + [(side, True)] * bots
    ids = np.array([_account_id(index) for index in range(len(members))], dtype=object)
    pro = np.array([side for side, _ in members], dtype=bool)
    p_cross = min(spec.eps * spec.p_intra, 1.0)
    # follow probability of every account, seen from each side
    p_from = {side: np.where(pro == side, spec.p_intra, p_cross) for side in (False, True)}
    # retweets flow into humans: bots amplify, they rarely get amplified; each
    # side's pool is its humans, then a prefix of the other side's humans
    humans = {side: [ids[i] for i, member in enumerate(members) if member == (side, False)]
              for side in (False, True)}
    share = min(spec.eps, 1.0)
    pools = {side: humans[side] + humans[not side][: int(round(len(humans[not side]) * share))]
             for side in (False, True)}
    seen = {False: 0, True: 0}  # humans of each side so far, in index order
    roster: list[_Account] = []
    for index, (side, is_bot) in enumerate(members):
        name = "pro" if side else "anti"
        rng_o = _rng(spec.seed, "opinion", index)
        mean = (0.96 if side else 0.04) if is_bot else (spec.pro_mean if side else spec.anti_mean)
        opinion = _beta(rng_o, mean, spec.opinion_concentration)
        qanon_frac = spec.qanon_bot_frac if is_bot else spec.qanon_human_frac
        qanon = side and rng_o.random() < qanon_frac
        # one draw per other account, in index order
        row = _rng(spec.seed, "follow", index).random(len(members) - 1)
        cols = np.flatnonzero(row < np.delete(p_from[side], index))
        own = len(pools[side]) if is_bot else seen[side]
        seen[side] += not is_bot
        roster.append(_Account(index, f"{name}_qanon" if qanon else name, is_bot, opinion,
                               _description(spec, index, name, qanon),
                               ids[cols + (cols >= index)].tolist(), pools[side], own))
    return roster


def _roster_core_periphery(spec: SynthSpec) -> list[_Account]:
    core_ids = [_account_id(index) for index in range(spec.core_bots)]
    k = min(spec.k_follow, spec.core_bots)
    roster: list[_Account] = []
    for index in range(spec.core_bots + spec.periphery_humans):
        core = index < spec.core_bots
        rng_o = _rng(spec.seed, "opinion", index)
        if core or spec.audience == "echo":
            opinion = _beta(rng_o, spec.core_opinion_mean, 4 * spec.opinion_concentration)
        else:
            opinion = _beta(rng_o, 0.5, 2.0)  # spread audience
        rng_f = _rng(spec.seed, "follow", index)
        if core:
            # one draw per other core bot, in index order
            cols = np.flatnonzero(rng_f.random(spec.core_bots - 1) < spec.p_core)
            following = [core_ids[c] for c in cols + (cols >= index)]
            pool, own = core_ids, index
        else:
            picks = rng_f.choice(spec.core_bots, size=k, replace=False)
            following = [core_ids[int(p)] for p in sorted(picks)]
            pool, own = following, k
        roster.append(_Account(index, "core" if core else "periphery", core, opinion,
                               _description(spec, index, "pro", core), following, pool, own))
    return roster


def _roster_planted_retweets(spec: SynthSpec) -> list[_Account]:
    total = spec.n_bots + spec.n_humans
    ids = np.array([_account_id(index) for index in range(total)], dtype=object)
    humans = ids[spec.n_bots :].tolist()
    k = min(spec.follow_out, total - 1)
    k_amp = min(spec.amplify_targets, len(humans))
    roster: list[_Account] = []
    for index in range(total):
        is_bot = index < spec.n_bots
        opinion = _beta(_rng(spec.seed, "opinion", index), 0.5, 4.0)
        rng_f = _rng(spec.seed, "follow", index)
        # picks index the other accounts, so skip over this one
        picks = np.sort(rng_f.choice(total - 1, size=k, replace=False))
        pool, own = [], 0
        if is_bot:
            # bots amplify a fixed handful of accounts rather than spraying
            amp = np.sort(rng_f.choice(len(humans), size=k_amp, replace=False))
            pool, own = [humans[i] for i in amp], k_amp
        roster.append(_Account(index, "bot" if is_bot else "human", is_bot, opinion,
                               "synthetic account", ids[picks + (picks >= index)].tolist(),
                               pool, own))
    return roster


# -- emission ---------------------------------------------------------------------


def _emit(spec: SynthSpec, roster: list[_Account], outdir: Path) -> dict:
    bots = [a.account_id for a in roster if a.is_bot]
    humans = [a.account_id for a in roster if not a.is_bot]
    planted = spec.topology == "planted_bot_retweet"

    days = [(spec.start_day + timedelta(days=d)).isoformat() for d in range(spec.days)]
    tweets_path = outdir / "tweets.jsonl"
    n_tweets = 0
    n_retweets = 0
    with open(tweets_path, "w", encoding="utf-8") as fh:
        for acct in roster:
            rng_t = _rng(spec.seed, "tweets", acct.index)
            for day_offset, day in enumerate(days):
                if planted:
                    events = _planted_day_events(spec, acct, rng_t, bots, humans)
                else:
                    events = _generic_day_events(spec, acct, rng_t)
                if day_offset == 0 and not events:
                    events = [None]  # every account enters the corpus
                for k, retweeted in enumerate(events):
                    n_tweets += 1
                    n_retweets += retweeted is not None
                    fh.write(_tweet_json(spec, acct, day, k, retweeted, rng_t))
                    fh.write("\n")

    profiles_path = outdir / "profiles.jsonl"
    with open(profiles_path, "w", encoding="utf-8") as fh:
        for acct in roster:
            fh.write(
                _JSON.encode(
                    {
                        "account_id": acct.account_id,
                        "description": acct.description,
                        "following_ids": acct.following,
                    }
                )
            )
            fh.write("\n")

    ratings_path = outdir / "ratings.csv"
    with open(ratings_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "rating"])
        for domain, rating in _DOMAIN_POOL:
            writer.writerow([domain, f"{rating:.4f}"])

    labels_path = outdir / "labels_truth.csv"
    with open(labels_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["account_id", "is_bot", "block"])
        for acct in roster:
            writer.writerow([acct.account_id, int(acct.is_bot), acct.block])

    summary = {
        "topology": spec.topology,
        "seed": spec.seed,
        "accounts": len(roster),
        "bots": len(bots),
        "days": spec.days,
        "tweets": n_tweets,
        "retweets": n_retweets,
        "files": {
            "tweets": tweets_path.name,
            "profiles": profiles_path.name,
            "ratings": ratings_path.name,
            "labels_truth": labels_path.name,
        },
    }
    (outdir / "synth_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary


def _pool_size(pool: list[str], own: int) -> int:
    """How many accounts ``pool`` holds besides the one at position ``own``."""
    return len(pool) - (own < len(pool))


def _pick(rng: np.random.Generator, pool: list[str], own: int, size: int) -> str:
    """A uniform draw from ``pool`` without position ``own``; ``size`` is ``_pool_size``."""
    j = int(rng.integers(size))
    return pool[j + (j >= own)]


def _generic_day_events(
    spec: SynthSpec, acct: _Account, rng: np.random.Generator
) -> list[str | None]:
    count = int(rng.poisson(spec.bot_rate if acct.is_bot else spec.human_rate))
    size = _pool_size(acct.retweet_pool, acct.own)
    events: list[str | None] = []
    for _ in range(count):
        if size and rng.random() < spec.retweet_frac:
            events.append(_pick(rng, acct.retweet_pool, acct.own, size))
        else:
            events.append(None)
    return events


def _planted_day_events(
    spec: SynthSpec,
    acct: _Account,
    rng: np.random.Generator,
    bots: list[str],
    humans: list[str],
) -> list[str | None]:
    # bots come first in the roster, so an account's index is its position
    # in ``bots`` or ``n_bots`` past its position in ``humans``
    if acct.is_bot:
        rt_human, rt_bot = spec.bot_rt_human, spec.bot_rt_bot
        originals = rng.poisson(max(spec.bot_rate - rt_human - rt_bot, 0.0))
        human_pool, human_own, bot_own = acct.retweet_pool, acct.own, acct.index
    else:
        rt_human, rt_bot = spec.human_rt_human, spec.human_rt_bot
        originals = rng.poisson(max(spec.human_rate, 0.1))
        human_pool, human_own, bot_own = humans, acct.index - spec.n_bots, len(bots)
    events: list[str | None] = [None] * int(originals)
    for pool, own, rate in ((human_pool, human_own, rt_human), (bots, bot_own, rt_bot)):
        size = _pool_size(pool, own)
        if not size:
            continue
        for _ in range(int(rng.poisson(rate))):
            events.append(_pick(rng, pool, own, size))
    return events


def _tweet_json(
    spec: SynthSpec,
    acct: _Account,
    day: str,
    k: int,
    retweeted: str | None,
    rng: np.random.Generator,
) -> str:
    seconds = int(rng.integers(86_400))
    urls: list[str] = []
    if retweeted is None and rng.random() < spec.url_prob:
        lo, hi = (0, 5) if acct.is_bot else (4, 10)  # bots link low-trust domains
        domain = _DOMAIN_POOL[int(rng.integers(lo, hi))][0]
        urls.append(f"https://{domain}/story{int(rng.integers(1000)):03d}")
    opinion = _beta(rng, acct.opinion, spec.tweet_score_concentration)
    toxicity = _beta(rng, 0.15 if acct.is_bot else 0.25, 10.0)
    record = {
        "tweet_id": f"t-{acct.account_id}-{day}-{k:04d}",
        "author_id": acct.account_id,
        # what datetime.isoformat() writes for a whole second in UTC
        "timestamp": f"{day}T{seconds // 3600:02d}:{seconds // 60 % 60:02d}:"
                     f"{seconds % 60:02d}+00:00",
        "text": f"synthetic tweet {k} by {acct.account_id}",
        "retweeted_author_id": retweeted,
        "urls": urls,
        "opinion": round(opinion, 6),
        "toxicity": round(toxicity, 6),
    }
    return _JSON.encode(record)
