"""synth.generate, byte for byte, against deliberately naive scalar rosters and events.

The reference below draws one ``rng.random()`` per account pair, copies each
account's retweet candidates into a fresh list with its own id filtered out,
and formats every tweet through ``datetime + timedelta`` and ``json.dumps``.
It is patched into the module in place of the array rosters, the indexed
pools and the tweet formatter, so any change in which draws are made, in
their order, or in the bytes written shows up as a difference on the specs
below.  Nothing is pinned: numpy does not promise the same ``Generator``
streams across versions, so both sides are drawn on the numpy under test.
"""

from __future__ import annotations

import json
from datetime import date, datetime, timedelta, timezone

import pytest

from botimpact import synth
from botimpact.synth import SynthSpec, _Account, _beta, _description, _rng

# -- the reference rosters -------------------------------------------------------------
# each account gets a pool of its own, so the reference events never read own


def _ref_roster_two_block(spec):
    humans_b = spec.humans_block_b if spec.humans_block_b >= 0 else spec.humans_per_block
    bots_b = spec.bots_block_b if spec.bots_block_b >= 0 else spec.bots_per_block
    blocks = []
    for name, mean, humans, bots in (
        ("anti", spec.anti_mean, spec.humans_per_block, spec.bots_per_block),
        ("pro", spec.pro_mean, humans_b, bots_b),
    ):
        blocks.append((name, mean, ["human"] * humans + ["bot"] * bots))
    roster = []
    index = 0
    for name, mean, members in blocks:
        for kind in members:
            is_bot = kind == "bot"
            rng_o = _rng(spec.seed, "opinion", index)
            opinion = _beta(rng_o, mean if not is_bot else (0.04 if name == "anti" else 0.96),
                            spec.opinion_concentration)
            qanon_frac = spec.qanon_bot_frac if is_bot else spec.qanon_human_frac
            qanon = name == "pro" and rng_o.random() < qanon_frac
            roster.append(_Account(
                index=index, block=f"{name}_qanon" if qanon else name, is_bot=is_bot,
                opinion=opinion, description=_description(spec, index, name, qanon),
                following=[], retweet_pool=[], own=0,
            ))
            index += 1

    def side(account):
        return "anti" if account.block.startswith("anti") else "pro"

    by_side = {"anti": [], "pro": []}
    for acct in roster:
        by_side[side(acct)].append(acct)
    p_cross = min(spec.eps * spec.p_intra, 1.0)
    for acct in roster:
        rng_f = _rng(spec.seed, "follow", acct.index)
        following = []
        for other in roster:
            if other.index == acct.index:
                continue
            p = spec.p_intra if side(other) == side(acct) else p_cross
            if rng_f.random() < p:
                following.append(other.account_id)
        acct.following = following
        same = [a.account_id for a in by_side[side(acct)]
                if a.index != acct.index and not a.is_bot]
        other_side = "pro" if side(acct) == "anti" else "anti"
        cross = [a.account_id for a in by_side[other_side] if not a.is_bot]
        acct.retweet_pool = same + cross[: int(round(len(cross) * min(spec.eps, 1.0)))]
    return roster


def _ref_roster_core_periphery(spec):
    roster = []
    for index in range(spec.core_bots + spec.periphery_humans):
        core = index < spec.core_bots
        rng_o = _rng(spec.seed, "opinion", index)
        if core or spec.audience == "echo":
            opinion = _beta(rng_o, spec.core_opinion_mean, 4 * spec.opinion_concentration)
        else:
            opinion = _beta(rng_o, 0.5, 2.0)
        roster.append(_Account(
            index=index, block="core" if core else "periphery", is_bot=core, opinion=opinion,
            description=_description(spec, index, "pro", core), following=[],
            retweet_pool=[], own=0,
        ))
    core_ids = [a.account_id for a in roster[: spec.core_bots]]
    for acct in roster:
        rng_f = _rng(spec.seed, "follow", acct.index)
        if acct.block == "core":
            acct.following = [other for other in core_ids
                              if other != acct.account_id and rng_f.random() < spec.p_core]
            acct.retweet_pool = [c for c in core_ids if c != acct.account_id]
        else:
            k = min(spec.k_follow, len(core_ids))
            picks = rng_f.choice(len(core_ids), size=k, replace=False)
            acct.following = [core_ids[int(p)] for p in sorted(picks)]
            acct.retweet_pool = list(acct.following)
    return roster


def _ref_roster_planted_retweets(spec):
    total = spec.n_bots + spec.n_humans
    roster = []
    for index in range(total):
        is_bot = index < spec.n_bots
        rng_o = _rng(spec.seed, "opinion", index)
        roster.append(_Account(
            index=index, block="bot" if is_bot else "human", is_bot=is_bot,
            opinion=_beta(rng_o, 0.5, 4.0), description="synthetic account", following=[],
            retweet_pool=[], own=0,
        ))
    ids = [a.account_id for a in roster]
    humans = ids[spec.n_bots:]
    for acct in roster:
        rng_f = _rng(spec.seed, "follow", acct.index)
        k = min(spec.follow_out, total - 1)
        picks = rng_f.choice(total - 1, size=k, replace=False)
        pool = [i for i in range(total) if i != acct.index]
        acct.following = [ids[pool[int(p)]] for p in sorted(picks)]
        if acct.is_bot and humans:
            k_amp = min(spec.amplify_targets, len(humans))
            amp = rng_f.choice(len(humans), size=k_amp, replace=False)
            acct.retweet_pool = [humans[int(i)] for i in sorted(amp)]
    return roster


# -- the reference events and tweet lines ------------------------------------------------


def _ref_generic_day_events(spec, acct, rng):
    events = []
    rate = spec.bot_rate if acct.is_bot else spec.human_rate
    for _ in range(int(rng.poisson(rate))):
        if acct.retweet_pool and rng.random() < spec.retweet_frac:
            events.append(acct.retweet_pool[int(rng.integers(len(acct.retweet_pool)))])
        else:
            events.append(None)
    return events


def _ref_planted_day_events(spec, acct, rng, bots, humans):
    if acct.is_bot:
        rt_human, rt_bot = spec.bot_rt_human, spec.bot_rt_bot
        originals = rng.poisson(max(spec.bot_rate - rt_human - rt_bot, 0.0))
        human_pool = acct.retweet_pool or humans
    else:
        rt_human, rt_bot = spec.human_rt_human, spec.human_rt_bot
        originals = rng.poisson(max(spec.human_rate, 0.1))
        human_pool = humans
    events = [None] * int(originals)
    for pool, rate in ((human_pool, rt_human), (bots, rt_bot)):
        candidates = [p for p in pool if p != acct.account_id]
        if not candidates:
            continue
        for _ in range(int(rng.poisson(rate))):
            events.append(candidates[int(rng.integers(len(candidates)))])
    return events


def _ref_tweet_json(spec, acct, day, k, retweeted, rng):
    day = date.fromisoformat(day)
    seconds = int(rng.integers(86_400))
    ts = datetime(day.year, day.month, day.day, tzinfo=timezone.utc) + timedelta(seconds=seconds)
    urls = []
    if retweeted is None and rng.random() < spec.url_prob:
        lo, hi = (0, 5) if acct.is_bot else (4, 10)
        domain = synth._DOMAIN_POOL[int(rng.integers(lo, hi))][0]
        urls.append(f"https://{domain}/story{int(rng.integers(1000)):03d}")
    opinion = _beta(rng, acct.opinion, spec.tweet_score_concentration)
    toxicity = _beta(rng, 0.15 if acct.is_bot else 0.25, 10.0)
    record = {
        "tweet_id": f"t-{acct.account_id}-{day.isoformat()}-{k:04d}",
        "author_id": acct.account_id,
        "timestamp": ts.isoformat(),
        "text": f"synthetic tweet {k} by {acct.account_id}",
        "retweeted_author_id": retweeted,
        "urls": urls,
        "opinion": round(opinion, 6),
        "toxicity": round(toxicity, 6),
    }
    return json.dumps(record, sort_keys=True)


REFERENCE = {
    "_roster_two_block": _ref_roster_two_block,
    "_roster_core_periphery": _ref_roster_core_periphery,
    "_roster_planted_retweets": _ref_roster_planted_retweets,
    "_generic_day_events": _ref_generic_day_events,
    "_planted_day_events": _ref_planted_day_events,
    "_tweet_json": _ref_tweet_json,
}

TWO_BLOCK = dict(topology="two_block_polarized", days=3, bot_rate=6.0, retweet_frac=0.5)
CORE = dict(topology="core_periphery_qanon", days=3, bot_rate=6.0, retweet_frac=0.5)
PLANTED = dict(topology="planted_bot_retweet", days=2, bot_rate=12.0, bot_rt_human=4.0,
               human_rt_human=1.5, start_day=date(2019, 12, 30))

SPECS = {
    "unequal-blocks-qanon": dict(TWO_BLOCK, seed=1, humans_per_block=14, bots_per_block=3,
                                 humans_block_b=9, bots_block_b=0, qanon_bot_frac=0.5,
                                 qanon_human_frac=0.3, eps=0.4, p_intra=0.3),
    "eps-0": dict(TWO_BLOCK, seed=2, humans_per_block=10, bots_per_block=2, eps=0.0,
                  p_intra=0.4),
    "eps-1": dict(TWO_BLOCK, seed=3, humans_per_block=8, bots_per_block=3, humans_block_b=11,
                  bots_block_b=1, qanon_bot_frac=1.0, eps=1.0, p_intra=0.5),
    "eps-past-1": dict(TWO_BLOCK, seed=4, humans_per_block=6, bots_per_block=2, eps=2.5,
                       p_intra=0.6),
    "single-block": dict(TWO_BLOCK, seed=5, humans_per_block=9, bots_per_block=2,
                         humans_block_b=0, bots_block_b=0),
    "core-echo": dict(CORE, seed=6, core_bots=5, periphery_humans=20, k_follow=2, p_core=0.6),
    "core-mixed": dict(CORE, seed=7, core_bots=3, periphery_humans=15, k_follow=5,
                       audience="mixed"),
    "planted": dict(PLANTED, seed=8, n_bots=5, n_humans=30, follow_out=40, bot_rt_bot=1.0,
                    human_rt_bot=0.5),
    "planted-no-bots": dict(PLANTED, seed=9, n_bots=0, n_humans=20, follow_out=0),
    "planted-few-humans": dict(PLANTED, seed=10, n_bots=4, n_humans=2, amplify_targets=3,
                               follow_out=3, bot_rt_bot=1.5, human_rt_bot=1.0),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generate_matches_naive_reference(tmp_path, monkeypatch, name):
    spec = SynthSpec(**SPECS[name])
    summary = synth.generate(spec, tmp_path / "array")
    with monkeypatch.context() as patch:
        for attr, ref in REFERENCE.items():
            patch.setattr(synth, attr, ref)
        assert synth.generate(spec, tmp_path / "naive") == summary

    written = sorted(p.name for p in (tmp_path / "array").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "naive").iterdir())
    for file in written:
        assert ((tmp_path / "array" / file).read_bytes()
                == (tmp_path / "naive" / file).read_bytes()), file
    # every spec draws from the retweet pools
    assert summary["retweets"] > 0
