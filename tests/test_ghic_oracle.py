"""The ghic stage against the string-keyed route it replaced.

The reference below is how ``stage_ghic`` used to turn its input files into
the solver's arrays: a ``DirectedGraph`` of the follower network, the rates
from build's tweet counts and window, stubborn accounts as a dict of ids,
and groups and daily active accounts as sets of ids, with each day's
network an induced subgraph.
It solves each day's network with its own ``solve_network`` call, skips a
day that preprocessing leaves all stubborn, and scores each group with
``ghic.ghic``.  The stage works on account positions.
Both run on the same stage outputs, and every array, mask and ``GhicResult``
must agree bit for bit.

The corpora are small synth corpora of every topology, with their account
tables raw, with more bots and Qanon bots, and with some accounts then made
unscored, and one hand-written corpus.
That one has an account that is only retweeted (so it has no tweet and a
zero rate), an empty group, a
removal that leaves a follower without a rated following, a day on which no
non-stubborn account is left to average over once the network is
preprocessed, and a day on which only bots are active.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from datetime import date
from fractions import Fraction

import numpy as np
import pytest

import botimpact.ghic as ghic_module
from botimpact import pipeline
from botimpact.config import PipelineConfig
from botimpact.ghic import DailyGhicEntry, DailyGhicSeries, ghic
from botimpact.graph import DirectedGraph, load_columns
from botimpact.opinion import solve_network
from botimpact.pipeline import StageError, stage_build, stage_classify, stage_detect, stage_ghic
from botimpact.synth import SynthSpec, generate

from test_report_oracle import SPECS, _id_graph, _ref_groups

SEEDS = range(2)


# -- the reference -------------------------------------------------------------------


def _ref_identify_stubborn(opinions: dict, scored: set, bots: set) -> dict[str, float]:
    # every bot, and the scored accounts beyond the cuts over the scored opinions: the
    # (floor(n/10)+1)-th smallest and its mirror from the top, at exactly 10% and 90%
    s = sorted(opinions[a] for a in scored)
    n = len(s)
    if not n:
        return {a: opinions[a] for a in bots}
    low_cut = s[math.floor(Fraction(1, 10) * n)]
    high_cut = s[n - 1 - math.floor((1 - Fraction(9, 10)) * n)]
    return {a: o for a, o in opinions.items()
            if a in bots or (a in scored and (o < low_cut or o > high_cut))}


def _ref_network_arrays(graph: DirectedGraph, rates, stubborn, opinions):
    labels = graph.labels
    src, tgt, _ = graph.edge_arrays()
    lam = np.array([rates.get(a, 0.0) for a in labels], dtype=np.float64)
    fixed = np.array([a in stubborn for a in labels], dtype=bool)
    anchor = np.array([stubborn.get(a, opinions.get(a, 0.5)) for a in labels], dtype=np.float64)
    return src, tgt, lam, fixed, anchor


def _ref_mask(graph: DirectedGraph, accounts) -> np.ndarray:
    mask = np.zeros(graph.node_count, dtype=bool)
    mask[[graph.labels.index(a) for a in accounts if a in graph.labels]] = True
    return mask


def _read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _reference(out):
    """(follower graph, its arrays, active ids by day, groups, series) the old way."""
    accounts = json.loads((out / "accounts.json").read_text(encoding="utf-8"))
    follower = _id_graph(out / "follower.cols", accounts)
    duration = json.loads((out / "manifest.json").read_text())["build"]["window"]["duration_days"]
    with open(out / "account_content.jsonl", encoding="utf-8") as fh:
        counts = {row["account_id"]: row["tweet_count"] for row in map(json.loads, fh)}
    # as accounts.csv writes them, to ten significant digits
    rates = {a: float(f"{count / duration:.10g}") for a, count in counts.items()}
    rows = _read_rows(out / "accounts.csv")
    opinions = {r["account_id"]: float(r["opinion"]) for r in rows}
    scored = {r["account_id"] for r in rows if r["scored"] == "1"}
    bots = {r["account_id"] for r in rows if r["bot"] == "1"}
    stubborn = _ref_identify_stubborn(opinions, scored, bots)
    groups = _ref_groups(rows)
    active_by_day: dict[date, set[str]] = {}
    for row in _read_rows(out / "daily_active.csv"):
        active_by_day.setdefault(date.fromisoformat(row["day"]), set()).add(row["account_id"])

    entries, skipped = [], []
    for day in sorted(active_by_day):
        active = active_by_day[day] & set(follower.labels)
        subnet = follower.induced_subgraph(active)
        arrays = _ref_network_arrays(subnet, rates, stubborn, opinions)
        full = solve_network(*arrays)
        if full[1].all():
            skipped.append((day, "no non-stubborn active accounts"))
            continue
        results = {name: ghic(arrays, full, _ref_mask(subnet, groups[name] & active))
                   for name in sorted(groups)}
        entries.append(DailyGhicEntry(day, len(active), results))
    arrays = _ref_network_arrays(follower, rates, stubborn, opinions)
    return follower, arrays, active_by_day, groups, DailyGhicSeries(entries, skipped)


# -- the comparison --------------------------------------------------------------------


def _bits(series: DailyGhicSeries):
    return (
        [(e.day, e.active_nodes,
          {name: (r.target_count, r.value.hex(), r.averaged_over, r.reverted)
           for name, r in e.results.items()})
         for e in series.entries],
        series.skipped_days,
    )


def _same_array(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _compare(out, cfg, monkeypatch, seen: dict) -> None:
    """Run stage_ghic, capturing what it hands the solver, and check it against
    the reference."""
    captured = {}
    real = pipeline.daily_ghic_series

    def capture(arrays, active_by_day, groups):
        captured.update(arrays=arrays, active=active_by_day, groups=groups)
        captured["series"] = real(arrays, active_by_day, groups)
        return captured["series"]

    monkeypatch.setattr(pipeline, "daily_ghic_series", capture)
    stage_ghic(cfg)
    follower, arrays, active_by_day, groups, series = _reference(out)

    for got, want in zip(captured["arrays"], arrays, strict=True):
        assert _same_array(got, want)
    assert sorted(captured["active"]) == sorted(active_by_day)
    for day, ids in active_by_day.items():
        assert _same_array(captured["active"][day], _ref_mask(follower, ids)), day
    assert sorted(captured["groups"]) == sorted(groups)
    for name, ids in groups.items():
        assert _same_array(captured["groups"][name], _ref_mask(follower, ids)), name
    assert _bits(captured["series"]) == _bits(series)

    lam = arrays[2]
    seen["zero-rate account"] += int(np.count_nonzero(lam == 0.0))
    rows = _read_rows(out / "accounts.csv")
    unscored = [row["bot"] for row in rows if row["scored"] == "0"]
    seen["unscored bot"] += unscored.count("1")
    seen["unscored account left out of the cuts"] += len(unscored)
    seen["empty group"] += sum(1 for ids in groups.values() if not ids)
    results = [r for e in series.entries for r in e.results.values()]
    seen["removal"] += sum(1 for r in results if r.target_count)
    seen["reverted"] += sum(r.reverted for r in results)
    for day, _ in series.skipped_days:
        if arrays[3][captured["active"][day]].all():
            seen["only stubborn active"] += 1
        else:  # preprocessing made the rest stubborn
            seen["nobody left to average"] += 1


def _rewrite(out, stage: str, name: str, data: bytes) -> None:
    """Replace a stage output and re-record its checksum, as if the stage wrote it."""
    (out / name).write_bytes(data)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest[stage]["checksums"][name] = hashlib.sha256(data).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def _rewrite_accounts(out, edit) -> None:
    """Apply ``edit`` to each row of accounts.csv."""
    rows = _read_rows(out / "accounts.csv")
    text = io.StringIO(newline="")
    writer = csv.DictWriter(text, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(edit(dict(row)) for row in rows)
    _rewrite(out, "classify", "accounts.csv", text.getvalue().encode("utf-8"))


def _more_bots(seed: int):
    rng = random.Random(seed)

    def edit(row: dict) -> dict:
        if rng.random() < 0.3:
            row["bot"] = "1"
        if row["bot"] == "1" and row["partisanship"] == "pro" and rng.random() < 0.3:
            row["qanon"] = "1"
        return row

    return edit


def _unscore(seed: int):
    """Make some accounts unscored, as classify writes an account without a
    scored tweet: opinion 0.5, so anti, and not Qanon."""
    rng = random.Random(seed)

    def edit(row: dict) -> dict:
        if rng.random() < 0.2:
            row.update(opinion="0.5", partisanship="anti", qanon="0", scored="0")
        return row

    return edit


def _config(corpus, out) -> PipelineConfig:
    return PipelineConfig(tweets=str(corpus / "tweets.jsonl"),
                          profiles=str(corpus / "profiles.jsonl"),
                          ratings=str(corpus / "ratings.csv"), out_dir=str(out))


def _classified_synth(tmp_path, topology: str, seed: int):
    corpus, out = tmp_path / f"{topology}-{seed}", tmp_path / f"{topology}-{seed}-out"
    generate(SynthSpec(seed=seed, topology=topology, **SPECS[topology]), corpus)
    cfg = _config(corpus, out)
    for stage in (stage_build, stage_detect, stage_classify):
        stage(cfg)
    return out, cfg


# opinion, description, follows, days on which it tweets, retweets (day, author)
_HAND = {
    "anti": (0.1, "", [], [1, 2, 3], []),
    "pro": (0.9, "", [], [1, 2, 4], []),
    "late": (0.95, "", [], [1], []),
    "h1": (0.5, "", ["anti", "pro", "silent"], [1, 2], [(1, "silent")]),
    "h2": (0.6, "", ["pro", "silent"], [1, 2], []),
    "h3": (0.4, "", ["h1"], [3], []),
    "silent": (None, "", ["h1"], [], []),  # only ever retweeted
}
_HAND_BOTS = {"anti", "pro", "late"}  # no Qanon bot


def _hand_written(tmp_path):
    corpus, out = tmp_path / "hand", tmp_path / "hand-out"
    corpus.mkdir()
    tweets, profiles = [], []
    for account, (opinion, description, follows, days, retweets) in _HAND.items():
        profiles.append({"account_id": account, "description": description,
                         "following_ids": follows})
        for day in days:
            tweets.append({"tweet_id": f"{account}-{day}", "author_id": account,
                           "timestamp": f"2020-01-0{day}T12:00:00Z", "opinion": opinion})
        for day, author in retweets:
            tweets.append({"tweet_id": f"{account}-rt-{day}", "author_id": account,
                           "retweeted_author_id": author,
                           "timestamp": f"2020-01-0{day}T13:00:00Z"})
    for name, lines in (("tweets.jsonl", tweets), ("profiles.jsonl", profiles)):
        (corpus / name).write_text("".join(json.dumps(x) + "\n" for x in lines))
    cfg = _config(corpus, out)
    for stage in (stage_build, stage_detect, stage_classify):
        stage(cfg)

    def bots_by_hand(row: dict) -> dict:
        row["bot"] = str(int(row["account_id"] in _HAND_BOTS))
        return row

    _rewrite_accounts(out, bots_by_hand)
    return out, cfg


def test_ghic_stage_matches_the_string_keyed_reference(tmp_path, monkeypatch):
    hand_cases = ("zero-rate account", "empty group", "removal", "reverted",
                  "nobody left to average", "only stubborn active",
                  "unscored account left out of the cuts")
    seen = dict.fromkeys(hand_cases + ("unscored bot",), 0)
    for topology in SPECS:
        for seed in SEEDS:
            out, cfg = _classified_synth(tmp_path, topology, seed)
            _compare(out, cfg, monkeypatch, seen)
            _rewrite_accounts(out, _more_bots(seed))
            _compare(out, cfg, monkeypatch, seen)
            _rewrite_accounts(out, _unscore(seed))
            _compare(out, cfg, monkeypatch, seen)

    out, cfg = _hand_written(tmp_path)
    hand_seen = dict.fromkeys(seen, 0)
    _compare(out, cfg, monkeypatch, hand_seen)
    assert all(hand_seen[case] for case in hand_cases), hand_seen
    assert all(seen[case] for case in ("removal", "reverted", "unscored bot",
                                       "unscored account left out of the cuts")), seen


def test_ghic_counts_every_active_day_once(tmp_path):
    """The manifest's day counts agree with the series rows and the active days."""
    out, cfg = _hand_written(tmp_path)
    payload = stage_ghic(cfg)
    rows = _read_rows(out / "ghic_series.csv")
    days = {row["day"] for row in rows}
    active_days = {row["day"] for row in _read_rows(out / "daily_active.csv")}
    assert payload["days_computed"] == len(days)
    assert payload["days_computed"] + payload["days_skipped"] == len(active_days)
    assert sorted((row["day"], row["group"]) for row in rows) == sorted(
        (day, group) for day in days for group in payload["groups"])
    assert (payload["days_computed"], payload["days_skipped"]) == (2, 2)


def test_ghic_stage_scores_each_day_and_group_with_one_ghic_call(tmp_path, monkeypatch):
    returned, captured = [], {}
    real_ghic, real_series = ghic_module.ghic, pipeline.daily_ghic_series

    def counting(network, full, targets):
        returned.append(real_ghic(network, full, targets))
        return returned[-1]

    def capture(*args):
        captured["series"] = real_series(*args)
        return captured["series"]

    monkeypatch.setattr(ghic_module, "ghic", counting)
    monkeypatch.setattr(pipeline, "daily_ghic_series", capture)
    out, cfg = _classified_synth(tmp_path, "two_block_polarized", 0)
    payload = stage_ghic(cfg)
    entries = captured["series"].entries
    assert payload["days_computed"] == len(entries) > 0
    assert len(returned) == len(entries) * len(payload["groups"])
    assert sum(r.reverted for r in returned) == sum(
        r.reverted for e in entries for r in e.results.values())


def test_ghic_refuses_build_files_off_the_account_list(tmp_path):
    out, cfg = _hand_written(tmp_path)
    active = (out / "daily_active.csv").read_bytes()
    _rewrite(out, "build", "daily_active.csv", active + b"2020-01-01,intruder\r\n")
    with pytest.raises(StageError, match="'intruder'.*rerun build"):
        stage_ghic(cfg)
    _rewrite(out, "build", "daily_active.csv", active)
    stage_ghic(cfg)

    accounts = json.loads((out / "accounts.json").read_text(encoding="utf-8"))
    nodes, src, tgt, w = load_columns(out / "follower.cols", accounts)
    reordered = io.BytesIO()
    for column in (nodes[::-1].copy(), src, tgt, w):  # a valid file, in another order
        np.save(reordered, column)
    _rewrite(out, "build", "follower.cols", reordered.getvalue())
    with pytest.raises(StageError, match="rerun build"):
        stage_ghic(cfg)
