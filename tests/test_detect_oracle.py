"""stage_detect, byte for byte, against the id-keyed route it replaced.

The reference below is how detect-bots used to turn a day file into its
outputs: a ``DirectedGraph`` labelled by account ids, an ``{id: p}`` dict of
marginals, posterior rows from the dict's sorted items, one id set per day
above the threshold, their union, and a histogram counted in a Python loop.
The stage works on account positions instead.  Both run on the build outputs
of small synth corpora of every topology, perturbed so that one day has no
retweet (every marginal on it is the prior), under settings that put the
prior exactly on the threshold and cap belief propagation before it
converges.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import replace

from botimpact.botdetect import infer_bot_probabilities
from botimpact.config import PipelineConfig
from botimpact.graph import load_columns
from botimpact.pipeline import stage_build, stage_detect
from botimpact.synth import SynthSpec, generate

from conftest import network_graph

SPECS = {
    "two_block_polarized": dict(days=3, humans_per_block=12, bots_per_block=3,
                                qanon_bot_frac=0.5, human_rate=1.0, bot_rate=8.0),
    "planted_bot_retweet": dict(days=3, n_bots=6, n_humans=40, bot_rate=6.0,
                                bot_rt_human=4.0, human_rt_human=2.0, follow_out=4),
    "core_periphery_qanon": dict(days=3, core_bots=4, periphery_humans=30),
}
SEEDS = range(3)
# (config settings, belief propagation's sweep cap; None keeps its default)
SETTINGS = [
    (dict(bp_psi_hh=1.5, bot_threshold=0.6), None),  # README potentials
    (dict(bp_prior_bot=0.8, bot_threshold=0.8), None),  # the prior on the cut
    (dict(bp_psi_hh=1.5, bot_threshold=0.6), 3),  # unconverged loopy days
]


# -- the reference -------------------------------------------------------------------


def _fmt(x):
    return f"{x:.10g}"


def _csv(header, rows, **fmt) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, **fmt)
    if header:
        writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _id_marginals(graph, posterior) -> dict[str, float]:
    """{id: p} over the graph's labels (older releases returned this dict)."""
    marginals = posterior.marginals
    if isinstance(marginals, dict):
        return marginals
    return dict(zip(graph.labels, marginals.tolist()))


def _reference(out, cfg: PipelineConfig, seen) -> dict[str, bytes]:
    accounts = json.loads((out / "accounts.json").read_text(encoding="utf-8"))
    build = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["build"]
    days = sorted(name for name in build["checksums"] if name.startswith("retweet_"))
    files, daily_sets, daily_nodes, pooled, unconverged = {}, [], [], [], 0
    for name in days:
        graph = network_graph(load_columns(out / name, accounts), accounts)
        posterior = infer_bot_probabilities(graph, cfg.bp_params())
        marginals = _id_marginals(graph, posterior)
        day = name.removeprefix("retweet_").removesuffix(".cols")
        files[f"posterior_{day}.csv"] = _csv(
            ["account_id", "bot_probability", "converged"],
            [(a, _fmt(p), str(posterior.converged).lower())
             for a, p in sorted(marginals.items())])
        daily_sets.append({a for a, p in marginals.items() if p > cfg.bot_threshold})
        daily_nodes.append(set(marginals))
        pooled.extend(marginals.values())
        unconverged += not posterior.converged
        seen["day with no retweet"] += graph.edge_count == 0 and graph.node_count > 0
        seen["marginal on the cut"] += any(p == cfg.bot_threshold for p in marginals.values())
        seen["unconverged day"] += not posterior.converged

    bots = set()
    for flagged in daily_sets:
        bots |= flagged
    for account in bots:  # and present, not flagged, on another day
        seen["bot flagged on one day only"] += (
            sum(account in s for s in daily_sets) == 1 < sum(account in s for s in daily_nodes))
    files["bots.txt"] = _csv((), ([b] for b in sorted(bots)), lineterminator="\n")

    bins = 20
    counts = [0] * bins
    for p in pooled:
        counts[min(int(p * bins), bins - 1)] += 1
    edges = [i / bins for i in range(bins + 1)]
    files["histogram.csv"] = _csv(["bin_low", "bin_high", "count"],
                                  [(_fmt(edges[i]), _fmt(edges[i + 1]), counts[i])
                                   for i in range(bins)])

    entry = {"days": len(days), "bots": len(bots), "unconverged_days": unconverged,
             "checksums": {n: hashlib.sha256(b).hexdigest() for n, b in sorted(files.items())}}
    files["manifest detect entry"] = json.dumps(entry, indent=2, sort_keys=True).encode()
    return files


# -- the comparison --------------------------------------------------------------------


def _strip_first_day_retweets(corpus) -> None:
    """Make every tweet of the corpus's first day an original."""
    tweets = [json.loads(line) for line in
              (corpus / "tweets.jsonl").read_text(encoding="utf-8").splitlines()]
    first = min(t["timestamp"][:10] for t in tweets)
    for tweet in tweets:
        if tweet["timestamp"].startswith(first):
            tweet["retweeted_author_id"] = None
    (corpus / "tweets.jsonl").write_text(
        "".join(json.dumps(t) + "\n" for t in tweets), encoding="utf-8")


def test_detect_matches_the_id_keyed_reference(tmp_path, monkeypatch):
    seen = dict.fromkeys(("day with no retweet", "marginal on the cut", "unconverged day",
                          "bot flagged on one day only"), 0)
    bp_params = PipelineConfig.bp_params
    for topology in SPECS:
        for seed in SEEDS:
            corpus, out = tmp_path / f"{topology}-{seed}", tmp_path / f"{topology}-{seed}-out"
            generate(SynthSpec(seed=seed, topology=topology, **SPECS[topology]), corpus)
            _strip_first_day_retweets(corpus)
            paths = dict(tweets=str(corpus / "tweets.jsonl"),
                         profiles=str(corpus / "profiles.jsonl"), out_dir=str(out))
            stage_build(PipelineConfig(**paths))
            for settings, max_iterations in SETTINGS:
                cfg = PipelineConfig(**paths, **settings)
                with monkeypatch.context() as patch:
                    if max_iterations is not None:  # the stage and the reference both capped
                        patch.setattr(PipelineConfig, "bp_params", lambda self: replace(
                            bp_params(self), max_iterations=max_iterations))
                    stage_detect(cfg)
                    expected = _reference(out, cfg, seen)
                entry = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["detect"]
                actual = {name: (out / name).read_bytes() for name in entry["checksums"]}
                actual["manifest detect entry"] = json.dumps(
                    entry, indent=2, sort_keys=True).encode()
                assert actual.keys() == expected.keys(), (topology, seed, settings)
                for name in expected:
                    assert actual[name] == expected[name], (topology, seed, settings, name)
    assert all(seen.values()), seen
