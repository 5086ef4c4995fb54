import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botimpact.botdetect import (
    FactorGraphParams,
    exhaustive_oracle,
    infer_bot_probabilities,
    probability_histogram,
)
from botimpact.config import ConfigError, PipelineConfig
from botimpact.graph import DirectedGraph
from botimpact.pipeline import stage_build, stage_detect

from conftest import graph_of

DEFAULTS = FactorGraphParams()


def _named(g: DirectedGraph, values: np.ndarray) -> dict[str, float]:
    """{label: value} of a per-node array in the graph's node order."""
    return dict(zip(g.labels, values.tolist()))


def _random_forest(seed: int, max_nodes: int = 12) -> DirectedGraph:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    g = DirectedGraph()
    g.add_node("n0")
    for i in range(1, n):
        if rng.random() < 0.15:
            g.add_node(f"n{i}")  # start a new component
            continue
        parent = int(rng.integers(0, i))
        w = float(rng.integers(1, 6))
        u, v = f"n{parent}", f"n{i}"
        if rng.random() < 0.5:
            u, v = v, u
        g.add_interaction(u, v, w)
        if rng.random() < 0.3:
            # a reciprocal retweet merges into the same factor: still a forest
            g.add_interaction(v, u, float(rng.integers(1, 6)))
    return g


def test_defaults_encode_retweet_behavior_ordering():
    assert DEFAULTS.psi_hb > DEFAULTS.psi_bb  # bots retweet humans, not bots
    assert DEFAULTS.psi_hh > DEFAULTS.psi_bh  # humans favor humans


def test_param_validation():
    with pytest.raises(ValueError):
        FactorGraphParams(prior_bot=0.0)
    with pytest.raises(ValueError):
        FactorGraphParams(psi_hh=-1.0)
    with pytest.raises(ValueError):
        FactorGraphParams(damping=1.0)


def test_isolated_nodes_get_prior():
    g = DirectedGraph()
    for name in ("a", "b", "c"):
        g.add_node(name)
    post = infer_bot_probabilities(g, DEFAULTS)
    assert post.converged
    assert post.marginals.tolist() == [0.5, 0.5, 0.5]


def test_single_node_oracle_is_prior():
    g = DirectedGraph()
    g.add_node("a")
    assert exhaustive_oracle(g, DEFAULTS).tolist() == [0.5]


def test_two_node_closed_form():
    # v retweets u once; with the default table the joint weights are
    # HH=2, HB=2, BH=1, BB=0.5 on a uniform prior
    g = graph_of([("u", "v", 1.0)])
    expected_u = 1.5 / 5.5
    expected_v = 2.5 / 5.5
    post = _named(g, infer_bot_probabilities(g, DEFAULTS).marginals)
    assert post["u"] == pytest.approx(expected_u, abs=1e-12)
    assert post["v"] == pytest.approx(expected_v, abs=1e-12)
    exact = _named(g, exhaustive_oracle(g, DEFAULTS))
    assert exact["u"] == pytest.approx(expected_u, abs=1e-12)
    assert exact["v"] == pytest.approx(expected_v, abs=1e-12)


def test_three_node_path_matches_hand_sum():
    # a -> b (weight 1), b -> c (weight 2): 8 explicit joint terms
    g = graph_of([("a", "b", 1.0), ("b", "c", 2.0)])
    psi = {(0, 0): 2.0, (0, 1): 2.0, (1, 0): 1.0, (1, 1): 0.5}
    weights = {}
    for xa, xb, xc in itertools.product((0, 1), repeat=3):
        weights[(xa, xb, xc)] = 0.5**3 * psi[(xa, xb)] * psi[(xb, xc)] ** 2
    z = sum(weights.values())
    expected_b = sum(w for (xa, xb, xc), w in weights.items() if xb == 1) / z
    exact = _named(g, exhaustive_oracle(g, DEFAULTS))
    post = _named(g, infer_bot_probabilities(g, DEFAULTS).marginals)
    assert exact["b"] == pytest.approx(expected_b, abs=1e-12)
    assert post["b"] == pytest.approx(expected_b, abs=1e-9)


def test_weight_cap_saturates():
    capped = infer_bot_probabilities(graph_of([("u", "v", 5.0)]), DEFAULTS)
    heavier = infer_bot_probabilities(graph_of([("u", "v", 3000.0)]), DEFAULTS)
    assert heavier.marginals.tolist() == capped.marginals.tolist()


def test_bp_exact_on_random_forests():
    for seed in range(50):
        g = _random_forest(seed)
        post = infer_bot_probabilities(g, DEFAULTS)
        exact = exhaustive_oracle(g, DEFAULTS)
        assert post.converged
        assert post.marginals == pytest.approx(exact, abs=1e-9)


def test_mutual_retweet_pair_merges_factors():
    g = graph_of([("a", "b", 2.0), ("b", "a", 1.0)])
    post = infer_bot_probabilities(g, DEFAULTS)
    assert post.marginals == pytest.approx(exhaustive_oracle(g, DEFAULTS), abs=1e-9)


def test_loopy_close_to_enumeration():
    g = graph_of(
        [("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", 1.0), ("c", "d", 3.0), ("d", "a", 1.0)]
    )
    post = infer_bot_probabilities(g, DEFAULTS)
    assert post.marginals == pytest.approx(exhaustive_oracle(g, DEFAULTS), abs=0.02)


def test_label_symmetry_gives_exact_half():
    params = FactorGraphParams(psi_hh=1.7, psi_hb=0.6, psi_bh=0.6, psi_bb=1.7)
    g = graph_of([("a", "b", 2.0), ("b", "c", 1.0), ("c", "a", 4.0)])
    post = infer_bot_probabilities(g, params)
    assert post.marginals.tolist() == [0.5, 0.5, 0.5]  # exact, not approximate


def test_symmetric_two_cycle_equal_marginals():
    params = FactorGraphParams(psi_hh=2.0, psi_hb=1.0, psi_bh=1.0, psi_bb=0.5)
    g = graph_of([("a", "b", 1.0), ("b", "a", 1.0)])
    exact_a, exact_b = exhaustive_oracle(g, params)
    assert exact_a == pytest.approx(exact_b, abs=1e-12)


def test_exhaustive_oracle_node_cap():
    g = DirectedGraph()
    for i in range(21):
        g.add_node(f"n{i}")
    with pytest.raises(ValueError):
        exhaustive_oracle(g, DEFAULTS)


def test_monotone_evidence_two_node_closed_form():
    """Closed-form behavior of the default table as the edge weight grows.

    Evidence that the retweeted account is human increases monotonically
    with the retweet count, while the retweeter never looks more human than
    the prior... the retweeter's human mass stays at or above the prior but
    is not monotone in the weight (it peaks at weight 1 and relaxes toward
    the prior).
    """

    def closed_form(w: float):
        hh = DEFAULTS.psi_hh**w
        hb = DEFAULTS.psi_hb**w
        bh = DEFAULTS.psi_bh**w
        bb = DEFAULTS.psi_bb**w
        z = hh + hb + bh + bb
        return (hh + hb) / z, (hh + bh) / z  # (P(u=H), P(v=H))

    source_human = []
    retweeter_human = []
    for w in range(1, 6):
        p_u, p_v = closed_form(w)
        source_human.append(p_u)
        retweeter_human.append(p_v)
        bot_u, bot_v = infer_bot_probabilities(graph_of([("u", "v", float(w))]), DEFAULTS).marginals
        assert 1.0 - bot_u == pytest.approx(p_u, abs=1e-10)
        assert 1.0 - bot_v == pytest.approx(p_v, abs=1e-10)
    assert all(b > a for a, b in zip(source_human, source_human[1:]))
    assert all(p >= 0.5 for p in retweeter_human)


# -- threshold and union, as stage_detect applies them ---------------------------------

# Two days of (author, retweeted author or None).  An account in a retweet on one
# day tweets an original on the other, so it is on both days' networks.
TWO_DAYS = {
    "2020-01-01": [("a", "b"), ("c", None)],
    "2020-01-02": [("c", "d"), ("a", None), ("b", None)],
}


def _detect(tmp_path, days, **settings) -> tuple[dict[str, dict[str, float]], list[str]]:
    """Build and detect on a hand-written corpus: ({day: {id: p}}, bots.txt lines)."""
    lines = [
        json.dumps(dict(tweet_id=f"{day}-{k}", author_id=author, retweeted_author_id=rt,
                        timestamp=f"{day}T12:00:00+00:00"))
        for day, tweets in days.items()
        for k, (author, rt) in enumerate(tweets)
    ]
    (tmp_path / "tweets.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "profiles.jsonl").write_text("", encoding="utf-8")
    cfg = PipelineConfig(tweets=str(tmp_path / "tweets.jsonl"),
                         profiles=str(tmp_path / "profiles.jsonl"),
                         out_dir=str(tmp_path / "out"), **settings)
    cfg.validate()
    stage_build(cfg)
    stage_detect(cfg)
    out = tmp_path / "out"
    posteriors = {}
    for day in days:
        rows = (out / f"posterior_{day}.csv").read_text(encoding="utf-8").split()[1:]
        posteriors[day] = {a: float(p) for a, p, _ in (row.split(",") for row in rows)}
    return posteriors, (out / "bots.txt").read_text(encoding="utf-8").split()


def test_threshold_is_strict(tmp_path):
    # with the prior on the cut, an account with no retweet that day sits exactly on it
    posteriors, bots = _detect(tmp_path, TWO_DAYS, bp_prior_bot=0.8, bot_threshold=0.8)
    assert posteriors["2020-01-01"]["c"] == 0.8
    assert posteriors["2020-01-02"]["a"] == posteriors["2020-01-02"]["b"] == 0.8
    assert all(p <= 0.8 for day in posteriors.values() for p in day.values())
    assert bots == []
    # just below the cut the same marginals are flagged, and lower ones are not
    posteriors, bots = _detect(tmp_path, TWO_DAYS, bp_prior_bot=0.8, bot_threshold=0.79)
    assert posteriors["2020-01-02"]["d"] < 0.79
    assert bots == ["a", "b", "c"]


def test_threshold_range_validated():
    for value in (0.5, 0.3, 1.01):
        with pytest.raises(ConfigError, match="bot_threshold"):
            PipelineConfig(bot_threshold=value).validate()
    PipelineConfig(bot_threshold=1.0).validate()


def test_threshold_all_prior_empty(tmp_path):
    originals = {"2020-01-01": [(f"u{i}", None) for i in range(5)]}
    posteriors, bots = _detect(tmp_path, originals)
    assert posteriors == {"2020-01-01": {f"u{i}": 0.5 for i in range(5)}}
    assert bots == []


def test_union_daily_bots(tmp_path):
    posteriors, bots = _detect(tmp_path, TWO_DAYS, bp_prior_bot=0.8, bot_threshold=0.79)
    daily = [{a for a, p in day.items() if p > 0.79} for day in posteriors.values()]
    assert daily == [{"c"}, {"a", "b"}]
    # each is flagged on one day and present, unflagged, on the other
    assert posteriors["2020-01-01"].keys() >= {"a", "b"}
    assert posteriors["2020-01-02"]["c"] < 0.79
    assert bots == sorted(daily[0] | daily[1])


def test_histogram_single_bin():
    counts, edges = probability_histogram([0.5] * 7, bins=20)
    assert sum(counts) == 7
    assert counts[10] == 7
    assert len(edges) == 21


def test_histogram_boundary_one():
    counts, _ = probability_histogram([1.0, 0.0], bins=20)
    assert counts[19] == 1 and counts[0] == 1


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64), st.integers(2, 40))
@settings(max_examples=100)
def test_histogram_conservation(values, bins):
    counts, edges = probability_histogram(values, bins=bins)
    assert sum(counts) == len(values)
    assert len(counts) == bins and len(edges) == bins + 1
