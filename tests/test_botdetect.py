import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botimpact.botdetect import (
    BotPosterior,
    FactorGraphParams,
    exhaustive_oracle,
    infer_bot_probabilities,
    probability_histogram,
    threshold_bots,
    union_daily_bots,
)
from botimpact.graph import DirectedGraph

from conftest import graph_of

DEFAULTS = FactorGraphParams()


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
    assert all(p == 0.5 for p in post.marginals.values())


def test_single_node_oracle_is_prior():
    g = DirectedGraph()
    g.add_node("a")
    assert exhaustive_oracle(g, DEFAULTS) == {"a": 0.5}


def test_two_node_closed_form():
    # v retweets u once; with the default table the joint weights are
    # HH=2, HB=2, BH=1, BB=0.5 on a uniform prior
    g = graph_of([("u", "v", 1.0)])
    expected_u = 1.5 / 5.5
    expected_v = 2.5 / 5.5
    post = infer_bot_probabilities(g, DEFAULTS)
    assert post.marginals["u"] == pytest.approx(expected_u, abs=1e-12)
    assert post.marginals["v"] == pytest.approx(expected_v, abs=1e-12)
    exact = exhaustive_oracle(g, DEFAULTS)
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
    exact = exhaustive_oracle(g, DEFAULTS)
    post = infer_bot_probabilities(g, DEFAULTS)
    assert exact["b"] == pytest.approx(expected_b, abs=1e-12)
    assert post.marginals["b"] == pytest.approx(expected_b, abs=1e-9)


def test_weight_cap_saturates():
    capped = infer_bot_probabilities(graph_of([("u", "v", 5.0)]), DEFAULTS)
    heavier = infer_bot_probabilities(graph_of([("u", "v", 3000.0)]), DEFAULTS)
    assert heavier.marginals == capped.marginals


def test_bp_exact_on_random_forests():
    for seed in range(50):
        g = _random_forest(seed)
        post = infer_bot_probabilities(g, DEFAULTS)
        exact = exhaustive_oracle(g, DEFAULTS)
        assert post.converged
        for name, value in exact.items():
            assert post.marginals[name] == pytest.approx(value, abs=1e-9)


def test_mutual_retweet_pair_merges_factors():
    g = graph_of([("a", "b", 2.0), ("b", "a", 1.0)])
    post = infer_bot_probabilities(g, DEFAULTS)
    exact = exhaustive_oracle(g, DEFAULTS)
    for name, value in exact.items():
        assert post.marginals[name] == pytest.approx(value, abs=1e-9)


def test_loopy_close_to_enumeration():
    g = graph_of(
        [("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", 1.0), ("c", "d", 3.0), ("d", "a", 1.0)]
    )
    post = infer_bot_probabilities(g, DEFAULTS)
    exact = exhaustive_oracle(g, DEFAULTS)
    for name, value in exact.items():
        assert post.marginals[name] == pytest.approx(value, abs=0.02)


def test_label_symmetry_gives_exact_half():
    params = FactorGraphParams(psi_hh=1.7, psi_hb=0.6, psi_bh=0.6, psi_bb=1.7)
    g = graph_of([("a", "b", 2.0), ("b", "c", 1.0), ("c", "a", 4.0)])
    post = infer_bot_probabilities(g, params)
    for value in post.marginals.values():
        assert value == 0.5  # exact, not approximate


def test_symmetric_two_cycle_equal_marginals():
    params = FactorGraphParams(psi_hh=2.0, psi_hb=1.0, psi_bh=1.0, psi_bb=0.5)
    g = graph_of([("a", "b", 1.0), ("b", "a", 1.0)])
    exact = exhaustive_oracle(g, params)
    assert exact["a"] == pytest.approx(exact["b"], abs=1e-12)


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
        post = infer_bot_probabilities(graph_of([("u", "v", float(w))]), DEFAULTS)
        assert 1.0 - post.marginals["u"] == pytest.approx(p_u, abs=1e-10)
        assert 1.0 - post.marginals["v"] == pytest.approx(p_v, abs=1e-10)
    assert all(b > a for a, b in zip(source_human, source_human[1:]))
    assert all(p >= 0.5 for p in retweeter_human)


def test_threshold_is_strict():
    post = BotPosterior(
        marginals={"edge": 0.8, "bot": 0.95, "low": 0.79}, converged=True,
        residual=0.0, iterations=1,
    )
    assert threshold_bots(post, 0.8) == {"bot"}


def test_threshold_range_validated():
    post = BotPosterior(marginals={}, converged=True, residual=0.0, iterations=0)
    with pytest.raises(ValueError):
        threshold_bots(post, 0.5)


def test_threshold_all_prior_empty():
    post = BotPosterior(
        marginals={f"u{i}": 0.5 for i in range(5)}, converged=True,
        residual=0.0, iterations=0,
    )
    assert threshold_bots(post) == set()


def test_union_daily_bots():
    assert union_daily_bots([{"a"}, set(), {"a", "b"}]) == {"a", "b"}
    assert union_daily_bots([]) == set()


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
