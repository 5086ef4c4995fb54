import itertools
import json

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import expit, logsumexp

from botimpact.botdetect import (
    FactorGraphParams,
    _logaddexp,
    _merged_pairs,
    infer_bot_probabilities,
    probability_histogram,
)
from botimpact.config import ConfigError, PipelineConfig
from botimpact.graph import DirectedGraph
from botimpact.pipeline import stage_build, stage_detect

from conftest import graph_of
from oracles import exhaustive_oracle

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


# -- the sweep kernel against an edge-array reference, bit for bit --------------------

_LOG2 = np.log(2.0)


def _reference_logaddexp(a, b):
    mx = np.maximum(a, b)
    out = np.log1p(np.exp(np.minimum(a, b) - mx))
    out[a == b] = _LOG2
    out += mx
    return out


def _reference_gather(index, n, prior, values):
    weights = np.empty(n + len(values))
    weights[:n] = prior
    weights[n:] = values
    return np.bincount(index, weights=weights, minlength=n)


def _reference_bp(graph, params):
    """Reference sweep with fresh arrays each step: one array per label, a
    reverse permutation, and a log-add-exp that masks ties.  The kernel must
    give its marginals, sweep count, convergence flag and residual bit for bit."""
    n = graph.node_count
    a, b, logm = _merged_pairs(graph, params)
    prior = params.log_prior()
    p = len(a)
    if p == 0:
        return np.full(n, params.prior_bot), True, 0.0, 0
    msg_src = np.concatenate([a, b])
    msg_dst = np.concatenate([b, a])
    index = np.concatenate([np.arange(n), msg_dst])
    pot = [[np.concatenate([logm[xs][xd], logm[xd][xs]]) for xd in (0, 1)] for xs in (0, 1)]
    reverse = np.concatenate([np.arange(p, 2 * p), np.arange(0, p)])
    msg = np.zeros((2, 2 * p))
    exp_msg = np.ones((2, 2 * p))
    n_components, _ = connected_components(
        coo_matrix((np.ones(p), (a, b)), shape=(n, n)), directed=False
    )
    forest = p == n - n_components
    damping = 0.0 if forest else params.damping
    max_iters = 2 * n + 4 if forest else params.max_iterations
    tol = 1e-15 if forest else params.tolerance
    converged = False
    residual = np.inf
    iterations = 0
    for iteration in range(1, max_iters + 1):
        excl = [
            _reference_gather(index, n, prior[x], msg[x])[msg_src] - msg[x][reverse]
            for x in (0, 1)
        ]
        new = np.array(
            [_reference_logaddexp(excl[0] + pot[0][xd], excl[1] + pot[1][xd]) for xd in (0, 1)]
        )
        new -= _reference_logaddexp(new[0], new[1])
        if damping > 0.0:
            new = damping * msg + (1.0 - damping) * new
            new -= _reference_logaddexp(new[0], new[1])
        exp_new = np.exp(new)
        residual = float(np.max(np.abs(exp_new - exp_msg)))
        msg, exp_msg = new, exp_new
        iterations = iteration
        if residual <= tol:
            converged = True
            break
    belief = [_reference_gather(index, n, prior[x], msg[x]) for x in (0, 1)]
    prob_b = expit(belief[1] - belief[0])
    prob_b[np.bincount(msg_dst, minlength=n) == 0] = params.prior_bot
    return prob_b, converged, residual, iterations


def _random_bp_case(seed: int) -> tuple[DirectedGraph, FactorGraphParams]:
    """A seeded network and parameter set: every third one a forest, the rest
    loopy; parallel and mutual retweets, isolated nodes, weights past the cap,
    random potentials and prior, damping 0, 0.3, 0.5 and 0.9, and some runs cut
    at 3 sweeps."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    g = DirectedGraph()
    for i in range(n):
        g.add_node(f"n{i}")

    def retweet(u: int, v: int) -> None:
        if rng.random() < 0.5:
            u, v = v, u
        g.add_interaction(f"n{u}", f"n{v}", float(rng.integers(1, 9)))
        if rng.random() < 0.2:
            g.add_interaction(f"n{u}", f"n{v}", float(rng.random() + 0.1))  # parallel
        if rng.random() < 0.3:
            g.add_interaction(f"n{v}", f"n{u}", float(rng.integers(1, 4)))  # mutual

    if seed % 3 == 0:
        for i in range(1, n):
            if rng.random() < 0.85:
                retweet(int(rng.integers(0, i)), i)
    else:
        for _ in range(int(rng.integers(n, 3 * n + 1))):
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            retweet(u, v)
    psi = np.exp(rng.normal(0.0, 0.8, size=4))
    params = FactorGraphParams(
        prior_bot=float(rng.uniform(0.05, 0.95)),
        psi_hh=float(psi[0]),
        psi_hb=float(psi[1]),
        psi_bh=float(psi[2]),
        psi_bb=float(psi[3]),
        weight_cap=float(rng.choice([2.5, 5.0, 10.0])),
        damping=(0.0, 0.3, 0.5, 0.9)[seed % 4],
        max_iterations=3 if seed % 5 == 0 else 200,
    )
    return g, params


def test_sweep_matches_reference_bit_for_bit():
    forests = capped = 0
    for seed in range(200):
        g, params = _random_bp_case(seed)
        post = infer_bot_probabilities(g, params)
        marginals, converged, residual, iterations = _reference_bp(g, params)
        assert np.array_equal(post.marginals, marginals), seed
        assert (post.converged, post.residual, post.iterations) == (
            converged, residual, iterations
        ), seed
        forests += iterations > 0 and seed % 3 == 0
        capped += iterations == 3 and not converged
    assert forests > 50 and capped > 10  # both regimes are exercised


def test_logaddexp_two_term_bits():
    """The kernel's two-term form against the masked form above and, where
    scipy computes log1p of the shifted sum (1.15 on), against logsumexp."""
    rng = np.random.default_rng(3)
    size = 5000
    random_a = rng.normal(0.0, 30.0, size)
    random_b = rng.normal(0.0, 30.0, size)
    ties = rng.normal(0.0, 30.0, size)
    zeros_a = np.resize([0.0, 0.0, -0.0, -0.0], size)
    zeros_b = np.resize([0.0, -0.0, 0.0, -0.0], size)
    gap = rng.normal(0.0, 30.0, size)
    a = np.concatenate([random_a, ties, zeros_a, gap, gap - 800.0])
    b = np.concatenate([random_b, ties, zeros_b, gap - 800.0, gap])
    out = np.empty_like(a)
    _logaddexp(a, b, out, np.empty_like(a))
    # ties take no mask in the kernel: log1p(1.0) must round to log(2.0)
    assert np.array_equal(out[size:2 * size], ties + np.log(2.0))
    assert np.array_equal(out, _reference_logaddexp(a, b))
    if tuple(int(v) for v in scipy.__version__.split(".")[:2]) >= (1, 15):
        assert np.array_equal(out, logsumexp(np.stack([a, b]), axis=0))


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
