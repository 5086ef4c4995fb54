import importlib
from datetime import date

import numpy as np
import pytest

from botimpact.ghic import daily_ghic_series, ghic, ghic_per_bot
from botimpact.graph import DirectedGraph
from botimpact.opinion import solve_network

from conftest import edge_dict, graph_of, random_instance, solver_inputs
from oracles import fixed_point_oracle
from test_ghic_oracle import _ref_mask, _ref_network_arrays


def _ghic(g, rates, stubborn, opinions, targets):
    """``ghic`` on a graph given per-id dicts and a set of target ids."""
    network = _ref_network_arrays(g, rates, stubborn, opinions)
    return ghic(network, solve_network(*network), _ref_mask(g, targets))


def _series(g, active_by_day, rates, stubborn, opinions, groups):
    """``daily_ghic_series`` on a graph given per-id dicts and sets of ids."""
    return daily_ghic_series(
        _ref_network_arrays(g, rates, stubborn, opinions),
        {day: _ref_mask(g, ids) for day, ids in active_by_day.items()},
        {name: _ref_mask(g, ids) for name, ids in groups.items()},
    )


def _worked_example():
    g = graph_of(
        [("s", "h1"), ("a", "h1"), ("s", "h2"), ("a", "h2"), ("a", "h3")]
    )
    rates = {n: 1.0 for n in ["s", "a", "h1", "h2", "h3"]}
    stubborn = {"s": 1.0, "a": 0.0}
    opinions = {"s": 1.0, "a": 0.0, "h1": 0.5, "h2": 0.5, "h3": 0.5}
    return g, rates, stubborn, opinions


def test_empty_target_set_is_exact_zero():
    g, rates, stubborn, opinions = _worked_example()
    result = _ghic(g, rates, stubborn, opinions, set())
    assert result.value == 0.0
    assert result.averaged_over == 3


def test_worked_example_value_one_third():
    g, rates, stubborn, opinions = _worked_example()
    result = _ghic(g, rates, stubborn, opinions, {"s"})
    assert result.value == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert result.averaged_over == 3
    assert result.reverted == 0


def test_worked_example_cross_checked_with_oracle():
    g, rates, stubborn, opinions = _worked_example()
    lam = np.array([rates[g.label(i)] for i in range(g.node_count)])
    src, tgt, fixed, anchor = solver_inputs(g, stubborn)
    theta = fixed_point_oracle(src, tgt, lam, fixed, anchor)
    reduced = g.induced_subgraph({"a", "h1", "h2", "h3"})
    lam_r = np.array([rates[reduced.label(i)] for i in range(reduced.node_count)])
    src, tgt, fixed, anchor = solver_inputs(reduced, {"a": 0.0})
    theta_r = fixed_point_oracle(src, tgt, lam_r, fixed, anchor)
    manual = np.mean(
        [
            theta[g.labels.index(h)] - theta_r[reduced.labels.index(h)]
            for h in ("h1", "h2", "h3")
        ]
    )
    result = _ghic(g, rates, stubborn, opinions, {"s"})
    assert result.value == pytest.approx(manual, abs=1e-9)
    assert manual == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_removal_without_influence_path_is_zero():
    # x only feeds stubborn nodes, so removing it cannot move anyone
    g, rates, stubborn, opinions = _worked_example()
    g2 = graph_of(
        [("s", "h1"), ("a", "h1"), ("a", "h2"), ("x", "s")], nodes=["lone"]
    )
    rates = {n: 1.0 for n in g2.labels}
    stubborn = {"s": 1.0, "a": 0.0, "x": 1.0, "lone": 0.5}
    opinions = {n: 0.5 for n in g2.labels}
    result = _ghic(g2, rates, stubborn, opinions, {"x"})
    assert result.value == 0.0


def test_reverted_nodes_use_measured_opinion():
    # h follows only the bot: removal leaves it orphaned at its own opinion
    g = graph_of([("bot", "h"), ("anchor", "h2")])
    rates = {"bot": 1.0, "anchor": 1.0, "h": 1.0, "h2": 1.0}
    stubborn = {"bot": 1.0, "anchor": 0.0}
    opinions = {"bot": 1.0, "anchor": 0.0, "h": 0.2, "h2": 0.5}
    result = _ghic(g, rates, stubborn, opinions, {"bot"})
    # theta: h=1.0, h2=0.0 ; after removal h reverts to 0.2, h2 stays 0.0
    assert result.reverted == 1
    assert result.value == pytest.approx(((1.0 - 0.2) + 0.0) / 2.0, abs=1e-12)


def test_sign_semantics_and_bound():
    rng = np.random.default_rng(9)
    for seed in range(15):
        g, lam, _, _ = random_instance(seed=700 + seed, n_lo=15, n_hi=60)
        names = g.labels
        anchor, rest = names[0], names[1:]
        k = max(1, len(rest) // 5)
        ones = set(rng.choice(rest, size=k, replace=False).tolist())
        stubborn = {anchor: 0.0, **{b: 1.0 for b in ones}}
        # every free node follows the zero-anchor so removal stays well-posed
        g2 = DirectedGraph()
        for name in names:
            g2.add_node(name)
        edges = edge_dict(g)
        for (u, v), w in edges.items():
            g2.add_interaction(u, v, w)
        for name in names:
            if name != anchor and name not in ones and (anchor, name) not in edges:
                g2.add_interaction(anchor, name, 1.0)
        rates = {name: float(lam[i]) for i, name in enumerate(names)}
        rates[anchor] = max(rates[anchor], 1.0)
        opinions = {name: 0.5 for name in names}
        opinions.update({b: 1.0 for b in ones})
        opinions[anchor] = 0.0
        result = _ghic(g2, rates, stubborn, opinions, ones)
        assert result.value >= -1e-12
        assert abs(result.value) <= 1.0 + 1e-12
        src2, tgt2, _ = g2.edge_arrays()
        followers_in_v1 = any(
            g2.label(int(t)) not in stubborn
            for b in ones
            for t in tgt2[src2 == g2.labels.index(b)]
        )
        if followers_in_v1 and result.reverted == 0:
            assert result.value > 0.0


def test_rejects_target_covering_all_non_stubborn():
    g = graph_of([("s", "h")])
    stubborn = {"s": 1.0}
    with pytest.raises(ValueError):
        _ghic(g, {"s": 1.0, "h": 1.0}, stubborn, {"s": 1.0, "h": 0.5}, {"h"})


def test_rejects_a_target_mask_that_is_not_a_node_mask():
    network = _ref_network_arrays(*_worked_example())
    full = solve_network(*network)
    for targets in (np.array([0]), np.zeros(4, dtype=bool)):
        with pytest.raises(ValueError, match="boolean mask"):
            ghic(network, full, targets)


# -- daily series -----------------------------------------------------------------


def test_daily_series_rejects_a_mask_that_is_not_a_boolean_node_mask():
    g, active, rates, stubborn, opinions, groups = _single_day_inputs()
    arrays = _ref_network_arrays(g, rates, stubborn, opinions)
    day = date(2020, 1, 1)
    active_mask, bots = _ref_mask(g, active[day]), _ref_mask(g, groups["bots"])
    for day_mask, group_mask, named in (
        (active_mask.astype(int), bots, "day 2020-01-01"),  # 0/1 would index nodes 0 and 1
        (active_mask[:-1], bots, "day 2020-01-01"),
        (active_mask, bots.astype(int), "group 'bots'"),
        (active_mask, list(bots), "group 'bots'"),
    ):
        with pytest.raises(ValueError, match=f"^{named} must be a boolean mask over the 5 nodes$"):
            daily_ghic_series(arrays, {day: day_mask}, {"bots": group_mask})


def _single_day_inputs():
    g, rates, stubborn, opinions = _worked_example()
    active = {date(2020, 1, 1): {"s", "a", "h1", "h2", "h3"}}
    groups = {"bots": {"s"}}
    return g, active, rates, stubborn, opinions, groups


def test_daily_series_single_day():
    g, active, rates, stubborn, opinions, groups = _single_day_inputs()
    series = _series(g, active, rates, stubborn, opinions, groups)
    assert len(series.entries) == 1
    entry = series.entries[0]
    assert entry.results["bots"].value == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert entry.results["bots"].target_count == 1


def test_daily_series_inactive_group_zero():
    g, active, rates, stubborn, opinions, _ = _single_day_inputs()
    groups = {"ghosts": {"h3"}}
    active_day = {date(2020, 1, 1): {"s", "a", "h1", "h2"}}  # h3 inactive
    series = _series(g, active_day, rates, stubborn, opinions, groups)
    assert series.entries[0].results["ghosts"].value == 0.0
    assert series.entries[0].results["ghosts"].target_count == 0


def test_daily_series_skips_day_without_non_stubborn():
    g, _, rates, stubborn, opinions, groups = _single_day_inputs()
    active = {date(2020, 1, 1): {"s", "a"}}
    series = _series(g, active, rates, stubborn, opinions, groups)
    assert not series.entries
    assert series.skipped_days == [(date(2020, 1, 1), "no non-stubborn active accounts")]


def test_daily_series_skips_a_day_that_preprocessing_leaves_all_stubborn():
    # h3 follows only a, whose rate is zero: preprocessing makes h3 stubborn too
    g, _, rates, stubborn, opinions, groups = _single_day_inputs()
    rates = dict(rates, a=0.0)
    active = {date(2020, 1, 1): {"a", "h3"}, date(2020, 1, 2): {"s", "a", "h1", "h2", "h3"}}
    series = _series(g, active, rates, stubborn, opinions, groups)
    assert [e.day for e in series.entries] == [date(2020, 1, 2)]
    assert series.skipped_days == [(date(2020, 1, 1), "no non-stubborn active accounts")]


def test_daily_series_skips_a_group_covering_every_non_stubborn_account():
    # only a library caller can pass such a group: the stage's groups are stubborn bots
    g, active, rates, stubborn, opinions, _ = _single_day_inputs()
    groups = {"humans": {"h1", "h2", "h3"}, "bots": {"s"}}
    with pytest.raises(ValueError, match="^2020-01-01 group 'humans': no non-stubborn nodes "
                                         "outside the target set$"):
        _series(g, active, rates, stubborn, opinions, groups)


def test_daily_series_independent_of_day_and_group_insertion_order():
    """The mappings' insertion order is the only order a caller controls."""
    g, active_by_day, rates, stubborn, opinions, groups = _random_series_inputs(1200)
    for day in (4, 5, 6):  # stubborn-only days, so skipped_days has entries
        active_by_day[date(2020, 1, day)] = set(sorted(stubborn)[day - 4::2])
    arrays = _ref_network_arrays(g, rates, stubborn, opinions)

    def run(reverse):
        return daily_ghic_series(
            arrays,
            {day: _ref_mask(g, active_by_day[day]) for day in sorted(active_by_day,
                                                                     reverse=reverse)},
            {name: _ref_mask(g, groups[name]) for name in sorted(groups, reverse=reverse)},
        )

    def identity(series):
        return ([(e.day, e.active_nodes, list(e.results.items())) for e in series.entries],
                series.skipped_days)

    forward, backward = run(False), run(True)
    assert identity(forward) == identity(backward)
    assert len(forward.entries) == 3 and len(forward.skipped_days) == 3


def test_ghic_per_bot_division():
    g, active, rates, stubborn, opinions, groups = _single_day_inputs()
    series = _series(g, active, rates, stubborn, opinions, groups)
    stats = ghic_per_bot(series, groups)["bots"]
    assert stats.values == [pytest.approx(1.0 / 3.0, abs=1e-9)]
    two_bots = {"bots": {"s", "h3"}}  # second member active but without sway
    series2 = _series(g, active, rates, stubborn, opinions, two_bots)
    stats2 = ghic_per_bot(series2, two_bots)["bots"]
    assert stats2.values[0] == pytest.approx(series2.entries[0].results["bots"].value / 2)


def test_ghic_per_bot_never_active_group_flagged():
    g, active, rates, stubborn, opinions, _ = _single_day_inputs()
    groups = {"bots": {"s"}, "absent": set()}
    series = _series(g, active, rates, stubborn, opinions, groups)
    stats = ghic_per_bot(series, groups)
    assert stats["absent"] is None


def _random_series_inputs(seed):
    """A random network, three random active days, and three groups (one empty)."""
    g, lam, fixed, anchor = random_instance(seed=seed, n_lo=30, n_hi=120)
    names = g.labels
    rates = {name: float(lam[i]) for i, name in enumerate(names)}
    stubborn = {names[i]: float(anchor[i]) for i in np.flatnonzero(fixed)}
    opinions = {name: float(anchor[i]) for i, name in enumerate(names)}
    rng = np.random.default_rng(seed)
    active_by_day = {
        date(2020, 1, day): set(rng.choice(names, size=int(0.7 * len(names)), replace=False))
        for day in (1, 2, 3)
    }
    stubborn_names = sorted(stubborn)
    groups = {
        "stubborn": set(
            rng.choice(stubborn_names, size=max(1, len(stubborn_names) // 3), replace=False)
        ),
        "anyone": set(rng.choice(names, size=max(1, len(names) // 10), replace=False)),
        "nobody": set(),
    }
    return g, active_by_day, rates, stubborn, opinions, groups


def test_daily_series_equals_per_group_ghic():
    compared = 0
    for seed in range(8):
        g, active_by_day, rates, stubborn, opinions, groups = _random_series_inputs(1100 + seed)
        series = _series(g, active_by_day, rates, stubborn, opinions, groups)
        for entry in series.entries:
            active = active_by_day[entry.day]
            subnet = g.induced_subgraph(active)
            for name, result in entry.results.items():
                single = _ghic(subnet, rates, stubborn, opinions, groups[name] & active)
                assert single.value == result.value
                assert single.averaged_over == result.averaged_over
                assert single.reverted == result.reverted
                compared += 1
    assert compared >= 60


def test_daily_series_solves_each_day_network_once(monkeypatch):
    ghic_module = importlib.import_module("botimpact.ghic")
    solved = []
    real = ghic_module.solve_network

    def counting(src, tgt, rates, fixed, anchor):
        solved.append((fixed.size, src.tobytes(), tgt.tobytes(), rates.tobytes()))
        return real(src, tgt, rates, fixed, anchor)

    monkeypatch.setattr(ghic_module, "solve_network", counting)
    for seed in range(8):
        g, active_by_day, rates, stubborn, opinions, groups = _random_series_inputs(1100 + seed)
        solved.clear()
        series = _series(g, active_by_day, rates, stubborn, opinions, groups)
        assert series.entries
        for entry in series.entries:
            day = g.induced_subgraph(active_by_day[entry.day])
            src, tgt, _ = day.edge_arrays()
            lam = np.array([rates[name] for name in day.labels])
            key = (day.node_count, src.tobytes(), tgt.tobytes(), lam.tobytes())
            assert solved.count(key) == 1
        removals = sum(1 for e in series.entries for r in e.results.values() if r.target_count)
        assert len(solved) == len(active_by_day) + removals


def test_masked_removal_equals_solve_on_induced_subgraph(monkeypatch):
    """A removal solves the day's own arrays with the targets stubborn at rate
    zero, and matches the solve without the targets bit for bit, for any targets."""
    ghic_module = importlib.import_module("botimpact.ghic")
    calls = []
    real = ghic_module.solve_network

    def recording(*arrays):
        calls.append((arrays, real(*arrays)))
        return calls[-1][1]

    monkeypatch.setattr(ghic_module, "solve_network", recording)
    compared = non_stubborn_targets = zero_rate_targets = 0
    for seed in range(30):
        g, lam, fixed, anchor = random_instance(seed=1300 + seed, n_lo=20, n_hi=150)
        rng = np.random.default_rng(seed)
        n = g.node_count
        lam[rng.random(n) < 0.1] = 0.0
        targets = np.zeros(n, dtype=bool)
        targets[rng.choice(n, size=max(1, n // 5), replace=False)] = True
        src, tgt, _ = g.edge_arrays()
        network = (src, tgt, lam, fixed, anchor)
        calls.clear()
        try:
            ghic(network, recording(*network), targets)
        except ValueError:
            continue
        [_, ((r_src, r_tgt, r_lam, r_fixed, r_anchor), removed)] = calls  # full, then removal
        assert r_src.tobytes() == src.tobytes() and r_tgt.tobytes() == tgt.tobytes()
        assert r_lam.tobytes() == np.where(targets, 0.0, lam).tobytes()
        assert r_fixed.tobytes() == (fixed | targets).tobytes()
        assert r_anchor is anchor

        names = g.labels
        reduced = g.induced_subgraph([names[i] for i in np.flatnonzero(~targets)])
        kept = np.array([names.index(a) for a in reduced.labels])
        k_src, k_tgt, _ = reduced.edge_arrays()
        expected = solve_network(k_src, k_tgt, lam[kept], fixed[kept], anchor[kept])
        for got, want in zip(removed, expected):  # opinions and final mask, bit for bit
            assert got.dtype == want.dtype and got[kept].tobytes() == want.tobytes()
        compared += 1
        non_stubborn_targets += np.count_nonzero(targets & ~fixed)
        zero_rate_targets += np.count_nonzero(targets & (lam == 0.0))
    assert compared >= 20 and non_stubborn_targets and zero_rate_targets


# -- solver/oracle agreement on ghic -------------------------------------------------


def _oracle_ghic(graph, rates, psi_by_name, measured_by_name, targets):
    """Independent centrality via the fixed-point oracle on both networks."""
    from botimpact.opinion import preprocess_wellposed

    def equilibrium(g):
        """Oracle opinions on ``g``, after preprocessing, and its final stubborn mask."""
        lam = np.array([rates[g.label(i)] for i in range(g.node_count)])
        measured = np.array([measured_by_name[g.label(i)] for i in range(g.node_count)])
        psi = {k: v for k, v in psi_by_name.items() if k in g.labels}
        src, tgt, fixed, anchor = solver_inputs(g, psi, measured)
        final, _ = preprocess_wellposed(src, tgt, lam, fixed)
        # orphaned nodes revert to their measured opinion (their anchor)
        return fixed_point_oracle(src, tgt, lam, final, anchor), final

    theta, fixed = equilibrium(graph)
    population = [i for i in np.flatnonzero(~fixed) if graph.label(i) not in targets]
    reduced = graph.induced_subgraph([name for name in graph.labels if name not in targets])
    theta_r, _ = equilibrium(reduced)
    diffs = [theta[i] - theta_r[reduced.labels.index(graph.label(i))] for i in population]
    return float(np.mean(diffs))


def test_ghic_agrees_with_oracle_route():
    for seed in range(10):
        g, lam, fixed, anchor = random_instance(seed=900 + seed, n_lo=20, n_hi=120)
        names = g.labels
        rates = {name: float(lam[i]) for i, name in enumerate(names)}
        psi_by_name = {names[i]: float(anchor[i]) for i in np.flatnonzero(fixed)}
        measured_by_name = {name: float(anchor[i]) for i, name in enumerate(names)}
        stubborn = psi_by_name
        rng = np.random.default_rng(seed)
        stubborn_names = sorted(psi_by_name)
        targets = set(
            rng.choice(stubborn_names, size=max(1, len(stubborn_names) // 3), replace=False)
        )
        try:
            result = _ghic(g, rates, stubborn, measured_by_name, targets)
        except ValueError:
            continue
        oracle_value = _oracle_ghic(g, rates, psi_by_name, measured_by_name, targets)
        assert result.value == pytest.approx(oracle_value, abs=1e-7)
