import importlib
from datetime import date

import numpy as np
import pytest

from botimpact.ghic import daily_ghic_series, ghic, ghic_per_bot
from botimpact.graph import DirectedGraph
from botimpact.opinion import StubbornAssignment, fixed_point_oracle

from conftest import edge_dict, graph_of, random_instance


def _assignment(psi: dict[str, float]) -> StubbornAssignment:
    return StubbornAssignment(psi=dict(psi), low_cut=0.0, high_cut=1.0)


def _worked_example():
    g = graph_of(
        [("s", "h1"), ("a", "h1"), ("s", "h2"), ("a", "h2"), ("a", "h3")]
    )
    rates = {n: 1.0 for n in ["s", "a", "h1", "h2", "h3"]}
    assignment = _assignment({"s": 1.0, "a": 0.0})
    opinions = {"s": 1.0, "a": 0.0, "h1": 0.5, "h2": 0.5, "h3": 0.5}
    return g, rates, assignment, opinions


def test_empty_target_set_is_exact_zero():
    g, rates, assignment, opinions = _worked_example()
    result = ghic(g, rates, assignment, opinions, set())
    assert result.value == 0.0
    assert result.averaged_over == 3


def test_worked_example_value_one_third():
    g, rates, assignment, opinions = _worked_example()
    result = ghic(g, rates, assignment, opinions, {"s"})
    assert result.value == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert result.averaged_over == 3
    assert result.reverted == 0


def test_worked_example_cross_checked_with_oracle():
    g, rates, assignment, opinions = _worked_example()
    lam = np.array([rates[g.label(i)] for i in range(g.node_count)])
    psi = {g.index(k): v for k, v in assignment.psi.items()}
    theta = fixed_point_oracle(g, lam, psi)
    reduced = g.induced_subgraph({"a", "h1", "h2", "h3"})
    lam_r = np.array([rates[reduced.label(i)] for i in range(reduced.node_count)])
    psi_r = {reduced.index("a"): 0.0}
    theta_r = fixed_point_oracle(reduced, lam_r, psi_r)
    manual = np.mean(
        [
            theta[g.index(h)] - theta_r[reduced.index(h)]
            for h in ("h1", "h2", "h3")
        ]
    )
    result = ghic(g, rates, assignment, opinions, {"s"})
    assert result.value == pytest.approx(manual, abs=1e-9)
    assert manual == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_removal_without_influence_path_is_zero():
    # x only feeds stubborn nodes, so removing it cannot move anyone
    g, rates, assignment, opinions = _worked_example()
    g2 = graph_of(
        [("s", "h1"), ("a", "h1"), ("a", "h2"), ("x", "s")], nodes=["lone"]
    )
    rates = {n: 1.0 for n in g2.labels}
    assignment = _assignment({"s": 1.0, "a": 0.0, "x": 1.0, "lone": 0.5})
    opinions = {n: 0.5 for n in g2.labels}
    result = ghic(g2, rates, assignment, opinions, {"x"})
    assert result.value == 0.0


def test_reverted_nodes_use_measured_opinion():
    # h follows only the bot: removal leaves it orphaned at its own opinion
    g = graph_of([("bot", "h"), ("anchor", "h2")])
    rates = {"bot": 1.0, "anchor": 1.0, "h": 1.0, "h2": 1.0}
    assignment = _assignment({"bot": 1.0, "anchor": 0.0})
    opinions = {"bot": 1.0, "anchor": 0.0, "h": 0.2, "h2": 0.5}
    result = ghic(g, rates, assignment, opinions, {"bot"})
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
        assignment = _assignment({anchor: 0.0, **{b: 1.0 for b in ones}})
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
        result = ghic(g2, rates, assignment, opinions, ones)
        assert result.value >= -1e-12
        assert abs(result.value) <= 1.0 + 1e-12
        followers_in_v1 = any(
            g2.label(int(t)) not in assignment.stubborn
            for b in ones
            for t in g2.followers_of(g2.index(b))[0]
        )
        if followers_in_v1 and result.reverted == 0:
            assert result.value > 0.0


def test_rejects_target_covering_all_non_stubborn():
    g = graph_of([("s", "h")])
    assignment = _assignment({"s": 1.0})
    with pytest.raises(ValueError):
        ghic(g, {"s": 1.0, "h": 1.0}, assignment, {"s": 1.0, "h": 0.5}, {"h"})


def test_rejects_unknown_target():
    g, rates, assignment, opinions = _worked_example()
    with pytest.raises(ValueError):
        ghic(g, rates, assignment, opinions, {"martian"})


# -- daily series -----------------------------------------------------------------


def _single_day_inputs():
    g, rates, assignment, opinions = _worked_example()
    active = {date(2020, 1, 1): {"s", "a", "h1", "h2", "h3"}}
    groups = {"bots": {"s"}}
    return g, active, rates, assignment, opinions, groups


def test_daily_series_single_day():
    g, active, rates, assignment, opinions, groups = _single_day_inputs()
    series = daily_ghic_series(g, active, rates, assignment, opinions, groups)
    assert len(series.entries) == 1
    entry = series.entries[0]
    assert entry.results["bots"].value == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert entry.group_active["bots"] == 1


def test_daily_series_inactive_group_zero():
    g, active, rates, assignment, opinions, _ = _single_day_inputs()
    groups = {"ghosts": {"h3"}}
    active_day = {date(2020, 1, 1): {"s", "a", "h1", "h2"}}  # h3 inactive
    series = daily_ghic_series(g, active_day, rates, assignment, opinions, groups)
    assert series.entries[0].results["ghosts"].value == 0.0
    assert series.entries[0].group_active["ghosts"] == 0


def test_daily_series_skips_day_without_non_stubborn():
    g, _, rates, assignment, opinions, groups = _single_day_inputs()
    active = {date(2020, 1, 1): {"s", "a"}}
    series = daily_ghic_series(g, active, rates, assignment, opinions, groups)
    assert not series.entries
    assert series.skipped_days


def test_daily_series_deterministic_across_active_set_order():
    g, active, rates, assignment, opinions, groups = _single_day_inputs()
    series_a = daily_ghic_series(g, active, rates, assignment, opinions, groups)
    shuffled = {date(2020, 1, 1): set(reversed(sorted(active[date(2020, 1, 1)])))}
    series_b = daily_ghic_series(g, shuffled, rates, assignment, opinions, groups)
    assert (
        series_a.entries[0].results["bots"].value
        == series_b.entries[0].results["bots"].value
    )


def test_ghic_per_bot_division():
    g, active, rates, assignment, opinions, groups = _single_day_inputs()
    series = daily_ghic_series(g, active, rates, assignment, opinions, groups)
    stats = ghic_per_bot(series, groups)["bots"]
    assert stats.values == [pytest.approx(1.0 / 3.0, abs=1e-9)]
    two_bots = {"bots": {"s", "h3"}}  # second member active but without sway
    series2 = daily_ghic_series(g, active, rates, assignment, opinions, two_bots)
    stats2 = ghic_per_bot(series2, two_bots)["bots"]
    assert stats2.values[0] == pytest.approx(series2.entries[0].results["bots"].value / 2)


def test_ghic_per_bot_never_active_group_flagged():
    g, active, rates, assignment, opinions, _ = _single_day_inputs()
    groups = {"bots": {"s"}, "absent": set()}
    series = daily_ghic_series(g, active, rates, assignment, opinions, groups)
    stats = ghic_per_bot(series, groups)
    assert stats["absent"] is None


def _random_series_inputs(seed):
    """A random network, three random active days, and three groups (one empty)."""
    g, lam, psi_idx, measured = random_instance(seed=seed, n_lo=30, n_hi=120)
    names = g.labels
    rates = {name: float(lam[i]) for i, name in enumerate(names)}
    assignment = _assignment({g.label(i): v for i, v in psi_idx.items()})
    opinions = {name: float(measured[i]) for i, name in enumerate(names)}
    rng = np.random.default_rng(seed)
    active_by_day = {
        date(2020, 1, day): set(rng.choice(names, size=int(0.7 * len(names)), replace=False))
        for day in (1, 2, 3)
    }
    stubborn = sorted(assignment.psi)
    groups = {
        "stubborn": set(rng.choice(stubborn, size=max(1, len(stubborn) // 3), replace=False)),
        "anyone": set(rng.choice(names, size=max(1, len(names) // 10), replace=False)),
        "nobody": set(),
    }
    return g, active_by_day, rates, assignment, opinions, groups


def test_daily_series_equals_per_group_ghic():
    compared = 0
    for seed in range(8):
        g, active_by_day, rates, assignment, opinions, groups = _random_series_inputs(1100 + seed)
        series = daily_ghic_series(g, active_by_day, rates, assignment, opinions, groups)
        for entry in series.entries:
            active = active_by_day[entry.day]
            subnet = g.induced_subgraph(active)
            for name, result in entry.results.items():
                single = ghic(subnet, rates, assignment, opinions, groups[name] & active)
                assert single.value == result.value
                assert single.averaged_over == result.averaged_over
                assert single.reverted == result.reverted
                compared += 1
    assert compared >= 60


def test_daily_series_solves_each_day_network_once(monkeypatch):
    ghic_module = importlib.import_module("botimpact.ghic")
    solved = []
    real = ghic_module.solve_network

    def counting(graph, *args, **kwargs):
        solved.append(tuple(graph.labels))
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(ghic_module, "solve_network", counting)
    for seed in range(8):
        g, active_by_day, rates, assignment, opinions, groups = _random_series_inputs(1100 + seed)
        solved.clear()
        series = daily_ghic_series(g, active_by_day, rates, assignment, opinions, groups)
        assert series.entries
        for entry in series.entries:
            day_network = tuple(g.induced_subgraph(active_by_day[entry.day]).labels)
            assert solved.count(day_network) == 1
        removals = sum(1 for e in series.entries for r in e.results.values() if r.target_set)
        assert len(solved) == len(series.entries) + removals


# -- solver/oracle agreement on ghic -------------------------------------------------


def _oracle_ghic(graph, rates, psi_by_name, measured_by_name, targets):
    """Independent centrality via the fixed-point oracle on both networks."""
    from botimpact.opinion import preprocess_wellposed

    lam = np.array([rates[graph.label(i)] for i in range(graph.node_count)])
    psi = {graph.index(k): v for k, v in psi_by_name.items() if k in graph}
    measured = np.array([measured_by_name[graph.label(i)] for i in range(graph.node_count)])
    psi_full, _ = preprocess_wellposed(graph, lam, psi, measured)
    theta = fixed_point_oracle(graph, lam, psi_full)
    population = [i for i in theta if graph.label(i) not in targets]
    keep = [name for name in graph.labels if name not in targets]
    reduced = graph.induced_subgraph(keep)
    lam_r = np.array([rates[reduced.label(i)] for i in range(reduced.node_count)])
    psi_r = {reduced.index(k): v for k, v in psi_by_name.items() if k in reduced}
    # orphaned nodes revert to their measured opinion on the reduced network
    measured_r = np.array([measured_by_name[reduced.label(i)] for i in range(reduced.node_count)])
    psi_r_full, _ = preprocess_wellposed(reduced, lam_r, psi_r, measured_r)
    theta_r = fixed_point_oracle(reduced, lam_r, psi_r_full)
    diffs = []
    for i in population:
        j = reduced.index(graph.label(i))
        after = theta_r.get(j, psi_r_full.get(j))
        diffs.append(theta[i] - after)
    return float(np.mean(diffs))


def test_ghic_agrees_with_oracle_route():
    for seed in range(10):
        g, lam, psi_idx, measured = random_instance(seed=900 + seed, n_lo=20, n_hi=120)
        names = g.labels
        rates = {name: float(lam[i]) for i, name in enumerate(names)}
        psi_by_name = {g.label(i): v for i, v in psi_idx.items()}
        measured_by_name = {name: float(measured[i]) for i, name in enumerate(names)}
        assignment = _assignment(psi_by_name)
        rng = np.random.default_rng(seed)
        stubborn_names = sorted(psi_by_name)
        targets = set(
            rng.choice(stubborn_names, size=max(1, len(stubborn_names) // 3), replace=False)
        )
        try:
            result = ghic(g, rates, assignment, measured_by_name, targets)
        except ValueError:
            continue
        oracle_value = _oracle_ghic(g, rates, psi_by_name, measured_by_name, targets)
        assert result.value == pytest.approx(oracle_value, abs=1e-7)
