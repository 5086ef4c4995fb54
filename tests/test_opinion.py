import numpy as np
import pytest

from botimpact.opinion import (
    AssemblyError,
    SolverError,
    assemble_system,
    fixed_point_oracle,
    identify_stubborn,
    percentile_cuts,
    preprocess_wellposed,
    solve_equilibrium,
    solve_network,
)

from conftest import graph_of, random_instance


def _solve(graph, lam, psi, measured=None):
    measured = measured if measured is not None else np.full(graph.node_count, 0.5)
    return solve_network(graph, np.asarray(lam, dtype=float), psi, measured)


# -- stubborn identification -----------------------------------------------------


def test_identify_stubborn_extreme_tails():
    # frozen from the sorted-order-statistic rule: cuts land on 0.5, so the
    # 0.0 and 1.0 blocks are strictly outside and become stubborn
    opinions = {}
    opinions.update({f"z{i}": 0.0 for i in range(10)})
    opinions.update({f"m{i}": 0.5 for i in range(80)})
    opinions.update({f"o{i}": 1.0 for i in range(10)})
    assignment = identify_stubborn(opinions, bots=set())
    stubborn = assignment.stubborn
    assert stubborn == {f"z{i}" for i in range(10)} | {f"o{i}" for i in range(10)}
    assert assignment.psi["z0"] == 0.0 and assignment.psi["o0"] == 1.0


def test_identify_stubborn_bot_rule():
    opinions = {f"u{i}": 0.5 for i in range(20)}
    opinions["bot"] = 0.5
    assignment = identify_stubborn(opinions, bots={"bot"})
    assert assignment.stubborn == {"bot"}
    assert assignment.psi["bot"] == 0.5


def test_identify_stubborn_extreme_thresholds_disable():
    opinions = {f"u{i}": i / 9 for i in range(10)}
    assignment = identify_stubborn(opinions, bots=set(), low_pct=0.0, high_pct=1.0)
    assert assignment.stubborn == set()


def test_identify_stubborn_flags_all_stubborn():
    opinions = {"a": 0.0, "b": 1.0}
    assignment = identify_stubborn(opinions, bots={"a", "b"})
    assert assignment.all_stubborn


def test_percentile_cuts_distinct_values():
    values = [i / 10 for i in range(1, 11)]
    low, high = percentile_cuts(values, 0.10, 0.90)
    assert low == pytest.approx(0.2)
    assert high == pytest.approx(0.9)


# -- preprocess -------------------------------------------------------------------


def test_preprocess_isolated_node_reclassified():
    g = graph_of([("s", "a")], nodes=["iso"])
    lam = np.ones(g.node_count)
    psi = {g.index("s"): 1.0}
    measured = np.full(g.node_count, 0.5)
    measured[g.index("iso")] = 0.3
    new_psi, report = preprocess_wellposed(g, lam, psi, measured)
    assert g.index("iso") in new_psi
    assert new_psi[g.index("iso")] == 0.3
    assert g.index("iso") in report.no_rated_following
    assert g.index("a") not in new_psi


def test_preprocess_closed_pair_reclassified():
    # x and y follow only each other; stubborn s is unreachable from them
    g = graph_of([("x", "y"), ("y", "x"), ("s", "a"), ("a", "s")])
    lam = np.ones(g.node_count)
    psi = {g.index("s"): 1.0}
    measured = np.full(g.node_count, 0.25)
    new_psi, report = preprocess_wellposed(g, lam, psi, measured)
    assert g.index("x") in new_psi and g.index("y") in new_psi
    assert set(report.unreachable) == {g.index("x"), g.index("y")}
    assert g.index("a") not in new_psi


def test_preprocess_connected_instance_unchanged():
    g = graph_of([("s", "a"), ("a", "b"), ("b", "c")])
    lam = np.ones(g.node_count)
    psi = {g.index("s"): 1.0}
    new_psi, report = preprocess_wellposed(g, lam, psi, np.full(g.node_count, 0.5))
    assert new_psi == psi
    assert not report.reclassified


def test_preprocess_zero_rate_chain_reclassified():
    # b follows only zero-rate j; influence cannot travel through j
    g = graph_of([("s", "j"), ("j", "b")])
    lam = np.zeros(g.node_count)
    lam[g.index("s")] = 1.0
    lam[g.index("b")] = 1.0
    psi = {g.index("s"): 1.0}
    new_psi, report = preprocess_wellposed(g, lam, psi, np.full(g.node_count, 0.5))
    assert g.index("b") in new_psi  # only following has rate zero
    assert g.index("j") not in new_psi  # j follows s, which has positive rate


def _reclassified_by_search(g, lam, psi):
    """Rules (a) and (b) by a separate depth-first search back from each node."""
    src, tgt, _ = g.edge_arrays()
    following = {i: set() for i in range(g.node_count)}
    for u, v in zip(src.tolist(), tgt.tolist()):
        following[v].add(u)
    no_rated = [i for i in range(g.node_count)
                if i not in psi and not any(lam[j] > 0 for j in following[i])]
    anchored = set(psi) | set(no_rated)

    def reaches_anchor(i):
        # up the followings, through positive-rate free nodes only
        stack, seen = [i], {i}
        while stack:
            for j in following[stack.pop()]:
                if lam[j] <= 0 or j in seen:
                    continue
                if j in anchored:
                    return True
                seen.add(j)
                stack.append(j)
        return False

    unreachable = [i for i in range(g.node_count) if i not in anchored and not reaches_anchor(i)]
    return no_rated, unreachable


def test_preprocess_matches_per_node_search_on_random_graphs():
    unreachable_total = 0
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        edges = [(f"v{u}", f"v{v}") for u, v in rng.integers(0, n, size=(int(1.5 * n), 2))
                 if u != v]
        # a rate-zero relay (z) and a rate-zero stubborn node (t) each feed a free
        # cycle that nothing else anchors; a positive-rate stubborn node mid-chain (m)
        # anchors its own cycle
        gadgets = [("s", "z"), ("z", "x1"), ("x1", "y1"), ("y1", "x1"),
                   ("s", "t"), ("t", "x2"), ("x2", "y2"), ("y2", "x2"),
                   ("s", "m"), ("m", "x3"), ("x3", "y3"), ("y3", "x3")]
        g = graph_of(edges + gadgets, nodes=[f"v{i}" for i in range(n)])
        lam = np.where(rng.random(g.node_count) < 0.3, 0.0, rng.uniform(0.1, 5.0, g.node_count))
        lam[[g.index(a) for a in ("s", "m", "x1", "y1", "x2", "y2", "x3", "y3")]] = 1.0
        lam[[g.index("z"), g.index("t")]] = 0.0
        stubborn = [i for i in range(g.node_count) if rng.random() < 0.2]
        stubborn += [g.index(a) for a in ("s", "t", "m")]
        psi = {i: float(rng.integers(0, 2)) for i in stubborn}
        for a in ("z", "x1", "y1", "x2", "y2", "x3", "y3"):
            psi.pop(g.index(a), None)
        measured = rng.uniform(0.0, 1.0, g.node_count)

        new_psi, report = preprocess_wellposed(g, lam, psi, measured)
        no_rated, unreachable = _reclassified_by_search(g, lam, psi)
        assert report.no_rated_following == no_rated
        assert report.unreachable == unreachable
        assert new_psi == {**psi, **{i: float(measured[i]) for i in no_rated + unreachable}}
        assert {g.index(a) for a in ("x1", "y1", "x2", "y2")} <= set(unreachable)
        assert g.index("x3") not in new_psi
        unreachable_total += len(unreachable)
    assert unreachable_total > 4 * 150  # more than the gadgets alone


# -- assembly ----------------------------------------------------------------------


def test_assemble_one_by_one_system():
    g = graph_of([("j", "i")])
    lam = np.zeros(2)
    lam[g.index("j")] = 2.0
    psi = {g.index("j"): 1.0}
    system = assemble_system(g, lam, psi)
    assert system.G.toarray() == pytest.approx(np.array([[-2.0]]))
    assert system.b == pytest.approx(np.array([-2.0]))


def test_assemble_mixed_row():
    # i follows j in V1 (lam 1) and k in V0 (lam 3)
    g = graph_of([("j", "i"), ("k", "i"), ("s", "j")])
    lam = np.zeros(g.node_count)
    lam[g.index("j")] = 1.0
    lam[g.index("k")] = 3.0
    lam[g.index("s")] = 1.0
    psi = {g.index("k"): 1.0, g.index("s"): 0.0}
    system = assemble_system(g, lam, psi)
    row = list(system.v1).index(g.index("i"))
    col_j = list(system.v1).index(g.index("j"))
    G = system.G.toarray()
    assert G[row, row] == pytest.approx(-4.0)
    assert G[row, col_j] == pytest.approx(1.0)
    col_k = list(system.v0).index(g.index("k"))
    assert system.F.toarray()[row, col_k] == pytest.approx(-3.0)


def test_assemble_rejects_unpreprocessed_degenerate_node():
    g = graph_of([("s", "a")], nodes=["iso"])
    lam = np.ones(g.node_count)
    with pytest.raises(AssemblyError):
        assemble_system(g, lam, {g.index("s"): 1.0})


def test_row_balance_on_random_graph():
    g, lam, psi, measured = random_instance(seed=50, n_lo=50, n_hi=50)
    full_psi, _ = preprocess_wellposed(g, lam, psi, measured)
    system = assemble_system(g, lam, full_psi)
    G, F = system.G.toarray(), system.F.toarray()
    for row in range(G.shape[0]):
        lhs = abs(G[row, row])
        rhs = (G[row].sum() - G[row, row]) + np.abs(F[row]).sum()
        assert lhs == pytest.approx(rhs, abs=1e-9)


# -- solving -----------------------------------------------------------------------


def test_single_follower_absorbs_stubborn_opinion():
    g = graph_of([("j", "i")])
    lam = np.zeros(2)
    lam[g.index("j")] = 2.0
    net = _solve(g, lam, {g.index("j"): 1.0})
    assert net.theta[g.index("i")] == pytest.approx(1.0, abs=1e-12)


def test_weighted_average_of_two_stubborn_sources():
    g = graph_of([("a", "b"), ("c", "b")])
    lam = np.zeros(3)
    lam[g.index("a")] = 1.0
    lam[g.index("c")] = 3.0
    psi = {g.index("a"): 0.0, g.index("c"): 1.0}
    net = _solve(g, lam, psi)
    oracle = fixed_point_oracle(g, lam, psi)
    assert net.theta[g.index("b")] == pytest.approx(0.75, abs=1e-10)
    assert oracle[g.index("b")] == pytest.approx(0.75, abs=1e-10)


def test_chain_example():
    # b follows a (psi=0); c follows b and d (psi=1); all rates 1
    g = graph_of([("a", "b"), ("b", "c"), ("d", "c")])
    lam = np.ones(g.node_count)
    psi = {g.index("a"): 0.0, g.index("d"): 1.0}
    net = _solve(g, lam, psi)
    oracle = fixed_point_oracle(g, lam, psi)
    assert net.theta[g.index("b")] == pytest.approx(0.0, abs=1e-10)
    assert net.theta[g.index("c")] == pytest.approx(0.5, abs=1e-10)
    assert oracle[g.index("b")] == pytest.approx(0.0, abs=1e-10)
    assert oracle[g.index("c")] == pytest.approx(0.5, abs=1e-10)


def test_consensus_absorption():
    g, lam, psi, measured = random_instance(seed=11, n_lo=30, n_hi=30)
    psi = {i: 0.7 for i in psi}
    net = _solve(g, lam, psi, measured)
    for value in net.theta.values():
        assert value == pytest.approx(0.7, abs=1e-9)


def test_oracle_rate_scale_invariance():
    g, lam, psi, measured = random_instance(seed=13, n_lo=40, n_hi=40)
    full_psi, _ = preprocess_wellposed(g, lam, psi, measured)
    base = fixed_point_oracle(g, lam, full_psi)
    scaled = fixed_point_oracle(g, lam * 7.0, full_psi)
    for i, value in base.items():
        assert scaled[i] == pytest.approx(value, abs=1e-9)


def test_solver_rate_scale_invariance():
    g, lam, psi, measured = random_instance(seed=14, n_lo=60, n_hi=60)
    base = _solve(g, lam, psi, measured)
    scaled = _solve(g, lam * 3.0, psi, measured)
    for i, value in base.theta.items():
        assert scaled.theta[i] == pytest.approx(value, abs=1e-8)


def test_maximum_principle_enforced_on_solve():
    for seed in range(5):
        g, lam, psi, measured = random_instance(seed=100 + seed, n_lo=10, n_hi=80)
        net = _solve(g, lam, psi, measured)
        if not net.theta:
            continue
        lo = min(net.psi.values())
        hi = max(net.psi.values())
        for value in net.theta.values():
            assert lo - 1e-9 <= value <= hi + 1e-9


def test_solver_oracle_agreement_sample():
    for seed in range(20):
        g, lam, psi, measured = random_instance(seed=200 + seed)
        net = _solve(g, lam, psi, measured)
        oracle = fixed_point_oracle(g, lam, net.psi)
        assert set(oracle) == set(net.theta)
        for i, value in oracle.items():
            assert net.theta[i] == pytest.approx(value, abs=1e-8)


def test_monotone_in_stubborn_opinion():
    rng = np.random.default_rng(0)
    for seed in range(8):
        g, lam, psi, measured = random_instance(seed=300 + seed, n_lo=30, n_hi=30)
        net = _solve(g, lam, psi, measured)
        if not net.theta:
            continue
        target = int(rng.choice(sorted(net.psi)))
        raised = dict(net.psi)
        if raised[target] >= 1.0:
            continue
        raised[target] = min(1.0, raised[target] + 0.5)
        bumped = fixed_point_oracle(g, lam, raised)
        for i, value in net.theta.items():
            assert bumped[i] >= value - 1e-8


def test_oracle_sweep_cap_diagnostic():
    g = graph_of([("s", "a"), ("a", "b"), ("b", "a")])
    lam = np.ones(g.node_count)
    psi = {g.index("s"): 1.0}
    with pytest.raises(SolverError):
        fixed_point_oracle(g, lam, psi, sweeps=2)


def test_gmres_path_matches_dense():
    g, lam, psi, measured = random_instance(seed=500, n_lo=150, n_hi=150)
    full_psi, _ = preprocess_wellposed(g, lam, psi, measured)
    system = assemble_system(g, lam, full_psi)
    dense = solve_equilibrium(system, dense_cutoff=500)
    sparse = solve_equilibrium(system, dense_cutoff=10)
    assert sparse.method == "gmres"
    for i, value in dense.theta.items():
        assert sparse.theta[i] == pytest.approx(value, abs=1e-8)
    assert sparse.residual_norm <= 1e-10

    # solve_network picks the path by size alone: dense up to 500 unknowns, GMRES above
    for n, method in ((150, "dense"), (1000, "gmres")):
        g, lam, psi, measured = random_instance(seed=501, n_lo=n, n_hi=n)
        net = solve_network(g, lam, psi, measured)
        assert net.solution.method == method
        assert (len(net.theta) > 500) == (method == "gmres")
        oracle = fixed_point_oracle(g, lam, net.psi)
        for i, value in net.theta.items():
            assert oracle[i] == pytest.approx(value, abs=1e-8)
