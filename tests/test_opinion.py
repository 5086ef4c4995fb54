import numpy as np
import pytest

import botimpact.opinion as opinion_module
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

from conftest import graph_of, random_instance, solver_inputs


def _solve(graph, lam, fixed, anchor):
    """(equilibrium opinion per node, final stubborn mask) on ``graph``."""
    src, tgt, _ = graph.edge_arrays()
    return solve_network(src, tgt, np.asarray(lam, dtype=float), fixed, anchor)


def _oracle(graph, lam, fixed, anchor):
    src, tgt, _ = graph.edge_arrays()
    return fixed_point_oracle(src, tgt, lam, fixed, anchor)


# -- stubborn identification -----------------------------------------------------


def test_identify_stubborn_extreme_tails():
    # frozen from the sorted-order-statistic rule: cuts land on 0.5, so the
    # 0.0 and 1.0 blocks are strictly outside and become stubborn
    opinion = np.array([0.0] * 10 + [0.5] * 80 + [1.0] * 10)
    fixed = identify_stubborn(opinion, np.zeros(100, dtype=bool))
    assert fixed.dtype == bool
    assert fixed.tolist() == [True] * 10 + [False] * 80 + [True] * 10


def test_identify_stubborn_bot_rule():
    bot = np.zeros(21, dtype=bool)
    bot[7] = True
    assert np.flatnonzero(identify_stubborn(np.full(21, 0.5), bot)).tolist() == [7]


def test_identify_stubborn_extreme_thresholds_disable():
    opinion = np.arange(10) / 9
    fixed = identify_stubborn(opinion, np.zeros(10, dtype=bool), low_pct=0.0, high_pct=1.0)
    assert not fixed.any()


def test_identify_stubborn_flags_all_stubborn(caplog):
    with caplog.at_level("WARNING", logger="botimpact.opinion"):
        assert identify_stubborn(np.array([0.0, 1.0]), np.ones(2, dtype=bool)).all()
    assert "every account is stubborn" in caplog.text


def test_percentile_cuts_distinct_values():
    values = [i / 10 for i in range(1, 11)]
    low, high = percentile_cuts(values, 0.10, 0.90)
    assert low == pytest.approx(0.2)
    assert high == pytest.approx(0.9)


# -- preprocess -------------------------------------------------------------------


def test_preprocess_isolated_node_reclassified():
    g = graph_of([("s", "a")], nodes=["iso"])
    lam = np.ones(g.node_count)
    src, tgt, fixed, anchor = solver_inputs(g, {"s": 1.0})
    anchor[g.labels.index("iso")] = 0.3
    stubborn, report = preprocess_wellposed(src, tgt, lam, fixed)
    assert stubborn[g.labels.index("iso")]
    assert g.labels.index("iso") in report.no_rated_following
    assert not stubborn[g.labels.index("a")]
    # the reclassified node is held at its anchor, the measured opinion
    opinion, _ = _solve(g, lam, fixed, anchor)
    assert opinion[g.labels.index("iso")] == 0.3


def test_preprocess_closed_pair_reclassified():
    # x and y follow only each other; stubborn s is unreachable from them
    g = graph_of([("x", "y"), ("y", "x"), ("s", "a"), ("a", "s")])
    lam = np.ones(g.node_count)
    src, tgt, fixed, _ = solver_inputs(g, {"s": 1.0}, 0.25)
    stubborn, report = preprocess_wellposed(src, tgt, lam, fixed)
    assert stubborn[g.labels.index("x")] and stubborn[g.labels.index("y")]
    assert set(report.unreachable) == {g.labels.index("x"), g.labels.index("y")}
    assert not stubborn[g.labels.index("a")]


def test_preprocess_connected_instance_unchanged():
    g = graph_of([("s", "a"), ("a", "b"), ("b", "c")])
    lam = np.ones(g.node_count)
    src, tgt, fixed, _ = solver_inputs(g, {"s": 1.0})
    stubborn, report = preprocess_wellposed(src, tgt, lam, fixed)
    assert np.array_equal(stubborn, fixed)
    assert not report.reclassified


def test_preprocess_zero_rate_chain_reclassified():
    # b follows only zero-rate j; influence cannot travel through j
    g = graph_of([("s", "j"), ("j", "b")])
    lam = np.zeros(g.node_count)
    lam[g.labels.index("s")] = 1.0
    lam[g.labels.index("b")] = 1.0
    src, tgt, fixed, _ = solver_inputs(g, {"s": 1.0})
    stubborn, report = preprocess_wellposed(src, tgt, lam, fixed)
    assert stubborn[g.labels.index("b")]  # only following has rate zero
    assert not stubborn[g.labels.index("j")]  # j follows s, which has positive rate


def _reclassified_by_search(g, lam, psi):  # psi: the stubborn node indices
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
        lam[[g.labels.index(a) for a in ("s", "m", "x1", "y1", "x2", "y2", "x3", "y3")]] = 1.0
        lam[[g.labels.index("z"), g.labels.index("t")]] = 0.0
        stubborn = [i for i in range(g.node_count) if rng.random() < 0.2]
        stubborn += [g.labels.index(a) for a in ("s", "t", "m")]
        psi = {i: float(rng.integers(0, 2)) for i in stubborn}
        for a in ("z", "x1", "y1", "x2", "y2", "x3", "y3"):
            psi.pop(g.labels.index(a), None)
        fixed = np.zeros(g.node_count, dtype=bool)
        fixed[list(psi)] = True

        src, tgt, _ = g.edge_arrays()
        final, report = preprocess_wellposed(src, tgt, lam, fixed)
        no_rated, unreachable = _reclassified_by_search(g, lam, psi)
        assert report.no_rated_following == no_rated
        assert report.unreachable == unreachable
        assert np.flatnonzero(final).tolist() == sorted({*psi, *no_rated, *unreachable})
        assert {g.labels.index(a) for a in ("x1", "y1", "x2", "y2")} <= set(unreachable)
        assert not final[g.labels.index("x3")]
        unreachable_total += len(unreachable)
    assert unreachable_total > 4 * 150  # more than the gadgets alone


# -- assembly ----------------------------------------------------------------------


def _assembly_inputs(g, lam, psi):
    src, tgt, fixed, anchor = solver_inputs(g, psi)
    return src, tgt, lam, fixed, anchor


def test_assemble_one_by_one_system():
    g = graph_of([("j", "i")])
    lam = np.zeros(2)
    lam[g.labels.index("j")] = 2.0
    system = assemble_system(*_assembly_inputs(g, lam, {"j": 1.0}))
    assert system.G.toarray() == pytest.approx(np.array([[-2.0]]))
    assert system.b == pytest.approx(np.array([-2.0]))


def test_assemble_mixed_row():
    # i follows j in V1 (lam 1) and k in V0 (lam 3)
    g = graph_of([("j", "i"), ("k", "i"), ("s", "j")])
    lam = np.zeros(g.node_count)
    lam[g.labels.index("j")] = 1.0
    lam[g.labels.index("k")] = 3.0
    lam[g.labels.index("s")] = 1.0
    inputs = _assembly_inputs(g, lam, {"k": 1.0, "s": 0.0})
    system = assemble_system(*inputs)
    row = list(system.v1).index(g.labels.index("i"))
    col_j = list(system.v1).index(g.labels.index("j"))
    G = system.G.toarray()
    assert G[row, row] == pytest.approx(-4.0)
    assert G[row, col_j] == pytest.approx(1.0)
    col_k = list(np.flatnonzero(inputs[3])).index(g.labels.index("k"))  # F's columns
    assert system.F.toarray()[row, col_k] == pytest.approx(-3.0)


def test_assemble_rejects_unpreprocessed_degenerate_node():
    g = graph_of([("s", "a")], nodes=["iso"])
    lam = np.ones(g.node_count)
    with pytest.raises(AssemblyError):
        assemble_system(*_assembly_inputs(g, lam, {"s": 1.0}))


def test_row_balance_on_random_graph():
    g, lam, fixed, anchor = random_instance(seed=50, n_lo=50, n_hi=50)
    src, tgt, _ = g.edge_arrays()
    final, _ = preprocess_wellposed(src, tgt, lam, fixed)
    system = assemble_system(src, tgt, lam, final, anchor)
    G, F = system.G.toarray(), system.F.toarray()
    for row in range(G.shape[0]):
        lhs = abs(G[row, row])
        rhs = (G[row].sum() - G[row, row]) + np.abs(F[row]).sum()
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_diagonal_adds_each_row_left_to_right_in_source_order():
    # rows of 0-300 in-edges, rates over six decades: numpy's pairwise sum differs
    # from the left-to-right one from 8 terms on, so this pins the rounding rule
    long_rows = 0
    for seed in range(6):
        rng = np.random.default_rng(4000 + seed)
        n = 400
        rates = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        pairs = []
        for target in range(n):
            sources = rng.choice(n - 1, size=int(rng.integers(0, 301)), replace=False)
            pairs += [(int(s) + (s >= target), target) for s in sources]  # no self-loops
        src, tgt = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T
        in_degree = np.bincount(tgt, minlength=n)
        fixed = (in_degree == 0) | (rng.random(n) < 0.2)
        system = assemble_system(src, tgt, rates, fixed, rng.random(n))
        diagonal = system.G.diagonal()
        for row, node in enumerate(system.v1.tolist()):
            total = 0.0
            for s in src[tgt == node].tolist():  # ascending: the edges are sorted
                total += float(rates[s])
            assert diagonal[row] == -total
            long_rows += in_degree[node] >= 8
    assert long_rows > 1000


# -- solving -----------------------------------------------------------------------


def test_single_follower_absorbs_stubborn_opinion():
    g = graph_of([("j", "i")])
    lam = np.zeros(2)
    lam[g.labels.index("j")] = 2.0
    _, _, fixed, anchor = solver_inputs(g, {"j": 1.0})
    opinion, _ = _solve(g, lam, fixed, anchor)
    assert opinion[g.labels.index("i")] == pytest.approx(1.0, abs=1e-12)


def test_weighted_average_of_two_stubborn_sources():
    g = graph_of([("a", "b"), ("c", "b")])
    lam = np.zeros(3)
    lam[g.labels.index("a")] = 1.0
    lam[g.labels.index("c")] = 3.0
    _, _, fixed, anchor = solver_inputs(g, {"a": 0.0, "c": 1.0})
    opinion, _ = _solve(g, lam, fixed, anchor)
    oracle = _oracle(g, lam, fixed, anchor)
    assert opinion[g.labels.index("b")] == pytest.approx(0.75, abs=1e-10)
    assert oracle[g.labels.index("b")] == pytest.approx(0.75, abs=1e-10)


def test_chain_example():
    # b follows a (psi=0); c follows b and d (psi=1); all rates 1
    g = graph_of([("a", "b"), ("b", "c"), ("d", "c")])
    lam = np.ones(g.node_count)
    _, _, fixed, anchor = solver_inputs(g, {"a": 0.0, "d": 1.0})
    opinion, _ = _solve(g, lam, fixed, anchor)
    oracle = _oracle(g, lam, fixed, anchor)
    assert opinion[g.labels.index("b")] == pytest.approx(0.0, abs=1e-10)
    assert opinion[g.labels.index("c")] == pytest.approx(0.5, abs=1e-10)
    assert oracle[g.labels.index("b")] == pytest.approx(0.0, abs=1e-10)
    assert oracle[g.labels.index("c")] == pytest.approx(0.5, abs=1e-10)


def test_consensus_absorption():
    g, lam, fixed, anchor = random_instance(seed=11, n_lo=30, n_hi=30)
    anchor[fixed] = 0.7
    opinion, final = _solve(g, lam, fixed, anchor)
    for value in opinion[~final]:
        assert value == pytest.approx(0.7, abs=1e-9)


def test_oracle_rate_scale_invariance():
    g, lam, fixed, anchor = random_instance(seed=13, n_lo=40, n_hi=40)
    src, tgt, _ = g.edge_arrays()
    final, _ = preprocess_wellposed(src, tgt, lam, fixed)
    base = _oracle(g, lam, final, anchor)
    scaled = _oracle(g, lam * 7.0, final, anchor)
    for i in np.flatnonzero(~final):
        assert scaled[i] == pytest.approx(base[i], abs=1e-9)


def test_solver_rate_scale_invariance():
    g, lam, fixed, anchor = random_instance(seed=14, n_lo=60, n_hi=60)
    base, final = _solve(g, lam, fixed, anchor)
    scaled, _ = _solve(g, lam * 3.0, fixed, anchor)
    for i in np.flatnonzero(~final):
        assert scaled[i] == pytest.approx(base[i], abs=1e-8)


def test_maximum_principle_enforced_on_solve():
    for seed in range(5):
        g, lam, fixed, anchor = random_instance(seed=100 + seed, n_lo=10, n_hi=80)
        opinion, final = _solve(g, lam, fixed, anchor)
        if final.all():
            continue
        lo = anchor[final].min()
        hi = anchor[final].max()
        for value in opinion[~final]:
            assert lo - 1e-9 <= value <= hi + 1e-9


def test_solver_oracle_agreement_sample():
    for seed in range(20):
        g, lam, fixed, anchor = random_instance(seed=200 + seed)
        opinion, final = _solve(g, lam, fixed, anchor)
        oracle = _oracle(g, lam, final, anchor)
        assert np.array_equal(oracle[final], opinion[final])
        for i in np.flatnonzero(~final):
            assert opinion[i] == pytest.approx(oracle[i], abs=1e-8)


def test_monotone_in_stubborn_opinion():
    rng = np.random.default_rng(0)
    for seed in range(8):
        g, lam, fixed, anchor = random_instance(seed=300 + seed, n_lo=30, n_hi=30)
        opinion, final = _solve(g, lam, fixed, anchor)
        if final.all():
            continue
        target = int(rng.choice(np.flatnonzero(final)))
        if anchor[target] >= 1.0:
            continue
        raised = anchor.copy()
        raised[target] = min(1.0, raised[target] + 0.5)
        bumped = _oracle(g, lam, final, raised)
        for i in np.flatnonzero(~final):
            assert bumped[i] >= opinion[i] - 1e-8


def test_oracle_sweep_cap_diagnostic():
    g = graph_of([("s", "a"), ("a", "b"), ("b", "a")])
    lam = np.ones(g.node_count)
    src, tgt, fixed, anchor = solver_inputs(g, {"s": 1.0})
    with pytest.raises(SolverError):
        fixed_point_oracle(src, tgt, lam, fixed, anchor, sweeps=2)


def test_iterative_path_matches_dense(monkeypatch):
    g, lam, fixed, anchor = random_instance(seed=500, n_lo=150, n_hi=150)
    src, tgt, _ = g.edge_arrays()
    final, _ = preprocess_wellposed(src, tgt, lam, fixed)
    system = assemble_system(src, tgt, lam, final, anchor)
    dense = solve_equilibrium(system, dense_cutoff=500)
    sparse = solve_equilibrium(system, dense_cutoff=10)
    assert sparse.method == "bicgstab"
    for i, value in enumerate(dense.theta):
        assert sparse.theta[i] == pytest.approx(value, abs=1e-8)
    assert sparse.residual_norm <= 1e-10

    # solve_network picks the path by size alone: dense up to 500 unknowns, BiCGSTAB above
    solutions = []

    def recording(system):
        solutions.append(solve_equilibrium(system))
        return solutions[-1]

    monkeypatch.setattr(opinion_module, "solve_equilibrium", recording)
    for n, method in ((150, "dense"), (1000, "bicgstab")):
        g, lam, fixed, anchor = random_instance(seed=501, n_lo=n, n_hi=n)
        solutions.clear()
        opinion, final = _solve(g, lam, fixed, anchor)
        assert [solution.method for solution in solutions] == [method]
        assert (np.count_nonzero(~final) > 500) == (method == "bicgstab")
        if method == "bicgstab":
            assert solutions[0].iterations > 0
            assert solutions[0].residual_norm <= 1e-10
        oracle = _oracle(g, lam, final, anchor)
        for i in np.flatnonzero(~final):
            assert oracle[i] == pytest.approx(opinion[i], abs=1e-8)


@pytest.mark.parametrize(
    "info, message",
    [
        (5000, "bicgstab did not converge in 5000 iterations"),
        (-10, "bicgstab broke down with code -10"),
        (-11, "bicgstab broke down with code -11"),
    ],
    ids=["no convergence", "rho breakdown", "omega breakdown"],
)
def test_iterative_solver_failure_says_what_happened(monkeypatch, info, message):
    g, lam, fixed, anchor = random_instance(seed=500, n_lo=150, n_hi=150)
    src, tgt, _ = g.edge_arrays()
    final, _ = preprocess_wellposed(src, tgt, lam, fixed)
    system = assemble_system(src, tgt, lam, final, anchor)
    monkeypatch.setattr(opinion_module.spla, "bicgstab", lambda A, b, x0, **kw: (x0, info))
    with pytest.raises(SolverError) as caught:
        solve_equilibrium(system, dense_cutoff=10)
    assert str(caught.value) == message
