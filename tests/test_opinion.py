import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import botimpact.opinion as opinion_module
from botimpact.opinion import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    STUBBORN_HIGH_PCT,
    STUBBORN_LOW_PCT,
    AssemblyError,
    LinearSystem,
    SolverError,
    assemble_system,
    identify_stubborn,
    percentile_cuts,
    preprocess_wellposed,
    solve_equilibrium,
    solve_network,
)

from conftest import graph_of, random_instance, solver_inputs
from oracles import OracleError, fixed_point_oracle


def test_norm_is_numpys_norm_bit_for_bit():
    rng = np.random.default_rng(7)
    for size in [0, 1, 2, 2000, *rng.integers(0, 2001, size=60)]:
        v = rng.standard_normal(size) * 10.0 ** rng.integers(-150, 151)
        assert np.float64(opinion_module._norm(v)).tobytes() == np.linalg.norm(v).tobytes()


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
    fixed = identify_stubborn(opinion, np.zeros(100, dtype=bool), np.ones(100, dtype=bool))
    assert fixed.dtype == bool
    assert fixed.tolist() == [True] * 10 + [False] * 80 + [True] * 10


def test_identify_stubborn_bot_rule():
    bot = np.zeros(21, dtype=bool)
    bot[7] = True
    fixed = identify_stubborn(np.full(21, 0.5), bot, np.ones(21, dtype=bool))
    assert np.flatnonzero(fixed).tolist() == [7]


def test_identify_stubborn_cuts_over_the_scored_accounts_only():
    # 20 scored accounts at 0.00..0.95 and 80 unscored at the 0.5 placeholder:
    # over every account the cuts would be 0.5 and 0.5, and 18 scored humans
    # would be stubborn; over the scored ones they are 0.10 and 0.85
    scored = np.array([True] * 20 + [False] * 80)
    opinion = np.where(scored, np.arange(100) / 20, 0.5)
    bot = np.zeros(100, dtype=bool)
    bot[[5, 20]] = True  # a scored bot inside the cuts and an unscored bot
    fixed = identify_stubborn(opinion, bot, scored)
    assert percentile_cuts(opinion[scored], STUBBORN_LOW_PCT, STUBBORN_HIGH_PCT) == (0.1, 0.85)
    assert np.flatnonzero(fixed).tolist() == [0, 1, 5, 18, 19, 20]
    # an unscored human is never stubborn, even where 0.5 lies below the low cut
    high = np.where(scored, 0.6 + np.arange(100) / 100, 0.5)
    assert np.flatnonzero(identify_stubborn(high, bot, scored) & ~scored).tolist() == [20]
    # with no scored account the set is the bots alone
    none = np.zeros(100, dtype=bool)
    assert np.flatnonzero(identify_stubborn(opinion, bot, none)).tolist() == [5, 20]


def test_identify_stubborn_flags_all_stubborn(caplog):
    with caplog.at_level("WARNING", logger="botimpact.opinion"):
        assert identify_stubborn(np.array([0.0, 1.0]), np.ones(2, dtype=bool),
                                 np.ones(2, dtype=bool)).all()
    assert "every account is stubborn" in caplog.text


def test_percentile_cuts_distinct_values():
    values = [i / 10 for i in range(1, 11)]
    low, high = percentile_cuts(values, 0.10, 0.90)
    assert low == pytest.approx(0.2)
    assert high == pytest.approx(0.9)


def test_percentile_cuts_extreme_thresholds_disable():
    opinion = np.arange(10) / 9
    low, high = percentile_cuts(opinion, 0.0, 1.0)
    assert not ((opinion < low) | (opinion > high)).any()
    # no opinion at all: nothing is extreme either
    assert percentile_cuts(np.array([]), STUBBORN_LOW_PCT, STUBBORN_HIGH_PCT) == (-np.inf, np.inf)


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
    inputs = _assembly_inputs(g, lam, {"k": 0.25, "s": 0.0})
    system = assemble_system(*inputs)
    row = list(system.v1).index(g.labels.index("i"))
    col_j = list(system.v1).index(g.labels.index("j"))
    G = system.G.toarray()
    assert G[row, row] == pytest.approx(-4.0)
    assert G[row, col_j] == pytest.approx(1.0)
    assert system.b[row] == -3.0 * inputs[4][g.labels.index("k")]


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
    G = system.G.toarray()
    row_of = {int(node): row for row, node in enumerate(system.v1)}
    stubborn_mass = np.zeros(G.shape[0])  # rates of each row's stubborn followings
    for s, t in zip(src.tolist(), tgt.tolist()):
        if final[s] and not final[t]:
            stubborn_mass[row_of[t]] += lam[s]
    assert stubborn_mass.any()
    for row in range(G.shape[0]):
        lhs = abs(G[row, row])
        rhs = (G[row].sum() - G[row, row]) + stubborn_mass[row]
        assert lhs == pytest.approx(rhs, abs=1e-9)


def _long_row_instances():
    """Six networks of 400 nodes whose rows have 0-300 in-edges, rates over six
    decades: numpy's pairwise sum differs from the left-to-right one from 8
    terms on, so these pin a rounding rule."""
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
        yield src, tgt, rates, fixed, rng.random(n)


def test_diagonal_adds_each_row_left_to_right_in_source_order():
    long_rows = 0
    for src, tgt, rates, fixed, anchor in _long_row_instances():
        in_degree = np.bincount(tgt, minlength=fixed.size)
        system = assemble_system(src, tgt, rates, fixed, anchor)
        diagonal = system.G.diagonal()
        for row, node in enumerate(system.v1.tolist()):
            total = 0.0
            for s in src[tgt == node].tolist():  # ascending: the edges are sorted
                total += float(rates[s])
            assert diagonal[row] == -total
            long_rows += in_degree[node] >= 8
    assert long_rows > 1000


def test_b_adds_each_row_in_source_order():
    # b must round as the product F @ psi of the stubborn-column matrix F by
    # columns does: each row adds its stubborn terms in source order
    long_rows = 0
    for src, tgt, rates, fixed, anchor in _long_row_instances():
        system = assemble_system(src, tgt, rates, fixed, anchor)
        v0 = np.flatnonzero(fixed)
        row, column = np.cumsum(~fixed) - 1, np.cumsum(fixed) - 1
        stub = fixed[src] & ~fixed[tgt]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(column[src[stub]],
                                                            minlength=v0.size))))
        F = sp.csc_matrix((-rates[src[stub]], row[tgt[stub]], indptr),
                          shape=(system.v1.size, v0.size))
        assert system.b.tobytes() == (F @ anchor[v0]).tobytes()
        long_rows += int(np.count_nonzero(np.diff(F.tocsr().indptr) >= 8))
    assert long_rows > 1000


def test_hull_leaves_out_zero_rate_stubborn_nodes():
    # z is stubborn but posts nothing, so it sways no one and does not widen the hull
    g = graph_of([("s", "i"), ("z", "i")])
    lam = np.ones(g.node_count)
    lam[g.labels.index("z")] = 0.0
    system = assemble_system(*_assembly_inputs(g, lam, {"s": 0.4, "z": 0.9}))
    assert system.psi_values.tolist() == [0.4]


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
    with pytest.raises(OracleError):
        fixed_point_oracle(src, tgt, lam, fixed, anchor, sweeps=2)


def test_iterative_path_matches_dense(monkeypatch):
    g, lam, fixed, anchor = random_instance(seed=500, n_lo=150, n_hi=150)
    src, tgt, _ = g.edge_arrays()
    final, _ = preprocess_wellposed(src, tgt, lam, fixed)
    system = assemble_system(src, tgt, lam, final, anchor)
    solution = solve_equilibrium(system)
    assert solution.method == "bicgstab"
    dense = np.linalg.solve(system.G.toarray(), system.b)
    assert np.abs(solution.theta - dense).max() <= 1e-10
    assert solution.residual_norm <= 1e-10

    # solve_network takes the one path at every size
    solutions = []

    def recording(system):
        solutions.append(solve_equilibrium(system))
        return solutions[-1]

    monkeypatch.setattr(opinion_module, "solve_equilibrium", recording)
    for n in (150, 1000):
        g, lam, fixed, anchor = random_instance(seed=501, n_lo=n, n_hi=n)
        solutions.clear()
        opinion, final = _solve(g, lam, fixed, anchor)
        assert [solution.method for solution in solutions] == ["bicgstab"]
        assert solutions[0].iterations > 0
        assert solutions[0].residual_norm <= 1e-10
        oracle = _oracle(g, lam, final, anchor)
        for i in np.flatnonzero(~final):
            assert oracle[i] == pytest.approx(opinion[i], abs=1e-8)


def test_kernel_repeats_scipy_bicgstab():
    # scipy with the kernel's preconditioner, start and tolerances; no system here
    # breaks down, so both take the same steps
    for seed in range(8):
        g, lam, fixed, anchor = random_instance(seed=600 + seed, n_lo=20, n_hi=600)
        src, tgt, _ = g.edge_arrays()
        final, _ = preprocess_wellposed(src, tgt, lam, fixed)
        system = assemble_system(src, tgt, lam, final, anchor)
        G, b = system.G, system.b
        steps = []
        expected, info = spla.bicgstab(
            G, b, x0=np.full(b.size, 0.5), M=sp.diags(1.0 / G.diagonal()), rtol=1e-12,
            atol=1e-12 * np.linalg.norm(b), maxiter=DEFAULT_MAX_ITER, callback=steps.append,
        )
        assert info == 0
        theta, iterations, residual = opinion_module._bicgstab(G, b, DEFAULT_TOL,
                                                               DEFAULT_MAX_ITER)
        assert iterations == len(steps) > 0
        assert residual == np.linalg.norm(b - G @ theta) / np.linalg.norm(b) < DEFAULT_TOL
        assert np.abs(theta - expected).max() <= 1e-13


def _system_of(src, tgt, rates, fixed, anchor):
    """(G, b) of a network given as lists."""
    system = assemble_system(*(np.asarray(column) for column in (src, tgt, rates, fixed, anchor)))
    return system.G, system.b


def _random_system():
    """(G, b) of a preprocessed random instance of 150 nodes."""
    g, lam, fixed, anchor = random_instance(seed=500, n_lo=150, n_hi=150)
    src, tgt, _ = g.edge_arrays()
    final, _ = preprocess_wellposed(src, tgt, lam, fixed)
    return _system_of(src, tgt, lam, final, anchor)


# s -> a -> b -> c: after one step the residual has left a for b and c, where the
# shadow residual is 0, so rho = 0 (scipy's bicgstab returns -10 here)
_CHAIN = [3, 0, 1], [0, 1, 2], [1.0] * 4, [False] * 3 + [True], [0.5, 0.5, 0.5, 0.8]
# a follows the stubborn s at rate 0.5, b follows s and a at rate 1: G's rows are
# (-0.5, 0) and (1, -1.5), the start's residual is a multiple of (1, 1), and
# rtilde.v = r0 . G diag(G)^-1 r0 = 0 in exact arithmetic; scipy's bicgstab gets
# about 1e-18, takes a huge step and returns info 0 with a residual of order 1
_PAIR = [0, 2, 2], [1, 0, 1], [1.0, 0.5, 0.5], [False, False, True], [0.5, 0.5, 0.8]
# not an M-matrix: omega = 0 after one step, and rtilde.v = 0 right after that restart
_OMEGA = (sp.csr_matrix([[1.0, -2.0, 0.0], [1.0, -1.0, 1.0], [0.0, -1.0, 2.0]]),
          np.array([0.0, 1.0, 0.5]))


@pytest.mark.parametrize(
    "G, b",
    [
        _system_of(*_CHAIN),
        _system_of(*_PAIR),
        # rho = 0 after one step, and rtilde.v = 0 right after that restart
        _system_of([0, 0, 1, 2, 3], [1, 2, 2, 0, 0], [0.5, 1.0, 1.0, 1.0], [False] * 3 + [True],
                   [0.5, 0.5, 0.5, 0.45]),
        # rtilde.v = 0 after one step
        _system_of([0, 0, 1, 1, 1, 2, 3, 3, 4], [1, 2, 0, 2, 3, 0, 0, 1, 0],
                   [20.0, 0.5, 0.5, 0.5, 0.5], [False] * 4 + [True], [0.5] * 4 + [0.9]),
        _OMEGA,
    ],
    ids=["rho", "rtilde.v at the start", "rho then rtilde.v", "rtilde.v", "omega then rtilde.v"],
)
def test_kernel_restarts_where_bicgstab_breaks_down(G, b):
    theta, _, _ = opinion_module._bicgstab(G, b, DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert np.abs(theta - np.linalg.solve(G.toarray(), b)).max() <= 1e-10


_SHAPES = ("random", "near-diagonal", "block-diagonal")


def _small_network(n, shape, seed, zero_rhs):
    """A network of n non-stubborn followers of 1-3 stubborn accounts (n .. n+k-1),
    with the rates of humans and bots, so its system is an M-matrix.

    Each follower's first following is a stubborn account or an earlier follower
    of its block, so every follower reaches a stubborn account and preprocessing
    keeps all n.  "near-diagonal" adds no other following, so most rows are
    diagonal and the rest chains; "block-diagonal" adds followings inside blocks,
    "random" anywhere.  With ``zero_rhs`` every stubborn opinion is 0, so b = 0.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    cuts = [0, n]
    if shape == "block-diagonal" and n > 1:
        cuts[1:1] = sorted(rng.choice(np.arange(1, n), size=min(n - 1, 3), replace=False).tolist())
    pairs = set()
    for lo, hi in zip(cuts, cuts[1:]):
        others = {"random": np.arange(n + k), "block-diagonal": np.arange(lo, hi)}.get(shape)
        for i in range(lo, hi):
            if i == lo or rng.random() < (0.6 if shape == "near-diagonal" else 0.3):
                pairs.add((n + int(rng.integers(k)), i))
            else:
                pairs.add((int(rng.integers(lo, i)), i))
            if others is not None:
                size = min(others.size, int(rng.integers(0, 4)))
                pairs.update((int(j), i) for j in rng.choice(others, size, replace=False) if j != i)
    src, tgt = np.array(sorted(pairs), dtype=np.int64).T
    rates = rng.choice([0.5, 1.0, 1.5, 20.0], size=n + k)
    fixed = np.arange(n + k) >= n
    anchor = np.where(fixed, 0.0 if zero_rhs else rng.random(n + k), 0.5)
    return src, tgt, rates, fixed, anchor


@given(st.integers(1, 20), st.sampled_from(_SHAPES), st.integers(0, 2**32 - 1), st.booleans())
@example(15, "near-diagonal", 0, False)  # rho = 0 at iteration 1, as on a pipeline day
@example(16, "random", 113, False)  # the recursive residual drifts 1e-10 from the true one
@example(4, "random", 921475591, False)  # rho = 1.4e-17 of its factors, above eps**2
@settings(max_examples=200, deadline=None)
def test_kernel_agrees_with_dense_lu_on_small_m_matrices(n, shape, seed, zero_rhs):
    src, tgt, rates, fixed, anchor = _small_network(n, shape, seed, zero_rhs)
    assert preprocess_wellposed(src, tgt, rates, fixed)[0].tolist() == fixed.tolist()
    system = assemble_system(src, tgt, rates, fixed, anchor)
    G, b = system.G.toarray(), system.b
    theta, _, residual = opinion_module._bicgstab(system.G, b, DEFAULT_TOL, DEFAULT_MAX_ITER)
    if zero_rhs:
        assert not theta.any() and residual == 0.0
    assert np.linalg.norm(G @ theta - b) <= DEFAULT_TOL * np.linalg.norm(b)
    # the stop rule bounds the residual at 1e-12 of b, so the error bound grows
    # with the condition number: 1e-10 up to 100
    bound = 1e-10 * max(1.0, np.linalg.cond(G) / 100)
    assert np.abs(theta - np.linalg.solve(G, b)).max() <= bound


@pytest.mark.parametrize(
    "system, max_iter, message",
    [
        (_random_system(), 2, "bicgstab did not converge in 2 iterations"),
        (_system_of(*_CHAIN), 2,
         "bicgstab did not converge in 2 iterations, last restarted at iteration 1 on rho"),
        (_OMEGA, 2,
         "bicgstab did not converge in 2 iterations, last restarted at iteration 1 on omega"),
    ],
    ids=["no convergence", "rho breakdown", "omega breakdown"],
)
def test_iterative_solver_failure_says_what_happened(system, max_iter, message):
    G, b = system
    with pytest.raises(SolverError) as caught:
        solve_equilibrium(LinearSystem(G, b, np.arange(b.size), np.array([])), max_iter=max_iter)
    assert str(caught.value) == message
