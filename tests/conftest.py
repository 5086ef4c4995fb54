"""Shared fixtures and independent test oracles."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import rankdata

from botimpact.graph import DirectedGraph


def graph_of(edges, nodes=()) -> DirectedGraph:
    """Build a graph from (source, target[, weight]) tuples plus extra nodes."""
    g = DirectedGraph()
    for n in nodes:
        g.add_node(n)
    for edge in edges:
        if len(edge) == 2:
            g.add_interaction(edge[0], edge[1])
        else:
            g.add_interaction(edge[0], edge[1], edge[2])
    return g


def edge_dict(g: DirectedGraph) -> dict[tuple[str, str], float]:
    """{(source id, target id): weight}, read from ``edge_arrays()``."""
    src, tgt, w = g.edge_arrays()
    return {
        (g.labels[u], g.labels[v]): weight
        for u, v, weight in zip(src.tolist(), tgt.tolist(), w.tolist())
    }


def column_edges(columns, accounts) -> dict[tuple[str, str], float]:
    """{(source id, target id): weight} of a network's ``[nodes, sources, targets,
    weights]`` over the account list ``accounts``."""
    nodes, src, tgt, w = (column.tolist() for column in columns)
    return {
        (accounts[nodes[u]], accounts[nodes[v]]): weight
        for u, v, weight in zip(src, tgt, w)
    }


def network_graph(columns, accounts) -> DirectedGraph:
    """A network's columns as a graph labelled by account ids: the node order and
    edges of the graph ``load_edge_list`` returns, which is labelled by positions."""
    edges = [(u, v, w) for (u, v), w in column_edges(columns, accounts).items()]
    return graph_of(edges, nodes=[accounts[i] for i in columns[0].tolist()])


def random_instance(seed: int, n_lo: int = 10, n_hi: int = 200):
    """Random opinion-dynamics instance: graph, rates, stubborn mask, anchor.

    Stubborn opinions are drawn from {0, 1} and other anchors (the measured
    opinions) from [0, 1); rates from (0, 10]; between 20% and 40% of nodes
    are stubborn.  Degenerate nodes are left in on purpose: preprocessing is
    part of the solve contract.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    g = DirectedGraph()
    names = [f"n{i:03d}" for i in range(n)]
    for name in names:
        g.add_node(name)
    for i in range(n):
        for j in rng.choice(n, size=int(rng.integers(1, 6)), replace=False):
            if int(j) != i:
                # node i follows node j: edge j -> i
                g.add_interaction(names[int(j)], names[i], 1.0)
    lam = 10.0 - rng.uniform(0.0, 10.0, size=n)  # uniform is half-open, this keeps (0, 10]
    stubborn_count = max(1, int(n * rng.uniform(0.2, 0.4)))
    stubborn = rng.choice(n, size=stubborn_count, replace=False)
    psi = {int(i): float(rng.integers(0, 2)) for i in stubborn}
    anchor = rng.uniform(0.0, 1.0, size=n)
    anchor[list(psi)] = list(psi.values())
    fixed = np.zeros(n, dtype=bool)
    fixed[list(psi)] = True
    return g, lam, fixed, anchor


def solver_inputs(g: DirectedGraph, psi, measured=0.5):
    """(src, tgt, stubborn mask, anchor) for ``psi`` {account id: fixed opinion}.

    Non-stubborn anchors are ``measured``: one value, or one per node index.
    """
    src, tgt, _ = g.edge_arrays()
    fixed = np.zeros(g.node_count, dtype=bool)
    anchor = np.full(g.node_count, measured, dtype=float)
    for label, value in psi.items():
        fixed[g.labels.index(label)] = True
        anchor[g.labels.index(label)] = value
    return src, tgt, fixed, anchor


def auc_score(scores_pos, scores_neg) -> float:
    """Tie-aware area under the ROC curve (Mann-Whitney form)."""
    pos = np.asarray(scores_pos, dtype=float)
    neg = np.asarray(scores_neg, dtype=float)
    ranks = rankdata(np.concatenate([pos, neg]))
    u = ranks[: len(pos)].sum() - len(pos) * (len(pos) + 1) / 2.0
    return float(u / (len(pos) * len(neg)))


@pytest.fixture
def tiny_follower_graph() -> DirectedGraph:
    """Two bots with partially overlapping follower sets."""
    return graph_of(
        [
            ("botA", "f1"),
            ("botA", "f2"),
            ("botB", "f2"),
            ("botB", "f3"),
        ]
    )
