import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botimpact.graph import DirectedGraph, GraphError, load_edge_list, save_edge_list

from conftest import edge_dict, graph_of


def test_parallel_interactions_accumulate():
    g = graph_of([("a", "b", 1.0), ("a", "b", 1.0)])
    assert edge_dict(g) == {("a", "b"): 2.0}
    assert g.edge_count == 1


def test_self_loop_rejected():
    g = DirectedGraph()
    with pytest.raises(GraphError):
        g.add_interaction("a", "a", 1.0)


def test_nonpositive_weight_rejected():
    g = DirectedGraph()
    with pytest.raises(GraphError):
        g.add_interaction("a", "b", 0.0)


def test_direction_preserved():
    g = graph_of([("a", "b", 3.0), ("b", "a", 1.0)])
    assert edge_dict(g) == {("a", "b"): 3.0, ("b", "a"): 1.0}
    assert g.edge_count == 2


def _following(g, i):
    """In-neighbors of node ``i`` and their weights, read from ``edge_arrays()``."""
    src, tgt, w = g.edge_arrays()
    return src[tgt == i], w[tgt == i]


def _followers(g, i):
    """Out-neighbors of node ``i`` and their weights, read from ``edge_arrays()``."""
    src, tgt, w = g.edge_arrays()
    return tgt[src == i], w[src == i]


def test_following_is_in_neighbors():
    g = graph_of([("j", "i", 1.0)])
    sources, weights = _following(g, g.labels.index("i"))
    assert [g.labels[int(s)] for s in sources] == ["j"]
    assert list(weights) == [1.0]
    assert _following(g, g.labels.index("j"))[0].size == 0


def test_star_following():
    g = graph_of([("h", "s1"), ("h", "s2")])
    sources, _ = _following(g, g.labels.index("s1"))
    assert [g.labels[int(s)] for s in sources] == ["h"]
    targets, _ = _followers(g, g.labels.index("h"))
    assert sorted(g.labels[int(t)] for t in targets) == ["s1", "s2"]


def test_unknown_node_rejected():
    g = graph_of([("a", "b")])
    with pytest.raises(GraphError, match="'zz'"):
        g.induced_subgraph(["a", "zz"])


def test_induced_subgraph_triangle():
    g = graph_of([("a", "b"), ("b", "c"), ("c", "a")])
    sub = g.induced_subgraph({"a", "b"})
    assert sub.node_count == 2
    assert sub.edge_count == 1
    assert edge_dict(sub) == {("a", "b"): 1.0}


def test_induced_subgraph_identity_and_empty():
    g = graph_of([("a", "b"), ("b", "c")])
    full = g.induced_subgraph({"a", "b", "c"})
    assert full.edge_count == g.edge_count
    assert full.node_count == g.node_count
    empty = g.induced_subgraph(set())
    assert empty.node_count == 0 and empty.edge_count == 0


def test_induced_subgraph_unknown_node_rejected():
    g = graph_of([("a", "b")])
    with pytest.raises(GraphError):
        g.induced_subgraph({"a", "nope"})


def test_mutation_after_freeze_rejected():
    g = graph_of([("a", "b")])
    g.freeze()
    with pytest.raises(GraphError):
        g.add_interaction("b", "c")


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.1, 5.0, allow_nan=False),
            ),
            max_size=40,
        )
    )
    g = DirectedGraph()
    for i in range(n):
        g.add_node(f"v{i}")
    for u, v, w in edges:
        if u != v:
            g.add_interaction(f"v{u}", f"v{v}", w)
    return g


@given(random_graphs(), st.sets(st.integers(0, 11)), st.sets(st.integers(0, 11)))
@settings(max_examples=60, deadline=None)
def test_induced_subgraph_composes_with_intersection(g, keep1, keep2):
    names1 = {f"v{i}" for i in keep1 if f"v{i}" in g.labels}
    names2 = {f"v{i}" for i in keep2 if f"v{i}" in g.labels}
    direct = g.induced_subgraph(names1 & names2)
    stepwise = g.induced_subgraph(names1).induced_subgraph(names1 & names2)
    assert direct.node_count == stepwise.node_count
    assert sorted(direct.labels) == sorted(stepwise.labels)
    assert edge_dict(direct) == edge_dict(stepwise)


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_total_weight_invariant_under_relabeling(g):
    relabeled = DirectedGraph()
    for i in reversed(range(g.node_count)):
        relabeled.add_node(g.labels[i])
    for (u, v), w in edge_dict(g).items():
        relabeled.add_interaction(u, v, w)
    assert np.isclose(relabeled.edge_arrays()[2].sum(), g.edge_arrays()[2].sum())


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_following_and_followers_are_transposes(g):
    src, tgt, w = g.edge_arrays()
    # one edge per pair, sorted by (source, target)
    keys = src * g.node_count + tgt
    assert np.all(np.diff(keys) > 0)
    assert src.dtype == tgt.dtype == np.int64 and w.dtype == np.float64
    for i in range(g.node_count):
        sources, _ = _following(g, i)
        for j in sources:
            targets, _ = _followers(g, int(j))
            assert i in targets.tolist()
        targets, _ = _followers(g, i)
        for j in targets:
            sources_j, _ = _following(g, int(j))
            assert i in sources_j.tolist()


def _columns(g, accounts):
    """The graph's four network-file columns, its nodes as positions in ``accounts``."""
    return [np.array([accounts.index(a) for a in g.labels]), *g.edge_arrays()]


def test_edge_list_round_trip(tmp_path):
    """Node order, isolated nodes and weights survive, bit for bit; the loaded
    graph is labelled by account positions."""
    g = graph_of([("a", "b", 2.0), ("c", "a", 1.5), ("a", "c", 1 / 3)], nodes=["lonely"])
    accounts = ["a", "b", "c", "lonely", "unused"]
    path = tmp_path / "net.cols"
    save_edge_list(path, _columns(g, accounts))
    back = load_edge_list(path, accounts)
    assert g.labels == ["lonely", "a", "b", "c"]
    assert back.labels.tolist() == [3, 0, 1, 2]
    for column, expected in zip(back.edge_arrays(), g.edge_arrays()):
        assert column.tolist() == expected.tolist()  # weights bit for bit


def test_edge_list_bytes_are_pinned(tmp_path):
    """Four plain .npy records; any numpy writes the same bytes for the same graph."""
    g = graph_of([("b", "a", 3.0), ("a", "c", 0.5)], nodes=["z"])
    path = tmp_path / "net.cols"
    save_edge_list(path, _columns(g, ["a", "b", "c", "z"]))
    with open(path, "rb") as fh:
        columns = [np.load(fh, allow_pickle=False).tolist() for _ in range(4)]
    assert columns == [[3, 1, 0, 2], [1, 2], [2, 3], [3.0, 0.5]]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "6193fdc01b8667c2cb99bd12c07f1659465998002b9dd88127ad4ffa4e835bd5"
    )


def _write_columns(path, nodes, src, tgt, w, node_dtype="<i8"):
    with open(path, "wb") as fh:
        for column, dtype in ((nodes, node_dtype), (src, "<i8"), (tgt, "<i8"), (w, "<f8")):
            np.save(fh, np.array(column, dtype=dtype))


def test_bad_network_files_are_refused_naming_the_file(tmp_path):
    accounts = ["a", "b", "c"]
    good = tmp_path / "good.cols"
    _write_columns(good, [0, 1, 2], [0, 1], [1, 2], [1.0, 2.0])
    assert edge_dict(load_edge_list(good, accounts)) == {(0, 1): 1.0, (1, 2): 2.0}
    data = good.read_bytes()
    cases = {
        "empty": (lambda p: p.write_bytes(b""), "not a network file"),
        "truncated": (lambda p: p.write_bytes(data[:-3]), "not a network file"),
        "cut_between_records": (lambda p: p.write_bytes(data[:data.rindex(b"\x93NUMPY")]),
                                "not a network file"),
        "text": (lambda p: p.write_text("a\tb\t1\n"), "not a network file"),
        "trailing": (lambda p: p.write_bytes(data + b"\n"), "data after the last column"),
        "int32_nodes": (lambda p: _write_columns(p, [0, 1, 2], [0], [1], [1.0], "<i4"),
                        "nodes is not a 1-d <i8 column"),
        "unequal": (lambda p: _write_columns(p, [0, 1], [0, 1], [1], [1.0]),
                    "edge columns of unequal length"),
        "unknown_account": (lambda p: _write_columns(p, [0, 3], [0], [1], [1.0]),
                            "a node outside the account list"),
        "repeated_node": (lambda p: _write_columns(p, [0, 0], [0], [1], [1.0]),
                          "a repeated node"),
        "dangling_edge": (lambda p: _write_columns(p, [0, 1], [0], [2], [1.0]),
                          "an edge to no node"),
        "self_loop": (lambda p: _write_columns(p, [0, 1], [1], [1], [1.0]), "a self-loop"),
        "zero_weight": (lambda p: _write_columns(p, [0, 1], [0], [1], [0.0]),
                        "a weight that is not positive"),
        "out_of_order": (lambda p: _write_columns(p, [0, 1, 2], [1, 0], [2, 1], [1.0, 1.0]),
                         r"edges out of \(source, target\) order"),
        "repeated_edge": (lambda p: _write_columns(p, [0, 1], [0, 0], [1, 1], [1.0, 1.0]),
                          "a repeated edge"),
    }
    for name, (write, message) in cases.items():
        path = tmp_path / f"{name}.cols"
        write(path)
        with pytest.raises(GraphError, match=f"{name}.cols: {message}"):
            load_edge_list(path, accounts)
