import gzip

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


def test_following_is_in_neighbors():
    g = graph_of([("j", "i", 1.0)])
    sources, weights = _following(g, g.index("i"))
    assert [g.label(int(s)) for s in sources] == ["j"]
    assert list(weights) == [1.0]
    assert _following(g, g.index("j"))[0].size == 0


def test_star_following():
    g = graph_of([("h", "s1"), ("h", "s2")])
    sources, _ = _following(g, g.index("s1"))
    assert [g.label(int(s)) for s in sources] == ["h"]
    targets, _ = g.followers_of(g.index("h"))
    assert sorted(g.label(int(t)) for t in targets) == ["s1", "s2"]


def test_unknown_node_rejected():
    g = graph_of([("a", "b")])
    with pytest.raises(GraphError):
        g.index("zz")
    with pytest.raises(GraphError):
        g.followers_of(99)


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
    names1 = {f"v{i}" for i in keep1 if f"v{i}" in g}
    names2 = {f"v{i}" for i in keep2 if f"v{i}" in g}
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
        relabeled.add_node(g.label(i))
    for (u, v), w in edge_dict(g).items():
        relabeled.add_interaction(u, v, w)
    assert np.isclose(relabeled.edge_arrays()[2].sum(), g.edge_arrays()[2].sum())


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_following_and_followers_are_transposes(g):
    for i in range(g.node_count):
        sources, _ = _following(g, i)
        for j in sources:
            targets, _ = g.followers_of(int(j))
            assert i in targets.tolist()
        targets, _ = g.followers_of(i)
        for j in targets:
            sources_j, _ = _following(g, int(j))
            assert i in sources_j.tolist()


def test_edge_list_round_trip(tmp_path):
    g = graph_of([("a", "b", 2.0), ("c", "a", 1.5)], nodes=["lonely"])
    path = tmp_path / "edges.tsv"
    save_edge_list(g, path)
    back = load_edge_list(path)
    assert back.node_count == g.node_count
    assert edge_dict(back) == {("a", "b"): 2.0, ("c", "a"): 1.5}
    assert "lonely" in back


def test_edge_list_text_format(tmp_path):
    weights = {("b", "a"): 0.1 + 0.2, ("a", "c"): 1 / 3, ("c", "a"): 2.0, ("a", "b"): 1e-7}
    g = graph_of([(u, v, w) for (u, v), w in weights.items()], nodes=["lonely", "c", "x"])
    path = tmp_path / "e.tsv"
    save_edge_list(g, path)
    # edges in index order with 12 significant digits, then isolated nodes in index order
    src, tgt, w = g.edge_arrays()
    expected = "".join(
        f"{g.label(u)}\t{g.label(v)}\t{x:.12g}\n"
        for u, v, x in zip(src.tolist(), tgt.tolist(), w.tolist())
    ) + "lonely\nx\n"
    assert path.read_text() == expected
    assert "b\ta\t0.3\n" in expected and "a\tc\t0.333333333333\n" in expected


def test_edge_list_default_weight_and_gzip(tmp_path):
    raw = "a\tb\nb\tc\t4\n"
    plain = tmp_path / "e.tsv"
    plain.write_text(raw)
    zipped = tmp_path / "e.tsv.gz"
    with gzip.open(zipped, "wt") as fh:
        fh.write(raw)
    for path in (plain, zipped):
        g = load_edge_list(path)
        assert edge_dict(g) == {("a", "b"): 1.0, ("b", "c"): 4.0}


def test_edge_list_node_order_and_repeated_lines(tmp_path):
    path = tmp_path / "e.tsv"
    path.write_text("solo\nb\ta\t0.1\nc\tb\nb\ta\t0.2\nb\ta\t0.3\n")
    g = load_edge_list(path)
    assert g.labels == ["solo", "b", "a", "c"]  # first appearance, source before target
    assert edge_dict(g) == {("b", "a"): (0.1 + 0.2) + 0.3, ("c", "b"): 1.0}  # file order


def test_edge_list_errors_name_the_line(tmp_path):
    for text, message in (("a\tb\n\na\tb\tx\n", r":3: bad weight 'x'"),
                          ("a\tb\tc\td\n", r":1: expected 1-3 tab-separated fields"),
                          ("a\ta\n", "self-loop rejected for account 'a'"),
                          ("a\tb\t0\n", "edge weight must be positive")):
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        with pytest.raises(GraphError, match=message):
            load_edge_list(path)
