"""Directed weighted graphs with the information-flow edge convention.

An edge ``(u, v)`` means information flows from ``u`` to ``v``: v follows
or retweets u.  Consequently the *in*-neighbors of a node are the accounts
it follows (its "following"), and the *out*-neighbors are its followers /
retweeters.

A network is edge columns over dense node positions, ``sources``,
``targets`` and ``weights``: parallel edges summed and sorted by (source,
target), as ``merge_edges`` makes them for the build and for
``DirectedGraph.freeze``.  A network file is four ``np.save`` records of
fixed dtype (``_COLUMNS``): ``nodes``, positions in an account list kept
apart (so any string id is exact), then the three edge columns, which must
be in (source, target) order with no repeated edge.  It holds no
timestamp, and a load checks it with array operations and stores it as read.

``DirectedGraph`` puts labels on the columns: a loaded network
(``load_edge_list``) is labelled by its ``nodes`` column, the account
positions, and a small hand-built graph by the ids its edges name, added
one at a time into a dict until the graph is frozen.  ``edge_arrays()``
hands the columns out as they are; a frozen graph is immutable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class GraphError(ValueError):
    """Invalid graph construction or query."""


def merge_edges(
    n: int, src: np.ndarray, tgt: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge columns over ``n`` nodes sorted by (source, target); parallel edges
    summed in input order."""
    keys, inverse = np.unique(src * n + tgt, return_inverse=True)
    # bincount adds each edge's weights in input order, as add_interaction does
    w = np.bincount(inverse, weights=w, minlength=keys.size).astype(np.float64, copy=False)
    return (*np.divmod(keys, max(n, 1)), w)


class DirectedGraph:
    """Directed weighted graph, mutable until frozen.

    Parallel interactions accumulate into a single edge weight at
    insertion time.  Self-loops and non-positive weights are rejected.
    """

    def __init__(self) -> None:
        self._index: dict[str, int] = {}  # add_node's lookup, for graphs built by hand
        self._labels: list[str] = []
        self._edges: dict[tuple[int, int], float] | None = {}  # None once frozen
        self._columns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # by freeze()

    # -- construction ------------------------------------------------------

    def add_node(self, label: str) -> int:
        """Register an account id, returning its dense index (idempotent)."""
        idx = self._index.get(label)
        if idx is not None:
            return idx
        if self._edges is None:
            raise GraphError("graph is frozen; cannot add nodes")
        idx = len(self._labels)
        self._index[label] = idx
        self._labels.append(label)
        return idx

    def add_interaction(self, source: str, target: str, weight: float = 1.0) -> None:
        """Accumulate ``weight`` onto the edge source -> target; a self-loop or a
        non-positive weight raises GraphError."""
        if source == target:
            raise GraphError(f"self-loop rejected for account {source!r}")
        if weight <= 0:
            raise GraphError(f"edge weight must be positive, got {weight}")
        if self._edges is None:
            raise GraphError("graph is frozen; cannot add edges")
        u = self.add_node(source)
        v = self.add_node(target)
        key = (u, v)
        self._edges[key] = self._edges.get(key, 0.0) + weight

    def freeze(self) -> "DirectedGraph":
        """Build the sorted edge columns; further mutation raises."""
        if self._edges is None:
            return self
        src, tgt = np.array(list(self._edges), dtype=np.int64).reshape(-1, 2).T
        self._columns = merge_edges(self.node_count, src, tgt,
                                    np.array(list(self._edges.values()), dtype=np.float64))
        self._edges = None  # the columns are the only store from here on
        return self

    @classmethod
    def _from_arrays(
        cls, labels: Sequence, src: np.ndarray, tgt: np.ndarray, w: np.ndarray
    ) -> "DirectedGraph":
        """Frozen graph on ``labels`` (in index order; ids or positions) from edge
        columns already sorted by (source, target) with no repeated edge."""
        graph = cls()
        graph._labels = labels
        graph._columns = (src, tgt, w)
        graph._edges = None
        return graph

    # -- queries -----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return self.edge_arrays()[1].size

    @property
    def labels(self) -> Sequence:
        return self._labels

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sources, targets, weights) arrays sorted by (source, target)."""
        self.freeze()
        return self._columns

    def induced_subgraph(self, keep: Iterable[str]) -> "DirectedGraph":
        """Subgraph on the given account ids, edge weights unchanged.

        Node order in the result follows the parent's index order, so
        graphs built with sorted node insertion stay canonically ordered.
        Unknown ids are rejected.
        """
        keep = set(keep)
        index = {label: i for i, label in enumerate(self._labels)}
        if unknown := keep - index.keys():
            raise GraphError(f"unknown account id {min(unknown)!r}")
        mask = np.zeros(self.node_count, dtype=bool)
        mask[np.fromiter((index[label] for label in keep), dtype=np.int64)] = True
        new_index = np.cumsum(mask) - 1
        src, tgt, w = self.edge_arrays()
        kept = mask[src] & mask[tgt]
        return DirectedGraph._from_arrays(
            [self._labels[i] for i in np.flatnonzero(mask)],
            new_index[src[kept]], new_index[tgt[kept]], w[kept],
        )


# -- network files ---------------------------------------------------------

_COLUMNS = (("nodes", "<i8"), ("sources", "<i8"), ("targets", "<i8"), ("weights", "<f8"))


def save_edge_list(path: str | Path, columns: Sequence[np.ndarray]) -> None:
    """Write a network's four columns ``[nodes, sources, targets, weights]``;
    ``nodes`` are positions in the account list the file will be read against."""
    with open(path, "wb") as fh:
        for column, (_, dtype) in zip(columns, _COLUMNS):
            np.save(fh, column.astype(dtype, copy=False))


def load_columns(path: str | Path, accounts: Sequence[str]) -> list[np.ndarray]:
    """[nodes, sources, targets, weights] of a network file, checked against the
    ``accounts`` it was written for; a truncated, mistyped or inconsistent file
    raises GraphError naming it."""
    try:
        with open(path, "rb") as fh:
            columns = [np.load(fh, allow_pickle=False) for _ in _COLUMNS]
            trailing = fh.read(1)
    except (ValueError, EOFError) as exc:
        raise GraphError(f"{path}: not a network file ({exc})") from None
    nodes, src, tgt, w = columns
    n = nodes.size
    mistyped = [f"{name} is not a 1-d {dtype} column" for column, (name, dtype)
                in zip(columns, _COLUMNS) if column.dtype != dtype or column.ndim != 1]
    problem = (
        mistyped[0] if mistyped
        else "data after the last column" if trailing
        else "edge columns of unequal length" if not src.size == tgt.size == w.size
        else "a node outside the account list" if np.any((nodes < 0) | (nodes >= len(accounts)))
        else "a repeated node" if np.unique(nodes).size < n
        else "an edge to no node" if np.any((src < 0) | (src >= n) | (tgt < 0) | (tgt >= n))
        else "a self-loop" if np.any(src == tgt)
        else "a weight that is not positive" if not np.all(w > 0)
        else "edges out of (source, target) order" if np.any((step := np.diff(src * n + tgt)) < 0)
        else "a repeated edge" if np.any(step == 0)
        else None
    )
    if problem:
        raise GraphError(f"{path}: {problem}")
    return columns


def load_edge_list(path: str | Path, accounts: Sequence[str]) -> DirectedGraph:
    """The network a ``save_edge_list`` file holds, labelled by its ``nodes``
    column: positions in ``accounts``."""
    return DirectedGraph._from_arrays(*load_columns(path, accounts))
