"""Generalized harmonic influence centrality via removal and re-solve.

The centrality of a node set S on a network is the change it causes in the
mean equilibrium opinion of the non-stubborn nodes: solve the equilibrium
with S present and again on the network with S removed, then average
theta_i - theta'_i over the non-stubborn nodes outside S.  Positive values
mean S pulls the discussion toward opinion 1, negative toward 0.

Non-stubborn nodes that lose every rated following when S is removed revert
to their measured opinion (the removed-network preprocess reclassifies them
stubborn at that value); they stay in the average at that value, which is
what makes the centrality reflect how far S had pulled its audience.  The
count of such reverted nodes is reported on the result.

The full solve does not depend on S, so a daily series solves each day's
network once and shares it across the groups.  The solver works on arrays
(see ``opinion``): edge columns, rates, stubborn mask and anchor opinions
are built once for the whole follower network, and a day and a removal are
both the same mask over arrays: the kept edges are those with
``keep[src] & keep[tgt]``, renumbered by ``cumsum(keep) - 1``.  A monotone
renumbering of sorted edges stays sorted, so the masked arrays are exactly
the edge arrays of the induced subgraph, and no graph is built.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Mapping

import numpy as np

from .graph import DirectedGraph
from .opinion import SolverError, solve_network

log = logging.getLogger(__name__)


@dataclass
class GhicResult:
    target_set: frozenset[str]
    value: float
    averaged_over: int
    reverted: int  # nodes valued at their measured opinion after removal

    def __repr__(self) -> str:  # compact for logs
        return (
            f"GhicResult(|S|={len(self.target_set)}, value={self.value:.6g}, "
            f"n={self.averaged_over}, reverted={self.reverted})"
        )


def _network_arrays(
    graph: DirectedGraph,
    rates: Mapping[str, float],
    stubborn: Mapping[str, float],
    opinions: Mapping[str, float],
) -> tuple[np.ndarray, ...]:
    """The solver's inputs for a graph: src, tgt, rates, stubborn mask, anchor."""
    labels = graph.labels
    src, tgt, _ = graph.edge_arrays()
    lam = np.array([rates.get(a, 0.0) for a in labels], dtype=np.float64)
    fixed = np.array([a in stubborn for a in labels], dtype=bool)
    anchor = np.array([stubborn.get(a, opinions.get(a, 0.5)) for a in labels], dtype=np.float64)
    return src, tgt, lam, fixed, anchor


def _mask(graph: DirectedGraph, accounts: Iterable[str]) -> np.ndarray:
    """Boolean node mask of ``graph`` selecting those of ``accounts`` it holds."""
    mask = np.zeros(graph.node_count, dtype=bool)
    mask[[graph.index(a) for a in accounts if a in graph]] = True
    return mask


def _masked(arrays: tuple, keep: np.ndarray) -> tuple[np.ndarray, ...]:
    """The solver's inputs for the subnetwork on the nodes ``keep`` selects."""
    src, tgt, lam, fixed, anchor = arrays
    edge = keep[src] & keep[tgt]
    position = np.cumsum(keep) - 1
    return position[src[edge]], position[tgt[edge]], lam[keep], fixed[keep], anchor[keep]


def _removal_ghic(
    arrays: tuple, full: tuple, keep: np.ndarray, targets: frozenset[str]
) -> GhicResult:
    """GHIC of ``targets``, the nodes ``keep`` leaves out, given the network's
    arrays and its solved equilibrium."""
    opinion, fixed = full
    population = np.flatnonzero(~fixed & keep)
    if not population.size:
        raise ValueError("no non-stubborn nodes outside the target set")
    if not targets:
        return GhicResult(targets, 0.0, population.size, 0)

    after, after_fixed = solve_network(*_masked(arrays, keep))
    rows = np.flatnonzero(~fixed[keep])  # the population, numbered on the reduced network
    # nodes reclassified on the reduced network revert to their measured opinion
    reverted = int(np.count_nonzero(after_fixed[rows]))
    diff_sum = 0.0
    for diff in (opinion[population] - after[rows]).tolist():
        diff_sum += diff  # left to right in node order; np.sum would round differently
    return GhicResult(targets, diff_sum / population.size, population.size, reverted)


def ghic(
    graph: DirectedGraph,
    rates: Mapping[str, float],
    stubborn: Mapping[str, float],
    opinions: Mapping[str, float],
    target_set: Iterable[str],
) -> GhicResult:
    """Influence centrality of ``target_set`` on ``graph``.

    ``stubborn`` maps each stubborn account to its fixed opinion, as
    ``identify_stubborn`` returns it.  The averaging population is the
    non-stubborn set of the full network (after preprocessing) minus the
    targets; it must be nonempty.  Removal and its preprocessing are
    recomputed independently on the reduced network.
    """
    graph.freeze()
    targets = frozenset(target_set)
    unknown = [t for t in targets if t not in graph]
    if unknown:
        raise ValueError(f"target accounts not in network: {sorted(unknown)[:5]}")
    arrays = _network_arrays(graph, rates, stubborn, opinions)
    return _removal_ghic(arrays, solve_network(*arrays), ~_mask(graph, targets), targets)


# -- daily series ---------------------------------------------------------------


@dataclass
class DailyGhicEntry:
    day: date
    active_nodes: int
    results: dict[str, GhicResult]  # group name -> result
    group_active: dict[str, int]  # group name -> |S ∩ active|


@dataclass
class DailyGhicSeries:
    entries: list[DailyGhicEntry]
    skipped_days: list[tuple[date, str]]


def daily_ghic_series(
    follower_network: DirectedGraph,
    active_by_day: Mapping[date, set[str]],
    rates: Mapping[str, float],
    stubborn: Mapping[str, float],
    opinions: Mapping[str, float],
    groups: Mapping[str, set[str]],
) -> DailyGhicSeries:
    """GHIC of each group on each day's active follower subnetwork.

    A group's daily target set is its intersection with that day's active
    accounts; a group with no active member contributes an exact zero.
    Days whose active network has no non-stubborn node are skipped with a
    note.
    """
    if not groups:
        raise ValueError("at least one group is required")
    arrays = _network_arrays(follower_network, rates, stubborn, opinions)
    members = {name: _mask(follower_network, groups[name]) for name in groups}
    entries: list[DailyGhicEntry] = []
    skipped: list[tuple[date, str]] = []
    for day in sorted(active_by_day):
        active = {a for a in active_by_day[day] if a in follower_network}
        if not active:
            skipped.append((day, "no active accounts in the follower network"))
            continue
        non_stubborn = {a for a in active if a not in stubborn}
        if not non_stubborn:
            skipped.append((day, "no non-stubborn active accounts"))
            continue
        keep = _mask(follower_network, active)
        day_arrays = _masked(arrays, keep)
        full = None  # the day's own equilibrium, solved once when a group first needs it
        results: dict[str, GhicResult] = {}
        group_active: dict[str, int] = {}
        for name in sorted(groups):
            day_targets = groups[name] & active
            group_active[name] = len(day_targets)
            if not non_stubborn - day_targets:
                skipped.append((day, f"group {name!r} covers every non-stubborn account"))
                continue
            try:
                if full is None:
                    full = solve_network(*day_arrays)
                results[name] = _removal_ghic(
                    day_arrays, full, ~members[name][keep], frozenset(day_targets)
                )
            except ValueError as exc:
                skipped.append((day, f"group {name!r}: {exc}"))
            except SolverError as exc:
                raise SolverError(
                    f"{day.isoformat()} group {name!r}: {exc}", exc.residual_history
                ) from exc
        entries.append(DailyGhicEntry(day, len(active), results, group_active))
    for day, reason in skipped:
        log.warning("skipping %s: %s", day, reason)
    return DailyGhicSeries(entries=entries, skipped_days=skipped)


@dataclass
class PerBotStats:
    values: list[float]
    mean: float
    q1: float
    median: float
    q3: float
    minimum: float
    maximum: float

    @property
    def n(self) -> int:
        return len(self.values)


def ghic_per_bot(series: DailyGhicSeries, groups: Iterable[str]) -> dict[str, PerBotStats | None]:
    """Distribution of daily GHIC per active group member, per group.

    Days where a group has no active member are excluded from its
    distribution; a group never active maps to None.
    """
    out: dict[str, PerBotStats | None] = {}
    for name in sorted(set(groups)):
        values = [
            e.results[name].value / e.group_active[name]
            for e in series.entries
            if name in e.results and e.group_active[name] >= 1
        ]
        if not values:
            log.warning("group %r was never active; empty per-bot distribution", name)
            out[name] = None
            continue
        arr = np.array(values)
        out[name] = PerBotStats(
            values=values,
            mean=float(arr.mean()),
            q1=float(np.percentile(arr, 25)),
            median=float(np.median(arr)),
            q3=float(np.percentile(arr, 75)),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
        )
    return out
