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
network once and shares it across the groups.  Each removal masks the day's
edge arrays, rates and opinions, which are built once per day.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Mapping

import numpy as np

from .graph import DirectedGraph
from .opinion import SolverError, StubbornAssignment, solve_network

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


def _network_inputs(
    graph: DirectedGraph,
    rates: Mapping[str, float],
    assignment: StubbornAssignment,
    opinions: Mapping[str, float],
) -> tuple[np.ndarray, dict[int, float], np.ndarray]:
    """Index-aligned rate vector, stubborn map, measured opinions for a graph."""
    labels = graph.labels
    psi = {i: assignment.psi[a] for i, a in enumerate(labels) if a in assignment.psi}
    lam = np.array([rates.get(a, 0.0) for a in labels], dtype=np.float64)
    return lam, psi, np.array([opinions.get(a, 0.5) for a in labels], dtype=np.float64)


def _solve(graph: DirectedGraph, inputs: tuple) -> tuple:
    """Every node's equilibrium opinion (fixed or solved), and which were solved for."""
    eq = solve_network(graph, *inputs)
    opinion = np.empty(graph.node_count)
    opinion[list(eq.psi)] = list(eq.psi.values())
    opinion[list(eq.theta)] = list(eq.theta.values())
    solved = np.zeros(graph.node_count, dtype=bool)
    solved[list(eq.theta)] = True
    return opinion, solved


def _removal_ghic(
    graph: DirectedGraph, inputs: tuple, full: tuple, targets: frozenset[str]
) -> GhicResult:
    """GHIC of ``targets``, given the network's inputs and its solved equilibrium."""
    keep = np.ones(graph.node_count, dtype=bool)
    keep[[graph.index(t) for t in targets]] = False
    opinion, solved = full
    population = np.flatnonzero(solved & keep)
    if not population.size:
        raise ValueError("no non-stubborn nodes outside the target set")
    if not targets:
        return GhicResult(targets, 0.0, population.size, 0)

    # the removed network: the same arrays, masked and reindexed
    position = np.cumsum(keep) - 1
    lam, psi, measured = inputs
    reduced = graph.induced_subgraph([graph.label(i) for i in np.flatnonzero(keep)])
    psi_r = {int(position[i]): value for i, value in psi.items() if keep[i]}
    after, after_solved = _solve(reduced, (lam[keep], psi_r, measured[keep]))
    rows = position[population]
    # nodes reclassified on the reduced network revert to their measured opinion
    reverted = int(np.count_nonzero(~after_solved[rows]))
    diff_sum = 0.0
    for diff in (opinion[population] - after[rows]).tolist():
        diff_sum += diff  # left to right in node order; np.sum would round differently
    return GhicResult(targets, diff_sum / population.size, population.size, reverted)


def ghic(
    graph: DirectedGraph,
    rates: Mapping[str, float],
    assignment: StubbornAssignment,
    opinions: Mapping[str, float],
    target_set: Iterable[str],
) -> GhicResult:
    """Influence centrality of ``target_set`` on ``graph``.

    The averaging population is the non-stubborn set of the full network
    (after preprocessing) minus the targets; it must be nonempty.  Removal
    and its preprocessing are recomputed independently on the reduced
    network.
    """
    graph.freeze()
    targets = frozenset(target_set)
    unknown = [t for t in targets if t not in graph]
    if unknown:
        raise ValueError(f"target accounts not in network: {sorted(unknown)[:5]}")
    inputs = _network_inputs(graph, rates, assignment, opinions)
    return _removal_ghic(graph, inputs, _solve(graph, inputs), targets)


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
    assignment: StubbornAssignment,
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
    entries: list[DailyGhicEntry] = []
    skipped: list[tuple[date, str]] = []
    for day in sorted(active_by_day):
        active = {a for a in active_by_day[day] if a in follower_network}
        if not active:
            skipped.append((day, "no active accounts in the follower network"))
            continue
        subnet = follower_network.induced_subgraph(active)
        non_stubborn = active - assignment.stubborn
        if not non_stubborn:
            skipped.append((day, "no non-stubborn active accounts"))
            continue
        inputs = _network_inputs(subnet, rates, assignment, opinions)
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
                    full = _solve(subnet, inputs)
                results[name] = _removal_ghic(subnet, inputs, full, frozenset(day_targets))
            except ValueError as exc:
                skipped.append((day, f"group {name!r}: {exc}"))
            except SolverError as exc:
                raise SolverError(
                    f"{day.isoformat()} group {name!r}: {exc}", exc.residual_history
                ) from exc
        entries.append(
            DailyGhicEntry(
                day=day,
                active_nodes=subnet.node_count,
                results=results,
                group_active=group_active,
            )
        )
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
