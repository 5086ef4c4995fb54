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

Everything here works on node positions.  A network is the solver's arrays
(see ``opinion``): the edge columns ``src`` and ``tgt``, each node's
``rates``, the stubborn mask ``fixed`` and the ``anchor`` opinions.  A
target set, a day's active accounts and a group are boolean node masks.  A
day keeps the edges with ``active[src] & active[tgt]``, renumbered by
``cumsum(active) - 1``: the induced subgraph's edge arrays, still sorted.  A
removal keeps the day's index space, with the targets stubborn at rate zero:
they relay and seed nothing, add 0.0 to a row's rate total and get no row,
so the solve is bit for bit the one without them, for any targets.

The full solve does not depend on S, so ``ghic`` takes it as an argument:
a daily series solves each day's network once and scores every group
against that one solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Mapping

import numpy as np

from .accounts import ordered_mean
from .opinion import SolverError, solve_network

log = logging.getLogger(__name__)


@dataclass
class GhicResult:
    target_count: int  # nodes removed
    value: float
    averaged_over: int
    reverted: int  # nodes valued at their measured opinion after removal


def _check_mask(mask: np.ndarray, n: int, name: str) -> None:
    if not isinstance(mask, np.ndarray) or mask.dtype != bool or mask.shape != (n,):
        raise ValueError(f"{name} must be a boolean mask over the {n} nodes")


def ghic(network: tuple, full: tuple, targets: np.ndarray) -> GhicResult:
    """Influence centrality of the nodes the boolean mask ``targets`` selects.

    ``network`` is the solver tuple ``(src, tgt, rates, fixed, anchor)``, with
    ``fixed`` the stubborn mask ``identify_stubborn`` returns and ``anchor``
    each node's measured opinion; ``full`` is ``solve_network(*network)``.
    The averaging population is the non-stubborn set of the full network
    (after preprocessing) minus the targets; it must be nonempty.  The
    removal re-solves the same arrays with the targets stubborn at rate zero.
    """
    src, tgt, rates, fixed, anchor = network
    _check_mask(targets, fixed.size, "targets")
    opinion, final = full
    population = np.flatnonzero(~final & ~targets)
    if not population.size:
        raise ValueError("no non-stubborn nodes outside the target set")
    removed = int(np.count_nonzero(targets))
    if not removed:
        return GhicResult(0, 0.0, population.size, 0)

    after, after_fixed = solve_network(src, tgt, np.where(targets, 0.0, rates), fixed | targets,
                                       anchor)
    # nodes reclassified without the targets revert to their measured opinion
    reverted = int(np.count_nonzero(after_fixed[population]))
    # left to right in node order; np.sum would round differently
    value = ordered_mean((opinion[population] - after[population]).tolist())
    return GhicResult(removed, value, population.size, reverted)


# -- daily series ---------------------------------------------------------------


@dataclass
class DailyGhicEntry:
    day: date
    active_nodes: int
    results: dict[str, GhicResult]  # group name -> result


@dataclass
class DailyGhicSeries:
    entries: list[DailyGhicEntry]
    skipped_days: list[tuple[date, str]]


def daily_ghic_series(
    arrays: tuple[np.ndarray, ...],
    active_by_day: Mapping[date, np.ndarray],
    groups: Mapping[str, np.ndarray],
) -> DailyGhicSeries:
    """GHIC of each group on each day's active follower subnetwork.

    ``arrays`` are the follower network's ``(src, tgt, rates, fixed,
    anchor)``; each day's active accounts and each group are boolean masks
    over its nodes.  Each day's network is solved once, and ``ghic`` scores
    each group's members among that day's active accounts against that
    solve; a group with no active member contributes an exact zero.  A day
    on which preprocessing leaves no non-stubborn node is skipped with a
    note.  A solver failure names the day, and a failed removal the day and
    the group; the removal raises ValueError when the group covers every
    non-stubborn node, which a group of stubborn accounts never does.  A day
    or group that is not a boolean node mask raises ValueError first.
    """
    if not groups:
        raise ValueError("at least one group is required")
    src, tgt, rates, fixed, anchor = arrays
    for day in sorted(active_by_day):
        _check_mask(active_by_day[day], fixed.size, f"day {day.isoformat()}")
    for name in sorted(groups):
        _check_mask(groups[name], fixed.size, f"group {name!r}")
    entries: list[DailyGhicEntry] = []
    skipped: list[tuple[date, str]] = []
    for day in sorted(active_by_day):
        active = active_by_day[day]
        edge = active[src] & active[tgt]
        position = np.cumsum(active) - 1
        network = (position[src[edge]], position[tgt[edge]], rates[active], fixed[active],
                   anchor[active])
        try:
            full = solve_network(*network)
        except SolverError as exc:
            raise SolverError(f"{day.isoformat()}: {exc}") from exc
        if full[1].all():
            skipped.append((day, "no non-stubborn active accounts"))
            continue
        results: dict[str, GhicResult] = {}
        for name in sorted(groups):
            try:
                results[name] = ghic(network, full, groups[name][active])
            except SolverError as exc:
                raise SolverError(f"{day.isoformat()} group {name!r}: {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"{day.isoformat()} group {name!r}: {exc}") from exc
        entries.append(DailyGhicEntry(day, int(np.count_nonzero(active)), results))
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
    distribution; a group never active maps to None.  The mean adds left to
    right (``accounts.ordered_mean``), as every mean the pipeline writes does.
    """
    out: dict[str, PerBotStats | None] = {}
    for name in sorted(set(groups)):
        values = [
            e.results[name].value / e.results[name].target_count
            for e in series.entries
            if e.results[name].target_count
        ]
        if not values:
            log.warning("group %r was never active; empty per-bot distribution", name)
            out[name] = None
            continue
        arr = np.array(values)
        out[name] = PerBotStats(
            values=values,
            mean=ordered_mean(values),
            q1=float(np.percentile(arr, 25)),
            median=float(np.median(arr)),
            q3=float(np.percentile(arr, 75)),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
        )
    return out
