"""Stubborn-agent opinion-dynamics equilibria on follower networks.

Each non-stubborn account's equilibrium opinion is the posting-rate-weighted
average of the opinions of the accounts it follows; stubborn accounts hold a
fixed opinion.  Writing the balance equation per non-stubborn node i gives a
sparse linear system

    G theta = b

with  G_ii = -sum(rate_k for k in following of i)      (all followings),
      G_ij =  rate_j   when j is non-stubborn and i follows j,
      b_i  = -sum(rate_k * psi_k for stubborn k in following of i).

Everything here works on arrays over node positions.  Stubborn
identification takes the measured-opinion column and the bot mask and
returns the stubborn mask; the opinion column itself is the anchor.  Every
function below it works on one network given as arrays: the edge columns
``src`` and ``tgt`` (node indices, sorted by (source, target), the columns
a ``DirectedGraph`` stores), each node's posting ``rates``, the stubborn
mask ``fixed`` and ``anchor``, each node's fixed opinion where it is
stubborn and its measured opinion elsewhere.  Preprocessing only sets mask
bits, since a reclassified node keeps its anchor as its fixed value.
Nothing is sorted per solve: rule (a) is one bincount of positive-rate
in-edges, rule (b) one breadth-first search from a virtual source, each
G_ii and each b_i one bincount that adds the row's terms left to right in
source order, and the off-diagonal of G comes from masked edges.

The system is solved directly (dense LU) up to 500 unknowns and by a
Jacobi-preconditioned BiCGSTAB (van der Vorst 1992) above that.  Below the
cutoff the two paths tie, and the dense one leaves those systems' results
as they were; above it BiCGSTAB wins by an order of magnitude.  Measured
with one BLAS thread on a 2-core Intel Xeon, best of five per system, on
the benchmark's polarized-1k corpus (seeds 5 and 11): the 45 systems of
283-324 unknowns take 0.058-0.061 s in total dense against 0.052-0.056 s
by BiCGSTAB, while a system of 778-785 unknowns takes 0.8-1.9 ms by
BiCGSTAB (10-14 iterations) against 14-23 ms dense; on amplifier-1.6k
(seed 11) a system of 1,178 unknowns takes 1.2-1.5 ms against 37-57 ms
dense.  An independent fixed-point sweep over the averaging form of the
same equations acts as the oracle guarding the matrix interpretation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 5000
DEFAULT_DENSE_CUTOFF = 500
DEFAULT_LOW_PCT = 0.10
DEFAULT_HIGH_PCT = 0.90


class SolverError(RuntimeError):
    """Solve failed to converge or violated the opinion model."""


class AssemblyError(ValueError):
    """System assembly precondition violated."""


# -- stubborn identification ---------------------------------------------------


def percentile_cuts(
    opinions: Iterable[float], low_pct: float, high_pct: float
) -> tuple[float, float]:
    """Order-statistic cut values for the extreme-opinion rule.

    The low cut is the (floor(low_pct*n)+1)-th smallest value, so strictly
    smaller opinions form at most a low_pct fraction; the high cut mirrors
    it from the top.  With low_pct=0 / high_pct=1 nothing is extreme.
    """
    s = sorted(opinions)
    n = len(s)
    if n == 0:
        raise ValueError("percentile cuts need at least one opinion")
    # epsilon guards float products like (1 - 0.9) * n landing just under an integer
    k_low = min(int(math.floor(low_pct * n + 1e-9)) + 1, n)
    k_high = max(n - int(math.floor((1.0 - high_pct) * n + 1e-9)), 1)
    return s[k_low - 1], s[k_high - 1]


def identify_stubborn(
    opinion: np.ndarray,
    bot: np.ndarray,
    low_pct: float = DEFAULT_LOW_PCT,
    high_pct: float = DEFAULT_HIGH_PCT,
) -> np.ndarray:
    """The stubborn mask over accounts, given each account's measured
    ``opinion`` and the boolean ``bot`` mask.

    The stubborn set is all bots plus humans with opinions beyond the global
    cuts, and every stubborn account keeps its measured opinion as its fixed
    value, so ``opinion`` is the solver's anchor.  Cuts are computed once
    over all accounts in the dataset and reused for every daily network.
    """
    if not 0.0 <= low_pct < high_pct <= 1.0:
        raise ValueError(f"bad percentile thresholds ({low_pct}, {high_pct})")
    low_cut, high_cut = percentile_cuts(opinion.tolist(), low_pct, high_pct)
    fixed = bot | (opinion < low_cut) | (opinion > high_cut)
    if fixed.all():
        log.warning("every account is stubborn; equilibrium solves would be vacuous")
    return fixed


# -- per-network preprocessing ---------------------------------------------------


@dataclass
class PreprocessReport:
    no_rated_following: list[int] = field(default_factory=list)  # rule (a)
    unreachable: list[int] = field(default_factory=list)  # rule (b)

    @property
    def reclassified(self) -> set[int]:
        return set(self.no_rated_following) | set(self.unreachable)


def preprocess_wellposed(
    src: np.ndarray, tgt: np.ndarray, rates: np.ndarray, fixed: np.ndarray
) -> tuple[np.ndarray, PreprocessReport]:
    """The stubborn mask with degenerate non-stubborn nodes added, so the system
    is nonsingular.

    (a) a node whose followings carry zero total rate receives no influence;
    (b) a node from which no positive-rate chain of followings reaches a
        stubborn account belongs to a closed group that can never anchor.
    Both become stubborn at their anchor (measured) opinion.  Influence
    travels only through positive-rate accounts, so reachability ignores
    rate-zero ones.
    """
    n = fixed.size
    rated = rates[src] > 0.0
    # (a): rates are non-negative, so a zero total means no positive-rate in-edge
    orphan = ~fixed & (np.bincount(tgt[rated], minlength=n) == 0)
    stubborn = fixed | orphan

    # (b): one BFS from a virtual source n, linked to every positive-rate stubborn
    # node, over the edges that relay influence (rated source, non-stubborn target),
    # which come sorted by source; with n last the rows are already in CSR order
    seeds = np.flatnonzero(stubborn & (rates > 0.0))
    relay = rated & ~stubborn[tgt]
    rows = np.concatenate((src[relay], np.full(seeds.size, n)))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n + 1))))
    cols = np.concatenate((tgt[relay], seeds))
    flow = sp.csr_matrix((np.ones(rows.size), cols, indptr), shape=(n + 1, n + 1))
    reached = np.zeros(n + 1, dtype=bool)
    reached[breadth_first_order(flow, n, directed=True, return_predecessors=False)] = True
    unreachable = ~stubborn & ~reached[:n]

    report = PreprocessReport(
        no_rated_following=np.flatnonzero(orphan).tolist(),
        unreachable=np.flatnonzero(unreachable).tolist(),
    )
    return stubborn | unreachable, report


# -- system assembly ----------------------------------------------------------


@dataclass
class LinearSystem:
    G: sp.csr_matrix  # one row and column per non-stubborn node, in node order
    b: np.ndarray  # per row, -sum(rate * fixed opinion) over its stubborn followings
    v1: np.ndarray  # non-stubborn node indices, ascending
    psi_values: np.ndarray  # fixed opinions of the positive-rate stubborn nodes: the hull


def assemble_system(
    src: np.ndarray, tgt: np.ndarray, rates: np.ndarray, fixed: np.ndarray, anchor: np.ndarray
) -> LinearSystem:
    """Build the sparse equilibrium system for the non-stubborn nodes.

    Requires preprocessed inputs: every non-stubborn node must follow
    positive total rate.  Verifies the weighted in-degree balance
    |G_ii| = sum_j(G_ij, j != i) + stubborn followings' rates, row by row.
    """
    n = fixed.size
    v1 = np.flatnonzero(~fixed)
    if v1.size == 0:
        raise AssemblyError("no non-stubborn nodes to solve for")
    position = np.cumsum(~fixed) - 1  # row and column in G of each non-stubborn node

    lam = rates[src]
    # the edges come sorted by source, so bincount adds each row left to right in that order
    totals = np.bincount(tgt, weights=lam, minlength=n)[v1]
    if (totals == 0.0).any():
        node = int(v1[np.argmax(totals == 0.0)])
        raise AssemblyError(
            f"node {node} follows no positive-rate account; run preprocess_wellposed first"
        )
    edge = ~fixed[tgt] & (lam != 0.0)
    src, rows, lam = src[edge], position[tgt[edge]], lam[edge]
    free = ~fixed[src]

    # row balance |G_ii| = sum_j |G_ij| + stubborn rates, checked before any matrix exists
    m = v1.size
    own = np.abs(totals)
    off, held = (np.bincount(rows[s], weights=np.abs(lam[s]), minlength=m) for s in (free, ~free))
    gap = np.abs(own - off - held)
    if (gap > 1e-9 * np.maximum(1.0, own)).any():
        row = int(np.argmax(gap))
        raise AssemblyError(
            f"row balance violated at row {row}: |G_ii|={own[row]!r} "
            f"vs off-diagonal {off[row]!r} + stubborn {held[row]!r}"
        )

    diag = np.arange(m)
    G = sp.csr_matrix(
        (
            np.concatenate((-totals, lam[free])),
            (np.concatenate((diag, rows[free])), np.concatenate((diag, position[src[free]]))),
        ),
        shape=(m, m),
    )
    # the sources come sorted, so each row adds its stubborn terms in source order
    b = np.bincount(rows[~free], weights=-lam[~free] * anchor[src[~free]], minlength=m)
    return LinearSystem(G=G, b=b, v1=v1, psi_values=anchor[fixed & (rates > 0.0)])


# -- solving ------------------------------------------------------------------


@dataclass
class EquilibriumSolution:
    theta: np.ndarray  # equilibrium opinions aligned with the system's v1
    residual_norm: float
    iterations: int
    method: str


def solve_equilibrium(
    system: LinearSystem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    dense_cutoff: int = DEFAULT_DENSE_CUTOFF,
) -> EquilibriumSolution:
    """Solve G theta = b and validate the result.

    Uses a dense direct solve up to ``dense_cutoff`` unknowns, otherwise
    Jacobi-preconditioned BiCGSTAB started from the neutral opinion 0.5.
    The relative residual must reach ``tol`` (absolute when the right-hand
    side is zero); theta may exceed the stubborn-opinion hull only by
    numerical slack below 10*tol, and is clamped back inside it.
    """
    G, b = system.G, system.b
    m = G.shape[0]
    b_norm = float(np.linalg.norm(b))
    iterations = 0
    if m <= dense_cutoff:
        theta = np.linalg.solve(G.toarray(), b)
        method = "dense"
    else:

        def count(_):
            nonlocal iterations
            iterations += 1

        theta, info = spla.bicgstab(
            G,
            b,
            x0=np.full(m, 0.5),
            M=sp.diags(1.0 / G.diagonal()),
            rtol=tol * 0.1,
            atol=tol * 0.1 * (b_norm if b_norm > 0 else 1.0),
            maxiter=max_iter,
            callback=count,
        )
        method = "bicgstab"
        if info > 0:
            raise SolverError(f"bicgstab did not converge in {info} iterations")
        if info < 0:
            raise SolverError(f"bicgstab broke down with code {info}")

    res = float(np.linalg.norm(G @ theta - b))
    residual = res / b_norm if b_norm > 0 else res
    if residual > tol:
        raise SolverError(f"residual {residual:.3e} above tolerance {tol:.3e}")

    if system.psi_values.size:
        lo, hi = float(system.psi_values.min()), float(system.psi_values.max())
    else:
        lo, hi = 0.0, 1.0
    slack = 10.0 * tol
    if theta.min() < lo - slack or theta.max() > hi + slack:
        raise SolverError(
            "equilibrium violates the stubborn-opinion hull "
            f"[{lo}, {hi}]: range [{theta.min()}, {theta.max()}]"
        )
    np.clip(theta, lo, hi, out=theta)

    return EquilibriumSolution(
        theta=theta, residual_norm=residual, iterations=iterations, method=method
    )


# -- independent fixed-point oracle ----------------------------------------------


def fixed_point_oracle(
    src: np.ndarray,
    tgt: np.ndarray,
    rates: np.ndarray,
    fixed: np.ndarray,
    anchor: np.ndarray,
    sweeps: int = 200_000,
    tol: float = 1e-12,
) -> np.ndarray:
    """Every node's equilibrium opinion by synchronous averaging sweeps.

    theta_i <- sum(rate_j * opinion_j for j in following of i) / sum(rate_j),
    stubborn nodes held at their anchor and the others started at 0.5.
    Deliberately avoids the assembled matrices so it can validate them.
    Raises SolverError if the sweep cap is hit before the max change drops
    below ``tol``.
    """
    n = fixed.size
    free = np.flatnonzero(~fixed)
    x = np.where(fixed, anchor, 0.5)
    if free.size == 0:
        return x

    lam_src = rates[src]
    denom = np.zeros(n)
    np.add.at(denom, tgt, lam_src)
    if np.any(denom[free] == 0.0):
        bad = int(free[np.argmax(denom[free] == 0.0)])
        raise SolverError(f"node {bad} has no rated followings")

    for sweep in range(sweeps):
        weighted = np.zeros(n)
        np.add.at(weighted, tgt, lam_src * x[src])
        new_free = weighted[free] / denom[free]
        change = float(np.max(np.abs(new_free - x[free])))
        x[free] = new_free
        if change < tol:
            return x
    raise SolverError(f"fixed-point oracle hit the sweep cap ({sweeps})")


# -- convenience stack ----------------------------------------------------------


def solve_network(
    src: np.ndarray, tgt: np.ndarray, rates: np.ndarray, fixed: np.ndarray, anchor: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """preprocess -> assemble -> solve on one network.

    Returns every node's equilibrium opinion (its anchor where it ends up
    stubborn) and the final stubborn mask, reclassified nodes included.
    """
    fixed, _ = preprocess_wellposed(src, tgt, rates, fixed)
    opinion = anchor.copy()
    if not fixed.all():
        system = assemble_system(src, tgt, rates, fixed, anchor)
        opinion[system.v1] = solve_equilibrium(system).theta
    return opinion, fixed
