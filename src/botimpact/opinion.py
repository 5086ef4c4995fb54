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
identification takes the measured-opinion column and the bot and scored
masks and returns the stubborn mask; the opinion column is the anchor.  Every
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

Every system is solved one way: Jacobi-preconditioned BiCGSTAB (van der
Vorst 1992) from the neutral opinion 0.5, stopped at a residual of tol*0.01
relative to b.  The kernel takes scipy's ``bicgstab`` steps one for one but
calls ``G @ v``, the diagonal scaling and ``np.dot`` directly: at a few
hundred unknowns scipy's LinearOperator dispatch costs more than the
arithmetic.  Measured with one BLAS thread on a 2-core Intel Xeon, min of
ten in-process runs, on the benchmark's polarized-1k corpus (seed 11): its
45 systems of 290-320 unknowns take 0.024 s in total, against 0.056 s by
dense LU and 0.047 s by scipy's ``bicgstab``.  The 8 systems of 1,178
unknowns of amplifier-1.6k (seed 11) take 0.005 s, against 0.009 s by
scipy and 0.31 s by dense LU.

BiCGSTAB breaks down on real day networks, and scipy's tests for it are
absolute (rho and omega below eps**2, rtilde.v exactly 0), so they miss a
near-zero at any scale but tiny ones.  A row whose followings are all
non-stubborn starts with residual 0, and after one step the residual can
sit on such rows alone, so rho = rtilde.r = 0: 2 of the 10 systems of the
benchmark's tiny polarized corpus.  Where a follows the stubborn s at rate
0.5 and b follows s and a, at rate 1, the start's rtilde.v is 0 in exact
arithmetic but rounds to about 1e-18, and scipy returns the huge step that
follows, with a residual of order 1, as converged.  So the kernel counts a
dot product as zero below eps times its factors' norms, and on a breakdown
restarts from the current iterate with the shadow residual set to the
current residual.  Where that would change nothing, right after the start
or another restart, one Jacobi step x += r / G_ii comes first; the Jacobi
iteration converges on these systems, weakly diagonally dominant
M-matrices in which every row reaches a stubborn account.  It restarts too,
from the true residual, when the recursive one meets the stop rule but the
true one fails ``tol``: a residual that grows 1e5-fold mid-run costs the
recursion that much accuracy.  A system that never breaks down gets
scipy's iterates bit for bit: on the benchmark's seed-11 systems no such
ratio falls below 1e-4.

The tests check the matrix interpretation against an independent
fixed-point sweep over the averaging form of the same equations
(``tests/oracles.py``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 5000


class SolverError(RuntimeError):
    """Solve failed to converge or violated the opinion model."""


class AssemblyError(ValueError):
    """System assembly precondition violated."""


# -- stubborn identification ---------------------------------------------------


# the extreme-opinion cuts of the stubborn set, after des Mesnards, Hunter,
# el Hjouji and Zaman (Operations Research 2022)
STUBBORN_LOW_PCT = 0.10
STUBBORN_HIGH_PCT = 0.90


def percentile_cuts(
    opinions: np.ndarray, low_pct: float, high_pct: float
) -> tuple[float, float]:
    """Order-statistic cut values for the extreme-opinion rule.

    The low cut is the (floor(low_pct*n)+1)-th smallest value, so strictly
    smaller opinions form at most a low_pct fraction; the high cut mirrors
    it from the top.  With low_pct=0 / high_pct=1, or no opinion at all,
    nothing is extreme.
    """
    s = np.sort(opinions)
    n = s.size
    if n == 0:
        return -math.inf, math.inf
    # epsilon guards float products like (1 - 0.9) * n landing just under an integer
    k_low = min(int(math.floor(low_pct * n + 1e-9)) + 1, n)
    k_high = max(n - int(math.floor((1.0 - high_pct) * n + 1e-9)), 1)
    return float(s[k_low - 1]), float(s[k_high - 1])


def identify_stubborn(opinion: np.ndarray, bot: np.ndarray, scored: np.ndarray) -> np.ndarray:
    """The stubborn mask over accounts: every bot, scored or not, and each
    ``scored`` (measured) account whose ``opinion`` lies beyond the cuts at
    STUBBORN_LOW_PCT/STUBBORN_HIGH_PCT over the scored opinions, one set for
    every daily network.  An unscored human is never stubborn, so with no
    scored account the set is the bots alone.  Each keeps its measured
    opinion as its fixed value: ``opinion`` is the solver's anchor.
    """
    low_cut, high_cut = percentile_cuts(opinion[scored], STUBBORN_LOW_PCT, STUBBORN_HIGH_PCT)
    fixed = bot | (scored & ((opinion < low_cut) | (opinion > high_cut)))
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


def _bicgstab(
    G: sp.csr_matrix, b: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, int, float]:
    """Jacobi-preconditioned BiCGSTAB from theta = 0.5: theta, its iterations
    and its relative residual ``norm(b - G theta) / norm(b)``, below ``tol``
    (theta = 0 and residual 0.0 when b is zero).

    Scipy's ``bicgstab`` at ``rtol = tol*0.01`` and ``atol = tol*0.01*norm(b)``,
    step for step, but with relative breakdown tests, a check of the true
    residual, and the restarts the module docstring describes.  A restart,
    with its Jacobi step, counts as an iteration, so the loop ends; a
    SolverError names the last restart.
    """
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return b.copy(), 0, 0.0
    atol = tol * 0.01 * b_norm
    inv_diag = 1.0 / G.diagonal()
    eps = np.finfo(float).eps
    x = np.full(b.size, 0.5)
    r = b - G @ x
    rtilde, rtilde_norm = r.copy(), np.linalg.norm(r)
    p, fresh, stalled, iterations, restart = None, True, False, 0, ""
    while iterations < max_iter:
        r_norm = np.linalg.norm(r)
        if r_norm < atol:
            r = b - G @ x
            true_norm = np.linalg.norm(r)
            if true_norm < tol * b_norm:
                return x, iterations, float(true_norm / b_norm)
            broke = "residual drift"
        else:
            # a dot product counts as zero below eps times its factors' norms
            rho = np.dot(rtilde, r)
            broke = "rho" if abs(rho) <= eps * rtilde_norm * r_norm else "omega" if stalled else ""
        if not broke:
            if p is None:
                p = r.copy()
            else:
                p -= omega * v
                p *= (rho / rho_prev) * (alpha / omega)
                p += r
            phat = inv_diag * p
            v = G @ phat
            rv = np.dot(rtilde, v)
            broke = "rtilde.v" if abs(rv) <= eps * rtilde_norm * np.linalg.norm(v) else ""
        if broke:
            if fresh:
                x += inv_diag * r
                r = b - G @ x
            restart = f", last restarted at iteration {iterations} on {broke}"
            rtilde, rtilde_norm = r.copy(), np.linalg.norm(r)
            p, fresh, stalled, iterations = None, True, False, iterations + 1
            continue
        alpha = rho / rv
        r -= alpha * v
        s_norm = np.linalg.norm(r)
        if s_norm < atol:
            x += alpha * phat
            continue
        shat = inv_diag * r
        t = G @ shat
        ts, tt = np.dot(t, r), np.dot(t, t)
        omega, stalled = ts / tt, abs(ts) <= eps * np.sqrt(tt) * s_norm
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev, fresh, iterations = rho, False, iterations + 1
    raise SolverError(f"bicgstab did not converge in {max_iter} iterations{restart}")


def solve_equilibrium(
    system: LinearSystem, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> EquilibriumSolution:
    """Solve G theta = b by Jacobi-preconditioned BiCGSTAB and validate the result.

    The iteration starts from the neutral opinion 0.5, stops at a residual of
    ``tol*0.01`` relative to b and restarts where BiCGSTAB breaks down or its
    recursive residual drifts (see the module docstring).  The kernel returns
    only once the true relative residual is below ``tol``; theta may exceed the
    stubborn-opinion hull only by numerical slack below 10*tol, and is
    clamped back inside it.
    """
    theta, iterations, residual = _bicgstab(system.G, system.b, tol, max_iter)

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
        theta=theta, residual_norm=residual, iterations=iterations, method="bicgstab"
    )


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
