"""Bot-probability inference over retweet networks.

Accounts carry a binary label, human (H) or bot (B).  Every directed
retweet edge (u, v) — v retweeted u — contributes a pairwise factor
``psi(x_u, x_v) ** min(weight, cap)`` on top of a uniform-by-default node
prior.  The default table encodes the behavioral pattern that bots retweet
humans but are rarely retweeted, especially by other bots:

    psi(H,H)=2   psi(H,B)=2   psi(B,H)=1   psi(B,B)=0.5

Marginals come from sum-product message passing in the log domain:
exact two-direction flooding on forests, damped flooding with a fixed
iteration cap on loopy graphs.  An exhaustive enumeration oracle, built
from the raw edges, covers networks small enough to sum over all labelings.
Both return one array of bot probabilities in the network's node order and
never read its labels.

The kernel works on whole arrays.  One ``np.unique`` merges parallel and
mutual retweets into one factor per unordered pair, and one
``np.bincount`` per table entry sums their potentials.  Each sweep
gathers the messages into every node with one ``np.bincount`` per label,
and a graph is a forest when its merged pairs number nodes minus
connected components.  Every sum adds its terms in edge order starting
from zero, and ``_logaddexp`` repeats ``scipy.special.logsumexp``'s
two-term arithmetic step for step, so the posteriors are bit-for-bit those
of an edge-by-edge loop with ``logsumexp``, and written outputs stay
byte-identical.

A property of the default table worth knowing: every pairwise column
favors H, so no amount of interaction raises an account above the prior —
being retweeted is human evidence and retweeting a believed-human is
neutral.  Bots are therefore the accounts that stay near the prior while
humans sink below it, which ranks bots correctly but never crosses a
high absolute threshold.  Tables with psi(H,B) > psi(H,H) make prolific
retweeters accumulate positive bot evidence instead, so heavy amplifiers
cross thresholds like 0.8; all four entries are plain config settings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import expit, logsumexp

from .graph import DirectedGraph

log = logging.getLogger(__name__)

H, B = 0, 1
_LOG2 = np.log(2.0)  # scipy's log(m) for two tied terms


@dataclass(frozen=True)
class FactorGraphParams:
    prior_bot: float = 0.5
    psi_hh: float = 2.0
    psi_hb: float = 2.0  # human source, bot retweeter
    psi_bh: float = 1.0  # bot source, human retweeter
    psi_bb: float = 0.5
    weight_cap: float = 5.0
    damping: float = 0.5
    max_iterations: int = 200
    tolerance: float = 1e-8

    def __post_init__(self) -> None:
        # each message starts with the field it names; config prefixes "bp_"
        if not 0.0 < self.prior_bot < 1.0:
            raise ValueError(f"prior_bot must be in (0,1), got {self.prior_bot}")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError(f"damping must be in [0,1), got {self.damping}")
        for name in ("psi_hh", "psi_hb", "psi_bh", "psi_bb", "weight_cap", "max_iterations",
                     "tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def log_table(self) -> np.ndarray:
        """log psi indexed [x_source, x_retweeter] with H=0, B=1."""
        return np.log(
            np.array([[self.psi_hh, self.psi_hb], [self.psi_bh, self.psi_bb]])
        )

    def log_prior(self) -> np.ndarray:
        """log P(x) indexed by label, H=0, B=1."""
        return np.log(np.array([1.0 - self.prior_bot, self.prior_bot]))


@dataclass
class BotPosterior:
    marginals: np.ndarray  # P(label = B) of each node, in the network's node order
    converged: bool
    residual: float
    iterations: int


def _logaddexp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise log(exp(a) + exp(b)), rounded exactly as scipy's logsumexp.

    scipy returns log1p(sum of the terms below the max, each shifted by
    it) + log(count of terms equal to the max) + max.  For two terms that
    is log1p(exp(min - max)) + max, or log(2) + max on a tie (adding
    log(1) = 0 changes no bit).  ``np.logaddexp`` differs by an ulp on
    about one message update in a hundred, which is enough to change
    written posteriors.
    """
    mx = np.maximum(a, b)
    out = np.log1p(np.exp(np.minimum(a, b) - mx))
    out[a == b] = _LOG2
    out += mx
    return out


def _merged_pairs(
    graph: DirectedGraph, params: FactorGraphParams
) -> tuple[np.ndarray, np.ndarray, list[list[np.ndarray]]]:
    """Unordered node pairs (a < b) and their summed log-potentials.

    Returns (a, b, logm) with ``logm[xa][xb]`` one array over pairs.  Every
    bin sums its edges from 0 in (source, target) order, so a mutual
    retweet pair adds up exactly as edge-by-edge accumulation would.
    """
    src, tgt, w = graph.edge_arrays()
    n = graph.node_count
    keys, inverse = np.unique(
        np.minimum(src, tgt) * n + np.maximum(src, tgt), return_inverse=True
    )
    capped = np.minimum(w, params.weight_cap)
    forward = src < tgt
    logpsi = params.log_table()
    logm = [
        [
            np.bincount(
                inverse, weights=capped * np.where(forward, logpsi[xa, xb], logpsi[xb, xa])
            )
            for xb in (H, B)
        ]
        for xa in (H, B)
    ]
    return keys // n, keys % n, logm


def _gather(index: np.ndarray, n: int, prior: float, values: np.ndarray) -> np.ndarray:
    """Per-node ``prior + sum(values[k] for index[k] == node)``, summed in input order."""
    weights = np.empty(n + len(values))
    weights[:n] = prior
    weights[n:] = values
    return np.bincount(index, weights=weights, minlength=n)


def infer_bot_probabilities(
    graph: DirectedGraph, params: FactorGraphParams | None = None
) -> BotPosterior:
    """Sum-product marginals of the bot/human field over a retweet network.

    Isolated accounts get exactly the prior.  On loopy networks that fail
    to converge within the iteration cap, the best-effort marginals are
    returned with ``converged=False``.
    """
    params = params or FactorGraphParams()
    n = graph.node_count
    a, b, logm = _merged_pairs(graph, params)
    prior = params.log_prior()

    p = len(a)
    if p == 0:
        return BotPosterior(
            marginals=np.full(n, params.prior_bot),
            converged=True,
            residual=0.0,
            iterations=0,
        )

    # message k < p is a->b, message p + k is b->a
    msg_src = np.concatenate([a, b])
    msg_dst = np.concatenate([b, a])
    index = np.concatenate([np.arange(n), msg_dst])
    # pot[xs][xd]: log-potential of each message, source label xs, destination label xd
    pot = [[np.concatenate([logm[xs][xd], logm[xd][xs]]) for xd in (H, B)] for xs in (H, B)]
    reverse = np.concatenate([np.arange(p, 2 * p), np.arange(0, p)])
    msg = np.zeros((2, 2 * p))  # [label, message], log-uniform
    exp_msg = np.ones((2, 2 * p))

    n_components, _ = connected_components(
        coo_matrix((np.ones(p), (a, b)), shape=(n, n)), directed=False
    )
    forest = p == n - n_components
    damping = 0.0 if forest else params.damping
    # a forest settles once messages have flooded its diameter; the threshold
    # only needs to sit above ulp-level limit cycles
    max_iters = 2 * n + 4 if forest else params.max_iterations
    tol = 1e-15 if forest else params.tolerance

    converged = False
    residual = np.inf
    iterations = 0
    for iteration in range(1, max_iters + 1):
        excl = [
            _gather(index, n, prior[x], msg[x])[msg_src] - msg[x][reverse] for x in (H, B)
        ]
        new = np.array(
            [
                _logaddexp(excl[H] + pot[H][xd], excl[B] + pot[B][xd])
                for xd in (H, B)
            ]
        )
        new -= _logaddexp(new[H], new[B])
        if damping > 0.0:
            new = damping * msg + (1.0 - damping) * new
            new -= _logaddexp(new[H], new[B])
        exp_new = np.exp(new)
        residual = float(np.max(np.abs(exp_new - exp_msg)))
        msg, exp_msg = new, exp_new
        iterations = iteration
        if residual <= tol:
            converged = True
            break
    if not converged:
        log.warning(
            "message passing did not converge (residual %.3e after %d iterations)",
            residual,
            iterations,
        )

    belief = [_gather(index, n, prior[x], msg[x]) for x in (H, B)]
    # logit form keeps symmetric beliefs at exactly 1/2
    prob_b = expit(belief[B] - belief[H])
    degree = np.bincount(msg_dst, minlength=n)
    prob_b[degree == 0] = params.prior_bot  # isolated accounts keep the exact prior
    return BotPosterior(
        marginals=prob_b,
        converged=converged,
        residual=residual,
        iterations=iterations,
    )


MAX_EXHAUSTIVE_NODES = 20


def exhaustive_oracle(
    graph: DirectedGraph, params: FactorGraphParams | None = None
) -> np.ndarray:
    """Exact marginals, in node order, by summing the joint over all 2^n labelings.

    Works from the raw edges, independently of the pair merge that
    belief propagation uses.  Rejects networks above MAX_EXHAUSTIVE_NODES
    nodes.
    """
    params = params or FactorGraphParams()
    n = graph.node_count
    if n > MAX_EXHAUSTIVE_NODES:
        raise ValueError(f"exhaustive enumeration limited to {MAX_EXHAUSTIVE_NODES} nodes")
    states = 1 << n
    labels = (np.arange(states)[:, None] >> np.arange(n)[None, :]) & 1  # (states, n)
    bot_count = labels.sum(axis=1)
    log_prior = params.log_prior()
    logw = bot_count * log_prior[B] + (n - bot_count) * log_prior[H]
    logw = logw.astype(np.float64)
    logpsi = params.log_table()
    src, tgt, w = graph.edge_arrays()
    for u, v, wt in zip(src.tolist(), tgt.tolist(), w.tolist()):
        logw += min(wt, params.weight_cap) * logpsi[labels[:, u], labels[:, v]]
    total = logsumexp(logw)
    return np.array([np.exp(logsumexp(logw[labels[:, i] == B]) - total) for i in range(n)])


def probability_histogram(
    probabilities: np.ndarray, bins: int = 20
) -> tuple[list[int], list[float]]:
    """Equal-width histogram of probabilities in [0,1]; last bin right-closed.

    Returns (counts, bin edges); counts sum to the number of probabilities.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    index = np.minimum((np.asarray(probabilities) * bins).astype(np.int64), bins - 1)
    counts = np.bincount(index, minlength=bins).tolist()
    edges = [i / bins for i in range(bins + 1)]
    return counts, edges
