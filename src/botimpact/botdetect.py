"""Bot-probability inference over retweet networks.

Accounts carry a binary label, human (H) or bot (B).  Every directed
retweet edge (u, v) — v retweeted u — contributes a pairwise factor
``psi(x_u, x_v) ** min(weight, cap)`` on top of a uniform-by-default node
prior.  The default table encodes the behavioral pattern that bots retweet
humans but are rarely retweeted, especially by other bots:

    psi(H,H)=2   psi(H,B)=2   psi(B,H)=1   psi(B,B)=0.5

Marginals come from sum-product message passing in the log domain:
exact two-direction flooding on forests, damped flooding with a fixed
iteration cap on loopy graphs.  The result is one array of bot
probabilities in the network's node order; the network's labels are never
read.  The tests check it against exhaustive enumeration over every
labeling of small networks, built from the raw edges (``tests/oracles.py``).

The kernel works on whole arrays.  One ``np.unique`` merges parallel and
mutual retweets into one factor per unordered pair, and one
``np.bincount`` per table entry sums their potentials; a graph is a
forest when its merged pairs number nodes minus connected components.
A sweep allocates nothing but one ``np.bincount`` result.  Two buffers
hold ``[prior × n, messages × 2p]`` per label; a sweep reads one, writes
the other, and they swap.  One ``np.bincount`` over the read buffer gives
every node's prior plus incoming messages for both labels, the reverse of
message k is k ± p, and both destination labels go through ``_logaddexp``
as one array.  The damped update and the residual run in place.  Every
sum adds its terms in edge order starting from zero, and ``_logaddexp``
repeats the two-term arithmetic of ``scipy.special.logsumexp`` from scipy
1.15 on, so the posteriors are bit-for-bit those of an edge-by-edge loop
with that ``logsumexp``, and written outputs stay byte-identical.  The
bits depend on numpy alone, not on the installed scipy.

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
from scipy.special import expit

from .graph import DirectedGraph

log = logging.getLogger(__name__)

H, B = 0, 1


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


def _logaddexp(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Elementwise log(exp(a) + exp(b)) into ``out`` as log1p(exp(min - max)) + max.

    From scipy 1.15 on, ``logsumexp`` returns log1p(sum of the terms below
    the max, each shifted by it) + log(count of terms equal to the max) +
    max.  For two terms that is this form, or log(2) + max on a tie (adding
    log(1) = 0 changes no bit).  Earlier scipy took log(1 + exp(min - max)),
    which differs in the last bit.  A tie needs no mask of its own: there
    min - max is 0 and log1p(exp(0)) = log1p(1.0) rounds to log(2.0) bit
    for bit.  That identity was checked on one CPU (AVX-512) with numpy
    2.4.6; numpy may route float64 ``log1p`` to vendor SIMD code that does
    not promise correct rounding, so the tie assertion in
    ``tests/test_botdetect.py::test_logaddexp_two_term_bits`` is what guards
    it on other machines.  ``out`` and ``tmp`` must not overlap ``a`` or
    ``b``.  ``np.logaddexp`` differs by an ulp on about one message update
    in a hundred, which is enough to change written posteriors.
    """
    np.maximum(a, b, out=out)
    np.minimum(a, b, out=tmp)
    tmp -= out
    np.exp(tmp, out=tmp)
    out += np.log1p(tmp, out=tmp)
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

    # message k < p is a->b, message p + k is b->a, so the reverse of k is k ± p.
    # Label x's sum into node i is bin x*n + i of one bincount over the
    # buffer [prior × n, messages × 2p] of both labels.
    msg_src = np.concatenate([a, b])
    msg_dst = np.concatenate([b, a])
    index = np.concatenate([np.arange(n), msg_dst])
    index = np.concatenate([index, index + n])
    gather = np.concatenate([msg_src, msg_src + n])
    # pot[xs, xd]: log-potential of each message, source label xs, destination label xd
    pot = np.array(
        [[np.concatenate([logm[xs][xd], logm[xd][xs]]) for xd in (H, B)] for xs in (H, B)]
    )
    # a sweep reads its messages from one buffer and writes them into the other
    old = np.zeros((2, n + 2 * p))
    old[:, :n] = prior[:, None]
    new = old.copy()
    exp_old = np.ones((2, 2 * p))  # log-uniform start
    exp_new = np.empty((2, 2 * p))
    excl = np.empty((2, 2 * p))
    term = np.empty((2, 2, 2 * p))
    scratch = np.empty((2, 2 * p))
    norm = np.empty(2 * p)

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
        msg, out = old[:, n:], new[:, n:]
        np.take(np.bincount(index, weights=old.ravel()), gather, out=excl.ravel())
        excl[:, :p] -= msg[:, p:]
        excl[:, p:] -= msg[:, :p]
        np.add(excl[:, None, :], pot, out=term)
        _logaddexp(term[H], term[B], out, scratch)
        out -= _logaddexp(out[H], out[B], norm, scratch[H])
        if damping > 0.0:
            out *= 1.0 - damping
            out += np.multiply(msg, damping, out=scratch)
            out -= _logaddexp(out[H], out[B], norm, scratch[H])
        np.exp(out, out=exp_new)
        exp_old -= exp_new
        residual = float(np.max(np.abs(exp_old, out=exp_old)))
        old, new = new, old
        exp_old, exp_new = exp_new, exp_old
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

    belief = np.bincount(index, weights=old.ravel())
    # logit form keeps symmetric beliefs at exactly 1/2
    prob_b = expit(belief[n:] - belief[:n])
    degree = np.bincount(msg_dst, minlength=n)
    prob_b[degree == 0] = params.prior_bot  # isolated accounts keep the exact prior
    return BotPosterior(
        marginals=prob_b,
        converged=converged,
        residual=residual,
        iterations=iterations,
    )


def probability_histogram(probabilities: np.ndarray, bins: int) -> tuple[list[int], list[float]]:
    """Equal-width histogram of probabilities in [0,1]; last bin right-closed.

    Returns (counts, bin edges); counts sum to the number of probabilities.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    index = np.minimum((np.asarray(probabilities) * bins).astype(np.int64), bins - 1)
    counts = np.bincount(index, minlength=bins).tolist()
    edges = [i / bins for i in range(bins + 1)]
    return counts, edges
