"""The two arbiters of the package's numerics, kept beside the tests that use them.

``fixed_point_oracle`` checks the equilibrium solve by synchronous
averaging sweeps, and ``exhaustive_oracle`` checks belief propagation by
summing the joint over every labelling of a small network.  Neither
imports anything from ``botimpact``: each reads only plain arrays, a
graph's ``node_count`` and ``edge_arrays()``, and the fields of a
``FactorGraphParams``, so a change to the code they judge cannot change
them too.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

MAX_EXHAUSTIVE_NODES = 20


class OracleError(RuntimeError):
    """The oracle cannot produce an answer for this input."""


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
    Raises OracleError if a non-stubborn node follows no positive rate, or
    if the sweep cap is hit before the max change drops below ``tol``.
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
        raise OracleError(f"node {bad} has no rated followings")

    for sweep in range(sweeps):
        weighted = np.zeros(n)
        np.add.at(weighted, tgt, lam_src * x[src])
        new_free = weighted[free] / denom[free]
        change = float(np.max(np.abs(new_free - x[free])))
        x[free] = new_free
        if change < tol:
            return x
    raise OracleError(f"fixed-point oracle hit the sweep cap ({sweeps})")


def exhaustive_oracle(graph, params) -> np.ndarray:
    """Exact bot marginals, in node order, by summing the joint over all 2^n labelings.

    Labels are H = 0 and B = 1.  The log table and log prior are built here
    from ``params.psi_*`` and ``params.prior_bot``, and every raw edge
    (source, retweeter, weight) adds ``min(weight, params.weight_cap)``
    times its log-potential, independently of the pair merge that belief
    propagation uses.  Rejects networks above MAX_EXHAUSTIVE_NODES nodes.
    """
    n = graph.node_count
    if n > MAX_EXHAUSTIVE_NODES:
        raise ValueError(f"exhaustive enumeration limited to {MAX_EXHAUSTIVE_NODES} nodes")
    labels = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1  # (states, n)
    logpsi = np.log([[params.psi_hh, params.psi_hb], [params.psi_bh, params.psi_bb]])
    log_h, log_b = np.log([1.0 - params.prior_bot, params.prior_bot])
    bot_count = labels.sum(axis=1)
    logw = bot_count * log_b + (n - bot_count) * log_h
    src, tgt, w = graph.edge_arrays()
    for u, v, wt in zip(src.tolist(), tgt.tolist(), w.tolist()):
        logw += min(wt, params.weight_cap) * logpsi[labels[:, u], labels[:, v]]
    total = logsumexp(logw)
    return np.array([np.exp(logsumexp(logw[labels[:, i] == 1]) - total) for i in range(n)])
