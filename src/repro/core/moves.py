"""Best-move evaluation: the sequential algorithm's inner kernel.

Given a vertex, its current membership and the module aggregates,
evaluate the codelength change of moving it into each neighbouring
module and return the best strictly-improving move (Algorithm 1 lines
16–22).  :func:`score_vertex` is the sequential exact scorer: the
scalar sweep reaches it through :func:`best_move`, and the batched
sweep (:func:`repro.core.kernels.sweep`) calls both for every decision
it cannot certify.  The distributed ranks (Algorithm 2 line 3) sweep
through the same ladder over their module tables, with the exact
scorer ``_score_candidates`` in ``core/distributed.py``, which adds the
min-label anti-bouncing rule for *boundary* modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import FlowNetwork
from .kernels import MIN_IMPROVEMENT, aggregate_module_flows
from .mapequation import ModuleStats

__all__ = [
    "MIN_IMPROVEMENT",
    "MoveProposal",
    "neighbor_module_flows",
    "score_vertex",
    "best_move",
]


@dataclass(slots=True)
class MoveProposal:
    """The outcome of evaluating one vertex's candidate moves, in either
    solver (``vertex`` is a rank-local index in the distributed one).

    ``target == current`` means "stay" (no strictly improving move).
    ``delta`` is the exact codelength change of adopting ``target``.
    ``d_old``/``d_new`` are the link flows needed to commit the move
    through :meth:`ModuleStats.apply_move` without re-scanning edges.
    """

    vertex: int
    current: int
    target: int
    delta: float
    p_u: float
    x_u: float
    d_old: float
    d_new: float

    @property
    def is_move(self) -> bool:
        return self.target != self.current


def neighbor_module_flows(
    network: FlowNetwork, membership: np.ndarray, u: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Aggregate ``u``'s link flow per neighbouring module.

    Returns ``(module_ids, flows, x_u)`` where ``flows[i]`` is the flow
    from ``u`` into ``module_ids[i]`` and ``x_u`` is the total non-self
    flow.  Self-loops are excluded (they never exit).
    """
    g = network.graph
    return aggregate_module_flows(
        g.neighbors(u), g.neighbor_weights(u), u, membership
    )


def score_vertex(
    stats: ModuleStats,
    current: int,
    mods: np.ndarray,
    flows: np.ndarray,
    *,
    p_u: float,
    x_u: float,
    d_old: float,
) -> tuple[int, float, float]:
    """Exact best candidate of one vertex: ``(target, delta, d_new)``.

    *mods*/*flows* are the vertex's aggregated neighbour modules (any
    order) and its link flow into each, as returned by
    :func:`neighbor_module_flows` or cached in a
    :class:`~repro.core.kernels.BlockAggregates` segment.  Every module
    other than *current* is a candidate.  The result is bitwise equal
    to the first argmin of :func:`delta_codelength` over the same
    candidates: each ``plogp`` argument is built with the same float
    expression and association as :func:`delta_from_values`, all of
    them go through one masked ``np.log2`` call (the same ufunc, so the
    same bits, as ``plogp``'s), and the terms combine in the same
    order.  Returns ``(current, inf, d_old)`` when there is no
    candidate.
    """
    s = float(stats.sum_exit)
    q_old = float(stats.exit[current])
    p_old = float(stats.sum_p[current])
    q_old_after = q_old - x_u + 2.0 * d_old
    p_old_after = p_old - p_u
    s_base = s + (q_old_after - q_old)
    args = [s, q_old_after, q_old, q_old_after + p_old_after, q_old + p_old]
    targets: list[int] = []
    d_news: list[float] = []
    for m, f, q, p in zip(
        mods.tolist(), flows.tolist(),
        stats.exit[mods].tolist(), stats.sum_p[mods].tolist(),
    ):
        if m == current:
            continue
        q_after = q + x_u - 2.0 * f
        args += (s_base + (q_after - q), q_after, q, q_after + (p + p_u),
                 q + p)
        targets.append(m)
        d_news.append(f)
    if not targets:
        return current, math.inf, d_old

    # plogp of every argument at once: x·log2(x) for x > 0, else 0.
    a = np.array(args)
    pos = a > 0
    pl = np.log2(a, where=pos, out=np.zeros(a.size))
    np.multiply(a, pl, where=pos, out=pl)
    v = pl.tolist()
    se0 = v[0]
    old_exit = 2.0 * (v[1] - v[2])
    old_mod = v[3] - v[4]
    deltas = [
        v[k] - se0 - old_exit - 2.0 * (v[k + 1] - v[k + 2])
        + old_mod + (v[k + 3] - v[k + 4])
        for k in range(5, len(v), 5)
    ]
    best = min(range(len(deltas)), key=deltas.__getitem__)  # first min
    return targets[best], deltas[best], d_news[best]


def best_move(
    network: FlowNetwork,
    membership: np.ndarray,
    stats: ModuleStats,
    u: int,
) -> MoveProposal:
    """Evaluate all neighbouring modules of ``u`` and pick the best.

    Ties break toward the first-found best, i.e. the smallest module id
    (the candidates are the sorted unique neighbour modules).

    Returns:
        A :class:`MoveProposal`; ``target == current`` when staying put
        is (weakly) best, or better by no more than
        :data:`MIN_IMPROVEMENT`.
    """
    current = int(membership[u])
    mods, flows, x_u = neighbor_module_flows(network, membership, u)
    p_u = float(network.node_flow[u])

    pos = np.searchsorted(mods, current)
    d_old = (
        float(flows[pos]) if pos < mods.size and mods[pos] == current else 0.0
    )
    target, delta, d_new = score_vertex(
        stats, current, mods, flows, p_u=p_u, x_u=x_u, d_old=d_old
    )
    if delta >= -MIN_IMPROVEMENT:
        target, delta, d_new = current, 0.0, d_old
    return MoveProposal(
        vertex=u, current=current, target=target, delta=delta,
        p_u=p_u, x_u=x_u, d_old=d_old, d_new=d_new,
    )
