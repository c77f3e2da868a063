"""The map equation: codelength of a partition and ΔL of a vertex move.

Implements Equation 3 of the paper (equivalently Rosvall et al.'s
two-level map equation):

    L(M) = plogp(Σ_m q_m)  −  2 Σ_m plogp(q_m)  −  Σ_α plogp(p_α)
           +  Σ_m plogp(q_m + Σ_{α∈m} p_α)

with ``plogp(x) = x log₂ x``.  Everything downstream — the sequential
algorithm's greedy loop, the distributed algorithm's local moves and
its delegate consensus — reduces to evaluating this codelength and its
exact increment under single-vertex moves, so this module is the
correctness kernel of the whole library; it is covered by
recompute-vs-incremental property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import FlowNetwork

__all__ = [
    "plogp",
    "ModuleStats",
    "codelength_terms",
    "delta_codelength",
    "delta_from_values",
    "block_deltas",
    "RunPlan",
]


def plogp(x: "np.ndarray | float") -> "np.ndarray | float":
    """``x · log₂ x`` with the information-theoretic convention 0·log0 = 0.

    Accepts scalars or arrays; negative inputs (which can only arise
    from floating-point cancellation in incremental updates) are
    clamped to zero rather than propagating NaNs.
    """
    arr = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(arr)
    pos = arr > 0
    np.multiply(arr, np.log2(arr, where=pos, out=np.zeros_like(arr)), where=pos,
                out=out)
    if np.ndim(x) == 0:
        return float(out)
    return out


@dataclass
class ModuleStats:
    """Per-module aggregates the map equation needs, updated incrementally.

    Arrays are indexed by module id (ids need not be contiguous in use;
    empty modules simply have zero mass).  This mirrors the paper's
    ``Module_Info`` message fields: ``sum_pr`` (visit probability mass),
    ``exit_pr`` (exit flow), ``num_members``.

    Attributes:
        sum_p: ``float64[k]`` — Σ of member visit probabilities.
        exit: ``float64[k]`` — module exit flow ``q_m``.
        members: ``int64[k]`` — member counts.
        sum_exit: running Σ_m q_m (kept incrementally).
        node_term: the partition-independent ``−Σ plogp(p_α)`` term.
    """

    sum_p: np.ndarray
    exit: np.ndarray
    members: np.ndarray
    sum_exit: float
    node_term: float

    # -- construction ------------------------------------------------------
    @classmethod
    def from_membership(
        cls,
        network: FlowNetwork,
        membership: np.ndarray,
        *,
        node_term: float | None = None,
    ) -> "ModuleStats":
        """Exact recomputation from scratch (reference path; O(n + m)).

        Args:
            node_term: override for the ``−Σ plogp(p_α)`` term.  The map
                equation always codes *original* vertex visits, so when
                *network* is a coarsened level the caller must pass the
                level-0 node term (the multi-level drivers do); the
                default recomputes it from *network*'s own node flows,
                which is only correct at level 0.
        """
        membership = np.asarray(membership, dtype=np.int64)
        g = network.graph
        n = g.num_vertices
        if membership.shape != (n,):
            raise ValueError(f"membership must have shape ({n},)")
        k = int(membership.max()) + 1 if n else 0

        sum_p = np.zeros(k)
        np.add.at(sum_p, membership, network.node_flow)

        members = np.bincount(membership, minlength=k).astype(np.int64)

        # Exit flow: every stored non-self adjacency entry whose
        # endpoints live in different modules contributes its flow to
        # the source vertex's module.
        rows = g._row_of_entry()
        cross = membership[rows] != membership[g.indices]
        exit_ = np.zeros(k)
        np.add.at(exit_, membership[rows[cross]], g.weights[cross])

        if node_term is None:
            node_term = -float(plogp(network.node_flow).sum())
        return cls(
            sum_p=sum_p,
            exit=exit_,
            members=members,
            sum_exit=float(exit_.sum()),
            node_term=node_term,
        )

    # -- codelength ------------------------------------------------------------
    def codelength(self) -> float:
        """Equation 3 evaluated on the current aggregates (bits)."""
        return (
            float(plogp(self.sum_exit))
            - 2.0 * float(plogp(self.exit).sum())
            + self.node_term
            + float(plogp(self.exit + self.sum_p).sum())
        )

    @property
    def num_modules(self) -> int:
        """Number of non-empty modules."""
        return int(np.count_nonzero(self.members))

    def module_ids(self) -> np.ndarray:
        return np.flatnonzero(self.members)

    # -- incremental updates ------------------------------------------------------
    def apply_move(
        self,
        *,
        old: int,
        new: int,
        p_u: float,
        x_u: float,
        d_old: float,
        d_new: float,
    ) -> None:
        """Commit a single-vertex move ``old → new``.

        Args:
            p_u: vertex visit probability.
            x_u: vertex's total non-self link flow.
            d_old: vertex's link flow into *other* members of ``old``.
            d_new: vertex's link flow into members of ``new``.

        Exactly mirrors :func:`delta_codelength`'s primed quantities so
        ``codelength_after == codelength_before + delta`` to machine
        precision (property-tested).
        """
        if old == new:
            return
        if new >= self.sum_p.size:
            # from_membership sizes slots by max(membership)+1, but a
            # caller may legally move into a so-far-unused higher id
            # (e.g. a module that emptied out of the initial labelling).
            grow = new + 1 - self.sum_p.size
            self.sum_p = np.concatenate([self.sum_p, np.zeros(grow)])
            self.exit = np.concatenate([self.exit, np.zeros(grow)])
            self.members = np.concatenate(
                [self.members, np.zeros(grow, dtype=np.int64)]
            )
        q_old_new = self.exit[old] - x_u + 2.0 * d_old
        q_new_new = self.exit[new] + x_u - 2.0 * d_new
        self.sum_exit += (q_old_new - self.exit[old]) + (q_new_new - self.exit[new])
        self.exit[old] = q_old_new
        self.exit[new] = q_new_new
        self.sum_p[old] -= p_u
        self.sum_p[new] += p_u
        self.members[old] -= 1
        self.members[new] += 1
        if self.members[old] == 0:
            # Clamp float dust so empty modules are exactly empty.
            self.sum_exit -= self.exit[old]
            self.exit[old] = 0.0
            self.sum_p[old] = 0.0

    def apply_plan(self, plan: "RunPlan", lo: int, hi: int) -> None:
        """:meth:`apply_move` for moves ``lo:hi`` of *plan* (made with
        ``clamp=True``), in order, under :class:`RunPlan`'s
        requirements."""
        mods = plan.mods[lo:hi].ravel()
        self.sum_exit = plan.exit_sums(self.sum_exit, lo, hi)[-1]
        self.exit[mods] = plan.exits[lo:hi].ravel()
        self.sum_p[mods] = plan.sum_ps[lo:hi].ravel()
        self.members[mods] = plan.counts[lo:hi].ravel()

    def copy(self) -> "ModuleStats":
        return ModuleStats(
            sum_p=self.sum_p.copy(),
            exit=self.exit.copy(),
            members=self.members.copy(),
            sum_exit=self.sum_exit,
            node_term=self.node_term,
        )


class RunPlan:
    """Single-vertex moves prepared for a bulk commit.

    Move ``j`` takes vertex ``vertices[j]`` from module ``old[j]``, of
    exit flow, visit mass and member count ``(q_old, p_old, n_old)``,
    into ``new[j]``, of ``(q_new, p_new, n_new)``.  The plan holds what
    :meth:`ModuleStats.apply_move` leaves in both modules, computed
    elementwise in its operand order, as ``(M, 2)`` arrays of (module
    left, module joined) pairs, so that moves ``lo:hi`` are one
    contiguous ``ravel()``; and the exit-sum terms it adds: the move's
    change, then, under ModuleStats's empty-module clamp (*clamp*) for
    a move that empties its module, the negated exit flow left behind.
    A module table also gets the modules' column slots (*slot_old*,
    *slot_new*; -1: not in the table).

    A store commits a slice of moves whose modules are pairwise
    distinct and unwritten since the aggregates were read
    (:meth:`ModuleStats.apply_plan`, the module table's
    ``apply_plan``): every module is then written once, with the value
    of the scalar commit, bit for bit.
    """

    def __init__(
        self,
        vertices: np.ndarray,
        old: np.ndarray,
        new: np.ndarray,
        *,
        q_old: np.ndarray,
        p_old: np.ndarray,
        n_old: np.ndarray,
        q_new: np.ndarray,
        p_new: np.ndarray,
        n_new: np.ndarray,
        p_u: np.ndarray,
        x_u: np.ndarray,
        d_old: np.ndarray,
        d_new: np.ndarray,
        clamp: bool = False,
        slot_old: "np.ndarray | None" = None,
        slot_new: "np.ndarray | None" = None,
    ) -> None:
        exit_old = q_old - x_u + 2.0 * d_old
        exit_new = q_new + x_u - 2.0 * d_new
        steps = (exit_old - q_old) + (exit_new - q_new)
        sum_p_old = p_old - p_u
        self.vertices = vertices.tolist()
        self.old, self.new = old.tolist(), new.tolist()
        self.mods = _pairs(old, new)
        self.slots = None
        if slot_old is not None:
            self.slots = _pairs(slot_old, slot_new)
            # absent[j]: the moves before move j into a new module.
            absent = np.zeros(old.size + 1, dtype=np.int64)
            np.cumsum(slot_new < 0, out=absent[1:])
            self.absent = absent.tolist()
        self.counts = _pairs(n_old - 1, n_new + 1)
        # ends[j]: the exit-sum terms of the moves before move j.
        emptied = (n_old == 1) if clamp else None
        if emptied is None or not emptied.any():
            self.terms = steps
            ends = np.arange(old.size + 1)
        else:
            ends = np.zeros(old.size + 1, dtype=np.int64)
            np.cumsum(1 + emptied, out=ends[1:])
            self.terms = np.empty(int(ends[-1]))
            self.terms[ends[1:] - 1 - emptied] = steps
            self.terms[ends[1:][emptied] - 1] = -exit_old[emptied]
            # The clamp leaves an emptied module exactly empty.
            exit_old = np.where(emptied, 0.0, exit_old)
            sum_p_old = np.where(emptied, 0.0, sum_p_old)
        self.exits = _pairs(exit_old, exit_new)
        self.sum_ps = _pairs(sum_p_old, p_new + p_u)
        self.ends = ends.tolist()

    def exit_sums(self, start: float, lo: int, hi: int) -> np.ndarray:
        """*start*, then the exit sum after each term of moves ``lo:hi``,
        the terms added one at a time as a ``+=`` loop adds them
        (``np.add.accumulate`` is sequential, bitwise that loop)."""
        e = self.ends
        return np.add.accumulate(
            np.concatenate(([start], self.terms[e[lo] : e[hi]]))
        )


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(M, 2)`` rows ``(a[j], b[j])``, C-contiguous."""
    out = np.empty((a.size, 2), dtype=a.dtype)
    out[:, 0] = a
    out[:, 1] = b
    return out


def codelength_terms(stats: ModuleStats) -> dict[str, float]:
    """The four Eq-3 terms separately (diagnostics and tests)."""
    return {
        "exit_sum_term": float(plogp(stats.sum_exit)),
        "exit_term": -2.0 * float(plogp(stats.exit).sum()),
        "node_term": stats.node_term,
        "module_term": float(plogp(stats.exit + stats.sum_p).sum()),
    }


def block_deltas(
    *,
    sum_exit: float,
    q_old: np.ndarray,
    p_old: np.ndarray,
    p_u: np.ndarray,
    x_u: np.ndarray,
    d_old: np.ndarray,
    owner: np.ndarray,
    q_new: np.ndarray,
    p_new: np.ndarray,
    d_new: np.ndarray,
) -> np.ndarray:
    """ΔL of every candidate move of a block of vertices, in one
    masked ``np.log2`` pass: the one ΔL evaluator of the batched paths.

    ``q_old``, ``p_old``, ``p_u``, ``x_u`` and ``d_old`` are
    ``float64[B]``, one entry per vertex: its current module's exit flow
    and visit mass, its own visit rate, its total non-self link flow
    and its link flow into the current module.  Candidate ``c`` moves
    vertex ``owner[c]`` into a module of exit flow ``q_new[c]`` and
    visit mass ``p_new[c]``, its link flow into which is ``d_new[c]``.

    The current-module terms are evaluated once per vertex and gathered
    per candidate.  Every ``plogp`` argument of the block (the exit sum,
    four per vertex, five per candidate) goes through one masked
    ``np.log2`` call on one buffer, built with the operand expressions
    and combined in the term order of :func:`delta_codelength`'s
    derivation.  ``np.log2`` gives an element the same bits at any
    position of any array (:mod:`repro.core.kernels` docs), so each
    delta is bitwise what ten separate :func:`plogp` calls give.
    """
    b = q_old.size
    c = q_new.size
    q_old_after = q_old - x_u + 2.0 * d_old
    buf = np.empty(1 + 4 * b + 5 * c)
    buf[0] = sum_exit
    per_vertex = buf[1 : 1 + 4 * b].reshape(4, b)
    per_cand = buf[1 + 4 * b :].reshape(5, c)
    # Per vertex: q_old', q_old, q_old' + p_old', q_old + p_old.
    per_vertex[0] = q_old_after
    per_vertex[1] = q_old
    np.add(q_old_after, p_old - p_u, out=per_vertex[2])
    np.add(q_old, p_old, out=per_vertex[3])
    # Per candidate: S', q_new', q_new, q_new' + p_new', q_new + p_new,
    # with S' = (S + (q_old' − q_old)) + (q_new' − q_new).
    s_after, q_new_after = per_cand[0], per_cand[1]
    np.add(q_new, x_u[owner], out=q_new_after)
    q_new_after -= 2.0 * d_new
    np.subtract(q_new_after, q_new, out=s_after)
    s_after += (sum_exit + (q_old_after - q_old))[owner]
    per_cand[2] = q_new
    np.add(q_new_after, p_new + p_u[owner], out=per_cand[3])
    np.add(q_new, p_new, out=per_cand[4])

    pos = buf > 0
    pl = np.log2(buf, where=pos, out=np.zeros(buf.size))
    np.multiply(buf, pl, where=pos, out=pl)
    v = pl[1 : 1 + 4 * b].reshape(4, b)
    w = pl[1 + 4 * b :].reshape(5, c)
    leave_exit = 2.0 * (v[0] - v[1])
    leave_mod = v[2] - v[3]
    delta = w[0] - pl[0]
    delta -= leave_exit[owner]
    delta -= 2.0 * (w[1] - w[2])
    delta += leave_mod[owner]
    delta += w[3] - w[4]
    return delta


def delta_from_values(
    *,
    sum_exit: float,
    q_old: float,
    p_old: float,
    q_new: "np.ndarray | float",
    p_new: "np.ndarray | float",
    p_u: float,
    x_u: float,
    d_old: float,
    d_new: "np.ndarray | float",
) -> "np.ndarray | float":
    """ΔL of a single-vertex move from raw aggregate values:
    :func:`block_deltas` for a block of one vertex, which
    :func:`delta_codelength` feeds from a :class:`ModuleStats`.
    Vectorized over candidate targets when ``q_new``/``p_new``/``d_new``
    are arrays (broadcast together).
    """
    q_new_arr, p_new_arr, d_new_arr = np.broadcast_arrays(
        np.asarray(q_new, dtype=np.float64),
        np.asarray(p_new, dtype=np.float64),
        np.asarray(d_new, dtype=np.float64),
    )

    def one(x: float) -> np.ndarray:
        return np.full(1, x, dtype=np.float64)

    delta = block_deltas(
        sum_exit=sum_exit, q_old=one(q_old), p_old=one(p_old),
        p_u=one(p_u), x_u=one(x_u), d_old=one(d_old),
        owner=np.zeros(q_new_arr.size, dtype=np.int64),
        q_new=q_new_arr.ravel(), p_new=p_new_arr.ravel(),
        d_new=d_new_arr.ravel(),
    )
    if q_new_arr.ndim == 0:
        return float(delta[0])
    return delta.reshape(q_new_arr.shape)


def delta_codelength(
    stats: ModuleStats,
    *,
    old: int,
    new: "int | np.ndarray",
    p_u: float,
    x_u: float,
    d_old: float,
    d_new: "float | np.ndarray",
) -> "float | np.ndarray":
    """Exact codelength change of moving one vertex ``old → new``.

    Vectorized over candidate target modules: pass ``new`` and
    ``d_new`` as arrays to evaluate all candidates at once (the hot
    path of the greedy loop).  ``new == old`` entries evaluate to 0.

    Derivation: when ``u`` leaves ``old``, the flow it sent outside the
    module stops exiting and the flow it sent to the remaining members
    starts exiting, hence ``q_old' = q_old − x_u + 2·d_old``; joining
    ``new`` symmetrically gives ``q_new' = q_new + x_u − 2·d_new``.
    Only four plogp groups of Eq 3 change.
    """
    new_arr = np.atleast_1d(np.asarray(new, dtype=np.int64))
    d_new_arr = np.broadcast_to(
        np.asarray(d_new, dtype=np.float64), new_arr.shape
    )

    delta = delta_from_values(
        sum_exit=stats.sum_exit,
        q_old=float(stats.exit[old]),
        p_old=float(stats.sum_p[old]),
        q_new=stats.exit[new_arr],
        p_new=stats.sum_p[new_arr],
        p_u=p_u,
        x_u=x_u,
        d_old=d_old,
        d_new=d_new_arr,
    )
    delta = np.where(new_arr == old, 0.0, delta)
    if np.ndim(new) == 0:
        return float(delta[0])
    return delta
