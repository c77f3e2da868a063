"""Distributed Infomap — Algorithm 2 of the paper (the contribution).

Two clustering stages over the SPMD runtime:

* **Stage 1 — parallel clustering with delegates** (Algorithm 2 lines
  2–7).  Each rank greedily moves its owned low-degree vertices using
  table estimates maintained by the Algorithm-3 swap protocol; every
  delegate (hub copy) is moved by *consensus*: ranks propose
  ``(ΔL, module)`` from their local hub-edge subsets, the proposals are
  all-gathered, and the globally minimal ΔL wins on every rank, keeping
  delegate state consistent.  Rounds repeat until no vertex changes
  module.

* **Stage 2 — parallel clustering without delegates** (lines 9–16).
  The converged communities are merged into a graph several orders of
  magnitude smaller, re-partitioned with plain 1D round-robin, and the
  same round machinery runs (no hubs) level after level until the
  codelength stops improving.

Correctness guards from the paper are implemented verbatim and
individually switchable for ablations: the min-label anti-bouncing rule
for boundary moves (§3.4), and the full ``Module_Info`` swap with
``is_sent`` dedup (Algorithm 3) versus the naive boundary-ID-only
exchange.  One guard goes beyond the paper and has no switch: a vertex
may not move back into the module it left in the previous round (see
:meth:`_Level.commit`).

Measurement: every rank runs under a :class:`PhaseTimer` whose phase
names match Figure 8 (*Find Best Module*, *Broadcast Delegates*, *Swap
Boundary Information*, *Other*), the communicator meters bytes per
phase, and the driver turns per-rank work counters into modeled BSP
time for the scalability figures.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Iterator

import numpy as np
# Not np.random: numpy loads that lazily, and each procs rank, forked
# from a process that never touched it, would import it again.
from numpy.random import default_rng

from ..graph.builder import from_edge_array
from ..graph.delta import GraphDelta, apply_delta
from ..graph.graph import Graph
from ..obs.log import get_logger
from ..obs.rss import current_rss_bytes, peak_rss_bytes
from ..partition.delegates import delegate_partition
from ..partition.distgraph import (
    LocalGraph,
    build_local_graphs,
    dense_isin,
    dense_unique,
    local_views_1d,
    sorted_unique,
)
from ..partition.oned import OneDPartition
from ..partition.repair import repair_local_view, sum_repair_stats
from ..partition.shard import load_shard
from ..simmpi.comm import Communicator
from ..simmpi.costmodel import MachineModel
from ..simmpi.engine import SpmdJob, run_spmd
from ..simmpi.requests import Request
from .config import InfomapConfig
from .flow import FlowNetwork
from .kernels import (
    CERT_SLACK,
    aggregate_block_flows,
    aggregate_module_flows,
    candidate_deltas,
    leave_term,
    score_block,
    sweep,
)
from .mapequation import RunPlan, plogp
from .moves import MIN_IMPROVEMENT, MoveProposal
from .result import ClusteringResult, LevelRecord
from .swap import Contribution, LocalModuleState
from .timing import (
    PHASE_BROADCAST_DELEGATES,
    PHASE_FIND_BEST,
    PHASE_MEASUREMENT,
    PHASE_OTHER,
    PHASE_SWAP_BOUNDARY,
    PhaseTimer,
)

__all__ = [
    "DistributedInfomap",
    "distributed_infomap",
    "external_infomap",
]

log = get_logger("core.distributed")

#: Min-label rule (§3.4): a boundary candidate whose ΔL is within this
#: margin of the best counts as tied, and ties go to the smallest id.
TIE_EPS = 1e-10

#: Stage-2 levels whose coarse graph has fewer than this many vertices
#: per rank shrink onto ``p_eff = n // MIN_VERTICES_PER_RANK`` ranks,
#: down to one for tiny graphs: spreading a 100-vertex graph over 16
#: ranks buys no parallelism and maximizes synchronized-move noise.
MIN_VERTICES_PER_RANK = 32


# ---------------------------------------------------------------------------
# Move evaluation against the swap-maintained table
# ---------------------------------------------------------------------------

def _near_tie(
    deltas: "list[float]", best: float, k: int, e: float = 0.0
) -> "int | None":
    """The min-label re-break: the index of the first candidate
    (ascending module ids) whose ΔL is within :data:`TIE_EPS` of
    *best*, candidate *k*'s — exactly at ``e = 0``; on estimates within
    *e* of exact, certified to ``±2e`` or ``None``."""
    thresh = best + TIE_EPS
    for j, d in enumerate(deltas):
        if d <= thresh + 2.0 * e:
            break
    if j == k or deltas[j] <= thresh - 2.0 * e:
        return j
    return None


def _score_candidates(
    state: LocalModuleState,
    cfg: InfomapConfig,
    boundary_mods: "set[int]",
    *,
    li: int,
    current: int,
    mods: "list[int]",
    flows: "list[float]",
    p_u: float,
    x_u: float,
    d_old: "float | None" = None,
) -> "MoveProposal | None":
    """Score the candidate modules in ``(mods, flows)`` and pick a move.

    ``mods`` must be the sorted unique module ids (a list) with
    ``flows`` the vertex's link flow into each; ``d_old`` is the flow
    into ``current`` when the caller already has it (looked up in
    ``mods`` otherwise).  The anti-bouncing rules of §3.4 are applied
    here so the low-degree sweep, its batched fallback and the
    delegate-consensus path behave identically.
    """
    records = state.table_records
    if d_old is None:
        d_old = flows[mods.index(current)] if current in mods else 0.0

    # §3.4 minimum-label strategy (after Lu et al.): the bouncing
    # failure is two vertices *swapping* communities in the same
    # synchronized round, which (for strictly improving greedy moves)
    # requires both sides to be singleton modules.  Such a merge is
    # therefore only admitted toward the smaller module id when the
    # target is a boundary community; one direction proceeds, the swap
    # cannot.  All other moves stay unrestricted so mass is not
    # ratcheted into small-id modules.
    rec_old = records[current]
    guard = bool(cfg.min_label and boundary_mods) and rec_old[2] == 1
    cand: list[int] = []
    cand_flow: list[float] = []
    recs: list[tuple[float, float, int, float, float]] = []
    for m, f in zip(mods, flows):
        if m == current:
            continue
        rec = records[m]
        if guard and m > current and m in boundary_mods and rec[2] == 1:
            continue
        cand.append(m)
        cand_flow.append(f)
        recs.append(rec)
    if not cand:
        return None

    if cfg.move_rule == "max_flow":
        # GossipMap-family rule (§2.3): adopt the neighbouring module
        # that receives the most of this vertex's link flow, provided
        # it strictly beats the flow kept by the current module.  No
        # codelength is consulted.
        best_flow = max(cand_flow)
        if best_flow <= d_old + 1e-15:
            return None
        # Deterministic tie-break toward the smaller module id.
        best_idx = next(
            i for i, f in enumerate(cand_flow) if f >= best_flow - 1e-15
        )
        return MoveProposal(
            vertex=li, current=current, target=cand[best_idx],
            delta=0.0, p_u=p_u, x_u=x_u, d_old=d_old,
            d_new=cand_flow[best_idx],
        )

    # ``kernels``' math.log2 form, not np.log2: these deltas must
    # reproduce the pinned golden digests bit for bit, and the two
    # differ in the last bit on a small fraction of inputs on AVX-512
    # hosts.  The module-only terms, ``plogp(q)`` and ``plogp(q + p)``,
    # come from the table's cached records.
    deltas = candidate_deltas(
        state.sum_exit_global, rec_old[0],
        leave_term(rec_old, p_u=p_u, x_u=x_u, d_old=d_old),
        recs, cand_flow, p_u=p_u, x_u=x_u, d_old=d_old,
    )

    best_idx = min(range(len(deltas)), key=deltas.__getitem__)
    best_delta = deltas[best_idx]
    if best_delta >= -MIN_IMPROVEMENT:
        return None

    if cfg.min_label and cand[best_idx] in boundary_mods:
        # Near-ties also break toward the minimum label, so that two
        # ranks scoring the same vertex pick the same winner.
        best_idx = _near_tie(deltas, best_delta, best_idx)
        best_delta = deltas[best_idx]
    target = cand[best_idx]

    return MoveProposal(
        vertex=li, current=current, target=target, delta=best_delta,
        p_u=p_u, x_u=x_u, d_old=d_old, d_new=cand_flow[best_idx],
    )


# Below this many active vertices the per-round table-snapshot build
# costs more than the scalar loop it replaces.
_BATCH_MIN_ACTIVE = 32


class _TableStore:
    """A rank's module table as the batched ladder's module store
    (protocol: :mod:`repro.core.kernels` docs) for one sub-sweep of
    owned vertices.  Its exact scorer is :func:`_score_candidates`, and
    ``commit``/``commit_run`` are the *level*'s (:meth:`_Level.commit`,
    :meth:`_Level.commit_run`).  Hub and ghost memberships cannot change
    during a sweep, so a segment stays live until an owned neighbour
    commits.
    """

    zero_slack = CERT_SLACK

    def __init__(
        self, state: LocalModuleState, cfg: InfomapConfig,
        bmods: "set[int]", id_space: int, level,
    ) -> None:
        self.state = state
        self.cfg = cfg
        self.bmods = bmods
        self.id_space = id_space
        self.commit = level.commit
        self.commit_run = level.commit_run
        self.indptr = state.lg.indptr
        self.indices = state.lg.nbr
        # The table's own record cache, read with no Python frame.
        self.record = state.table_records.__getitem__
        self.bmask = None
        if bmods:
            self.bmask = np.zeros(id_space, dtype=bool)
            self.bmask[list(bmods)] = True
        self._single: list[bool] = []

    def score(self, block: np.ndarray):
        state = self.state
        lg = state.lg
        snap = state.table_arrays()
        agg = aggregate_block_flows(
            lg.indptr, lg.nbr, lg.nbr_flow, block, state.module_of, lg.flow,
            id_space=self.id_space,
        )
        self._snap = snap
        self._slots = slot_cur, slot_seg = (
            snap.slots(agg.current), snap.slots(agg.seg_mods)
        )
        q_seg, p_seg = snap.at(slot_seg)
        q_old, p_old = snap.at(slot_cur)
        mask = None
        if self.bmods:
            # §3.4 as a vectorized mask (same rule as _score_candidates):
            # a singleton vertex may not merge *upward* into a singleton
            # boundary module.
            single = snap.members_at(slot_cur) == 1
            self._single = single.tolist()
            own = agg.seg_owner
            mask = ~(
                single[own]
                & (agg.seg_mods > agg.current[own])
                & (snap.members_at(slot_seg) == 1)
                & self.bmask[agg.seg_mods]
            )
        return agg, score_block(
            agg, q_seg=q_seg, p_seg=p_seg, q_old=q_old, p_old=p_old,
            sum_exit=state.sum_exit_global, cand_mask=mask,
        )

    def sum_exit(self) -> float:
        return self.state.sum_exit_global

    def exact(self, u: int, cur: int, walk=None, i: int = 0):
        if walk is None:
            dec = _evaluate_move(self.state, u, self.cfg, self.bmods)
        else:
            mods, flows, p_u, x_u, d_old = walk.segment(i, True)
            dec = _score_candidates(
                self.state, self.cfg, self.bmods, li=u, current=cur,
                mods=mods, flows=flows, p_u=p_u, x_u=x_u, d_old=d_old,
            )
        if dec is None:
            return None
        return dec.target, dec.p_u, dec.x_u, dec.d_old, dec.d_new

    def pinned(self, i: int, cur: int) -> bool:
        """Whether block vertex *i*'s current module was a singleton
        when the block was scored or is one now.  The min-label guard
        keys on that count alone: otherwise the snapshot mask and the
        live scorer both admit every candidate, whatever the touched
        candidates' counts."""
        return self._single[i] or self.record(cur)[2] == 1

    rebreak = staticmethod(_near_tie)

    def plan_extras(
        self, pos: np.ndarray, entries: np.ndarray, old: np.ndarray,
        new: np.ndarray,
    ) -> dict:
        """The snapshot's column slots and aggregates of the modules
        *old* that block vertices *pos* leave and of their segment
        *entries* *new*; the table keeps an emptied module's dust (no
        clamp)."""
        slot_cur, slot_seg = self._slots
        slot_old, slot_new = slot_cur[pos], slot_seg[entries]
        snap = self._snap
        q_new, p_new = snap.at(slot_new)
        return {
            "slot_old": slot_old, "slot_new": slot_new,
            "n_old": snap.members_at(slot_old), "q_new": q_new,
            "p_new": p_new, "n_new": snap.members_at(slot_new, default=0),
        }


def _evaluate_move(
    state: LocalModuleState,
    li: int,
    cfg: InfomapConfig,
    boundary_mods: "set[int]",
) -> "MoveProposal | None":
    """Best strictly-improving move for local vertex *li*, or None.

    Mirrors the sequential kernel but reads module aggregates from the
    rank's table (own contribution + swapped neighbour contributions)
    and applies the anti-bouncing rules to boundary targets.
    """
    lg = state.lg
    # The vertex's locally stored adjacency: for owned low-degree
    # vertices the full one (delegate placement guarantees it), for hub
    # copies the local subset.
    uniq, agg, x_u = aggregate_module_flows(
        *lg.neighbors_of(li), li, state.module_of
    )
    if uniq.size == 0:
        return None
    return _score_candidates(
        state, cfg, boundary_mods,
        li=li, current=int(state.module_of[li]),
        mods=uniq.tolist(), flows=agg.tolist(),
        p_u=float(lg.flow[li]), x_u=x_u,
    )


# ---------------------------------------------------------------------------
# Exact global codelength (hash-reduction over module contributions)
# ---------------------------------------------------------------------------

def _exact_codelength(
    comm: Communicator,
    own: Contribution,
    node_term: float,
    timer: PhaseTimer,
) -> float:
    """Exact L(M) from per-rank contributions.

    Module ids are hashed to owner ranks (``id mod p``), each owner
    sums its modules' global aggregates and computes the plogp partial
    sums, and one allreduce finishes Eq 3.  Exactness holds because
    contributions are additive and each directed entry / vertex mass is
    counted on exactly one rank (tested against the sequential
    :class:`ModuleStats`).

    Metered under the ``measurement`` phase: the paper's algorithm only
    all-reduces locally-computed scalar MDL values per iteration
    (§3.4), so this exact reduction is reproduction instrumentation —
    it is excluded from the modeled runtime and reported separately.
    """
    with timer.phase(PHASE_MEASUREMENT):
        p = comm.size
        if p == 1:
            q = own.exit
            pm = own.sum_p
            return float(
                plogp(q.sum()) - 2.0 * plogp(q).sum()
                + node_term + plogp(q + pm).sum()
            )
        dest = (own.mod_ids % p).astype(np.int64)
        msgs: dict[int, Any] = {}
        for r in range(p):
            if r == comm.rank:
                continue
            sel = dest == r
            if sel.any():
                msgs[r] = (
                    own.mod_ids[sel], own.sum_p[sel], own.exit[sel]
                )
        recv = comm.exchange(msgs)
        keep = dest == comm.rank
        ids = [own.mod_ids[keep]]
        sps = [own.sum_p[keep]]
        exs = [own.exit[keep]]
        for _src, (mids, msp, mex) in recv.items():
            ids.append(mids)
            sps.append(msp)
            exs.append(mex)
        all_ids = np.concatenate(ids)
        if all_ids.size:
            size = int(all_ids.max()) + 1
            uniq = dense_unique(size, all_ids)
            q = np.bincount(all_ids, weights=np.concatenate(exs),
                            minlength=size)[uniq]
            pm = np.bincount(all_ids, weights=np.concatenate(sps),
                             minlength=size)[uniq]
            partial = np.array(
                [q.sum(), plogp(q).sum(), plogp(q + pm).sum()]
            )
        else:
            partial = np.zeros(3)
        total = comm.allreduce(partial)
        return float(
            plogp(float(total[0])) - 2.0 * total[1] + node_term + total[2]
        )


# ---------------------------------------------------------------------------
# One clustering level: rounds of move / consensus / swap / update
# ---------------------------------------------------------------------------

def _build_level_caches(
    lg: LocalGraph, state: LocalModuleState, nranks: int
) -> SimpleNamespace:
    """Derived per-level lookup structures over one local graph.

    Everything here is a pure function of the ``lg``/``state`` layout,
    which stays fixed for the whole level.
    """
    ghost_base = lg.num_owned + lg.num_hubs
    ghost_index = {
        int(g): ghost_base + i
        for i, g in enumerate(lg.global_of[lg.ghost_slice()])
    }
    hub_index = {
        int(g): lg.num_owned + i
        for i, g in enumerate(lg.global_of[lg.hub_slice()])
    }

    # Locally-stored hub adjacency, grouped by hub ordinal once, for
    # the delegate-consensus contribution cache.
    h_lo0 = int(lg.indptr[lg.num_owned]) if lg.num_hubs else lg.nbr.size
    _h_src = state._entry_src[h_lo0:]
    _h_tgt = lg.nbr[h_lo0:]
    _h_flw = lg.nbr_flow[h_lo0:]
    _h_ns = _h_tgt != _h_src
    _h_ord = (_h_src[_h_ns] - lg.num_owned).astype(np.int64)
    _h_order = np.argsort(_h_ord, kind="stable")
    # Home rank of each hub ordinal (round-robin ownership by global id).
    hub_home_rank = (
        lg.global_of[lg.num_owned : lg.num_owned + lg.num_hubs]
        % np.int64(nranks)
    ).astype(np.int64)
    return SimpleNamespace(
        ghost_index=ghost_index,
        hub_index=hub_index,
        hub_ord_per_entry=_h_ord[_h_order],
        hub_tgt_sorted=_h_tgt[_h_ns][_h_order],
        hub_flw_sorted=_h_flw[_h_ns][_h_order],
        hub_home_rank=hub_home_rank,
    )


@dataclass(eq=False, kw_only=True)
class _Level:
    """What one clustering level keeps between the stages of its rounds.

    :func:`_cluster_rounds` builds it, opens the module table with
    :meth:`open_table`, then calls the stage methods once per round in
    Algorithm 2's order.  The layout fields are derived once, from
    ``lg`` and ``state``, and stay fixed for the whole level.
    """

    # Inputs.
    comm: Communicator
    cfg: InfomapConfig
    timer: PhaseTimer
    node_term: float
    rng: np.random.Generator
    with_delegates: bool
    id_space: int
    # Whether owned vertices sweep through the batch kernel.
    batched: bool = field(init=False)
    # Whether commit refuses swap-backs (the map-equation rule only).
    no_swap_back: bool = field(init=False)
    # Layout.
    lg: LocalGraph
    state: LocalModuleState
    active: np.ndarray
    C: SimpleNamespace = field(init=False)
    order: np.ndarray = field(init=False)
    # Owned vertices some peer ghosts: their post-sweep memberships are
    # exactly the membership-sync payload (see find_best_boundary).
    boundary_mask: np.ndarray = field(init=False)
    # Owned slot -> the module it left, for the moves of the previous
    # and of the current round (see commit).  Dicts, not int64 arrays:
    # per commit, numpy scalar reads and writes cost about 8x as much.
    left_prev: dict[int, int] = field(init=False)
    left_now: dict[int, int] = field(init=False)
    # Cross-round caches.  The per-peer (hub*id_space + module) keys and
    # flows: each peer's last-shipped delegate contributions, kept
    # key-sorted.
    hub_dirty: np.ndarray = field(init=False)
    peer_keys: list[np.ndarray] = field(init=False)
    peer_flows: list[np.ndarray] = field(init=False)
    # Results.
    own: Contribution = field(init=False)
    history: list[float] = field(init=False)
    rounds: int = 0
    total_moves: int = 0
    total_swap_backs: int = 0
    # Convergence bookkeeping.
    best_l: float = field(init=False)
    stalled: int = 0
    # Per-round scratch, reset by begin_round.
    moved_local: list[int] = field(init=False)
    changed_mods: set[int] = field(init=False)
    moved_hubs: list[int] = field(init=False)
    moved_hub_modules: set[int] = field(init=False)
    bmods: set[int] = field(init=False)
    frontier: int = field(init=False)
    local_moves: int = field(init=False)
    swap_backs: int = field(init=False)
    exact_rescores: int = field(init=False)
    bulk_commits: int = field(init=False)
    sweep_work: int = field(init=False)
    swap_bytes0: int = field(init=False)

    def __post_init__(self) -> None:
        p = self.comm.size
        self.order = np.arange(self.lg.num_owned)
        self.C = _build_level_caches(self.lg, self.state, p)
        self.left_now = {}
        self.boundary_mask = np.zeros(self.lg.num_owned, dtype=bool)
        self.boundary_mask[self.lg.boundary_local] = True
        self.hub_dirty = np.ones(self.lg.num_hubs, dtype=bool)
        self.peer_keys = [np.empty(0, np.int64) for _ in range(p)]
        self.peer_flows = [np.empty(0) for _ in range(p)]
        self.batched = (
            self.cfg.batch_size > 0 and self.cfg.move_rule == "map_equation"
        )
        self.no_swap_back = self.cfg.move_rule == "map_equation"

    def open_table(self, *, warm: bool) -> None:
        """Build the module table and the opening exit sum and codelength."""
        comm, state, timer = self.comm, self.state, self.timer
        with timer.phase(PHASE_OTHER):
            own = state.contribution()
            state.rebuild_table(own, [])
            timer.add_work(PHASE_OTHER, self.lg.num_entries)
        if warm and comm.size > 1:
            # Warm start: the cold init's ghost-singleton table estimate
            # is only exact when everyone starts as a singleton.  One
            # full swap replaces the estimates with each owner's true
            # module aggregates before any move is scored.
            # ``prepare_swap`` does not touch the delta-swap caches, so
            # the subsequent rounds' delta protocol is unaffected.
            with timer.phase(PHASE_SWAP_BOUNDARY):
                batches = state.prepare_swap(own, set())
                recv0 = comm.exchange(batches)
            with timer.phase(PHASE_OTHER):
                state.rebuild_table(own, list(recv0.values()))
        state.sum_exit_global = float(comm.allreduce(own.total_exit()))
        self.own = own
        self.history = [_exact_codelength(comm, own, self.node_term, timer)]
        self.best_l = self.history[0]

    def summary(self, num_modules: int) -> dict[str, Any]:
        """The level's :class:`LevelRecord` fields past its sizes."""
        return {
            "num_modules": int(num_modules),
            "codelength_before": self.history[0],
            "codelength_after": self.history[-1],
            "sweeps": self.rounds,
            "moves": self.total_moves,
        }

    # -- Find Best Module --------------------------------------------------

    def begin_round(self, rounds: int) -> None:
        """Open round *rounds*: trace context, sweep order, scratch."""
        self.rounds = rounds
        self.comm.trace.set_context(round=rounds)
        self.swap_bytes0 = self.comm.stats.bytes_by_phase.get(
            PHASE_SWAP_BOUNDARY, 0
        )
        if self.cfg.shuffle:
            self.rng.shuffle(self.order)
        self.moved_local = []
        self.changed_mods = set()
        self.moved_hubs = []
        self.moved_hub_modules = set()
        self.local_moves = 0
        self.swap_backs = 0
        self.exact_rescores = 0
        self.bulk_commits = 0
        self.sweep_work = 0
        self.left_prev, self.left_now = self.left_now, {}

    def commit(
        self, li: int, cur: int, tgt: int,
        p_u: float, x_u: float, d_old: float, d_new: float,
    ) -> bool:
        """Move owned vertex *li* from *cur* to *tgt*; note it for this
        round.

        Returns False, leaving the vertex where it is, for a swap-back:
        a move into the module the vertex left in the previous round.
        Ranks sweep against tables from the round before, so two
        neighbours that each followed the other out of their modules
        see the old layout again and both move back — the bouncing of
        §3.4, which the min-label rule stops only between singleton
        modules.  GossipMap's ``max_flow`` rule keeps its bouncing.
        """
        if self.no_swap_back and self.left_prev.get(li) == tgt:
            self.swap_backs += 1
            return False
        self.state.apply_local_move(
            li, tgt, p_u=p_u, x_u=x_u, d_old=d_old, d_new=d_new
        )
        self.left_now[li] = cur
        self.local_moves += 1
        self.moved_local.append(li)
        self.changed_mods.add(cur)
        self.changed_mods.add(tgt)
        return True

    def commit_run(self, plan: RunPlan, lo: int, hi: int) -> int:
        """:meth:`commit` for moves ``lo:hi`` of *plan*, whose current
        and target modules are pairwise distinct, up to the first
        swap-back, which is left to :meth:`commit`.  Returns the moves
        committed."""
        us = plan.vertices[lo:hi]
        tgts = plan.new[lo:hi]
        if self.no_swap_back and self.left_prev:
            back = self.left_prev.get
            for k, (li, tgt) in enumerate(zip(us, tgts)):
                if back(li) == tgt:
                    del us[k:], tgts[k:]
                    break
            if not us:
                return 0
        k = len(us)
        self.state.apply_run(plan, lo, lo + k)
        curs = plan.old[lo : lo + k]
        self.left_now.update(zip(us, curs))
        self.local_moves += k
        self.moved_local.extend(us)
        self.changed_mods.update(curs)
        self.changed_mods.update(tgts)
        return k

    def _sweep(self, sub: np.ndarray) -> None:
        """Score and commit one sub-sweep of owned vertices: down the
        batched ladder (:class:`_TableStore`), or one
        :func:`_evaluate_move` per vertex.  Counts the edge-scan work,
        the exact-scorer calls and the ladder's bulk commits."""
        indptr = self.lg.indptr
        self.sweep_work += int(np.sum(indptr[sub + 1] - indptr[sub]))
        if self.batched and sub.size >= _BATCH_MIN_ACTIVE:
            store = _TableStore(
                self.state, self.cfg, self.bmods, self.id_space, self
            )
            _, rescored, bulk = sweep(store, sub, self.cfg.batch_size)
            self.exact_rescores += rescored
            self.bulk_commits += bulk
            return
        self.exact_rescores += int(sub.size)
        for li in sub.tolist():
            dec = _evaluate_move(self.state, li, self.cfg, self.bmods)
            if dec is not None:
                self.commit(
                    li, dec.current, dec.target,
                    dec.p_u, dec.x_u, dec.d_old, dec.d_new,
                )

    def find_best_boundary(self) -> np.ndarray:
        """Stage 1: sweep the active owned vertices some peer ghosts.

        Committing them first lets the membership sync drain while the
        (usually much larger) interior sweeps (§3.4 overlap).  Interior
        and hub moves cannot touch ``module_of[boundary_local]``, so the
        payload prepared right after this sub-sweep is bitwise-identical
        to one prepared after the full sweep.
        """
        with self.timer.phase(PHASE_FIND_BEST):
            self.bmods = (
                self.state.boundary_modules() if self.cfg.min_label else set()
            )
            act = self.order[self.active[self.order]]
            self.frontier = int(act.size)
            in_bnd = self.boundary_mask[act]
            self._sweep(act[in_bnd])
            return act[~in_bnd]

    def post_membership_sync(self) -> Request:
        """Stage 2: post the Swap Boundary Information membership half.

        Consumed by :meth:`wait_membership_sync` after the delegate
        consensus.
        """
        with self.timer.phase(PHASE_SWAP_BOUNDARY):
            if self.cfg.delta_swap:
                memb = self.state.prepare_membership_sync_delta()
            else:
                memb = self.state.prepare_membership_sync()
            return self._posted(self.comm.iexchange(memb))

    def _posted(self, req: Request) -> Request:
        """Both modes issue the identical request sequence;
        ``overlap=False`` merely waits on each request as soon as it is
        posted, serving as the blocking equivalence oracle."""
        if not self.cfg.overlap:
            req.wait()
        return req

    def find_best_interior(self, interior: np.ndarray) -> Request:
        """Stage 3: sweep *interior*; post the local-move count sum."""
        with self.timer.phase(PHASE_FIND_BEST):
            self._sweep(interior)
            self.timer.add_work(PHASE_FIND_BEST, self.sweep_work)
        return self._posted(self.comm.iallreduce(self.local_moves))

    # -- Broadcast Delegates -------------------------------------------------

    def delegate_consensus(self) -> int:
        """Stage 4: consensus moves for hubs; returns the hub moves.

        Every rank proposes, the proposals are all-gathered and the
        same winners are applied everywhere, so the count is identical
        on every rank.
        """
        if not (self.with_delegates and self.lg.num_hubs):
            return 0
        if self.cfg.delegate_consensus == "aggregate":
            proposals = self._propose_aggregate()
        else:
            proposals = self._propose_min_local()
        return self._apply_hub_moves(self._pick_winners(proposals))

    def _propose_min_local(self) -> dict[int, tuple[float, int]]:
        """The paper's literal rule: each rank proposes the best move it
        sees from its local subset of the hub's edges."""
        lg = self.lg
        proposals: dict[int, tuple[float, int]] = {}
        with self.timer.phase(PHASE_FIND_BEST):
            hwork = 0
            for hi in range(lg.num_owned, lg.num_owned + lg.num_hubs):
                hwork += int(lg.indptr[hi + 1] - lg.indptr[hi])
                dec = _evaluate_move(self.state, hi, self.cfg, self.bmods)
                if dec is not None:
                    proposals[int(lg.global_of[hi])] = (dec.delta, dec.target)
            self.timer.add_work(PHASE_FIND_BEST, hwork)
        return proposals

    def _propose_aggregate(self) -> dict[int, tuple[float, int]]:
        """Score each home hub against its *global* adjacency.

        Each rank's per-hub contribution only changes when some stored
        target of that hub changed module, so only *dirty* hubs are
        re-aggregated and routed to the hub's home rank, which caches
        every peer's last contribution (``peer_keys``/``peer_flows``)
        and re-merges just the refreshed hubs.  Consensus stays
        consistent because moves are applied from the all-gathered
        winner list, not from who happened to score.
        """
        comm = self.comm
        C = self.C
        id_space = self.id_space
        with self.timer.phase(PHASE_FIND_BEST):
            if not self.cfg.prune_inactive:
                self.hub_dirty[:] = True
            dmask = self.hub_dirty[C.hub_ord_per_entry]
            if dmask.any():
                dk = (
                    C.hub_ord_per_entry[dmask] * np.int64(id_space)
                    + self.state.module_of[C.hub_tgt_sorted[dmask]]
                )
                uk, inv = np.unique(dk, return_inverse=True)
                kf = np.bincount(
                    inv, weights=C.hub_flw_sorted[dmask], minlength=uk.size,
                )
                self.timer.add_work(PHASE_FIND_BEST, int(dmask.sum()))
            else:
                uk = np.empty(0, np.int64)
                kf = np.empty(0)
        with self.timer.phase(PHASE_BROADCAST_DELEGATES):
            # Route each dirty hub's flow contribution to the hub's
            # *home* rank only — the sole rank that will score it —
            # instead of broadcasting everywhere.
            upd_msgs: dict[int, Any] = {}
            self_update = None
            if uk.size:
                key_home = C.hub_home_rank[(uk // id_space)]
                for r in range(comm.size):
                    sel = key_home == r
                    if not sel.any():
                        continue
                    payload = (
                        sorted_unique(uk[sel] // id_space), uk[sel], kf[sel]
                    )
                    if r == comm.rank:
                        self_update = payload
                    else:
                        upd_msgs[r] = payload
            updates = list(comm.exchange(upd_msgs).items())
        if self_update is not None:
            updates.append((comm.rank, self_update))
        with self.timer.phase(PHASE_FIND_BEST):
            return self._score_home_hubs(updates)

    def _score_home_hubs(
        self, updates: "list[tuple[int, Any]]"
    ) -> dict[int, tuple[float, int]]:
        """Merge routed hub flows into the peer caches and score the
        home hubs whose inputs changed."""
        lg = self.lg
        state = self.state
        id_space = self.id_space
        peer_keys = self.peer_keys
        peer_flows = self.peer_flows
        rescore_mask = np.zeros(lg.num_hubs, dtype=bool)
        for r, (uh, k2, f2) in updates:
            if uh.size == 0:
                continue
            pk, pf = peer_keys[r], peer_flows[r]
            if pk.size:
                keep = ~dense_isin(pk // id_space, uh)
                nk = np.concatenate([pk[keep], k2])
                nf = np.concatenate([pf[keep], f2])
            else:
                nk, nf = k2, f2
            srt = np.argsort(nk, kind="stable")
            peer_keys[r] = nk[srt]
            peer_flows[r] = nf[srt]
            rescore_mask[uh] = True
        # Hubs whose own module's aggregates shifted also need
        # re-scoring even if their adjacency is clean.
        if self.changed_mods:
            hub_mods_now = state.module_of[
                lg.num_owned : lg.num_owned + lg.num_hubs
            ]
            cm = np.fromiter(
                self.changed_mods, dtype=np.int64, count=len(self.changed_mods)
            )
            rescore_mask |= dense_isin(hub_mods_now, cm)
        # Only the hub's home rank scores it — every rank holds the same
        # merged flows, so scoring is pure duplication; the winner still
        # reaches everyone through the proposal allgather.
        rescore_mask &= lg.hub_home
        rescore_hubs = np.flatnonzero(rescore_mask)
        proposals: dict[int, tuple[float, int]] = {}
        if rescore_hubs.size == 0:
            return proposals
        sel_k: list[np.ndarray] = []
        sel_f: list[np.ndarray] = []
        for r in range(self.comm.size):
            pk = peer_keys[r]
            if pk.size == 0:
                continue
            m = rescore_mask[pk // id_space]
            sel_k.append(pk[m])
            sel_f.append(peer_flows[r][m])
        if not sel_k:
            return proposals
        guk, ginv = np.unique(np.concatenate(sel_k), return_inverse=True)
        gf = np.bincount(
            ginv, weights=np.concatenate(sel_f), minlength=guk.size
        )
        ho_arr = (guk // id_space).astype(np.int64)
        mod_arr = (guk % id_space).astype(np.int64)
        bnd = np.searchsorted(ho_arr, np.arange(lg.num_hubs + 1))
        for ho in rescore_hubs.tolist():
            a, b = int(bnd[ho]), int(bnd[ho + 1])
            if a == b:
                continue
            hi = lg.num_owned + ho
            dec = _score_candidates(
                state, self.cfg, self.bmods,
                li=hi, current=int(state.module_of[hi]),
                mods=mod_arr[a:b].tolist(), flows=gf[a:b].tolist(),
                p_u=float(lg.flow[hi]), x_u=float(lg.exit0[hi]),
            )
            if dec is not None:
                proposals[int(lg.global_of[hi])] = (dec.delta, dec.target)
        return proposals

    def _pick_winners(
        self, proposals: dict[int, tuple[float, int]]
    ) -> dict[int, tuple[float, int]]:
        """All-gather the proposals; the winner per hub is the
        lexicographic min of ``(delta, target, rank)``."""
        comm = self.comm
        with self.timer.phase(PHASE_BROADCAST_DELEGATES):
            # Ship the proposals as three typed columns through an
            # allgatherv instead of one generic dict per rank.
            n_props = len(proposals)
            hub_col = np.fromiter(
                proposals.keys(), dtype=np.int64, count=n_props
            )
            delta_col = np.fromiter(
                (v[0] for v in proposals.values()),
                dtype=np.float64, count=n_props,
            )
            target_col = np.fromiter(
                (v[1] for v in proposals.values()),
                dtype=np.int64, count=n_props,
            )
            (hubs_all, deltas_all, targets_all), _counts = (
                comm.allgatherv((hub_col, delta_col, target_col))
            )
        with self.timer.phase(PHASE_OTHER):
            # hubs_all is rank-major, so a strict-less fold keeps the
            # lowest rank on ties, and the winners keep the first-
            # encounter order: it drives the move loop, and move order
            # feeds float accumulation in the module table.
            winners: dict[int, tuple[float, int]] = {}
            for h, d, t in zip(
                hubs_all.tolist(), deltas_all.tolist(), targets_all.tolist()
            ):
                if h not in winners or (d, t) < winners[h]:
                    winners[h] = (d, t)
            return winners

    def _apply_hub_moves(self, winners: dict[int, tuple[float, int]]) -> int:
        hub_moves = 0
        with self.timer.phase(PHASE_OTHER):
            for hub, (_delta, target) in winners.items():
                hi = self.C.hub_index[hub]
                old = int(self.state.module_of[hi])
                if old != target:
                    self.state.module_of[hi] = target
                    self.moved_hub_modules.add(target)
                    self.changed_mods.add(old)
                    self.changed_mods.add(target)
                    self.moved_hubs.append(hi)
                    hub_moves += 1
        return hub_moves

    # -- Swap Boundary Information -------------------------------------------

    def wait_membership_sync(self, req: Request) -> list[int]:
        """Stage 5: apply the peers' memberships; returns the ghosts
        that changed module."""
        with self.timer.phase(PHASE_SWAP_BOUNDARY):
            recv = req.wait()
            return self.state.apply_membership_sync(
                list(recv.values()), self.C.ghost_index
            )

    def _mark_neighbors(self, changed: np.ndarray) -> None:
        """Activate the stored in-neighbours (owned and hub) of *changed*."""
        if changed.size == 0:
            return
        lg = self.lg
        hit = np.zeros(lg.num_local, dtype=bool)
        hit[changed] = True
        srcs = self.state._entry_src[hit[lg.nbr]]
        owned = srcs < lg.num_owned
        self.active[srcs[owned]] = True
        self.hub_dirty[srcs[~owned] - lg.num_owned] = True

    def refresh(self, changed_ghosts: list[int]) -> Request:
        """Stage 6: this rank's contribution and next round's active set.

        Returns the posted exit-total reduction: ``own`` is final for
        the round here (the swap folds *peer* aggregates into the table;
        it never touches ``own``), so the reduction can drain behind it.
        """
        lg = self.lg
        with self.timer.phase(PHASE_OTHER):
            self.own = self.state.contribution()
            self.timer.add_work(PHASE_OTHER, lg.num_entries)
            if self.cfg.prune_inactive:
                # Next round only re-evaluates vertices whose decision
                # inputs changed: stored in-neighbours of anything that
                # moved (local, hub or ghost) plus members of modules
                # whose aggregates changed.
                self.active[:] = False
                self.hub_dirty[:] = False
                changed_idx = np.asarray(
                    self.moved_local + self.moved_hubs + changed_ghosts,
                    dtype=np.int64,
                )
                self._mark_neighbors(changed_idx)
                if self.changed_mods:
                    cm = np.fromiter(
                        self.changed_mods, dtype=np.int64,
                        count=len(self.changed_mods),
                    )
                    self.active |= dense_isin(
                        self.state.module_of[: lg.num_owned], cm
                    )
        return self._posted(self.comm.iallreduce(self.own.total_exit()))

    def swap_modules(self) -> None:
        """Stage 7: refresh the module table from the peers' aggregates.

        Delta records (default), full ``Module_Info`` records, or — with
        ``full_module_info=False`` — none: the table then holds only
        this rank's own contribution.
        """
        cfg = self.cfg
        state = self.state
        own = self.own
        if not cfg.full_module_info:
            with self.timer.phase(PHASE_OTHER):
                state.rebuild_table(own, [])
            return
        with self.timer.phase(PHASE_SWAP_BOUNDARY):
            if cfg.delta_swap:
                out = state.prepare_swap_delta(own, self.moved_hub_modules)
            else:
                out = state.prepare_swap(own, self.moved_hub_modules)
            recv = self.comm.exchange(out)
        with self.timer.phase(PHASE_OTHER):
            if cfg.delta_swap:
                state.apply_swap_delta(recv)
                state.rebuild_table_from_caches(own)
            else:
                # exchange() yields ascending source order — the fold
                # order the bitwise-deterministic rebuild depends on.
                state.rebuild_table(own, list(recv.values()))

    # -- Round bookkeeping ---------------------------------------------------

    def record_round(
        self, exit_req: Request, moves_req: Request, hub_moves: int
    ) -> int:
        """Stage 8: the round's global exit sum, codelength and move
        count, published to the live plane and the trace.  Returns the
        round's global move count."""
        comm = self.comm
        self.state.sum_exit_global = float(exit_req.wait())
        self.history.append(
            _exact_codelength(comm, self.own, self.node_term, self.timer)
        )
        codelength = float(self.history[-1])
        moves = int(moves_req.wait()) + hub_moves
        self.total_moves += moves
        self.total_swap_backs += self.swap_backs
        live = comm.live
        if live.enabled:
            # codelength and moves are allreduced, hence identical on
            # every rank — the live "moves" counter is therefore the
            # replicated *global* cumulative count, like codelength.
            live.update(round=self.rounds, codelength=codelength)
            live.add("moves", moves)
        buf = comm.trace
        if buf.enabled:
            # One convergence sample per rank per round.  codelength and
            # moves are globally consistent, so any rank's series is
            # *the* series; boundary_bytes, frontier, swap_backs,
            # exact_rescores and bulk_commits are per-rank and summed at
            # export time.
            swap_bytes = (
                comm.stats.bytes_by_phase.get(PHASE_SWAP_BOUNDARY, 0)
                - self.swap_bytes0
            )
            buf.instant(
                "round",
                args={
                    "codelength": codelength,
                    "moves": moves,
                    "boundary_bytes": int(swap_bytes),
                    "frontier": self.frontier,
                    "swap_backs": self.swap_backs,
                    "exact_rescores": self.exact_rescores,
                    "bulk_commits": self.bulk_commits,
                },
            )
            buf.counter("codelength", codelength)
            buf.counter("moves", float(moves))
            buf.counter("frontier", float(self.frontier))
        return moves

    def converged(self, moves: int) -> bool:
        """Stage 9: no move, or no MDL progress for three rounds.

        "... or there is no more MDL optimization" (§3.4): residual
        move oscillation with no codelength progress also ends the
        level.  A patience window (rather than a single-round check)
        lets the synchronized greedy recover from a round that
        overshot — concurrent moves can transiently *raise* L, and the
        following rounds, scored against refreshed tables, undo the
        damage.  The exact per-round L makes the check globally
        consistent for free.
        """
        if moves == 0:
            return True
        last = self.history[-1]
        round_tol = max(
            self.cfg.threshold, self.cfg.round_threshold_rel * abs(last)
        )
        if self.best_l - last >= round_tol:
            self.best_l = last
            self.stalled = 0
            return False
        self.stalled += 1
        return self.stalled >= 3


def _cluster_rounds(
    comm: Communicator,
    state: LocalModuleState,
    cfg: InfomapConfig,
    timer: PhaseTimer,
    node_term: float,
    rng: np.random.Generator,
    *,
    with_delegates: bool,
    id_space: int,
    seed_membership: "np.ndarray | None" = None,
    active_seed: "np.ndarray | None" = None,
) -> _Level:
    """Algorithm 2 lines 2–7 (or 10–14 when ``with_delegates=False``).

    Args:
        state: a fresh (all-singleton) state over the level's local
            graph.
        id_space: exclusive upper bound on module ids at this level
            (vertex-id namespace size), used to pack (hub, module)
            pairs into scalar keys for the vectorized delegate path.
        seed_membership: optional warm-start membership, ``int64`` over
            the *global* id space; every local slot (owned, hub, ghost)
            is seeded as ``seed_membership[global_of]`` instead of
            singletons, and the module table is initialized by one full
            boundary swap (the singleton ghost estimate the cold init
            relies on does not hold for a seeded partition).
        active_seed: optional ``bool`` mask over the global id space;
            the first round's Find-Best set becomes the owned slice of
            it instead of all-ones.  Requires ``cfg.prune_inactive`` to
            keep contracting afterwards.

    Returns the finished :class:`_Level`.
    """
    lg = state.lg
    if seed_membership is not None:
        state.module_of = np.asarray(seed_membership, dtype=np.int64)[
            lg.global_of
        ]
    if active_seed is not None:
        active = np.asarray(active_seed, dtype=bool)[
            lg.global_of[: lg.num_owned]
        ].copy()
    else:
        active = np.ones(lg.num_owned, dtype=bool)
    lv = _Level(
        comm=comm, cfg=cfg, timer=timer, node_term=node_term, rng=rng,
        with_delegates=with_delegates, id_space=id_space,
        lg=lg, state=state, active=active,
    )
    lv.open_table(warm=seed_membership is not None)
    for rounds in range(1, cfg.max_rounds + 1):
        lv.begin_round(rounds)
        interior = lv.find_best_boundary()
        sync_req = lv.post_membership_sync()
        moves_req = lv.find_best_interior(interior)
        hub_moves = lv.delegate_consensus()
        changed_ghosts = lv.wait_membership_sync(sync_req)
        exit_req = lv.refresh(changed_ghosts)
        lv.swap_modules()
        moves = lv.record_round(exit_req, moves_req, hub_moves)
        if lv.converged(moves):
            break
    comm.trace.set_context(round=None)
    return lv


# ---------------------------------------------------------------------------
# Distributed merge: communities -> replicated coarse flow network
# ---------------------------------------------------------------------------

def _pair_sums(
    a: np.ndarray, b: np.ndarray, w: np.ndarray, id_space: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys ``a * id_space + b`` of module pairs
    ``a <= b``, and the sum of *w* per key in entry order.  Internal
    pairs (``a == b``), most entries once modules have formed, are
    summed by a dense bincount over the module id; only the cross
    pairs are sorted."""
    inner = a == b
    ia = a[inner]
    size = int(ia.max(initial=-1)) + 1
    mods = dense_unique(size, ia)
    inner_keys = mods * np.int64(id_space + 1)
    inner_w = np.bincount(ia, weights=w[inner], minlength=size)[mods]
    cross = ~inner
    ck, inv = np.unique(
        a[cross] * np.int64(id_space) + b[cross], return_inverse=True
    )
    cw = np.bincount(inv, weights=w[cross], minlength=ck.size)
    # np.bincount over no ids is int64, weights or not: promote.
    cw = cw.astype(np.result_type(cw, inner_w), copy=False)
    # The two key sets are disjoint; merge them in key order.
    pos = np.searchsorted(ck, inner_keys)
    return np.insert(ck, pos, inner_keys), np.insert(cw, pos, inner_w)


def _merge_to_coarse(
    comm: Communicator,
    state: LocalModuleState,
    own: Contribution,
    timer: PhaseTimer,
    id_space: int,
) -> tuple[FlowNetwork, np.ndarray]:
    """Algorithm 2 line 8 / §3.5: merge communities into a new graph.

    Each rank aggregates its stored entries into
    ``(module_a, module_b, flow)`` triples (vertex self-loops weighted
    double so the later halving is exact), the triples and module
    visit-mass contributions are all-gathered, and every rank builds
    the same coarse :class:`FlowNetwork`.  Both reductions of the
    triples go through :func:`_pair_sums`, which sorts only the cross
    pairs, and the coarse vertex set is a presence mask over the id
    space, so neither the internal pairs nor the module ids are
    sorted.  Replication is the paper's own justification — after
    stage 1 the merged graph is orders of magnitude smaller (Figure 5)
    — and the gather is metered.

    Returns ``(coarse_network, module_ids)`` where ``module_ids[c]`` is
    the pre-merge module id of coarse vertex ``c``.
    """
    lg = state.lg
    with timer.phase(PHASE_OTHER):
        mod_src = state.module_of[state._entry_src]
        mod_dst = state.module_of[lg.nbr]
        a = np.minimum(mod_src, mod_dst)
        b = np.maximum(mod_src, mod_dst)
        self_entry = lg.nbr == state._entry_src
        w = lg.nbr_flow * np.where(self_entry, 2.0, 1.0)
        uk, kw = _pair_sums(a, b, w, id_space)

    with timer.phase(PHASE_SWAP_BOUNDARY):
        gathered = comm.allgather(
            (uk, kw, own.mod_ids, own.sum_p)
        )

    with timer.phase(PHASE_OTHER):
        keys = np.concatenate([g[0] for g in gathered])
        kws = np.concatenate([g[1] for g in gathered])
        mids = np.concatenate([g[2] for g in gathered])
        msps = np.concatenate([g[3] for g in gathered])

        # Module id space of the coarse graph.
        ka, kb = keys // id_space, keys % id_space
        all_mods = dense_unique(id_space, mids, ka, kb)
        k = all_mods.size

        # bincount-on-index: same sequential entry-order accumulation
        # as np.add.at (bitwise), an order of magnitude faster.
        node_flow = np.bincount(
            np.searchsorted(all_mods, mids), weights=msps, minlength=k
        )

        uk2, kw2 = _pair_sums(ka, kb, kws, id_space)
        kw2 /= 2.0
        ca = np.searchsorted(all_mods, uk2 // id_space)
        cb = np.searchsorted(all_mods, uk2 % id_space)
        coarse_graph = from_edge_array(
            ca, cb, kw2, num_vertices=k, dedup="sum", keep_self_loops=True
        )
        return FlowNetwork(graph=coarse_graph, node_flow=node_flow), all_mods


# ---------------------------------------------------------------------------
# The per-rank program (both stages)
# ---------------------------------------------------------------------------

def _load_shard(
    comm: Communicator, store_dir: str, plan: Any
) -> tuple[LocalGraph, dict[str, Any]]:
    """Build this rank's local view from its shard of an on-disk store.

    The driver never materializes the graph; each worker memmaps the
    store and reads only its contiguous row slice (plus the two ghost
    exchange rounds), so per-process RSS scales with the shard.  The
    RSS baseline is sampled before the load: on the fork-based procs
    backend a child's peak-RSS counter resets to the fork-time RSS, so
    ``peak - rss_before`` isolates shard-driven growth.
    """
    rss_before = current_rss_bytes()
    lg, ingest = load_shard(comm, store_dir, plan)
    ingest["rss_before_bytes"] = rss_before
    # Peak at the end of the load stage: the number the out-of-core
    # guard holds against the shard budget.  The later whole-run peak
    # additionally includes solver workspace, which scales with the
    # local graph but has a larger constant.
    ingest["peak_rss_after_load_bytes"] = peak_rss_bytes()
    return lg, ingest


@contextmanager
def _level_scope(
    comm: Communicator,
    records: list[dict[str, Any]],
    level: int,
    num_vertices: int,
) -> Iterator[dict[str, Any]]:
    """Run one clustering level under its trace/live level context.

    Yields the level's record row, which the body completes with
    :meth:`_Level.summary`; on exit the row is appended to *records*
    and a ``level_done`` instant is emitted.
    """
    buf = comm.trace
    buf.set_context(level=level)
    if comm.live.enabled:
        comm.live.update(level=level)
    row: dict[str, Any] = {"level": level, "num_vertices": num_vertices}
    yield row
    records.append(row)
    if buf.enabled:
        buf.instant(
            "level_done",
            args={
                "num_vertices": int(num_vertices),
                "num_modules": row["num_modules"],
                "codelength": float(row["codelength_after"]),
                "moves": int(row["moves"]),
            },
        )


def _rank_program(
    comm: Communicator,
    cfg: InfomapConfig,
    n0: int,
    *,
    views: "list[LocalGraph] | None" = None,
    shard: "tuple[str, Any] | None" = None,
    lg: "LocalGraph | None" = None,
    seed_membership: "np.ndarray | None" = None,
    active_seed: "np.ndarray | None" = None,
) -> dict[str, Any]:
    """Both clustering stages on one rank.

    The rank's stage-1 local graph is *lg*, or ``views[comm.rank]``,
    carved out by the driver, or — with ``shard=(store_dir, plan)`` —
    built from this rank's shard of an on-disk CSR store
    (:func:`_load_shard`); the output then carries the load stats under
    ``"ingest"``.

    A warm start passes *seed_membership*: stage 1 then starts from the
    cached (relabeled) membership instead of all-singletons and, when an
    *active_seed* mask is given, only the dirty frontier is swept in
    round 1 — the O(changed region) property the incremental benchmark
    guards.
    """
    ingest = None
    if shard is not None:
        lg, ingest = _load_shard(comm, *shard)
    elif lg is None:
        lg = views[comm.rank]
    buf = comm.trace
    timer = PhaseTimer(comm, trace=buf)
    rng = default_rng(cfg.seed + 7919 * comm.rank)

    # Constant node-codebook term, reduced from exactly-once vertex mass.
    state1 = LocalModuleState(lg)
    mass = state1.mass_idx
    with timer.phase(PHASE_OTHER):
        local_nt = -float(plogp(lg.flow[mass]).sum())
    node_term = float(comm.allreduce(local_nt))

    records: list[dict[str, Any]] = []
    log.debug(
        "rank program start: owned=%d hubs=%d ghosts=%d",
        lg.num_owned, lg.num_hubs, lg.num_ghosts,
    )

    # ---- Stage 1: clustering with delegates --------------------------------
    with _level_scope(comm, records, 0, n0) as row:
        with buf.span("stage1"):
            lv1 = _cluster_rounds(
                comm, state1, cfg, timer, node_term, rng, with_delegates=True,
                id_space=n0, seed_membership=seed_membership,
                active_seed=active_seed,
            )
        net, module_ids = _merge_to_coarse(
            comm, lv1.state, lv1.own, timer, id_space=n0
        )
        log.debug(
            "stage 1 done: rounds=%d moves=%d L=%.6f -> %d modules",
            lv1.rounds, lv1.total_moves, lv1.history[-1],
            net.graph.num_vertices,
        )
        row.update(lv1.summary(net.graph.num_vertices))
    stage1_timer = timer.snapshot()
    # Every round of every level, after the stage-1 opening value; the
    # level finals alone drive the stage-2 stopping rule.
    codelength_history = list(lv1.history)
    level_finals = [lv1.history[-1]]
    swap_backs = [lv1.total_swap_backs]

    # Stage-1 assignment of this rank's exactly-once vertices.
    my_vertices = lg.global_of[mass]
    # Coarse index of each stage-1 module.
    coarse_of_stage1 = np.searchsorted(module_ids, lv1.state.module_of[mass])

    # ---- Stage 2: clustering without delegates, level after level --------
    proj = np.arange(net.graph.num_vertices, dtype=np.int64)
    converged = lv1.total_moves == 0
    # A warm start with an empty frontier swept nothing: the cached
    # partition stands at every level, so stage 2 is skipped (the no-op
    # invariant: an empty delta ends after one zero-move round at the
    # seeded codelength).  Any other warm start runs stage 2 even when
    # stage 1 committed no move, since the delta changed the coarse
    # edge weights.  Every rank holds the same global mask, so all take
    # the same branch.  (An active mask always comes with a seed.)
    max_levels = (
        1 if active_seed is not None and not active_seed.any()
        else cfg.max_levels
    )
    for level in range(1, max_levels):
        cn = net.graph.num_vertices
        with _level_scope(comm, records, level, cn) as row:
            with timer.phase(PHASE_OTHER):
                # Small coarse graphs concentrate onto fewer ranks (see
                # MIN_VERTICES_PER_RANK); idle ranks still join every
                # collective so the SPMD schedule stays aligned.
                p = comm.size
                p_eff = max(1, min(p, cn // MIN_VERTICES_PER_RANK))
                owner = np.arange(cn, dtype=np.int64) % p_eff
                part = OneDPartition(owner=owner, nranks=p)
                lg2 = local_views_1d(net, part, rank=comm.rank)[0]
            with buf.span("stage2_level"):
                lv = _cluster_rounds(
                    comm, LocalModuleState(lg2), cfg, timer, node_term, rng,
                    with_delegates=False, id_space=cn,
                )
            codelength_history.extend(lv.history[1:])
            level_finals.append(lv.history[-1])
            swap_backs.append(lv.total_swap_backs)

            # Assemble the full coarse membership (module ids are coarse
            # vertex ids) so every rank can coarsen its replica.
            with timer.phase(PHASE_SWAP_BOUNDARY):
                pieces = comm.allgather(
                    (
                        lg2.global_of[: lg2.num_owned],
                        lv.state.module_of[: lg2.num_owned],
                    )
                )
            with timer.phase(PHASE_OTHER):
                membership = np.empty(cn, dtype=np.int64)
                for gids, mods in pieces:
                    membership[gids] = mods
                coarse2, community_of = net.coarsen(membership)
                proj = community_of[proj]
            row.update(lv.summary(coarse2.graph.num_vertices))

        gain = level_finals[-2] - level_finals[-1]
        if lv.total_moves == 0 or gain < cfg.threshold:
            converged = True
            break
        net = coarse2
    buf.set_context(level=None)

    out = {
        "vertices": my_vertices,
        "modules": proj[coarse_of_stage1],
        "codelength": codelength_history[-1],
        "codelength_history": codelength_history,
        "swap_backs": swap_backs,
        "records": records,
        "converged": converged,
        "timer": timer.snapshot(),
        "stage1_timer": stage1_timer,
        "stage1_rounds": lv1.rounds,
        "num_entries_stage1": lg.num_entries,
        "num_ghosts_stage1": lg.num_ghosts,
    }
    if ingest is not None:
        out["ingest"] = ingest
    return out


def _warm_rank_program(
    comm: Communicator,
    cfg: InfomapConfig,
    n0: int,
    *,
    seed_membership: np.ndarray,
    active_seed: "np.ndarray | None",
    graph: "Graph | None" = None,
    delta: "GraphDelta | None" = None,
) -> dict[str, Any]:
    """A warm solve on a rank that keeps its view between calls.

    With *graph* (the first call of a job), the rank builds its own 1D
    round-robin view of it; with *delta* (a later call), it applies the
    batch to the graph replica it kept and splices its view in place
    (:func:`repro.partition.repair.repair_local_view`).  Either way the
    rank keeps the graph and the view in ``comm.resident`` and then runs
    :func:`_rank_program`.  The build or splice is charged to no
    :class:`PhaseTimer` phase and exchanges no traffic; its seconds and
    stats ride back under ``"splice"``.
    """
    keep = comm.resident
    t0 = time.perf_counter()
    if graph is not None:
        part = OneDPartition.round_robin(n0, comm.size)
        lg = local_views_1d(
            FlowNetwork.from_graph(graph), part, rank=comm.rank
        )[0]
        stats = None
    else:
        part, lg = keep["part"], keep["view"]
        graph = apply_delta(keep["graph"], delta)
        stats = repair_local_view(lg, graph, delta, part)
    keep.update(graph=graph, part=part, view=lg)
    seconds = time.perf_counter() - t0
    out = _rank_program(
        comm, cfg, n0, lg=lg,
        seed_membership=seed_membership, active_seed=active_seed,
    )
    out["splice"] = {"seconds": seconds, "stats": stats}
    return out


# ---------------------------------------------------------------------------
# Public drivers
# ---------------------------------------------------------------------------

def _launch(
    nranks: int,
    cfg: InfomapConfig,
    *,
    timeout: float,
    tracer: Any,
    live: Any,
    backend: "str | None",
    job: "SpmdJob | None" = None,
    program: Any = _rank_program,
    **kwargs: Any,
) -> Any:
    """Run *program* as ``program(comm, cfg=..., **kwargs)``.

    One-shot through :func:`run_spmd`, or as the next call of a
    resident *job* (whose ranks, backend and live plane are fixed at its
    launch).  The *tracer*, *live* and *backend* arguments override the
    config's own.  The shipped config never carries the tracer or live
    plane: ranks reach their buffers through the communicator (the
    engine attaches them), and a Tracer holds a threading.Lock that
    cannot cross the process-backend boundary.
    """
    ship_cfg = (
        cfg.with_(tracer=None, live=None)
        if (cfg.tracer is not None or cfg.live is not None) else cfg
    )
    fn_kwargs = {"cfg": ship_cfg, **kwargs}
    tracer = tracer if tracer is not None else cfg.tracer
    if job is not None:
        return job.call(
            program, fn_kwargs=fn_kwargs, tracer=tracer, timeout=timeout
        )
    return run_spmd(
        program,
        nranks,
        fn_kwargs=fn_kwargs,
        timeout=timeout,
        tracer=tracer,
        live=live if live is not None else cfg.live,
        backend=backend if backend is not None else cfg.backend,
    )


def _warm_solve(
    nranks: int,
    cfg: InfomapConfig,
    seed_membership: np.ndarray,
    active: "np.ndarray | None",
    *,
    graph: "Graph | None" = None,
    delta: "GraphDelta | None" = None,
    job: "SpmdJob | None" = None,
    machine: "MachineModel | None" = None,
    timeout: float = 600.0,
    tracer: Any = None,
    live: Any = None,
    backend: "str | None" = None,
) -> ClusteringResult:
    """Warm solve via :func:`_warm_rank_program`: one-shot on *graph*,
    or as a call of a resident *job* (its first call passes *graph*,
    later ones the *delta* the ranks apply to their replicas).

    The result's extras add ``splice_seconds_max`` (the slowest rank's
    view build or splice) and ``splice`` (the ranks' summed repair
    stats; ``None`` when the views were built).
    """
    n = seed_membership.size
    res = _launch(
        nranks, cfg, job=job, program=_warm_rank_program, n0=n,
        graph=graph, delta=delta, seed_membership=seed_membership,
        active_seed=active, timeout=timeout, tracer=tracer, live=live,
        backend=backend,
    )
    splices = [out["splice"] for out in res.results]
    return _assemble_result(
        res, n, nranks, machine,
        head_extras={"d_high": None, "num_hubs": 0, "warm_start": True},
        tail_extras={
            "splice_seconds_max": max(sp["seconds"] for sp in splices),
            "splice": None if splices[0]["stats"] is None
            else sum_repair_stats([sp["stats"] for sp in splices]),
        },
    )


def distributed_infomap(
    graph: Graph,
    nranks: int,
    config: InfomapConfig | None = None,
    *,
    seed_membership: "np.ndarray | None" = None,
    active: "np.ndarray | None" = None,
    machine: MachineModel | None = None,
    timeout: float = 600.0,
    tracer: Any = None,
    live: Any = None,
    backend: str | None = None,
) -> ClusteringResult:
    """Run the distributed Infomap algorithm on *nranks* simulated ranks.

    Preprocessing (delegate partitioning, flow normalization) happens
    up front; the two clustering stages run as an SPMD job on the
    in-process runtime.  See :class:`DistributedInfomap` for the
    object-style API and the paper mapping.

    Warm start: *seed_membership* (length ``graph.num_vertices``, global
    id space) replaces the all-singletons stage-1 init; *active*, when
    given, is a boolean mask restricting the first sweep to a delta's
    dirty frontier — untouched vertices are only revisited if a
    neighbour or their module changes, so a converged region costs
    nothing.  Partitioning is then plain 1D round-robin with no
    delegates: a warm start exists to avoid O(graph) work, and the
    delegate planner is itself an O(graph) pass; each rank builds its
    own view.  *active* needs a seed.  (An
    :class:`~repro.core.incremental.IncrementalSession` keeps the views
    in resident ranks across batches instead.)

    With a :class:`~repro.obs.trace.Tracer` (argument or
    ``config.tracer``) every rank records phase spans, per-round
    convergence samples and per-message byte meters on its own
    timeline; tracing never changes any clustering decision.

    With a :class:`~repro.obs.live.LivePlane` (argument or
    ``config.live``) every rank additionally publishes in-flight
    progress — level, round, codelength, moves, edge scans, byte
    totals, heartbeats — into its plane row, readable mid-run by
    ``repro-infomap status``/``watch``.  The plane is write-only for
    the solver, so live-on runs stay bitwise-identical to live-off.

    *backend* picks the SPMD execution backend (``"threads"``,
    ``"procs"`` or ``"serial"``; ``None`` defers to ``config.backend``).
    Backends are result-equivalent: memberships, codelength
    trajectories and logical ledger totals are identical.
    """
    cfg = config or InfomapConfig()
    if graph.num_edges == 0:
        raise ValueError("cannot cluster a graph with no edges")
    n = graph.num_vertices
    if seed_membership is None:
        if active is not None:
            raise ValueError("active needs seed_membership")
        mean_degree = graph.nnz / max(n, 1)
        dpart = delegate_partition(
            graph,
            nranks,
            d_high=cfg.resolve_d_high(nranks, mean_degree),
            rebalance=cfg.rebalance,
        )
        views = build_local_graphs(
            FlowNetwork.from_graph(graph),
            entry_rank=dpart.entry_rank,
            owner=dpart.owner,
            is_hub=dpart.is_hub,
            nranks=nranks,
        )
        res = _launch(
            nranks, cfg, n0=n, views=views,
            timeout=timeout, tracer=tracer, live=live, backend=backend,
        )
        return _assemble_result(
            res, n, nranks, machine,
            head_extras={"d_high": dpart.d_high, "num_hubs": dpart.num_hubs},
        )
    seed_membership = np.asarray(seed_membership, dtype=np.int64)
    if seed_membership.shape != (n,):
        raise ValueError(
            f"seed_membership must have shape ({n},), "
            f"got {seed_membership.shape}"
        )
    if active is not None:
        active = np.asarray(active, dtype=bool)
        if active.shape != (n,):
            raise ValueError(
                f"active must have shape ({n},), got {active.shape}"
            )
    return _warm_solve(
        nranks, cfg, seed_membership, active, graph=graph, machine=machine,
        timeout=timeout, tracer=tracer, live=live, backend=backend,
    )


def _assemble_result(
    res: Any,
    num_vertices: int,
    nranks: int,
    machine: "MachineModel | None",
    *,
    method: str = "distributed",
    head_extras: "dict[str, Any] | None" = None,
    tail_extras: "dict[str, Any] | None" = None,
) -> ClusteringResult:
    """Turn per-rank SPMD outputs into one :class:`ClusteringResult`.

    Shared by every driver (and the GossipMap baseline) so all report
    the identical extras schema (plus driver-specific keys).
    """
    # Assemble the flat membership from per-rank exactly-once pieces.
    membership = np.full(num_vertices, -1, dtype=np.int64)
    for out in res.results:
        membership[out["vertices"]] = out["modules"]
    if (membership < 0).any():
        raise AssertionError("some vertices were not assigned by any rank")
    _uniq, membership = np.unique(membership, return_inverse=True)
    membership = membership.astype(np.int64)

    r0 = res.results[0]
    levels = [LevelRecord(**rec) for rec in r0["records"]]

    # Per-phase maxima over ranks: the Figure 8 breakdown inputs.
    phase_seconds: dict[str, float] = {}
    phase_work: dict[str, float] = {}
    for out in res.results:
        for ph, s in out["timer"]["seconds"].items():
            phase_seconds[ph] = max(phase_seconds.get(ph, 0.0), s)
        for ph, wk in out["timer"]["work"].items():
            phase_work[ph] = max(phase_work.get(ph, 0.0), wk)

    mm = machine or MachineModel()
    modeled = _modeled_time(res, mm, nranks)

    return ClusteringResult(
        membership=membership,
        codelength=float(r0["codelength"]),
        levels=levels,
        method=method,
        converged=bool(r0["converged"]),
        extras={
            "nranks": nranks,
            **(head_extras or {}),
            "codelength_history": r0["codelength_history"],
            "phase_seconds_max": phase_seconds,
            "phase_work_max": phase_work,
            "per_rank_timer": [out["timer"] for out in res.results],
            "comm_snapshot": res.ledger.snapshot(),
            "total_comm_bytes": res.ledger.total_bytes,
            "max_rank_comm_bytes": res.ledger.max_rank_bytes,
            "modeled": modeled,
            "stage1_seconds_max": max(
                sum(o["stage1_timer"]["seconds"].values())
                for o in res.results
            ),
            "total_seconds_max": max(
                sum(o["timer"]["seconds"].values()) for o in res.results
            ),
            "stage1_work_max": max(
                sum(o["stage1_timer"]["work"].values()) for o in res.results
            ),
            "total_work_max": max(
                sum(o["timer"]["work"].values()) for o in res.results
            ),
            "stage1_rounds": r0["stage1_rounds"],
            # Per level; every rank runs the same levels.
            "swap_backs": [
                int(sum(col))
                for col in zip(*(o["swap_backs"] for o in res.results))
            ],
            "entries_per_rank": [o["num_entries_stage1"] for o in res.results],
            "ghosts_per_rank": [o["num_ghosts_stage1"] for o in res.results],
            **(tail_extras or {}),
        },
    )


def external_infomap(
    store_dir: "str | Any",
    nranks: int,
    config: InfomapConfig | None = None,
    *,
    machine: MachineModel | None = None,
    timeout: float = 600.0,
    tracer: Any = None,
    live: Any = None,
    backend: str | None = None,
) -> ClusteringResult:
    """Cluster an on-disk CSR store without loading the graph.

    The out-of-core counterpart of :func:`distributed_infomap`: the
    driver reads only the store header and ``xadj`` to cut
    entry-balanced contiguous shards (:func:`repro.partition.shard.plan_shards`),
    ships the tiny :class:`~repro.partition.shard.ShardPlan` to the
    ranks, and each rank memmaps the store and builds its own
    :class:`LocalGraph` from its row slice (ghost flows via two sparse
    exchanges).  Peak per-rank RSS therefore scales with the shard —
    the property the ingest benchmark guards.

    Partitioning is plain 1D blocks (no delegates): the hub machinery
    runs with an empty hub set, so the clustering rounds are the exact
    code path of the in-RAM driver.  Results are bitwise identical to
    ``distributed_infomap`` run with the same block partition.

    The returned extras carry ``ingest_per_rank`` (per-rank load
    stats + RSS baselines) and ``peak_rss_per_rank`` (populated by the
    procs backend; ``None`` entries elsewhere).
    """
    from ..partition.shard import plan_shards  # lazy: import cycle

    cfg = config or InfomapConfig()
    plan = plan_shards(store_dir, nranks)
    res = _launch(
        nranks, cfg, n0=plan.num_vertices, shard=(str(store_dir), plan),
        timeout=timeout, tracer=tracer, live=live, backend=backend,
    )
    return _assemble_result(
        res,
        plan.num_vertices,
        nranks,
        machine,
        head_extras={"d_high": None, "num_hubs": 0},
        tail_extras={
            "store_dir": str(store_dir),
            "shard_bounds": plan.bounds.tolist(),
            "ingest_per_rank": [o["ingest"] for o in res.results],
            "ingest_seconds_max": max(
                o["ingest"]["seconds"] for o in res.results
            ),
            "peak_rss_per_rank": list(getattr(res, "peak_rss", None) or []),
        },
    )


def _modeled_time(res: Any, mm: MachineModel, nranks: int) -> dict[str, float]:
    """BSP-modeled seconds per phase and in total (see costmodel docs)."""
    phases: dict[str, float] = {}
    # Compute: critical path = max over ranks of per-phase work units.
    per_rank_work: dict[str, list[float]] = {}
    for out in res.results:
        for ph, wk in out["timer"]["work"].items():
            per_rank_work.setdefault(ph, []).append(wk)
    for ph, works in per_rank_work.items():
        phases[ph] = phases.get(ph, 0.0) + mm.work_time(max(works))
    # Communication: busiest rank's metered traffic per phase.
    ledger = res.ledger
    for ph in ledger.phases():
        pb = ledger.phase_bytes(ph)
        per_rank_bytes = [
            s.bytes_by_phase.get(ph, 0) for s in ledger
        ]
        per_rank_msgs = [
            s.messages_by_phase.get(ph, 0) for s in ledger
        ]
        t = mm.p2p_time(max(per_rank_msgs), max(per_rank_bytes))
        phases[ph] = phases.get(ph, 0.0) + t
    # Collective latency: log-depth trees per collective call.
    coll_calls = max(s.collective_calls + s.barrier_calls for s in ledger)
    sync = mm.collective_latency(nranks, coll_calls)
    phases["collective_sync"] = sync
    # Serialization: measured encode+decode seconds on the slowest rank.
    # Unlike the alpha-beta terms this is wall time actually spent in
    # the codec of the thread-backed simulator, so it is reported as a
    # diagnostic next to the model but kept out of the analytic total:
    # it reflects this process's GIL-serialized execution, not the
    # modeled machine (an mpi4py port drops the frame path to near
    # zero via the buffer protocol).
    phases["serialization"] = ledger.max_serialization_seconds
    phases["total"] = sum(
        v for k, v in phases.items()
        if k not in ("total", PHASE_MEASUREMENT, "serialization")
    )
    return phases


class DistributedInfomap:
    """Object-style API for the distributed algorithm.

    Example::

        from repro import DistributedInfomap, InfomapConfig, load_dataset

        data = load_dataset("dblp")
        result = DistributedInfomap(nranks=8).run(data.graph)
        print(result.summary())
        print(result.extras["phase_seconds_max"])

    Args:
        nranks: simulated MPI ranks.
        config: algorithm knobs (see :class:`InfomapConfig`).
        machine: machine model for the modeled-time accounting.
        backend: SPMD execution backend — ``"threads"``, ``"procs"``
            (process-per-rank, shared-memory transport) or ``"serial"``;
            ``None`` defers to ``config.backend``.
    """

    def __init__(
        self,
        nranks: int,
        config: InfomapConfig | None = None,
        *,
        machine: MachineModel | None = None,
        timeout: float = 600.0,
        tracer: Any = None,
        backend: str | None = None,
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self.config = config or InfomapConfig()
        self.machine = machine
        self.timeout = timeout
        self.tracer = tracer
        self.backend = backend

    def run(self, graph: Graph) -> ClusteringResult:
        return distributed_infomap(
            graph,
            self.nranks,
            self.config,
            machine=self.machine,
            timeout=self.timeout,
            tracer=self.tracer,
            backend=self.backend,
        )
