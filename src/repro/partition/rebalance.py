"""Trace-informed mid-run dynamic repartitioning (work stealing).

The paper's scalability argument rests on workload ∝ locally stored
edges (§3.3), and the observability layer already measures the per-rank
reality of that claim — edge-scan work counters per phase, byte meters,
per-round spans.  This module closes the loop: every
``rebalance_interval`` rounds the ranks allgather their *Find Best
Module* edge-scan counters, compute the max/mean skew, and when it
exceeds ``InfomapConfig.rebalance_threshold`` the most loaded rank
(*donor*) migrates a budgeted set of boundary vertices — CSR rows, flow
values, current module membership and ghost registrations — to the
least loaded rank (*receiver*) over the regular frame-codec exchange,
after which every rank repairs its ghost ownership, boundary
bookkeeping and module table *exactly*, so the next sweep round is
correct without a global rebuild.

Protocol (every step is collective; all ranks execute the same
sequence, so the SPMD schedule stays aligned):

1. **Probe** — ``allgather((work_window, num_owned))``; every rank
   derives the same (donor, receiver, skew) decision from the same
   data.  Under-threshold skew returns ``None`` uniformly.
2. **Victim selection** (donor only) — candidates are the donor's
   boundary vertices (owned, non-hub by construction) with stored
   entries; each is scored *cheapest-to-move first* as
   ``row_degree - 2 · (edges into receiver-owned ghosts)`` — vertices
   already coupled to the receiver cost the least new ghost fan-in.
   Greedy selection up to an entry budget of half the measured
   per-round donor-receiver work gap (the classic work-stealing
   split), capped by :data:`MAX_VERTICES` and never emptying
   the donor.
3. **Announce** — ``allgatherv`` of the migrated vertex ids (+ row
   degrees), so every rank learns the migration set; an empty set
   returns ``None`` uniformly.
4. **Payload** — one point-to-point message donor→receiver over
   ``exchange(..., known_counts=...)`` (the sparse fast path: the
   destination set is static, no counts handshake).  The payload ships
   the migrated rows in *global-id space* plus the metadata the
   receiver cannot derive locally (target flow/exit0/membership/owner,
   per-vertex ghosting ranks).
5. **Ghost-owner repair** (all ranks) — ``ghost_owner`` entries for
   migrated ids flip to the receiver in place.
6. **Structural rebuild** (donor + receiver) — a fresh
   :class:`LocalGraph` is carved from the kept/extended entry set with
   the same layout invariants as ``build_local_graphs`` (owned and
   ghost segments ascending by global id, stable CSR order), and a
   fresh module state adopts the surviving membership plus the old
   state's delta-swap caches.
7. **Registration exchange** (all ranks) — ghost-set diffs
   (register/deregister) travel to the owning ranks, which splice
   their ``boundary_local``/``boundary_ranks`` accordingly;
   ``neighbor_ranks`` is recomputed everywhere.
8. **Resync** — every rank recomputes its exact contribution and the
   module tables are rebuilt through the configured swap path.  The
   delta path runs with ``refresh_sent=True`` and an explicit
   destination set covering *previously contacted* ranks, so a stale
   cached contribution from the donor can never double-count mass that
   now arrives from the receiver.  One allreduce restores the exact
   global exit sum.

Memberships never change during a migration, and rank contributions
stay additive, so the global codelength is invariant across an event —
the acceptance check the benchmark asserts.

This module deliberately imports nothing from :mod:`repro.core` (the
distributed solver imports *us*; importing back would cycle).  The
module state is duck-typed, constructed via ``state.__class__``; the
phase name comes from :mod:`repro.obs.live`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..obs.live import PHASE_REBALANCE
from .distgraph import LocalGraph
from .repair import _recompute_neighbor_ranks

__all__ = ["RebalanceOutcome", "maybe_rebalance"]

#: Cap on vertices migrated per event: a safety valve so one decision
#: cannot ship half a rank.
MAX_VERTICES = 4096

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


@dataclass
class RebalanceOutcome:
    """What one migration event did to this rank.

    Attributes:
        structural: True on the donor and receiver — ``lg``/``state``/
            ``active`` are fresh objects the caller must adopt (and
            rebuild any level caches derived from the local graph).
            False elsewhere: the same objects are returned, repaired in
            place where needed.
        lg: the (possibly rebuilt) local graph.
        state: the (possibly rebuilt) module state, tables resynced.
        active: owned-vertex active mask matching ``lg.num_owned``.
        own: this rank's fresh exact contribution (matches ``state``).
        info: event record, identical on every rank — ``donor``,
            ``receiver``, ``vertices``, ``entries``, ``skew``.
    """

    structural: bool
    lg: LocalGraph
    state: Any
    active: np.ndarray
    own: Any
    info: dict[str, Any]


def maybe_rebalance(
    comm: Any,
    lg: LocalGraph,
    state: Any,
    cfg: Any,
    timer: Any,
    active: np.ndarray,
    *,
    work_window: float,
    rounds_window: int,
) -> "RebalanceOutcome | None":
    """Probe the work skew and migrate boundary vertices if it pays.

    Collective: every rank of *comm* must call this at the same point
    with its own ``work_window`` (edge-scan work units accumulated
    since the previous probe).  Returns ``None`` on every rank when no
    migration happens, else a :class:`RebalanceOutcome` on every rank.
    """
    with timer.phase(PHASE_REBALANCE):
        return _rebalance_step(
            comm, lg, state, cfg, active,
            work_window=work_window, rounds_window=rounds_window,
        )


def _rebalance_step(
    comm: Any,
    lg: LocalGraph,
    state: Any,
    cfg: Any,
    active: np.ndarray,
    *,
    work_window: float,
    rounds_window: int,
) -> "RebalanceOutcome | None":
    rank = comm.rank
    p = comm.size

    # -- 1. probe: everyone sees the same numbers, decides identically --
    probe = comm.allgather((float(work_window), int(lg.num_owned)))
    works = np.asarray([w for w, _ in probe], dtype=np.float64)
    owned = np.asarray([o for _, o in probe], dtype=np.int64)
    mean = float(works.mean())
    donor = int(np.argmax(works))  # first max -> lowest-rank tie-break
    cand_ranks = np.flatnonzero(
        (owned > 0) & (np.arange(p, dtype=np.int64) != donor)
    )
    go = mean > 0.0 and cand_ranks.size > 0
    skew = 0.0
    receiver = -1
    if go:
        skew = float(works[donor]) / mean
        receiver = int(cand_ranks[np.argmin(works[cand_ranks])])
        go = (
            skew >= cfg.rebalance_threshold
            and float(works[donor]) > float(works[receiver])
        )
    if not go:
        return None

    # -- 2. victim selection on the donor -------------------------------
    if rank == donor:
        mig_pos = _select_victims(
            lg, works, donor, receiver,
            rounds_window=rounds_window,
            max_vertices=MAX_VERTICES,
        )
        mig_gids = lg.global_of[mig_pos]
        mig_deg = (
            lg.indptr[mig_pos + 1] - lg.indptr[mig_pos]
        ).astype(np.int64)
    else:
        mig_pos = _EMPTY_I64
        mig_gids = _EMPTY_I64
        mig_deg = _EMPTY_I64

    # -- 3. announce: every rank learns the migration set ---------------
    (mig_all, deg_all), _counts = comm.allgatherv((mig_gids, mig_deg))
    if mig_all.size == 0:
        return None
    info = {
        "donor": donor,
        "receiver": receiver,
        "vertices": int(mig_all.size),
        "entries": int(deg_all.sum()),
        "skew": skew,
    }
    live = comm.live
    if live.enabled:
        # The event is collective, so every rank counts it once; the
        # live "migrations" counter is therefore the replicated number
        # of migration events, like the solver's moves counter.
        live.add("migrations", 1)

    # -- 4. payload donor -> receiver (sparse fast path) ----------------
    msgs: dict[int, Any] = {}
    if rank == donor:
        msgs[receiver] = _build_payload(lg, state, mig_pos, receiver)
    recv = comm.exchange(
        msgs, known_counts=(1 if rank == receiver else 0)
    )
    payload = recv.get(donor)

    # -- 5. ghost-owner repair, everywhere ------------------------------
    ghost_gids_before = lg.global_of[lg.ghost_slice()].copy()
    hit = np.isin(ghost_gids_before, mig_all)
    if hit.any():
        lg.ghost_owner[hit] = receiver
    owner_before = lg.ghost_owner.copy()

    # -- 6. structural rebuild on donor and receiver --------------------
    structural = rank in (donor, receiver)
    if rank == donor:
        lg, state, active = _rebuild_donor(
            lg, state, mig_pos, mig_gids, receiver
        )
    elif rank == receiver:
        lg, state, active = _rebuild_receiver(lg, state, payload, donor)

    # -- 7. ghost registration exchange ---------------------------------
    reg_msgs: dict[int, Any] = {}
    if structural:
        reg_msgs = _registration_msgs(
            rank,
            ghost_gids_before, owner_before,
            lg.global_of[lg.ghost_slice()], lg.ghost_owner,
        )
    reg_recv = comm.exchange(reg_msgs)
    if reg_recv:
        _apply_registrations(lg, state, reg_recv)
    _recompute_neighbor_ranks(lg, rank)

    # -- 8. exact resync of contributions and module tables -------------
    own = state.contribution()
    if cfg.full_module_info and cfg.delta_swap:
        dests = sorted(
            set(lg.neighbor_ranks.tolist()) | set(state._sent_to)
        )
        out = state.prepare_swap_delta(
            own, None, refresh_sent=True, dests=dests
        )
        recv2 = comm.exchange(out)
        state.apply_swap_delta(recv2)
        state.rebuild_table_from_caches(own)
    elif cfg.full_module_info:
        batches = state.prepare_swap(own, None)
        recv2 = comm.exchange(batches)
        state.rebuild_table(own, list(recv2.values()))
    else:
        comm.exchange({})  # keep the exchange schedule uniform
        state.rebuild_table(own, [])
    state.sum_exit_global = float(comm.allreduce(own.total_exit()))

    buf = comm.trace
    if buf.enabled:
        buf.instant("rebalance", args=dict(info))
        buf.counter("rebalance_vertices", float(info["vertices"]))

    return RebalanceOutcome(
        structural=structural, lg=lg, state=state, active=active,
        own=own, info=info,
    )


# ---------------------------------------------------------------------------
# Victim selection
# ---------------------------------------------------------------------------

def _select_victims(
    lg: LocalGraph,
    works: np.ndarray,
    donor: int,
    receiver: int,
    *,
    rounds_window: int,
    max_vertices: int,
) -> np.ndarray:
    """Donor-side choice of which boundary vertices to ship.

    Returns sorted owned local indices (ascending, hence ascending
    global id).  Deterministic: the score sort tie-breaks on global id.
    """
    cand = lg.boundary_local  # owned, non-hub by construction
    if cand.size == 0 or lg.num_owned <= 1:
        return _EMPTY_I64
    deg = (lg.indptr[cand + 1] - lg.indptr[cand]).astype(np.int64)
    nz = deg > 0
    cand = cand[nz]
    deg = deg[nz]
    if cand.size == 0:
        return _EMPTY_I64

    # Edges from each candidate into receiver-owned ghosts: those
    # become receiver-internal after the move, so they are subtracted
    # twice (one entry leaves the donor AND one ghost link disappears).
    ghost_base = lg.num_owned + lg.num_hubs
    src_all = np.repeat(
        np.arange(lg.num_sources, dtype=np.int64), np.diff(lg.indptr)
    )
    is_cand = np.zeros(lg.num_sources, dtype=bool)
    is_cand[cand] = True
    e_sel = is_cand[src_all]
    e_src = src_all[e_sel]
    e_tgt = lg.nbr[e_sel]
    to_recv = np.zeros(e_tgt.size, dtype=bool)
    gm = e_tgt >= ghost_base
    if gm.any():
        to_recv[gm] = lg.ghost_owner[e_tgt[gm] - ghost_base] == receiver
    r_cnt = np.bincount(
        e_src[to_recv], minlength=lg.num_sources
    ).astype(np.int64)[cand]
    score = deg - 2 * r_cnt

    order = np.lexsort((lg.global_of[cand], score))
    # Entry budget: steal half the donor-receiver gap (per measured
    # round), the classic work-stealing split — equalizing the pair
    # without overshooting into a reversed imbalance.
    gap = float(works[donor]) - float(works[receiver])
    entry_budget = max(1, int(gap / 2.0 / max(1, rounds_window)))
    cum = np.cumsum(deg[order])
    n_take = int(np.searchsorted(cum, entry_budget, side="right"))
    n_take = max(1, n_take)
    n_take = min(n_take, cand.size, max_vertices, lg.num_owned - 1)
    if n_take < 1:
        return _EMPTY_I64
    take = cand[order[:n_take]]
    take.sort()
    return take


# ---------------------------------------------------------------------------
# Migration payload (donor -> receiver)
# ---------------------------------------------------------------------------

def _build_payload(
    lg: LocalGraph, state: Any, mig_pos: np.ndarray, receiver: int
) -> tuple:
    """Everything the receiver needs, as typed columns in gid space.

    Layout (14 arrays; the frame codec ships each as raw bytes):
    per-vertex ``v_gid/v_mod/v_flow/v_exit0``; CSR rows
    ``row_ptr/tgt_gid/tgt_flow``; unique-target metadata
    ``u_gid/u_owner/u_flow/u_exit0/u_mod`` (owner −1 marks hubs);
    per-vertex ghosting ranks ``gr_ptr/gr_ranks`` (the donor's
    ``boundary_ranks`` minus the receiver — the donor's own post-move
    ghosting arrives later via the registration exchange).
    """
    mig_gids = lg.global_of[mig_pos]
    deg = (lg.indptr[mig_pos + 1] - lg.indptr[mig_pos]).astype(np.int64)
    row_ptr = np.zeros(mig_pos.size + 1, dtype=np.int64)
    np.cumsum(deg, out=row_ptr[1:])
    tgt_parts = [
        lg.nbr[lg.indptr[v]: lg.indptr[v + 1]] for v in mig_pos.tolist()
    ]
    flw_parts = [
        lg.nbr_flow[lg.indptr[v]: lg.indptr[v + 1]]
        for v in mig_pos.tolist()
    ]
    tgt_idx = (
        np.concatenate(tgt_parts) if tgt_parts else _EMPTY_I64
    )
    tgt_flow = (
        np.concatenate(flw_parts) if flw_parts else _EMPTY_F64
    )
    tgt_gid = lg.global_of[tgt_idx]

    u_loc = np.unique(tgt_idx)
    u_gid = lg.global_of[u_loc]
    u_flow = lg.flow[u_loc]
    u_exit0 = lg.exit0[u_loc]
    u_mod = state.module_of[u_loc]
    hub_lo = lg.num_owned
    ghost_base = lg.num_owned + lg.num_hubs
    u_owner = np.full(u_loc.size, -1, dtype=np.int64)
    is_own = u_loc < hub_lo
    u_owner[is_own] = lg.rank
    is_ghost = u_loc >= ghost_base
    if is_ghost.any():
        u_owner[is_ghost] = lg.ghost_owner[u_loc[is_ghost] - ghost_base]
    # Targets that are themselves migrating belong to the receiver now.
    mig_tgt = is_own & np.isin(u_gid, mig_gids)
    u_owner[mig_tgt] = receiver

    # Donor's boundary bookkeeping for the migrated vertices (all are
    # boundary by construction), minus the receiver itself.
    bpos = np.searchsorted(lg.boundary_local, mig_pos)
    gr_parts = [
        lg.boundary_ranks[int(j)][lg.boundary_ranks[int(j)] != receiver]
        for j in bpos.tolist()
    ]
    gr_ptr = np.zeros(mig_pos.size + 1, dtype=np.int64)
    np.cumsum(
        np.asarray([g.size for g in gr_parts], dtype=np.int64),
        out=gr_ptr[1:],
    )
    gr_ranks = (
        np.concatenate(gr_parts) if gr_parts else _EMPTY_I64
    ).astype(np.int64)

    return (
        mig_gids, state.module_of[mig_pos],
        lg.flow[mig_pos], lg.exit0[mig_pos],
        row_ptr, tgt_gid, tgt_flow,
        u_gid, u_owner, u_flow, u_exit0, u_mod,
        gr_ptr, gr_ranks,
    )


# ---------------------------------------------------------------------------
# Structural rebuild
# ---------------------------------------------------------------------------

def _meta_table(
    gid_parts: list, flow_parts: list, exit_parts: list, mod_parts: list
) -> tuple:
    """First-occurrence gid → (flow, exit0, module) lookup columns."""
    g = np.concatenate(gid_parts)
    f = np.concatenate(flow_parts)
    e = np.concatenate(exit_parts)
    m = np.concatenate(mod_parts)
    ug, first = np.unique(g, return_index=True)
    return ug, f[first], e[first], m[first]


def _meta_resolve(meta: tuple, gids: np.ndarray) -> tuple:
    ug, f, e, m = meta
    pos = np.searchsorted(ug, gids)
    if gids.size and not np.array_equal(ug[pos], gids):
        raise AssertionError("migration metadata is missing a vertex")
    return f[pos], e[pos], m[pos]


def _construct_local(
    old: LocalGraph,
    state: Any,
    *,
    owned_gids: np.ndarray,
    e_src_gid: np.ndarray,
    e_tgt_gid: np.ndarray,
    e_flow: np.ndarray,
    meta: tuple,
    ghost_owner_gids: np.ndarray,
    ghost_owner_vals: np.ndarray,
    b_gids: np.ndarray,
    b_ranks: list,
) -> tuple:
    """Carve a fresh (LocalGraph, state, active) after a migration.

    Mirrors ``build_local_graphs``'s layout invariants: owned and
    ghost segments ascend by global id, the CSR is a stable sort over
    source local index (so within-row entry order is the deterministic
    concat order the caller produced), hubs are untouched.
    """
    hub_gids = old.global_of[old.hub_slice()]
    ghost_gids = np.setdiff1d(
        np.unique(e_tgt_gid), np.concatenate([owned_gids, hub_gids])
    )
    global_of = np.concatenate([owned_gids, hub_gids, ghost_gids])
    srt = np.argsort(global_of, kind="stable")
    g_sorted = global_of[srt]

    def to_local(gids: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(g_sorted, gids)
        if gids.size and not np.array_equal(g_sorted[pos], gids):
            raise AssertionError("migration entry references an unknown gid")
        return srt[pos]

    num_owned = owned_gids.size
    num_hubs = hub_gids.size
    num_sources = num_owned + num_hubs
    src_local = to_local(e_src_gid)
    nbr_unsorted = to_local(e_tgt_gid)
    csr_order = np.argsort(src_local, kind="stable")
    nbr = nbr_unsorted[csr_order]
    nbr_flow = e_flow[csr_order]
    indptr = np.zeros(num_sources + 1, dtype=np.int64)
    np.add.at(indptr, src_local[csr_order] + 1, 1)
    np.cumsum(indptr, out=indptr)

    flow, exit0, module_of = _meta_resolve(meta, global_of)

    # Ghost owners, resolved per new ghost gid.
    opos = np.searchsorted(ghost_owner_gids, ghost_gids)
    if ghost_gids.size and not np.array_equal(
        ghost_owner_gids[opos], ghost_gids
    ):
        raise AssertionError("migration lost a ghost's owner")
    ghost_owner = ghost_owner_vals[opos].astype(np.int64)

    boundary_local = (
        np.searchsorted(owned_gids, b_gids) if b_gids.size else _EMPTY_I64
    )

    new_lg = LocalGraph(
        rank=old.rank,
        nranks=old.nranks,
        num_owned=num_owned,
        num_hubs=num_hubs,
        num_ghosts=ghost_gids.size,
        global_of=global_of,
        flow=flow,
        exit0=exit0,
        indptr=indptr,
        nbr=nbr,
        nbr_flow=nbr_flow,
        hub_home=old.hub_home,
        ghost_owner=ghost_owner,
        boundary_local=boundary_local.astype(np.int64),
        boundary_ranks=list(b_ranks),
        neighbor_ranks=old.neighbor_ranks,  # recomputed by the caller
    )
    new_lg.validate()

    new_state = state.__class__(new_lg)
    new_state.module_of = module_of.astype(np.int64)
    # The delta-swap caches are keyed by rank / global module id, not
    # by local position, so they survive the rebuild verbatim; the
    # resync step refreshes whatever the migration invalidated.
    new_state._peer_cols = state._peer_cols
    new_state._last_cols = state._last_cols
    new_state._sent_to = state._sent_to

    # Everything on a structural rank is re-evaluated next round: the
    # table estimates under every owned vertex just changed shape.
    active = np.ones(num_owned, dtype=bool)
    return new_lg, new_state, active


def _rebuild_donor(
    lg: LocalGraph,
    state: Any,
    mig_pos: np.ndarray,
    mig_gids: np.ndarray,
    receiver: int,
) -> tuple:
    src_all = np.repeat(
        np.arange(lg.num_sources, dtype=np.int64), np.diff(lg.indptr)
    )
    is_mig = np.zeros(lg.num_sources, dtype=bool)
    is_mig[mig_pos] = True
    keep = ~is_mig[src_all]
    e_src_gid = lg.global_of[src_all[keep]]
    e_tgt_gid = lg.global_of[lg.nbr[keep]]
    e_flow = lg.nbr_flow[keep]

    owned_gids = np.delete(lg.global_of[: lg.num_owned], mig_pos)

    # Old locals cover every gid the kept entries can reference
    # (migrated vertices stay resolvable as ghosts-to-be).
    meta = _meta_table(
        [lg.global_of], [lg.flow], [lg.exit0], [state.module_of]
    )

    # New ghosts are either old ghosts (owner already repaired in
    # place) or migrated vertices (owner = receiver).
    ghost_gids_old = lg.global_of[lg.ghost_slice()]
    og = np.concatenate([ghost_gids_old, mig_gids])
    ov = np.concatenate(
        [lg.ghost_owner,
         np.full(mig_gids.size, receiver, dtype=np.int64)]
    )
    osrt = np.argsort(og, kind="stable")

    keep_b = ~np.isin(lg.boundary_local, mig_pos)
    b_gids = lg.global_of[lg.boundary_local[keep_b]]
    b_ranks = [
        lg.boundary_ranks[int(j)] for j in np.flatnonzero(keep_b)
    ]

    return _construct_local(
        lg, state,
        owned_gids=owned_gids,
        e_src_gid=e_src_gid, e_tgt_gid=e_tgt_gid, e_flow=e_flow,
        meta=meta,
        ghost_owner_gids=og[osrt], ghost_owner_vals=ov[osrt],
        b_gids=b_gids, b_ranks=b_ranks,
    )


def _rebuild_receiver(
    lg: LocalGraph, state: Any, payload: tuple, donor: int
) -> tuple:
    (
        v_gid, v_mod, v_flow, v_exit0,
        row_ptr, tgt_gid, tgt_flow,
        u_gid, u_owner, u_flow, u_exit0, u_mod,
        gr_ptr, gr_ranks,
    ) = payload

    src_all = np.repeat(
        np.arange(lg.num_sources, dtype=np.int64), np.diff(lg.indptr)
    )
    deg = np.diff(row_ptr)
    e_src_gid = np.concatenate(
        [lg.global_of[src_all], np.repeat(v_gid, deg)]
    )
    e_tgt_gid = np.concatenate([lg.global_of[lg.nbr], tgt_gid])
    e_flow = np.concatenate([lg.nbr_flow, tgt_flow])

    owned_gids = np.sort(
        np.concatenate([lg.global_of[: lg.num_owned], v_gid])
    )

    # Old locals first (authoritative for everything the receiver
    # already held), then the shipped metadata for the new material.
    meta = _meta_table(
        [lg.global_of, v_gid, u_gid],
        [lg.flow, v_flow, u_flow],
        [lg.exit0, v_exit0, u_exit0],
        [state.module_of, v_mod, u_mod],
    )

    # Owners: old ghosts (repaired in place) first, then shipped
    # targets whose owner the donor resolved (hubs excluded — they can
    # never become ghosts).
    real = u_owner >= 0
    og = np.concatenate([lg.global_of[lg.ghost_slice()], u_gid[real]])
    ov = np.concatenate([lg.ghost_owner, u_owner[real]])
    uo, first = np.unique(og, return_index=True)

    # Boundary: surviving old entries plus the shipped ghosting sets of
    # the migrated vertices, merged in ascending gid order.
    old_b_gids = lg.global_of[lg.boundary_local]
    new_b_gids: list = [old_b_gids]
    new_b_ranks = list(lg.boundary_ranks)
    for i in range(v_gid.size):
        rr = gr_ranks[gr_ptr[i]: gr_ptr[i + 1]]
        if rr.size:
            new_b_gids.append(v_gid[i: i + 1])
            new_b_ranks.append(np.sort(rr))
    all_b = np.concatenate(new_b_gids)
    bsrt = np.argsort(all_b, kind="stable")
    b_gids = all_b[bsrt]
    b_ranks = [new_b_ranks[int(j)] for j in bsrt.tolist()]

    return _construct_local(
        lg, state,
        owned_gids=owned_gids,
        e_src_gid=e_src_gid, e_tgt_gid=e_tgt_gid, e_flow=e_flow,
        meta=meta,
        ghost_owner_gids=uo, ghost_owner_vals=ov[first],
        b_gids=b_gids, b_ranks=b_ranks,
    )


# ---------------------------------------------------------------------------
# Ghost registration repair
# ---------------------------------------------------------------------------

def _registration_msgs(
    rank: int,
    before_gids: np.ndarray,
    before_owner: np.ndarray,
    after_gids: np.ndarray,
    after_owner: np.ndarray,
) -> dict:
    """Per owning rank: (newly ghosted gids, no-longer-ghosted gids)."""
    added = np.setdiff1d(after_gids, before_gids)
    dropped = np.setdiff1d(before_gids, after_gids)
    out: dict[int, list] = {}
    if added.size:
        owners = after_owner[np.searchsorted(after_gids, added)]
        for r in np.unique(owners).tolist():
            if r != rank:
                out.setdefault(r, [_EMPTY_I64, _EMPTY_I64])[0] = (
                    added[owners == r]
                )
    if dropped.size:
        owners = before_owner[np.searchsorted(before_gids, dropped)]
        for r in np.unique(owners).tolist():
            if r != rank:
                out.setdefault(r, [_EMPTY_I64, _EMPTY_I64])[1] = (
                    dropped[owners == r]
                )
    return {r: (a, d) for r, (a, d) in out.items()}


def _apply_registrations(lg: LocalGraph, state: Any, recv: dict) -> None:
    """Splice ghosting ranks in/out of the boundary bookkeeping.

    Keeps ``boundary_local`` ascending (position order == gid order in
    the owned segment) and each rank list sorted, so the swap group-by
    and emission order stay deterministic.  Deterministic fold order:
    ascending source rank, ascending gid.
    """
    owned_gids = lg.global_of[: lg.num_owned]
    bl = lg.boundary_local
    br = lg.boundary_ranks
    for src in sorted(recv):
        add_g, del_g = recv[src]
        for gid in add_g.tolist():
            v = int(np.searchsorted(owned_gids, gid))
            if v >= lg.num_owned or owned_gids[v] != gid:
                raise AssertionError(
                    "ghost registration for a vertex this rank does not own"
                )
            j = int(np.searchsorted(bl, v))
            if j < bl.size and bl[j] == v:
                if src not in br[j]:
                    br[j] = np.sort(np.append(br[j], np.int64(src)))
            else:
                bl = np.insert(bl, j, v)
                br.insert(j, np.asarray([src], dtype=np.int64))
        for gid in del_g.tolist():
            v = int(np.searchsorted(owned_gids, gid))
            j = int(np.searchsorted(bl, v))
            if j >= bl.size or bl[j] != v:
                continue  # already gone (e.g. the vertex migrated away)
            rest = br[j][br[j] != src]
            if rest.size:
                br[j] = rest
            else:
                bl = np.delete(bl, j)
                br.pop(j)
    lg.boundary_local = bl
    lg.invalidate_boundary_groups()
    # Positions shifted: force a full membership re-send next round.
    state._synced_boundary = None
