"""Information swapping — the paper's List 1 + Algorithm 3.

After each local-move phase, ranks must reconcile the module aggregates
their next ΔL evaluations depend on.  The paper's protocol exchanges
*whole community information* of boundary vertices through a
``Module_Info`` record — ``(modID, sumPr, exitPr, numMembers, isSent)``
— where ``isSent`` dedups repeats so the same community's aggregate is
never double-added at a receiver (the Figure 3 failure mode).

This module implements the per-rank state that protocol maintains:

* :class:`ModuleInfo` — the wire record (List 1 verbatim).
* :class:`LocalModuleState` — one rank's membership array plus its
  best-known module table, with exact *local contribution* computation
  (the rank's own additive share of every module's aggregates) and the
  prepare/apply halves of Algorithm 3.

The split matters for correctness accounting: a rank's *contribution*
is exact local fact (its owned vertices' flow mass, its stored entries'
cut flow); the *table* is the paper's neighbor-reconstructed estimate
(own contribution + every received contribution), which is what moves
are scored against.

Representation
--------------

The module table is a live :class:`ModuleTable` (sorted id column +
parallel ``exit``/``sum_p``/``members`` arrays, with a small overflow
buffer absorbing mid-round inserts until the next ``compact()``), and
every protocol path — rebuild, swap-prepare, membership-sync — is
columnar: the contribution and the rebuild group by module id with
dense ``np.bincount(ids, minlength=max id + 1)`` reductions and a
presence mask (whose nonzero positions are the sorted id column), so
neither sorts, in transient arrays sized by the largest module id in
use; swap-prepare uses the :meth:`LocalGraph.boundary_groups` group-by.
``table_arrays()`` is a near-free view of the live columns.  Beside
the sorted column the table keeps a *slot index*: a dense ``int64``
array from module id to column slot (-1 when absent), rebuilt by every
``reset`` and extended by ``insert``, so the batch kernel resolves a
block's thousands of module ids with one gather instead of a binary
search each, and :meth:`ModuleTable.slot` reads a scalar one.  It
costs 8 B per id up to the largest module id the table has seen, plus
one clamp entry past it that every larger id reads.  A table whose ids
are sparser than 64 per module (plus 65,536) keeps no index and
binary-searches instead, with a dict for its scalar lookups; a level's
module ids are its vertex ids, so only hand-built tables do.  (A legacy
per-key dict implementation served as the equivalence oracle for one
release and has been retired; the read-only ``table_sum_p`` /
``table_exit`` / ``table_members`` mappings remain as views over the
live table.)

Determinism contract (tested): within a round the accumulation *order*
is pinned — own contribution first, then received batches in ascending
source order (which :meth:`Communicator.exchange` guarantees).
``np.bincount`` accumulates each bin sequentially in entry order, over
a dense id exactly as over an ``np.unique`` inverse, so the folded
floats are reproducible to the last bit regardless of rank count or
transport — the same fact :mod:`repro.core.kernels` relies on.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..partition.distgraph import LocalGraph, dense_unique, sorted_unique
from .kernels import module_record
from .mapequation import RunPlan

__all__ = [
    "ModuleInfo",
    "Contribution",
    "LocalModuleState",
    "ModuleTable",
    "TableArrays",
]

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


#: The slot index spans at most this many ids per module of the table,
#: plus :data:`_INDEX_FLOOR`.  A level's module ids are its vertex ids,
#: which a rank's table covers densely enough; a table with sparser ids
#: keeps no index, and its lookups binary-search the id column.
_INDEX_PER_MODULE = 64
_INDEX_FLOOR = 1 << 16


def _sparse(top: int, k: int) -> bool:
    """Whether ids up to *top* are too sparse to index for *k* modules."""
    return top >= _INDEX_PER_MODULE * k + _INDEX_FLOOR


def slot_index(ids: np.ndarray) -> "np.ndarray | None":
    """Dense ``{module id → slot}`` index of the sorted id column *ids*:
    ``index[m]`` is ``m``'s position in *ids*, ``-1`` if absent, and the
    last entry, one past the largest id, is a ``-1`` that every larger
    id is clamped to (:meth:`TableArrays.slots`).  ``None`` when the
    ids are too sparse (:data:`_INDEX_PER_MODULE`)."""
    if ids.size and _sparse(int(ids[-1]), ids.size):
        return None
    index = np.full(int(ids[-1]) + 2 if ids.size else 1, -1, dtype=np.int64)
    index[ids] = np.arange(ids.size, dtype=np.int64)
    return index


@dataclass(frozen=True)
class TableArrays:
    """Array-backed snapshot of a rank's module table.

    A *live view* of the :class:`ModuleTable` columns and slot index
    (near-free to produce) that lets the batched move kernel resolve
    thousands of ``(q_m, p_m)`` lookups with one gather from the index
    instead of a Python loop.  Values are the exact stored table floats
    (missing modules read as 0.0).  Without an *index* (a snapshot not
    taken from a table) one is built from *mod_ids*; ids too sparse to
    index (:func:`slot_index`) are binary-searched.
    """

    mod_ids: np.ndarray  # int64[k], sorted
    exit: np.ndarray  # float64[k]
    sum_p: np.ndarray  # float64[k]
    members: "np.ndarray | None" = None  # int64[k]
    index: "np.ndarray | None" = None  # int64[max id + 2], slot_index

    def __post_init__(self) -> None:
        if self.index is None:
            object.__setattr__(self, "index", slot_index(self.mod_ids))

    def slots(self, mod_ids: np.ndarray) -> np.ndarray:
        """Each of *mod_ids*' position in the columns, -1 if absent."""
        index = self.index
        if index is None:
            ids = self.mod_ids
            pos = np.minimum(np.searchsorted(ids, mod_ids), ids.size - 1)
            return np.where(ids[pos] == mod_ids, pos, -1)
        return index[np.minimum(mod_ids, index.size - 1)]

    def at(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(q_m, p_m) at *slots* (:meth:`slots`), 0.0 where absent."""
        if self.mod_ids.size == 0:
            return np.zeros(slots.size), np.zeros(slots.size)
        known = slots >= 0
        return (
            np.where(known, self.exit[slots], 0.0),
            np.where(known, self.sum_p[slots], 0.0),
        )

    def members_at(self, slots: np.ndarray, default: int = 1) -> np.ndarray:
        """Member counts at *slots*, *default* where absent.

        The default of 1 mirrors the scalar ``table_members.get(m, 1)``
        convention of the min-label rule (an unknown module is treated
        as a singleton).
        """
        if self.members is None:
            raise ValueError("snapshot was built without a members column")
        if self.mod_ids.size == 0:
            return np.full(slots.size, default, dtype=np.int64)
        return np.where(slots >= 0, self.members[slots], default)



@dataclass(frozen=True)
class ModuleInfo:
    """The List-1 message record for one module.

    Attributes:
        mod_id: module identifier (global namespace).
        sum_pr: sender's visit-probability contribution to the module.
        exit_pr: sender's exit-flow contribution.
        num_members: sender's member-count contribution.
        is_sent: True ⇒ this module's aggregate was already shipped to
            this receiver earlier in the round; the receiver must keep
            the association but must NOT add the numbers again.
    """

    mod_id: int
    sum_pr: float
    exit_pr: float
    num_members: int
    is_sent: bool


@dataclass
class Contribution:
    """A rank's exact additive share of module aggregates.

    ``Σ over ranks of Contribution == true global aggregates`` — this
    invariant (tested) is what makes the exact-codelength reduction and
    the swap protocol sound.
    """

    mod_ids: np.ndarray  # int64[k], sorted unique
    sum_p: np.ndarray  # float64[k]
    exit: np.ndarray  # float64[k]
    members: np.ndarray  # int64[k]

    def index_of(self, mod_id: int) -> int:
        """Position of *mod_id* or -1."""
        pos = np.searchsorted(self.mod_ids, mod_id)
        if pos < self.mod_ids.size and self.mod_ids[pos] == mod_id:
            return int(pos)
        return -1

    def total_exit(self) -> float:
        return float(self.exit.sum())


class _ModuleRecords(dict):
    """``{module id → (q, p, n, plogp(q), plogp(q + p))}``, filled lazily.

    A hit is a plain dict lookup; a miss builds the record from the
    table's columns with :func:`~repro.core.kernels.module_record` (the
    scorer's ``math.log2`` form, so a cached term is bitwise the term it
    replaces) and stores it.  An absent module reads as zero aggregates
    and a member count of 1: the min-label rule treats an unknown
    module as a singleton.
    """

    __slots__ = ("_table",)

    def __init__(self, table: "ModuleTable") -> None:
        super().__init__()
        self._table = table

    def __missing__(
        self, mod_id: int
    ) -> tuple[float, float, int, float, float]:
        t = self._table
        i = t.slot(mod_id)
        rec = module_record(0.0, 0.0) if i < 0 else module_record(
            *t._read(i)
        )
        self[mod_id] = rec
        return rec


class ModuleTable:
    """Live array-backed module table: sorted base + overflow buffer.

    The base columns (``ids`` sorted ascending, parallel ``exit`` /
    ``sum_p`` / ``members``) hold the table as of the last
    ``reset``/``compact``; modules created by moves between rebuilds
    land in small Python-list overflow buffers so an insert is O(1).
    ``compact()`` merges the overflow back into the sorted base (called
    before every snapshot; rebuilds call ``reset`` directly).  ``index``
    maps module id to slot as a dense array (:func:`slot_index`, -1 for
    an absent id; slots ``>= ids.size`` index the overflow) and serves
    both the batch kernel's vector lookups and :meth:`slot`'s scalar
    ones: ``reset`` rebuilds it and ``insert`` extends it, growing it
    past a new largest id.  For ids too sparse to index, ``index`` is
    ``None`` (from ``reset``, or from the ``insert`` that made them so,
    until the next ``reset``) and a ``{module id → slot}`` dict,
    ``_pos``, serves the scalar lookups instead.

    ``records[m]`` is ``(q, p, n, plogp(q), plogp(q + p))`` of module
    ``m``, cached for the distributed scalar scorer (see
    :class:`_ModuleRecords`).  A record is filled on its first read
    after a write: ``apply_move`` drops the records of the two modules
    it writes, and ``reset`` (every rebuild and ``compact``) drops them
    all, so no record outlives a round.

    In-place mutation of the base columns is deliberate: the batch
    sweep's :class:`TableArrays` "snapshot" of this table is live, and
    the sweep's certification logic only trusts snapshot entries whose
    modules are untouched since the chunk was scored (a touched module
    is read live through ``records``, or the vertex goes to the exact
    scorer, which reads this table directly).
    """

    __slots__ = (
        "ids", "exit", "sum_p", "members", "_pos", "index",
        "_ov_ids", "_ov_exit", "_ov_sum_p", "_ov_members", "records",
    )

    def __init__(self) -> None:
        self.records = _ModuleRecords(self)
        self.reset(_EMPTY_I64, _EMPTY_F64, _EMPTY_F64, _EMPTY_I64)

    def reset(
        self,
        ids: np.ndarray,
        exit_: np.ndarray,
        sum_p: np.ndarray,
        members: np.ndarray,
    ) -> None:
        """Adopt freshly rebuilt sorted columns; drop the overflow."""
        self.ids = ids
        self.exit = exit_
        self.sum_p = sum_p
        self.members = members
        self.index = slot_index(ids)
        self._pos = None if self.index is not None else dict(
            zip(ids.tolist(), range(ids.size))
        )
        self._ov_ids: list[int] = []
        self._ov_exit: list[float] = []
        self._ov_sum_p: list[float] = []
        self._ov_members: list[int] = []
        self.records.clear()

    def compact(self) -> None:
        """Merge the overflow buffer into the sorted base columns."""
        if not self._ov_ids:
            return
        ids = np.concatenate(
            [self.ids, np.asarray(self._ov_ids, dtype=np.int64)]
        )
        exit_ = np.concatenate([self.exit, np.asarray(self._ov_exit)])
        sum_p = np.concatenate([self.sum_p, np.asarray(self._ov_sum_p)])
        members = np.concatenate(
            [self.members, np.asarray(self._ov_members, dtype=np.int64)]
        )
        srt = np.argsort(ids, kind="stable")
        self.reset(ids[srt], exit_[srt], sum_p[srt], members[srt])

    def slot(self, mod_id: int) -> int:
        """*mod_id*'s slot (overflow slots follow the columns), -1 if
        absent."""
        index = self.index
        if index is None:
            return self._pos.get(mod_id, -1)
        return index.item(mod_id) if mod_id < index.size else -1

    # -- mutation ----------------------------------------------------------
    def _read(self, i: int) -> tuple[float, float, int]:
        k = self.ids.size
        if i < k:
            return (
                float(self.exit[i]), float(self.sum_p[i]),
                int(self.members[i]),
            )
        j = i - k
        return self._ov_exit[j], self._ov_sum_p[j], self._ov_members[j]

    def _write(self, i: int, q: float, p: float, n: int) -> None:
        k = self.ids.size
        if i < k:
            self.exit[i] = q
            self.sum_p[i] = p
            self.members[i] = n
        else:
            j = i - k
            self._ov_exit[j] = q
            self._ov_sum_p[j] = p
            self._ov_members[j] = n

    def insert(self, mod_id: int, q: float, p: float, n: int) -> None:
        """O(1) insert of a new module into the overflow buffer."""
        slot = self.ids.size + len(self._ov_ids)
        index = self.index
        if index is not None and mod_id >= index.size - 1:
            # Past the end: grow to keep the clamp entry past every id.
            if _sparse(mod_id, slot + 1):
                index = None
                self._pos = dict(
                    zip(self.ids.tolist() + self._ov_ids, range(slot))
                )
            else:
                index = np.full(mod_id + 2, -1, dtype=np.int64)
                index[: self.index.size] = self.index
            self.index = index
        if index is not None:
            index[mod_id] = slot
        else:
            self._pos[mod_id] = slot
        self._ov_ids.append(mod_id)
        self._ov_exit.append(q)
        self._ov_sum_p.append(p)
        self._ov_members.append(n)

    def apply_move(
        self,
        old: int,
        new: int,
        *,
        p_u: float,
        x_u: float,
        d_old: float,
        d_new: float,
    ) -> float:
        """Commit one vertex move; returns the Σ-exit change.

        Raises :class:`KeyError` when *old* is unknown — a vertex can
        only ever leave a module the table accounts for (its own mass
        put it there at the last rebuild, and entries are never dropped
        mid-round).
        """
        io = self.slot(old)
        if io < 0:
            raise KeyError(
                f"apply_move out of unknown module {old}: the mover's "
                f"own mass should have placed it in the table"
            )
        q_old, p_old, n_old = self._read(io)
        i_new = self.slot(new)
        if i_new < 0:
            q_new, p_new, n_new = 0.0, 0.0, 0
        else:
            q_new, p_new, n_new = self._read(i_new)
        q_old_after = q_old - x_u + 2.0 * d_old
        q_new_after = q_new + x_u - 2.0 * d_new
        self.records.pop(old, None)
        self.records.pop(new, None)
        self._write(io, q_old_after, p_old - p_u, n_old - 1)
        if i_new < 0:
            self.insert(new, q_new_after, p_new + p_u, n_new + 1)
        else:
            self._write(i_new, q_new_after, p_new + p_u, n_new + 1)
        return (q_old_after - q_old) + (q_new_after - q_new)

    def apply_plan(self, plan: RunPlan, lo: int, hi: int) -> None:
        """:meth:`apply_move` for moves ``lo:hi`` of *plan*, in order,
        under :class:`~repro.core.mapequation.RunPlan`'s requirements,
        on the base-column slots as of the plan (no :meth:`compact`
        since); a module new to the table is inserted in run order."""
        records = self.records
        if records:
            for m in plan.old[lo:hi] + plan.new[lo:hi]:
                if m in records:
                    del records[m]
        if plan.absent[hi] == plan.absent[lo]:
            slots = plan.slots[lo:hi].ravel()
            self.exit[slots] = plan.exits[lo:hi].ravel()
            self.sum_p[slots] = plan.sum_ps[lo:hi].ravel()
            self.members[slots] = plan.counts[lo:hi].ravel()
            return
        for j in range(lo, hi):
            slots, exits, sum_ps, counts = (
                plan.slots[j].tolist(), plan.exits[j].tolist(),
                plan.sum_ps[j].tolist(), plan.counts[j].tolist(),
            )
            self._write(slots[0], exits[0], sum_ps[0], counts[0])
            if slots[1] < 0:
                self.insert(plan.new[j], exits[1], sum_ps[1], counts[1])
            else:
                self._write(slots[1], exits[1], sum_ps[1], counts[1])


class _TableColumnView(Mapping):
    """Read-only ``{module id → value}`` view of one table column.

    Keeps the historical dict-style read API (``st.table_sum_p[m]``,
    ``dict(st.table_exit)``, ``m in st.table_members``) alive over the
    live :class:`ModuleTable` without materializing anything.  Covers
    overflow entries too, so a module inserted by a mid-round move is
    immediately visible.
    """

    __slots__ = ("_table", "_col")

    def __init__(self, table: ModuleTable, col: int) -> None:
        self._table = table
        self._col = col  # position in ModuleTable._read's (q, p, n)

    def __getitem__(self, mod_id: int):
        i = self._table.slot(mod_id)
        if i < 0:
            raise KeyError(mod_id)
        return self._table._read(i)[self._col]

    def __iter__(self):
        return iter(self._table.ids.tolist() + self._table._ov_ids)

    def __len__(self) -> int:
        return self._table.ids.size + len(self._table._ov_ids)


class LocalModuleState:
    """One rank's module bookkeeping for one clustering level.

    Responsibilities:

    * hold ``module_of`` (local-index → global module id),
    * compute the rank's exact :class:`Contribution`,
    * build/refresh the module *table* (estimates used by ΔL),
    * produce and consume Algorithm-3 message batches,
    * track which modules are *boundary* (min-label rule applies).
    """

    def __init__(self, lg: LocalGraph) -> None:
        self.lg = lg
        # Singleton initialization: every vertex its own module, module
        # id = global vertex id (Algorithm 1 lines 7-11).
        self.module_of = lg.global_of.copy()
        self._synced_boundary: np.ndarray | None = None
        # Delta-swap state, columnar: the peer caches are sorted
        # (ids, sum_p, exit, members) columns, the last-shipped
        # contribution is a sorted column set, and the per-destination
        # sent-module sets are sorted id arrays.
        self._peer_cols: dict[
            int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        self._last_cols: "tuple[np.ndarray, ...] | None" = None
        self._sent_to: dict[int, np.ndarray] = {}
        # Local indices of the vertices whose (flow, member) mass this
        # rank owns exactly once globally: the owned segment plus
        # home-hub copies.
        self.mass_idx = np.flatnonzero(
            np.concatenate([np.ones(lg.num_owned, dtype=bool), lg.hub_home])
        )
        self._mass_flow = lg.flow[self.mass_idx]
        # Per-entry source local index, precomputed once.
        self._entry_src = np.repeat(
            np.arange(lg.num_sources, dtype=np.int64), np.diff(lg.indptr)
        )
        # The table: global-estimate aggregates per module id.
        self._table = ModuleTable()
        ghost_gids = lg.global_of[lg.ghost_slice()]
        self._ghosts_sorted = bool(
            ghost_gids.size == 0
            or np.all(ghost_gids[:-1] <= ghost_gids[1:])
        )
        self.sum_exit_global: float = 0.0

    # -- dict-style read views over the live table ------------------------
    @property
    def table_exit(self) -> _TableColumnView:
        return _TableColumnView(self._table, 0)

    @property
    def table_sum_p(self) -> _TableColumnView:
        return _TableColumnView(self._table, 1)

    @property
    def table_members(self) -> _TableColumnView:
        return _TableColumnView(self._table, 2)

    @property
    def table_records(self) -> _ModuleRecords:
        """The table's lazily filled module records (read-only use)."""
        return self._table.records

    # -- exact local facts --------------------------------------------------
    def contribution(self) -> Contribution:
        """This rank's exact additive share of every local module.

        * ``sum_p``/``members``: owned vertices + home-hub copies only
          (each vertex counted on exactly one rank).
        * ``exit``: every locally *stored* entry ``(s → t)`` with
          endpoints in different modules adds its flow to ``s``'s
          module (each directed entry is stored on exactly one rank).
        """
        lg = self.lg
        mass_mods = self.module_of[self.mass_idx]
        mod_src = self.module_of[self._entry_src]
        cross = mod_src != self.module_of[lg.nbr]
        exit_mods = mod_src[cross]
        size = 1 + int(max(
            mass_mods.max(initial=-1), exit_mods.max(initial=-1)
        ))
        ids = dense_unique(size, mass_mods, exit_mods)
        return Contribution(
            mod_ids=ids,
            sum_p=np.bincount(
                mass_mods, weights=self._mass_flow, minlength=size
            )[ids],
            exit=np.bincount(
                exit_mods, weights=lg.nbr_flow[cross], minlength=size
            )[ids],
            members=np.bincount(mass_mods, minlength=size)[ids],
        )

    # -- the table the ΔL kernel reads -----------------------------------------
    def rebuild_table(
        self,
        own: Contribution,
        received: "list[object]",
    ) -> None:
        """Algorithm 3 lines 21-32: own contribution + received infos.

        One concatenate + segment-reduce over all column batches; the
        entry order (own first, then *received* in list order) fixes
        every accumulated float bitwise.  Ghost/hub vertices still in
        singleton modules the batches do not name are then seeded from
        static preprocessing data (flow / exit0), so round 0 can score
        moves before any info has been swapped.

        Args:
            own: this rank's exact contribution.
            received: one batch per sending neighbour — a list of
                :class:`ModuleInfo` records, the array wire form
                ``(mod_ids, sum_pr, exit_pr, num_members, is_sent)``
                (what :meth:`prepare_swap` ships; same fields, one
                array per column), or a peer's cached contribution
                ``(mod_ids, sum_pr, exit_pr, num_members)``.
        """
        ids_parts = [own.mod_ids]
        sp_parts = [own.sum_p]
        ex_parts = [own.exit]
        nm_parts = [own.members.astype(np.float64)]
        for batch in received:
            if not isinstance(batch, tuple):
                batch = (
                    np.asarray([i.mod_id for i in batch], dtype=np.int64),
                    np.asarray([i.sum_pr for i in batch]),
                    np.asarray([i.exit_pr for i in batch]),
                    np.asarray([i.num_members for i in batch],
                               dtype=np.int64),
                    np.asarray([i.is_sent for i in batch], dtype=bool),
                )
            ids, sp, ex, nm, *snt = batch
            if snt:
                # is_sent rows keep the id in the union (the receiver
                # keeps the association) but add zero mass (line 29).
                live = ~np.asarray(snt[0], dtype=bool)
                sp = np.where(live, sp, 0.0)
                ex = np.where(live, ex, 0.0)
                nm = np.where(live, nm, 0)
            ids_parts.append(np.asarray(ids, dtype=np.int64))
            sp_parts.append(np.asarray(sp, dtype=np.float64))
            ex_parts.append(np.asarray(ex, dtype=np.float64))
            nm_parts.append(np.asarray(nm, dtype=np.float64))
        all_ids = np.concatenate(ids_parts)
        lg = self.lg
        # Ghost/hub slots still in their singleton module.  Local slots
        # hold distinct vertices, so each such module names one slot.
        idx = np.arange(lg.num_owned, lg.num_local)
        cand = self.module_of[idx]
        sel = cand == lg.global_of[idx]
        cand, src = cand[sel], idx[sel]
        size = 1 + int(max(all_ids.max(initial=-1), cand.max(initial=-1)))
        seen = np.zeros(size, dtype=bool)
        seen[all_ids] = True
        # (np.bincount over no ids is int64, weights or not.)
        sum_p, exit_, members = (
            np.bincount(
                all_ids, weights=np.concatenate(parts), minlength=size
            ).astype(np.float64, copy=False)
            for parts in (sp_parts, ex_parts, nm_parts)
        )
        # Seed the ones the batches do not name.
        miss = ~seen[cand]
        cand, src = cand[miss], src[miss]
        seen[cand] = True
        sum_p[cand] = lg.flow[src]
        exit_[cand] = lg.exit0[src]
        members[cand] = 1.0
        ids = np.flatnonzero(seen)
        self._table.reset(
            ids, exit_[ids], sum_p[ids], members[ids].astype(np.int64)
        )

    def table_arrays(self) -> TableArrays:
        """Sorted-column view of the table (see :class:`TableArrays`).

        Compacts the overflow and returns the live columns (no copy).
        """
        self._table.compact()
        t = self._table
        return TableArrays(
            mod_ids=t.ids, exit=t.exit, sum_p=t.sum_p,
            members=t.members, index=t.index,
        )

    def apply_local_move(
        self,
        local_idx: int,
        new_module: int,
        *,
        p_u: float,
        x_u: float,
        d_old: float,
        d_new: float,
    ) -> None:
        """Commit a move in the local view and update table estimates.

        The table update uses the same primed-quantity algebra as the
        sequential :meth:`ModuleStats.apply_move`; exactness is restored
        at the next swap/rebuild, as in the paper.  Raises
        :class:`KeyError` when the vertex's current module is missing
        from the table — that can only mean corrupted bookkeeping (the
        mover's own mass places its module in the table at every
        rebuild and entries are never dropped mid-round), so it must
        not be papered over with a default.
        """
        old = int(self.module_of[local_idx])
        if old == new_module:
            return
        self.module_of[local_idx] = new_module
        self.sum_exit_global += self._table.apply_move(
            old, new_module, p_u=p_u, x_u=x_u, d_old=d_old, d_new=d_new
        )

    def apply_run(self, plan: RunPlan, lo: int, hi: int) -> None:
        """:meth:`apply_local_move` for moves ``lo:hi`` of *plan*, in
        order (:meth:`ModuleTable.apply_plan`); the exit sum adds the
        moves' changes sequentially."""
        self.module_of[plan.vertices[lo:hi]] = plan.mods[lo:hi, 1]
        self._table.apply_plan(plan, lo, hi)
        self.sum_exit_global = float(
            plan.exit_sums(self.sum_exit_global, lo, hi)[-1]
        )

    # -- Algorithm 3: prepare outgoing batches -----------------------------------
    def _own_lookup(
        self, own: Contribution, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Columns of *own* values for *ids* (zeros where absent)."""
        if own.mod_ids.size == 0 or ids.size == 0:
            return (
                np.zeros(ids.size), np.zeros(ids.size),
                np.zeros(ids.size, dtype=np.int64),
                np.zeros(ids.size, dtype=bool),
            )
        pos = np.searchsorted(own.mod_ids, ids)
        pos_c = np.minimum(pos, own.mod_ids.size - 1)
        hit = own.mod_ids[pos_c] == ids
        return (
            np.where(hit, own.sum_p[pos_c], 0.0),
            np.where(hit, own.exit[pos_c], 0.0),
            np.where(hit, own.members[pos_c], 0).astype(np.int64),
            hit,
        )

    def prepare_swap(
        self,
        own: Contribution,
        moved_hub_modules: "set[int] | None" = None,
        *,
        as_arrays: bool = True,
    ) -> "dict[int, object]":
        """Lines 1-19: build one ``Module_Info`` batch per neighbour rank.

        For every boundary vertex ghosted on rank ``R``, the *whole*
        community information (this rank's contribution) of the
        vertex's module goes to ``R``; modules of moved delegates go to
        every neighbour.  Repeats within a round are emitted with
        ``is_sent=True`` (the receiver keeps the association but skips
        the numbers) — List 1's dedup mechanism, preserved verbatim so
        the ablation can disable it.

        The per-destination columns come from a group-by over
        ``boundary_local``/``boundary_ranks``; the emission order is
        sorted moved hub modules first, then boundary vertices in
        boundary order — deterministic, so the wire bytes are too.

        Args:
            as_arrays: ship each batch as the column-array wire form
                ``(mod_ids, sum_pr, exit_pr, num_members, is_sent)``
                (default; the List-1 struct-of-arrays).  ``False``
                returns ``list[ModuleInfo]`` records (tests, docs).
        """
        lg = self.lg
        groups = lg.boundary_groups()
        hub_arr = (
            np.asarray(sorted(moved_hub_modules), dtype=np.int64)
            if moved_hub_modules else _EMPTY_I64
        )
        bl_mods = self.module_of[lg.boundary_local]
        out: dict[int, object] = {}
        for dest in lg.neighbor_ranks.tolist():
            pos = groups.get(dest)
            dmods = bl_mods[pos] if pos is not None else _EMPTY_I64
            seq = (
                np.concatenate([hub_arr, dmods]) if hub_arr.size
                else np.ascontiguousarray(dmods)
            )
            if seq.size == 0:
                out[dest] = (
                    np.empty(0, np.int64), np.empty(0), np.empty(0),
                    np.empty(0, np.int64), np.empty(0, bool),
                )
                continue
            _, first = np.unique(seq, return_index=True)
            is_first = np.zeros(seq.size, dtype=bool)
            is_first[first] = True
            sp, ex, nm, _ = self._own_lookup(own, seq)
            # Repeats ship zero mass with is_sent=True (List 1 dedup).
            sp = np.where(is_first, sp, 0.0)
            ex = np.where(is_first, ex, 0.0)
            nm = np.where(is_first, nm, 0)
            out[dest] = (seq, sp, ex, nm, ~is_first)
        if as_arrays:
            return out
        return {
            dest: [
                ModuleInfo(int(m), float(sp), float(ex), int(nm), bool(snt))
                for m, sp, ex, nm, snt in zip(*cols)
            ]
            for dest, cols in out.items()
        }

    # -- delta variants (cross-round change detection) ----------------------
    #
    # Algorithm 3's ``isSent`` flag prevents the same community
    # aggregate being double-added *within* a round; the natural
    # engineering extension — what any production MPI implementation
    # ships — is to also skip records that have not changed *across*
    # rounds.  The delta variants below send a module's absolute
    # contribution only when it changed (or is new for that
    # destination); receivers keep one cache per peer and *replace*
    # entries on receipt, so repeats are idempotent and the dedup
    # concern disappears by construction.  ``delta_swap=False`` in the
    # config falls back to the paper-literal always-send protocol.

    def prepare_swap_delta(
        self,
        own: Contribution,
        moved_hub_modules: "set[int] | None" = None,
    ) -> "dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]":
        """Like :meth:`prepare_swap` but only changed/new records.

        Returns per-destination column arrays
        ``(mod_ids, sum_pr, exit_pr, num_members)`` (no ``is_sent``
        column — replace semantics make it moot).
        """
        lg = self.lg
        last = self._last_cols
        if last is None:
            changed = own.mod_ids
            vanished = _EMPTY_I64
        else:
            lid, lsp, lex, lnm = last
            if lid.size:
                pos = np.searchsorted(lid, own.mod_ids)
                pos_c = np.minimum(pos, lid.size - 1)
                hit = lid[pos_c] == own.mod_ids
                same = (
                    hit
                    & (lsp[pos_c] == own.sum_p)
                    & (lex[pos_c] == own.exit)
                    & (lnm[pos_c] == own.members)
                )
            else:
                same = np.zeros(own.mod_ids.size, dtype=bool)
            changed = own.mod_ids[~same]
            vanished = lid[~np.isin(lid, own.mod_ids, assume_unique=True)]
        self._last_cols = (own.mod_ids, own.sum_p, own.exit, own.members)

        groups = lg.boundary_groups()
        hub_arr = (
            np.asarray(sorted(moved_hub_modules), dtype=np.int64)
            if moved_hub_modules else _EMPTY_I64
        )
        bl_mods = self.module_of[lg.boundary_local]
        result: dict[int, tuple[np.ndarray, ...]] = {}
        for dest in lg.neighbor_ranks.tolist():
            sent = self._sent_to.get(dest, _EMPTY_I64)
            pos = groups.get(dest)
            dmods = bl_mods[pos] if pos is not None else _EMPTY_I64
            van = (
                vanished[np.isin(vanished, sent, assume_unique=True)]
                if vanished.size else _EMPTY_I64
            )
            seq = np.concatenate([hub_arr, dmods, van])
            if seq.size == 0:
                continue
            _, first = np.unique(seq, return_index=True)
            first.sort()  # first occurrences, in emission order
            ids = seq[first]
            keep = (
                np.isin(ids, changed, assume_unique=True)
                | np.isin(ids, vanished, assume_unique=True)
                | ~np.isin(ids, sent, assume_unique=True)
            )
            ids = np.ascontiguousarray(ids[keep])
            if ids.size == 0:
                continue
            sp, ex, nm, _ = self._own_lookup(own, ids)
            result[dest] = (ids, sp, ex, nm)
            self._sent_to[dest] = sorted_unique(
                np.concatenate([sent, ids])
            )
        return result

    def apply_swap_delta(
        self,
        received: "dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]",
    ) -> None:
        """Replace the cached contributions the senders refreshed."""
        for src, (ids, sp, ex, nm) in received.items():
            old = self._peer_cols.get(src)
            if old is not None and old[0].size:
                stay = ~np.isin(old[0], ids, assume_unique=True)
                ids = np.concatenate([old[0][stay], ids])
                sp = np.concatenate([old[1][stay], sp])
                ex = np.concatenate([old[2][stay], ex])
                nm = np.concatenate([old[3][stay], nm])
            srt = np.argsort(ids, kind="stable")
            self._peer_cols[src] = (
                ids[srt], sp[srt], ex[srt], nm[srt]
            )

    def rebuild_table_from_caches(self, own: Contribution) -> None:
        """Table = own contribution + every peer's cached contribution.

        Peers are folded in ascending source-rank order so the
        per-module accumulation sequence (and hence every float,
        bitwise) is independent of message arrival order.
        """
        self.rebuild_table(
            own, [self._peer_cols[src] for src in sorted(self._peer_cols)]
        )

    def prepare_membership_sync_delta(
        self,
    ) -> "dict[int, tuple[np.ndarray, np.ndarray]]":
        """Membership sync restricted to boundary vertices that moved."""
        lg = self.lg
        if self._synced_boundary is None:
            # First sync: everything is "changed" relative to nothing.
            self._synced_boundary = np.full(lg.boundary_local.size, -1,
                                            dtype=np.int64)
        bl_mods = self.module_of[lg.boundary_local]
        moved = bl_mods != self._synced_boundary
        self._synced_boundary[moved] = bl_mods[moved]
        groups = lg.boundary_groups()
        out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for dest, pos in groups.items():
            sel = pos[moved[pos]]
            if sel.size == 0:
                continue
            out[dest] = (
                lg.global_of[lg.boundary_local[sel]],
                bl_mods[sel],
            )
        return out

    # -- boundary membership sync --------------------------------------------------
    def prepare_membership_sync(self) -> "dict[int, tuple[np.ndarray, np.ndarray]]":
        """Per ghosting rank: ``(global vertex ids, module ids)`` arrays."""
        lg = self.lg
        bl_mods = self.module_of[lg.boundary_local]
        groups = lg.boundary_groups()
        return {
            dest: (
                lg.global_of[lg.boundary_local[pos]],
                bl_mods[pos],
            )
            for dest, pos in groups.items()
        }

    def apply_membership_sync(
        self,
        received: "list[tuple[np.ndarray, np.ndarray]]",
        ghost_index: dict[int, int],
    ) -> list[int]:
        """Install received ghost module ids (receiver half of the sync).

        Returns the local indices of ghosts whose module actually
        changed — the active-set pruning needs exactly that signal.
        """
        lg = self.lg
        if self._ghosts_sorted:
            ghost_base = lg.num_owned + lg.num_hubs
            ghost_gids = lg.global_of[lg.ghost_slice()]
            changed: list[int] = []
            for gids, mods in received:
                if gids.size == 0 or ghost_gids.size == 0:
                    continue
                pos = np.searchsorted(ghost_gids, gids)
                pos_c = np.minimum(pos, ghost_gids.size - 1)
                hit = ghost_gids[pos_c] == gids
                li = ghost_base + pos_c[hit]
                new_mods = mods[hit]
                diff = self.module_of[li] != new_mods
                if diff.any():
                    tgt = li[diff]
                    self.module_of[tgt] = new_mods[diff]
                    changed.extend(tgt.tolist())
            return changed
        changed = []
        for gids, mods in received:
            for gid, mod in zip(gids.tolist(), mods.tolist()):
                li = ghost_index.get(gid)
                if li is not None and int(self.module_of[li]) != mod:
                    self.module_of[li] = mod
                    changed.append(li)
        return changed

    # -- boundary-module tracking (min-label rule) ------------------------------------
    def boundary_modules(self) -> set[int]:
        """Modules currently touching a ghost or a boundary vertex.

        A move *into* one of these is a cross-rank decision, so the
        min-label anti-bouncing rule applies to it (§3.4).
        """
        lg = self.lg
        mods: set[int] = set(
            self.module_of[lg.ghost_slice()].tolist()
        )
        mods.update(self.module_of[self.lg.boundary_local].tolist())
        mods.update(self.module_of[lg.hub_slice()].tolist())
        return mods
