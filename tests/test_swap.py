"""Algorithm 3 / List 1: contributions, the swap protocol, dedup."""

import numpy as np
import pytest

from repro.core import FlowNetwork, ModuleInfo, ModuleStats
from repro.core.mapequation import RunPlan
from repro.core.swap import LocalModuleState, ModuleTable, TableArrays
from repro.graph import ring_of_cliques
from repro.partition import delegate_partition, local_views_delegate


@pytest.fixture
def world():
    lg = ring_of_cliques(6, 5)
    net = FlowNetwork.from_graph(lg.graph)
    dp = delegate_partition(lg.graph, 3, d_high=5)
    views = local_views_delegate(net, dp)
    states = [LocalModuleState(v) for v in views]
    return lg, net, dp, views, states


class TestContribution:
    def test_sum_over_ranks_is_exact(self, world):
        """Σ_ranks Contribution == global ModuleStats, any membership."""
        lg, net, _dp, views, states = world
        # Move everything into its planted community to make it
        # non-trivial; propagate to every rank's local view.
        for st, v in zip(states, views):
            st.module_of = lg.labels[v.global_of].astype(np.int64).copy()
        agg_p: dict[int, float] = {}
        agg_q: dict[int, float] = {}
        agg_m: dict[int, int] = {}
        for st in states:
            c = st.contribution()
            for i, m in enumerate(c.mod_ids.tolist()):
                agg_p[m] = agg_p.get(m, 0.0) + c.sum_p[i]
                agg_q[m] = agg_q.get(m, 0.0) + c.exit[i]
                agg_m[m] = agg_m.get(m, 0) + int(c.members[i])
        truth = ModuleStats.from_membership(net, lg.labels)
        for m in range(6):
            assert agg_p[m] == pytest.approx(truth.sum_p[m])
            assert agg_q[m] == pytest.approx(truth.exit[m])
            assert agg_m[m] == truth.members[m]

    def test_singleton_contributions(self, world):
        _lg, net, _dp, _views, states = world
        truth = ModuleStats.from_membership(
            net, np.arange(net.graph.num_vertices)
        )
        agg_q: dict[int, float] = {}
        for st in states:
            c = st.contribution()
            for i, m in enumerate(c.mod_ids.tolist()):
                agg_q[m] = agg_q.get(m, 0.0) + c.exit[i]
        for m, q in agg_q.items():
            assert q == pytest.approx(truth.exit[m])

    def test_index_of(self, world):
        st = world[4][0]
        c = st.contribution()
        m = int(c.mod_ids[0])
        assert c.index_of(m) == 0
        assert c.index_of(10**9) == -1


class TestRebuildTable:
    def test_ghost_singletons_seeded(self, world):
        _lg, _net, _dp, views, states = world
        st = states[0]
        own = st.contribution()
        st.rebuild_table(own, [])
        v = views[0]
        for gi in range(v.num_owned + v.num_hubs, v.num_local):
            gid = int(v.global_of[gi])
            assert st.table_sum_p[gid] == pytest.approx(float(v.flow[gi]))
            assert st.table_exit[gid] == pytest.approx(float(v.exit0[gi]))

    def test_received_contributions_added(self, world):
        st = world[4][0]
        own = st.contribution()
        batch = [ModuleInfo(10**6, 0.1, 0.05, 3, False)]
        st.rebuild_table(own, [batch])
        assert st.table_sum_p[10**6] == pytest.approx(0.1)
        assert st.table_members[10**6] == 3

    def test_is_sent_dedup_skips_numbers(self, world):
        """The List-1 mechanism: duplicate records add nothing."""
        st = world[4][0]
        own = st.contribution()
        batch = [
            ModuleInfo(10**6, 0.1, 0.05, 3, False),
            ModuleInfo(10**6, 0.1, 0.05, 3, True),  # repeat, flagged
        ]
        st.rebuild_table(own, [batch])
        assert st.table_sum_p[10**6] == pytest.approx(0.1)  # not 0.2

    def test_without_is_sent_flag_would_double_add(self, world):
        """Control for the previous test: unflagged repeats DO double —
        demonstrating why the paper's dedup exists (Figure 3)."""
        st = world[4][0]
        own = st.contribution()
        batch = [
            ModuleInfo(10**6, 0.1, 0.05, 3, False),
            ModuleInfo(10**6, 0.1, 0.05, 3, False),
        ]
        st.rebuild_table(own, [batch])
        assert st.table_sum_p[10**6] == pytest.approx(0.2)

    def test_array_wire_format_equivalent(self, world):
        st = world[4][0]
        own = st.contribution()
        recs = [ModuleInfo(10**6, 0.1, 0.05, 3, False),
                ModuleInfo(10**6 + 1, 0.2, 0.1, 2, False)]
        st.rebuild_table(own, [recs])
        via_records = dict(st.table_sum_p)
        arrays = (
            np.array([r.mod_id for r in recs], dtype=np.int64),
            np.array([r.sum_pr for r in recs]),
            np.array([r.exit_pr for r in recs]),
            np.array([r.num_members for r in recs], dtype=np.int64),
            np.array([r.is_sent for r in recs], dtype=bool),
        )
        st.rebuild_table(own, [arrays])
        assert dict(st.table_sum_p) == via_records


class TestPrepareSwap:
    def test_batches_target_neighbor_ranks_only(self, world):
        _lg, _net, _dp, views, states = world
        st = states[0]
        own = st.contribution()
        batches = st.prepare_swap(own)
        assert set(batches) <= set(views[0].neighbor_ranks.tolist())

    def test_repeat_modules_flagged_is_sent(self, world):
        """Two boundary vertices in one module ⇒ second record flagged."""
        lg, _net, _dp, views, states = world
        st = states[0]
        v = views[0]
        # Put every owned vertex into one module to force repeats.
        st.module_of[: v.num_owned] = 0
        own = st.contribution()
        batches = st.prepare_swap(own, as_arrays=False)
        for dest, recs in batches.items():
            seen = set()
            for r in recs:
                if r.mod_id in seen:
                    assert r.is_sent
                    assert r.sum_pr == 0.0
                else:
                    assert not r.is_sent
                seen.add(r.mod_id)

    def test_moved_hub_modules_broadcast_everywhere(self, world):
        _lg, _net, _dp, _views, states = world
        st = states[0]
        own = st.contribution()
        batches = st.prepare_swap(own, moved_hub_modules={42},
                                  as_arrays=False)
        for recs in batches.values():
            assert any(r.mod_id == 42 for r in recs)

    def test_array_and_record_forms_agree(self, world):
        st = world[4][1]
        own = st.contribution()
        arr = st.prepare_swap(own)
        rec = st.prepare_swap(own, as_arrays=False)
        assert set(arr) == set(rec)
        for dest in arr:
            ids, sp, ex, nm, snt = arr[dest]
            assert ids.size == len(rec[dest])
            for i, r in enumerate(rec[dest]):
                assert r.mod_id == ids[i]
                assert r.sum_pr == pytest.approx(float(sp[i]))
                assert r.is_sent == bool(snt[i])


class TestMembershipSync:
    def test_roundtrip_between_states(self, world):
        _lg, _net, _dp, views, states = world
        sender = states[0]
        v0 = views[0]
        if v0.boundary_local.size == 0:
            pytest.skip("no boundary on rank 0 in this fixture")
        # Move a boundary vertex, then sync to the ghosting rank.
        bl = int(v0.boundary_local[0])
        dest = int(v0.boundary_ranks[0][0])
        sender.module_of[bl] = 12345
        msgs = sender.prepare_membership_sync()
        assert dest in msgs
        receiver = states[dest]
        vr = views[dest]
        ghost_index = {
            int(g): vr.num_owned + vr.num_hubs + i
            for i, g in enumerate(vr.global_of[vr.ghost_slice()])
        }
        changed = receiver.apply_membership_sync([msgs[dest]], ghost_index)
        gid = int(v0.global_of[bl])
        assert receiver.module_of[ghost_index[gid]] == 12345
        assert ghost_index[gid] in changed

    def test_unchanged_ghosts_not_reported(self, world):
        _lg, _net, _dp, views, states = world
        sender = states[0]
        msgs = sender.prepare_membership_sync()
        for dest, payload in msgs.items():
            vr = views[dest]
            ghost_index = {
                int(g): vr.num_owned + vr.num_hubs + i
                for i, g in enumerate(vr.global_of[vr.ghost_slice()])
            }
            changed = states[dest].apply_membership_sync(
                [payload], ghost_index
            )
            assert changed == []  # all still singleton == initial


class TestApplyLocalMove:
    def test_table_updates_match_manual(self, world):
        lg, net, _dp, views, states = world
        st = states[0]
        own = st.contribution()
        st.rebuild_table(own, [])
        st.sum_exit_global = 1.0
        v = views[0]
        li = 0
        gid = int(v.global_of[0])
        q0 = st.table_exit[gid]
        st.apply_local_move(li, 999_999, p_u=0.01, x_u=0.02,
                            d_old=0.0, d_new=0.005)
        assert st.module_of[li] == 999_999
        assert st.table_exit[gid] == pytest.approx(q0 - 0.02)
        assert st.table_exit[999_999] == pytest.approx(0.02 - 0.01)
        assert st.table_members[999_999] == 1

    def test_run_matches_one_move_at_a_time(self, world):
        # Moves with pairwise distinct modules, two into modules new to
        # the table, committed as one plan and one at a time: bitwise
        # the same table, memberships and exit sum.
        _lg, _net, _dp, views, _states = world
        v = views[0]
        one, bulk = LocalModuleState(v), LocalModuleState(v)
        for st in (one, bulk):
            own = st.contribution()
            st.rebuild_table(own, [])
            st.sum_exit_global = own.total_exit()
        rng = np.random.default_rng(3)
        owned = rng.permutation(v.num_owned)
        movers = owned[:4]
        old = bulk.module_of[movers]
        new = np.concatenate(
            [bulk.module_of[owned[4:6]], [10**6, 10**6 + 1]]
        )
        assert len(set(old.tolist() + new.tolist())) == 8
        p_u = rng.random(4) * 1e-2
        x_u = rng.random(4) * 1e-2
        d_old = np.zeros(4)
        d_new = x_u * rng.random(4) * 0.5
        snap = bulk.table_arrays()
        so, sn = snap.slots(old), snap.slots(new)
        (q_old, p_old), (q_new, p_new) = snap.at(so), snap.at(sn)
        plan = RunPlan(
            movers, old, new, q_old=q_old, p_old=p_old,
            n_old=snap.members_at(so), q_new=q_new, p_new=p_new,
            n_new=snap.members_at(sn, default=0), p_u=p_u, x_u=x_u,
            d_old=d_old, d_new=d_new, slot_old=so, slot_new=sn,
        )
        bulk.apply_run(plan, 0, 4)
        for j, li in enumerate(movers.tolist()):
            one.apply_local_move(
                li, int(new[j]), p_u=float(p_u[j]), x_u=float(x_u[j]),
                d_old=float(d_old[j]), d_new=float(d_new[j]),
            )
        assert bulk.module_of.tobytes() == one.module_of.tobytes()
        for st in (one, bulk):
            st._table.compact()
        for col in ("ids", "exit", "sum_p", "members"):
            assert (getattr(bulk._table, col).tobytes()
                    == getattr(one._table, col).tobytes()), col
        assert bulk.sum_exit_global == one.sum_exit_global

    def test_noop_move_ignored(self, world):
        st = world[4][0]
        before = int(st.module_of[0])
        st.apply_local_move(0, before, p_u=0.1, x_u=0.1, d_old=0, d_new=0)
        assert st.module_of[0] == before


class TestSlotIndex:
    """The table's dense slot index, and its scalar :meth:`slot`
    lookups, answer what a binary search of its sorted id column
    answers (and, for an overflow module, its overflow slot), after
    every way the table changes."""

    @staticmethod
    def _slots(t: ModuleTable, ids: np.ndarray) -> np.ndarray:
        return TableArrays(
            mod_ids=t.ids, exit=t.exit, sum_p=t.sum_p, index=t.index
        ).slots(ids)

    @staticmethod
    def _searched(t: ModuleTable, ids: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(t.ids, ids)
        hit = pos < t.ids.size
        hit[hit] = t.ids[pos[hit]] == ids[hit]
        want = np.where(hit, pos, -1)
        for j, m in enumerate(t._ov_ids):
            want[ids == m] = t.ids.size + j
        return want

    def _check(self, t: ModuleTable) -> None:
        known = [int(m) for m in t.ids] + t._ov_ids
        top = max(known, default=0)
        ids = np.unique(np.concatenate([
            np.arange(min(top, 100) + 10), known, [top + 1, top + 7],
        ])).astype(np.int64)
        if t._ov_ids:
            ids = ids[~np.isin(ids, t._ov_ids)]  # not in the columns yet
        np.testing.assert_array_equal(
            self._slots(t, ids), self._searched(t, ids)
        )
        assert [t.slot(m) for m in ids.tolist()] == (
            self._searched(t, ids).tolist()
        )
        for j, m in enumerate(t._ov_ids):
            assert t.slot(m) == t.ids.size + j
        if t.index is None:
            return
        assert t.index.size == (top + 2 if known else 1)
        assert t.index[-1] == -1
        np.testing.assert_array_equal(
            t.index[np.minimum(ids, t.index.size - 1)],
            self._searched(t, ids),
        )

    def test_reset_insert_compact(self):
        t = ModuleTable()
        self._check(t)
        ids = np.array([3, 7, 8, 20], dtype=np.int64)
        t.reset(ids, np.full(4, 0.1), np.full(4, 0.2), np.ones(4, np.int64))
        self._check(t)
        t.insert(5, 0.1, 0.1, 1)  # inside the index
        self._check(t)
        t.insert(21, 0.1, 0.1, 1)  # the clamp entry's own id
        self._check(t)
        t.insert(40, 0.1, 0.1, 1)  # above every id seen so far
        self._check(t)
        t.compact()
        assert t._ov_ids == []
        self._check(t)
        assert self._slots(t, np.array([5, 21, 40, 41, 10**6])).tolist() == [
            1, 5, 6, -1, -1,
        ]
        t.reset(
            ids[:2], np.full(2, 0.1), np.full(2, 0.2), np.ones(2, np.int64)
        )
        self._check(t)  # a reset shrinks the index back

    def test_sparse_ids_fall_back_to_search(self):
        t = ModuleTable()
        ids = np.array([3, 7], dtype=np.int64)
        t.reset(ids, np.full(2, 0.1), np.full(2, 0.2), np.ones(2, np.int64))
        assert t.index is not None
        t.insert(10**9, 0.1, 0.1, 1)  # far past 64 ids per module
        assert t.index is None
        self._check(t)
        t.insert(5, 0.1, 0.1, 1)  # while unindexed
        self._check(t)
        t.compact()
        assert t.index is None
        self._check(t)
        assert self._slots(t, np.array([10**9, 7, 10**9 + 1])).tolist() == [
            3, 2, -1,
        ]
        t.reset(ids, np.full(2, 0.1), np.full(2, 0.2), np.ones(2, np.int64))
        assert t.index is not None
        self._check(t)

    def test_table_snapshot_after_rebuild(self, world):
        _lg, _net, _dp, _views, states = world
        for st in states:
            st.rebuild_table(st.contribution(), [])
            snap = st.table_arrays()
            ids = np.arange(int(snap.mod_ids[-1]) + 10, dtype=np.int64)
            np.testing.assert_array_equal(
                snap.slots(ids), self._searched(st._table, ids)
            )
