"""Module-table and swap-wire contracts.

The array-backed :class:`ModuleTable` is the only representation.  The
swap protocol must be deterministic (same churn schedule ⇒ same wires,
same rebuilt tables, bitwise), every real wire must survive a frame
codec round trip byte-exact, and the metered swap bytes must equal the
encoded frame sizes.  End-to-end memberships and codelength histories
are pinned by ``tests/golden/distributed.json``.
"""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FlowNetwork
from repro.core.swap import LocalModuleState
from repro.graph import powerlaw_planted_partition, ring_of_cliques
from repro.partition import delegate_partition, local_views_delegate
from repro.simmpi import decode_frame, encode_frame, payload_nbytes, run_spmd


def _assert_cols_equal(a, b):
    """Exact (dtype + bitwise value) equality of wire column tuples."""
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert ca.dtype == cb.dtype
        np.testing.assert_array_equal(ca, cb)


def _assert_tables_equal(sa, sb):
    """Bitwise-identical table snapshots across two states."""
    ta = sa.table_arrays()
    tb = sb.table_arrays()
    np.testing.assert_array_equal(ta.mod_ids, tb.mod_ids)
    np.testing.assert_array_equal(ta.exit, tb.exit)
    np.testing.assert_array_equal(ta.sum_p, tb.sum_p)
    np.testing.assert_array_equal(ta.members, tb.members)
    assert sa.sum_exit_global == sb.sum_exit_global


def _paired_states(seed=0):
    """Two independent state sets per rank over the same local views."""
    lg = powerlaw_planted_partition(90, 6, mu=0.15, seed=seed)
    net = FlowNetwork.from_graph(lg.graph)
    dp = delegate_partition(lg.graph, 3, d_high=6)
    views = local_views_delegate(net, dp)
    one = [LocalModuleState(v) for v in views]
    two = [LocalModuleState(v) for v in views]
    return views, one, two


class TestProtocolDeterminism:
    """Random membership-churn schedules through the full protocol.

    Two independent state sets driven by the same schedule must emit
    byte-identical wires and converge to bitwise-equal tables — and
    every real wire must survive a frame codec round trip unchanged.
    """

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_wire_tables_and_sync_match(self, seed):
        rng = np.random.default_rng(seed)
        views, one, two = _paired_states(seed % 7)
        nranks = len(views)
        ghost_indexes = [
            {
                int(v.global_of[li]): li
                for li in range(v.num_owned + v.num_hubs, v.num_local)
            }
            for v in views
        ]
        for _round in range(3):
            # Identical random churn on both state sets' memberships.
            for r, v in enumerate(views):
                if v.num_owned == 0:
                    continue
                n_moves = int(rng.integers(0, max(v.num_owned // 3, 2)))
                movers = rng.integers(0, v.num_owned, size=n_moves)
                targets = v.global_of[
                    rng.integers(0, v.num_local, size=n_moves)
                ]
                one[r].module_of[movers] = targets
                two[r].module_of[movers] = targets
            hub_mods = (
                set(
                    int(m)
                    for m in rng.choice(
                        views[0].global_of, size=2, replace=False
                    )
                )
                if rng.random() < 0.5 else None
            )

            owns_1 = [s.contribution() for s in one]
            owns_2 = [s.contribution() for s in two]
            for ca, cb in zip(owns_1, owns_2):
                np.testing.assert_array_equal(ca.mod_ids, cb.mod_ids)
                np.testing.assert_array_equal(ca.sum_p, cb.sum_p)
                np.testing.assert_array_equal(ca.exit, cb.exit)
                np.testing.assert_array_equal(ca.members, cb.members)

            # Full (Algorithm 3 literal) wire: byte-identical columns,
            # and a lossless frame round trip for every real payload.
            full_1 = [
                one[r].prepare_swap(owns_1[r], hub_mods)
                for r in range(nranks)
            ]
            full_2 = [
                two[r].prepare_swap(owns_2[r], hub_mods)
                for r in range(nranks)
            ]
            for wa, wb in zip(full_1, full_2):
                assert sorted(wa) == sorted(wb)
                for dest in wa:
                    _assert_cols_equal(wa[dest], wb[dest])
                    _assert_cols_equal(
                        decode_frame(encode_frame(wa[dest])), wa[dest]
                    )

            # Delta wire: byte-identical columns and destinations.
            delta_1 = [
                one[r].prepare_swap_delta(owns_1[r], hub_mods)
                for r in range(nranks)
            ]
            delta_2 = [
                two[r].prepare_swap_delta(owns_2[r], hub_mods)
                for r in range(nranks)
            ]
            for wa, wb in zip(delta_1, delta_2):
                assert sorted(wa) == sorted(wb)
                for dest in wa:
                    _assert_cols_equal(wa[dest], wb[dest])
                    _assert_cols_equal(
                        decode_frame(encode_frame(wa[dest])), wa[dest]
                    )

            # Route the deltas, rebuild, compare tables bitwise.  One
            # state set applies the original columns, the other the
            # frame-decoded copies: the rebuilt tables must agree.
            for dest in range(nranks):
                inbox_1 = {
                    src: delta_1[src][dest]
                    for src in range(nranks) if dest in delta_1[src]
                }
                inbox_2 = {
                    src: decode_frame(encode_frame(delta_2[src][dest]))
                    for src in range(nranks) if dest in delta_2[src]
                }
                one[dest].apply_swap_delta(inbox_1)
                two[dest].apply_swap_delta(inbox_2)
                one[dest].rebuild_table_from_caches(owns_1[dest])
                two[dest].rebuild_table_from_caches(owns_2[dest])
                _assert_tables_equal(one[dest], two[dest])

            # Membership sync: identical wire, identical ghost updates.
            sync_1 = [s.prepare_membership_sync_delta() for s in one]
            sync_2 = [s.prepare_membership_sync_delta() for s in two]
            for wa, wb in zip(sync_1, sync_2):
                assert sorted(wa) == sorted(wb)
                for dest in wa:
                    _assert_cols_equal(wa[dest], wb[dest])
            for dest in range(nranks):
                in_1 = [
                    sync_1[src][dest]
                    for src in range(nranks) if dest in sync_1[src]
                ]
                in_2 = [
                    decode_frame(encode_frame(sync_2[src][dest]))
                    for src in range(nranks) if dest in sync_2[src]
                ]
                ch_1 = one[dest].apply_membership_sync(
                    in_1, ghost_indexes[dest]
                )
                ch_2 = two[dest].apply_membership_sync(
                    in_2, ghost_indexes[dest]
                )
                assert ch_1 == ch_2
                np.testing.assert_array_equal(
                    one[dest].module_of, two[dest].module_of
                )

    def test_full_rebuild_from_wire_matches(self):
        """rebuild_table over exchanged full batches is bitwise equal
        whether the batches arrive raw or through the frame codec."""
        views, one, two = _paired_states(3)
        nranks = len(views)
        owns_1 = [s.contribution() for s in one]
        owns_2 = [s.contribution() for s in two]
        full_1 = [one[r].prepare_swap(owns_1[r]) for r in range(nranks)]
        full_2 = [two[r].prepare_swap(owns_2[r]) for r in range(nranks)]
        for dest in range(nranks):
            # Ascending source order, like Communicator.exchange yields.
            batches_1 = [
                full_1[src][dest]
                for src in range(nranks)
                if src != dest and dest in full_1[src]
            ]
            batches_2 = [
                decode_frame(encode_frame(full_2[src][dest]))
                for src in range(nranks)
                if src != dest and dest in full_2[src]
            ]
            one[dest].rebuild_table(owns_1[dest], batches_1)
            two[dest].rebuild_table(owns_2[dest], batches_2)
            one[dest].sum_exit_global = sum(c.total_exit() for c in owns_1)
            two[dest].sum_exit_global = sum(c.total_exit() for c in owns_2)
            _assert_tables_equal(one[dest], two[dest])


class TestSwapMeterInvariant:
    """Metered swap bytes == encoded frame size."""

    def test_metered_bytes_match_encoded_columns(self):
        def prog(comm):
            lg = ring_of_cliques(8, 5)
            net = FlowNetwork.from_graph(lg.graph)
            dp = delegate_partition(lg.graph, comm.size, d_high=5)
            views = local_views_delegate(net, dp)
            state = LocalModuleState(views[comm.rank])
            own = state.contribution()
            wire = state.prepare_swap(own)
            # Handshake outside the metered phase so "swaptest" holds
            # exactly the point-to-point column traffic (exchange()'s
            # internal counts-allreduce would land in the phase too).
            dests = [sorted(w) for w in comm.allgather(sorted(wire))]
            n_in = sum(
                comm.rank in d
                for src, d in enumerate(dests) if src != comm.rank
            )
            comm.set_phase("swaptest")
            for dest in sorted(wire):
                comm.send(wire[dest], dest, tag=7)
            for _ in range(n_in):
                comm.recv(tag=7)
            comm.set_phase("other")
            physical = sum(len(encode_frame(v)) for v in wire.values())
            logical = sum(payload_nbytes(v) for v in wire.values())
            return physical, logical

        res = run_spmd(prog, 3)
        for r in range(3):
            physical, logical = res.results[r]
            st = res.ledger.for_rank(r)
            assert st.bytes_by_phase["swaptest"] == physical
            assert st.logical_bytes_by_phase["swaptest"] == logical


class TestApplyMoveBookkeeping:
    """Moving out of a module the table does not know is an error."""

    def test_move_out_of_unknown_module_raises(self):
        views, one, _two = _paired_states(0)
        state = one[0]
        state.rebuild_table(state.contribution(), [])
        # Corrupt one vertex's membership to a module id nobody has.
        state.module_of[0] = 10**9
        with pytest.raises(KeyError):
            state.apply_local_move(
                0, 1, p_u=0.01, x_u=0.01, d_old=0.0, d_new=0.005
            )

    def test_known_module_moves_keep_member_counts(self):
        views, one, _two = _paired_states(0)
        state = one[0]
        state.rebuild_table(state.contribution(), [])
        old = int(state.module_of[0])
        new = int(state.module_of[1])
        members = state.table_members
        n_old, n_new = members[old], members[new]
        state.apply_local_move(
            0, new, p_u=0.01, x_u=0.01, d_old=0.0, d_new=0.005
        )
        assert members[old] == n_old - 1
        assert members[new] == n_new + 1


def _record_bits(rec):
    """A module record packed to bytes, so equality is bitwise."""
    return struct.pack("<ddqdd", *rec)


def _column_record(state, mod_id):
    """A module's record recomputed from the table columns."""
    if mod_id not in state.table_members:
        return (0.0, 0.0, 1, 0.0, 0.0)
    q = state.table_exit[mod_id]
    p = state.table_sum_p[mod_id]
    b = q + p
    return (
        q, p, state.table_members[mod_id],
        q * math.log2(q) if q > 1e-300 else 0.0,
        b * math.log2(b) if b > 1e-300 else 0.0,
    )


class TestRecordCoherence:
    """The scalar scorer's cached module records never go stale."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        ops=st.lists(
            st.sampled_from(["move", "move_absent", "compact", "rebuild"]),
            min_size=1, max_size=30,
        ),
    )
    def test_cached_records_match_columns(self, seed, ops):
        rng = np.random.default_rng(seed)
        _views, one, _two = _paired_states(seed % 7)
        state = max(one, key=lambda s: s.lg.num_owned)
        lg = state.lg
        state.rebuild_table(state.contribution(), [])
        fresh = itertools.count(10**9)
        absent = [next(fresh) for _ in range(3)]
        for op in ops:
            # Read every record (and a few absent ones) so each write
            # below lands on a cached module.
            for m in list(state.table_members) + absent:
                state.table_records[m]
            if op in ("move", "move_absent"):
                li = int(rng.integers(0, lg.num_owned))
                if op == "move":
                    new = int(state.module_of[rng.integers(0, lg.num_local)])
                else:
                    new = absent.pop(0)
                    absent.append(next(fresh))
                state.apply_local_move(
                    li, new, p_u=float(lg.flow[li]),
                    x_u=float(rng.random()) * 1e-2,
                    d_old=float(rng.random()) * 1e-3,
                    d_new=float(rng.random()) * 1e-3,
                )
            elif op == "compact":
                state.table_arrays()
            else:
                state.rebuild_table(state.contribution(), [])
            for m in list(state.table_members) + absent:
                assert _record_bits(state.table_records[m]) == \
                    _record_bits(_column_record(state, m)), (op, m)
