"""Batch move-kernel: exact equivalence with the scalar paths.

The batched engine in :mod:`repro.core.kernels` is *decision-equivalent
by construction*: both the sequential and the distributed sweep commit
batch decisions only where a drift bound certifies them (the sequential
sweep also on batch deltas shifted past commits that touched a vertex's
modules), and re-score every other vertex exactly against the live
module aggregates — on the chunk's cached neighbour-module segment when
no neighbour of the vertex has moved since the chunk was scored, on a
fresh aggregation otherwise.
These tests pin the contract down: same graph + same config (modulo
``batch_size``) must give *identical* memberships and
*bitwise-identical* codelengths, and the cached-segment re-score must
decide exactly as the fresh one.
"""

import dataclasses
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    FlowNetwork,
    InfomapConfig,
    ModuleStats,
    aggregate_block_flows,
    aggregate_module_flows,
    best_move,
    distributed_infomap,
    drift_guard_bound,
    neighbor_module_flows,
    score_vertex,
    sequential_infomap,
)
from repro.core.distributed import (
    TIE_EPS,
    _evaluate_move,
    _Level,
    _near_tie,
    _score_candidates,
    _TableStore,
)
from repro.core.kernels import (
    CERT_SLACK,
    sweep,
    BlockAggregates,
    _Walk,
    score_block,
)
from repro.core.mapequation import (
    delta_codelength,
    delta_from_values,
    plogp,
)
from repro.core.moves import MIN_IMPROVEMENT
from repro.core.sequential import _StatsStore
from repro.core.swap import LocalModuleState, TableArrays
from repro.graph import (
    barabasi_albert,
    from_edges,
    planted_partition,
    powerlaw_planted_partition,
    ring_of_cliques,
)
from repro.graph.graph import gather_rows
from repro.partition import delegate_partition, local_views_delegate


def _cfg(batch_size, **kw):
    return InfomapConfig(batch_size=batch_size, **kw)


# ---------------------------------------------------------------------------
# Unit tests of the kernel building blocks
# ---------------------------------------------------------------------------
class TestGatherRows:
    def test_matches_per_row_slices(self):
        g = powerlaw_planted_partition(200, 5, mu=0.3, seed=0).graph
        rng = np.random.default_rng(1)
        block = rng.choice(g.num_vertices, size=37, replace=False)
        entries, owner = gather_rows(g.indptr, block)
        expected = np.concatenate(
            [np.arange(g.indptr[v], g.indptr[v + 1]) for v in block]
        )
        np.testing.assert_array_equal(entries, expected)
        deg = g.indptr[block + 1] - g.indptr[block]
        np.testing.assert_array_equal(
            owner, np.repeat(np.arange(block.size), deg)
        )

    def test_empty_block(self):
        g = ring_of_cliques(3, 4).graph
        entries, owner = gather_rows(g.indptr, np.empty(0, dtype=np.int64))
        assert entries.size == 0 and owner.size == 0

    def test_isolated_rows(self):
        indptr = np.array([0, 0, 2, 2], dtype=np.int64)
        entries, owner = gather_rows(indptr, np.array([0, 1, 2]))
        np.testing.assert_array_equal(entries, [0, 1])
        np.testing.assert_array_equal(owner, [1, 1])


class TestAggregateBlockFlows:
    def test_matches_scalar_neighbor_module_flows(self):
        lg = planted_partition(6, 20, 0.35, 0.02, seed=5)
        net = FlowNetwork.from_graph(lg.graph)
        g = net.graph
        rng = np.random.default_rng(7)
        membership = rng.integers(0, 9, size=g.num_vertices).astype(np.int64)
        block = rng.choice(g.num_vertices, size=48, replace=False)
        agg = aggregate_block_flows(
            g.indptr, g.indices, g.weights, block, membership,
            net.node_flow, id_space=g.num_vertices,
        )
        for i, u in enumerate(block.tolist()):
            mods, flows, x_u = neighbor_module_flows(net, membership, int(u))
            a, b = int(agg.seg_ptr[i]), int(agg.seg_ptr[i + 1])
            np.testing.assert_array_equal(agg.seg_mods[a:b], mods)
            # Bitwise: both sides aggregate with np.bincount over the
            # same entry order and total in ascending-module order.
            np.testing.assert_array_equal(agg.seg_flows[a:b], flows)
            assert float(agg.x_u[i]) == x_u
            d_old = 0.0
            hit = np.flatnonzero(mods == membership[u])
            if hit.size:
                d_old = float(flows[hit[0]])
            assert float(agg.d_old[i]) == d_old

    def test_block_scores_match_scalar_deltas(self):
        from repro.core.mapequation import delta_codelength

        lg = ring_of_cliques(5, 6)
        net = FlowNetwork.from_graph(lg.graph)
        n = net.graph.num_vertices
        membership = np.arange(n, dtype=np.int64)
        stats = ModuleStats.from_membership(net, membership)
        block = np.arange(n, dtype=np.int64)
        agg, score = _StatsStore(net, membership, stats).score(block)
        for i in range(n):
            a, b = int(agg.seg_ptr[i]), int(agg.seg_ptr[i + 1])
            mods = agg.seg_mods[a:b]
            cand = mods != membership[i]
            deltas = delta_codelength(
                stats,
                old=int(membership[i]),
                new=mods[cand],
                p_u=float(agg.p_u[i]),
                x_u=float(agg.x_u[i]),
                d_old=float(agg.d_old[i]),
                d_new=agg.seg_flows[a:b][cand],
            )
            assert float(score.best_delta[i]) == float(np.min(deltas))
            assert int(score.best_target[i]) == int(
                mods[cand][int(np.argmin(deltas))]
            )


    def test_runner_gap_skips_input_identical_ties(self):
        # Vertex 0 (module 0) has three candidates: modules 1 and 2 with
        # bitwise-equal (q, p, d_new) and module 3 with less flow.
        # Vertex 1 (module 5) has two distinct candidates, no tie.
        agg = BlockAggregates(
            block=np.array([0, 1], dtype=np.int64),
            current=np.array([0, 5], dtype=np.int64),
            p_u=np.array([0.1, 0.05]),
            x_u=np.array([0.75, 0.4]),
            d_old=np.array([0.05, 0.1]),
            seg_ptr=np.array([0, 4, 7], dtype=np.int64),
            seg_owner=np.array([0, 0, 0, 0, 1, 1, 1], dtype=np.int64),
            seg_mods=np.array([0, 1, 2, 3, 5, 6, 7], dtype=np.int64),
            seg_flows=np.array([0.05, 0.3, 0.3, 0.1, 0.1, 0.2, 0.1]),
        )
        q_seg = np.array([0.2, 0.15, 0.15, 0.15, 0.1, 0.12, 0.3])
        p_seg = np.array([0.3, 0.25, 0.25, 0.25, 0.2, 0.2, 0.3])

        def score(q):
            return score_block(
                agg, q_seg=q, p_seg=p_seg,
                q_old=np.array([0.2, 0.1]), p_old=np.array([0.3, 0.2]),
                sum_exit=1.0,
            )

        sc = score(q_seg)
        d1, d2, d3, e6, e7 = sc.cand_deltas.tolist()
        assert _bits(d1) == _bits(d2) and d3 > d1
        assert int(sc.best_target[0]) == 1  # first argmin of the tie
        # The gap is measured to module 3, past the identical module 2.
        assert _bits(float(sc.runner_gap[0])) == _bits(d3 - d1)
        assert _bits(float(sc.runner_gap[1])) == _bits(abs(e7 - e6))
        # One ulp apart, the two are no longer input-identical: the gap
        # is theirs again, far too small to certify a commit.
        nudged = q_seg.copy()
        nudged[2] = np.nextafter(nudged[2], 1.0)
        gap = float(score(nudged).runner_gap[0])
        assert 0.0 <= gap < 2.0 * CERT_SLACK


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _plogp_delta(sum_exit, q_old, p_old, q_new, p_new, p_u, x_u, d_old,
                 d_new):
    """ΔL of one move with one :func:`plogp` call per term: the form the
    fused one-pass evaluation must reproduce bit for bit."""
    q_old_after = q_old - x_u + 2.0 * d_old
    p_old_after = p_old - p_u
    q_new_after = q_new + x_u - 2.0 * d_new
    p_new_after = p_new + p_u
    s_after = sum_exit + (q_old_after - q_old) + (q_new_after - q_new)
    return (
        plogp(s_after)
        - plogp(sum_exit)
        - 2.0 * (plogp(q_old_after) - plogp(q_old))
        - 2.0 * (plogp(q_new_after) - plogp(q_new))
        + (plogp(q_old_after + p_old_after) - plogp(q_old + p_old))
        + (plogp(q_new_after + p_new_after) - plogp(q_new + p_new))
    )


def _random_block(seed):
    """A scored block's inputs: per-module aggregates that include
    empty (zero), negative-dust, singleton and input-identical modules,
    and vertices whose segment is empty or holds only their module."""
    rng = np.random.default_rng(seed)
    b = int(rng.integers(1, 14))
    n_mods = int(rng.integers(2, 12))
    q_m = rng.random(n_mods) * 0.2
    p_m = rng.random(n_mods) * 0.2
    kind = rng.integers(0, 4, size=n_mods)
    q_m[kind == 1] = 0.0
    p_m[kind == 1] = 0.0
    dust = kind == 2
    q_m[dust] = -rng.random(int(dust.sum())) * 1e-17
    p_m[dust] = rng.choice([0.0, -1e-18, 1e-18], size=int(dust.sum()))
    if n_mods > 2 and rng.random() < 0.5:
        q_m[1], p_m[1] = q_m[0], p_m[0]  # two input-identical modules
    current = rng.integers(0, n_mods, size=b)
    p_u = rng.random(b) * 0.05
    owners, mods, flows = [], [], []
    x_u = np.zeros(b)
    d_old = np.zeros(b)
    for i in range(b):
        k = int(rng.integers(0, min(n_mods, 6) + 1))
        seg = np.sort(rng.choice(n_mods, size=k, replace=False))
        if k and rng.random() < 0.1:
            seg = current[i : i + 1]  # its own module only
        fl = rng.choice([0.0, 0.01, 0.02, 0.05], size=seg.size)
        fl = fl + (rng.random(seg.size) < 0.5) * rng.random(seg.size) * 0.03
        owners += [i] * seg.size
        mods += seg.tolist()
        flows += fl.tolist()
        if seg.size:
            x_u[i] = float(np.cumsum(fl)[-1])
            hit = np.flatnonzero(seg == current[i])
            d_old[i] = float(fl[hit[0]]) if hit.size else 0.0
    for m in np.flatnonzero(kind == 3).tolist():
        members = np.flatnonzero(current == m)
        if members.size:  # a singleton: one vertex's own aggregates
            q_m[m], p_m[m] = x_u[members[0]], p_u[members[0]]
    seg_owner = np.asarray(owners, dtype=np.int64)
    agg = BlockAggregates(
        block=np.arange(b, dtype=np.int64) * 3, current=current,
        p_u=p_u, x_u=x_u, d_old=d_old,
        seg_ptr=np.searchsorted(seg_owner, np.arange(b + 1)),
        seg_owner=seg_owner, seg_mods=np.asarray(mods, dtype=np.int64),
        seg_flows=np.asarray(flows, dtype=np.float64),
    )
    sum_exit = float(rng.choice([0.0, 1e-18, max(q_m.sum(), 0.0) + 0.1]))
    return agg, q_m, p_m, sum_exit, rng


def _check_block_score(agg, sc, q_seg, p_seg, q_old, p_old, sum_exit,
                       admissible):
    """*sc* against per-candidate :func:`delta_from_values` calls (and
    :func:`_plogp_delta`), the first argmin and the recomputed gap;
    ``admissible[j]`` says whether segment entry *j* may be a target."""
    ptr = sc.cand_ptr.tolist()
    for i in range(agg.block.size):
        cur = int(agg.current[i])
        js = [
            j for j in range(int(agg.seg_ptr[i]), int(agg.seg_ptr[i + 1]))
            if int(agg.seg_mods[j]) != cur and admissible[j]
        ]
        a, e = ptr[i], ptr[i + 1]
        assert sc.cand_mods[a:e].tolist() == agg.seg_mods[js].tolist()
        assert sc.cand_flows[a:e].tobytes() == agg.seg_flows[js].tobytes()
        got = sc.cand_deltas[a:e].tolist()
        args = dict(
            sum_exit=sum_exit, q_old=float(q_old[i]), p_old=float(p_old[i]),
            p_u=float(agg.p_u[i]), x_u=float(agg.x_u[i]),
            d_old=float(agg.d_old[i]),
        )
        for d, j in zip(got, js):
            one = dict(args, q_new=float(q_seg[j]), p_new=float(p_seg[j]),
                       d_new=float(agg.seg_flows[j]))
            assert _bits(d) == _bits(delta_from_values(**one))
            assert _bits(d) == _bits(float(_plogp_delta(**one)))
        if not js:
            assert int(sc.best_target[i]) == cur
            assert float(sc.best_delta[i]) == math.inf
            assert _bits(float(sc.best_d_new[i])) == _bits(
                float(agg.d_old[i]))
            assert float(sc.runner_gap[i]) == math.inf
            continue
        k = min(range(len(got)), key=got.__getitem__)  # first argmin
        assert int(sc.best_target[i]) == int(agg.seg_mods[js[k]])
        assert float(sc.best_delta[i]) == got[k]
        assert _bits(float(sc.best_d_new[i])) == _bits(
            float(agg.seg_flows[js[k]]))
        inputs = [
            (_bits(float(q_seg[j])), _bits(float(p_seg[j])),
             _bits(float(agg.seg_flows[j])))
            for j in js
        ]
        rest = [d for r, d in enumerate(got) if r != k]
        gap = min(rest, default=math.inf) - got[k]
        if gap == 0.0:  # past the input-identical ties of the argmin
            rest = [d for r, d in enumerate(got)
                    if r != k and inputs[r] != inputs[k]]
            gap = min(rest, default=math.inf) - got[k]
        assert float(sc.runner_gap[i]) == gap


class TestScoreBlockOnePass:
    """The one-``np.log2``-pass block scorer against per-candidate
    evaluation, on random blocks and on the module table's min-label
    mask."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), masked=st.booleans())
    def test_property_matches_per_candidate_deltas(self, seed, masked):
        agg, q_m, p_m, sum_exit, rng = _random_block(seed)
        q_seg, p_seg = q_m[agg.seg_mods], p_m[agg.seg_mods]
        q_old, p_old = q_m[agg.current], p_m[agg.current]
        mask = rng.random(agg.seg_mods.size) < 0.7 if masked else None
        sc = score_block(
            agg, q_seg=q_seg, p_seg=p_seg, q_old=q_old, p_old=p_old,
            sum_exit=sum_exit, cand_mask=mask,
        )
        admissible = (
            np.ones(agg.seg_mods.size, dtype=bool) if mask is None else mask
        )
        _check_block_score(agg, sc, q_seg, p_seg, q_old, p_old, sum_exit,
                           admissible)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_table_store_min_label_mask(self, seed):
        # Half the vertices start as singletons, half the modules are
        # under the rule: the mask removes upward singleton merges.
        made = _table_store(seed, 4, 12, None, 0.1, True, 0.0)
        assume(made is not None)
        store = made[0]
        state = store.state
        block = np.arange(state.lg.num_owned, dtype=np.int64)
        agg, sc = store.score(block)
        snap = state.table_arrays()
        q_seg, p_seg = snap.at(snap.slots(agg.seg_mods))
        q_old, p_old = snap.at(snap.slots(agg.current))
        members = state.table_members
        bmods = store.bmods
        assert bmods and store.bmask.nonzero()[0].tolist() == sorted(bmods)
        admissible = np.array([
            not (
                members.get(int(agg.current[o]), 1) == 1
                and m > int(agg.current[o]) and m in bmods
                and members.get(m, 1) == 1
            )
            for o, m in zip(agg.seg_owner.tolist(), agg.seg_mods.tolist())
        ], dtype=bool)
        assert not admissible.all()
        _check_block_score(agg, sc, q_seg, p_seg, q_old, p_old,
                           state.sum_exit_global, admissible)


def _random_scoring_case(seed: int, k: int):
    """A weighted graph with self-loops, a random k-module membership
    and ModuleStats carrying incremental float dust."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 60))
    m = int(rng.integers(n, 4 * n))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    w = rng.choice([1.0, 0.5, 3.0], size=m) * rng.random(m)
    g = from_edges(
        zip(src.tolist(), dst.tolist(), w.tolist()),
        num_vertices=n, keep_self_loops=True,
    )
    net = FlowNetwork.from_graph(g)
    membership = rng.integers(0, min(k, n), size=n).astype(np.int64)
    stats = ModuleStats.from_membership(net, membership)
    # A few committed moves leave the float dust (and emptied modules)
    # that live sweeps see.
    for u in rng.choice(n, size=n // 3, replace=False).tolist():
        prop = best_move(net, membership, stats, u)
        if prop.is_move:
            stats.apply_move(
                old=prop.current, new=prop.target, p_u=prop.p_u,
                x_u=prop.x_u, d_old=prop.d_old, d_new=prop.d_new,
            )
            membership[u] = prop.target
    return net, membership, stats


def _reference_best(stats, current, mods, flows, p_u, x_u, d_old):
    """First argmin of the untouched numpy reference delta_codelength."""
    cand = mods != current
    if not cand.any():
        return current, math.inf, d_old
    deltas = delta_codelength(
        stats, old=current, new=mods[cand], p_u=p_u, x_u=x_u,
        d_old=d_old, d_new=flows[cand],
    )
    j = int(np.argmin(deltas))
    return int(mods[cand][j]), float(deltas[j]), float(flows[cand][j])


class TestScoreVertex:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), k=st.integers(1, 64))
    def test_property_matches_reference_bitwise(self, seed, k):
        net, membership, stats = _random_scoring_case(seed, k)
        g = net.graph
        n = g.num_vertices
        block = np.random.default_rng(seed).permutation(n)
        agg = aggregate_block_flows(
            g.indptr, g.indices, g.weights, block, membership,
            net.node_flow, id_space=n,
        )
        for i, u in enumerate(block.tolist()):
            cur = int(membership[u])
            p_u = float(net.node_flow[u])
            # Fresh aggregation, as best_move sees it.
            mods, flows, x_u = neighbor_module_flows(net, membership, u)
            hit = np.flatnonzero(mods == cur)
            d_old = float(flows[hit[0]]) if hit.size else 0.0
            want = _reference_best(stats, cur, mods, flows, p_u, x_u, d_old)
            got = score_vertex(stats, cur, mods, flows,
                               p_u=p_u, x_u=x_u, d_old=d_old)
            assert got[0] == want[0]
            assert _bits(got[1]) == _bits(want[1])
            assert _bits(got[2]) == _bits(want[2])
            # The cached block segment, as the batched sweep re-scores.
            a, b = int(agg.seg_ptr[i]), int(agg.seg_ptr[i + 1])
            cached = score_vertex(
                stats, cur, agg.seg_mods[a:b], agg.seg_flows[a:b],
                p_u=float(agg.p_u[i]), x_u=float(agg.x_u[i]),
                d_old=float(agg.d_old[i]),
            )
            assert cached[0] == want[0]
            assert _bits(cached[1]) == _bits(want[1])
            assert _bits(cached[2]) == _bits(want[2])

    def test_no_candidate_returns_current(self):
        net, membership, stats = _random_scoring_case(3, 1)
        cur = int(membership[0])
        got = score_vertex(stats, cur, np.array([cur], dtype=np.int64),
                           np.array([0.25]), p_u=0.1, x_u=0.25, d_old=0.25)
        assert got == (cur, math.inf, 0.25)
        empty = score_vertex(stats, cur, np.empty(0, np.int64),
                             np.empty(0), p_u=0.1, x_u=0.0, d_old=0.0)
        assert empty == (cur, math.inf, 0.0)


def test_log2_bits_independent_of_length_and_offset():
    """The numpy fact score_vertex relies on: ``np.log2`` (masked, as
    ``plogp`` calls it) gives an element the same bits whether it is
    evaluated as a 0-d array or at any position of any-length array.
    A numpy or SIMD-dispatch change that breaks this fails here."""
    rng = np.random.default_rng(0)
    x = np.concatenate([
        rng.random(256),
        10.0 ** rng.uniform(-300, 300, size=256),
        rng.random(256) * 1e-3,
        [0.0, -1e-18, 1.0, 2.0, 0.5, 5e-324],
    ])
    whole = np.log2(x, where=x > 0, out=np.zeros_like(x))
    single = np.array([
        float(np.log2(v, where=v > 0, out=np.zeros_like(v)))
        for v in (np.asarray(e) for e in x)
    ])
    np.testing.assert_array_equal(single.view(np.int64), whole.view(np.int64))
    for length in (1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64):
        for off in range(0, x.size - length, 37):
            part = x[off:off + length].copy()
            got = np.log2(part, where=part > 0, out=np.zeros(length))
            np.testing.assert_array_equal(
                got.view(np.int64), whole[off:off + length].view(np.int64)
            )
            # A view one element into a buffer: SIMD lanes split the
            # data at other boundaries.
            buf = np.empty(length + 1)
            buf[1:] = part
            view = buf[1:]
            got = np.log2(view, where=view > 0, out=np.zeros(length))
            np.testing.assert_array_equal(
                got.view(np.int64), whole[off:off + length].view(np.int64)
            )


def test_add_accumulate_matches_sequential_loop():
    """The numpy fact the bulk step's exit sums rely on
    (:meth:`RunPlan.exit_sums`): float64 ``np.add.accumulate`` adds one
    element at a time, bitwise a Python ``+=`` loop, at any length and
    offset (``np.add.reduce`` and ``ndarray.sum`` sum pairwise and do
    not).  A numpy change that breaks this fails here."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2048) * 10.0 ** rng.uniform(-12, 4, 2048)
    for length in (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64, 129, 1000):
        for off in (0, 1, 5, 333):
            part = x[off:off + length]
            want = []
            s = 0.0
            for v in part.tolist():
                s = v if not want else s + v
                want.append(s)
            got = np.add.accumulate(part)
            np.testing.assert_array_equal(
                got.view(np.int64), np.array(want).view(np.int64)
            )


class TestDriftGuardBound:
    def test_zero_drift_is_exactly_zero(self):
        assert drift_guard_bound(0.0, 0.25, 1.0, 1.0) == 0.0

    def test_precondition_failure_returns_inf(self):
        assert math.isinf(drift_guard_bound(1e-3, 0.3, 1.0, 1.2))

    def test_bound_dominates_actual_shift(self):
        # |plogp(S+c) - plogp(S) - (plogp(S0+c) - plogp(S0))| <= bound
        # for |c| <= 2 x_u, sampled over a grid.
        from repro.core.mapequation import plogp

        x_u, s0, s_now = 0.01, 0.9, 0.87
        bound = drift_guard_bound(s_now - s0, x_u, s0, s_now)
        for c in np.linspace(-2 * x_u, 2 * x_u, 41):
            shift = abs(
                (plogp(s_now + c) - plogp(s_now))
                - (plogp(s0 + c) - plogp(s0))
            )
            assert shift <= bound + 1e-15


class TestTableArrays:
    def test_lookup_hits_and_misses(self):
        t = TableArrays(
            mod_ids=np.array([2, 5, 9], dtype=np.int64),
            exit=np.array([0.1, 0.2, 0.3]),
            sum_p=np.array([0.4, 0.5, 0.6]),
        )
        slots = t.slots(np.array([9, 0, 5, 11, 2], dtype=np.int64))
        np.testing.assert_array_equal(slots, [2, -1, 1, -1, 0])
        q, p = t.at(slots)
        np.testing.assert_array_equal(q, [0.3, 0.0, 0.2, 0.0, 0.1])
        np.testing.assert_array_equal(p, [0.6, 0.0, 0.5, 0.0, 0.4])

    def test_empty_table(self):
        t = TableArrays(
            mod_ids=np.empty(0, dtype=np.int64),
            exit=np.empty(0),
            sum_p=np.empty(0),
        )
        q, p = t.at(t.slots(np.array([3, 7], dtype=np.int64)))
        np.testing.assert_array_equal(q, [0.0, 0.0])
        np.testing.assert_array_equal(p, [0.0, 0.0])


class TestSortedRowsFastPath:
    def test_builder_graphs_are_sorted(self):
        g = ring_of_cliques(4, 5).graph
        assert g.sorted_rows
        for u in range(g.num_vertices):
            row = g.indices[g.indptr[u]:g.indptr[u + 1]]
            assert np.all(row[:-1] <= row[1:])

    def test_lookup_matches_linear_scan(self):
        g = planted_partition(4, 10, 0.5, 0.05, seed=11).graph
        assert g.sorted_rows
        unsorted = dataclasses.replace(g, sorted_rows=False)
        rng = np.random.default_rng(3)
        for _ in range(200):
            u, v = rng.integers(0, g.num_vertices, size=2)
            assert g.has_edge(int(u), int(v)) == unsorted.has_edge(
                int(u), int(v)
            )
            assert g.edge_weight(int(u), int(v)) == unsorted.edge_weight(
                int(u), int(v)
            )

    def test_flow_network_preserves_sortedness(self):
        g = ring_of_cliques(3, 4).graph
        net = FlowNetwork.from_graph(g)
        assert net.graph.sorted_rows == g.sorted_rows


# ---------------------------------------------------------------------------
# End-to-end equivalence: batch vs scalar must be indistinguishable
# ---------------------------------------------------------------------------
def _graph_cases():
    return [
        ring_of_cliques(6, 5).graph,
        planted_partition(5, 24, 0.4, 0.02, seed=2).graph,
        barabasi_albert(300, 3, seed=4),
        powerlaw_planted_partition(400, 8, mu=0.25, seed=6).graph,
    ]


class TestSequentialEquivalence:
    @pytest.mark.parametrize("gi", range(4))
    @pytest.mark.parametrize("seed", [0, 13])
    def test_identical_membership_and_codelength(self, gi, seed):
        g = _graph_cases()[gi]
        scalar = sequential_infomap(g, _cfg(0, seed=seed))
        batch = sequential_infomap(g, _cfg(256, seed=seed))
        np.testing.assert_array_equal(batch.membership, scalar.membership)
        assert batch.codelength == scalar.codelength  # bitwise

    def test_tiny_blocks_still_equivalent(self):
        g = planted_partition(4, 12, 0.5, 0.05, seed=9).graph
        scalar = sequential_infomap(g, _cfg(0, seed=1))
        for bs in (1, 2, 7, 64):
            batch = sequential_infomap(g, _cfg(bs, seed=1))
            np.testing.assert_array_equal(
                batch.membership, scalar.membership
            )
            assert batch.codelength == scalar.codelength

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(2, 6),
        size=st.integers(4, 16),
    )
    def test_property_random_planted(self, seed, k, size):
        g = planted_partition(k, size, 0.5, 0.03, seed=seed).graph
        # Small/sparse draws can come out edgeless, where flow (and hence
        # the codelength) is undefined — discard those, don't crash.
        assume(g.total_weight > 0)
        scalar = sequential_infomap(g, _cfg(0, seed=seed % 7))
        batch = sequential_infomap(g, _cfg(128, seed=seed % 7))
        np.testing.assert_array_equal(batch.membership, scalar.membership)
        assert batch.codelength == scalar.codelength


class TestDistributedEquivalence:
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    @pytest.mark.parametrize("min_label", [True, False])
    def test_identical_membership_and_codelength(self, nranks, min_label):
        # The ring of cliques sends clique-mates with bitwise-equal
        # candidate inputs through the batch kernel's tie rule.
        for g in (
            planted_partition(5, 20, 0.4, 0.02, seed=3).graph,
            ring_of_cliques(40, 6).graph,
        ):
            scalar = distributed_infomap(
                g, nranks, _cfg(0, seed=5, min_label=min_label)
            )
            batch = distributed_infomap(
                g, nranks, _cfg(256, seed=5, min_label=min_label)
            )
            np.testing.assert_array_equal(
                batch.membership, scalar.membership
            )
            assert batch.codelength == scalar.codelength  # bitwise

    def test_delegates_forced_low_d_high(self):
        # d_high=2 turns nearly every vertex into a hub with delegates,
        # exercising the boundary/ghost-module paths of the batched
        # sweep.
        g = powerlaw_planted_partition(300, 6, mu=0.25, seed=8).graph
        scalar = distributed_infomap(g, 4, _cfg(0, seed=2, d_high=2))
        batch = distributed_infomap(g, 4, _cfg(64, seed=2, d_high=2))
        np.testing.assert_array_equal(batch.membership, scalar.membership)
        assert batch.codelength == scalar.codelength

    def test_scale_free_multirank(self):
        g = barabasi_albert(400, 3, seed=12)
        scalar = distributed_infomap(g, 3, _cfg(0, seed=0))
        batch = distributed_infomap(g, 3, _cfg(256, seed=0))
        np.testing.assert_array_equal(batch.membership, scalar.membership)
        assert batch.codelength == scalar.codelength


def _decision_bits(dec):
    """A ``MoveProposal`` as a tuple compared bitwise (floats as bytes)."""
    if dec is None:
        return None
    return tuple(
        _bits(v) if isinstance(v, float) else v
        for v in dataclasses.astuple(dec)
    )


class TestCachedSegmentRescore:
    """The batched distributed sweep's fallback contract: while none of
    a vertex's stored neighbours has moved since its chunk was scored,
    ``_score_candidates`` fed the chunk's ``_TableStore.score`` segment
    returns exactly ``_evaluate_move``'s decision, field for field."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        k=st.integers(2, 6),
        size=st.integers(4, 16),
        min_label=st.booleans(),
    )
    def test_property_matches_evaluate_move_bitwise(
        self, seed, k, size, min_label
    ):
        g = planted_partition(k, size, 0.5, 0.05, seed=seed).graph
        assume(g.total_weight > 0)
        net = FlowNetwork.from_graph(g)
        n = g.num_vertices
        lg = local_views_delegate(
            net, delegate_partition(g, 1, d_high=n + 1)
        )[0]
        state = LocalModuleState(lg)
        rng = np.random.default_rng(seed)
        # Mostly singletons, the rest in random modules: the min-label
        # rule (singleton into singleton) has work to do.
        state.module_of = np.where(
            rng.random(lg.num_local) < 0.6, lg.global_of,
            rng.integers(0, n, size=lg.num_local),
        ).astype(np.int64)
        own = state.contribution()
        state.rebuild_table(own, [])
        state.sum_exit_global = own.total_exit()
        mods = np.unique(state.module_of)
        bmods = set(
            rng.choice(mods, size=max(1, mods.size // 2), replace=False)
            .tolist()
        )
        cfg = InfomapConfig(min_label=min_label)
        # A few committed moves leave float dust in the table.
        for li in rng.choice(lg.num_owned, size=n // 4, replace=False):
            dec = _evaluate_move(state, int(li), cfg, bmods)
            if dec is not None:
                state.apply_local_move(
                    dec.vertex, dec.target, p_u=dec.p_u, x_u=dec.x_u,
                    d_old=dec.d_old, d_new=dec.d_new,
                )
        block = rng.permutation(lg.num_owned).astype(np.int64)
        agg, _ = _TableStore(state, cfg, set(), n, _round(state)).score(block)
        # Walk the block as a chunk: commit every move, so later
        # vertices are scored against a table the earlier ones changed.
        movers: set[int] = set()
        compared = 0
        for i, li in enumerate(block.tolist()):
            want = _evaluate_move(state, li, cfg, bmods)
            nbrs, _ = lg.neighbors_of(li)
            if movers.isdisjoint(nbrs.tolist()):
                a, b = int(agg.seg_ptr[i]), int(agg.seg_ptr[i + 1])
                got = _score_candidates(
                    state, cfg, bmods, li=li, current=int(agg.current[i]),
                    mods=agg.seg_mods[a:b].tolist(),
                    flows=agg.seg_flows[a:b].tolist(),
                    p_u=float(agg.p_u[i]), x_u=float(agg.x_u[i]),
                    d_old=float(agg.d_old[i]),
                )
                assert _decision_bits(got) == _decision_bits(want), li
                compared += 1
            if want is not None:
                state.apply_local_move(
                    li, want.target, p_u=want.p_u, x_u=want.x_u,
                    d_old=want.d_old, d_new=want.d_new,
                )
                movers.add(li)
        assert compared > 0


class TestBatchSmoke4Ranks:
    def test_batch_path_runs_under_four_ranks(self):
        """Tier-1 smoke: the batched sweep actually engages (block
        floor exceeded) and the run converges to a sane partition."""
        lg = powerlaw_planted_partition(600, 10, mu=0.2, seed=21)
        res = distributed_infomap(lg.graph, 4, _cfg(256, seed=1))
        assert res.num_modules > 1
        assert res.codelength > 0.0
        scalar = distributed_infomap(lg.graph, 4, _cfg(0, seed=1))
        assert res.codelength == scalar.codelength


# ---------------------------------------------------------------------------
# Touched-module certification (the ladder's step 5) on both module stores
# ---------------------------------------------------------------------------
def _touch_kind(cur, cands, touched):
    cur_hit = cur in touched
    cand_hit = not touched.isdisjoint(cands)
    if cur_hit and cand_hit:
        return "both"
    return "current" if cur_hit else "candidate" if cand_hit else None


def _noisy_labels(labels, k, noise, rng):
    """Planted labels with a *noise* fraction of vertices misplaced."""
    memb = np.asarray(labels, dtype=np.int64).copy()
    moved = rng.random(memb.size) < noise
    memb[moved] = rng.integers(0, k, size=int(moved.sum()))
    return memb


def _forced_target(rng, force, others, fresh):
    """With probability *force*, a forced move's target: a neighbour
    module from *others*, or the unused module id *fresh* (which touches
    only the mover's old module among the snapshot's candidates)."""
    if rng.random() >= force:
        return None
    if others.size and rng.random() < 0.5:
        return int(rng.choice(others))
    return fresh


def _flow_into(mods, flows, m):
    hit = np.flatnonzero(mods == m)
    return float(flows[hit[0]]) if hit.size else 0.0


def _initial_membership(lgraph, k, noise, rng):
    """Noisy planted labels, or (``noise=None``) half singletons and
    half random modules."""
    n = lgraph.graph.num_vertices
    if noise is not None:
        return _noisy_labels(lgraph.labels, k, noise, rng)
    return np.where(
        rng.random(n) < 0.5, np.arange(n), rng.integers(0, n, size=n)
    ).astype(np.int64)


def _stats_store(seed, k, size, noise, p_out):
    """A ``ModuleStats`` store on a random planted graph, with the
    per-vertex ``(neighbours, fresh flows)`` the walk needs."""
    lgraph = planted_partition(k, size, 0.5, p_out, seed=seed)
    g = lgraph.graph
    if g.total_weight <= 0:
        return None
    net = FlowNetwork.from_graph(g)
    rng = np.random.default_rng(seed)
    membership = _initial_membership(lgraph, k, noise, rng)
    stats = ModuleStats.from_membership(net, membership)
    store = _StatsStore(net, membership, stats)

    def flows(u):
        mods, fl, x_u = neighbor_module_flows(net, membership, u)
        return g.neighbors(u).tolist(), mods, fl, x_u, float(net.node_flow[u])

    return store, flows


class _Round(SimpleNamespace):
    """The per-round move bookkeeping of a :class:`_Level`, alone: its
    ``commit`` and ``commit_run`` over a :class:`LocalModuleState`."""

    commit = _Level.commit
    commit_run = _Level.commit_run


def _round(state, left_prev=None):
    return _Round(
        state=state, no_swap_back=True, left_prev=dict(left_prev or {}),
        left_now={}, local_moves=0, swap_backs=0, moved_local=[],
        changed_mods=set(),
    )


def _table_store(seed, k, size, noise, p_out, min_label, jitter,
                 left_prev=None):
    """A p=1 module-table store on a random planted graph whose edge
    weights are jittered by a relative *jitter* (near-ties within
    ``TIE_EPS`` between otherwise identical candidates), with a random
    half of the modules under the min-label rule; its commits refuse
    the swap-backs of *left_prev* (``{vertex: module it left}``)."""
    lgraph = planted_partition(k, size, 0.5, p_out, seed=seed)
    g = lgraph.graph
    if g.total_weight <= 0:
        return None
    rng = np.random.default_rng(seed)
    if jitter:
        g = from_edges(
            [(u, v, w * (1.0 + jitter * rng.random()))
             for u, v, w in g.edges()],
            num_vertices=g.num_vertices,
        )
    net = FlowNetwork.from_graph(g)
    n = g.num_vertices
    lg = local_views_delegate(net, delegate_partition(g, 1, d_high=n + 1))[0]
    state = LocalModuleState(lg)
    state.module_of = _initial_membership(lgraph, k, noise, rng)[lg.global_of]
    own = state.contribution()
    state.rebuild_table(own, [])
    state.sum_exit_global = own.total_exit()
    mods = np.unique(state.module_of)
    bmods = set(
        rng.choice(mods, size=max(1, mods.size // 2), replace=False).tolist()
    ) if min_label else set()

    store = _TableStore(state, InfomapConfig(min_label=min_label), bmods,
                        n, _round(state, left_prev))

    def flows(li):
        mods, fl, x_u = aggregate_module_flows(
            *lg.neighbors_of(li), li, state.module_of
        )
        return (lg.neighbors_of(li)[0].tolist(), mods, fl, x_u,
                float(lg.flow[li]))

    return store, flows


def _walk(store, flows, n, seed, force):
    """Walk one scored block of *store* as the ladder does, committing
    the exact move or, with probability *force*, a forced one
    (:func:`_forced_target`).  Every vertex whose current or candidate
    module a commit touched, while none of its neighbours has moved, is
    certified (:meth:`_Walk.certify`) and compared with the store's
    exact scorer (``score_vertex`` or ``_score_candidates``) on the live
    aggregates.  Returns ``{(touch kind, outcome): count}``."""
    rng = np.random.default_rng(seed)
    block = rng.permutation(n).astype(np.int64)
    agg, score = store.score(block)
    w = _Walk(store, agg, score)
    seen: dict = {}
    for i, u in enumerate(block.tolist()):
        cur = w.current[i]
        a, b = w.seg_ptr[i], w.seg_ptr[i + 1]
        nbrs, mods, fl, x_u, p_u = flows(u)
        kind = _touch_kind(cur, set(w.seg_mods[a:b]) - {cur}, w.touched)
        if kind and w.movers.isdisjoint(nbrs):
            got = w.certify(i, store.sum_exit())
            want = store.exact(u, cur, w, i)
            outcome = "gray"
            if got is not None:
                if want is None:
                    assert got[0] == cur, (u, got)
                else:
                    assert got[0] == want[0], (u, got, want)
                    assert _bits(got[1]) == _bits(want[4])
                outcome = "stay" if got[0] == cur else "move"
            seen[kind, outcome] = seen.get((kind, outcome), 0) + 1
        tgt = _forced_target(rng, force, mods[mods != cur], n + i)
        if tgt is None:
            move = store.exact(u, cur)
            tgt = cur if move is None else move[0]
        if tgt != cur:
            store.commit(u, cur, tgt, p_u, x_u, _flow_into(mods, fl, cur),
                         _flow_into(mods, fl, tgt))
            w.touched.update((cur, tgt))
            w.movers.add(u)
    return seen


def _store_bits(store) -> tuple:
    """Everything a sweep writes to *store*, bitwise: memberships,
    module aggregates, the exit sum and, on the table, the round's
    move bookkeeping."""
    if isinstance(store, _StatsStore):
        st = store.stats
        return (
            store.membership.tobytes(), st.exit.tobytes(),
            st.sum_p.tobytes(), st.members.tobytes(),
            _bits(float(st.sum_exit)),
        )
    state, lv = store.state, store.commit.__self__
    t = state._table
    t.compact()
    return (
        state.module_of.tobytes(), t.ids.tobytes(), t.exit.tobytes(),
        t.sum_p.tobytes(), t.members.tobytes(),
        _bits(state.sum_exit_global), list(lv.left_now.items()),
        lv.moved_local, sorted(lv.changed_mods), lv.local_moves,
        lv.swap_backs,
    )


def _bulk_and_scalar(make, n, seed, batch_size) -> "tuple[int, int]":
    """Sweep one random order through two stores *make* builds alike,
    with and without the ladder's bulk step: both must return the same
    moves and exact-scorer calls and leave bitwise-equal stores.
    Returns the bulk commits and, on the table, the swap-backs."""
    order = np.random.default_rng(seed).permutation(n).astype(np.int64)
    got = {}
    for bulk in (True, False):
        store = make()[0]
        moved, rescored, bulked = sweep(store, order, batch_size, bulk=bulk)
        got[bulk] = (moved, rescored), _store_bits(store), bulked
    assert got[True][0] == got[False][0]
    assert got[True][1] == got[False][1]
    assert got[False][2] == 0
    backs = got[True][1][-1] if len(got[True][1]) > 5 else 0
    return got[True][2], backs


def _swap_backs(seed, k, size, noise, p_out, share):
    """``{vertex: module}`` for a random *share* of the vertices: the
    batch argmin of a one-block scoring, so that a commit refuses it."""
    store = _table_store(seed, k, size, noise, p_out, False, 0.0)[0]
    n = k * size
    _agg, score = store.score(np.arange(n))
    pick = np.random.default_rng(seed + 1).random(n) < share
    return dict(zip(np.flatnonzero(pick).tolist(),
                    score.best_target[pick].tolist()))


class TestTouchedCertifier:
    """A vertex whose current or candidate module an earlier commit in
    its block touched is certified on shifted or recomputed batch
    deltas; on either module store, every certified (non-gray) outcome
    must be the store's exact scorer's on the live aggregates."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        k=st.integers(2, 20),
        size=st.integers(4, 16),
        force=st.sampled_from([0.0, 0.1, 0.4]),
        noise=st.sampled_from([None, 0.0, 0.1, 0.3]),
        p_out=st.sampled_from([0.005, 0.05]),
    )
    def test_property_sequential_matches_score_vertex(
        self, seed, k, size, force, noise, p_out
    ):
        case = _stats_store(seed, k, size, noise, p_out)
        assume(case is not None)
        _walk(*case, k * size, seed, force)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        k=st.integers(2, 20),
        size=st.integers(4, 16),
        force=st.sampled_from([0.0, 0.1, 0.4]),
        noise=st.sampled_from([None, 0.0, 0.1, 0.3]),
        p_out=st.sampled_from([0.005, 0.05]),
        min_label=st.booleans(),
        jitter=st.sampled_from([0.0, 1e-11]),
    )
    def test_property_table_matches_score_candidates(
        self, seed, k, size, force, noise, p_out, min_label, jitter
    ):
        case = _table_store(seed, k, size, noise, p_out, min_label, jitter)
        assume(case is not None)
        _walk(*case, k * size, seed, force)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        k=st.integers(20, 80),
        size=st.integers(3, 8),
        noise=st.sampled_from([None, 0.0, 0.3]),
        batch=st.sampled_from([32, 128, 256]),
    )
    def test_property_bulk_matches_scalar_on_stats(
        self, seed, k, size, noise, batch
    ):
        # Many small communities from half-singleton starts: long runs
        # of clean certified moves, broken by touched neighbourhoods.
        assume(_stats_store(seed, k, size, noise, 0.005) is not None)
        _bulk_and_scalar(
            lambda: _stats_store(seed, k, size, noise, 0.005),
            k * size, seed, batch,
        )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        k=st.integers(20, 80),
        size=st.integers(3, 8),
        noise=st.sampled_from([None, 0.0, 0.3]),
        batch=st.sampled_from([32, 128, 256]),
        min_label=st.booleans(),
        share=st.sampled_from([0.0, 0.05, 0.3]),
    )
    def test_property_bulk_matches_scalar_on_table(
        self, seed, k, size, noise, batch, min_label, share
    ):
        # Also moves into min-label modules, and swap-backs the round
        # refuses.
        assume(_stats_store(seed, k, size, noise, 0.005) is not None)
        backs = _swap_backs(seed, k, size, noise, 0.005, share)
        _bulk_and_scalar(
            lambda: _table_store(seed, k, size, noise, 0.005, min_label,
                                 0.0, backs),
            k * size, seed, batch,
        )

    def test_bulk_step_engages_on_both_stores(self):
        # The properties above compare nothing if no run is committed in
        # bulk: here runs are, on both stores, also next to min-label
        # modules and refused swap-backs.  400 communities of 5 in
        # blocks of 64: few block vertices share a community.
        bulk = {"stats": 0, "table": 0, "min_label": 0}
        backs = 0
        args = (400, 5, None, 0.0005)
        for seed in range(2):
            bulk["stats"] += _bulk_and_scalar(
                lambda: _stats_store(seed, *args), 2000, seed, 64
            )[0]
            bulk["table"] += _bulk_and_scalar(
                lambda: _table_store(seed, *args, False, 0.0), 2000, seed, 64
            )[0]
            refusals = _swap_backs(seed, *args, 0.1)
            got, b = _bulk_and_scalar(
                lambda: _table_store(seed, *args, True, 0.0, refusals),
                2000, seed, 64,
            )
            bulk["min_label"] += got
            backs += b
        assert min(bulk.values()) > 100, bulk
        assert backs > 0

    def test_every_touch_kind_certifies(self):
        # Many small, sparsely linked communities: a commit touches few
        # of a vertex's modules, so every kind of touch occurs.  The
        # table store runs under the min-label rule with jittered
        # weights.
        stores = {
            "stats": lambda seed: _stats_store(seed, 20, 10, 0.1, 0.005),
            "table": lambda seed: _table_store(
                seed, 20, 10, 0.1, 0.005, True, 1e-11
            ),
        }
        for name, make in stores.items():
            seen: dict = {}
            for seed in range(3):
                for key, c in _walk(*make(seed), 200, seed, 0.1).items():
                    seen[key] = seen.get(key, 0) + c
            for kind in ("current", "candidate", "both"):
                for outcome in ("stay", "move"):
                    assert seen.get((kind, outcome), 0) > 0, (
                        name, kind, outcome, seen
                    )

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        count=st.integers(1, 6),
        e=st.sampled_from([1e-12, 3e-12, 2e-11]),
    )
    def test_property_rebreak_matches_exact_rule(self, seed, count, e):
        # Candidate deltas near-tied on the scale of TIE_EPS, and
        # estimates of them within e: a certified re-break must be the
        # one _score_candidates makes on the exact deltas.
        rng = np.random.default_rng(seed)
        exact = (-1e-3 + TIE_EPS * rng.choice(
            [0.0, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0], size=count
        ) + rng.uniform(-3e-11, 3e-11, size=count)).tolist()
        est = [d + rng.uniform(-e, e) for d in exact]
        k = est.index(min(est))
        others = est[:k] + est[k + 1:]
        assume(not others or min(others) - est[k] >= 2.0 * e)
        got = _near_tie(est, est[k], k, e)
        if got is not None:
            assert got == _near_tie(exact, min(exact), exact.index(min(exact)))
            assert got == next(j for j, d in enumerate(exact)
                               if d <= min(exact) + TIE_EPS)

    def test_sequential_shift_decides_after_current_module_empties(self):
        # Every co-member of u that is not its neighbour leaves for a
        # fresh module: only u's current module changed, often enough
        # to flip u's stale batch decision.  The certified outcome must
        # be the live one, never the stale one.
        g = planted_partition(4, 12, 0.3, 0.05, seed=4).graph
        net = FlowNetwork.from_graph(g)
        n = g.num_vertices
        base = np.random.default_rng(4).integers(0, 4, size=n)
        mi = MIN_IMPROVEMENT
        flips = 0
        for u in range(n):
            membership = base.astype(np.int64)
            stats = ModuleStats.from_membership(net, membership)
            store = _StatsStore(net, membership, stats)
            agg, score = store.score(np.array([u]))
            w = _Walk(store, agg, score)
            cur = int(membership[u])
            nbrs = set(g.neighbors(u).tolist())
            for j, v in enumerate(np.flatnonzero(membership == cur).tolist()):
                if v == u or v in nbrs:
                    continue
                mods, flows, x_v = neighbor_module_flows(net, membership, v)
                store.commit(v, cur, n + j, float(net.node_flow[v]), x_v,
                             _flow_into(mods, flows, cur), 0.0)
                w.touched.update((cur, n + j))
            if not w.touched:
                continue
            got = w.certify(0, store.sum_exit())
            tgt, delta, _ = score_vertex(
                stats, cur, agg.seg_mods, agg.seg_flows,
                p_u=float(agg.p_u[0]), x_u=float(agg.x_u[0]),
                d_old=float(agg.d_old[0]),
            )
            want = tgt if delta < -mi else cur
            stale = int(score.best_target[0]) if (
                float(score.best_delta[0]) < -mi) else cur
            if got is not None:
                assert got[0] == want, u
                flips += stale != want
        assert flips > 0

class TestExactRescoreCount:
    """The batched sequential sweep counts its exact per-vertex re-scores
    (``score_vertex`` plus ``best_move`` calls) in ``work`` and on each
    sweep span; the distributed owned-vertex sweeps count theirs in the
    ``round`` trace instants.  A certifier that silently went all-gray
    would keep every decision and lose the speed; these counts catch
    it."""

    #: Exact re-scores of this solve before touched-module certification.
    BEFORE = 5501

    def test_touched_certification_halves_exact_rescores(self):
        from repro.graph.datasets import load_dataset
        from repro.obs.trace import Tracer

        g = load_dataset("friendster", seed=0, scale=0.05).graph
        work: dict = {}
        tracer = Tracer()
        sequential_infomap(g, InfomapConfig(seed=1), work=work, tracer=tracer)
        assert 0 < work["exact_rescores"] <= self.BEFORE // 2
        spans = [
            ev for ev in tracer.merged_events()
            if ev["kind"] == "span" and ev["name"] == "sweep"
        ]
        assert sum(ev["args"]["exact_rescores"] for ev in spans) == (
            work["exact_rescores"]
        )

    def test_scalar_sweep_rescores_every_visit(self):
        g = planted_partition(4, 12, 0.5, 0.05, seed=9).graph
        work: dict = {}
        sequential_infomap(g, _cfg(0, seed=1), work=work)
        assert work["exact_rescores"] == work["vertices_swept"]

    def test_distributed_touched_certification_cuts_exact_rescores(self):
        # 5,119 exact-scorer calls before the module-table store
        # certified touched vertices; 3,508 of them were touched ones.
        from repro.graph.datasets import load_dataset
        from repro.obs.export import convergence_rows
        from repro.obs.trace import Tracer

        g = load_dataset("friendster", seed=0, scale=0.05).graph
        tracer = Tracer()
        distributed_infomap(g, 2, InfomapConfig(seed=1), tracer=tracer)
        rows = convergence_rows(tracer.merged_events())
        assert 0 < sum(r["exact_rescores"] for r in rows) <= 3000
