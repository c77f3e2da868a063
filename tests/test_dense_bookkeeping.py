"""Sort-free per-round bookkeeping.

The rank's contribution, the module-table rebuild, the owner-side
codelength reduction and the coarse merge group by module id with dense
``np.bincount`` reductions, and the active-set wake-up marks entries
with a dense mask.  Each is checked bitwise against the ``np.unique`` /
reverse-adjacency form it replaced, kept here as the reference.
"""

import functools
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import FlowNetwork, ModuleInfo
from repro.core.distributed import (
    _Level,
    _exact_codelength,
    _merge_to_coarse,
    _pair_sums,
)
from repro.core.mapequation import plogp
from repro.core.swap import Contribution, LocalModuleState
from repro.core.timing import PhaseTimer
from repro.graph.builder import from_edge_array
from repro.graph.generators import barabasi_albert
from repro.partition import delegate_partition, local_views_delegate
from repro.simmpi.engine import run_spmd

N = 240
KINDS = ("singletons", "merged", "top_id", "one_module")


@functools.lru_cache(maxsize=None)
def _world(p: int, self_loops: bool = False):
    """A hub-heavy graph with random weights (so the order of a sum
    shows in its last bits), optionally with self-loops, its flow
    network and *p* delegate views (hubs, non-home hub copies,
    ghosts)."""
    g = barabasi_albert(N, 3, seed=5)
    src = np.repeat(np.arange(N), np.diff(g.indptr))
    keep = src < g.indices
    src, dst = src[keep], g.indices[keep]
    loops = np.arange(0, N, 7) if self_loops else np.empty(0, np.int64)
    g = from_edge_array(
        np.concatenate([src, loops]),
        np.concatenate([dst, loops]),
        np.random.default_rng(p).random(src.size + loops.size) + 0.1,
        num_vertices=N, keep_self_loops=self_loops,
    )
    net = FlowNetwork.from_graph(g)
    views = local_views_delegate(net, delegate_partition(g, p, d_high=12))
    return net, views


def _membership(kind: str, seed: int) -> np.ndarray:
    """A global membership over ``range(N)`` of the given *kind*."""
    rng = np.random.default_rng(seed)
    if kind == "singletons":
        return np.arange(N, dtype=np.int64)
    if kind == "one_module":
        return np.full(N, int(rng.integers(N)), dtype=np.int64)
    memb = rng.integers(0, 12, size=N).astype(np.int64) * 17
    if kind == "top_id":
        memb[rng.random(N) < 0.3] = N - 1  # the largest id in the space
    # Some vertices stay singletons (ghost seeding needs them).
    alone = rng.random(N) < 0.2
    memb[alone] = np.flatnonzero(alone)
    return memb


def _state(view, memb: np.ndarray) -> LocalModuleState:
    state = LocalModuleState(view)
    state.module_of = memb[view.global_of].copy()
    return state


def _same(a: np.ndarray, b: np.ndarray) -> None:
    """Bitwise equality: dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# -- references: the np.unique group-bys the dense ones replaced --------------

def ref_mass_idx(lg) -> np.ndarray:
    mass = np.zeros(lg.num_local, dtype=bool)
    mass[: lg.num_owned] = True
    mass[lg.num_owned : lg.num_owned + lg.num_hubs] = lg.hub_home
    return np.flatnonzero(mass)


def ref_contribution(state: LocalModuleState):
    lg = state.lg
    mass_idx = ref_mass_idx(lg)
    mass_mods = state.module_of[mass_idx]
    src = np.repeat(np.arange(lg.num_sources), np.diff(lg.indptr))
    mod_src = state.module_of[src]
    cross = mod_src != state.module_of[lg.nbr]
    ids, inv = np.unique(
        np.concatenate([mass_mods, mod_src[cross]]), return_inverse=True
    )
    k = ids.size
    im, ie = inv[: mass_mods.size], inv[mass_mods.size :]
    return (
        ids,
        np.bincount(im, weights=lg.flow[mass_idx], minlength=k),
        np.bincount(ie, weights=lg.nbr_flow[cross], minlength=k),
        np.bincount(im, minlength=k).astype(np.int64),
    )


def ref_rebuild(state: LocalModuleState, own, batches):
    """``(ids, exit, sum_p, members)`` of the rebuilt table."""
    ids_p, sp_p, ex_p = [own.mod_ids], [own.sum_p], [own.exit]
    nm_p = [own.members.astype(np.float64)]
    for ids, sp, ex, nm, *snt in batches:
        if snt:
            live = ~snt[0]
            sp, ex = np.where(live, sp, 0.0), np.where(live, ex, 0.0)
            nm = np.where(live, nm, 0)
        ids_p.append(ids)
        sp_p.append(sp)
        ex_p.append(ex)
        nm_p.append(np.asarray(nm, dtype=np.float64))
    uniq, inv = np.unique(np.concatenate(ids_p), return_inverse=True)
    k = uniq.size
    sum_p = np.bincount(inv, weights=np.concatenate(sp_p), minlength=k)
    exit_ = np.bincount(inv, weights=np.concatenate(ex_p), minlength=k)
    members = np.bincount(
        inv, weights=np.concatenate(nm_p), minlength=k
    ).astype(np.int64)
    lg = state.lg
    idx = np.arange(lg.num_owned, lg.num_local)
    mods = state.module_of[idx]
    sel = mods == lg.global_of[idx]
    cu, first = np.unique(mods[sel], return_index=True)
    miss = ~np.isin(cu, uniq)
    src = idx[sel][first[miss]]
    uniq = np.concatenate([uniq, cu[miss]])
    sum_p = np.concatenate([sum_p, lg.flow[src]])
    exit_ = np.concatenate([exit_, lg.exit0[src]])
    members = np.concatenate([members, np.ones(src.size, dtype=np.int64)])
    srt = np.argsort(uniq, kind="stable")
    return uniq[srt], exit_[srt], sum_p[srt], members[srt]


def ref_exact_codelength(comm, own, node_term: float) -> float:
    p = comm.size
    if p == 1:
        q, pm = own.exit, own.sum_p
        return float(
            plogp(q.sum()) - 2.0 * plogp(q).sum()
            + node_term + plogp(q + pm).sum()
        )
    dest = own.mod_ids % p
    recv = comm.exchange({
        r: (own.mod_ids[dest == r], own.sum_p[dest == r],
            own.exit[dest == r])
        for r in range(p) if r != comm.rank and (dest == r).any()
    })
    keep = dest == comm.rank
    ids, sps, exs = [own.mod_ids[keep]], [own.sum_p[keep]], [own.exit[keep]]
    for mids, msp, mex in recv.values():
        ids.append(mids)
        sps.append(msp)
        exs.append(mex)
    uniq, inv = np.unique(np.concatenate(ids), return_inverse=True)
    q = np.bincount(inv, weights=np.concatenate(exs), minlength=uniq.size)
    pm = np.bincount(inv, weights=np.concatenate(sps), minlength=uniq.size)
    total = comm.allreduce(
        np.array([q.sum(), plogp(q).sum(), plogp(q + pm).sum()])
    )
    return float(
        plogp(float(total[0])) - 2.0 * total[1] + node_term + total[2]
    )


def ref_pair_sums(a, b, w, id_space):
    uk, inv = np.unique(a * np.int64(id_space) + b, return_inverse=True)
    return uk, np.bincount(inv, weights=w, minlength=uk.size)


def ref_merge(comm, state, own, id_space):
    lg = state.lg
    src = np.repeat(np.arange(lg.num_sources), np.diff(lg.indptr))
    mod_src, mod_dst = state.module_of[src], state.module_of[lg.nbr]
    a, b = np.minimum(mod_src, mod_dst), np.maximum(mod_src, mod_dst)
    w = lg.nbr_flow * np.where(lg.nbr == src, 2.0, 1.0)
    uk, kw = ref_pair_sums(a, b, w, id_space)
    gathered = comm.allgather((uk, kw, own.mod_ids, own.sum_p))
    keys = np.concatenate([g[0] for g in gathered])
    kws = np.concatenate([g[1] for g in gathered])
    mids = np.concatenate([g[2] for g in gathered])
    msps = np.concatenate([g[3] for g in gathered])
    all_mods = np.unique(
        np.concatenate([mids, keys // id_space, keys % id_space])
    )
    node_flow = np.bincount(
        np.searchsorted(all_mods, mids), weights=msps,
        minlength=all_mods.size,
    )
    uk2, inv2 = np.unique(keys, return_inverse=True)
    kw2 = np.bincount(inv2, weights=kws, minlength=uk2.size) / 2.0
    g = from_edge_array(
        np.searchsorted(all_mods, uk2 // id_space),
        np.searchsorted(all_mods, uk2 % id_space),
        kw2, num_vertices=all_mods.size, dedup="sum", keep_self_loops=True,
    )
    return (uk, kw), (g, node_flow, all_mods)


# -- contribution -------------------------------------------------------------

class TestContribution:
    def test_world_has_non_home_hubs_and_ghosts(self):
        _net, views = _world(3)
        assert any(v.num_hubs and not v.hub_home.all() for v in views)
        assert all(v.num_ghosts for v in views)

    def test_mass_set_is_owned_plus_home_hubs(self):
        for v in _world(3)[1]:
            _same(LocalModuleState(v).mass_idx, ref_mass_idx(v))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS))
    def test_bitwise_equal_to_unique_reference(self, seed, kind):
        memb = _membership(kind, seed)
        for v in _world(3)[1]:
            state = _state(v, memb)
            c = state.contribution()
            for got, want in zip(
                (c.mod_ids, c.sum_p, c.exit, c.members),
                ref_contribution(state),
            ):
                _same(got, want)
            if kind == "one_module":
                assert c.mod_ids.size == 1 and c.exit[0] == 0.0


# -- table rebuild ------------------------------------------------------------

def _batches(rng, memb: np.ndarray) -> list:
    """Received batches: the 5-column wire form with ``is_sent`` rows,
    the 4-column peer-cache form, and ``ModuleInfo`` records.  Ids come
    from the membership (some singleton ghosts among them) and from
    past the id space."""
    pool = np.concatenate([np.unique(memb), [N - 1, N + 3, 5 * N]])
    out = []
    for form in ("wire", "cache", "records"):
        k = int(rng.integers(0, 30))
        ids = rng.choice(pool, size=k).astype(np.int64)
        sp, ex = rng.random(k) * 1e-2, rng.random(k) * 1e-3
        nm = rng.integers(1, 5, size=k).astype(np.int64)
        if form == "wire":
            out.append((ids, sp, ex, nm, rng.random(k) < 0.3))
        elif form == "cache":
            out.append((ids, sp, ex, nm))
        else:
            out.append([
                ModuleInfo(int(i), float(s), float(e), int(n), bool(t))
                for i, s, e, n, t in zip(ids, sp, ex, nm, rng.random(k) < 0.3)
            ])
    return out


def _as_columns(batch):
    if isinstance(batch, tuple):
        return batch
    return (
        np.array([i.mod_id for i in batch], dtype=np.int64),
        np.array([i.sum_pr for i in batch], dtype=np.float64),
        np.array([i.exit_pr for i in batch], dtype=np.float64),
        np.array([i.num_members for i in batch], dtype=np.int64),
        np.array([i.is_sent for i in batch], dtype=bool),
    )


class TestRebuildTable:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS))
    def test_bitwise_equal_to_unique_reference(self, seed, kind):
        rng = np.random.default_rng(seed)
        memb = _membership(kind, seed)
        for v in _world(3)[1]:
            state = _state(v, memb)
            own = state.contribution()
            batches = _batches(rng, memb) if seed % 4 else []
            state.rebuild_table(own, batches)
            t = state._table
            want = ref_rebuild(state, own, [_as_columns(b) for b in batches])
            for got, ref in zip((t.ids, t.exit, t.sum_p, t.members), want):
                _same(got, ref)

    def test_empty_contribution_seeds_exact_floats(self):
        """With nothing to sum, the table is the seeded singletons, as
        float64 (a bincount over no ids would be int64)."""
        state = LocalModuleState(_world(3)[1][0])
        empty = Contribution(
            mod_ids=np.empty(0, np.int64), sum_p=np.empty(0),
            exit=np.empty(0), members=np.empty(0, np.int64),
        )
        state.rebuild_table(empty, [])
        t = state._table
        assert t.ids.size > 0
        for got, want in zip(
            (t.ids, t.exit, t.sum_p, t.members),
            ref_rebuild(state, empty, []),
        ):
            _same(got, want)

    def test_seeds_ghost_singletons_the_batches_do_not_name(self):
        memb = _membership("merged", 3)
        v = _world(3)[1][0]
        state = _state(v, memb)
        own = state.contribution()
        lo = v.num_owned
        single = [
            int(g) for i, g in enumerate(v.global_of[lo:], lo)
            if state.module_of[i] == g and own.index_of(g) < 0
        ]
        assert len(single) >= 2
        named = np.array(single[:1], dtype=np.int64)
        batch = (named, np.array([0.5]), np.array([0.25]),
                 np.array([7], dtype=np.int64), np.array([True]))
        state.rebuild_table(own, [batch])
        # A named singleton keeps the (here zero, is_sent) batch mass;
        # an unnamed one is seeded from the static flow data.
        assert state.table_sum_p[single[0]] == 0.0
        i = lo + int(np.flatnonzero(v.global_of[lo:] == single[1])[0])
        assert state.table_sum_p[single[1]] == v.flow[i]
        assert state.table_exit[single[1]] == v.exit0[i]
        assert state.table_members[single[1]] == 1


# -- owner-side codelength reduction ------------------------------------------

@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kind", ["singletons", "merged", "top_id"])
def test_exact_codelength_bitwise_equal_to_reference(p, kind):
    memb = _membership(kind, 11)
    views = _world(p)[1]

    def prog(comm):
        own = _state(views[comm.rank], memb).contribution()
        timer = PhaseTimer(comm, trace=comm.trace)
        got = _exact_codelength(comm, own, 0.75, timer)
        return got, ref_exact_codelength(comm, own, 0.75)

    for got, want in run_spmd(prog, p).results:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_exact_codelength_sums_own_part_then_ascending_sources():
    """Terms whose sum depends on its order: the owner's 2**53 first,
    then one 1.0 per peer, rounds to 2**53; any other order does not."""
    ids = np.arange(6, dtype=np.int64)

    def prog(comm):
        own = Contribution(
            mod_ids=ids, sum_p=np.ones(6),
            exit=np.where(ids % 3 == comm.rank, 2.0**53, 1.0),
            members=np.ones(6, np.int64),
        )
        timer = PhaseTimer(comm, trace=comm.trace)
        got = _exact_codelength(comm, own, 0.0, timer)
        return got, ref_exact_codelength(comm, own, 0.0)

    for got, want in run_spmd(prog, 3).results:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# -- coarse merge -------------------------------------------------------------

class TestMerge:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), inner=st.floats(0.0, 1.0))
    def test_pair_sums_bitwise_equal_to_unique(self, seed, inner):
        rng = np.random.default_rng(seed)
        id_space = int(rng.integers(1, 50))
        k = int(rng.integers(0, 80))
        a = rng.integers(0, id_space, size=k).astype(np.int64)
        b = np.where(
            rng.random(k) < inner, a,
            rng.integers(0, id_space, size=k).astype(np.int64),
        )
        a, b = np.minimum(a, b), np.maximum(a, b)
        a[: k // 5] = b[: k // 5] = id_space - 1  # the largest module
        w = rng.random(k) * rng.choice([1.0, 2.0], size=k)
        for got, want in zip(
            _pair_sums(a, b, w, id_space), ref_pair_sums(a, b, w, id_space)
        ):
            _same(got, want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_merge_bitwise_equal_to_reference(self, kind):
        memb = _membership(kind, 2)
        views = _world(2, self_loops=True)[1]
        assert any(
            (v.nbr == np.repeat(np.arange(v.num_sources),
                                np.diff(v.indptr))).any()
            for v in views
        )

        def prog(comm):
            state = _state(views[comm.rank], memb)
            own = state.contribution()
            timer = PhaseTimer(comm, trace=comm.trace)
            net, mods = _merge_to_coarse(comm, state, own, timer, N)
            lg = state.lg
            src = state._entry_src
            a = np.minimum(state.module_of[src], state.module_of[lg.nbr])
            b = np.maximum(state.module_of[src], state.module_of[lg.nbr])
            w = lg.nbr_flow * np.where(lg.nbr == src, 2.0, 1.0)
            local = _pair_sums(a, b, w, N)
            want_local, want = ref_merge(comm, state, own, N)
            return local, (net.graph, net.node_flow, mods), want_local, want

        for local, got, want_local, want in run_spmd(prog, 2).results:
            for x, y in zip(local, want_local):
                _same(x, y)
            (g, flow, mods), (wg, wflow, wmods) = got, want
            for x, y in (
                (g.indptr, wg.indptr), (g.indices, wg.indices),
                (g.weights, wg.weights), (flow, wflow), (mods, wmods),
            ):
                _same(x, y)


# -- active-set wake-up -------------------------------------------------------

def ref_mark(lg, state, changed):
    """Reverse adjacency: every stored source of an entry into
    *changed*."""
    src = np.repeat(np.arange(lg.num_sources), np.diff(lg.indptr))
    order = np.argsort(lg.nbr, kind="stable")
    targets, sources = lg.nbr[order], src[order]
    active = np.zeros(lg.num_owned, dtype=bool)
    hubs = np.zeros(lg.num_hubs, dtype=bool)
    for c in changed.tolist():
        lo, hi = np.searchsorted(targets, [c, c + 1])
        for s in sources[lo:hi].tolist():
            if s < lg.num_owned:
                active[s] = True
            else:
                hubs[s - lg.num_owned] = True
    return active, hubs


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), frac=st.floats(0.0, 0.3))
def test_mark_neighbors_wakes_exactly_the_stored_in_neighbours(seed, frac):
    rng = np.random.default_rng(seed)
    for v in _world(3)[1]:
        state = LocalModuleState(v)
        changed = np.flatnonzero(rng.random(v.num_local) < frac)
        changed = np.concatenate([changed, changed[:3]])  # repeats
        lv = SimpleNamespace(
            lg=v, state=state,
            active=np.zeros(v.num_owned, dtype=bool),
            hub_dirty=np.zeros(v.num_hubs, dtype=bool),
        )
        _Level._mark_neighbors(lv, changed)
        active, hubs = ref_mark(v, state, changed)
        _same(lv.active, active)
        _same(lv.hub_dirty, hubs)


# -- no numpy.ma on the rank path ---------------------------------------------

_NO_MA = textwrap.dedent("""
    import os, sys, tempfile, traceback

    marks = sys.argv[1]

    class Hook:
        def find_spec(self, name, path, target=None):
            if name == "numpy.ma":
                with open(os.path.join(marks, str(os.getpid())), "w") as f:
                    f.write("".join(traceback.format_stack()))
            return None

    from repro.core import InfomapConfig
    from repro.core.distributed import distributed_infomap, external_infomap
    from repro.graph.extcsr import graph_to_store
    from repro.graph.generators import barabasi_albert, ring_of_cliques

    store = os.path.join(marks, "..", "store")
    graph_to_store(ring_of_cliques(40, 6).graph, store)
    ba = barabasi_albert(400, 3, seed=1)
    assert "numpy.ma" not in sys.modules
    sys.meta_path.insert(0, Hook())
    res = distributed_infomap(ba, 2, InfomapConfig(d_high=20), backend="procs")
    assert res.extras["num_hubs"] > 0
    external_infomap(store, 2, InfomapConfig(), backend="procs")
""")


def test_procs_ranks_do_not_import_numpy_ma(tmp_path):
    """In numpy 2.4 ``np.unique`` without return flags (and so
    ``np.union1d``, and ``np.isin`` on a wide id range) imports
    ``numpy.ma`` on first use, about 10 ms per rank per solve.  Neither
    the driver nor a procs rank of either distributed entry point may
    do so."""
    marks = tmp_path / "marks"
    marks.mkdir()
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MA, str(marks)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    stacks = {f.name: f.read_text() for f in marks.iterdir()}
    assert not stacks, stacks
