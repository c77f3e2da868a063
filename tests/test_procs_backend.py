"""Process backend: correctness, equivalence with threads, failure paths.

The contract under test is the tentpole invariant: ``backend="procs"``
is observationally identical to ``backend="threads"`` — same results,
same logical ledger totals per phase, same error taxonomy — with the
transport (shared-memory rings + rank-0 relay collectives) as the only
difference.
"""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.core import InfomapConfig, distributed_infomap
from repro.graph import barabasi_albert
from repro.obs.trace import Tracer
from repro.simmpi import (
    AbortError,
    CollectiveMismatchError,
    DeadlockError,
    ProcCommunicator,
    run_spmd,
    run_spmd_procs,
)
from repro.simmpi import procs as procs_mod
from repro.simmpi.shm import ShmControl, ShmRing, spill_in, spill_out

NRANKS = 4


def _no_leaked_children():
    return [p for p in mp.active_children() if p.name.startswith("simmpi-")]


# ---------------------------------------------------------------------------
# shm primitives
# ---------------------------------------------------------------------------

class TestShmRing:
    def test_put_get_roundtrip(self):
        ctx = mp.get_context()
        ring = ShmRing(64 * 1024, ctx=ctx)
        try:
            assert ring.put(2, 7, [b"hello ", b"world"], 11)
            assert ring.get(timeout=1.0) == (2, 7, b"hello world")
            assert ring.try_get() is None
        finally:
            ring.close(unlink=True)

    def test_wraparound(self):
        ctx = mp.get_context()
        ring = ShmRing(16 * 1024, ctx=ctx)
        try:
            # Push/pop enough traffic that records wrap the data area
            # several times; contents must survive the seam.
            for i in range(100):
                payload = bytes([i % 256]) * (300 + i)
                assert ring.put(0, i, [payload], len(payload))
                src, tag, data = ring.get(timeout=1.0)
                assert (src, tag, data) == (0, i, payload)
        finally:
            ring.close(unlink=True)

    def test_inline_reserve_forces_spill_return(self):
        ctx = mp.get_context()
        ring = ShmRing(16 * 1024, ctx=ctx)
        try:
            # An inline record must leave the 4 KiB descriptor reserve
            # free: a payload that fits raw but not raw+reserve is
            # refused (False = "spill instead"), not accepted.
            big = b"x" * (16 * 1024 - 100)
            assert not ring.put(0, 0, [big], len(big), wait=0.01)
            descriptor = spill_out([big], len(big))
            assert ring.put(0, 0, [descriptor], len(descriptor),
                            flags=1, wait=0.5)
            assert ring.get(timeout=1.0) == (0, 0, big)
        finally:
            ring.close(unlink=True)

    def test_spill_roundtrip_unlinks_segment(self):
        descriptor = spill_out([b"abc", b"def"], 6)
        assert spill_in(descriptor) == b"abcdef"
        with pytest.raises(FileNotFoundError):
            spill_in(descriptor)  # one-shot: segment is gone

    def test_get_timeout_returns_none(self):
        ctx = mp.get_context()
        ring = ShmRing(16 * 1024, ctx=ctx)
        try:
            assert ring.get(timeout=0.05) is None
        finally:
            ring.close(unlink=True)

    def test_spin_phase_catches_prompt_record(self):
        # A record posted by another thread while the consumer is in
        # its spin phase is picked up without waiting out a poll slice.
        import threading

        ctx = mp.get_context()
        ring = ShmRing(16 * 1024, ctx=ctx)
        try:
            t = threading.Timer(
                0.005, lambda: ring.put(1, 2, [b"hot"], 3)
            )
            t.start()
            assert ring.get(timeout=5.0) == (1, 2, b"hot")
            t.join()
        finally:
            ring.close(unlink=True)

    @pytest.mark.parametrize("spin", [0, 100000])
    def test_abort_noticed_during_empty_get(self, monkeypatch, spin):
        # Abort-responsiveness regression: poll() must run in both the
        # spin phase and the sliced-wait phase, so an abort raised
        # while a rank is parked on an empty ring surfaces promptly —
        # with spinning disabled and with a spin budget big enough to
        # cover the whole window.
        import threading
        import time as _time

        from repro.simmpi import shm

        monkeypatch.setattr(shm, "_SPIN", spin)
        ctx = mp.get_context()
        ring = ShmRing(16 * 1024, ctx=ctx)
        flag = {"aborted": False}

        def poll():
            if flag["aborted"]:
                raise RuntimeError("abort noticed")

        try:
            t = threading.Timer(
                0.05, lambda: flag.update(aborted=True)
            )
            t.start()
            t0 = _time.monotonic()
            with pytest.raises(RuntimeError, match="abort noticed"):
                ring.get(timeout=30.0, poll=poll)
            elapsed = _time.monotonic() - t0
            t.join()
            # Noticed within a couple of poll slices, not the timeout.
            assert elapsed < 5.0
        finally:
            ring.close(unlink=True)


class TestShmControl:
    def test_first_writer_wins(self):
        ctx = mp.get_context()
        ctrl = ShmControl(ctx)
        try:
            assert not ctrl.aborted
            ctrl.abort(3)
            ctrl.abort(1)
            assert ctrl.aborted and ctrl.failed_rank == 3
        finally:
            ctrl.close(unlink=True)


# ---------------------------------------------------------------------------
# collectives + p2p on the procs backend
# ---------------------------------------------------------------------------

def _mixed_program(comm):
    comm.set_phase("reduce")
    total = comm.allreduce(comm.rank + 1)
    arr = comm.bcast(
        np.arange(8, dtype=np.int64) if comm.rank == 0 else None
    )
    comm.set_phase("swap")
    msgs = {
        d: np.full(4, comm.rank * 10 + d, dtype=np.int64)
        for d in range(comm.size)
        if d != comm.rank and (comm.rank + d) % 2 == 0
    }
    got = comm.exchange(msgs)
    comm.barrier()
    gathered = comm.gather((comm.rank, int(arr.sum())), root=0)
    scattered = comm.scatter(
        [f"s{i}" for i in range(comm.size)] if comm.rank == 1 else None,
        root=1,
    )
    return {
        "total": total,
        "got": {s: v.tolist() for s, v in got.items()},
        "gathered": gathered,
        "scattered": scattered,
    }


def test_procs_matches_threads_results_and_ledger():
    res_t = run_spmd(_mixed_program, NRANKS, backend="threads")
    res_p = run_spmd(_mixed_program, NRANKS, backend="procs")
    assert res_t.results == res_p.results
    for st, sp in zip(res_t.ledger.snapshot(), res_p.ledger.snapshot()):
        # Every counter matches — not just the logical per-phase totals
        # the acceptance invariant demands, but physical bytes and
        # message counts too, because the codec and metering code are
        # shared.  Only the codec wall-clock timings are run-dependent.
        drop = ("encode_seconds_by_phase", "decode_seconds_by_phase")
        assert ({k: v for k, v in st.items() if k not in drop}
                == {k: v for k, v in sp.items() if k not in drop})


def test_procs_p2p_ordering_and_wildcards():
    def prog(comm):
        if comm.rank == 0:
            for i in range(5):
                comm.send(("m", i), 1, tag=i % 2)
            return None
        if comm.rank == 1:
            seen = []
            for _ in range(5):
                obj, src, tag = comm.recv_status()
                assert src == 0
                seen.append((obj[1], tag))
            return seen
        return None

    res = run_spmd(prog, 2, backend="procs")
    # Wildcard receive drains in arrival order across tag keys.
    assert [i for i, _t in res.results[1]] == [0, 1, 2, 3, 4]


def test_procs_spill_path_in_job():
    def prog(comm):
        payload = np.arange(200_000, dtype=np.int64)  # ~1.6 MB
        if comm.rank == 0:
            comm.send(payload, 1)
            return 0
        got = comm.recv(0)
        np.testing.assert_array_equal(got, payload)
        return int(got[-1])

    res = run_spmd_procs(prog, 2, segment_bytes=32 * 1024)
    assert res.results[1] == 199_999
    assert res.ledger.for_rank(0).p2p_bytes_sent > 1_500_000


def test_procs_isend_irecv():
    def prog(comm):
        peer = 1 - comm.rank
        req_r = comm.irecv(source=peer)
        comm.isend(comm.rank * 11, peer)
        return req_r.wait()

    res = run_spmd(prog, 2, backend="procs")
    assert res.results == [11, 0]


# ---------------------------------------------------------------------------
# engine dispatch
# ---------------------------------------------------------------------------

def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="backend"):
        run_spmd(lambda c: c.rank, 2, backend="quantum")


def test_serial_backend_rejects_multirank():
    with pytest.raises(ValueError, match="serial"):
        run_spmd(lambda c: c.rank, 2, backend="serial")


@pytest.mark.parametrize("backend", ["threads", "procs", "serial"])
def test_single_rank_short_circuits(backend):
    # nranks == 1 never launches threads or processes regardless of
    # backend — the serial communicator runs on the calling thread.
    res = run_spmd(lambda c: os.getpid(), 1, backend=backend)
    assert res.results == [os.getpid()]


# ---------------------------------------------------------------------------
# failure paths (both backends)
# ---------------------------------------------------------------------------

def _raises_after_work(comm):
    comm.set_phase("warmup")
    comm.allreduce(comm.rank)
    comm.barrier()
    if comm.rank == 1:
        raise ValueError("deliberate failure on rank 1")
    comm.barrier()
    return comm.rank


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_rank_exception_reraised_with_ledger(backend):
    with pytest.raises(ValueError, match="deliberate failure") as ei:
        run_spmd(_raises_after_work, 3, backend=backend)
    # Completed-phase meters survive the failure on both backends.
    ledger = ei.value.spmd_ledger
    for r in range(3):
        st = ledger.for_rank(r).snapshot()
        assert st["collective_calls"] >= 1
        assert "warmup" in st["messages_by_phase"]
    if backend == "procs":
        # The child's traceback text rides along as the cause.
        assert "deliberate failure on rank 1" in str(ei.value.__cause__)
    assert not _no_leaked_children()


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_watchdog_timeout_raises_deadlock(backend):
    def hang(comm):
        if comm.rank == 0:
            comm.recv(1)  # rank 1 never sends
        return comm.rank

    with pytest.raises(DeadlockError) as ei:
        run_spmd(hang, 2, backend=backend, timeout=4.0, op_timeout=2.0)
    assert hasattr(ei.value, "spmd_ledger")
    assert not _no_leaked_children()


def test_procs_collective_mismatch_detected():
    def prog(comm):
        if comm.rank == 0:
            comm.allreduce(1)
        else:
            comm.barrier()
        return comm.rank

    with pytest.raises((CollectiveMismatchError, AbortError)):
        run_spmd(prog, 2, backend="procs", timeout=20.0, op_timeout=5.0)
    assert not _no_leaked_children()


def test_procs_hard_death_reported():
    def die(comm):
        comm.barrier()
        if comm.rank == 1:
            os._exit(17)  # below Python: no AbortError, no report
        return comm.rank

    with pytest.raises(Exception) as ei:
        run_spmd(die, 2, backend="procs", timeout=15.0, op_timeout=3.0)
    # Either the parent notices the missing report (RuntimeError) or a
    # surviving rank times out first (DeadlockError) — both carry the
    # partial ledger; silent hangs and bogus "success" are the bugs.
    assert isinstance(ei.value, (RuntimeError, DeadlockError))
    assert hasattr(ei.value, "spmd_ledger")
    assert not _no_leaked_children()


# ---------------------------------------------------------------------------
# setup-failure teardown (regression: partial launches must unwind)
# ---------------------------------------------------------------------------

class _ExplodingTracer(Tracer):
    """Tracer whose buffer creation fails for rank >= 1, mid-setup."""

    def for_rank(self, rank):
        if rank >= 1:
            raise RuntimeError("tracer attach exploded")
        return super().for_rank(rank)


def test_threads_setup_failure_tears_down():
    import threading

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="tracer attach exploded"):
        run_spmd(lambda c: c.allreduce(1), 3, backend="threads",
                 tracer=_ExplodingTracer())
    # Bounded unwind: no rank thread left alive.
    assert threading.active_count() == before
    # The engine is reusable afterwards.
    assert run_spmd(lambda c: c.allreduce(1), 3).results == [3, 3, 3]


def test_procs_setup_failure_tears_down(monkeypatch):
    started = []
    real_start = procs_mod._start_process

    def flaky_start(proc):
        if len(started) >= 1:
            raise OSError("no more processes")
        started.append(proc)
        real_start(proc)

    monkeypatch.setattr(procs_mod, "_start_process", flaky_start)
    with pytest.raises(OSError, match="no more processes"):
        run_spmd(lambda c: c.allreduce(1), 3, backend="procs")
    monkeypatch.setattr(procs_mod, "_start_process", real_start)
    # The already-launched rank was reaped, segments unlinked, and the
    # backend still works.
    assert not _no_leaked_children()
    res = run_spmd(lambda c: c.allreduce(1), 3, backend="procs")
    assert res.results == [3, 3, 3]


def test_procs_unpicklable_result_degrades_gracefully():
    def prog(comm):
        comm.barrier()
        if comm.rank == 0:
            return lambda: None  # cannot cross the result queue
        return comm.rank

    with pytest.raises(RuntimeError, match="unpicklable"):
        run_spmd(prog, 2, backend="procs")
    assert not _no_leaked_children()


# ---------------------------------------------------------------------------
# tracing on the procs backend
# ---------------------------------------------------------------------------

def test_procs_trace_merges_rank_major():
    def prog(comm):
        comm.set_phase("ph")
        comm.trace.instant("tick", args={"r": comm.rank})
        comm.allreduce(comm.rank)
        return comm.rank

    tracer_t, tracer_p = Tracer(), Tracer()
    run_spmd(prog, 3, backend="threads", tracer=tracer_t)
    res = run_spmd(prog, 3, backend="procs", tracer=tracer_p)
    assert res.trace is tracer_p

    def shape(tr):
        return [
            (e["rank"], e["kind"], e["name"], e.get("phase"),
             e.get("delta"), e.get("args"))
            for e in tr.merged_events()
        ]

    # Same events, same rank-major order; only timestamps differ.
    assert shape(tracer_t) == shape(tracer_p)

    # Meter events reconcile with the merged ledger, as on threads.
    for r in range(3):
        deltas = sum(
            e["delta"] for e in tracer_p.for_rank(r).events
            if e.get("cat") == "comm" and e["name"] == "collective_bytes_in"
        )
        assert deltas == res.ledger.for_rank(r).collective_bytes_in


def test_adopt_rank_events_accumulates():
    from repro.obs.trace import RankTraceBuffer

    tracer = Tracer()
    child = RankTraceBuffer(2, tracer.epoch)
    child.meter("x", 10.0)
    tracer.adopt_rank_events(2, child.events, child._cum)
    buf = tracer.for_rank(2)
    assert len(buf.events) == 1
    buf.meter("x", 5.0)  # cumulative total continues from the child's
    assert buf.events[-1]["value"] == 15.0


# ---------------------------------------------------------------------------
# end-to-end: distributed Infomap equivalence on a scale-free graph
# ---------------------------------------------------------------------------

def test_distributed_infomap_backend_equivalence():
    graph = barabasi_albert(150, 3, seed=7)
    cfg = InfomapConfig(seed=3)
    res_t = distributed_infomap(graph, NRANKS, cfg, backend="threads")
    res_p = distributed_infomap(graph, NRANKS, cfg, backend="procs")
    np.testing.assert_array_equal(res_t.membership, res_p.membership)
    assert res_t.codelength == res_p.codelength
    assert (res_t.extras["codelength_history"]
            == res_p.extras["codelength_history"])
    for st, sp in zip(res_t.extras["comm_snapshot"],
                      res_p.extras["comm_snapshot"]):
        assert st["logical_bytes_by_phase"] == sp["logical_bytes_by_phase"]
        assert st["messages_by_phase"] == sp["messages_by_phase"]


def test_config_backend_field():
    cfg = InfomapConfig(backend="procs")
    assert cfg.backend == "procs"
    with pytest.raises(ValueError, match="backend"):
        InfomapConfig(backend="bogus")


def test_cli_parse_ranks_auto():
    from repro.cli import parse_ranks

    assert parse_ranks("3") == 3
    assert parse_ranks("auto") == (os.cpu_count() or 1)
    with pytest.raises(Exception):
        parse_ranks("zero")
    with pytest.raises(Exception):
        parse_ranks("0")


def test_proc_communicator_repr_and_identity():
    def prog(comm):
        assert isinstance(comm, ProcCommunicator)
        assert "ProcCommunicator" in repr(comm)
        return (comm.rank, comm.size, os.getpid())

    res = run_spmd(prog, 2, backend="procs")
    ranks = [r for r, _s, _p in res.results]
    pids = {p for _r, _s, p in res.results}
    assert ranks == [0, 1]
    assert len(pids) == 2 and os.getpid() not in pids


# ---------------------------------------------------------------------------
# live plane hygiene (segment lifecycle across exit paths)
# ---------------------------------------------------------------------------

def _segment_exists(name: str) -> bool:
    from repro.obs.live import _attach_segment

    try:
        seg = _attach_segment(name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


@pytest.mark.parametrize("exit_path", ["normal", "error", "hard_death"])
def test_live_plane_teardown_unlinks_segment(exit_path):
    """No leaked shm segments or sidecars on any exit path — including
    a child killed below Python (os._exit), which the parent reaps and
    stamps as failed on the plane before teardown."""
    from repro.obs.live import (
        STATUS_FAILED, LivePlane, LiveSnapshot, live_run_dir,
    )

    plane = LivePlane(2, shared=True)
    rid = plane.publish(command="leak-test")
    name = plane.segment_name

    def prog(comm):
        comm.live.update(round=1)
        comm.barrier()
        if exit_path == "error" and comm.rank == 1:
            raise ValueError("deliberate failure on rank 1")
        if exit_path == "hard_death" and comm.rank == 1:
            os._exit(21)
        return comm.rank

    try:
        if exit_path == "normal":
            run_spmd(prog, 2, backend="procs", live=plane)
        else:
            with pytest.raises(Exception):
                run_spmd(prog, 2, backend="procs", live=plane,
                         timeout=20.0, op_timeout=3.0)
        # The plane outlives the job until its owner closes it: a
        # status probe still attaches and sees the terminal stamps.
        snap = LiveSnapshot.attach(rid)
        assert snap.nranks == 2
        if exit_path == "hard_death":
            assert snap.rank(1)["status"] == STATUS_FAILED
    finally:
        plane.close(unlink=True)
    assert not _segment_exists(name)
    assert not live_run_dir(rid).exists()
    assert not _no_leaked_children()
