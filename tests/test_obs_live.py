"""Live telemetry plane: seqlock coherence, reconciliation, watchdog.

The contracts under test:

* **coherence** — a reader attached to a row being hammered by a
  writer never observes a torn (half-written) field combination.
* **reconciliation** — the last live snapshot's byte/message counters
  equal the final CommLedger totals *exactly*, on threads and procs.
* **equivalence** — live-on runs are bitwise-identical to live-off.
* **watchdog** — a deadlocked job's error names the stalled rank with
  its phase/round/heartbeat age instead of a bare global timeout.
* **hygiene** — teardown unlinks segments and sidecars on the normal,
  error, and hard-death exit paths; ``gc_stale_runs`` reaps runs whose
  owner pid is gone.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core import InfomapConfig, distributed_infomap, sequential_infomap
from repro.core.incremental import IncrementalSession
from repro.graph import barabasi_albert, ring_of_cliques
from repro.graph.delta import GraphDelta
from repro.obs.live import (
    LIVE_FIELDS,
    NULL_LIVE,
    PHASE_IDS,
    SLOTS_PER_RANK,
    STATUS_DONE,
    STATUS_FAILED,
    LivePlane,
    LiveSnapshot,
    gc_stale_runs,
    list_live_runs,
    live_run_dir,
)
from repro.simmpi import DeadlockError, run_spmd

NRANKS = 4


# ---------------------------------------------------------------------------
# plane / row API
# ---------------------------------------------------------------------------

class TestPlaneApi:
    def test_row_update_add_value(self):
        plane = LivePlane(2)
        row = plane.for_rank(1)
        row.update(level=2, round=5, codelength=3.25)
        row.add("moves", 7)
        row.add_many(bytes_sent=100, messages_sent=1)
        row.add_many(bytes_sent=50, messages_sent=1)
        assert row.value("level") == 2
        assert row.value("round") == 5
        assert row.value("codelength") == 3.25
        assert row.value("moves") == 7
        assert row.value("bytes_sent") == 150
        assert row.value("messages_sent") == 2
        # Rank 0's row is untouched: rows are independent.
        assert plane.for_rank(0).value("moves") == 0

    def test_every_update_stamps_heartbeat(self):
        plane = LivePlane(1)
        row = plane.for_rank(0)
        assert row.value("heartbeat") == 0.0
        row.add("moves", 1)
        t1 = row.value("heartbeat")
        assert t1 == pytest.approx(time.time(), abs=5.0)
        row.beat()
        assert row.value("heartbeat") >= t1

    def test_phase_accepts_names_and_ids(self):
        plane = LivePlane(1)
        row = plane.for_rank(0)
        row.update(phase="ingest")
        assert row.value("phase") == PHASE_IDS["ingest"]
        row.update(phase=2)
        assert row.value("phase") == 2
        row.update(phase="no-such-phase")
        assert row.value("phase") == 0

    def test_every_timing_phase_has_a_live_id(self):
        from repro.core import timing

        names = [getattr(timing, n) for n in timing.__all__
                 if n.startswith("PHASE_")]
        assert len(names) == 6
        assert all(PHASE_IDS.get(name, 0) > 0 for name in names)
        assert set(timing.PHASES) <= set(names)

    def test_for_rank_bounds(self):
        plane = LivePlane(2)
        with pytest.raises(ValueError, match="rank"):
            plane.for_rank(2)
        with pytest.raises(ValueError, match="rank"):
            plane.for_rank(-1)

    def test_null_live_is_inert(self):
        assert not NULL_LIVE.enabled
        NULL_LIVE.update(round=1, phase="other")
        NULL_LIVE.add("moves", 5)
        NULL_LIVE.add_many(bytes_sent=1)
        NULL_LIVE.beat()
        assert NULL_LIVE.value("moves") == 0.0

    def test_private_plane_cannot_publish_or_pickle(self):
        import pickle

        plane = LivePlane(2)
        with pytest.raises(TypeError, match="shared"):
            plane.publish()
        with pytest.raises(TypeError, match="shared"):
            pickle.dumps(plane)

    def test_mark_status_repairs_odd_generation(self):
        plane = LivePlane(1)
        # Simulate a writer that died mid-update: generation left odd.
        plane.array[0, 0] = 7.0
        plane.mark_status(0, STATUS_FAILED)
        snap = LiveSnapshot.from_plane(plane)
        assert snap.rank(0)["status"] == STATUS_FAILED
        assert int(plane.array[0, 0]) % 2 == 0

    def test_row_layout_is_cache_line_padded(self):
        assert SLOTS_PER_RANK * 8 % 64 == 0
        assert len(LIVE_FIELDS) + 1 <= SLOTS_PER_RANK


# ---------------------------------------------------------------------------
# seqlock coherence
# ---------------------------------------------------------------------------

def test_seqlock_reader_never_sees_torn_rows():
    """Hammer one row from a writer thread while snapshotting.

    The writer maintains the invariant ``moves == 2 * round`` inside
    every seqlock generation; a torn read would expose a row where it
    does not hold.
    """
    plane = LivePlane(1)
    stop = threading.Event()

    def writer():
        i = 0
        while not stop.is_set():
            i += 1
            plane.for_rank(0).update(round=i, moves=2 * i)

    t = threading.Thread(target=writer, daemon=True)
    t.start()
    try:
        deadline = time.monotonic() + 0.5
        reads = 0
        while time.monotonic() < deadline:
            snap = LiveSnapshot.from_plane(plane)
            d = snap.rank(0)
            assert d["moves"] == 2 * d["round"], d
            reads += 1
        assert reads > 100  # the reader actually exercised the lock
    finally:
        stop.set()
        t.join(timeout=5.0)


# ---------------------------------------------------------------------------
# live <-> final reconciliation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_live_counters_match_final_ledger(backend):
    graph = barabasi_albert(150, 3, seed=7)
    cfg = InfomapConfig(seed=3, backend=backend)
    plane = LivePlane(NRANKS, shared=(backend == "procs"))
    try:
        res = distributed_infomap(graph, NRANKS, cfg, live=plane)
        snap = LiveSnapshot.from_plane(plane)
        for r, st in enumerate(res.extras["comm_snapshot"]):
            want_bytes = st["p2p_bytes_sent"] + st["collective_bytes_in"]
            want_msgs = st["p2p_messages_sent"] + st["collective_calls"]
            assert snap.field("bytes_sent")[r] == want_bytes
            assert snap.field("messages_sent")[r] == want_msgs
        # Terminal gauges: every rank done, replicated codelength/round.
        assert (snap.field("status") == STATUS_DONE).all()
        history = res.extras["codelength_history"]
        assert (snap.field("codelength")
                == float(history[-1])).all()
        # round is per-level and resets at each coarsening, so the
        # terminal value is the *last* level's round count, >= 1.
        assert (snap.field("round") >= 1).all()
        assert snap.totals()["bytes_sent"] == sum(
            st["p2p_bytes_sent"] + st["collective_bytes_in"]
            for st in res.extras["comm_snapshot"]
        )
    finally:
        plane.close(unlink=True)


def test_live_edges_match_work_counters_sequential():
    graph = ring_of_cliques(8, 6).graph
    cfg = InfomapConfig(seed=1)
    plane = LivePlane(1)
    work: dict = {}
    res = sequential_infomap(graph, cfg, live=plane, work=work)
    row = plane.for_rank(0)
    assert row.value("edges_scanned") == work["edges_scanned"]
    assert row.value("sweeps") == sum(lv.sweeps for lv in res.levels)
    assert row.value("moves") == sum(lv.moves for lv in res.levels)
    assert row.value("codelength") == res.codelength
    assert row.value("level") == res.levels[-1].level


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_live_on_is_bitwise_identical_to_live_off(backend):
    graph = barabasi_albert(120, 3, seed=11)
    cfg = InfomapConfig(seed=5, backend=backend)
    plain = distributed_infomap(graph, NRANKS, cfg)
    plane = LivePlane(NRANKS, shared=(backend == "procs"))
    try:
        lived = distributed_infomap(graph, NRANKS, cfg, live=plane)
    finally:
        plane.close(unlink=True)
    np.testing.assert_array_equal(plain.membership, lived.membership)
    assert plain.codelength == lived.codelength
    assert (plain.extras["codelength_history"]
            == lived.extras["codelength_history"])


def test_incremental_session_batch_gauges():
    lg = ring_of_cliques(8, 6)
    plane = LivePlane(1)
    session = IncrementalSession(
        lg.graph, InfomapConfig(seed=2), live=plane
    )
    session.solve()
    row = plane.for_rank(0)
    assert row.value("batches") == 0
    n = lg.graph.num_vertices
    delta = GraphDelta.build(
        insert=(np.array([0, 1]), np.array([n // 2, n // 2 + 1]),
                np.array([1.0, 1.0]))
    )
    res = session.update(delta)
    assert row.value("batches") == 1
    assert row.value("codelength") == float(res.codelength)


def test_config_live_field_excluded_from_manifest():
    from repro.obs.manifest import build_manifest

    cfg = InfomapConfig(seed=1, live=LivePlane(1))
    man = build_manifest(config=cfg, nranks=1, method="sequential")
    assert "live" not in man["config"]
    assert "tracer" not in man["config"]


# ---------------------------------------------------------------------------
# engine integration + watchdog
# ---------------------------------------------------------------------------

def test_run_spmd_rejects_mismatched_plane():
    with pytest.raises(ValueError, match="live plane"):
        run_spmd(lambda c: c.rank, 2, live=LivePlane(3))


def test_procs_backend_rejects_private_plane():
    with pytest.raises(ValueError, match="shared"):
        run_spmd(lambda c: c.rank, 2, backend="procs", live=LivePlane(2))


@pytest.mark.parametrize("backend", ["serial", "threads", "procs"])
def test_comm_live_reaches_rank_body(backend):
    nranks = 1 if backend == "serial" else 2
    plane = LivePlane(nranks, shared=(backend == "procs"))

    def prog(comm):
        assert comm.live.enabled
        comm.live.update(round=comm.rank + 1)
        comm.live.add("moves", 10 * (comm.rank + 1))
        return comm.rank

    try:
        run_spmd(prog, nranks, backend=backend, live=plane)
        snap = LiveSnapshot.from_plane(plane)
        for r in range(nranks):
            assert snap.rank(r)["round"] == r + 1
            assert snap.rank(r)["moves"] == 10 * (r + 1)
            assert snap.rank(r)["status"] == STATUS_DONE
    finally:
        plane.close(unlink=True)


def test_comm_live_defaults_to_null():
    def prog(comm):
        assert comm.live is NULL_LIVE
        return True

    assert run_spmd(prog, 2).results == [True, True]


def test_op_timeout_error_carries_rank_report():
    plane = LivePlane(2)

    def prog(comm):
        comm.live.update(level=1, round=3)
        if comm.rank == 0:
            comm.recv(1)  # rank 1 never sends
        return comm.rank

    with pytest.raises(DeadlockError) as ei:
        run_spmd(prog, 2, live=plane, timeout=10.0, op_timeout=1.0)
    msg = str(ei.value)
    report = ei.value.rank_report
    assert len(report) == 2
    assert report[0]["status"] == "failed"
    assert report[1]["status"] == "done"
    assert report[0]["round"] == 3
    assert "rank 0: failed" in msg
    assert "round=3" in msg


def test_watchdog_names_stalled_rank():
    """Regression: a rank stuck outside any comm op past the job
    timeout is named 'stalled' with its live phase/round and a real
    heartbeat age — not drowned in a global timeout message."""
    plane = LivePlane(2)

    def prog(comm):
        comm.live.update(level=1, round=9)
        if comm.rank == 1:
            time.sleep(8.0)  # outlives timeout + the unwind grace
        return comm.rank

    with pytest.raises(DeadlockError) as ei:
        run_spmd(prog, 2, live=plane, timeout=0.5, op_timeout=0.5)
    msg = str(ei.value)
    assert "rank 1: stalled" in msg
    entry = ei.value.rank_report[1]
    assert entry["status"] == "stalled"
    assert entry["round"] == 9
    assert entry["heartbeat_age"] is not None
    assert entry["heartbeat_age"] > 0.4  # genuinely stale, not restamped


def test_watchdog_report_without_live_plane_names_phase():
    def prog(comm):
        comm.set_phase("swap_boundary_info")
        if comm.rank == 0:
            comm.recv(1)
        return comm.rank

    with pytest.raises(DeadlockError) as ei:
        run_spmd(prog, 2, timeout=10.0, op_timeout=1.0)
    assert ei.value.rank_report
    assert ei.value.rank_report[0]["phase"] == "swap_boundary_info"
    assert "heartbeat" not in str(ei.value)


# ---------------------------------------------------------------------------
# discovery, snapshots, renderings
# ---------------------------------------------------------------------------

class TestDiscovery:
    def test_publish_attach_roundtrip(self):
        plane = LivePlane(2, shared=True)
        try:
            rid = plane.publish(command="test")
            assert rid == plane.run_id
            meta = json.loads(
                (live_run_dir(rid) / "meta.json").read_text()
            )
            assert meta["segment"] == plane.segment_name
            assert meta["nranks"] == 2
            assert meta["pid"] == os.getpid()
            assert meta["fields"] == list(LIVE_FIELDS)
            assert meta["command"] == "test"

            plane.for_rank(1).update(round=4, codelength=2.5)
            snap = LiveSnapshot.attach(rid)
            assert snap.rank(1)["round"] == 4
            assert snap.rank(1)["codelength"] == 2.5
            assert snap.meta["pid"] == os.getpid()
            assert any(m["run_id"] == rid for m in list_live_runs())
        finally:
            plane.close(unlink=True)
        # Fully reaped: no sidecar, no segment, not listed.
        assert not live_run_dir(rid).exists()
        assert all(m["run_id"] != rid for m in list_live_runs())
        with pytest.raises(FileNotFoundError, match=rid):
            LiveSnapshot.attach(rid)

    def test_attach_latest_picks_newest(self):
        a = LivePlane(1, shared=True, run_id="live-test-older")
        b = LivePlane(1, shared=True, run_id="live-test-newer")
        try:
            a.publish()
            b.publish(started=time.time() + 60.0)
            assert LiveSnapshot.attach_latest().run_id == b.run_id
        finally:
            a.close(unlink=True)
            b.close(unlink=True)

    def test_attach_unknown_run_raises(self):
        with pytest.raises(FileNotFoundError, match="no live run"):
            LiveSnapshot.attach("no-such-run-id")

    def test_gc_reaps_dead_owner_and_keeps_live_one(self):
        alive = LivePlane(1, shared=True, run_id="live-test-alive")
        dead = LivePlane(1, shared=True, run_id="live-test-dead")
        try:
            alive.publish()  # pid = this process -> kept
            dead.publish()
            # Forge a dead owner: pick a pid that cannot be running.
            meta_path = live_run_dir(dead.run_id) / "meta.json"
            meta = json.loads(meta_path.read_text())
            meta["pid"] = 2 ** 22 + 1  # beyond default pid_max
            meta_path.write_text(json.dumps(meta))

            removed = gc_stale_runs()
            assert dead.run_id in removed
            assert alive.run_id not in removed
            assert not live_run_dir(dead.run_id).exists()
            # The dead run's segment is unlinked too.
            with pytest.raises(FileNotFoundError):
                from repro.obs.live import _attach_segment

                _attach_segment(meta["segment"])
        finally:
            alive.close(unlink=True)
            dead.close(unlink=True)

    def test_snapshot_render_and_totals(self):
        plane = LivePlane(2)
        plane.for_rank(0).update(
            phase="find_best_module", level=1, round=2,
            moves=10, codelength=3.5, edges_scanned=100,
        )
        plane.for_rank(1).update(
            phase="find_best_module", level=1, round=2,
            moves=10, codelength=3.5, edges_scanned=300,
        )
        snap = LiveSnapshot.from_plane(plane)
        out = snap.render()
        assert "find_best_module" in out
        assert "moves=10" in out  # replicated counter: max, not sum
        assert "edges=400" in out  # per-rank counter: summed
        assert snap.skew() == pytest.approx(1.5)

        # Throughput column appears only with a prev snapshot.
        prev = LiveSnapshot(snap.run_id, snap.rows.copy(),
                            taken_at=snap.taken_at - 2.0)
        prev.rows[:, :] = 0.0
        with_prev = snap.render(prev)
        assert "edges/s" in with_prev and "edges/s" not in out

    def test_prometheus_exposition(self):
        plane = LivePlane(2, run_id="prom-test")
        plane.for_rank(0).update(moves=5, codelength=2.25)
        prom = LiveSnapshot.from_plane(plane).to_prometheus()
        assert "# TYPE repro_live_moves counter" in prom
        assert "# TYPE repro_live_codelength gauge" in prom
        assert 'repro_live_moves{run_id="prom-test",rank="0"} 5.0' in prom
        assert 'rank="1"' in prom
        assert prom.endswith("\n")
        # Every line is value-parseable (no numpy reprs leaked).
        for line in prom.strip().splitlines():
            if not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])
