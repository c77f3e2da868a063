"""PhaseTimer, LevelRecord/ClusteringResult, engine corner cases."""

import time

import numpy as np
import pytest

from repro.core import (
    ClusteringResult,
    LevelRecord,
    PHASES,
    PhaseTimer,
)
from repro.simmpi import DeadlockError, SerialCommunicator, run_spmd


class TestPhaseTimer:
    def test_accumulates_seconds(self):
        t = PhaseTimer()
        with t.phase("a"):
            time.sleep(0.01)
        with t.phase("a"):
            time.sleep(0.01)
        assert t.seconds["a"] >= 0.02

    def test_no_nesting(self):
        t = PhaseTimer()
        with pytest.raises(RuntimeError):
            with t.phase("a"):
                with t.phase("b"):
                    pass

    def test_reusable_after_exception(self):
        t = PhaseTimer()
        with pytest.raises(ValueError):
            with t.phase("a"):
                raise ValueError("boom")
        with t.phase("b"):  # must not complain about an active phase
            pass
        assert "a" in t.seconds and "b" in t.seconds

    def test_work_counters(self):
        t = PhaseTimer()
        t.add_work("x", 10)
        t.add_work("x", 5)
        assert t.work == {"x": 15}

    def test_tags_communicator_phase(self):
        comm = SerialCommunicator()
        t = PhaseTimer(comm)
        with t.phase("swap"):
            assert comm.stats.phase == "swap"

    def test_restores_previous_phase_on_exit(self):
        # Regression: traffic after a phase block must not stay
        # attributed to the phase that happened to exit last.
        comm = SerialCommunicator()
        t = PhaseTimer(comm)
        comm.set_phase("outer")
        with t.phase("swap"):
            assert comm.stats.phase == "swap"
        assert comm.stats.phase == "outer"
        comm.send(b"x" * 100, 0)  # loopback traffic after the block
        comm.recv()
        assert comm.stats.bytes_by_phase.get("swap", 0) == 0
        assert comm.stats.bytes_by_phase["outer"] > 0

    def test_restores_default_phase_when_none_was_set(self):
        comm = SerialCommunicator()
        t = PhaseTimer(comm)
        assert comm.stats.phase == "default"
        with t.phase("swap"):
            pass
        assert comm.stats.phase == "default"

    def test_restores_phase_after_exception(self):
        comm = SerialCommunicator()
        t = PhaseTimer(comm)
        comm.set_phase("outer")
        with pytest.raises(ValueError):
            with t.phase("swap"):
                raise ValueError("boom")
        assert comm.stats.phase == "outer"

    def test_emits_trace_spans_and_work_counters(self):
        from repro.obs import Tracer

        tracer = Tracer()
        buf = tracer.for_rank(0)
        t = PhaseTimer(trace=buf)
        with t.phase("find_best_module"):
            pass
        t.add_work("find_best_module", 12)
        t.add_work("find_best_module", 3)
        events = tracer.merged_events()
        spans = [e for e in events if e["kind"] == "span"]
        assert [s["name"] for s in spans] == ["find_best_module"]
        counters = [e for e in events if e["kind"] == "counter"]
        assert [c["value"] for c in counters] == [12, 15]
        assert counters[-1]["name"] == "work/find_best_module"

    def test_snapshot_is_copy(self):
        t = PhaseTimer()
        t.add_work("x", 1)
        snap = t.snapshot()
        t.add_work("x", 1)
        assert snap["work"]["x"] == 1

    def test_canonical_phases_exported(self):
        assert len(PHASES) == 4
        assert "find_best_module" in PHASES


class TestLevelRecord:
    def test_merge_rate(self):
        rec = LevelRecord(0, 100, 25, 5.0, 4.0, 3, 80)
        assert rec.merge_rate == pytest.approx(0.75)
        assert rec.improvement == pytest.approx(1.0)

    def test_merge_rate_empty(self):
        rec = LevelRecord(0, 0, 0, 0.0, 0.0, 0, 0)
        assert rec.merge_rate == 0.0


class TestClusteringResult:
    @pytest.fixture
    def result(self):
        return ClusteringResult(
            membership=np.array([0, 0, 1, 1, 2]),
            codelength=3.5,
            levels=[
                LevelRecord(0, 5, 3, 5.0, 4.0, 2, 4),
                LevelRecord(1, 3, 3, 4.0, 3.5, 1, 0),
            ],
            method="test",
            converged=True,
        )

    def test_counts(self, result):
        assert result.num_modules == 3
        assert result.num_vertices == 5

    def test_module_sizes_descending(self, result):
        np.testing.assert_array_equal(result.module_sizes(), [2, 2, 1])

    def test_trajectories(self, result):
        assert result.codelength_trajectory() == [4.0, 3.5]
        assert result.merge_rates() == [pytest.approx(0.4), 0.0]

    def test_summary_text(self, result):
        s = result.summary()
        assert "test:" in s and "3 modules" in s and "converged" in s


class TestEngineCorners:
    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            run_spmd(lambda c: None, 0)

    def test_fn_kwargs_forwarded(self):
        def prog(comm, a, b=0):
            return a + b + comm.rank

        res = run_spmd(prog, 3, fn_args=(10,), fn_kwargs={"b": 5})
        assert res.results == [15, 16, 17]

    def test_collective_barrier_timeout_is_deadlock(self):
        def prog(comm):
            if comm.rank == 0:
                return None  # never joins the barrier
            comm.barrier()

        with pytest.raises(DeadlockError):
            run_spmd(prog, 2, op_timeout=0.3, timeout=5.0)

    def test_spmd_result_accessors(self):
        res = run_spmd(lambda c: c.rank * 2, 3)
        assert res.nranks == 3
        assert res.result(2) == 4
