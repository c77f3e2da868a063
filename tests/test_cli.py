"""Command-line interface: every subcommand end-to-end."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph import ring_of_cliques, write_edgelist


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cluster_requires_graph_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster"])

    def test_dataset_and_input_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "--dataset", "dblp", "--input", "x.txt"]
            )

    def test_bench_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--experiment", "fig99"])


class TestCluster:
    def test_sequential_on_dataset(self, capsys):
        rc = main(["cluster", "--dataset", "dblp", "--scale", "0.3",
                   "--method", "sequential"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sequential:" in out
        assert "NMI vs ground truth" in out  # dblp has labels

    def test_distributed_writes_partition(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edgelist(ring_of_cliques(4, 5).graph, path)
        out_path = tmp_path / "part.tsv"
        rc = main([
            "cluster", "--input", str(path), "--method", "distributed",
            "--ranks", "2", "-o", str(out_path),
        ])
        assert rc == 0
        rows = [line.split("\t") for line in
                out_path.read_text().strip().split("\n")]
        assert len(rows) == 20
        labels = np.array([int(r[1]) for r in rows])
        assert np.unique(labels).size == 4  # cliques recovered

    @pytest.mark.parametrize("method", ["gossipmap"])
    def test_baseline_methods(self, method, capsys):
        rc = main(["cluster", "--dataset", "amazon", "--scale", "0.3",
                   "--method", method, "--ranks", "2"])
        assert rc == 0
        assert method in capsys.readouterr().out


class TestTraceAndInspect:
    def test_cluster_trace_then_inspect(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "run.json"
        rc = main([
            "cluster", "--dataset", "dblp", "--scale", "0.05",
            "--method", "distributed", "--ranks", "2",
            "--trace", str(trace_path),
        ])
        assert rc == 0
        assert "run trace written" in capsys.readouterr().out

        perfetto = tmp_path / "run.perfetto.json"
        rc = main([
            "inspect", str(trace_path),
            "--perfetto", str(perfetto), "--top", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slowest rank per span" in out
        assert "convergence by (level, round)" in out
        assert "exact_rescores" in out and "bulk_commits" in out
        assert "communication by phase" in out
        assert "Perfetto trace written" in out
        trace = json.loads(perfetto.read_text())
        tids = {
            e["tid"] for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert tids == {0, 1}  # one track per rank

    def test_update_trace_then_inspect_deltas(self, tmp_path, capsys):
        from repro.obs import delta_rows, load_run_artifact

        path = tmp_path / "g.txt"
        write_edgelist(ring_of_cliques(6, 5).graph, path)
        part = tmp_path / "part.tsv"
        assert main(["cluster", "--input", str(path), "-o",
                     str(part)]) == 0
        delta = tmp_path / "d.delta"
        delta.write_text("+ 0 10\n")
        trace_path = tmp_path / "update.json"
        rc = main(["update", "--input", str(path), "--partition", str(part),
                   "--delta", str(delta), "--method", "distributed",
                   "--ranks", "2", "--trace", str(trace_path)])
        assert rc == 0
        rows = delta_rows(load_run_artifact(trace_path)["events"])
        assert [(r["batch"], r["launched"]) for r in rows] == [(1, True)]
        capsys.readouterr()
        assert main(["inspect", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "incremental delta batches" in out
        assert "launched" in out

    def test_trace_on_sequential(self, tmp_path, capsys):
        trace_path = tmp_path / "seq.json"
        rc = main([
            "cluster", "--dataset", "dblp", "--scale", "0.05",
            "--method", "sequential", "--trace", str(trace_path),
        ])
        assert rc == 0
        assert trace_path.exists()

    def test_trace_on_gossipmap(self, tmp_path, capsys):
        from repro.obs import load_run_artifact, to_chrome_trace

        trace_path = tmp_path / "gossip.json"
        rc = main([
            "cluster", "--dataset", "dblp", "--scale", "0.05",
            "--method", "gossipmap", "--ranks", "2",
            "--trace", str(trace_path),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "run trace written" in captured.out
        assert "not supported" not in captured.err
        artifact = load_run_artifact(trace_path)
        assert artifact["manifest"]["method"] == "gossipmap"
        assert artifact["manifest"]["nranks"] == 2
        assert {e["rank"] for e in artifact["events"]} == {0, 1}
        tids = {
            e["tid"] for e in to_chrome_trace(artifact)["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert tids == {0, 1}  # one track per rank

    def test_inspect_rejects_non_artifact(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ValueError, match="not a run-trace artifact"):
            main(["inspect", str(bad)])

    def test_log_level_flag(self, tmp_path, capsys):
        rc = main([
            "--log-level", "WARNING",
            "cluster", "--dataset", "dblp", "--scale", "0.05",
            "--method", "sequential",
        ])
        assert rc == 0
        import logging

        logger = logging.getLogger("repro")
        assert logger.level == logging.WARNING
        assert any(
            getattr(h, "_repro_rank_handler", False) for h in logger.handlers
        )


class TestPartition:
    def test_partition_report(self, capsys):
        rc = main(["partition", "--dataset", "uk2005", "--scale", "0.2",
                   "--ranks", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "delegate workload" in out
        assert "ghost max improvement" in out

    def test_custom_d_high(self, capsys):
        rc = main(["partition", "--dataset", "uk2005", "--scale", "0.2",
                   "--ranks", "8", "--d-high", "50"])
        assert rc == 0
        assert "d_high=50" in capsys.readouterr().out


class TestBenchAndDatasets:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "uk2007" in out and "3.78B" in out

    def test_bench_table1(self, capsys):
        rc = main(["bench", "--experiment", "table1", "--scale", "0.25"])
        assert rc == 0
        assert "Table 1" in capsys.readouterr().out

    def test_bench_fig6_with_ranks(self, capsys):
        rc = main(["bench", "--experiment", "fig6", "--ranks", "8",
                   "--scale", "0.2"])
        assert rc == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_bench_fig7(self, capsys):
        rc = main(["bench", "--experiment", "fig7", "--ranks", "8",
                   "--scale", "0.2"])
        assert rc == 0
        assert "Figure 7" in capsys.readouterr().out


class TestLiveStatus:
    def test_cluster_live_prints_run_id_then_reaps(self, capsys):
        from repro.obs.live import live_run_dir

        rc = main(["cluster", "--dataset", "dblp", "--scale", "0.05",
                   "--method", "sequential", "--live"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "live run id:" in out
        rid = out.split("live run id:")[1].split()[0]
        # The id line precedes the solve output (printed early so a
        # second shell can attach mid-run).
        assert out.index("live run id:") < out.index("sequential:")
        assert not live_run_dir(rid).exists()  # teardown unlinked

    def test_live_distributed_procs_reaps(self, capsys):
        from repro.obs.live import live_run_dir

        rc = main(["cluster", "--dataset", "dblp", "--scale", "0.05",
                   "--method", "distributed", "--ranks", "2",
                   "--backend", "procs", "--live"])
        assert rc == 0
        out = capsys.readouterr().out
        rid = out.split("live run id:")[1].split()[0]
        assert not live_run_dir(rid).exists()

    def test_live_on_gossipmap(self, capsys):
        from repro.obs.live import live_run_dir

        rc = main(["cluster", "--dataset", "dblp", "--scale", "0.05",
                   "--method", "gossipmap", "--ranks", "2", "--live"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "not supported" not in captured.err
        out = captured.out
        rid = out.split("live run id:")[1].split()[0]
        assert out.index("live run id:") < out.index("gossipmap:")
        assert not live_run_dir(rid).exists()  # teardown unlinked

    def test_status_lists_renders_and_prom(self, capsys):
        from repro.obs.live import LivePlane

        plane = LivePlane(2, shared=True, run_id="cli-test-run")
        try:
            plane.publish(command="cluster")
            plane.for_rank(0).update(round=3, moves=10)

            assert main(["status"]) == 0
            assert "cli-test-run" in capsys.readouterr().out

            assert main(["status", "cli-test-run"]) == 0
            out = capsys.readouterr().out
            assert "run cli-test-run" in out and "nranks=2" in out

            assert main(["status", "--latest"]) == 0
            assert "cli-test-run" in capsys.readouterr().out

            assert main(["status", "--prom", "cli-test-run"]) == 0
            prom = capsys.readouterr().out
            assert "# TYPE repro_live_moves counter" in prom
            assert 'run_id="cli-test-run"' in prom
        finally:
            plane.close(unlink=True)

    def test_status_unknown_run(self, capsys):
        rc = main(["status", "no-such-run-zzz"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_status_gc(self, capsys):
        assert main(["status", "--gc"]) == 0
        assert "live runs" in capsys.readouterr().out

    def test_watch_exits_on_terminal_status(self, capsys):
        from repro.obs.live import STATUS_DONE, LivePlane

        plane = LivePlane(1, shared=True, run_id="cli-watch-run")
        try:
            plane.publish()
            plane.mark_status(0, STATUS_DONE)
            rc = main(["watch", "cli-watch-run", "--interval", "0.1"])
            assert rc == 0
            assert "terminal status" in capsys.readouterr().out
        finally:
            plane.close(unlink=True)

    def test_watch_exits_first_snapshot_multirank_mixed_terminal(
        self, capsys
    ):
        # Regression: a fully-terminal multi-rank plane (mixed DONE and
        # FAILED) must end the watch on the *first* snapshot — it must
        # not sleep out even one --interval period, however large.
        import time

        from repro.obs.live import STATUS_DONE, STATUS_FAILED, LivePlane

        plane = LivePlane(3, shared=True, run_id="cli-watch-mixed")
        try:
            plane.publish()
            plane.mark_status(0, STATUS_DONE)
            plane.mark_status(1, STATUS_FAILED)
            plane.mark_status(2, STATUS_DONE)
            t0 = time.monotonic()
            rc = main(["watch", "cli-watch-mixed", "--interval", "60"])
            elapsed = time.monotonic() - t0
            assert rc == 0
            assert "terminal status" in capsys.readouterr().out
            assert elapsed < 30.0, "watch slept an interval before exiting"
        finally:
            plane.close(unlink=True)

    def test_watch_keeps_running_while_any_rank_live(self, capsys):
        # The converse guard: one still-RUNNING rank among terminal
        # peers keeps the watch alive past its first snapshot.
        import threading
        import time

        from repro.obs.live import STATUS_DONE, LivePlane

        plane = LivePlane(2, shared=True, run_id="cli-watch-live")
        try:
            plane.publish()
            plane.mark_status(0, STATUS_DONE)  # rank 1 still running

            def finish():
                time.sleep(0.3)
                plane.mark_status(1, STATUS_DONE)

            t = threading.Thread(target=finish)
            t.start()
            t0 = time.monotonic()
            rc = main(["watch", "cli-watch-live", "--interval", "0.05"])
            elapsed = time.monotonic() - t0
            t.join()
            assert rc == 0
            assert "terminal status" in capsys.readouterr().out
            assert elapsed >= 0.25, "watch exited before the run finished"
        finally:
            plane.close(unlink=True)

    def test_update_live_flag(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edgelist(ring_of_cliques(4, 5).graph, path)
        part = tmp_path / "part.tsv"
        assert main(["cluster", "--input", str(path), "-o",
                     str(part)]) == 0
        delta = tmp_path / "d.delta"
        delta.write_text("+ 0 10\n")
        capsys.readouterr()
        rc = main(["update", "--input", str(path), "--partition",
                   str(part), "--delta", str(delta), "--live"])
        assert rc == 0
        assert "live run id:" in capsys.readouterr().out

    def test_update_reports_split_modules(self, tmp_path, capsys):
        # Deleting every edge between {0,1} and {2,3,4} cuts clique 0.
        path = tmp_path / "g.txt"
        write_edgelist(ring_of_cliques(4, 5).graph, path)
        part = tmp_path / "part.tsv"
        assert main(["cluster", "--input", str(path), "-o",
                     str(part)]) == 0
        delta = tmp_path / "d.delta"
        delta.write_text(
            "".join(f"- {u} {v}\n" for u in (0, 1) for v in (2, 3, 4))
        )
        capsys.readouterr()
        rc = main(["update", "--input", str(path), "--partition",
                   str(part), "--delta", str(delta)])
        assert rc == 0
        assert "1 cut modules split" in capsys.readouterr().out
