"""CSV/JSON export of experiment results."""

import csv
import json

import pytest

from repro.bench import (
    host_info,
    merge_bench_reports,
    result_to_json,
    rows_to_csv,
    table1,
)


def test_rows_to_csv_roundtrip(tmp_path):
    rows = [{"a": 1, "b": 2.5}, {"a": 3, "c": "x"}]
    path = tmp_path / "out.csv"
    rows_to_csv(rows, path)
    back = list(csv.DictReader(open(path)))
    assert back[0]["a"] == "1" and back[0]["b"] == "2.5"
    assert back[1]["c"] == "x" and back[1]["b"] == ""


def test_rows_to_csv_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        rows_to_csv([], tmp_path / "x.csv")


def test_result_to_json_drops_text_and_coerces_numpy(tmp_path):
    out = table1(scale=0.25)
    path = tmp_path / "t1.json"
    result_to_json(out, path)
    data = json.loads(path.read_text())
    assert "text" not in data
    assert len(data["rows"]) == 9
    assert isinstance(data["rows"][0]["standin_V"], int)


def test_host_info_shape():
    info = host_info()
    assert isinstance(info["cpus"], int) and info["cpus"] >= 1
    assert isinstance(info["platform"], str) and info["platform"]
    if info["load_avg"] is not None:
        assert len(info["load_avg"]) == 3
    assert isinstance(info["peak_rss_bytes"], int)
    assert info["peak_rss_bytes"] >= 0


def test_rss_samplers():
    from repro.bench.export import current_rss_bytes, peak_rss_bytes

    cur, peak = current_rss_bytes(), peak_rss_bytes()
    # Linux: both readable and peak >= current (same process lifetime).
    assert cur > 0 and peak >= cur
    # Touching ~32 MiB must move the current-RSS needle.
    import numpy as np

    blob = np.ones(4 << 20, dtype=np.float64)
    assert current_rss_bytes() >= cur + blob.nbytes // 2


def test_result_to_json_stamps_host(tmp_path):
    path = tmp_path / "r.json"
    result_to_json({"rows": [{"x": 1}], "text": "t"}, path)
    data = json.loads(path.read_text())
    assert data["host"]["cpus"] == host_info()["cpus"]
    assert "platform" in data["host"]


def test_result_to_json_keeps_driver_host(tmp_path):
    path = tmp_path / "r.json"
    result_to_json({"rows": [], "host": {"cpus": 99}}, path)
    assert json.loads(path.read_text())["host"] == {"cpus": 99}


def test_merge_bench_reports(tmp_path):
    (tmp_path / "BENCH_sweep.json").write_text(
        json.dumps({"rows": [{"speedup": 4.0}]})
    )
    (tmp_path / "BENCH_swap.json").write_text(
        json.dumps({"rows": [{"speedup": 3.5}]})
    )
    (tmp_path / "BENCH_wire.json").write_text(
        json.dumps({"rows": [{"codec": "frames", "rounds_per_s": 141.9}]})
    )
    (tmp_path / "BENCH_obs.json").write_text(
        json.dumps({"rows": [
            {"variant": "untraced", "seconds": 1.0},
            {"variant": "traced", "seconds": 1.05, "overhead": 1.05},
        ]})
    )
    (tmp_path / "BENCH_procs.json").write_text(
        json.dumps({"rows": [
            {"backend": "threads"},
            {"backend": "procs", "speedup": 1.9},
        ], "cpus": 8, "host": {"cpus": 8, "platform": "Linux-test"}})
    )
    (tmp_path / "BENCH_ingest.json").write_text(
        json.dumps({"rows": [
            {"stage": "build", "edges_per_sec": 2.5e6},
            {"stage": "cluster", "rss_budget_ratio": 0.6},
        ], "host": {"cpus": 8, "peak_rss_bytes": 123456}})
    )
    (tmp_path / "BENCH_incremental.json").write_text(
        json.dumps({"rows": [
            {"batch": 1, "work_speedup": 46.6, "time_speedup": 19.9},
        ], "host": {"cpus": 8, "platform": "Linux-test"}})
    )
    (tmp_path / "BENCH_live.json").write_text(
        json.dumps({"rows": [
            {"variant": "live_off"},
            {"variant": "live_on", "overhead": 1.02},
        ], "identical": True, "host": {"cpus": 8, "load_avg": [0.1] * 3}})
    )
    (tmp_path / "BENCH_overlap.json").write_text(
        json.dumps({"rows": [
            {"variant": "blocking", "wait_seconds": 2.0},
            {"variant": "overlap", "wait_seconds": 0.9,
             "wait_ratio": 0.45, "throughput_ratio": 1.3},
        ], "identical": True, "multi_core": True,
            "host": {"cpus": 8, "load_avg": [0.1] * 3}})
    )
    (tmp_path / "unrelated.json").write_text("{}")
    out = tmp_path / "report.json"
    report = merge_bench_reports(tmp_path, out)
    assert report["count"] == 9
    assert sorted(report["benchmarks"]) == [
        "incremental", "ingest", "live", "obs", "overlap", "procs",
        "swap", "sweep", "wire"
    ]
    assert (
        report["benchmarks"]["incremental"]["rows"][0]["work_speedup"]
        == 46.6
    )
    assert report["benchmarks"]["ingest"]["rows"][1]["rss_budget_ratio"] \
        == 0.6
    assert report["benchmarks"]["swap"]["rows"][0]["speedup"] == 3.5
    assert report["benchmarks"]["wire"]["rows"][0]["rounds_per_s"] == 141.9
    assert report["benchmarks"]["obs"]["rows"][1]["overhead"] == 1.05
    assert report["benchmarks"]["procs"]["rows"][1]["speedup"] == 1.9
    assert report["benchmarks"]["live"]["rows"][1]["overhead"] == 1.02
    assert report["benchmarks"]["overlap"]["rows"][1]["wait_ratio"] == 0.45
    # host stamps survive the merge untouched
    assert report["benchmarks"]["procs"]["host"]["platform"] == "Linux-test"
    assert report["benchmarks"]["incremental"]["host"]["cpus"] == 8
    assert report["benchmarks"]["live"]["host"]["load_avg"] == [0.1] * 3
    assert json.loads(out.read_text()) == report


def test_merge_bench_reports_empty_dir(tmp_path):
    report = merge_bench_reports(tmp_path)
    assert report == {"benchmarks": {}, "count": 0}


def test_cli_bench_export(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "fig6.csv"
    rc = main(["bench", "--experiment", "fig6", "--ranks", "4",
               "--scale", "0.2", "-o", str(path)])
    assert rc == 0
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == 4  # one per large dataset
    assert "exported" in capsys.readouterr().out
