"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables/figures through
its driver in ``repro.bench.experiments`` and prints the rendered rows
(`pytest benchmarks/ --benchmark-only -s` shows them).  Drivers are
deterministic, so a single measured round per benchmark suffices; the
value under test is the experiment's *content*, the timing is a bonus.

The throughput guards write their ``BENCH_*.json`` reports through the
``bench_report_path`` fixture: to the repo root normally, and to the
git-ignored ``.bench_work/smoke/`` under ``REPRO_BENCH_SMOKE=1``, so a
smoke run never overwrites the committed full-profile reports.
"""

import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SMOKE_DIR = ROOT / ".bench_work" / "smoke"


def pytest_collection_modifyitems(config, items):
    """Skip throughput/observability guards unless ``--run-bench``.

    The guards (wire round throughput, swap-cycle rounds/sec, tracing
    overhead, live overhead, procs scaling, ingest scale, incremental
    warm-start, nonblocking overlap) take tens of
    seconds and measure wall-clock numbers, so they don't belong in the
    default tier-1 sweep;
    ``pytest benchmarks/ --run-bench`` opts in.
    """
    if config.getoption("--run-bench"):
        return
    skip = pytest.mark.skip(reason="needs --run-bench")
    guards = (
        "throughput_guard", "obs_guard", "procs_guard", "ingest_guard",
        "incremental_guard", "live_guard", "overlap_guard",
    )
    for item in items:
        if any(g in item.keywords for g in guards):
            item.add_marker(skip)


@pytest.fixture
def run_once(benchmark):
    """Run an experiment driver exactly once under pytest-benchmark."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
            warmup_rounds=0,
        )

    return _run


@pytest.fixture
def bench_report_path():
    """``name -> Path`` where a guard writes its ``BENCH_*.json`` report."""
    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

    def _path(name: str) -> Path:
        if not smoke:
            return ROOT / name
        SMOKE_DIR.mkdir(parents=True, exist_ok=True)
        return SMOKE_DIR / name

    return _path
