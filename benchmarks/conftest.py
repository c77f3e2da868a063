"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables/figures through
its driver in ``repro.bench.experiments`` and prints the rendered rows
(`pytest benchmarks/ --benchmark-only -s` shows them).  Drivers are
deterministic, so a single measured round per benchmark suffices; the
value under test is the experiment's *content*, the timing is a bonus.
"""

import pytest


def pytest_collection_modifyitems(config, items):
    """Skip throughput/observability guards unless ``--run-bench``.

    The guards (wire round throughput, swap-cycle rounds/sec, tracing
    overhead, live overhead, procs scaling, rebalance skew, ingest
    scale, incremental warm-start, nonblocking overlap) take tens of
    seconds and measure wall-clock numbers, so they don't belong in the
    default tier-1 sweep;
    ``pytest benchmarks/ --run-bench`` opts in.
    """
    if config.getoption("--run-bench"):
        return
    skip = pytest.mark.skip(reason="needs --run-bench")
    guards = (
        "throughput_guard", "obs_guard", "procs_guard", "rebalance_guard",
        "ingest_guard", "incremental_guard", "live_guard", "overlap_guard",
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
