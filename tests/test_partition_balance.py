"""Unit tests for the Fig-6/7 balance metrics (partition/balance.py)."""

import numpy as np
import pytest

from repro.graph import planted_partition
from repro.partition import compare_partitions
from repro.partition.balance import balance_stats


def test_balance_stats_basic():
    s = balance_stats(np.array([10, 20, 30, 40]), "w")
    assert s.min == 10
    assert s.max == 40
    assert s.mean == 25.0
    assert s.imbalance == pytest.approx(40 / 25)
    assert s.spread == pytest.approx(4.0)
    assert "w:" in str(s) and "imbalance=1.60" in str(s)


def test_balance_stats_single_rank():
    s = balance_stats(np.array([7]), "solo")
    assert s.min == s.max == 7
    assert s.imbalance == 1.0
    assert s.spread == 1.0


def test_balance_stats_all_zero_is_perfectly_balanced():
    # Regression: max/mean with a zero mean used to report 0.0, which
    # ranked an idle fleet as "better than perfect".  Every rank carries
    # identical (zero) load, so the imbalance factor is exactly 1.0.
    s = balance_stats(np.zeros(8, dtype=np.int64), "idle")
    assert s.imbalance == 1.0
    assert s.spread == 0.0  # max/max(min,1) = 0/1


def test_balance_stats_zero_min_spread_guard():
    # A rank with zero load must not divide by zero in spread.
    s = balance_stats(np.array([0, 12]), "half")
    assert s.spread == 12.0
    assert s.imbalance == pytest.approx(12 / 6)


def test_balance_stats_empty_rejected():
    with pytest.raises(ValueError):
        balance_stats(np.empty(0, dtype=np.int64), "none")


def test_compare_partitions_improvements_positive():
    g = planted_partition(6, 30, 0.3, 0.02, seed=3).graph
    cmp = compare_partitions(g, 8)
    # Both improvement ratios are guarded against a zero delegate max.
    assert cmp.workload_improvement() > 0
    assert cmp.ghost_improvement() > 0
    assert cmp.workload_delegate.imbalance >= 1.0
    assert cmp.workload_1d.imbalance >= cmp.workload_delegate.imbalance * 0.5


def test_improvement_clamping_against_zero_max():
    zero = balance_stats(np.zeros(4, dtype=np.int64), "z")
    loaded = balance_stats(np.array([5, 5, 5, 5]), "l")
    from repro.partition.balance import PartitionComparison

    cmp = PartitionComparison(
        nranks=4,
        workload_1d=loaded,
        workload_delegate=zero,
        ghosts_1d=loaded,
        ghosts_delegate=zero,
        num_hubs=0,
        d_high=10,
    )
    # max(delegate.max, 1) clamps the denominator: no ZeroDivisionError,
    # ratio falls back to 1d.max / 1.
    assert cmp.workload_improvement() == 5.0
    assert cmp.ghost_improvement() == 5.0
