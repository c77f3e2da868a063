"""A host-speed probe, so timings are reported at one reference speed.

On the 2-vCPU hosts this benchmark runs on, each vCPU switches on its
own between a fast and a slow state, for a second to minutes at a
time: the same interpreter loop takes 1.6x longer in the slow state, a
numpy sort 1.1x, and the program, a mix of both, 1.2-1.8x.  How much of
a run falls in the slow state moves every statistic of that run.  So
every timed call is bracketed by two probes: a fixed mix of interpreter
and numpy work that belongs to the benchmark, not the program, timed on
each CPU the work may run on.  A call's reference-speed time is its
wall time x ``REFERENCE_PROBE_S`` / (mean of its two probes).  A change
to the program moves the call and not the probes; a change of host
state moves both.

The probes run only between calls.  A sampler process running beside
the program was tried and dropped: sharing a CPU with the program
slowed each sample by the program's cache footprint, so a change to
the program would have moved its own reference.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: The probe's time on the reference host (2-vCPU Xeon at 2.1 GHz,
#: Python 3.11) in its fast state.  Reference-speed seconds are wall
#: seconds on that host in that state.
REFERENCE_PROBE_S = 0.0067

_KEYS = np.random.default_rng(0).integers(0, 1 << 30, 600_000, dtype=np.int32)
_BUF = np.empty_like(_KEYS)


def _interpreter() -> float:
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(25_000):
        k = i & 1023
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - t0


def _numpy() -> float:
    t0 = time.perf_counter()
    _BUF[:] = _KEYS
    _BUF.sort()
    np.bitwise_and(_BUF, 4095, out=_BUF)
    np.bincount(_BUF)
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds for the fixed work mix: each half's best of two tries."""
    return (min(_interpreter(), _interpreter())
            + min(_numpy(), _numpy()))


class HostSpeed:
    """Probes every CPU this process may run on, before and after each
    timed call.  Procs ranks inherit the process's CPU set."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._last = self._probe()
        self.probes = [statistics.fmean(self._last)]

    def _probe(self) -> list[float]:
        if len(self.cpus) == 1:
            return [probe()]
        per_cpu = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(probe())
        os.sched_setaffinity(0, self.cpus)
        return per_cpu

    def mark(self, ranks: bool) -> float:
        """Probe now, after a timed call; return the factor that takes
        that call's wall time to the reference speed.

        A call that ran on rank processes waits for its slowest rank,
        so its host time is the slowest CPU's; a call in this process
        alone may have run on any CPU, so its host time is their mean.
        """
        now = self._probe()
        self.probes.append(statistics.fmean(now))
        agg = max if ranks else statistics.fmean
        host = 0.5 * (agg(self._last) + agg(now))
        self._last = now
        return REFERENCE_PROBE_S / host
