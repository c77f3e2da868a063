"""Per-phase timing and work accounting for the distributed algorithm.

The paper's Figure 8 breaks one clustering iteration into *Find Best
Module*, *Broadcast Delegates*, *Swap Boundary Information* and
*Other*.  :class:`PhaseTimer` accumulates, per rank:

* wall-clock seconds per phase (``perf_counter``; valid for relative
  breakdowns on one machine),
* abstract *work units* per phase (edge scans — the deterministic
  input to the scalability cost model, immune to GIL effects).

Entering a phase also tags the communicator so the byte meters
attribute traffic to the same phase names; on exit the previously
active tag is restored, so traffic between phases (end-of-round
collectives, measurement reductions) is never silently charged to
whatever phase happened to exit last.

When a run-trace buffer is attached every phase block additionally
lands as a span on the rank's timeline and the work counters are
sampled after each update, so the Fig-8 breakdown can be read
round-by-round in Perfetto instead of only as end-of-run totals.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from ..obs.live import (
    NULL_LIVE,
    PHASE_BROADCAST_DELEGATES,
    PHASE_FIND_BEST,
    PHASE_INGEST,
    PHASE_MEASUREMENT,
    PHASE_OTHER,
    PHASE_SWAP_BOUNDARY,
)
from ..obs.trace import NULL_BUFFER
from ..simmpi.comm import Communicator

__all__ = [
    "PhaseTimer",
    "PHASE_FIND_BEST",
    "PHASE_BROADCAST_DELEGATES",
    "PHASE_SWAP_BOUNDARY",
    "PHASE_OTHER",
    "PHASE_MEASUREMENT",
    "PHASE_INGEST",
    "PHASES",
]

#: The paper's Figure 8 phases, in its legend order.  The names
#: themselves are defined once, in :mod:`repro.obs.live`.
PHASES = (
    PHASE_FIND_BEST,
    PHASE_BROADCAST_DELEGATES,
    PHASE_SWAP_BOUNDARY,
    PHASE_OTHER,
)


class PhaseTimer:
    """Accumulates per-phase seconds and work units for one rank.

    Args:
        comm: when given, entering a phase tags the communicator's byte
            meters with the phase name (restored on exit).
        trace: optional per-rank
            :class:`~repro.obs.trace.RankTraceBuffer`; each phase block
            is emitted as a span and each work update as a counter
            sample.  Defaults to the no-op buffer.
        live: optional per-rank :class:`~repro.obs.live.LiveMetrics`
            row; phase entries publish the phase id (and a heartbeat)
            and work updates feed the live ``edges_scanned`` counter.
            Defaults to ``comm.live`` when a communicator is given,
            else the no-op row.
    """

    def __init__(
        self,
        comm: Communicator | None = None,
        *,
        trace: Any = None,
        live: Any = None,
    ) -> None:
        self.seconds: dict[str, float] = {}
        self.work: dict[str, float] = {}
        self._comm = comm
        self._trace = trace if trace is not None else NULL_BUFFER
        if live is None:
            live = comm.live if comm is not None else NULL_LIVE
        self._live = live
        self._active: str | None = None

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a block under *name*; nested phases are not supported
        (the paper's breakdown is flat), so re-entry raises."""
        if self._active is not None:
            raise RuntimeError(
                f"phase {name!r} entered while {self._active!r} active"
            )
        self._active = name
        prev_phase: str | None = None
        if self._comm is not None:
            prev_phase = self._comm.stats.phase
            self._comm.set_phase(name)
        if self._live.enabled:
            # Phase entry doubles as a heartbeat: a rank stuck inside
            # one long phase still shows a recent beat from its byte
            # meters / work updates, while a rank stuck *between*
            # phases is caught by the watchdog's heartbeat age.
            self._live.update(phase=name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.seconds[name] = self.seconds.get(name, 0.0) + (t1 - t0)
            self._active = None
            if self._comm is not None:
                # Restore the previous attribution so traffic after
                # this phase exits (e.g. end-of-round collectives) is
                # not silently charged to it.
                self._comm.set_phase(prev_phase)
            if self._live.enabled:
                self._live.update(phase=prev_phase or "")
            if self._trace.enabled:
                self._trace.complete(name, t0, t1, phase=name)

    def add_work(self, name: str, units: float) -> None:
        """Record *units* of compute work (edge scans) under *name*."""
        self.work[name] = self.work.get(name, 0.0) + units
        if self._live.enabled:
            self._live.add("edges_scanned", units)
        if self._trace.enabled:
            self._trace.counter(
                f"work/{name}", self.work[name], phase=name, cat="work"
            )

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {"seconds": dict(self.seconds), "work": dict(self.work)}
