"""Run-trace core: per-rank structured event buffers.

The paper's evaluation is an observability story — per-phase runtime
breakdowns (Fig 8), communication volumes (Fig 7) and codelength
convergence across ranks (Fig 4) — and this module is the substrate
that records all of it on one timeline.  Design mirrors what real-MPI
tracing tools (Score-P, Scalasca) do:

* every rank appends to **its own** :class:`RankTraceBuffer` — no locks
  on the hot path, because each rank is the only writer of its buffer
  (the same single-writer discipline :class:`~repro.simmpi.stats.RankStats`
  already relies on);
* buffers are merged **deterministically** at job finalize: rank-major
  order, each buffer in append order.  Timestamps are wall-clock and
  therefore not reproducible, but the event *sequence* per rank is.

Three event kinds, all tagged with ``rank`` plus whatever context
(``phase``, ``level``, ``round``) the wiring has set on the buffer:

* ``span``    — a timed block (``ts_us`` + ``dur_us``); phases, levels.
* ``instant`` — a point event with arguments; per-round convergence
  samples (``codelength``, ``moves``, ``boundary_bytes``, ``frontier``,
  ``swap_backs``, ``exact_rescores``, ``bulk_commits``).
* ``counter`` — a sampled or cumulative numeric series; the
  communicator's byte meters emit cumulative counters with a ``delta``
  field so artifact totals reconcile *exactly* with the
  :class:`~repro.simmpi.stats.CommLedger`.

The disabled path is a single attribute check: wiring holds a
:data:`NULL_BUFFER` whose ``enabled`` is ``False`` and whose methods are
no-ops, so ``if buf.enabled:`` (or calling a no-op once per level) is
all a traced-off run pays.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator

__all__ = [
    "RankTraceBuffer",
    "Tracer",
    "NullTracer",
    "NULL_BUFFER",
    "EVENT_KINDS",
]

#: The closed set of event kinds an artifact may contain.
EVENT_KINDS = ("span", "instant", "counter")

#: Sentinel for :meth:`RankTraceBuffer.set_context` "leave unchanged".
_KEEP = object()


class _NullSpan:
    """Reusable no-op context manager for :class:`_NullBuffer.span`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _NullBuffer:
    """The disabled rank buffer: every method is a no-op.

    ``enabled`` is ``False`` so hot paths can skip event construction
    with one attribute check; cold paths may simply call the no-ops.
    """

    __slots__ = ()
    enabled = False
    rank = -1

    def set_context(self, **_kw: Any) -> None:
        return None

    def span(self, _name: str, **_kw: Any) -> _NullSpan:
        return _NULL_SPAN

    def complete(self, *_a: Any, **_kw: Any) -> None:
        return None

    def instant(self, *_a: Any, **_kw: Any) -> None:
        return None

    def counter(self, *_a: Any, **_kw: Any) -> None:
        return None

    def meter(self, *_a: Any, **_kw: Any) -> None:
        return None


#: Shared disabled buffer — what :attr:`Communicator.trace` returns when
#: no tracer is attached.
NULL_BUFFER = _NullBuffer()


class _Span:
    """Context manager emitting one complete span on exit."""

    __slots__ = ("_buf", "_name", "_phase", "_args", "_t0")

    def __init__(
        self,
        buf: "RankTraceBuffer",
        name: str,
        phase: "str | None",
        args: "dict[str, Any] | None",
    ) -> None:
        self._buf = buf
        self._name = name
        self._phase = phase
        self._args = args
        self._t0 = 0.0

    def __enter__(self) -> None:
        self._t0 = time.perf_counter()
        return None

    def __exit__(self, *exc: Any) -> None:
        self._buf.complete(
            self._name, self._t0, time.perf_counter(),
            phase=self._phase, args=self._args,
        )
        return None


class RankTraceBuffer:
    """Append-only event buffer owned by exactly one rank.

    The owning rank is the only writer, so no locking is needed; the
    tracer only reads the buffer after the SPMD job has joined.  All
    timestamps are microseconds since the parent tracer's epoch.
    """

    __slots__ = ("rank", "events", "level", "round", "_epoch", "_cum")

    enabled = True

    def __init__(self, rank: int, epoch: float) -> None:
        self.rank = rank
        self.events: list[dict[str, Any]] = []
        self.level: "int | None" = None
        self.round: "int | None" = None
        self._epoch = epoch
        self._cum: dict[str, float] = {}

    # -- context ----------------------------------------------------------
    def set_context(self, *, level: Any = _KEEP, round: Any = _KEEP) -> None:
        """Set the level/round tags stamped on subsequent events.

        Pass ``None`` to clear a tag; omitted tags are left unchanged.
        """
        if level is not _KEEP:
            self.level = level
        if round is not _KEEP:
            self.round = round

    def _base(self, kind: str, name: str, ts_us: float) -> dict[str, Any]:
        ev: dict[str, Any] = {
            "kind": kind, "name": name, "rank": self.rank, "ts_us": ts_us,
        }
        if self.level is not None:
            ev["level"] = self.level
        if self.round is not None:
            ev["round"] = self.round
        return ev

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    # -- spans ------------------------------------------------------------
    def span(
        self,
        name: str,
        *,
        phase: "str | None" = None,
        args: "dict[str, Any] | None" = None,
    ) -> _Span:
        """Context manager recording a complete span around a block."""
        return _Span(self, name, phase, args)

    def complete(
        self,
        name: str,
        t0: float,
        t1: float,
        *,
        phase: "str | None" = None,
        args: "dict[str, Any] | None" = None,
    ) -> None:
        """Record an already-timed block; *t0*/*t1* are
        ``time.perf_counter()`` values (the caller timed the block, e.g.
        :class:`~repro.core.timing.PhaseTimer`)."""
        ev = self._base("span", name, (t0 - self._epoch) * 1e6)
        ev["dur_us"] = (t1 - t0) * 1e6
        if phase is not None:
            ev["phase"] = phase
        if args:
            ev["args"] = args
        self.events.append(ev)

    # -- instants ---------------------------------------------------------
    def instant(
        self,
        name: str,
        *,
        phase: "str | None" = None,
        args: "dict[str, Any] | None" = None,
    ) -> None:
        """Record a point event (e.g. one round's convergence sample)."""
        ev = self._base("instant", name, self._now_us())
        if phase is not None:
            ev["phase"] = phase
        if args:
            ev["args"] = args
        self.events.append(ev)

    # -- counters ---------------------------------------------------------
    def counter(
        self,
        name: str,
        value: float,
        *,
        phase: "str | None" = None,
        cat: "str | None" = None,
    ) -> None:
        """Record a sampled counter value (codelength, frontier size...)."""
        ev = self._base("counter", name, self._now_us())
        ev["value"] = value
        if phase is not None:
            ev["phase"] = phase
        if cat is not None:
            ev["cat"] = cat
        self.events.append(ev)

    def meter(
        self, name: str, delta: float, *, phase: "str | None" = None
    ) -> None:
        """Record a cumulative communication meter increment.

        Emits a ``counter`` event carrying both the running total
        (``value``, what Perfetto plots) and the increment (``delta``).
        Summing deltas per phase reproduces the ledger's
        ``bytes_by_phase`` exactly, and counting the events per phase
        reproduces ``messages_by_phase`` — the reconciliation invariant
        ``tests/test_obs_trace.py`` pins down.
        """
        cum = self._cum.get(name, 0.0) + delta
        self._cum[name] = cum
        ev = self._base("counter", name, self._now_us())
        ev["value"] = cum
        ev["delta"] = delta
        ev["cat"] = "comm"
        if phase is not None:
            ev["phase"] = phase
        self.events.append(ev)


class Tracer:
    """A run's trace: one :class:`RankTraceBuffer` per rank.

    Buffer creation is the only synchronized operation (each rank calls
    :meth:`for_rank` once, at job start); everything after is
    single-writer per buffer.  ``merged_events()`` is the deterministic
    finalize-time merge: rank-major, append order within a rank.
    """

    enabled = True

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self._buffers: dict[int, RankTraceBuffer] = {}
        self._lock = threading.Lock()

    def for_rank(self, rank: int) -> RankTraceBuffer:
        """The buffer owned by *rank* (created on first use)."""
        buf = self._buffers.get(rank)
        if buf is not None:
            return buf
        with self._lock:
            buf = self._buffers.get(rank)
            if buf is None:
                buf = RankTraceBuffer(rank, self.epoch)
                self._buffers[rank] = buf
            return buf

    def adopt_rank_events(
        self,
        rank: int,
        events: "list[dict[str, Any]]",
        cumulative: "dict[str, float] | None" = None,
    ) -> None:
        """Merge events recorded out-of-process into *rank*'s buffer.

        The process backend's ranks live in their own address spaces, so
        each builds a private :class:`RankTraceBuffer` (seeded with this
        tracer's ``epoch`` — ``perf_counter`` is ``CLOCK_MONOTONIC`` on
        Linux and therefore comparable across processes on one host) and
        ships ``(events, _cum)`` back over the result channel at
        teardown.  Appending here keeps ``merged_events()``'s rank-major
        determinism identical to the thread backend; carrying the
        cumulative meter totals over keeps a later ``meter`` call on the
        adopted buffer monotone.
        """
        buf = self.for_rank(rank)
        buf.events.extend(events)
        if cumulative:
            buf._cum.update(cumulative)

    @property
    def nranks(self) -> int:
        """Number of rank tracks (max rank seen + 1)."""
        if not self._buffers:
            return 0
        return max(self._buffers) + 1

    def ranks(self) -> list[int]:
        return sorted(self._buffers)

    def num_events(self) -> int:
        return sum(len(b.events) for b in self._buffers.values())

    def merged_events(self) -> list[dict[str, Any]]:
        """All ranks' events, merged deterministically.

        Rank-major order, each rank's events in append order — the
        same result regardless of thread interleavings, which is what
        makes artifact diffs meaningful across runs.
        """
        out: list[dict[str, Any]] = []
        for rank in sorted(self._buffers):
            out.extend(self._buffers[rank].events)
        return out

    def iter_events(self) -> Iterator[dict[str, Any]]:
        for rank in sorted(self._buffers):
            yield from self._buffers[rank].events


class NullTracer:
    """The disabled tracer: hands out :data:`NULL_BUFFER` to everyone.

    Exists so call sites can write ``tracer = tracer or NullTracer()``
    and thread it through unconditionally; the per-event cost of a
    disabled run stays one attribute check (``buf.enabled``).
    """

    enabled = False

    def for_rank(self, _rank: int) -> _NullBuffer:
        return NULL_BUFFER

    @property
    def nranks(self) -> int:
        return 0

    def ranks(self) -> list[int]:
        return []

    def num_events(self) -> int:
        return 0

    def merged_events(self) -> list[dict[str, Any]]:
        return []

    def iter_events(self) -> Iterator[dict[str, Any]]:
        return iter(())
