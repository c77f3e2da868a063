"""Communication metering for the simulated MPI runtime.

Every payload that crosses a rank boundary is counted here, which is
what lets the benchmark harness reproduce the paper's communication-cost
analysis (Figure 7 and the "Swap Boundary Information" component of
Figure 8) exactly rather than inferring it from wall-clock noise.

Two levels of bookkeeping:

* :class:`RankStats` — counters owned by a single rank (no locking
  needed: each rank only ever mutates its own instance).
* :class:`CommLedger` — the per-job collection of all ranks' stats plus
  aggregation helpers used by the cost model and the reports.

Two byte meters run side by side.  *Physical* wire bytes are the exact
length of the typed frame (:mod:`repro.simmpi.wire`) the runtime
actually passes between ranks.  *Logical* bytes are the structural
:func:`payload_nbytes` estimate of the same payload, which does not
depend on the frame layout.  Codec wall time is metered separately
(``encode_seconds_by_phase`` / ``decode_seconds_by_phase``).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

__all__ = [
    "payload_nbytes",
    "RankStats",
    "CommLedger",
    "PhaseBytes",
]


def payload_nbytes(obj: Any, _depth: int = 0) -> int:
    """Estimate the serialized size of *obj* in bytes.

    Exact for ``numpy.ndarray`` (``.nbytes``), ``bytes`` and ``str``;
    structural (per-element recursion plus container overhead) for
    tuples, lists, dicts and dataclass-like objects with ``__dict__``.
    The estimate is deterministic, which matters more for the
    communication experiments than matching pickle's exact framing.
    """
    if obj is None:
        return 1
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 96  # header overhead
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace")) + 8
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, np.integer)):
        return 8
    if isinstance(obj, (float, np.floating)):
        return 8
    if isinstance(obj, complex):
        return 16
    if _depth > 16:  # deep nesting: fall back to a flat estimate
        return sys.getsizeof(obj)
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 16 + sum(payload_nbytes(x, _depth + 1) for x in obj)
    if isinstance(obj, Mapping):
        return 24 + sum(
            payload_nbytes(k, _depth + 1) + payload_nbytes(v, _depth + 1)
            for k, v in obj.items()
        )
    inner = getattr(obj, "__dict__", None)
    if inner is not None:
        return 32 + payload_nbytes(inner, _depth + 1)
    slots = getattr(obj, "__slots__", None)
    if slots is not None:
        return 32 + sum(
            payload_nbytes(getattr(obj, s, None), _depth + 1) for s in slots
        )
    return sys.getsizeof(obj)


@dataclass
class RankStats:
    """Communication counters for one rank.

    The rank that owns this object is the only writer, so no locks are
    required; the ledger only reads after the job has joined.

    When a run-trace buffer is attached (``trace``, set by the engine
    when a :class:`~repro.obs.trace.Tracer` is passed to ``run_spmd``),
    every byte-counting update also emits a cumulative counter event
    onto the rank's timeline, so the trace reconciles exactly with the
    ledger.  Disabled runs pay one ``is not None`` check per update.
    """

    rank: int
    p2p_messages_sent: int = 0
    p2p_bytes_sent: int = 0
    p2p_messages_recv: int = 0
    p2p_bytes_recv: int = 0
    collective_calls: int = 0
    collective_bytes_in: int = 0  # contributed by this rank
    collective_bytes_out: int = 0  # received by this rank
    barrier_calls: int = 0
    bytes_by_phase: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    messages_by_phase: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    logical_bytes_by_phase: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    encode_seconds_by_phase: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    decode_seconds_by_phase: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    wait_seconds_by_phase: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    overlap_seconds_by_phase: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    _phase: str = "default"
    trace: Any = field(default=None, repr=False, compare=False)
    live: Any = field(default=None, repr=False, compare=False)

    def set_phase(self, phase: str) -> None:
        """Attribute subsequent traffic to *phase* (e.g. ``"swap_boundary"``)."""
        self._phase = phase

    @property
    def phase(self) -> str:
        return self._phase

    def record_send(self, nbytes: int) -> None:
        self.p2p_messages_sent += 1
        self.p2p_bytes_sent += nbytes
        self.bytes_by_phase[self._phase] += nbytes
        self.messages_by_phase[self._phase] += 1
        if self.trace is not None:
            self.trace.meter("p2p_bytes_sent", nbytes, phase=self._phase)
        if self.live is not None:
            self._live_sent(nbytes)

    def record_recv(self, nbytes: int) -> None:
        self.p2p_messages_recv += 1
        self.p2p_bytes_recv += nbytes

    def record_collective(self, nbytes_in: int, nbytes_out: int) -> None:
        self.collective_calls += 1
        self.collective_bytes_in += nbytes_in
        self.collective_bytes_out += nbytes_out
        self.bytes_by_phase[self._phase] += nbytes_in
        self.messages_by_phase[self._phase] += 1
        if self.trace is not None:
            self.trace.meter(
                "collective_bytes_in", nbytes_in, phase=self._phase
            )
        if self.live is not None:
            self._live_sent(nbytes_in)

    def record_barrier(self) -> None:
        self.barrier_calls += 1

    def _live_sent(self, nbytes: int) -> None:
        """Mirror one sent payload onto the live plane.

        Tracks exactly what :attr:`total_bytes_sent` /
        :attr:`total_messages` sum (p2p sends + collective
        contributions), so the last live snapshot reconciles with the
        final ledger to the byte.
        """
        self.live.add_many(bytes_sent=nbytes, messages_sent=1)

    def record_logical(self, nbytes: int) -> None:
        """Meter the transport-independent (logical) payload size.

        Physical wire bytes include the typed-frame header and
        alignment padding; the logical size is the structural
        :func:`payload_nbytes` estimate, so it is identical across
        backends and transports by construction.
        """
        self.logical_bytes_by_phase[self._phase] += nbytes

    def record_encode_seconds(self, seconds: float) -> None:
        self.encode_seconds_by_phase[self._phase] += seconds

    def record_decode_seconds(self, seconds: float) -> None:
        self.decode_seconds_by_phase[self._phase] += seconds

    def record_wait_seconds(self, seconds: float) -> None:
        """Meter time truly blocked inside a request ``wait``/``waitall``.

        Together with :meth:`record_overlap_seconds` this splits each
        nonblocking operation's latency into the part that cost wall
        clock (blocked) and the part hidden behind compute (in flight
        between post and wait) — the number the overlap benchmark
        guards.  Blocking callers wait at the post site, so their whole
        latency lands here.
        """
        self.wait_seconds_by_phase[self._phase] += seconds
        if self.trace is not None:
            self.trace.meter("comm_wait_seconds", seconds, phase=self._phase)
        if self.live is not None:
            self.live.add("wait_seconds", seconds)

    def record_overlap_seconds(self, seconds: float) -> None:
        """Meter post→wait-entry time a request spent in flight while
        this rank computed (latency hidden by overlap)."""
        self.overlap_seconds_by_phase[self._phase] += seconds
        if self.trace is not None:
            self.trace.meter(
                "comm_overlap_seconds", seconds, phase=self._phase
            )
        if self.live is not None:
            self.live.add("overlap_seconds", seconds)

    @property
    def total_logical_bytes(self) -> int:
        return sum(self.logical_bytes_by_phase.values())

    @property
    def total_encode_seconds(self) -> float:
        return sum(self.encode_seconds_by_phase.values())

    @property
    def total_decode_seconds(self) -> float:
        return sum(self.decode_seconds_by_phase.values())

    @property
    def total_bytes_sent(self) -> int:
        """All bytes this rank pushed toward other ranks."""
        return self.p2p_bytes_sent + self.collective_bytes_in

    @property
    def total_messages(self) -> int:
        return self.p2p_messages_sent + self.collective_calls

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, Any]) -> "RankStats":
        """Rebuild a stats object from a :meth:`snapshot` dict.

        The inverse the process backend needs: each rank process meters
        into its own private :class:`RankStats`, ships the snapshot back
        over the result channel at teardown, and the parent rebuilds the
        ledger entry from it — so ledger aggregation is backend-agnostic.
        """
        st = cls(rank=int(snap["rank"]))
        for name in (
            "p2p_messages_sent", "p2p_bytes_sent",
            "p2p_messages_recv", "p2p_bytes_recv",
            "collective_calls", "collective_bytes_in",
            "collective_bytes_out", "barrier_calls",
        ):
            setattr(st, name, snap[name])
        for name in (
            "bytes_by_phase", "messages_by_phase",
            "logical_bytes_by_phase", "encode_seconds_by_phase",
            "decode_seconds_by_phase", "wait_seconds_by_phase",
            "overlap_seconds_by_phase",
        ):
            getattr(st, name).update(snap[name])
        return st

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict copy safe to stash in experiment records."""
        return {
            "rank": self.rank,
            "p2p_messages_sent": self.p2p_messages_sent,
            "p2p_bytes_sent": self.p2p_bytes_sent,
            "p2p_messages_recv": self.p2p_messages_recv,
            "p2p_bytes_recv": self.p2p_bytes_recv,
            "collective_calls": self.collective_calls,
            "collective_bytes_in": self.collective_bytes_in,
            "collective_bytes_out": self.collective_bytes_out,
            "barrier_calls": self.barrier_calls,
            "bytes_by_phase": dict(self.bytes_by_phase),
            "messages_by_phase": dict(self.messages_by_phase),
            "logical_bytes_by_phase": dict(self.logical_bytes_by_phase),
            "encode_seconds_by_phase": dict(self.encode_seconds_by_phase),
            "decode_seconds_by_phase": dict(self.decode_seconds_by_phase),
            "wait_seconds_by_phase": dict(self.wait_seconds_by_phase),
            "overlap_seconds_by_phase": dict(self.overlap_seconds_by_phase),
        }


@dataclass(frozen=True)
class PhaseBytes:
    """Aggregated traffic for one phase across all ranks."""

    phase: str
    total_bytes: int
    max_rank_bytes: int
    total_messages: int
    total_logical_bytes: int = 0
    encode_seconds: float = 0.0
    decode_seconds: float = 0.0
    wait_seconds: float = 0.0
    overlap_seconds: float = 0.0


class CommLedger:
    """All ranks' :class:`RankStats` for one SPMD job, plus aggregates.

    Read-side API only; writes happen through the per-rank objects.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"communicator size must be >= 1, got {size}")
        self._stats = [RankStats(rank=r) for r in range(size)]

    def __len__(self) -> int:
        return len(self._stats)

    def for_rank(self, rank: int) -> RankStats:
        return self._stats[rank]

    def load_snapshot(self, rank: int, snap: Mapping[str, Any]) -> None:
        """Replace *rank*'s stats with ones rebuilt from a snapshot dict.

        Used by the process backend: counters accumulate in the rank's
        own address space and are merged here at teardown, after which
        every read-side aggregate behaves exactly as under the thread
        backend.
        """
        st = RankStats.from_snapshot(snap)
        st.rank = rank
        self._stats[rank] = st

    def __iter__(self) -> Iterable[RankStats]:
        return iter(self._stats)

    # -- aggregates used by the experiments and the cost model ----------
    @property
    def total_bytes(self) -> int:
        return sum(s.total_bytes_sent for s in self._stats)

    @property
    def total_messages(self) -> int:
        return sum(s.total_messages for s in self._stats)

    @property
    def max_rank_bytes(self) -> int:
        """Bytes sent by the busiest rank — the paper's point that the
        'communication cost is mostly determined by the slowest part'."""
        return max(s.total_bytes_sent for s in self._stats)

    @property
    def max_rank_messages(self) -> int:
        return max(s.total_messages for s in self._stats)

    def bytes_per_rank(self) -> list[int]:
        return [s.total_bytes_sent for s in self._stats]

    def phases(self) -> list[str]:
        seen: dict[str, None] = {}
        for s in self._stats:
            for ph in s.bytes_by_phase:
                seen.setdefault(ph)
        return list(seen)

    def phase_bytes(self, phase: str) -> PhaseBytes:
        per_rank = [s.bytes_by_phase.get(phase, 0) for s in self._stats]
        msgs = sum(s.messages_by_phase.get(phase, 0) for s in self._stats)
        return PhaseBytes(
            phase=phase,
            total_bytes=sum(per_rank),
            max_rank_bytes=max(per_rank) if per_rank else 0,
            total_messages=msgs,
            total_logical_bytes=sum(
                s.logical_bytes_by_phase.get(phase, 0) for s in self._stats
            ),
            encode_seconds=sum(
                s.encode_seconds_by_phase.get(phase, 0.0)
                for s in self._stats
            ),
            decode_seconds=sum(
                s.decode_seconds_by_phase.get(phase, 0.0)
                for s in self._stats
            ),
            wait_seconds=sum(
                s.wait_seconds_by_phase.get(phase, 0.0)
                for s in self._stats
            ),
            overlap_seconds=sum(
                s.overlap_seconds_by_phase.get(phase, 0.0)
                for s in self._stats
            ),
        )

    @property
    def total_logical_bytes(self) -> int:
        return sum(s.total_logical_bytes for s in self._stats)

    @property
    def max_serialization_seconds(self) -> float:
        """Codec time on the busiest rank — encode plus decode.

        Like bandwidth cost, serialization is bounded by the slowest
        rank, so the modeled-time breakdown charges the max, not the
        mean.
        """
        return max(
            s.total_encode_seconds + s.total_decode_seconds
            for s in self._stats
        )

    def snapshot(self) -> list[dict[str, Any]]:
        return [s.snapshot() for s in self._stats]
