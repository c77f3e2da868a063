"""Live telemetry plane: per-rank progress metrics readable mid-run.

The trace layer (:mod:`repro.obs.trace`) materializes *after*
``run_spmd`` returns — a long ``backend="procs"`` solve is a black box
while it executes.  This module is the in-flight complement, the
reproduction's stand-in for MPI_T performance variables (see
docs/PORTING.md): each rank owns one cache-line-padded row of float64
slots and updates it in place with plain stores, and any observer —
the launcher's watchdog, a ``repro-infomap status`` process, a
Prometheus scraper — reads coherent snapshots without ever touching
the writer's path.

Slot layout (one row per rank, ``SLOTS_PER_RANK`` f64 = 128 bytes)::

    slot 0      generation counter (seqlock; odd = write in progress)
    slot 1..N   LIVE_FIELDS values (heartbeat, phase, round, ...)
    slot N+1..  zero padding to the cache-line-multiple row size

Seqlock protocol: the writer bumps the generation to odd, stores its
fields plus a fresh heartbeat, then bumps it back to even.  A reader
spins: load generation (retry if odd), copy the row, re-load the
generation (retry if changed).  One writer per row — the SPMD
single-writer discipline :mod:`repro.simmpi.stats` already enforces —
means no writer-side atomics or locks are ever needed, and a torn
read can only happen *during* the odd window the reader rejects.

Run-id discovery: a shared plane publishes a JSON sidecar at
``$TMPDIR/repro-live-<runid>/meta.json`` naming the shared-memory
segment, rank count, field schema, and owner pid.  ``status --latest``
scans these sidecars; ``status --gc`` reaps the ones whose owner pid
is gone (crashed runs cannot unlink their own segments).

The plane is write-only from the solver's perspective: no collective
or move decision may read it, so live-on runs are bitwise-identical to
live-off (guarded by ``benchmarks/test_live_overhead.py``), and the
disabled path costs one attribute check, exactly like ``NullTracer``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import uuid
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path
from typing import Any, Iterable

import numpy as np

__all__ = [
    "LIVE_FIELDS",
    "SLOTS_PER_RANK",
    "PHASE_FIND_BEST",
    "PHASE_BROADCAST_DELEGATES",
    "PHASE_SWAP_BOUNDARY",
    "PHASE_OTHER",
    "PHASE_MEASUREMENT",
    "PHASE_INGEST",
    "PHASE_NAMES",
    "PHASE_IDS",
    "STATUS_RUNNING",
    "STATUS_DONE",
    "STATUS_FAILED",
    "NULL_LIVE",
    "LiveMetrics",
    "LivePlane",
    "LiveSnapshot",
    "live_run_dir",
    "list_live_runs",
    "gc_stale_runs",
]

#: Published per-rank metrics, in slot order (slot 0 is the generation
#: counter, so field *i* lives at slot ``i + 1``).  Monotonic counters
#: and point-in-time gauges share the row; which is which only matters
#: to the Prometheus exposition (:data:`_COUNTER_FIELDS`).
LIVE_FIELDS = (
    "heartbeat",        # wall-clock time.time() of the last update
    "phase",            # PHASE_IDS id of the phase being executed
    "level",            # outer Infomap level (1-based; 0 = not started)
    "round",            # move/swap round within the level
    "sweeps",           # total move sweeps finished (sequential path)
    "moves",            # total accepted vertex moves
    "codelength",       # latest known codelength (bits)
    "edges_scanned",    # total edge-scan work units
    "bytes_sent",       # ledger bytes (p2p sent + collective in)
    "messages_sent",    # ledger messages (p2p sent + collective calls)
    "batches",          # incremental-session batches absorbed
    "status",           # STATUS_RUNNING / STATUS_DONE / STATUS_FAILED
    "wait_seconds",     # ledger seconds truly blocked in request waits
    "overlap_seconds",  # ledger seconds of comm latency hidden by compute
)

#: f64 slots per rank row: 1 generation slot + the fields, padded to a
#: multiple of 8 (64 bytes) so each row is cache-line aligned and two
#: ranks never share a line (the writers are store-only; sharing a line
#: would still be correct, just needlessly slow).
SLOTS_PER_RANK = 16
assert len(LIVE_FIELDS) + 1 <= SLOTS_PER_RANK

_GEN = 0
_IDX = {name: i + 1 for i, name in enumerate(LIVE_FIELDS)}
_HEARTBEAT = _IDX["heartbeat"]
_ROW_BYTES = SLOTS_PER_RANK * 8

#: The one phase vocabulary.  The paper's Figure 8 legend names the
#: first four; :mod:`repro.core.timing` re-exports all of them.
PHASE_FIND_BEST = "find_best_module"
PHASE_BROADCAST_DELEGATES = "broadcast_delegates"
PHASE_SWAP_BOUNDARY = "swap_boundary_info"
PHASE_OTHER = "other"
#: Reproduction-only instrumentation (exact global codelength); not a
#: paper phase and excluded from modeled runtime.
PHASE_MEASUREMENT = "measurement"
#: Out-of-core shard loading (see repro.partition.shard): memmap row
#: reads plus the ghost flow/boundary exchange.  The paper excludes
#: ingest from its measured stages, so this phase is likewise outside
#: ``repro.core.timing.PHASES`` and the modeled runtime.
PHASE_INGEST = "ingest"

#: Live-plane phase ids: 0 means "no phase".
PHASE_NAMES = (
    "",
    PHASE_FIND_BEST,
    PHASE_BROADCAST_DELEGATES,
    PHASE_SWAP_BOUNDARY,
    PHASE_OTHER,
    PHASE_MEASUREMENT,
    PHASE_INGEST,
)
PHASE_IDS = {name: i for i, name in enumerate(PHASE_NAMES)}

STATUS_RUNNING = 0
STATUS_DONE = 1
STATUS_FAILED = 2
_STATUS_NAMES = {STATUS_RUNNING: "running", STATUS_DONE: "done",
                 STATUS_FAILED: "failed"}

#: Fields exposed as Prometheus ``counter`` (monotonic); the rest are
#: gauges.
_COUNTER_FIELDS = frozenset(
    ("sweeps", "moves", "edges_scanned", "bytes_sent", "messages_sent",
     "batches", "wait_seconds", "overlap_seconds")
)

#: Bounded seqlock retries before a reader gives up and returns the
#: possibly-torn row anyway (a stuck-odd generation means the writer
#: died mid-update; better a stale sample than a hung observer).
_READ_RETRIES = 64


class LiveMetrics:
    """Single-writer view of one rank's row.  ``enabled`` is always
    True; the disabled counterpart is :data:`NULL_LIVE`."""

    enabled = True
    __slots__ = ("rank", "_row")

    def __init__(self, rank: int, row: np.ndarray) -> None:
        self.rank = rank
        self._row = row

    def update(self, **fields: Any) -> None:
        """Store the given fields under one seqlock generation.

        ``phase=`` accepts either a numeric id or a phase name.  The
        heartbeat is stamped on every update, so any write doubles as
        an "I'm alive" signal.
        """
        row = self._row
        row[_GEN] += 1.0          # odd: write in progress
        for name, value in fields.items():
            if name == "phase" and isinstance(value, str):
                value = PHASE_IDS.get(value, 0)
            row[_IDX[name]] = float(value)
        row[_HEARTBEAT] = time.time()
        row[_GEN] += 1.0          # even: row coherent again

    def add(self, name: str, delta: float) -> None:
        """Increment one monotonic counter (seqlock-wrapped)."""
        row = self._row
        row[_GEN] += 1.0
        row[_IDX[name]] += float(delta)
        row[_HEARTBEAT] = time.time()
        row[_GEN] += 1.0

    def add_many(self, **deltas: float) -> None:
        """Increment several counters under one seqlock generation."""
        row = self._row
        row[_GEN] += 1.0
        for name, delta in deltas.items():
            row[_IDX[name]] += float(delta)
        row[_HEARTBEAT] = time.time()
        row[_GEN] += 1.0

    def beat(self) -> None:
        """Heartbeat-only update (phase entries, blocking waits)."""
        row = self._row
        row[_GEN] += 1.0
        row[_HEARTBEAT] = time.time()
        row[_GEN] += 1.0

    def value(self, name: str) -> float:
        """Read back one field (writer-side convenience; not seqlocked
        because the caller *is* the only writer)."""
        return float(self._row[_IDX[name]])


class _NullLive:
    """No-op stand-in when the live plane is off (cf. NULL_BUFFER)."""

    enabled = False
    rank = -1
    __slots__ = ()

    def update(self, **fields: Any) -> None:
        pass

    def add(self, name: str, delta: float) -> None:
        pass

    def add_many(self, **deltas: float) -> None:
        pass

    def beat(self) -> None:
        pass

    def value(self, name: str) -> float:
        return 0.0


#: Shared no-op instance; solver code can call methods unconditionally
#: on ``comm.live`` or branch on ``.enabled`` first, whichever reads
#: better at the site.
NULL_LIVE = _NullLive()


def _attach_segment(name: str) -> SharedMemory:
    """Attach to a segment by name WITHOUT resource-tracker tracking.

    An observer process (``status``/``watch``) must not let its own
    resource tracker unlink a segment that belongs to a still-running
    job (CPython registers attachments too until 3.13's ``track=``).
    """
    try:
        return SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: suppress tracker registration
        from multiprocessing import resource_tracker

        orig_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return SharedMemory(name=name)
        finally:
            resource_tracker.register = orig_register


def live_root() -> Path:
    """Directory the run sidecars live under (``$TMPDIR``)."""
    return Path(tempfile.gettempdir())


def live_run_dir(run_id: str) -> Path:
    """The sidecar directory for *run_id*."""
    return live_root() / f"repro-live-{run_id}"


class LivePlane:
    """The writable metrics plane for one job: ``nranks`` rows.

    Args:
        nranks: number of rank rows.
        run_id: external identity for discovery; autogenerated when
            omitted.
        shared: back the rows with a ``multiprocessing.shared_memory``
            segment so rank *processes* (``backend="procs"``) and
            observer processes can attach.  False (default) uses a
            plain numpy array — sufficient for threads/serial and free
            of any segment lifecycle.

    Crossing a process boundary (pickling into a rank process) ships
    only the segment name; ``__setstate__`` re-attaches.  Only the
    creating (owner) process should ``close(unlink=True)``.
    """

    def __init__(
        self,
        nranks: int,
        *,
        run_id: str | None = None,
        shared: bool = False,
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.shared = shared
        self.owner = True
        self._published = False
        if shared:
            size = nranks * _ROW_BYTES
            self._shm: SharedMemory | None = SharedMemory(
                create=True, size=size
            )
            self._shm.buf[:size] = b"\x00" * size
            self.array = np.ndarray(
                (nranks, SLOTS_PER_RANK), dtype=np.float64,
                buffer=self._shm.buf,
            )
        else:
            self._shm = None
            self.array = np.zeros(
                (nranks, SLOTS_PER_RANK), dtype=np.float64
            )

    # -- identity -------------------------------------------------------
    @property
    def segment_name(self) -> str | None:
        return self._shm.name if self._shm is not None else None

    def for_rank(self, rank: int) -> LiveMetrics:
        """The single-writer view of *rank*'s row."""
        if not 0 <= rank < self.nranks:
            raise ValueError(
                f"rank {rank} out of range for plane of {self.nranks}"
            )
        return LiveMetrics(rank, self.array[rank])

    # -- pickling (procs backend) ---------------------------------------
    def __getstate__(self) -> dict:
        if self._shm is None:
            raise TypeError(
                "only a shared LivePlane can cross a process boundary; "
                "construct with shared=True for backend='procs'"
            )
        return {
            "nranks": self.nranks,
            "run_id": self.run_id,
            "name": self._shm.name,
        }

    def __setstate__(self, state: dict) -> None:
        self.nranks = state["nranks"]
        self.run_id = state["run_id"]
        self.shared = True
        self.owner = False
        self._published = False
        self._shm = SharedMemory(name=state["name"])
        self.array = np.ndarray(
            (self.nranks, SLOTS_PER_RANK), dtype=np.float64,
            buffer=self._shm.buf,
        )

    # -- discovery ------------------------------------------------------
    def publish(self, **extra: Any) -> str:
        """Write the discovery sidecar; returns the run id.

        Requires a shared plane (a private array cannot be attached
        from outside).  *extra* keys land verbatim in ``meta.json``
        (e.g. ``command=``, ``graph=``).
        """
        if self._shm is None:
            raise TypeError(
                "cannot publish a private LivePlane; use shared=True"
            )
        run_dir = live_run_dir(self.run_id)
        run_dir.mkdir(parents=True, exist_ok=True)
        meta = {
            "run_id": self.run_id,
            "segment": self._shm.name,
            "nranks": self.nranks,
            "slots_per_rank": SLOTS_PER_RANK,
            "fields": list(LIVE_FIELDS),
            "pid": os.getpid(),
            "started": time.time(),
            **extra,
        }
        tmp = run_dir / "meta.json.tmp"
        tmp.write_text(json.dumps(meta, indent=2, sort_keys=True))
        os.replace(tmp, run_dir / "meta.json")
        self._published = True
        return self.run_id

    # -- lifecycle ------------------------------------------------------
    def mark_status(self, rank: int, status: int) -> None:
        """Stamp a rank's terminal status (launcher-side, e.g. for a
        rank process that died without reporting).  Only safe once the
        rank itself can no longer write — the launcher then takes over
        as the row's single writer, repairing a generation counter the
        rank may have left odd by dying mid-update."""
        row = self.array[rank]
        if int(row[_GEN]) & 1:
            row[_GEN] += 1.0
        self.for_rank(rank).update(status=status)

    def close(self, *, unlink: bool = False) -> None:
        """Detach; with ``unlink=True`` also destroy the segment and
        the sidecar directory (owner/teardown call, idempotent)."""
        self.array = None  # type: ignore[assignment]
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # a LiveMetrics row view is still alive
                pass
            if unlink:
                try:
                    self._shm.unlink()
                except FileNotFoundError:  # double teardown / gc race
                    pass
        if unlink and self._published:
            shutil.rmtree(live_run_dir(self.run_id), ignore_errors=True)
            self._published = False


def _read_row(array: np.ndarray, rank: int) -> np.ndarray:
    """Seqlock read of one row: retry while the generation is odd or
    changes under the copy; bounded so a dead writer cannot hang us."""
    row = array[rank]
    for _ in range(_READ_RETRIES):
        g0 = float(row[_GEN])
        if int(g0) & 1:
            time.sleep(0)  # writer mid-update; yield and retry
            continue
        snap = np.array(row, dtype=np.float64, copy=True)
        if float(row[_GEN]) == g0:
            return snap
    return np.array(row, dtype=np.float64, copy=True)


def read_rows(array: np.ndarray) -> np.ndarray:
    """Coherent (per-row seqlocked) copy of every rank row."""
    out = np.empty_like(array)
    for r in range(array.shape[0]):
        out[r] = _read_row(array, r)
    return out


class LiveSnapshot:
    """One coherent point-in-time read of a plane.

    Obtained from a plane in-process (:meth:`from_plane`) or from a
    published run id in *any* process (:meth:`attach`).  Torn-read-free
    per row by the seqlock protocol; rows are copied, so a snapshot
    stays valid after the run ends.
    """

    def __init__(
        self,
        run_id: str,
        rows: np.ndarray,
        *,
        meta: dict[str, Any] | None = None,
        taken_at: float | None = None,
    ) -> None:
        self.run_id = run_id
        self.rows = rows
        self.meta = dict(meta or {})
        self.taken_at = time.time() if taken_at is None else taken_at

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_plane(cls, plane: LivePlane) -> "LiveSnapshot":
        return cls(plane.run_id, read_rows(plane.array))

    @classmethod
    def attach(cls, run_id: str) -> "LiveSnapshot":
        """Snapshot a published run by id (works from any process)."""
        meta_path = live_run_dir(run_id) / "meta.json"
        try:
            meta = json.loads(meta_path.read_text())
        except FileNotFoundError:
            raise FileNotFoundError(
                f"no live run {run_id!r} (no sidecar at {meta_path})"
            ) from None
        seg = _attach_segment(meta["segment"])
        try:
            nranks = int(meta["nranks"])
            slots = int(meta.get("slots_per_rank", SLOTS_PER_RANK))
            array = np.ndarray(
                (nranks, slots), dtype=np.float64, buffer=seg.buf
            )
            rows = read_rows(array)
            del array
        finally:
            seg.close()
        return cls(run_id, rows, meta=meta)

    @classmethod
    def attach_latest(cls) -> "LiveSnapshot":
        """Snapshot the most recently started published run."""
        runs = list_live_runs()
        if not runs:
            raise FileNotFoundError(
                f"no live runs published under {live_root()}"
            )
        return cls.attach(runs[-1]["run_id"])

    # -- accessors ------------------------------------------------------
    @property
    def nranks(self) -> int:
        return int(self.rows.shape[0])

    def field(self, name: str) -> np.ndarray:
        """One field as a length-``nranks`` vector."""
        return self.rows[:, _IDX[name]]

    def rank(self, rank: int) -> dict[str, float]:
        """All fields of one rank as a plain dict."""
        row = self.rows[rank]
        return {name: float(row[_IDX[name]]) for name in LIVE_FIELDS}

    def totals(self) -> dict[str, float]:
        """Whole-job counter summary.

        ``edges_scanned``/``bytes_sent``/``messages_sent`` are genuinely
        per-rank and sum; ``moves`` is published as a replicated
        job-wide count on the distributed path (it comes off allreduced
        values), so the max across ranks *is* the job total — summing
        it would multiply by the rank count.
        """
        out = {
            name: float(self.field(name).sum())
            for name in ("edges_scanned", "bytes_sent", "messages_sent")
        }
        out["moves"] = float(self.field("moves").max())
        return out

    def skew(self) -> float:
        """Max/mean edge-scan work skew across ranks (1.0 = balanced)."""
        work = self.field("edges_scanned")
        mean = float(work.mean())
        return float(work.max()) / mean if mean > 0 else 1.0

    def rank_report(self, now: float | None = None) -> list[dict[str, Any]]:
        """Per-rank progress/liveness summary (watchdog payload)."""
        now = time.time() if now is None else now
        report = []
        for r in range(self.nranks):
            d = self.rank(r)
            beat = d["heartbeat"]
            pid = int(d["phase"])
            report.append({
                "rank": r,
                "phase": PHASE_NAMES[pid] if 0 <= pid < len(PHASE_NAMES)
                else str(pid),
                "level": int(d["level"]),
                "round": int(d["round"]),
                "codelength": d["codelength"],
                "heartbeat_age": (now - beat) if beat > 0 else None,
                "status": _STATUS_NAMES.get(int(d["status"]),
                                            str(int(d["status"]))),
            })
        return report

    # -- renderings -----------------------------------------------------
    def render(self, prev: "LiveSnapshot | None" = None) -> str:
        """Human-oriented per-rank table (the ``status`` CLI body).

        With *prev* (an earlier snapshot of the same run) a throughput
        column (edge scans/s since *prev*) is included.
        """
        now = self.taken_at
        dt = (now - prev.taken_at) if prev is not None else 0.0
        header = (
            f"run {self.run_id}  nranks={self.nranks}"
            f"  skew={self.skew():.2f}"
        )
        started = self.meta.get("started")
        if started:
            header += f"  age={now - float(started):.1f}s"
        cols = ["rank", "status", "phase", "level", "round", "moves",
                "codelength", "edges", "beat"]
        if dt > 0:
            cols.append("edges/s")
        lines = [header, "  ".join(f"{c:>12}" for c in cols)]
        for r in range(self.nranks):
            d = self.rank(r)
            pid = int(d["phase"])
            phase = (PHASE_NAMES[pid]
                     if 0 <= pid < len(PHASE_NAMES) else str(pid))
            beat = d["heartbeat"]
            age = f"{now - beat:.1f}s" if beat > 0 else "-"
            row = [
                str(r),
                _STATUS_NAMES.get(int(d["status"]), "?"),
                phase or "-",
                str(int(d["level"])),
                str(int(d["round"])),
                str(int(d["moves"])),
                f"{d['codelength']:.6f}",
                str(int(d["edges_scanned"])),
                age,
            ]
            if dt > 0:
                prev_e = float(prev.rows[r, _IDX["edges_scanned"]])
                row.append(f"{(d['edges_scanned'] - prev_e) / dt:.0f}")
            lines.append("  ".join(f"{c:>12}" for c in row))
        t = self.totals()
        lines.append(
            f"totals: moves={int(t['moves'])}"
            f" edges={int(t['edges_scanned'])}"
            f" bytes={int(t['bytes_sent'])}"
            f" msgs={int(t['messages_sent'])}"
        )
        return "\n".join(lines)

    def to_prometheus(self, *, prefix: str = "repro_live") -> str:
        """Prometheus text exposition (one metric per field, labelled
        by run id and rank) for a scraping service wrapper."""
        lines: list[str] = []
        for name in LIVE_FIELDS:
            kind = "counter" if name in _COUNTER_FIELDS else "gauge"
            metric = f"{prefix}_{name}"
            lines.append(f"# TYPE {metric} {kind}")
            values = self.field(name)
            for r in range(self.nranks):
                lines.append(
                    f'{metric}{{run_id="{self.run_id}",rank="{r}"}} '
                    f"{float(values[r])!r}"
                )
        lines.append(f"# TYPE {prefix}_taken_at gauge")
        lines.append(
            f'{prefix}_taken_at{{run_id="{self.run_id}"}} '
            f"{self.taken_at!r}"
        )
        return "\n".join(lines) + "\n"


def list_live_runs() -> list[dict[str, Any]]:
    """Metadata of every published run, oldest first."""
    runs = []
    for d in sorted(live_root().glob("repro-live-*")):
        try:
            meta = json.loads((d / "meta.json").read_text())
        except (OSError, ValueError):
            continue
        if "run_id" in meta and "segment" in meta:
            runs.append(meta)
    runs.sort(key=lambda m: float(m.get("started", 0.0)))
    return runs


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by someone else
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return False
    return True


def gc_stale_runs(
    runs: Iterable[dict[str, Any]] | None = None,
) -> list[str]:
    """Reap sidecars + segments whose owner pid is gone.

    A crashed or SIGKILLed launcher cannot unlink its own segment;
    ``status --gc`` calls this.  Returns the removed run ids.
    """
    removed: list[str] = []
    for meta in (list_live_runs() if runs is None else runs):
        pid = meta.get("pid")
        if pid is not None and _pid_alive(int(pid)):
            continue
        name = meta.get("segment")
        if name:
            try:
                seg = _attach_segment(name)
            except FileNotFoundError:
                pass
            else:
                seg.close()
                try:
                    seg.unlink()
                except FileNotFoundError:
                    pass
        shutil.rmtree(
            live_run_dir(meta["run_id"]), ignore_errors=True
        )
        removed.append(meta["run_id"])
    return removed
