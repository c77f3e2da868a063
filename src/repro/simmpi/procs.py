"""Process-backed communicator: one OS process per rank, shared-memory rings.

The thread backend (:mod:`repro.simmpi.threadcomm`) is faithful but
GIL-bound: compute-heavy rank programs serialize on one core.  This
backend gives each rank its own interpreter — real parallelism — while
keeping every public contract identical:

* the :class:`~repro.simmpi.comm.Communicator` API, typed frames and
  the ``exchange`` protocol are byte-for-byte the same (the collective
  algorithms and all metering live in
  :class:`~repro.simmpi.collectives.CollectiveOpsMixin`, shared with
  the thread backend, so per-phase logical ledger totals agree across
  backends *by construction*);
* traffic moves through per-rank :class:`~repro.simmpi.shm.ShmRing`
  inboxes — frame parts are laid into the shared segment directly
  (no intermediate join), and oversized frames spill to one-shot
  segments so buffered-send semantics never block on a full ring;
* stats and trace buffers accumulate rank-locally and ship back over
  the rank's command pipe at the end of each call, where the parent
  rebuilds the
  :class:`~repro.simmpi.stats.CommLedger` and merges trace events
  rank-major — indistinguishable from a thread-backend run downstream.

Collectives ride a rank-0 relay instead of the thread backend's shared
board: every rank frame-encodes its contribution to rank 0, which
checks the operation labels, assembles the board, and sends it back.
Rank 0 releases the board only after *all* contributions arrived, so
the barrier semantics collectives provide (and that the sparse
``exchange`` handshake relies on for round separation) are preserved.
Per-call sequence numbers are baked into the relay tags so consecutive
collectives can never mix messages, and relay control traffic is
deliberately unmetered — the ledger records the *logical* collective,
exactly as the thread backend does, not the transport's relay bytes.

Failure semantics match the thread engine: the first rank to raise
poisons the job via a shared abort flag
(:class:`~repro.simmpi.shm.ShmControl`); every other rank's next
blocking call raises :class:`~.errors.AbortError`; the original
exception is re-raised to the caller with the remote traceback attached
as ``__cause__``.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import pickle
import time
import traceback
from collections import deque
from multiprocessing.connection import wait as _wait_ready
from typing import Any, Callable, Sequence

from ..obs.live import STATUS_DONE, STATUS_FAILED, STATUS_RUNNING
from ..obs.log import get_logger
from ..obs.rss import peak_rss_bytes
from ..obs.trace import RankTraceBuffer
from .collectives import CollectiveOpsMixin
from .comm import ANY_SOURCE, ANY_TAG, Communicator
from .engine import SpmdResult, _watchdog_report
from .errors import AbortError, DeadlockError, InvalidRankError
from .shm import FLAG_SPILL, SPILL_WAIT, ShmControl, ShmRing, spill_out
from .stats import CommLedger, RankStats
from .wire import (
    decode_frame,
    decode_payload,
    encode_frame_parts,
    encode_payload_parts,
)

__all__ = [
    "DEFAULT_SEGMENT_BYTES", "ProcCommunicator", "ProcRanks", "run_spmd_procs",
]

log = get_logger("simmpi.procs")

#: Default per-rank ring capacity.  Sized so a typical swap-boundary
#: batch (tens of KiB of framed int64/float64 columns) rides inline
#: with room for several senders; larger frames take the spill path.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Relay tag bases for the rank-0 collective exchange.  Far above both
#: user tags and ``EXCHANGE_TAG`` (1 << 30); the per-call sequence
#: number is added so consecutive collectives can never cross-match.
_COLL_CONTRIB = 1 << 40
_COLL_RESULT = 1 << 41

#: How often an idle rank checks that its launcher is still alive.
_IDLE_CHECK = 1.0


class _RemoteTraceback(Exception):
    """Carries a child process's formatted traceback to the caller.

    Attached as ``__cause__`` of the re-raised rank exception, so the
    original failure site shows up in the caller's traceback display
    even though the real frames died with the child process.
    """

    def __init__(self, tb_text: str) -> None:
        super().__init__(tb_text)
        self.tb_text = tb_text

    def __str__(self) -> str:
        return "\n" + self.tb_text


class _JobState:
    """Everything a rank process needs, in one picklable bundle."""

    def __init__(
        self,
        size: int,
        rings: "list[ShmRing]",
        ctrl: ShmControl,
        op_timeout: float,
        live: Any = None,
    ) -> None:
        self.size = size
        self.rings = rings
        self.ctrl = ctrl
        self.op_timeout = op_timeout
        # A shared LivePlane (or None).  Crosses the boundary by
        # segment name (LivePlane.__getstate__) under spawn, or by
        # inheritance under fork; each rank writes only its own row.
        self.live = live


class ProcCommunicator(CollectiveOpsMixin, Communicator):
    """One rank's endpoint in a process-per-rank job.

    Lives entirely inside its rank's process: its own
    :class:`RankStats`, its own inbox (messages drained off this rank's
    :class:`ShmRing`, buffered per ``(source, tag)`` with the same
    earliest-arrival wildcard matching the thread backend's ``Mailbox``
    implements), and the shared abort flag for poisoning.
    """

    def __init__(self, state: _JobState, rank: int) -> None:
        if not (0 <= rank < state.size):
            raise InvalidRankError(rank, state.size)
        self._state = state
        self._rank = rank
        self._ring = state.rings[rank]
        self._stats = RankStats(rank)
        # Inbox: (source, tag) -> deque of (arrival_seq, raw_frame_bytes).
        self._inbox: dict[tuple[int, int], deque[tuple[int, bytes]]] = {}
        self._arrival = itertools.count()
        self._coll_seq = itertools.count()

    # -- identity ---------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._state.size

    @property
    def stats(self) -> RankStats:
        return self._stats

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ProcCommunicator rank={self._rank} size={self.size}>"

    # -- mixin hooks ------------------------------------------------------
    def _encode(self, obj: Any) -> tuple[Any, int]:
        parts, nbytes = encode_payload_parts(obj, self._stats)
        # Collectives relay the joined wire inside a control frame; the
        # parts-level fast path matters only for direct ring puts.
        return b"".join(
            p if isinstance(p, bytes) else bytes(p) for p in parts
        ), nbytes

    def _decode(self, wire: Any) -> Any:
        return decode_payload(wire, self._stats)

    def _check_abort(self) -> None:
        ctrl = self._state.ctrl
        if ctrl.aborted:
            raise AbortError(ctrl.failed_rank, None)

    # -- ring plumbing ----------------------------------------------------
    def _put(
        self, dest: int, tag: int, parts: list, payload_len: int
    ) -> None:
        """Deposit a record in *dest*'s ring, spilling if it won't fit."""
        ring = self._state.rings[dest]
        if ring.put(
            self._rank, tag, parts, payload_len,
            wait=SPILL_WAIT, poll=self._check_abort,
        ):
            return
        descriptor = spill_out(parts, payload_len)
        if ring.put(
            self._rank, tag, [descriptor], len(descriptor), FLAG_SPILL,
            wait=self._state.op_timeout, poll=self._check_abort,
        ):
            return
        # Descriptor put only fails if the consumer stopped draining for
        # a whole op_timeout: the job is wedged.  Reclaim the orphaned
        # spill segment before raising.
        from multiprocessing.shared_memory import SharedMemory

        name = bytes(descriptor[8:]).decode("utf-8")
        try:
            seg = SharedMemory(name=name)
            seg.close()
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - raced teardown
            pass
        raise DeadlockError(
            f"send to rank {dest} (tag {tag}) could not deposit a spill "
            f"descriptor within {self._state.op_timeout:.1f}s — receiver "
            "is not draining its ring"
        )

    def _stash(self, source: int, tag: int, data: bytes) -> None:
        self._inbox.setdefault((source, tag), deque()).append(
            (next(self._arrival), data)
        )

    def _drain_ready(self) -> None:
        """Move every already-arrived ring record into the inbox."""
        while True:
            rec = self._ring.try_get()
            if rec is None:
                return
            self._stash(*rec)

    def _match(self, source: int, tag: int) -> "tuple[int, int] | None":
        """Key of the earliest inbox message matching the pattern."""
        best_key: "tuple[int, int] | None" = None
        best_seq = None
        for (src, tg), q in self._inbox.items():
            if not q:
                continue
            if source != ANY_SOURCE and src != source:
                continue
            if tag != ANY_TAG and tg != tag:
                continue
            seq = q[0][0]
            if best_seq is None or seq < best_seq:
                best_seq, best_key = seq, (src, tg)
        return best_key

    def _pop(self, key: tuple[int, int]) -> bytes:
        q = self._inbox[key]
        _seq, data = q.popleft()
        if not q:
            del self._inbox[key]
        return data

    def _wait_match(self, source: int, tag: int) -> tuple[bytes, int, int]:
        """Block until an inbox message matches; return (data, src, tag)."""
        deadline = time.monotonic() + self._state.op_timeout
        while True:
            self._check_abort()
            self._drain_ready()
            key = self._match(source, tag)
            if key is not None:
                return self._pop(key), key[0], key[1]
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlockError(
                    f"recv(source={source}, tag={tag}) timed out after "
                    f"{self._state.op_timeout:.1f}s with no matching message"
                )
            rec = self._ring.get(
                timeout=min(remaining, 1.0), poll=self._check_abort
            )
            if rec is not None:
                self._stash(*rec)

    # -- point to point ---------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_abort()
        self._check_peer(dest)
        self._check_tag(tag, allow_any=False)
        parts, nbytes = encode_payload_parts(obj, self._stats)
        self._stats.record_send(nbytes)
        self._put(dest, tag, parts, nbytes)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        return self.recv_status(source, tag)[0]

    def recv_status(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[Any, int, int]:
        if source != ANY_SOURCE:
            self._check_peer(source)
        self._check_tag(tag, allow_any=True)
        data, src, tg = self._wait_match(source, tag)
        self._stats.record_recv(len(data))
        return self._decode(data), src, tg

    def try_recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[bool, Any]:
        """Nonblocking matching probe backing :meth:`Request.test`."""
        if source != ANY_SOURCE:
            self._check_peer(source)
        self._check_tag(tag, allow_any=True)
        self._check_abort()
        self._drain_ready()
        key = self._match(source, tag)
        if key is None:
            return False, None
        data = self._pop(key)
        self._stats.record_recv(len(data))
        return True, self._decode(data)

    # -- nonblocking transport hooks (unmetered; see CollectiveOpsMixin) ---
    def _nb_post(self, dest: int, tag: int, wire: bytes, nbytes: int) -> None:
        """Deposit a pre-encoded wire in *dest*'s ring (spill-safe).

        ``wire`` is the joined frame bytes :meth:`_encode` produced, so
        one contiguous part lands in the ring; oversized wires take the
        spill path inside :meth:`_put`, preserving buffered-post
        semantics.  Unmetered — the mixin owns the accounting.
        """
        self._put(dest, tag, [wire], nbytes)

    def _nb_wait(self, source: int, tag: int) -> tuple[int, bytes, int]:
        data, src, _tg = self._wait_match(source, tag)
        return src, data, len(data)

    def _nb_poll(self, source: int, tag: int) -> "tuple[int, bytes, int] | None":
        self._check_abort()
        self._drain_ready()
        key = self._match(source, tag)
        if key is None:
            return None
        data = self._pop(key)
        return key[0], data, len(data)

    # -- collective plumbing ----------------------------------------------
    def _control_send(self, dest: int, tag: int, obj: Any) -> None:
        """Unmetered frame-encoded relay message (collective transport)."""
        parts, nbytes = encode_frame_parts(obj)
        self._put(dest, tag, parts, nbytes)

    def _collective_exchange(self, label: str, contribution: Any) -> list[Any]:
        """Rank-0 relay exchange; returns every rank's contribution.

        Transport only — the mixin's collective algorithms own all
        metering, so this path records nothing.  The result send happens
        strictly after every contribution arrived at rank 0, preserving
        the board+barrier semantics of the thread backend.
        """
        seq = next(self._coll_seq)
        if self._rank != 0:
            self._control_send(0, _COLL_CONTRIB + seq, (label, contribution))
            data, _src, _tag = self._wait_match(0, _COLL_RESULT + seq)
            return decode_frame(data)
        board: list[Any] = [None] * self.size
        board[0] = contribution
        for _ in range(self.size - 1):
            data, src, _tag = self._wait_match(ANY_SOURCE, _COLL_CONTRIB + seq)
            peer_label, peer_contribution = decode_frame(data)
            if peer_label != label:
                from .errors import CollectiveMismatchError

                err = CollectiveMismatchError(
                    "ranks disagree on collective operation: "
                    f"{sorted({label, peer_label})}"
                )
                self._state.ctrl.abort(self._rank)
                raise err
            board[src] = peer_contribution
        for dest in range(1, self.size):
            self._control_send(dest, _COLL_RESULT + seq, board)
        return board


def _ship_result(
    conn: Any,
    rank: int,
    status: str,
    value: Any,
    err: "tuple[BaseException, str] | None",
    snap: dict,
    trace_payload: Any,
    peak_rss: int,
) -> None:
    """Send a rank's report to the launcher, degrading gracefully if it
    won't pickle: the pickle is made here, so an unpicklable payload is
    replaced by a sanitized error report instead of vanishing."""
    payload = (rank, status, value, err, snap, trace_payload, peak_rss)
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as pickle_exc:  # noqa: BLE001 - any pickling failure
        detail = f"{type(pickle_exc).__name__}: {pickle_exc}"
        if err is not None:
            exc, tb_text = err
            err = (
                RuntimeError(
                    f"rank {rank} raised {type(exc).__name__} ({exc}) but "
                    f"it could not be pickled back ({detail})"
                ),
                tb_text,
            )
        else:
            status = "error"
            err = (
                RuntimeError(
                    f"rank {rank} returned an unpicklable result ({detail})"
                ),
                "",
            )
        blob = pickle.dumps(
            (rank, status, None, err, snap, trace_payload, peak_rss),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    conn.send_bytes(blob)


def _serve_call(comm: "ProcCommunicator", conn: Any, call: tuple) -> str:
    """Run one call on this rank and send its report; return the status."""
    fn, fn_args, fn_kwargs, tracing, epoch, _last = call
    rank = comm.rank
    state = comm._state
    # Fresh meters per call: a call's report is a one-shot job's.
    comm._stats = stats = RankStats(rank)
    if tracing:
        # The parent's Tracer holds a threading.Lock and never crosses
        # the process boundary; each rank builds a bare buffer seeded
        # with the parent's epoch and ships (events, cumulative) back.
        stats.trace = RankTraceBuffer(rank, epoch)
    if state.live is not None:
        stats.live = state.live.for_rank(rank)
    status = "ok"
    value: Any = None
    err: "tuple[BaseException, str] | None" = None
    try:
        value = fn(comm, *fn_args, **fn_kwargs)
    except AbortError:
        status = "aborted"
    except BaseException as exc:  # noqa: BLE001 - must capture to re-raise
        status = "error"
        err = (exc, traceback.format_exc())
        state.ctrl.abort(rank)
    if stats.live is not None:
        stats.live.update(
            status=STATUS_DONE if status == "ok" else STATUS_FAILED
        )
    buf = stats.trace
    trace_payload = (buf.events, buf._cum) if tracing else None
    # Sample this child's own high-water mark last, so the number
    # covers the whole rank program.
    _ship_result(
        conn, rank, status, value, err, stats.snapshot(),
        trace_payload, peak_rss_bytes(),
    )
    return status


def _spmd_proc_main(
    state: _JobState,
    rank: int,
    conn: Any,
    inherited: Sequence[Any],
    call: "tuple | None",
) -> None:
    """Entry point of one rank process: serve calls until told to stop.

    *call* is the job's first call, inherited at launch; later calls
    arrive pickled on *conn*, and ``None`` (or a closed pipe) stops the
    rank.  A failed or a last call ends the rank: the launcher ends the
    job.
    *inherited* are the other ranks' pipe ends a fork copied in; they
    are closed so each pipe has exactly one reader and one writer.
    """
    for other in inherited:
        other.close()
    launcher = os.getppid()
    comm = ProcCommunicator(state, rank)
    while call is not None:
        if _serve_call(comm, conn, call) != "ok" or call[-1]:
            break
        try:
            # An idle rank outlives no launcher: a sibling's inherited
            # copy of this pipe would hide the launcher's exit.
            while not conn.poll(_IDLE_CHECK):
                if os.getppid() != launcher:
                    raise EOFError
            call = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            break
    conn.close()


def _start_process(proc: Any) -> None:
    """Seam for tests to inject launch failures; just starts the process."""
    proc.start()


def _pick_context(start_method: "str | None") -> Any:
    """Fork when the platform offers it (no pickling of fn/closures,
    instant start); the caller may force spawn/forkserver explicitly."""
    if start_method is not None:
        return mp.get_context(start_method)
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else methods[0])


class ProcRanks:
    """Rank processes that serve calls until the job closes.

    The procs backend of :class:`~repro.simmpi.engine.SpmdJob`.  The
    rings, the abort flag and one duplex pipe per rank (the command
    channel: calls down, reports up; unmetered) live as long as the
    ranks.  The first call is inherited by the rank processes at launch.
    """

    def __init__(
        self,
        nranks: int,
        *,
        op_timeout: float,
        live: Any,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        start_method: "str | None" = None,
    ) -> None:
        self.nranks = nranks
        self.op_timeout = op_timeout
        self.live = live
        self.segment_bytes = segment_bytes
        self.mp_ctx = _pick_context(start_method)
        self.ctrl: "ShmControl | None" = None
        self.rings: list[ShmRing] = []
        self.procs: list[Any] = []
        self.conns: list[Any] = []

    # -- launch -----------------------------------------------------------
    def _launch(self, call: tuple) -> None:
        mp_ctx, nranks = self.mp_ctx, self.nranks
        fork = mp_ctx.get_start_method() == "fork"
        log.debug(
            "launching SPMD proc job: nranks=%d start_method=%s segment=%d",
            nranks, mp_ctx.get_start_method(), self.segment_bytes,
        )
        self.ctrl = ShmControl(mp_ctx)
        pipes: list[tuple[Any, Any]] = []
        try:
            for _ in range(nranks):
                self.rings.append(ShmRing(self.segment_bytes, ctx=mp_ctx))
                pipes.append(mp_ctx.Pipe(duplex=True))
            self.conns = [mine for mine, _theirs in pipes]
            state = _JobState(
                nranks, self.rings, self.ctrl, self.op_timeout,
                live=self.live,
            )
            for r in range(nranks):
                theirs = pipes[r][1]
                inherited = (
                    [c for pair in pipes for c in pair if c is not theirs]
                    if fork else []
                )
                p = mp_ctx.Process(
                    target=_spmd_proc_main,
                    args=(state, r, theirs, inherited, call),
                    name=f"simmpi-rank-{r}",
                    daemon=True,
                )
                _start_process(p)
                self.procs.append(p)
        except BaseException:
            # A rank that did launch may already be blocked in a
            # collective; poison the job so it exits at once.
            self.ctrl.abort(-1)
            raise
        finally:
            for _mine, theirs in pipes:
                theirs.close()

    # -- one call ---------------------------------------------------------
    def _collect(
        self, timeout: float
    ) -> "tuple[dict[int, tuple], list[int], bool]":
        """Read every rank's report; returns (reports, dead, timed_out).

        A rank whose process exits without a report is *dead*; the job
        is poisoned at once so the others unwind instead of waiting out
        their op timeouts.
        """
        ctrl = self.ctrl
        reports: dict[int, tuple] = {}
        dead: list[int] = []
        pending = set(range(self.nranks))

        def take(limit: float) -> None:
            waitables = [self.conns[r] for r in pending]
            waitables += [self.procs[r].sentinel for r in pending]
            ready = set(_wait_ready(waitables, timeout=limit))
            for r in sorted(pending):
                conn = self.conns[r]
                if conn not in ready and self.procs[r].sentinel not in ready:
                    continue
                try:
                    if conn.poll():
                        rep = pickle.loads(conn.recv_bytes())
                        reports[rep[0]] = rep
                        pending.discard(r)
                        continue
                except (EOFError, OSError):
                    pass
                if not self.procs[r].is_alive():
                    dead.append(r)
                    pending.discard(r)
                    ctrl.abort(r)

        deadline = time.monotonic() + timeout
        timed_out = False
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                ctrl.abort(-1)
                break
            take(remaining)
        # Grace window: aborted ranks unwind and report their ledgers.
        grace = time.monotonic() + 5.0
        while pending and timed_out:
            remaining = grace - time.monotonic()
            if remaining <= 0:
                break
            take(remaining)
        return reports, dead, timed_out

    def call(
        self, fn: Callable[..., Any], args: tuple, kwargs: dict,
        tracer: Any, timeout: float, last: bool,
    ) -> SpmdResult:
        nranks, live = self.nranks, self.live
        tracing = tracer is not None
        call = (fn, args, kwargs, tracing,
                getattr(tracer, "epoch", 0.0) if tracing else 0.0, last)
        if not self.procs:
            # Rows start at "running"; the first call's ranks inherit
            # the call itself, so no payload is pickled.
            self._launch(call)
        else:
            if live is not None:
                for r in range(nranks):
                    live.mark_status(r, STATUS_RUNNING)
            blob = pickle.dumps(call, protocol=pickle.HIGHEST_PROTOCOL)
            for conn in self.conns:
                try:
                    conn.send_bytes(blob)
                except OSError:
                    pass  # a rank died while idle: _collect reports it
        reports, dead, timed_out = self._collect(timeout)

        # -- merge ledgers and traces --------------------------------------
        ledger = CommLedger(nranks)
        for r, rep in sorted(reports.items()):
            _rank, _status, _value, _err, snap, trace_payload, _peak = rep
            ledger.load_snapshot(r, snap)
            if tracing and trace_payload is not None:
                events, cumulative = trace_payload
                tracer.adopt_rank_events(r, events, cumulative)

        # -- verdict (same order as the thread engine) ---------------------
        missing = [r for r in range(nranks) if r not in reports]
        if live is not None:
            # Ranks that died without reporting (SIGKILLed, os._exit)
            # can never stamp their own row; the launcher does it for
            # them so observers don't watch a dead rank "run" forever.
            for r in missing:
                live.mark_status(r, STATUS_FAILED)
        stuck = sorted(set(missing) - set(dead))
        if timed_out or stuck:
            blocked = sorted(set(stuck) | set(dead))
            report = _watchdog_report(live, ledger, stuck=blocked)
            for d in report:
                if d["rank"] in dead:
                    d["status"] = "dead"
            err_out: BaseException = DeadlockError(
                f"ranks {blocked or list(range(nranks))} still blocked "
                f"after {timeout:.1f}s job timeout",
                rank_report=report,
            )
            err_out.spmd_ledger = ledger
            raise err_out
        for r in sorted(reports):
            _rank, status, _value, err, _snap, _tr, _peak = reports[r]
            if status == "error" and err is not None:
                exc, tb_text = err
                exc.spmd_ledger = ledger
                if tb_text:
                    raise exc from _RemoteTraceback(tb_text)
                raise exc
        if missing:
            codes = {r: self.procs[r].exitcode for r in missing}
            err_out = RuntimeError(
                f"ranks {missing} exited without reporting a result "
                f"(exitcodes {codes}) — killed or crashed below Python"
            )
            err_out.spmd_ledger = ledger
            raise err_out
        if self.ctrl.aborted:
            err_out = AbortError(self.ctrl.failed_rank, None)
            err_out.spmd_ledger = ledger
            raise err_out

        return SpmdResult(
            results=[reports[r][2] for r in range(nranks)],
            ledger=ledger,
            trace=tracer,
            peak_rss=[int(reports[r][6]) for r in range(nranks)],
        )

    # -- teardown ---------------------------------------------------------
    def close(self) -> None:
        """Stop every rank, reap it, and unlink every segment."""
        for conn in self.conns:
            try:
                conn.send_bytes(_STOP)
            except (OSError, ValueError):
                pass  # that rank already exited
        for p in self.procs:
            p.join(timeout=5.0)
            if p.is_alive():
                # A stuck rank: poison the job so it unwinds, then
                # force it.
                if self.ctrl is not None:
                    self.ctrl.abort(-1)
                p.terminate()
                p.join(timeout=2.0)
                if p.is_alive():  # pragma: no cover - terminate ignored
                    p.kill()
                    p.join(timeout=1.0)
        for conn in self.conns:
            conn.close()
        for ring in self.rings:
            try:
                ring.drain()
                ring.close(unlink=True)
            except Exception:  # pragma: no cover - best-effort cleanup
                log.exception("ring teardown failed")
        if self.ctrl is not None:
            self.ctrl.close(unlink=True)
        self.procs, self.conns, self.rings, self.ctrl = [], [], [], None


#: The command that stops a resident rank.
_STOP = pickle.dumps(None)


def run_spmd_procs(
    fn: Callable[..., Any],
    nranks: int,
    *,
    fn_args: Sequence[Any] = (),
    fn_kwargs: "dict[str, Any] | None" = None,
    timeout: float = 300.0,
    op_timeout: float = 60.0,
    tracer: Any = None,
    live: Any = None,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    start_method: "str | None" = None,
) -> SpmdResult:
    """Run ``fn(comm, *fn_args, **fn_kwargs)`` on *nranks* OS processes.

    :func:`repro.simmpi.engine.run_spmd` with ``backend="procs"`` —
    same semantics, same :class:`SpmdResult`, same failure taxonomy —
    with two process-specific extras: *segment_bytes* (ring capacity
    per rank; frames that don't fit spill to one-shot segments) and
    *start_method* (default: fork where available).
    """
    from .engine import SpmdJob

    return SpmdJob(
        nranks, backend="procs", timeout=timeout, op_timeout=op_timeout,
        live=live, segment_bytes=segment_bytes, start_method=start_method,
    ).call(fn, fn_args=fn_args, fn_kwargs=fn_kwargs, tracer=tracer, last=True)
