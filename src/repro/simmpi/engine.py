"""SPMD job launcher: the simulation's ``mpiexec``.

:class:`SpmdJob` launches ``nranks`` ranks once and runs one Python
function per :meth:`~SpmdJob.call` on all of them, returning every
rank's return value together with that call's communication ledger;
the ranks stay up between calls and keep rank-private state
(:attr:`~repro.simmpi.comm.Communicator.resident`).  :func:`run_spmd`
is a job with one call and an immediate close.  These are the only
entry points the rest of the library uses to go parallel, so the
backend is a single seam: ``"threads"`` (default) runs each rank as an
OS thread with a private :class:`ThreadCommunicator`; ``"procs"`` runs
each rank as an OS process with traffic over shared-memory rings
(:mod:`repro.simmpi.procs`) — real parallelism for compute-bound rank
programs; ``"serial"`` insists on the in-process single-rank path
(``nranks == 1`` short-circuits to it regardless of backend).  A real
cluster deployment (``mpiexec`` + mpi4py) is one more value of the
same seam.

Failure semantics match ``MPI_Abort``: the first rank to raise poisons
the job; every other rank's next blocking call raises
:class:`~.errors.AbortError`; the original exception is re-raised to
the caller with the failing rank attached, after the job has ended.
"""

from __future__ import annotations

import os
import queue
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..obs.live import STATUS_DONE, STATUS_FAILED, STATUS_RUNNING, LiveSnapshot
from ..obs.log import get_logger
from ..obs.rss import peak_rss_bytes
from .errors import AbortError, DeadlockError
from .serial import SerialCommunicator
from .stats import CommLedger
from .threadcomm import JobContext, ThreadCommunicator

__all__ = ["SpmdJob", "SpmdResult", "run_spmd", "BACKENDS"]

log = get_logger("simmpi.engine")


#: Valid values for :func:`run_spmd`'s ``backend``.
BACKENDS = ("threads", "procs", "serial")


@dataclass
class SpmdResult:
    """Outcome of one SPMD job.

    Attributes:
        results: per-rank return values, indexed by rank.
        ledger: communication counters for the whole job.
        trace: the :class:`~repro.obs.trace.Tracer` the job wrote into,
            or ``None`` when tracing was off.  By the time the result
            exists every rank has joined, so the tracer's per-rank
            buffers are complete and ``trace.merged_events()`` is the
            deterministic finalize-time merge.
        peak_rss: per-rank peak resident set size in bytes, indexed by
            rank.  On the ``procs`` backend each entry is that rank
            *process*'s own high-water mark (sampled by the child just
            before it ships its result); on ``threads``/``serial`` the
            ranks share one address space, so the whole-process peak is
            replicated to every rank.  Empty when sampling was
            unavailable.
    """

    results: list[Any]
    ledger: CommLedger
    trace: Any = None
    peak_rss: list[int] = field(default_factory=list)

    @property
    def nranks(self) -> int:
        return len(self.results)

    def result(self, rank: int = 0) -> Any:
        """Convenience accessor for a single rank's return value."""
        return self.results[rank]


@dataclass
class _RankOutcome:
    value: Any = None
    error: BaseException | None = None
    aborted: bool = False
    done: bool = False
    blocked_on: str = field(default="")
    finished: threading.Event = field(default_factory=threading.Event)


def _watchdog_report(
    live: Any,
    ledger: CommLedger,
    *,
    stuck: Sequence[int] = (),
    outcomes: "Sequence[_RankOutcome] | None" = None,
) -> list[dict[str, Any]]:
    """Per-rank progress detail for a :class:`DeadlockError`.

    With a live plane attached the report carries heartbeat ages,
    phases, levels and rounds straight off the plane; without one it
    still names each rank's current traffic phase (from the ledger)
    and its stalled/done/failed verdict — strictly more useful than
    the old global timeout message either way.
    """
    if live is not None:
        report = LiveSnapshot.from_plane(live).rank_report()
    else:
        report = [{"rank": r} for r in range(len(ledger))]
    stalled = set(stuck)
    for r, d in enumerate(report):
        if r in stalled:
            d["status"] = "stalled"
        elif outcomes is not None and r < len(outcomes) and outcomes[r].done:
            out = outcomes[r]
            d["status"] = (
                "failed" if out.error is not None
                else "aborted" if out.aborted else "done"
            )
        d.setdefault("phase", ledger.for_rank(r).phase)
    return report


class _SerialRanks:
    """One rank on the calling thread: the ``nranks == 1`` short circuit."""

    def __init__(self, live: Any) -> None:
        self.live = live
        self.resident: dict[str, Any] = {}

    def call(
        self, fn: Callable[..., Any], args: tuple, kwargs: dict,
        tracer: Any, timeout: float, last: bool,
    ) -> SpmdResult:
        comm = SerialCommunicator()
        comm._resident = self.resident
        live = self.live
        if tracer is not None:
            comm.stats.trace = tracer.for_rank(0)
        if live is not None:
            live.mark_status(0, STATUS_RUNNING)
            comm.stats.live = live.for_rank(0)
        try:
            value = fn(comm, *args, **kwargs)
        except BaseException:
            if live is not None:
                live.mark_status(0, STATUS_FAILED)
            raise
        if live is not None:
            live.mark_status(0, STATUS_DONE)
        return SpmdResult(
            results=[value], ledger=comm.ledger, trace=tracer,
            peak_rss=[peak_rss_bytes()],
        )

    def close(self) -> None:
        self.resident.clear()


class _ThreadRanks:
    """Rank threads that serve calls until the job closes.

    Each rank thread loops on its own command queue; a call hands every
    rank ``(fn, args, kwargs, outcome)`` and the launcher waits on the
    outcomes.  The :class:`JobContext` (mailboxes, board, barrier, abort
    flag) lives as long as the threads; the ledger is replaced per call.
    """

    def __init__(self, nranks: int, op_timeout: float, live: Any) -> None:
        self.nranks = nranks
        self.live = live
        self.ctx = JobContext(nranks, op_timeout=op_timeout)
        self.inbox: list[queue.SimpleQueue] = [
            queue.SimpleQueue() for _ in range(nranks)
        ]
        self.resident: list[dict[str, Any]] = [{} for _ in range(nranks)]
        self.threads: list[threading.Thread] = []
        self.stuck: set[int] = set()

    def _serve(self, rank: int) -> None:
        box, keep = self.inbox[rank], self.resident[rank]
        while True:
            task = box.get()
            if task is None:
                return
            fn, args, kwargs, out = task
            comm = ThreadCommunicator(self.ctx, rank)
            comm._resident = keep
            try:
                out.value = fn(comm, *args, **kwargs)
            except AbortError:
                out.aborted = True
            except BaseException as exc:  # noqa: BLE001 - re-raised by the launcher
                out.error = exc
                self.ctx.abort(rank, exc)
            finally:
                out.done = True
                out.finished.set()

    def call(
        self, fn: Callable[..., Any], args: tuple, kwargs: dict,
        tracer: Any, timeout: float, last: bool,
    ) -> SpmdResult:
        nranks, ctx, live = self.nranks, self.ctx, self.live
        log.debug(
            "SPMD call: nranks=%d tracing=%s", nranks, tracer is not None
        )
        ctx.ledger = CommLedger(nranks)
        outcomes = [_RankOutcome() for _ in range(nranks)]
        # Buffers and live rows are attached on the launcher thread,
        # before any rank runs, so the per-rank hot paths never touch
        # the tracer lock and each rank is its row's only writer.
        for r in range(nranks):
            if tracer is not None:
                ctx.ledger.for_rank(r).trace = tracer.for_rank(r)
            if live is not None:
                live.mark_status(r, STATUS_RUNNING)
                ctx.ledger.for_rank(r).live = live.for_rank(r)
        if not self.threads:
            for r in range(nranks):
                t = threading.Thread(
                    target=self._serve, args=(r,),
                    name=f"simmpi-rank-{r}", daemon=True,
                )
                t.start()
                self.threads.append(t)
        for r in range(nranks):
            self.inbox[r].put((fn, args, kwargs, outcomes[r]))
            if last:
                self.inbox[r].put(None)

        deadline = time.monotonic() + timeout
        for out in outcomes:
            if not out.finished.wait(max(deadline - time.monotonic(), 0.0)):
                ctx.abort(-1, DeadlockError("job timeout"))
                break
        # Second pass: give aborted ranks a moment to unwind.
        for out in outcomes:
            out.finished.wait(5.0)
        stuck = [r for r, out in enumerate(outcomes) if not out.done]
        self.stuck.update(stuck)
        if live is not None:
            # Finished ranks are idle again, so the launcher can safely
            # stamp their terminal status; stalled ranks keep "running"
            # (their row still belongs to the stuck thread) and are
            # named by the watchdog report instead.
            for r, out in enumerate(outcomes):
                if out.done:
                    live.mark_status(
                        r,
                        STATUS_DONE if out.error is None and not out.aborted
                        else STATUS_FAILED,
                    )
        if stuck:
            err = DeadlockError(
                f"ranks {stuck} still blocked after {timeout:.1f}s job "
                "timeout",
                rank_report=_watchdog_report(
                    live, ctx.ledger, stuck=stuck, outcomes=outcomes
                ),
            )
            err.spmd_ledger = ctx.ledger
            raise err

        for out in outcomes:
            if out.error is not None:
                # Completed phases' meters survive the failure: callers
                # can inspect what the job did up to the abort, on
                # either backend, through the same attribute.
                out.error.spmd_ledger = ctx.ledger
                if isinstance(out.error, DeadlockError):
                    # A rank-raised op timeout (recv with no sender) is
                    # as much a deadlock verdict as the engine's own job
                    # timeout: upgrade it with the same per-rank detail.
                    out.error.attach_rank_report(
                        _watchdog_report(live, ctx.ledger, outcomes=outcomes)
                    )
                raise out.error
        ab = ctx.abort_info()
        if ab is not None:
            failed_rank, cause = ab
            if isinstance(cause, DeadlockError):
                cause.spmd_ledger = ctx.ledger
                cause.attach_rank_report(
                    _watchdog_report(live, ctx.ledger, outcomes=outcomes)
                )
                raise cause
            err = AbortError(failed_rank, cause)
            err.spmd_ledger = ctx.ledger
            raise err

        return SpmdResult(
            results=[o.value for o in outcomes], ledger=ctx.ledger,
            trace=tracer,
            # One address space: every rank reports the shared peak.
            peak_rss=[peak_rss_bytes()] * nranks,
        )

    def close(self) -> None:
        for box in self.inbox:
            box.put(None)
        me = threading.current_thread()
        for r, t in enumerate(self.threads):
            # A stalled rank cannot take its stop command; it is a
            # daemon thread and unwinds on the job's abort flag.
            if r not in self.stuck and t is not me:
                t.join(timeout=5.0)
        self.threads = []
        for keep in self.resident:
            keep.clear()


def _close_ranks(ranks: Any, owner_pid: int) -> None:
    # A forked child inherits the job object; only the launching
    # process may stop its ranks and unlink its segments.
    if os.getpid() == owner_pid:
        ranks.close()


class SpmdJob:
    """A resident SPMD job: ranks launched once, then called many times.

    The first :meth:`call` launches the ranks and hands them that
    call's ``fn``/``fn_args``/``fn_kwargs`` by reference (threads) or by
    fork inheritance (procs), so no payload is pickled.  Later calls
    reach the running ranks over an unmetered command channel (a queue
    per rank thread, a pipe per rank process), which pickles the call
    on the procs backend.  Each rank keeps :attr:`Communicator.resident
    <repro.simmpi.comm.Communicator.resident>` between calls.

    Every call gets a fresh ledger, fresh trace buffers and fresh live
    statuses, so its :class:`SpmdResult` equals the one a one-shot
    :func:`run_spmd` of the same call returns.  A call that fails — a
    rank exception, an abort, a watchdog timeout, a launch error — ends
    the job before it re-raises; a closed job takes no further calls.
    :meth:`close`, leaving a ``with`` block, and garbage collection of
    the job each stop the ranks and unlink every shared segment.

    Args:
        nranks: number of ranks; ``1`` runs each call on the calling
            thread with a :class:`SerialCommunicator`.
        backend: ``"threads"``, ``"procs"`` or ``"serial"`` (see
            :func:`run_spmd`).
        timeout: default wall-clock budget of one call.
        op_timeout: per-blocking-call budget inside ranks.
        live: optional :class:`~repro.obs.live.LivePlane` with *nranks*
            rows, attached for the job's life (``shared=True`` for
            procs).
        segment_bytes, start_method: procs-backend options (see
            :func:`repro.simmpi.procs.run_spmd_procs`).
    """

    def __init__(
        self,
        nranks: int,
        *,
        backend: str = "threads",
        timeout: float = 300.0,
        op_timeout: float = 60.0,
        live: Any = None,
        segment_bytes: "int | None" = None,
        start_method: "str | None" = None,
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        if backend == "serial" and nranks > 1:
            raise ValueError(
                f'backend="serial" supports exactly 1 rank, got '
                f"nranks={nranks}"
            )
        if live is not None and live.nranks != nranks:
            raise ValueError(
                f"live plane has {live.nranks} rows but the job has "
                f"{nranks} ranks"
            )
        self.nranks = nranks
        self.backend = backend
        self.timeout = timeout
        ranks: Any
        if nranks == 1:
            ranks = _SerialRanks(live)
        elif backend == "procs":
            from .procs import DEFAULT_SEGMENT_BYTES, ProcRanks

            if live is not None and not live.shared:
                raise ValueError(
                    'backend="procs" needs a shared live plane; construct '
                    "LivePlane(nranks, shared=True)"
                )
            ranks = ProcRanks(
                nranks, op_timeout=op_timeout, live=live,
                segment_bytes=segment_bytes or DEFAULT_SEGMENT_BYTES,
                start_method=start_method,
            )
        else:
            ranks = _ThreadRanks(nranks, op_timeout, live)
        self._ranks = ranks
        self._closer = weakref.finalize(
            self, _close_ranks, ranks, os.getpid()
        )

    @property
    def closed(self) -> bool:
        return not self._closer.alive

    def call(
        self,
        fn: Callable[..., Any],
        *,
        fn_args: Sequence[Any] = (),
        fn_kwargs: "dict[str, Any] | None" = None,
        tracer: Any = None,
        timeout: "float | None" = None,
        last: bool = False,
    ) -> SpmdResult:
        """Run ``fn(comm, *fn_args, **fn_kwargs)`` on every rank.

        *tracer* may differ per call (see :func:`run_spmd`).  A *last*
        call stops each rank as soon as it has reported, and closes the
        job.  Raises what :func:`run_spmd` raises, after ending the job.
        """
        if self.closed:
            raise RuntimeError("the SPMD job is closed")
        tracing = tracer is not None and getattr(tracer, "enabled", False)
        try:
            return self._ranks.call(
                fn, tuple(fn_args), dict(fn_kwargs or {}),
                tracer if tracing else None,
                self.timeout if timeout is None else timeout,
                last,
            )
        except BaseException:
            last = True
            raise
        finally:
            if last:
                self.close()

    def close(self) -> None:
        """Stop the ranks and release every segment (idempotent)."""
        self._closer()

    def __enter__(self) -> "SpmdJob":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def run_spmd(
    fn: Callable[..., Any],
    nranks: int,
    *,
    fn_args: Sequence[Any] = (),
    fn_kwargs: dict[str, Any] | None = None,
    timeout: float = 300.0,
    op_timeout: float = 60.0,
    tracer: Any = None,
    live: Any = None,
    backend: str = "threads",
) -> SpmdResult:
    """Run ``fn(comm, *fn_args, **fn_kwargs)`` on *nranks* ranks.

    A one-call :class:`SpmdJob`: the ranks are launched, run *fn* once,
    and are stopped before this returns.

    Args:
        fn: the SPMD program.  Its first argument is this rank's
            :class:`~repro.simmpi.comm.Communicator`.  All ranks receive
            identical ``fn_args``/``fn_kwargs`` (scatter data through
            the communicator, as one would with real MPI).
        nranks: number of ranks.  ``1`` short-circuits to a
            :class:`SerialCommunicator` on the calling thread.
        backend: ``"threads"`` (default) runs ranks as OS threads —
            cheap to launch, but the GIL serializes rank compute;
            ``"procs"`` runs ranks as OS processes over shared-memory
            rings (:mod:`repro.simmpi.procs`) — real parallelism,
            identical semantics and ledger accounting; ``"serial"``
            demands the single-rank in-process path and rejects
            ``nranks > 1``.
        timeout: overall wall-clock budget for the job; exceeded ⇒
            :class:`DeadlockError` after tearing the ranks down.
        op_timeout: per-blocking-call budget inside ranks.
        tracer: optional :class:`~repro.obs.trace.Tracer`.  When given
            (and enabled), each rank gets its own lock-free event
            buffer before the job starts — reachable inside ``fn`` via
            ``comm.trace`` — and the communicator's byte meters emit
            per-message counter events onto the same timeline.  The
            tracer rides back on :attr:`SpmdResult.trace`.
        live: optional :class:`~repro.obs.live.LivePlane` with
            ``nranks`` rows.  Each rank's row is attached before the
            job starts (reachable inside ``fn`` via ``comm.live``);
            ranks heartbeat into it as they progress and the engine
            stamps terminal statuses.  The plane also upgrades the
            timeout watchdog: a :class:`DeadlockError` then names the
            stalled ranks with per-rank heartbeat ages, phases and
            rounds (``err.rank_report``).  Must be ``shared=True`` for
            ``backend="procs"``.  The plane is write-only for the
            solver, so attaching it cannot change any result.

    Returns:
        :class:`SpmdResult` with per-rank return values and the ledger.

    Raises:
        The first rank exception (re-raised on the caller's thread),
        or :class:`DeadlockError` if ranks hung.
    """
    return SpmdJob(
        nranks, backend=backend, timeout=timeout, op_timeout=op_timeout,
        live=live,
    ).call(fn, fn_args=fn_args, fn_kwargs=fn_kwargs, tracer=tracer, last=True)
