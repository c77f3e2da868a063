"""SPMD job launcher: the simulation's ``mpiexec``.

:func:`run_spmd` runs one Python function on ``nranks`` ranks and
returns every rank's return value together with the communication
ledger.  It is the only entry point the rest of the library uses to go
parallel, so the backend is a single seam: ``"threads"`` (default) runs
each rank as an OS thread with a private :class:`ThreadCommunicator`;
``"procs"`` runs each rank as an OS process with traffic over
shared-memory rings (:mod:`repro.simmpi.procs`) — real parallelism for
compute-bound rank programs; ``"serial"`` insists on the in-process
single-rank path (``nranks == 1`` short-circuits to it regardless of
backend).  A real cluster deployment (``mpiexec`` + mpi4py) is one more
value of the same seam.

Failure semantics match ``MPI_Abort``: the first rank to raise poisons
the job; every other rank's next blocking call raises
:class:`~.errors.AbortError`; the original exception is re-raised to
the caller with the failing rank attached.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..obs.live import STATUS_DONE, STATUS_FAILED, LiveSnapshot
from ..obs.log import get_logger
from ..obs.rss import peak_rss_bytes
from .errors import AbortError, DeadlockError
from .serial import SerialCommunicator
from .stats import CommLedger
from .threadcomm import JobContext, ThreadCommunicator

__all__ = ["SpmdResult", "run_spmd", "BACKENDS"]

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
            rings (:func:`repro.simmpi.procs.run_spmd_procs`) — real
            parallelism, identical semantics and ledger accounting;
            ``"serial"`` demands the single-rank in-process path and
            rejects ``nranks > 1``.
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
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    if backend == "serial" and nranks > 1:
        raise ValueError(
            f'backend="serial" supports exactly 1 rank, got nranks={nranks}'
        )
    kwargs = fn_kwargs or {}
    tracing = tracer is not None and getattr(tracer, "enabled", False)
    if live is not None and live.nranks != nranks:
        raise ValueError(
            f"live plane has {live.nranks} rows but the job has "
            f"{nranks} ranks"
        )

    if nranks == 1:
        comm = SerialCommunicator()
        if tracing:
            comm.stats.trace = tracer.for_rank(0)
        if live is not None:
            comm.stats.live = live.for_rank(0)
        try:
            value = fn(comm, *fn_args, **kwargs)
        except BaseException:
            if live is not None:
                live.mark_status(0, STATUS_FAILED)
            raise
        if live is not None:
            live.mark_status(0, STATUS_DONE)
        return SpmdResult(
            results=[value], ledger=comm.ledger,
            trace=tracer if tracing else None,
            peak_rss=[peak_rss_bytes()],
        )

    if backend == "procs":
        from .procs import run_spmd_procs

        if live is not None and not live.shared:
            raise ValueError(
                'backend="procs" needs a shared live plane; construct '
                "LivePlane(nranks, shared=True)"
            )
        return run_spmd_procs(
            fn, nranks,
            fn_args=fn_args, fn_kwargs=kwargs, timeout=timeout,
            op_timeout=op_timeout, tracer=tracer, live=live,
        )

    log.debug(
        "launching SPMD job: nranks=%d tracing=%s", nranks, tracing
    )
    ctx = JobContext(nranks, op_timeout=op_timeout)
    outcomes = [_RankOutcome() for _ in range(nranks)]

    def worker(rank: int) -> None:
        comm = ThreadCommunicator(ctx, rank)
        out = outcomes[rank]
        try:
            out.value = fn(comm, *fn_args, **kwargs)
        except AbortError:
            out.aborted = True
        except BaseException as exc:  # noqa: BLE001 - must capture to re-raise
            out.error = exc
            ctx.abort(rank, exc)
        finally:
            out.done = True

    threads = [
        threading.Thread(target=worker, args=(r,), name=f"simmpi-rank-{r}", daemon=True)
        for r in range(nranks)
    ]
    try:
        if tracing:
            # Buffers are created on the launcher thread, before any
            # rank runs, so the per-rank hot paths never touch the
            # tracer lock.
            for r in range(nranks):
                ctx.ledger.for_rank(r).trace = tracer.for_rank(r)
        if live is not None:
            # Same pre-start discipline: each rank gets its row view
            # before it runs, and is that row's only writer after.
            for r in range(nranks):
                ctx.ledger.for_rank(r).live = live.for_rank(r)
        for t in threads:
            t.start()
    except BaseException as setup_exc:
        # Partial-launch teardown: a tracer attach or thread start that
        # raises mid-setup must not leave already-started ranks blocked
        # in a collective forever.  Poison the job, give the started
        # ranks a bounded window to unwind, then re-raise the setup
        # failure (not an abort artifact).
        ctx.abort(-1, setup_exc)
        for t in threads:
            if t.is_alive():
                t.join(timeout=5.0)
        raise

    import time

    deadline = time.monotonic() + timeout
    for r, t in enumerate(threads):
        remaining = max(deadline - time.monotonic(), 0.0)
        t.join(timeout=remaining)
        if t.is_alive():
            ctx.abort(-1, DeadlockError("job timeout"))
            break
    # Second pass: give aborted ranks a moment to unwind.
    for t in threads:
        t.join(timeout=5.0)
    stuck = [r for r, t in enumerate(threads) if t.is_alive()]
    if live is not None:
        # Finished ranks' threads have exited, so the launcher can
        # safely stamp their terminal status; stalled ranks keep
        # "running" (their row still belongs to the stuck thread) and
        # are named by the watchdog report instead.
        for r, out in enumerate(outcomes):
            if out.done:
                live.mark_status(
                    r,
                    STATUS_DONE if out.error is None and not out.aborted
                    else STATUS_FAILED,
                )
    if stuck:
        err = DeadlockError(
            f"ranks {stuck} still blocked after {timeout:.1f}s job timeout",
            rank_report=_watchdog_report(
                live, ctx.ledger, stuck=stuck, outcomes=outcomes
            ),
        )
        err.spmd_ledger = ctx.ledger
        raise err

    for rank, out in enumerate(outcomes):
        if out.error is not None:
            # Completed phases' meters survive the failure: callers can
            # inspect what the job did up to the abort, on either
            # backend, through the same attribute.
            out.error.spmd_ledger = ctx.ledger
            if isinstance(out.error, DeadlockError):
                # A rank-raised op timeout (recv with no sender) is as
                # much a deadlock verdict as the engine's own job
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
        trace=tracer if tracing else None,
        # One address space: every rank reports the shared process peak.
        peak_rss=[peak_rss_bytes()] * nranks,
    )
