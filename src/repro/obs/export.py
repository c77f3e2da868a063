"""Run artifacts and timeline export.

Two output formats:

* the **run artifact** — one self-contained JSON file holding the
  merged event log, the per-round convergence series, aggregate
  counters and the provenance manifest.  This is the durable record a
  run leaves behind (`repro-infomap cluster --trace run.json`) and the
  input `repro-infomap inspect` works from;
* the **Chrome trace-event** export — the artifact's timeline in the
  JSON format Perfetto / ``chrome://tracing`` load directly, with one
  track (``tid``) per rank, phase spans as complete events and the
  communication meters as counter tracks.

Aggregation helpers (:func:`convergence_rows`,
:func:`phase_byte_totals`, :func:`span_seconds_by_rank`) operate on the
plain event list, so they work identically on a live
:class:`~repro.obs.trace.Tracer` and on a loaded artifact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

__all__ = [
    "ARTIFACT_SCHEMA",
    "build_run_artifact",
    "write_run_artifact",
    "load_run_artifact",
    "to_chrome_trace",
    "write_chrome_trace",
    "convergence_rows",
    "delta_rows",
    "phase_byte_totals",
    "span_seconds_by_rank",
    "counter_final_values",
    "comm_wait_rows",
]

#: Artifact schema identifier; bump on breaking layout changes.
ARTIFACT_SCHEMA = "repro-run-trace/1"

#: Counter names the communication meters emit (see
#: :meth:`RankStats.record_send` / :meth:`RankStats.record_collective`);
#: their per-phase delta sums reconcile with ``CommLedger.bytes_by_phase``.
_COMM_BYTE_METERS = ("p2p_bytes_sent", "collective_bytes_in")

#: Counter names the request-wait meters emit (see
#: :meth:`RankStats.record_wait_seconds` /
#: :meth:`RankStats.record_overlap_seconds`): seconds a rank was truly
#: blocked in ``Request.wait`` vs request latency hidden behind compute.
_COMM_TIME_METERS = ("comm_wait_seconds", "comm_overlap_seconds")


# ---------------------------------------------------------------------------
# Event-list aggregation
# ---------------------------------------------------------------------------

def convergence_rows(events: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    """The per-round convergence series from ``round`` instant events.

    One row per ``(level, round)``: the globally-consistent values
    (``codelength``, ``moves``) come from the first rank that reported
    the round; the per-rank values (``boundary_bytes``, ``frontier``,
    ``swap_backs``, ``exact_rescores``, ``bulk_commits``) are summed
    across ranks.
    """
    rows: dict[tuple[int, int], dict[str, Any]] = {}
    for ev in events:
        if ev.get("kind") != "instant" or ev.get("name") != "round":
            continue
        args = ev.get("args", {})
        key = (int(ev.get("level", 0)), int(ev.get("round", 0)))
        row = rows.get(key)
        if row is None:
            rows[key] = {
                "level": key[0],
                "round": key[1],
                "codelength": args.get("codelength"),
                "moves": args.get("moves"),
                "boundary_bytes": int(args.get("boundary_bytes", 0)),
                "frontier": int(args.get("frontier", 0)),
                "swap_backs": int(args.get("swap_backs", 0)),
                "exact_rescores": int(args.get("exact_rescores", 0)),
                "bulk_commits": int(args.get("bulk_commits", 0)),
                "ranks": 1,
            }
        else:
            row["boundary_bytes"] += int(args.get("boundary_bytes", 0))
            row["frontier"] += int(args.get("frontier", 0))
            row["swap_backs"] += int(args.get("swap_backs", 0))
            row["exact_rescores"] += int(args.get("exact_rescores", 0))
            row["bulk_commits"] += int(args.get("bulk_commits", 0))
            row["ranks"] += 1
    return [rows[k] for k in sorted(rows)]


def delta_rows(events: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    """Delta-batch events from ``delta`` instants.

    An :class:`~repro.core.incremental.IncrementalSession` emits one
    driver-side instant per absorbed batch (rank 0); one row per batch
    in emission order — the ``inspect`` deltas table.
    """
    rows: list[dict[str, Any]] = []
    for ev in events:
        if ev.get("kind") != "instant" or ev.get("name") != "delta":
            continue
        args = ev.get("args", {})
        rows.append(
            {
                "batch": args.get("batch"),
                "edges": args.get("edges"),
                "insert": args.get("insert"),
                "delete": args.get("delete"),
                "reweight": args.get("reweight"),
                "dirty_vertices": args.get("dirty_vertices"),
                "dirty_fraction": args.get("dirty_fraction"),
                "split_modules": args.get("split_modules"),
                "launched": args.get("launched"),
                "codelength": args.get("codelength"),
                "solve_seconds": args.get("solve_seconds"),
            }
        )
    rows.sort(key=lambda r: (r["batch"] is None, r["batch"]))
    return rows


def phase_byte_totals(
    events: Sequence[dict[str, Any]]
) -> dict[str, dict[str, Any]]:
    """Per-phase traffic recomputed from the meter events.

    Returns ``{phase: {"bytes": int, "messages": int,
    "bytes_per_rank": {rank: int}, "wait_seconds": float,
    "overlap_seconds": float}}`` — the time fields are the all-rank
    sums of seconds truly blocked in request waits vs request latency
    hidden behind compute in that phase.  By construction (every
    ``record_send``/``record_collective`` emits exactly one meter event
    carrying its byte delta) these totals equal the
    :class:`~repro.simmpi.stats.CommLedger` ``bytes_by_phase`` /
    ``messages_by_phase`` aggregates exactly — the trace is a
    *superset* of the ledger, not a parallel estimate.
    """
    out: dict[str, dict[str, Any]] = {}

    def _slot(phase: str) -> dict[str, Any]:
        return out.setdefault(
            phase,
            {
                "bytes": 0, "messages": 0, "bytes_per_rank": {},
                "wait_seconds": 0.0, "overlap_seconds": 0.0,
            },
        )

    for ev in events:
        if ev.get("kind") != "counter":
            continue
        name = ev.get("name")
        if name in _COMM_TIME_METERS:
            slot = _slot(ev.get("phase", "default"))
            key = (
                "wait_seconds" if name == "comm_wait_seconds"
                else "overlap_seconds"
            )
            slot[key] += float(ev.get("delta", 0.0))
            continue
        if name not in _COMM_BYTE_METERS:
            continue
        phase = ev.get("phase", "default")
        slot = _slot(phase)
        delta = int(ev.get("delta", 0))
        rank = int(ev["rank"])
        slot["bytes"] += delta
        slot["messages"] += 1
        slot["bytes_per_rank"][rank] = (
            slot["bytes_per_rank"].get(rank, 0) + delta
        )
    return out


def comm_wait_rows(events: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per-rank request-wait accounting, one row per rank.

    ``[{"rank", "wait_seconds", "overlap_seconds", "hidden_fraction"}]``
    sorted by rank — ``hidden_fraction`` is overlap/(wait+overlap), the
    share of total request latency the sweep hid behind compute (0.0
    when no requests were waited on).  Fed by the same counter events
    :func:`phase_byte_totals` folds per phase, so the two views
    reconcile exactly.
    """
    wait: dict[int, float] = {}
    overlap: dict[int, float] = {}
    for ev in events:
        if ev.get("kind") != "counter":
            continue
        name = ev.get("name")
        if name not in _COMM_TIME_METERS:
            continue
        acc = wait if name == "comm_wait_seconds" else overlap
        rank = int(ev["rank"])
        acc[rank] = acc.get(rank, 0.0) + float(ev.get("delta", 0.0))
    rows = []
    for rank in sorted(set(wait) | set(overlap)):
        w = wait.get(rank, 0.0)
        o = overlap.get(rank, 0.0)
        rows.append(
            {
                "rank": rank,
                "wait_seconds": w,
                "overlap_seconds": o,
                "hidden_fraction": (o / (w + o)) if (w + o) > 0 else 0.0,
            }
        )
    return rows


def span_seconds_by_rank(
    events: Sequence[dict[str, Any]]
) -> dict[str, dict[int, float]]:
    """Total span seconds per ``(name, rank)`` — the Fig-8 input.

    ``{span_name: {rank: seconds}}``, from which "slowest rank per
    phase" falls out as an argmax per name.
    """
    out: dict[str, dict[int, float]] = {}
    for ev in events:
        if ev.get("kind") != "span":
            continue
        per_rank = out.setdefault(ev["name"], {})
        rank = int(ev["rank"])
        per_rank[rank] = per_rank.get(rank, 0.0) + ev.get("dur_us", 0.0) / 1e6
    return out


def counter_final_values(
    events: Sequence[dict[str, Any]]
) -> dict[str, dict[int, float]]:
    """Last sampled value per ``(counter name, rank)``.

    For cumulative meters this is the rank's final total; for sampled
    counters (codelength, frontier) the value at the last sample.
    """
    out: dict[str, dict[int, float]] = {}
    for ev in events:
        if ev.get("kind") != "counter":
            continue
        out.setdefault(ev["name"], {})[int(ev["rank"])] = float(ev["value"])
    return out


# ---------------------------------------------------------------------------
# The run artifact
# ---------------------------------------------------------------------------

def build_run_artifact(
    tracer: Any,
    result: Any = None,
    *,
    manifest: "dict[str, Any] | None" = None,
) -> dict[str, Any]:
    """Assemble the self-contained run artifact from a finished tracer.

    Args:
        tracer: the :class:`~repro.obs.trace.Tracer` the run wrote into.
        result: optional :class:`~repro.core.result.ClusteringResult`;
            its summary fields and codelength history are embedded so
            the artifact stands alone.
        manifest: provenance dict from
            :func:`repro.obs.manifest.build_manifest`.
    """
    events = tracer.merged_events()
    artifact: dict[str, Any] = {
        "schema": ARTIFACT_SCHEMA,
        "manifest": manifest or {},
        "nranks": tracer.nranks,
        "num_events": len(events),
        "convergence": convergence_rows(events),
        "phase_comm": phase_byte_totals(events),
        "comm_wait": comm_wait_rows(events),
        "events": events,
    }
    if result is not None:
        artifact["result"] = {
            "method": result.method,
            "codelength": float(result.codelength),
            "num_modules": int(result.num_modules),
            "num_vertices": int(result.num_vertices),
            "converged": bool(result.converged),
            "codelength_history": [
                float(x)
                for x in result.extras.get(
                    "codelength_history", [result.codelength]
                )
            ],
        }
    return artifact


def write_run_artifact(path: "str | Path", artifact: dict[str, Any]) -> None:
    """Write an artifact as JSON (numpy scalars coerced)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=1, default=_coerce)


def load_run_artifact(path: "str | Path") -> dict[str, Any]:
    """Load and validate a run artifact written by :func:`write_run_artifact`."""
    with open(path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    schema = artifact.get("schema") if isinstance(artifact, dict) else None
    if schema != ARTIFACT_SCHEMA:
        raise ValueError(
            f"{path}: not a run-trace artifact "
            f"(schema={schema!r}, expected {ARTIFACT_SCHEMA!r})"
        )
    return artifact


# ---------------------------------------------------------------------------
# Chrome trace-event (Perfetto) export
# ---------------------------------------------------------------------------

def to_chrome_trace(artifact_or_events: Any) -> dict[str, Any]:
    """Convert an artifact (or bare event list) to Chrome trace-event JSON.

    The output loads in Perfetto / ``chrome://tracing``: one process,
    one thread track per rank (named ``rank N``), spans as complete
    (``"ph": "X"``) events categorized by phase, instants as ``"i"``,
    and counters as per-rank ``"C"`` tracks.
    """
    if isinstance(artifact_or_events, dict):
        events = artifact_or_events.get("events", [])
        nranks = int(artifact_or_events.get("nranks", 0))
    else:
        events = list(artifact_or_events)
        nranks = 1 + max((int(e["rank"]) for e in events), default=-1)

    trace_events: list[dict[str, Any]] = [
        {
            "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
            "args": {"name": "repro-infomap"},
        }
    ]
    for rank in range(nranks):
        trace_events.append(
            {
                "ph": "M", "name": "thread_name", "pid": 0, "tid": rank,
                "args": {"name": f"rank {rank}"},
            }
        )
        trace_events.append(
            {
                "ph": "M", "name": "thread_sort_index", "pid": 0,
                "tid": rank, "args": {"sort_index": rank},
            }
        )

    for ev in events:
        kind = ev.get("kind")
        rank = int(ev["rank"])
        args = dict(ev.get("args", {}))
        for tag in ("level", "round", "phase"):
            if tag in ev:
                args[tag] = ev[tag]
        if kind == "span":
            trace_events.append(
                {
                    "ph": "X",
                    "name": ev["name"],
                    "cat": ev.get("phase", "span"),
                    "pid": 0,
                    "tid": rank,
                    "ts": ev["ts_us"],
                    "dur": ev.get("dur_us", 0.0),
                    "args": args,
                }
            )
        elif kind == "instant":
            trace_events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": ev["name"],
                    "cat": ev.get("phase", "instant"),
                    "pid": 0,
                    "tid": rank,
                    "ts": ev["ts_us"],
                    "args": args,
                }
            )
        elif kind == "counter":
            # Counter tracks are keyed by (pid, name); fold the rank
            # into the name so each rank gets its own series.
            trace_events.append(
                {
                    "ph": "C",
                    "name": f"rank{rank}/{ev['name']}",
                    "pid": 0,
                    "tid": rank,
                    "ts": ev["ts_us"],
                    "args": {ev["name"]: ev["value"]},
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: "str | Path", artifact_or_events: Any) -> None:
    """Write the Perfetto-loadable trace JSON next to an artifact."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(artifact_or_events), fh, default=_coerce)


def _coerce(obj: Any) -> Any:
    """JSON fallback for numpy scalars/arrays."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")
