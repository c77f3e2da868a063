"""Observability: run traces, artifacts, Perfetto export, logging.

The paper's whole evaluation (Figs 7–9) is built on per-rank, per-phase
observations; this package is the reproduction's first-class version of
that instrumentation:

* :mod:`repro.obs.trace` — per-rank append-only event buffers (spans,
  instants, counters), lock-free on the hot path, merged
  deterministically at job finalize;
* :mod:`repro.obs.export` — the self-contained run artifact (events +
  convergence series + provenance) and the Chrome trace-event export
  Perfetto / ``chrome://tracing`` load with one track per rank;
* :mod:`repro.obs.manifest` — provenance (config, seeds, ranks, codec,
  versions, graph fingerprint);
* :mod:`repro.obs.log` — rank-aware stdlib logging (off by default);
* :mod:`repro.obs.rss` — resident-set-size probes that rank programs
  sample without importing the experiment harness.

Quick start::

    from repro import DistributedInfomap, load_dataset
    from repro.obs import Tracer, build_manifest, build_run_artifact

    tracer = Tracer()
    data = load_dataset("dblp")
    result = DistributedInfomap(nranks=8, tracer=tracer).run(data.graph)
    artifact = build_run_artifact(
        tracer, result,
        manifest=build_manifest(nranks=8, graph=data.graph),
    )

then ``repro-infomap inspect run.json --perfetto timeline.json`` on the
written artifact.
"""

from .export import (
    ARTIFACT_SCHEMA,
    build_run_artifact,
    comm_wait_rows,
    convergence_rows,
    counter_final_values,
    delta_rows,
    load_run_artifact,
    phase_byte_totals,
    span_seconds_by_rank,
    to_chrome_trace,
    write_chrome_trace,
    write_run_artifact,
)
from .log import (
    DEFAULT_FORMAT,
    LOGGER_NAME,
    RankContextFilter,
    configure_logging,
    get_logger,
)
from .live import (
    LIVE_FIELDS,
    NULL_LIVE,
    LiveMetrics,
    LivePlane,
    LiveSnapshot,
    gc_stale_runs,
    list_live_runs,
    live_run_dir,
)
from .manifest import build_manifest, config_dict, graph_fingerprint
from .trace import (
    EVENT_KINDS,
    NULL_BUFFER,
    NullTracer,
    RankTraceBuffer,
    Tracer,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "DEFAULT_FORMAT",
    "EVENT_KINDS",
    "LIVE_FIELDS",
    "LOGGER_NAME",
    "LiveMetrics",
    "LivePlane",
    "LiveSnapshot",
    "NULL_BUFFER",
    "NULL_LIVE",
    "NullTracer",
    "RankContextFilter",
    "RankTraceBuffer",
    "Tracer",
    "build_manifest",
    "build_run_artifact",
    "config_dict",
    "configure_logging",
    "convergence_rows",
    "comm_wait_rows",
    "counter_final_values",
    "delta_rows",
    "gc_stale_runs",
    "get_logger",
    "graph_fingerprint",
    "list_live_runs",
    "live_run_dir",
    "load_run_artifact",
    "phase_byte_totals",
    "span_seconds_by_rank",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_run_artifact",
]
