"""Command-line interface: ``repro-infomap`` / ``python -m repro.cli``.

Subcommands:

* ``cluster``   — run sequential / distributed Infomap (or GossipMap)
  on an edge-list file or a named dataset stand-in and write the
  partition; ``--trace run.json`` also records a run-trace artifact.
* ``inspect``   — summarize a run-trace artifact (slowest rank per
  phase, convergence table, communication totals) or convert it to a
  Perfetto-loadable timeline.
* ``partition`` — compare 1D vs delegate partitioning for a graph.
* ``ingest``    — stream an edge file into an on-disk memory-mapped
  CSR store (two-pass external build; bounded RSS); the store then
  feeds ``cluster --store DIR`` and the out-of-core ``--ooc`` path.
* ``update``    — incremental re-solve: apply a delta file (edge
  inserts/deletes/reweights) to a clustered graph and warm-start from
  the cached partition, re-optimizing only the changed region.
* ``status``    — attach to an in-flight run started with ``--live``
  and print one coherent per-rank progress snapshot (``--prom`` for
  Prometheus text exposition, ``--gc`` to reap dead runs' segments).
* ``watch``     — poll a live run's snapshot until it finishes.
* ``bench``     — regenerate one of the paper's tables/figures.
* ``datasets``  — list the available Table-1 stand-ins.

Examples::

    repro-infomap cluster --dataset dblp --method distributed --ranks 8
    repro-infomap cluster --dataset dblp --method distributed \\
        --ranks auto --backend procs
    repro-infomap cluster --dataset dblp --method distributed \\
        --ranks 8 --trace run.json
    repro-infomap inspect run.json --perfetto run.perfetto.json
    repro-infomap cluster --input graph.txt --method sequential -o out.tsv
    repro-infomap ingest --input big.txt.gz --out big.csr
    repro-infomap cluster --store big.csr --method distributed \\
        --ranks 4 --backend procs --ooc
    repro-infomap cluster --input graph.txt -o part.tsv
    repro-infomap cluster --dataset dblp --method distributed \\
        --ranks 8 --backend procs --live     # prints a run id, then:
    repro-infomap status --latest            # ...from another shell
    repro-infomap watch <run-id>
    repro-infomap update --input graph.txt --partition part.tsv \\
        --delta day1.delta -o part1.tsv
    repro-infomap partition --dataset uk2005 --ranks 32
    repro-infomap bench --experiment fig7 --ranks 32
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser", "parse_ranks"]


def parse_ranks(value: str) -> int:
    """``--ranks`` argument type: an integer, or ``auto``.

    ``auto`` resolves to the host's CPU count (``os.cpu_count()``),
    which is the natural rank count for the process backend — one
    interpreter per core.  Falls back to 1 if the count is unknown.
    """
    if value.strip().lower() == "auto":
        import os

        return os.cpu_count() or 1
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"ranks must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-infomap",
        description="Distributed Infomap (ICPP 2018 reproduction)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="enable rank-aware logging at LEVEL (DEBUG, INFO, ...)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", help="edge-list file (u v [w] per line)")
        src.add_argument("--dataset", help="named Table-1 stand-in")
        src.add_argument(
            "--store", metavar="DIR",
            help="on-disk CSR store built by the 'ingest' subcommand; "
                 "opens as memory-mapped columns in O(1)",
        )
        p.add_argument("--scale", type=float, default=1.0,
                       help="dataset stand-in scale factor")
        p.add_argument("--seed", type=int, default=0)

    pc = sub.add_parser("cluster", help="run community detection")
    add_graph_source(pc)
    pc.add_argument(
        "--method",
        choices=["sequential", "distributed", "gossipmap"],
        default="sequential",
    )
    pc.add_argument("--ranks", type=parse_ranks, default=4, metavar="N|auto",
                    help="simulated MPI ranks (distributed/gossipmap); "
                         "'auto' = one rank per CPU core")
    pc.add_argument(
        "--backend",
        choices=["threads", "procs", "serial"],
        default="threads",
        help="SPMD execution backend: 'threads' (default, GIL-bound), "
             "'procs' (one process per rank over shared memory — same "
             "results, real parallelism), 'serial' (single rank only)",
    )
    pc.add_argument("--output", "-o", help="write 'vertex<TAB>module' here")
    pc.add_argument("--d-high", type=int, default=None,
                    help="delegate degree threshold (default: adaptive)")
    pc.add_argument("--batch-size", type=int, default=None,
                    help="move-kernel block size (0 = scalar sweep)")
    pc.add_argument(
        "--ooc", action="store_true",
        help="out-of-core partition-then-load: each rank memory-maps "
             "only its contiguous shard of the CSR store instead of "
             "the driver broadcasting whole-graph views (requires "
             "--store and --method distributed)",
    )
    pc.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a run-trace artifact to PATH",
    )
    pc.add_argument(
        "--live", action="store_true",
        help="publish a live telemetry plane for this run; prints a run "
             "id early so 'repro-infomap status <id>' / 'watch' can "
             "attach from another shell while the solve is in flight",
    )

    pi = sub.add_parser(
        "inspect", help="summarize or convert a run-trace artifact"
    )
    pi.add_argument("artifact", help="run-trace artifact (from --trace)")
    pi.add_argument(
        "--perfetto", metavar="OUT", default=None,
        help="also write a Perfetto/chrome://tracing timeline to OUT",
    )
    pi.add_argument("--top", type=int, default=5,
                    help="rows to show per counter section")

    pp = sub.add_parser("partition", help="compare 1D vs delegate partitioning")
    add_graph_source(pp)
    pp.add_argument("--ranks", type=int, default=16)
    pp.add_argument("--d-high", type=int, default=None)

    pg = sub.add_parser(
        "ingest",
        help="build an on-disk CSR store from an edge file (two-pass, "
             "streaming — never holds all edges in memory)",
    )
    pg.add_argument("--input", required=True,
                    help="edge file (.gz transparent)")
    pg.add_argument("--format", choices=["edgelist", "metis", "snap"],
                    default="edgelist", dest="fmt",
                    help="input format (default: edgelist; 'snap' is an "
                         "edge list with '#' comment headers, as "
                         "distributed by the SNAP collection)")
    pg.add_argument("--out", required=True, metavar="DIR",
                    help="store directory (created if missing)")
    pg.add_argument("--chunk-bytes", type=int, default=None,
                    help="streaming read chunk size in bytes")
    pg.add_argument(
        "--weighted", choices=["auto", "yes", "no"], default="auto",
        help="edge-list third column handling (default: auto-detect)",
    )
    pg.add_argument("--dedup", choices=["sum", "first", "error"],
                    default="sum",
                    help="parallel-edge policy, edgelist only "
                         "(default: sum)")
    pg.add_argument("--keep-self-loops", action="store_true",
                    help="keep self-loops instead of dropping them "
                         "(edgelist only)")

    pu = sub.add_parser(
        "update",
        help="apply a delta file to a clustered graph and warm-start "
             "re-solve only the changed region (incremental Infomap)",
    )
    src = pu.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="edge-list file (u v [w] per line)")
    src.add_argument(
        "--store", metavar="DIR",
        help="on-disk CSR store; patched in place after a successful "
             "re-solve so it stays the source of truth",
    )
    pu.add_argument("--partition", required=True, metavar="TSV",
                    help="cached partition from 'cluster -o' "
                         "(vertex<TAB>module per line) — the warm seed")
    pu.add_argument("--delta", required=True, metavar="FILE",
                    help="delta file: '+ u v [w]' insert, '- u v' "
                         "delete, '~ u v w' reweight, one per line")
    pu.add_argument("--method", choices=["sequential", "distributed"],
                    default="sequential")
    pu.add_argument("--ranks", type=parse_ranks, default=4,
                    metavar="N|auto")
    pu.add_argument("--backend", choices=["threads", "procs", "serial"],
                    default="threads")
    pu.add_argument("--seed", type=int, default=0)
    pu.add_argument("--dirty-hops", type=int, default=None,
                    help="first-sweep radius around delta endpoints "
                         "(default: config's warm_dirty_hops)")
    pu.add_argument("--output", "-o",
                    help="write the updated 'vertex<TAB>module' here")
    pu.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a run-trace artifact (includes the delta instant)",
    )
    pu.add_argument(
        "--live", action="store_true",
        help="publish a live telemetry plane (see 'cluster --live'); "
             "the batch counter and codelength update per absorbed delta",
    )

    ps = sub.add_parser(
        "status",
        help="snapshot an in-flight run published with --live",
    )
    ps.add_argument(
        "run_id", nargs="?", default=None,
        help="run id printed by --live (omitted: list published runs)",
    )
    ps.add_argument("--latest", action="store_true",
                    help="attach to the most recently started run")
    ps.add_argument(
        "--prom", action="store_true",
        help="emit Prometheus text exposition instead of the table",
    )
    ps.add_argument(
        "--gc", action="store_true",
        help="reap segments/sidecars whose owner process is gone "
             "(crashed or killed runs cannot unlink their own)",
    )

    pw = sub.add_parser(
        "watch", help="poll a live run's snapshot until it finishes"
    )
    pw.add_argument("run_id", nargs="?", default=None,
                    help="run id (default: the most recent run)")
    pw.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                    help="seconds between snapshots (default: 2)")
    pw.add_argument("--count", type=int, default=None, metavar="N",
                    help="stop after N snapshots even if still running")

    pb = sub.add_parser("bench", help="regenerate a paper table/figure")
    pb.add_argument(
        "--experiment",
        required=True,
        choices=["table1", "fig4", "fig5", "table2", "fig6", "fig7",
                 "fig8", "fig9", "fig10", "table3"],
    )
    pb.add_argument("--ranks", type=int, default=None)
    pb.add_argument("--scale", type=float, default=None)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--output", "-o",
                    help="also export rows (.csv) or the full result (.json)")

    sub.add_parser("datasets", help="list the dataset stand-ins")
    return parser


def _load_graph(args: argparse.Namespace):
    from .graph import load_dataset, open_csr_store, read_edgelist

    if getattr(args, "store", None):
        # O(1) reopen: the CSR columns stay memory-mapped on disk.
        return open_csr_store(args.store), None
    if args.dataset:
        data = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
        return data.graph, data.labels
    graph = read_edgelist(args.input)
    return graph, None


def _live_start(method: str, nranks: int, command: str):
    """Create + publish a shared live plane; print its run id early.

    The id line is flushed before the solve starts so a second shell
    can ``repro-infomap status <id>`` while the run is in flight.
    """
    from .obs import LivePlane

    plane = LivePlane(nranks, shared=True)
    plane.publish(command=command, method=method)
    print(
        f"live run id: {plane.run_id}  "
        f"(attach with: repro-infomap status {plane.run_id})",
        flush=True,
    )
    return plane


def _live_finish(plane, ok: bool) -> None:
    """Stamp terminal status on rows the solver left running.

    The SPMD engine stamps rank statuses itself; the sequential solver
    (and an aborted run) leaves rows at STATUS_RUNNING, which would
    read as a live-but-silent rank to any observer still attached.
    """
    from .obs.live import STATUS_DONE, STATUS_FAILED, STATUS_RUNNING

    status = STATUS_DONE if ok else STATUS_FAILED
    for r in range(plane.nranks):
        if int(plane.for_rank(r).value("status")) == STATUS_RUNNING:
            plane.mark_status(r, status)


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .baselines import gossipmap
    from .core import (
        InfomapConfig,
        distributed_infomap,
        external_infomap,
        sequential_infomap,
    )
    from .metrics import nmi

    if args.ooc and (not args.store or args.method != "distributed"):
        print(
            "error: --ooc requires --store DIR and --method distributed",
            file=sys.stderr,
        )
        return 2
    graph, labels = _load_graph(args)
    cfg_kwargs: dict = {
        "seed": args.seed,
        "d_high": args.d_high,
        "backend": args.backend,
    }
    if args.batch_size is not None:
        cfg_kwargs["batch_size"] = args.batch_size
    cfg = InfomapConfig(**cfg_kwargs)

    nranks = 1 if args.method == "sequential" else args.ranks
    tracer = None
    if args.trace:
        from .obs import Tracer

        tracer = Tracer()
    live_plane = None
    if args.live:
        live_plane = _live_start(args.method, nranks, "cluster")

    ok = False
    try:
        if args.method == "sequential":
            result = sequential_infomap(
                graph, cfg, tracer=tracer, live=live_plane
            )
        elif args.method == "distributed":
            if args.ooc:
                # Partition-then-load: the driver ships only the store
                # path and shard plan; each rank memmaps its own rows.
                result = external_infomap(
                    args.store, args.ranks, cfg,
                    tracer=tracer, live=live_plane,
                )
            else:
                result = distributed_infomap(
                    graph, args.ranks, cfg,
                    tracer=tracer, live=live_plane,
                )
        else:
            result = gossipmap(
                graph, args.ranks, cfg, tracer=tracer, live=live_plane
            )
        ok = True
    finally:
        if live_plane is not None:
            _live_finish(live_plane, ok)
            live_plane.close(unlink=True)

    print(result.summary())
    if tracer is not None:
        from .obs import build_manifest, build_run_artifact, write_run_artifact

        manifest = build_manifest(
            config=cfg,
            nranks=nranks,
            graph=graph,
            method=args.method,
        )
        artifact = build_run_artifact(tracer, result, manifest=manifest)
        write_run_artifact(args.trace, artifact)
        print(
            f"run trace written to {args.trace} "
            f"({artifact['num_events']} events, {artifact['nranks']} ranks)"
        )
    if labels is not None:
        print(f"NMI vs ground truth: {nmi(result.membership, labels):.4f}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            for v, m in enumerate(result.membership.tolist()):
                fh.write(f"{v}\t{m}\n")
        print(f"partition written to {args.output}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .bench.report import format_value, render_table
    from .obs import (
        comm_wait_rows,
        counter_final_values,
        delta_rows,
        load_run_artifact,
        span_seconds_by_rank,
        write_chrome_trace,
    )

    artifact = load_run_artifact(args.artifact)
    manifest = artifact.get("manifest", {})
    res = artifact.get("result", {})

    head = [f"run-trace artifact: {args.artifact}"]
    if manifest:
        head.append(
            f"  method={manifest.get('method', '?')}"
            f"  nranks={artifact.get('nranks')}"
            f"  seed={manifest.get('seed', '?')}"
        )
        g = manifest.get("graph", {})
        if g:
            head.append(
                f"  graph: {g.get('num_vertices')} vertices, "
                f"{g.get('num_edges')} edges, "
                f"fingerprint {str(g.get('fingerprint', ''))[:12]}"
            )
    if res:
        head.append(
            f"  result: L={format_value(float(res['codelength']))} bits, "
            f"{res['num_modules']} modules, converged={res['converged']}"
        )
    head.append(f"  events: {artifact.get('num_events')}")
    print("\n".join(head))

    events = artifact.get("events", [])

    # Slowest rank per span name (Fig-8 style breakdown).
    spans = span_seconds_by_rank(events)
    if spans:
        rows = []
        for name in sorted(spans, key=lambda n: -max(spans[n].values())):
            per_rank = spans[name]
            worst = max(per_rank, key=lambda r: per_rank[r])
            rows.append(
                {
                    "span": name,
                    "slowest_rank": worst,
                    "seconds": per_rank[worst],
                    "mean_seconds": sum(per_rank.values()) / len(per_rank),
                }
            )
        print()
        print(render_table(rows[: args.top], title="slowest rank per span"))

    # Round-by-round convergence.
    conv = artifact.get("convergence", [])
    if conv:
        print()
        print(
            render_table(
                conv,
                title="convergence by (level, round)",
                columns=[
                    "level", "round", "codelength", "moves",
                    "boundary_bytes", "frontier", "swap_backs",
                    "exact_rescores", "bulk_commits",
                ],
            )
        )


    # Incremental delta batches (warm-start session instants).
    deltas = delta_rows(events)
    if deltas:
        print()
        print(
            render_table(
                deltas,
                title="incremental delta batches",
                columns=[
                    "batch", "insert", "delete", "reweight",
                    "dirty_vertices", "dirty_fraction", "split_modules",
                    "launched", "codelength", "solve_seconds",
                ],
            )
        )

    # Per-phase communication totals.
    phase_comm = artifact.get("phase_comm", {})
    if phase_comm:
        rows = [
            {
                "phase": ph,
                "bytes": slot["bytes"],
                "messages": slot["messages"],
                "wait_s": slot.get("wait_seconds", 0.0),
                "overlap_s": slot.get("overlap_seconds", 0.0),
            }
            for ph, slot in sorted(
                phase_comm.items(), key=lambda kv: -kv[1]["bytes"]
            )
        ]
        print()
        print(render_table(rows, title="communication by phase"))

    # Per-rank request-wait accounting (nonblocking overlap view).
    wait_rows = artifact.get("comm_wait")
    if wait_rows is None:
        wait_rows = comm_wait_rows(events)
    if any(
        r.get("wait_seconds", 0.0) or r.get("overlap_seconds", 0.0)
        for r in wait_rows
    ):
        print()
        print(
            render_table(
                wait_rows,
                title="request waits by rank (blocked vs hidden)",
                columns=[
                    "rank", "wait_seconds", "overlap_seconds",
                    "hidden_fraction",
                ],
            )
        )

    # Final counter values (top by magnitude across ranks).
    counters = counter_final_values(events)
    if counters:
        rows = [
            {
                "counter": name,
                "max_over_ranks": max(per_rank.values()),
                "ranks": len(per_rank),
            }
            for name, per_rank in counters.items()
        ]
        rows.sort(key=lambda r: -abs(r["max_over_ranks"]))
        print()
        print(render_table(rows[: args.top], title="counters (final values)"))

    if args.perfetto:
        write_chrome_trace(args.perfetto, artifact)
        print(f"\nPerfetto trace written to {args.perfetto}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from .partition import compare_partitions

    graph, _ = _load_graph(args)
    cmp = compare_partitions(graph, args.ranks, d_high=args.d_high)
    print(f"p={cmp.nranks}  d_high={cmp.d_high}  hubs={cmp.num_hubs}")
    print(cmp.workload_1d)
    print(cmp.workload_delegate)
    print(cmp.ghosts_1d)
    print(cmp.ghosts_delegate)
    print(f"workload max improvement: {cmp.workload_improvement():.2f}x")
    print(f"ghost max improvement:    {cmp.ghost_improvement():.2f}x")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import time

    from .graph import edgelist_to_store, metis_to_store, snap_to_store
    from .graph.io import DEFAULT_CHUNK_BYTES
    from .obs.rss import peak_rss_bytes

    chunk = args.chunk_bytes or DEFAULT_CHUNK_BYTES
    t0 = time.perf_counter()
    if args.fmt == "metis":
        header = metis_to_store(args.input, args.out, chunk_bytes=chunk)
    elif args.fmt == "snap":
        weighted = {"auto": None, "yes": True, "no": False}[args.weighted]
        header = snap_to_store(
            args.input, args.out,
            weighted=weighted, chunk_bytes=chunk,
            dedup=args.dedup, keep_self_loops=args.keep_self_loops,
        )
    else:
        weighted = {"auto": None, "yes": True, "no": False}[args.weighted]
        header = edgelist_to_store(
            args.input, args.out,
            weighted=weighted, chunk_bytes=chunk,
            dedup=args.dedup, keep_self_loops=args.keep_self_loops,
        )
    dt = time.perf_counter() - t0
    edges = int(header["num_edges"])
    print(
        f"store written to {args.out}: "
        f"{header['num_vertices']} vertices, {edges} edges, "
        f"nnz={header['nnz']}, total_weight={header['total_weight']:.6g}"
    )
    print(
        f"built in {dt:.2f}s ({edges / max(dt, 1e-9):,.0f} edges/s), "
        f"peak RSS {peak_rss_bytes() / (1 << 20):.1f} MiB"
    )
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from .core import IncrementalSession, InfomapConfig
    from .graph import (
        apply_delta_to_store,
        open_csr_store,
        read_delta_file,
        read_edgelist,
    )

    delta = read_delta_file(args.delta)
    if args.store:
        graph = open_csr_store(args.store)
    else:
        graph = read_edgelist(args.input)

    membership = np.full(graph.num_vertices, -1, dtype=np.int64)
    with open(args.partition, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 2:
                print(
                    f"error: {args.partition}:{lineno}: expected "
                    f"'vertex<TAB>module', got {line.rstrip()!r}",
                    file=sys.stderr,
                )
                return 2
            membership[int(parts[0])] = int(parts[1])
    if (membership < 0).any():
        print(
            f"error: {args.partition} does not cover all "
            f"{graph.num_vertices} vertices",
            file=sys.stderr,
        )
        return 2

    cfg_kwargs: dict = {"seed": args.seed, "backend": args.backend}
    if args.dirty_hops is not None:
        cfg_kwargs["warm_dirty_hops"] = args.dirty_hops
    cfg = InfomapConfig(**cfg_kwargs)
    tracer = None
    if args.trace:
        from .obs import Tracer

        tracer = Tracer()

    nranks = args.ranks if args.method == "distributed" else 1
    live_plane = _live_start(args.method, nranks, "update") \
        if args.live else None
    ok = False
    try:
        with IncrementalSession.from_membership(
            graph, membership, cfg, nranks=nranks, tracer=tracer,
            live=live_plane,
        ) as session:
            cached_len = session.result.codelength
            result = session.update(delta)
        ok = True
    finally:
        if live_plane is not None:
            _live_finish(live_plane, ok)
            live_plane.close(unlink=True)
    event = session.events[-1]

    print(result.summary())
    c = delta.counts()
    print(
        f"delta: +{c['insert']} -{c['delete']} ~{c['reweight']} edges, "
        f"dirty region {event['dirty_vertices']} vertices "
        f"({event['dirty_fraction']:.1%}), "
        f"{event['split_modules']} cut modules split, "
        f"L {cached_len:.6f} -> {result.codelength:.6f} bits"
    )

    if args.store:
        header = apply_delta_to_store(args.store, delta)
        print(
            f"store {args.store} patched in place: "
            f"{header['num_vertices']} vertices, "
            f"{header['num_edges']} edges"
        )
    if tracer is not None:
        from .obs import build_manifest, build_run_artifact, write_run_artifact

        manifest = build_manifest(
            config=cfg,
            nranks=nranks,
            graph=session.graph,
            method=args.method,
        )
        artifact = build_run_artifact(tracer, result, manifest=manifest)
        write_run_artifact(args.trace, artifact)
        print(
            f"run trace written to {args.trace} "
            f"({artifact['num_events']} events)"
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            for v, m in enumerate(result.membership.tolist()):
                fh.write(f"{v}\t{m}\n")
        print(f"updated partition written to {args.output}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .obs.live import LiveSnapshot, gc_stale_runs, list_live_runs

    if args.gc:
        removed = gc_stale_runs()
        if removed:
            print("reaped stale live runs: " + ", ".join(removed))
        else:
            print("no stale live runs")
        if not args.run_id and not args.latest:
            return 0

    try:
        if args.run_id:
            snap = LiveSnapshot.attach(args.run_id)
        elif args.latest:
            snap = LiveSnapshot.attach_latest()
        else:
            runs = list_live_runs()
            if not runs:
                print("no live runs published")
            import time as _time

            now = _time.time()
            for meta in runs:
                age = now - float(meta.get("started", now))
                print(
                    f"{meta['run_id']}  nranks={meta.get('nranks', '?')}"
                    f"  pid={meta.get('pid', '?')}"
                    f"  age={age:.0f}s"
                    f"  command={meta.get('command', '?')}"
                )
            return 0
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.prom:
        sys.stdout.write(snap.to_prometheus())
    else:
        print(snap.render())
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    import time as _time

    from .obs.live import STATUS_RUNNING, LiveSnapshot

    prev = None
    run_id = args.run_id
    ticks = 0
    while True:
        try:
            snap = (LiveSnapshot.attach(run_id) if run_id
                    else LiveSnapshot.attach_latest())
        except FileNotFoundError as exc:
            if prev is None:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            # The run finished and tore its plane down between polls.
            print("live run ended (plane unpublished)")
            return 0
        run_id = snap.run_id  # pin --latest to the first run seen
        print(snap.render(prev), flush=True)
        ticks += 1
        if (snap.field("status") != STATUS_RUNNING).all():
            print("all ranks reached a terminal status")
            return 0
        if args.count is not None and ticks >= args.count:
            return 0
        prev = snap
        print()
        _time.sleep(args.interval)


def _cmd_bench(args: argparse.Namespace) -> int:
    from . import bench

    drivers = {
        "table1": bench.table1,
        "fig4": bench.fig4_convergence,
        "fig5": bench.fig5_merging_rate,
        "table2": bench.table2_quality,
        "fig6": bench.fig6_workload_balance,
        "fig7": bench.fig7_comm_balance,
        "fig8": bench.fig8_time_breakdown,
        "fig9": bench.fig9_scalability,
        "fig10": bench.fig10_parallel_efficiency,
        "table3": bench.table3_speedup,
    }
    fn = drivers[args.experiment]
    kwargs: dict = {"seed": args.seed}
    if args.scale is not None:
        if args.experiment == "fig10":
            kwargs["scale_large"] = args.scale
        else:
            kwargs["scale"] = args.scale
    if args.ranks is not None:
        if args.experiment in ("fig8", "fig9"):
            kwargs["nranks_list"] = (args.ranks,)
        elif args.experiment not in ("table1", "fig10"):
            kwargs["nranks"] = args.ranks
    out = fn(**kwargs)
    print(out["text"])
    if args.output:
        from .bench import result_to_json, rows_to_csv

        if str(args.output).endswith(".json"):
            result_to_json(out, args.output)
        else:
            rows_to_csv(out["rows"], args.output)
        print(f"exported to {args.output}")
    return 0


def _cmd_datasets() -> int:
    from .graph import DATASET_SPECS

    for name, spec in DATASET_SPECS.items():
        print(
            f"{name:14s} {spec.paper_name:14s} paper: "
            f"{spec.paper_vertices:>8s} V, {spec.paper_edges:>7s} E — "
            f"{spec.description}"
        )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        from .obs import configure_logging

        configure_logging(args.log_level)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command == "partition":
        return _cmd_partition(args)
    if args.command == "ingest":
        return _cmd_ingest(args)
    if args.command == "update":
        return _cmd_update(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "datasets":
        return _cmd_datasets()
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":
    sys.exit(main())
