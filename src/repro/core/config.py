"""Configuration for the sequential and distributed Infomap algorithms.

One dataclass covers both: the distributed-only knobs are ignored by
the sequential solver.  Every field corresponds to a parameter the
paper names (θ, max iterations, d_high, the min-label heuristic, the
full-module-info swap), an ablation DESIGN.md calls out, or a setting
a benchmark or the CLI varies.  Fixed guards no run varies are module
constants beside their readers: ``sequential.MAX_SWEEPS``,
``moves.MIN_IMPROVEMENT``, ``distributed.TIE_EPS`` and
``distributed.MIN_VERTICES_PER_RANK`` and
``shard.DEFAULT_CHUNK_ENTRIES``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

__all__ = ["InfomapConfig"]


@dataclass(frozen=True)
class InfomapConfig:
    """Knobs for Infomap runs.

    Attributes:
        threshold: θ of Algorithm 1 — stop the outer (level) loop when
            one level improves the codelength by less than this many
            bits.
        max_levels: cap on outer iterations (Algorithm 1's
            ``maxiteration``).
        seed: RNG seed for the randomized vertex visit order
            (Algorithm 1 line 13).
        shuffle: randomize the visit order each sweep; False gives the
            deterministic 0..n-1 order (useful in tests).

        d_high: delegate degree threshold; ``None`` uses the paper's
            default ``d_high = p`` (the rank count).
        rebalance: apply §3.3 step 4 (re-place hub edges onto
            underloaded ranks).  This partition-time step is the only
            rebalancing: the layout stays fixed through the rounds.
        min_label: apply the min-label anti-bouncing rule to boundary
            moves (§3.4): candidates within ``distributed.TIE_EPS`` of
            the best tie toward the smallest id.  Turning it off is the
            non-convergence ablation.
        full_module_info: swap whole-community ``Module_Info`` records
            (Algorithm 3).  False falls back to the naive boundary-ID
            exchange the paper shows loses accuracy — the information
            -swap ablation.
        move_rule: how a vertex picks its target module.
            ``"map_equation"`` (default) greedily minimizes ΔL — the
            Infomap rule.  ``"max_flow"`` moves to the neighbouring
            module receiving the vertex's maximum aggregate link flow —
            the local decision rule the paper attributes to the
            GossipMap family (§2.3), used by the baseline; quality is
            not guaranteed to improve monotonically under it.
        delta_swap: cross-round change detection on the swap traffic —
            a module's contribution / a boundary vertex's id is re-sent
            only when it changed (receivers cache-and-replace).  The
            natural production extension of Algorithm 3's within-round
            ``isSent`` dedup; False is the paper-literal always-send
            protocol (the communication ablation).
        delegate_consensus: how delegate (hub) moves reach consensus.
            ``"aggregate"`` (default) all-gathers each hub's per-module
            link flows first, so every rank scores the hub against its
            *global* adjacency before the minimum-ΔL winner is chosen —
            at laptop scale (few edges per rank) this is needed to keep
            quality near sequential.  ``"min_local"`` is the paper's
            literal rule — each rank proposes from its local hub-edge
            subset only and the minimum local ΔL wins — which is cheap
            and adequate when every rank holds millions of hub edges;
            it is kept as the fidelity ablation.
        prune_inactive: after the first round of a level, re-evaluate
            only vertices whose neighbourhood or module changed (the
            prioritization idea of Bae et al.'s follow-up work, cited
            by the paper).  Quality-neutral in practice and removes the
            dominant re-scan cost of near-converged rounds; disable for
            the strict every-vertex-every-round sweep.
        round_threshold_rel: relative per-round stop criterion for a
            distributed level — rounds end once the codelength has not
            improved by ``max(threshold, round_threshold_rel·|L|)``
            within the patience window.  The paper's Figure 4 shows
            convergence within a handful of outer iterations, which
            implies a loose effective θ; a purely absolute 1e-8-bit
            threshold grinds through dozens of no-progress rounds
            instead.  Set to 0 for absolute-threshold behaviour.
        max_rounds: cap on move/swap rounds inside one distributed
            level (safety net; convergence normally ends rounds).
        backend: SPMD execution backend for distributed runs.
            ``"threads"`` (default) runs each rank as an OS thread —
            cheap, but the GIL serializes rank compute; ``"procs"``
            runs each rank as an OS process with shared-memory frame
            transport (:mod:`repro.simmpi.procs`) — real parallelism
            with identical results and ledger accounting; ``"serial"``
            insists on the single-rank in-process path.  An explicit
            ``backend=`` argument to the solver entry points overrides
            this field.
        batch_size: vertices scored per batched move-evaluation call
            (see :mod:`repro.core.kernels`).  The batch path is
            decision-equivalent to the scalar kernels by construction
            (snapshot scoring + drift guard + scalar fallback), so this
            only trades memory/locality against vectorization; ``0``
            disables batching entirely (the legacy one-vertex-at-a-time
            path, kept for ablations and equivalence tests).
        overlap: when True (default) the distributed sweep splits each
            rank's vertices into boundary (ghosted on some peer) and
            interior sets, commits the boundary first, posts the
            membership-sync exchange and the round's reductions as
            nonblocking requests (:mod:`repro.simmpi.requests`), and
            sweeps the interior while those requests drain — hiding
            communication latency behind compute.  Both modes issue the
            identical request sequence; the flag only moves the
            ``wait()`` from immediately-after-post (blocking oracle) to
            the point the value is consumed, so memberships, codelength
            trajectories, and logical comm ledgers are bitwise-identical
            either way (enforced by ``tests/test_overlap_equivalence``).
            Seconds truly blocked vs hidden are metered separately as
            ``comm_wait_seconds`` / ``comm_overlap_seconds``.
        warm_dirty_hops: incremental warm starts
            (:mod:`repro.core.incremental`) keep every vertex in its
            cached module and initialize the active sweep set to the
            vertices within this many hops of a delta's endpoints (plus
            the members of any module a delete cut in two).  1 hop
            (default) covers every vertex whose map-equation
            neighbourhood term a delta can change; raise it to widen
            the re-optimized region (more work, potentially better
            quality on aggressive deltas).
        tracer: optional :class:`~repro.obs.trace.Tracer` receiving the
            run's per-rank event stream (phase spans, round convergence
            samples, communication counters).  ``None`` (default) turns
            tracing off entirely; the solvers then pay one attribute
            check per would-be event.  Excluded from equality/repr and
            from serialized provenance — it describes how the run is
            observed, not what runs, and tracing is guaranteed not to
            change any decision (enforced by
            ``tests/test_obs_trace.py``).  An explicit ``tracer=``
            argument to the solver entry points overrides this field.
        live: optional :class:`~repro.obs.live.LivePlane` the run
            publishes in-flight progress into (round, phase, moves,
            codelength, byte totals, heartbeats) — the mid-run
            complement of ``tracer``, readable while the solve is
            still executing (``repro-infomap status``).  Must have one
            row per rank, and ``shared=True`` for ``backend="procs"``.
            ``None`` (default) turns the plane off; the solvers then
            pay one attribute check per would-be update.  Excluded
            from equality/repr and provenance for the same reason as
            ``tracer``: the plane is write-only for the solver, so
            live-on runs are bitwise-identical to live-off (enforced
            by ``benchmarks/test_live_overhead.py``).  An explicit
            ``live=`` argument to the solver entry points overrides
            this field.
    """

    threshold: float = 1e-8
    max_levels: int = 50
    seed: int = 42
    shuffle: bool = True

    d_high: int | None = None
    rebalance: bool = True
    min_label: bool = True
    full_module_info: bool = True
    move_rule: str = "map_equation"
    delta_swap: bool = True
    delegate_consensus: str = "aggregate"
    prune_inactive: bool = True
    round_threshold_rel: float = 1e-4
    max_rounds: int = 60
    batch_size: int = 256
    overlap: bool = True
    backend: str = "threads"
    warm_dirty_hops: int = 1
    tracer: Any = field(default=None, compare=False, repr=False)
    live: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if self.max_levels < 1:
            raise ValueError(f"max_levels must be >= 1, got {self.max_levels}")
        if self.d_high is not None and self.d_high < 1:
            raise ValueError(f"d_high must be >= 1 or None, got {self.d_high}")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.round_threshold_rel < 0:
            raise ValueError("round_threshold_rel must be >= 0")
        if self.batch_size < 0:
            raise ValueError(
                f"batch_size must be >= 0 (0 = scalar path), "
                f"got {self.batch_size}"
            )
        if self.warm_dirty_hops < 0:
            raise ValueError(
                f"warm_dirty_hops must be >= 0, got {self.warm_dirty_hops}"
            )
        if self.move_rule not in ("map_equation", "max_flow"):
            raise ValueError(
                "move_rule must be 'map_equation' or 'max_flow', "
                f"got {self.move_rule!r}"
            )
        if self.backend not in ("threads", "procs", "serial"):
            raise ValueError(
                "backend must be 'threads', 'procs' or 'serial', "
                f"got {self.backend!r}"
            )
        if self.delegate_consensus not in ("aggregate", "min_local"):
            raise ValueError(
                "delegate_consensus must be 'aggregate' or 'min_local', "
                f"got {self.delegate_consensus!r}"
            )

    def with_(self, **changes: Any) -> "InfomapConfig":
        """A copy with the given fields replaced (frozen-friendly)."""
        return replace(self, **changes)

    def resolve_d_high(self, nranks: int, mean_degree: float | None = None
                       ) -> int:
        """The effective delegate threshold for a job of *nranks*.

        With ``d_high=None`` and a known *mean_degree*, applies the
        scale-adapted default (see the attribute docs); without a mean
        degree it falls back to the paper's literal ``d_high = p``.
        """
        if self.d_high is not None:
            return self.d_high
        if mean_degree is None:
            return max(1, nranks)
        return max(1, nranks, int(round(8.0 * mean_degree)))
