"""Batched move evaluation, and the one batched sweep of both solvers.

The per-vertex scorers (:func:`repro.core.moves.score_vertex`, which
``best_move`` wraps, and the distributed ``_score_candidates``, which
``_evaluate_move`` wraps) pay a fixed interpreter cost per vertex — a
neighbourhood aggregation unless a block's cached segment is reused,
then a handful of numpy calls around one ``np.log2`` (sequential) or a
loop of ``math.log2`` calls (distributed) — so interpreter overhead,
not arithmetic, dominates greedy sweeps.  The distributed scorer keeps
``math.log2`` because its deltas must reproduce the pinned golden
digests (``tests/golden/distributed.json``) bit for bit, and
``np.log2`` differs from it in the last bit on some inputs (below).
This module evaluates every candidate move of a whole block of
vertices in O(1) numpy calls:

1. gather the block's CSR adjacency slices in one shot
   (:func:`repro.graph.graph.gather_rows`),
2. key every non-self entry by ``(vertex, neighbour_module)`` packed
   into one int64 (``owner * id_space + module``),
3. segment-reduce link flows over the keys, and
4. evaluate ΔL for all candidates of all vertices in one
   :func:`repro.core.mapequation.block_deltas` call: one masked
   ``np.log2`` pass over every ``plogp`` argument of the block, the
   current-module terms evaluated once per vertex and gathered per
   candidate.

Exactness contract
------------------

The sequential consumer commits batch decisions directly, so the batch
numbers must be **bitwise identical** to the scalar path's, not merely
close.  Three empirically-verified numpy facts make that possible, and
the fourth bullet follows from them:

* ``np.bincount(inv, weights=w)`` accumulates each bin's partial sum
  sequentially in entry order (it matches a Python ``+=`` loop to the
  last bit), whereas ``np.add.reduceat`` and ``ndarray.sum()`` use
  pairwise summation and do **not**.  The batch segment reduction
  therefore sorts the keys with a stable ``argsort`` and bincounts the
  sorted entries: the stable sort keeps each ``(vertex, module)``
  group's entries in CSR order, the order in which the scalar
  ``neighbor_module_flows`` (``np.unique`` + ``np.bincount`` over the
  inverse, or a dict ``+=``) accumulates them, so every aggregated flow
  is bitwise equal to its scalar counterpart.
* :func:`~repro.core.mapequation.block_deltas` is purely elementwise
  (no reductions; gathering a per-vertex value per candidate copies its
  bits), so feeding it bitwise-equal inputs yields bitwise-equal
  deltas.
* ``np.log2`` gives an element the same bits whether it is evaluated
  as a 0-d array or at any position of an array of any length (SIMD
  dispatch does not change the result), so
  :func:`repro.core.moves.score_vertex` can push all of a vertex's
  ``plogp`` arguments, and :func:`score_block` all of a block's (the
  exit sum, four per vertex and five per candidate), through one
  masked ``np.log2`` call per vertex or per block and still match
  ``plogp``'s per-term calls bit for bit.  ``math.log2`` does
  *not* share this guarantee: it disagrees with ``np.log2`` in the last
  bit on a small fraction of inputs on AVX-512 hosts, so the sequential
  path uses it only to certify (below), never in a committed value
  (and the distributed path, whose digests were recorded with
  ``math.log2``, never switches to ``np.log2``).
  ``tests/test_kernels.py`` pins this fact.
* Two candidates of one vertex whose ``(q, p, d_new)`` are bitwise
  equal get bitwise-equal deltas on every path — the batch kernel, the
  sequential ``score_vertex`` and the distributed ``_score_candidates``
  each evaluate one fixed expression on the same operands — so the
  first-argmin rule resolves their tie to the same module everywhere.
  :func:`score_block` therefore measures ``runner_gap`` to the best
  candidate whose inputs are *not* bitwise equal to the argmin's
  (compared as int64 bit patterns, only for vertices whose plain gap
  is exactly 0); a certification against that gap holds on every path.

Per-vertex totals ``x_u`` are summed over the *aggregated* per-module
flows in ascending-module order (one more ``bincount``); the scalar
``neighbor_module_flows`` sums in the same order, keeping the committed
``apply_move`` arguments bitwise identical between paths.

Snapshot semantics and the drift guard
--------------------------------------

A block is scored against module aggregates frozen at block start.
Commits earlier in the same block invalidate a later vertex's score in
three ways:

* the global ``sum_exit`` drifted.  ΔL depends on ``sum_exit`` only
  through ``plogp(S + c) − plogp(S)`` with ``|c| ≤ 2·x_u``, whose
  derivative magnitude is ``|log2(1 + c/S)| ≤ 4·x_u/(S_min·ln 2)``
  once ``S_min ≥ 4·x_u``, giving the bound returned by
  :func:`drift_guard_bound`;
* a module in the vertex's candidate set (its neighbour modules or its
  current module) changed aggregates — detected exactly through the
  ``touched`` module set, because a moved neighbour's *old* module
  necessarily appears in the vertex's snapshot candidate set;
* a neighbour moved, so the cached segment itself is stale.

For one vertex, ΔL of the move into candidate ``m`` splits as
``[plogp(S + 2(d_old − d_m)) − plogp(S)] + B + C(m)``: ``B``
(:func:`leave_term`) depends only on the current module's ``(q, p)``
and ``C(m)`` only on module ``m``'s.  So a commit that touched only the
current module shifts every candidate's delta by the same
``B_live − B_snap`` (O(1), on the ``q_old``/``p_old`` snapshot kept on
:class:`BlockScore`): argmin and ``runner_gap`` stand, only the margin
moves.  A touched candidate changes only its own ``C(m)``, which
:func:`candidate_deltas` recomputes on the live aggregates.

The ladder and its module stores
--------------------------------

Algorithm 2 line 3 runs Algorithm 1's greedy move against a rank's
module table, so both solvers sweep through the one :func:`sweep`.
Per block of the sweep order it (1) scores the block; (2) skips it if
every vertex certifiably stays; (3) certifies each vertex none of whose
modules a commit touched against the drift bound; (4) re-scores a
vertex whose stored neighbour moved with the exact scorer on a fresh
aggregation; (5) certifies a vertex with a touched module on shifted or
recomputed deltas (:meth:`_Walk.certify`); and (6) re-scores the rest,
the gray zone, with the exact scorer on the cached segment, which then
equals a fresh aggregation bitwise.  Every estimate lies within ``e =
drift_guard_bound(..) + CERT_SLACK`` of the exact live delta, so a stay
(``margin ≥ e``) or the argmin's commit (``margin ≤ −e`` and
``runner_gap ≥ 2e``) is provably the exact scorer's decision.  A
certified commit takes every ``apply_move`` argument from the segment.

The bulk step takes step 3 a run at a time (:meth:`_Walk.run`).  A run
is consecutive block vertices, each *clean* (its current and segment
modules untouched by the walk's commits and by the moves of the run's
earlier vertices) and certified at step 3 (a stay, or a move into a
module outside ``bmods``); it ends before the first vertex that is
not, or whose move the store would refuse.  The sign of a vertex's
margin tells in advance whether it would move (``margin ≤ −e ≤ 0``,
a stay needs ``margin ≥ e ≥ 0``), so one pass over the block finds,
for each vertex, the last earlier mover that touches a module it
reads, and a run is decided without scoring anything again:

* every module of a clean run is written at most once, by one move,
  from aggregates no other move of the run changed, so the value each
  move writes (a :class:`~repro.core.mapequation.RunPlan` computes
  them all in ``apply_move``'s operand order from the snapshot) is
  bitwise the scalar commit's;
* the exit sum each vertex of the run sees is the one the earlier
  moves leave, their changes (and ModuleStats's empty-module clamps)
  added one at a time by ``np.add.accumulate``, which is sequential:
  bitwise the scalar commits' ``+=``.  So is each vertex's ``e``.

The store commits the run's moves in one call, ``commit_run``, and the
walk resumes at the vertex after the run with the scalar steps.
Whether to try a run is decided from what the walk already has: a
block must have ``_RUN_MIN`` moves a run could commit, and a run is
tried after ``_RUN_MIN`` clean vertices in a row or right after a run
at least that long.  Memberships, codelengths and the store's exact
calls are those of the walk without the bulk step.

A *module store* is what the ladder reads and writes:

* ``score(block) -> (BlockAggregates, BlockScore)``;
* ``sum_exit()``, and ``record(m)``: module ``m``'s live
  :func:`module_record`;
* ``exact(u, cur, walk=None, i=0)``: the exact scorer on a fresh
  aggregation or on block vertex *i*'s cached segment
  (``walk.segment``); ``(target, p_u, x_u, d_old, d_new)``, or ``None``
  for a stay;
* ``commit(u, cur, target, p_u, x_u, d_old, d_new) -> bool``; ``False``
  (the distributed swap-back refusal) changes nothing;
* ``commit_run(plan, lo, hi) -> int``: commit moves ``lo:hi`` of a
  :class:`~repro.core.mapequation.RunPlan` in order, up to the first
  one ``commit`` would refuse; returns how many it committed.
  ``plan_extras(pos, entries, old, new)`` adds the rest of a plan for
  block vertices *pos* leaving modules *old* for the modules *new* of
  segment *entries*: the joined modules' aggregates, both member
  counts, and the table's column slots or ModuleStats's clamp.
  ``id_space`` bounds the module ids;
* ``zero_slack``: 0 for ``ModuleStats``, whose batch deltas are bitwise
  ``score_vertex``'s, :data:`CERT_SLACK` for the module table;
* ``indptr``/``indices``: the CSR rows step 4 reads;
* the min-label hooks, live only while ``bmods`` (the set of modules
  under the rule) is non-empty: ``bmask``, a ``bool[id_space]`` mask
  of ``bmods`` (``None`` while it is empty, and always on the
  ``ModuleStats`` store) that the candidate mask inside ``score`` and
  the bulk step read, one gather per block,
  ``pinned(i, cur)`` (the admissible set may have changed: go exact)
  and ``rebreak(deltas, best, k, e)`` (the near-tie re-break's index,
  certified to ``±2e``, or ``None``).  The sequential store's ``bmods``
  is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .mapequation import RunPlan, block_deltas

__all__ = [
    "BlockAggregates",
    "BlockScore",
    "MIN_IMPROVEMENT",
    "aggregate_block_flows",
    "aggregate_module_flows",
    "score_block",
    "drift_guard_bound",
    "CERT_SLACK",
    "module_record",
    "leave_term",
    "candidate_deltas",
    "sweep",
]

#: A move must achieve ``δL < -MIN_IMPROVEMENT`` to count: the paper's
#: strict ``δL < 0`` with a float-noise guard.  Both solvers read it.
MIN_IMPROVEMENT = 1e-12

_LN2 = math.log(2.0)

# Neighbourhood size below which a plain Python dict beats np.unique's
# sort for per-vertex module aggregation (scale-free graphs are
# dominated by such short rows).
_SMALL_NEIGHBORHOOD = 48


def aggregate_module_flows(
    nbrs: np.ndarray, flows: np.ndarray, u: int, module_of: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Aggregate vertex *u*'s link flows (to *nbrs*) per neighbouring
    module; self-loops are dropped (they never exit).

    The single shared scalar-path reduction: both the sequential
    :func:`repro.core.moves.neighbor_module_flows` and the distributed
    ``_evaluate_move`` route through here, so their numbers cannot
    drift apart from the batch kernel's (the PR-1 review bug class).

    Returns ``(sorted unique module ids, aggregated flows, x_u)``.
    Bitwise contract (see module docs): per-module sums accumulate
    sequentially in entry order (dict ``+=`` below ≡ ``np.bincount``'s
    in-order bin accumulation), and ``x_u`` is summed over the
    *aggregated* flows in ascending module order (``np.cumsum`` ≡ the
    batch kernel's ``bincount`` of segment totals) — so every value is
    bitwise identical to :func:`aggregate_block_flows`'s.
    """
    nonself = nbrs != u
    if not nonself.all():
        nbrs = nbrs[nonself]
        flows = flows[nonself]
    if nbrs.size == 0:
        return np.empty(0, np.int64), np.empty(0), 0.0
    mods = module_of[nbrs]
    if mods.size <= _SMALL_NEIGHBORHOOD:
        acc: dict[int, float] = {}
        for m, f in zip(mods.tolist(), flows.tolist()):
            acc[m] = acc.get(m, 0.0) + f
        uniq = np.fromiter(sorted(acc), dtype=np.int64, count=len(acc))
        agg = np.asarray([acc[m] for m in uniq.tolist()])
    else:
        u, inv = np.unique(mods, return_inverse=True)
        agg = np.bincount(inv, weights=flows, minlength=u.size)
        uniq = u.astype(np.int64)
    return uniq, agg, float(np.cumsum(agg)[-1])


@dataclass(frozen=True)
class BlockAggregates:
    """Per-(vertex, neighbour-module) link flows for a block.

    ``seg_mods[seg_ptr[i]:seg_ptr[i+1]]`` are vertex ``block[i]``'s
    neighbouring module ids in ascending order, with ``seg_flows`` the
    vertex's link flow into each — the batched equivalent of one
    ``neighbor_module_flows`` call per vertex.
    """

    block: np.ndarray  # int64[B] vertex (or local) ids
    current: np.ndarray  # int64[B] current module per vertex
    p_u: np.ndarray  # float64[B] visit probabilities
    x_u: np.ndarray  # float64[B] total non-self link flow
    d_old: np.ndarray  # float64[B] flow into the current module
    seg_ptr: np.ndarray  # int64[B+1] per-vertex segment offsets
    seg_owner: np.ndarray  # int64[S] block position of each segment
    seg_mods: np.ndarray  # int64[S] neighbouring module ids (ascending)
    seg_flows: np.ndarray  # float64[S] aggregated link flows


@dataclass(frozen=True)
class BlockScore:
    """Best/runner-up move of every vertex in a scored block.

    ``best_delta`` is ``+inf`` for vertices with no candidate target
    (then ``best_target == current``).  ``runner_gap`` is the delta gap
    to the best candidate whose ``(q, p, d_new)`` are not bitwise the
    argmin's (``+inf`` when there is none) — the quantity the drift
    guard needs to certify that the argmin cannot have flipped.
    ``q_old``/``p_old`` are the current modules' aggregates the block
    was scored against (what the ladder's step 5 shifts from).

    ``cand_mods[cand_ptr[i]:cand_ptr[i+1]]`` are vertex ``i``'s
    admissible targets in ascending module order with their
    deltas/flows — what the ladder shifts, partially re-scores and
    certifies min-label tie re-breaks on.
    """

    best_target: np.ndarray  # int64[B]
    best_delta: np.ndarray  # float64[B]
    best_d_new: np.ndarray  # float64[B]
    runner_gap: np.ndarray  # float64[B]
    q_old: np.ndarray  # float64[B] snapshot current-module q
    p_old: np.ndarray  # float64[B] snapshot current-module p
    cand_ptr: np.ndarray  # int64[B+1]
    cand_mods: np.ndarray  # int64[C]
    cand_deltas: np.ndarray  # float64[C]
    cand_flows: np.ndarray  # float64[C]


def aggregate_block_flows(
    indptr: np.ndarray,
    indices: np.ndarray,
    flows: np.ndarray,
    block: np.ndarray,
    module_of: np.ndarray,
    node_flow: np.ndarray,
    *,
    id_space: int,
) -> BlockAggregates:
    """Stage 1+2+3 of the batch kernel: gather, key, segment-reduce.

    Args:
        indptr, indices, flows: the CSR arrays (``Graph`` or
            ``LocalGraph`` layout — any index namespace works as long
            as ``module_of``/``block`` share it).
        block: ``int64[B]`` distinct row ids to score.
        module_of: module id per *index value* (so ``module_of[nbr]``
            and ``module_of[block]`` are valid).
        node_flow: visit probability per row id.
        id_space: exclusive upper bound on module ids, used to pack
            ``(vertex, module)`` into one int64 key.
    """
    from ..graph.graph import gather_rows

    block = np.asarray(block, dtype=np.int64)
    b = block.size
    entries, owner = gather_rows(indptr, block)
    nbrs = indices[entries]
    flws = flows[entries]
    nonself = nbrs != block[owner]
    if not bool(nonself.all()):
        owner = owner[nonself]
        nbrs = nbrs[nonself]
        flws = flws[nonself]
    current = module_of[block]
    p_u = node_flow[block].astype(np.float64, copy=True)

    if owner.size == 0:
        return BlockAggregates(
            block=block, current=current, p_u=p_u,
            x_u=np.zeros(b), d_old=np.zeros(b),
            seg_ptr=np.zeros(b + 1, dtype=np.int64),
            seg_owner=np.empty(0, np.int64),
            seg_mods=np.empty(0, np.int64),
            seg_flows=np.empty(0),
        )

    key = owner * np.int64(id_space) + module_of[nbrs]
    perm = np.argsort(key, kind="stable")
    key = key[perm]
    head = np.empty(key.size, dtype=bool)  # each key's first entry
    head[0] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    uniq = key[head]
    # The stable sort keeps each key's entries in CSR order, and
    # bincount accumulates each bin in array order — the
    # bitwise-exactness requirement (module docs).
    seg_flows = np.bincount(
        np.cumsum(head) - 1, weights=flws[perm], minlength=uniq.size
    )
    seg_owner = uniq // np.int64(id_space)
    seg_mods = uniq - seg_owner * np.int64(id_space)
    seg_ptr = np.searchsorted(seg_owner, np.arange(b + 1, dtype=np.int64))
    x_u = np.bincount(seg_owner, weights=seg_flows, minlength=b)

    d_old = np.zeros(b)
    at_cur = seg_mods == current[seg_owner]
    d_old[seg_owner[at_cur]] = seg_flows[at_cur]

    return BlockAggregates(
        block=block, current=current, p_u=p_u, x_u=x_u, d_old=d_old,
        seg_ptr=seg_ptr, seg_owner=seg_owner, seg_mods=seg_mods,
        seg_flows=seg_flows,
    )


def score_block(
    agg: BlockAggregates,
    *,
    q_seg: np.ndarray,
    p_seg: np.ndarray,
    q_old: np.ndarray,
    p_old: np.ndarray,
    sum_exit: float,
    cand_mask: "np.ndarray | None" = None,
) -> BlockScore:
    """Stage 4: one ΔL evaluation over every candidate of every vertex
    (:func:`~repro.core.mapequation.block_deltas`, one ``np.log2``
    pass), then each vertex's first argmin and runner-up gap.

    Args:
        q_seg, p_seg: exit flow / visit mass of ``agg.seg_mods`` (the
            caller resolves them — dense ``ModuleStats`` arrays for the
            sequential path, a sorted table snapshot for the
            distributed one).
        q_old, p_old: the same aggregates for each vertex's current
            module (``float64[B]``).
        sum_exit: global Σq at snapshot time.
        cand_mask: optional ``bool[S]`` admissibility mask over
            ``agg.seg_mods`` — ``False`` entries are never targets (the
            distributed min-label rule removes candidates this way).
    """
    b = agg.block.size
    best_target = agg.current.copy()
    best_delta = np.full(b, np.inf)
    best_d_new = agg.d_old.copy()
    runner_gap = np.full(b, np.inf)

    cand = agg.seg_mods != agg.current[agg.seg_owner]
    if cand_mask is not None:
        cand &= cand_mask
    if not bool(cand.any()):
        return BlockScore(
            best_target, best_delta, best_d_new, runner_gap,
            q_old=q_old, p_old=p_old,
            cand_ptr=np.zeros(b + 1, dtype=np.int64),
            cand_mods=np.empty(0, np.int64),
            cand_deltas=np.empty(0),
            cand_flows=np.empty(0),
        )

    cown = agg.seg_owner[cand]
    cmods = agg.seg_mods[cand]
    cflow = agg.seg_flows[cand]
    cq = q_seg[cand]
    cp = p_seg[cand]
    deltas = block_deltas(
        sum_exit=sum_exit, q_old=q_old, p_old=p_old, p_u=agg.p_u,
        x_u=agg.x_u, d_old=agg.d_old, owner=cown, q_new=cq, p_new=cp,
        d_new=cflow,
    )

    cptr = np.searchsorted(cown, np.arange(b + 1, dtype=np.int64))
    counts = np.diff(cptr)
    nz = np.flatnonzero(counts > 0)
    starts = cptr[nz]
    # reduceat is safe here: min is exactly associative, unlike +.
    mins = np.minimum.reduceat(deltas, starts)
    best_delta[nz] = mins
    # First candidate achieving the per-vertex min — candidates ascend
    # by module id inside each segment, so this reproduces the scalar
    # argmin-first tie-break exactly.
    at_min = deltas == best_delta[cown]
    c = deltas.size
    first = np.minimum.reduceat(np.where(at_min, np.arange(c), c), starts)
    best_target[nz] = cmods[first]
    best_d_new[nz] = cflow[first]
    masked = deltas.copy()
    masked[first] = np.inf
    gaps = np.minimum.reduceat(masked, starts) - mins
    tied = gaps == 0.0
    if bool(tied.any()):
        # A candidate whose (q, p, d_new) are bitwise the argmin's gets
        # a bitwise-equal delta on every path, so the first-argmin rule
        # picks the argmin everywhere: measure the gap past such
        # candidates instead (module docs, exactness contract).  Only
        # a candidate at its vertex's min can be one.
        at_min[first] = False
        sel = np.flatnonzero(at_min)
        ref = np.empty(b, dtype=np.int64)
        ref[nz] = first
        ref = ref[cown[sel]]
        same = np.ones(sel.size, dtype=bool)
        for col in (cq, cp, cflow):
            bits = col.view(np.int64)
            same &= bits[sel] == bits[ref]
        masked[sel[same]] = np.inf
        gaps[tied] = np.minimum.reduceat(masked, starts)[tied] - mins[tied]
    runner_gap[nz] = gaps
    return BlockScore(
        best_target, best_delta, best_d_new, runner_gap,
        q_old=q_old, p_old=p_old, cand_ptr=cptr, cand_mods=cmods,
        cand_deltas=deltas, cand_flows=cflow,
    )


def drift_guard_bound(
    drift: float, x_u: float, s0: float, s_now: float
) -> float:
    """Upper bound on |ΔL(S_now) − ΔL(S0)| for one vertex's candidates.

    ΔL depends on the global exit sum S only through
    ``plogp(S + c) − plogp(S)`` with ``|c| ≤ 2·x_u``; over
    ``S ≥ S_min ≥ 4·x_u`` the integrand ``|log2(1 + c/S)|`` is at most
    ``4·x_u/(S_min·ln 2)``.  Returns ``inf`` (always fall back) when
    the precondition fails; returns exactly ``0.0`` at zero drift so
    the guard degenerates to bitwise-identical decisions.
    """
    if drift == 0.0:
        return 0.0
    s_min = min(s0, s_now)
    if s_min <= 4.0 * x_u:
        return math.inf
    return abs(drift) * 4.0 * x_u / (s_min * _LN2)




#: The one certification slack, added to :func:`drift_guard_bound`
#: wherever a certified value was not computed bitwise as the exact
#: scorer computes it: the module table's batch deltas (numpy against
#: ``_score_candidates``'s ``math.log2``) and the shifted or recomputed
#: deltas of the ladder's step 5 (:func:`leave_term`,
#: :func:`candidate_deltas`).  Flows are normalised, so every ``plogp``
#: argument is at most 2 and every term at most 2 in magnitude.  Those
#: values build the exact scorer's ``q``/``q + p`` arguments bitwise;
#: only the exit sum after the move, ``S'``, is associated through the
#: snapshot's ``q_old`` instead of the live one and differs by a few
#: ulps of 2 (``δ ≲ 1e-15``), which moves ``plogp(S')`` by at most
#: ``δ·|log2 δ| ≲ 5e-14`` even next to 0, where ``plogp`` is steepest.
#: The rest is ``math.log2`` against ``np.log2`` (at most 1 ulp of each
#: log), the association of ``q' + p + p_u`` and the summation order of
#: at most ~16 terms (a few ulps of 2 each), so the total disagreement
#: stays below ~1e-13, a tenth of the slack — which keeps every
#: certified inequality strict where the exact comparisons are.  A
#: sequential vertex no commit touched is still certified at exactly
#: ``drift_guard_bound`` (0 at zero drift): there the batch and
#: ``score_vertex`` deltas are bitwise equal.
CERT_SLACK = 1e-12


# ---------------------------------------------------------------------------
# The scalar ΔL, in its one math.log2 form
# ---------------------------------------------------------------------------
# Every plogp term is ``x * log2(x) if x > 1e-300 else 0.0`` (0·log0 = 0,
# negative dust clamped) with ``math.log2``.  The distributed scorer's
# deltas are these expressions operand for operand, and its golden
# digests pin them; the sequential path uses them only to certify.


def module_record(
    q: float, p: float, n: int = 1
) -> tuple[float, float, int, float, float]:
    """``(q, p, n, plogp(q), plogp(q + p))``: one module's aggregates
    with the two ``plogp`` terms every ΔL reads from it (the table's
    cached record, ``swap._ModuleRecords``)."""
    b = q + p
    return (
        q, p, n,
        q * math.log2(q) if q > 1e-300 else 0.0,
        b * math.log2(b) if b > 1e-300 else 0.0,
    )


def leave_term(
    rec: "tuple[float, float, int, float, float]",
    *, p_u: float, x_u: float, d_old: float,
) -> float:
    """``B``: the current module's share of every candidate's ΔL.

    ``−2·[plogp(q') − plogp(q)] + plogp(q' + p') − plogp(q + p)`` for
    the current module's :func:`module_record` *rec* ``(q, p, ..)``
    before and ``(q', p')`` after the vertex leaves, with the argument
    expressions of :func:`~repro.core.mapequation.block_deltas`.
    """
    q, p, _n, pl_q, pl_b = rec
    qa = q - x_u + 2.0 * d_old
    a = qa + (p - p_u)
    return (
        -2.0 * ((qa * math.log2(qa) if qa > 1e-300 else 0.0) - pl_q)
        + (a * math.log2(a) if a > 1e-300 else 0.0)
        - pl_b
    )


def candidate_deltas(
    sum_exit: float,
    q_old: float,
    b_old: float,
    recs: "list[tuple[float, float, int, float, float]]",
    flows: "list[float]",
    *, p_u: float, x_u: float, d_old: float,
) -> list[float]:
    """ΔL of the move into each candidate, given its
    :func:`module_record` in *recs* and the vertex's link flow into it in
    *flows*; ``q_old`` is the current module's exit flow and ``b_old``
    its :func:`leave_term`.  The new module's visit term is associated
    ``(q' + p) + p_u``, the form the distributed goldens pin."""
    log2 = math.log2
    pl_se = sum_exit * log2(sum_exit) if sum_exit > 1e-300 else 0.0
    se_base = sum_exit + ((q_old - x_u + 2.0 * d_old) - q_old)
    out: list[float] = []
    for (q, p, _n, pl_q, pl_b), d_new in zip(recs, flows):
        qa = q + x_u - 2.0 * d_new
        se = se_base + (qa - q)
        a = qa + p + p_u
        out.append(
            (se * log2(se) if se > 1e-300 else 0.0) - pl_se
            + b_old
            - 2.0 * ((qa * log2(qa) if qa > 1e-300 else 0.0) - pl_q)
            + (a * log2(a) if a > 1e-300 else 0.0)
            - pl_b
        )
    return out


# ---------------------------------------------------------------------------
# The ladder (module docs, "The ladder and its module stores")
# ---------------------------------------------------------------------------

class _Walk:
    """One scored block on its way down the ladder: its per-vertex
    values, the modules its commits touched and the vertices they moved.

    Per-vertex reads go through lists: numpy scalar access costs more
    than the decisions it feeds.  A vertex's candidates and segment
    flows are converted when it needs them: few vertices of a block do.
    """

    def __init__(
        self, store, agg: BlockAggregates, score: BlockScore,
        marks: "np.ndarray | None" = None,
    ) -> None:
        self.store = store
        self.marks = marks
        self.bmods = store.bmods
        self.agg = agg
        self.score = score
        self.current = agg.current.tolist()
        self.seg_ptr = agg.seg_ptr.tolist()
        self.seg_mods = agg.seg_mods.tolist()
        self.p_u = agg.p_u.tolist()
        self.x_u = agg.x_u.tolist()
        self.d_old = agg.d_old.tolist()
        self.target = score.best_target.tolist()
        self.delta = score.best_delta.tolist()
        self.d_new = score.best_d_new.tolist()
        self.gap = score.runner_gap.tolist()
        self.s0 = store.sum_exit()
        self.touched: set[int] = set()
        self.movers: set[int] = set()
        # The bulk step's: modules touched by scalar commits since its
        # last call, its commits, and its plan (made by the first call).
        self.log: list[int] = []
        self.bulk = 0
        self.plan: "RunPlan | None" = None
        self.zero = store.zero_slack
        self._cand_ptr: "list[int] | None" = None

    def segment(self, i: int, lists: bool) -> tuple:
        """Vertex *i*'s cached ``(mods, flows, p_u, x_u, d_old)``, the
        mods and flows as list slices or as array slices."""
        a, b = self.seg_ptr[i], self.seg_ptr[i + 1]
        mods, flows = self.agg.seg_mods[a:b], self.agg.seg_flows[a:b]
        if lists:
            mods, flows = self.seg_mods[a:b], flows.tolist()
        return mods, flows, self.p_u[i], self.x_u[i], self.d_old[i]

    def candidates(self, i: int) -> "tuple[list, list, list]":
        """Vertex *i*'s admissible ``(mods, batch deltas, flows)``."""
        sc = self.score
        if self._cand_ptr is None:
            self._cand_ptr = sc.cand_ptr.tolist()
        a, b = self._cand_ptr[i], self._cand_ptr[i + 1]
        return (
            sc.cand_mods[a:b].tolist(), sc.cand_deltas[a:b].tolist(),
            sc.cand_flows[a:b].tolist(),
        )

    def rebreak(
        self, i: int, tgt: int, best: float, est: "list[float] | None",
        e: float,
    ) -> "tuple[int, float] | None":
        """The store's near-tie re-break of vertex *i*'s certified move
        into *tgt*, on deltas *est* (the batch's when ``None``)."""
        mods, deltas, flows = self.candidates(i)
        j = self.store.rebreak(
            deltas if est is None else est, best, mods.index(tgt), e
        )
        return None if j is None else (mods[j], flows[j])

    def certify(self, i: int, s_now: float) -> "tuple[int, float] | None":
        """Step 5 for block vertex *i*, whose segment is live: the
        exact scorer's ``(target, d_new)`` — a stay when ``target`` is
        the current module — certified on shifted and recomputed deltas
        (module docs), or ``None`` in the gray zone."""
        store = self.store
        cur = self.current[i]
        if self.bmods and store.pinned(i, cur):
            return None
        d_old = self.d_old[i]
        best = self.delta[i]
        if best == math.inf:
            return cur, d_old  # no candidate, live or snapshot
        p_u = self.p_u[i]
        x_u = self.x_u[i]
        s0 = self.s0
        e = drift_guard_bound(s_now - s0, x_u, s0, s_now) + CERT_SLACK
        record = store.record
        rec = record(cur)
        b_live = leave_term(rec, p_u=p_u, x_u=x_u, d_old=d_old)
        touched = self.touched
        shift = 0.0
        if cur in touched:
            sc = self.score
            snap = module_record(sc.q_old.item(i), sc.p_old.item(i))
            shift = b_live - leave_term(snap, p_u=p_u, x_u=x_u, d_old=d_old)
            best += shift
        hit = touched.intersection(
            self.seg_mods[self.seg_ptr[i]:self.seg_ptr[i + 1]]
        )
        hit.discard(cur)
        est = None
        if not hit:
            # Argmin and runner_gap (input-identical ties included) stand.
            tgt, d_new, gap = self.target[i], self.d_new[i], self.gap[i]
            if shift and tgt in self.bmods:
                est = [d + shift for d in self.candidates(i)[1]]
        else:
            mods, deltas, flows = self.candidates(i)
            # Every module of the segment but cur is a candidate.
            ks = []
            recs = []
            fl = []
            for m in hit:
                k = mods.index(m)
                ks.append(k)
                recs.append(record(m))
                fl.append(flows[k])
            live = candidate_deltas(
                s_now, rec[0], b_live, recs, fl, p_u=p_u, x_u=x_u, d_old=d_old
            )
            # No untouched estimate lies below the shifted batch best.
            if min(best, min(live)) + MIN_IMPROVEMENT >= e:
                return cur, d_old
            est = [d + shift for d in deltas] if shift else deltas
            for k, d in zip(ks, live):
                est[k] = d
            best = min(est)
            k = est.index(best)  # first min
            est[k] = math.inf
            # No tie exemption here: an exact tie goes gray.
            gap = min(est) - best
            est[k] = best
            tgt, d_new = mods[k], flows[k]
        margin = best + MIN_IMPROVEMENT
        if margin >= e:
            return cur, d_old
        if margin <= -e and gap >= 2.0 * e:
            if tgt in self.bmods:
                return self.rebreak(i, tgt, best, est, e)
            return tgt, d_new
        return None


    def bulk_movers(self, margins: np.ndarray) -> int:
        """How many vertices the bulk step could commit: a negative
        margin, into a module outside ``bmods``."""
        hit = self.store.bmask[self.score.best_target]
        return int(np.count_nonzero((margins < 0.0) & ~hit))

    def _plan(self, margins: np.ndarray) -> None:
        """What the bulk step needs of the block that no commit changes.

        * ``plan``: the potential movers, of negative margin (a
          certified move needs ``margin <= -e <= 0``, a certified stay
          ``margin >= e >= 0``), with their moves into the batch argmin
          from the snapshot aggregates
          (:class:`~repro.core.mapequation.RunPlan`); ``before[r]``:
          how many lie before position *r*, and ``at[r]`` their exit-sum
          terms;
        * ``cap``: the largest ``e`` that certifies each vertex at step
          3 (``margin`` for a stay; ``-margin`` and ``runner_gap / 2``
          for a move, ``-inf`` into a min-label module);
        * ``reads``: each vertex's current module, then its segment's,
          from offset ``rptr[r]``, with their ``owner``;
        * ``toucher``: for each vertex, the last earlier potential mover
          that touches a module it reads (``-1``: none).  A vertex is
          clean in a run from *i* only if that mover lies before *i*.

        A module some commit touched is read by no clean vertex, so the
        plan of a run's mover is its live move.
        """
        agg, sc, store = self.agg, self.score, self.store
        b = agg.block.size
        neg = margins < 0.0
        pj = np.flatnonzero(neg)
        old, new = agg.current[pj], sc.best_target[pj]
        # Each target's segment entry: segments are (vertex, module)
        # sorted.
        ids = np.int64(store.id_space)
        entries = np.searchsorted(
            agg.seg_owner * ids + agg.seg_mods, pj * ids + new
        )
        self.plan = RunPlan(
            agg.block[pj], old, new, q_old=sc.q_old[pj], p_old=sc.p_old[pj],
            p_u=agg.p_u[pj], x_u=agg.x_u[pj], d_old=agg.d_old[pj],
            d_new=sc.best_d_new[pj],
            **store.plan_extras(pj, entries, old, new),
        )
        self.mv = pj.tolist()
        before = np.zeros(b + 1, dtype=np.int64)
        np.cumsum(neg, out=before[1:])
        self.before = before.tolist()
        self.at = np.asarray(self.plan.ends)[before[:b]].tolist()
        cap = margins.copy()
        cap[pj] = np.minimum(-margins[pj], 0.5 * sc.runner_gap[pj])
        if store.bmask is not None:
            cap[pj[store.bmask[new]]] = -math.inf
        self.cap_list = cap.tolist()
        self.x_max = float(agg.x_u.max())
        # Each vertex's reads, its current module first.
        counts = np.diff(agg.seg_ptr) + 1
        rptr = np.zeros(b + 1, dtype=np.int64)
        np.cumsum(counts, out=rptr[1:])
        self.rptr = rptr.tolist()
        self.owner = owner = np.repeat(np.arange(b), counts)
        self.reads = reads = np.empty(int(rptr[-1]), dtype=np.int64)
        first = rptr[:b]
        rest = np.ones(reads.size, dtype=bool)
        rest[first] = False
        reads[first] = agg.current
        reads[rest] = agg.seg_mods
        # A read's last earlier touch: the moves keyed (module,
        # position), so that one searchsorted finds it; only the reads
        # of touched modules are searched.
        bb = np.int64(b)
        tmod = self.plan.mods.ravel()
        marks = self.marks  # all False until run() sets the log
        marks[tmod] = True
        sel = np.flatnonzero(marks[reads])
        marks[tmod] = False
        base = reads[sel] * bb
        at = owner[sel]
        touch = np.sort(tmod * bb + np.repeat(pj, 2))
        k = np.searchsorted(touch, base + at) - 1
        hit = touch[np.maximum(k, 0)]
        toucher = np.full(b, -1, dtype=np.int64)
        np.maximum.at(
            toucher, at, np.where((k >= 0) & (hit >= base), hit - base, -1)
        )
        self.toucher = toucher.tolist()

    def run(self, i: int, s_now: float, margins: np.ndarray) -> int:
        """The bulk step from block vertex *i*, which no commit touched:
        commit the longest run of at most :data:`_RUN_SPAN` vertices from
        *i* that are clean and certified at step 3 (module docs),
        through ``store.commit_run``.  Returns the run's length, the
        vertex after it left to the scalar steps, or -1 when no earlier
        mover of the plan leaves room for a run of :data:`_RUN_MIN`."""
        if self.plan is None:
            self._plan(margins)
        # Clean: no earlier move of the run touches what it reads ...
        toucher = self.toucher
        j = min(i + _RUN_SPAN, len(toucher))
        r = i
        while r < j and toucher[r] < i:
            r += 1
        if r - i < _RUN_MIN:
            return -1  # too short to pay: the scalar steps take it
        # ... nor did a commit before the run.
        marks = self.marks
        log = self.log
        if log:
            marks[log] = True
            log.clear()
        ra, rb = self.rptr[i], self.rptr[r]
        hit = self.owner[ra:rb][marks[self.reads[ra:rb]]]
        end = (int(hit[0]) if hit.size else r) - i
        if not end:
            return 0
        before = self.before
        lo, hi = before[i], before[i + end]
        plan = self.plan
        # The exit sum each vertex sees: after every earlier move's
        # terms (RunPlan.exit_sums); the first vertex sees s_now.
        sums = plan.exit_sums(s_now, lo, hi).tolist()
        t0 = plan.ends[lo]
        # Step 3's e of each vertex is at most the one from the largest
        # drift and x_u and the smallest exit sum (rounding is
        # monotone), so only a vertex of smaller cap needs its own.
        s0 = self.s0
        s_min = min(s0, min(sums))
        e_max = math.inf
        if s_min > 4.0 * self.x_max:
            drift = max(abs(max(sums) - s0), abs(min(sums) - s0))
            e_max = drift * 4.0 * self.x_max / (s_min * _LN2) + CERT_SLACK
        cap, at, x_u = self.cap_list, self.at, self.x_u
        for r in range(i, i + end):
            c = cap[r]
            if c < e_max:
                s = sums[at[r] - t0]
                e = drift_guard_bound(s - s0, x_u[r], s0, s)
                if c < (e + CERT_SLACK if e > 0.0 else self.zero):
                    end = r - i
                    hi = before[r]
                    break
        return self._commit(i, end, lo, hi)

    def _commit(self, i: int, end: int, lo: int, hi: int) -> int:
        """Commit the planned moves ``lo:hi`` of the run ``i:i + end``
        (:meth:`run`); returns the length of the run committed."""
        if hi == lo:
            return end
        plan = self.plan
        k = self.store.commit_run(plan, lo, hi)
        if k < hi - lo:
            end = self.mv[lo + k] - i  # a refused move goes the scalar way
        if k:
            self.marks[plan.mods[lo : lo + k].ravel()] = True
            self.touched.update(plan.old[lo : lo + k])
            self.touched.update(plan.new[lo : lo + k])
            self.movers.update(plan.vertices[lo : lo + k])
            self.bulk += k
        return end


#: A bulk step that commits a shorter run than this costs more than the
#: scalar steps it replaces.
_RUN_MIN = 8
#: The most vertices one bulk step decides: its numpy passes cost in
#: proportion, and a clique graph's runs break every 20 or so.
_RUN_SPAN = 128


def sweep(
    store, order: np.ndarray, batch_size: int, *, bulk: bool = True
) -> tuple[int, int, int]:
    """Sweep *order* in blocks of *batch_size* down the ladder (module
    docs): the moves the store's exact scorer makes visiting *order*
    one vertex at a time.  Returns ``(accepted commits, store.exact
    calls, bulk commits)``; ``bulk=False`` leaves out the bulk step,
    for comparison, with bitwise the same outcome."""
    mi = MIN_IMPROVEMENT
    zero = store.zero_slack
    bmods = store.bmods
    indptr, indices = store.indptr, store.indices
    exact, commit, sum_exit = store.exact, store.commit, store.sum_exit
    moved = 0
    rescored = 0
    bulked = 0
    # Module ids a commit of the walk touched, for the bulk step; all
    # False between walks.
    marks = np.zeros(store.id_space, dtype=bool) if bulk else None
    for lo in range(0, order.size, batch_size):
        block = order[lo : lo + batch_size]
        agg, score = store.score(block)
        margins = score.best_delta + mi
        below = int(np.count_nonzero(margins < zero))
        if not below:
            continue  # no commit, hence no drift: every vertex stays
        w = _Walk(store, agg, score, marks)
        s0 = s_now = w.s0
        touched, movers = w.touched, w.movers
        seg_ptr, seg_mods = w.seg_ptr, w.seg_mods
        p_us, x_us, d_olds = w.p_u, w.x_u, w.d_old
        targets, d_news, gaps = w.target, w.d_new, w.gap
        log = w.log
        # On a block with _RUN_MIN moves a run could commit, the bulk
        # step first plans the block after _RUN_MIN clean vertices that
        # would move, with no unclean one between (``streak``).  From
        # then on it is tried at every clean vertex from ``resume``: it
        # gives way at once where the plan leaves no room for a run of
        # _RUN_MIN, and a shorter run backs ``resume`` off.  The walk
        # has all of this already; trying everywhere would cost a block
        # of short runs more than its scalar steps.
        try_runs = bulk and below >= _RUN_MIN and (
            not bmods or w.bulk_movers(margins) >= _RUN_MIN
        )
        streak = resume = 0
        backoff = _RUN_MIN
        visits = enumerate(zip(block.tolist(), w.current, margins.tolist()))
        for i, (u, cur, margin) in visits:
            move = None
            if not touched or (
                cur not in touched
                and touched.isdisjoint(seg_mods[seg_ptr[i]:seg_ptr[i + 1]])
            ):
                if try_runs:
                    if i >= resume and (
                        streak >= _RUN_MIN or w.plan is not None
                    ):
                        length = w.run(i, s_now, margins)
                        streak = 0
                        if length < 0:
                            resume = i + 1
                        elif length < _RUN_MIN:
                            resume = i + length + 1 + backoff
                            backoff *= 2
                        else:
                            # A run cut short by a clean vertex leaves
                            # that vertex to the scalar steps.
                            resume = i + length + (length < _RUN_SPAN)
                            backoff = _RUN_MIN
                        if length > 0:
                            s_now = sum_exit()
                            # Past the run's other vertices.
                            next(islice(visits, length - 1, length - 1), None)
                            continue
                    streak += margin < 0.0
                # Step 3.  Only the exit sum drifted, and no neighbour
                # moved: a mover's old module would be in the segment.
                e = zero
                if touched:
                    bound = drift_guard_bound(s_now - s0, x_us[i], s0, s_now)
                    if bound > 0.0:
                        e = bound + CERT_SLACK
                if margin >= e:
                    continue  # certified stay
                if margin <= -e and gaps[i] >= 2.0 * e:
                    dec = targets[i], d_news[i]
                    if dec[0] in bmods:
                        dec = w.rebreak(i, dec[0], w.delta[i], None, e)
                    if dec is not None:
                        move = (dec[0], p_us[i], x_us[i], d_olds[i], dec[1])
            elif not movers.isdisjoint(
                indices[indptr[u] : indptr[u + 1]].tolist()
            ):
                streak = 0
                # Step 4: the segment is stale; aggregate afresh.
                rescored += 1
                move = exact(u, cur)
                if move is None:
                    continue
            else:
                streak = 0
                dec = w.certify(i, s_now)  # step 5
                if dec is not None:
                    if dec[0] == cur:
                        continue
                    move = (dec[0], p_us[i], x_us[i], d_olds[i], dec[1])
            if move is None:
                # Step 6, the gray zone: the exact scorer on the segment.
                streak = 0
                rescored += 1
                move = exact(u, cur, w, i)
                if move is None:
                    continue
            if commit(u, cur, *move):
                moved += 1
                touched.add(cur)
                touched.add(move[0])
                log.append(cur)
                log.append(move[0])
                movers.add(u)
                s_now = sum_exit()
        if w.plan is not None and touched:
            marks[list(touched)] = False
        moved += w.bulk
        bulked += w.bulk
    return moved, rescored, bulked
