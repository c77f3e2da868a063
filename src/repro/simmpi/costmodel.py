"""Deterministic BSP-style cost model for the scalability experiments.

Python threads share the GIL, so the wall clock of the simulated job
cannot exhibit parallel speedup.  The paper's own scalability argument,
however, is an *accounting* argument: workload per rank is proportional
to local edge count (§3.3, §4.2) and communication is dominated by the
slowest rank's traffic (§4.2).  This module turns the simulation's
exact per-rank work counters and byte meters into a modeled runtime
using the classic alpha-beta (latency-bandwidth) machine model:

    T = Σ_supersteps [ max_rank(work_r) · c_work
                       + α · max_rank(msgs_r)
                       + β · max_rank(bytes_r)
                       + α · log2(p) · collectives ]

The default constants are calibrated to commodity-cluster magnitudes
(1 µs latency, 1 GB/s effective bandwidth, ~10 ns per edge-scan unit);
absolute values are not meant to match Titan, but the *shape* of the
scaling curves — which is what EXPERIMENTS.md compares — depends only
on the ratios, which are realistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .stats import CommLedger

__all__ = ["MachineModel", "StepCost", "CostAccumulator"]


@dataclass(frozen=True)
class MachineModel:
    """Constants of the modeled machine.

    Attributes:
        alpha: per-message latency, seconds.
        beta: per-byte transfer time, seconds (1/bandwidth).
        c_work: seconds per unit of compute work (one edge scan).
        collective_tree: model collectives as log2(p)-depth trees when
            True; linear otherwise.
    """

    alpha: float = 1.0e-6
    beta: float = 1.0e-9
    c_work: float = 1.0e-8
    collective_tree: bool = True

    def collective_latency(self, p: int, ncalls: int) -> float:
        if p <= 1 or ncalls == 0:
            return 0.0
        depth = math.ceil(math.log2(p)) if self.collective_tree else (p - 1)
        return self.alpha * depth * ncalls

    def p2p_time(self, messages: int, nbytes: int) -> float:
        return self.alpha * messages + self.beta * nbytes

    def work_time(self, work_units: float) -> float:
        return self.c_work * work_units


@dataclass(frozen=True)
class StepCost:
    """Modeled cost of one superstep (one bulk-synchronous phase)."""

    name: str
    compute_s: float
    comm_s: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s


@dataclass
class CostAccumulator:
    """Accumulates modeled time across a run's supersteps.

    The distributed driver calls :meth:`add_step` once per
    bulk-synchronous phase with *per-rank* counters; the accumulator
    applies max-over-ranks (the BSP critical path) and the machine
    constants.
    """

    machine: MachineModel = field(default_factory=MachineModel)
    steps: list[StepCost] = field(default_factory=list)

    def add_step(
        self,
        name: str,
        *,
        work_per_rank: Iterable[float],
        bytes_per_rank: Iterable[float] = (),
        msgs_per_rank: Iterable[float] = (),
        collective_calls: int = 0,
        nranks: int = 1,
    ) -> StepCost:
        work = list(work_per_rank)
        byts = list(bytes_per_rank) or [0.0]
        msgs = list(msgs_per_rank) or [0.0]
        compute = self.machine.work_time(max(work) if work else 0.0)
        comm = self.machine.p2p_time(max(msgs), max(byts))
        comm += self.machine.collective_latency(nranks, collective_calls)
        step = StepCost(name=name, compute_s=compute, comm_s=comm)
        self.steps.append(step)
        return step

    @property
    def compute_s(self) -> float:
        return sum(s.compute_s for s in self.steps)

    @property
    def comm_s(self) -> float:
        return sum(s.comm_s for s in self.steps)

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s

    def by_phase(self) -> dict[str, float]:
        """Total modeled seconds per step name (steps repeat across iterations)."""
        out: dict[str, float] = {}
        for s in self.steps:
            out[s.name] = out.get(s.name, 0.0) + s.total_s
        return out

    def merged(self, other: "CostAccumulator") -> "CostAccumulator":
        acc = CostAccumulator(machine=self.machine)
        acc.steps = list(self.steps) + list(other.steps)
        return acc


def ledger_comm_time(
    ledger: CommLedger, machine: MachineModel | None = None
) -> float:
    """Post-hoc modeled communication time for a whole job's ledger.

    A coarser alternative to per-superstep accounting: uses the busiest
    rank's total traffic.  Useful for baselines that do not thread a
    :class:`CostAccumulator` through their phases.
    """
    m = machine or MachineModel()
    return m.p2p_time(ledger.max_rank_messages, ledger.max_rank_bytes)
