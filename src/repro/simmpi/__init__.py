"""In-process SPMD message-passing runtime (the MPI substitute).

This package plays the role MPI/C++ played in the paper: it provides
rank identity, point-to-point messaging, the collectives the
distributed Infomap algorithm uses (``bcast``, ``allreduce``,
``allgather``, ``alltoall``, ``barrier``), and — because it is a
simulation — exact per-rank byte/message metering plus an alpha-beta
cost model for the scalability analysis.

Quick start::

    from repro.simmpi import run_spmd

    def program(comm):
        part = comm.rank * 10
        total = comm.allreduce(part, op="sum")
        return total

    res = run_spmd(program, nranks=4)
    assert res.results == [60, 60, 60, 60]
    print(res.ledger.total_bytes)

Design notes are in each module; the porting seam to real mpi4py is the
:class:`~repro.simmpi.comm.Communicator` ABC.
"""

from .comm import ANY_SOURCE, ANY_TAG, Communicator, Request, resolve_op
from .costmodel import CostAccumulator, MachineModel, StepCost, ledger_comm_time
from .engine import BACKENDS, SpmdJob, SpmdResult, run_spmd
from .procs import ProcCommunicator, run_spmd_procs
from .errors import (
    AbortError,
    CollectiveMismatchError,
    DeadlockError,
    InvalidRankError,
    InvalidTagError,
    SimMpiError,
)
from .requests import ExchangeRequest, ReduceRequest, RequestSet
from .serial import SerialCommunicator
from .stats import CommLedger, PhaseBytes, RankStats, payload_nbytes
from .threadcomm import JobContext, Mailbox, ThreadCommunicator
from .wire import (
    FrameError,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "AbortError",
    "BACKENDS",
    "CollectiveMismatchError",
    "CommLedger",
    "Communicator",
    "CostAccumulator",
    "DeadlockError",
    "ExchangeRequest",
    "FrameError",
    "InvalidRankError",
    "InvalidTagError",
    "JobContext",
    "MachineModel",
    "Mailbox",
    "PhaseBytes",
    "ProcCommunicator",
    "RankStats",
    "ReduceRequest",
    "Request",
    "RequestSet",
    "SerialCommunicator",
    "SimMpiError",
    "SpmdJob",
    "SpmdResult",
    "StepCost",
    "ThreadCommunicator",
    "decode_frame",
    "decode_payload",
    "encode_frame",
    "encode_payload",
    "ledger_comm_time",
    "payload_nbytes",
    "resolve_op",
    "run_spmd",
    "run_spmd_procs",
]
