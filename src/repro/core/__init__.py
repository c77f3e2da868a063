"""Core: map-equation machinery and the Infomap algorithms."""

from .config import InfomapConfig
from .distributed import (
    DistributedInfomap,
    distributed_infomap,
    external_infomap,
)
from .flow import FlowNetwork
from .incremental import IncrementalSession, warm_seed_membership
from .kernels import (
    BlockAggregates,
    BlockScore,
    aggregate_block_flows,
    aggregate_module_flows,
    drift_guard_bound,
    score_block,
)
from .mapequation import (
    ModuleStats,
    codelength_terms,
    delta_codelength,
    delta_from_values,
    plogp,
)
from .moves import (
    MoveProposal,
    best_move,
    neighbor_module_flows,
    score_vertex,
)
from .result import ClusteringResult, LevelRecord
from .sequential import SequentialInfomap, cluster_level, sequential_infomap
from .swap import (
    Contribution,
    LocalModuleState,
    ModuleInfo,
    ModuleTable,
    TableArrays,
)
from .timing import (
    PHASE_BROADCAST_DELEGATES,
    PHASE_FIND_BEST,
    PHASE_OTHER,
    PHASE_SWAP_BOUNDARY,
    PHASES,
    PhaseTimer,
)

__all__ = [
    "BlockAggregates",
    "BlockScore",
    "ClusteringResult",
    "Contribution",
    "DistributedInfomap",
    "FlowNetwork",
    "IncrementalSession",
    "InfomapConfig",
    "LevelRecord",
    "LocalModuleState",
    "ModuleInfo",
    "ModuleStats",
    "ModuleTable",
    "TableArrays",
    "MoveProposal",
    "PHASES",
    "PHASE_BROADCAST_DELEGATES",
    "PHASE_FIND_BEST",
    "PHASE_OTHER",
    "PHASE_SWAP_BOUNDARY",
    "PhaseTimer",
    "SequentialInfomap",
    "aggregate_block_flows",
    "aggregate_module_flows",
    "best_move",
    "cluster_level",
    "codelength_terms",
    "delta_codelength",
    "delta_from_values",
    "distributed_infomap",
    "external_infomap",
    "drift_guard_bound",
    "neighbor_module_flows",
    "plogp",
    "score_block",
    "score_vertex",
    "sequential_infomap",
    "warm_seed_membership",
]
