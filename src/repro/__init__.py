"""repro — distributed Infomap for scalable, high-quality community detection.

A from-scratch Python reproduction of Zeng & Yu, *"A Distributed
Infomap Algorithm for Scalable and High-Quality Community Detection"*
(ICPP 2018): the delegate-partitioned distributed Infomap algorithm,
the sequential reference, every substrate (an MPI-like SPMD runtime, a
CSR graph library, partitioners) and the GossipMap-like baseline the
paper compares against (Table 3).

Quickstart::

    from repro import SequentialInfomap, DistributedInfomap, load_dataset

    data = load_dataset("dblp")
    seq = SequentialInfomap().run(data.graph)
    dist = DistributedInfomap(nranks=8).run(data.graph)
    print(seq.summary())
    print(dist.summary())

Subpackages:

* :mod:`repro.core` — map equation, sequential & distributed Infomap.
* :mod:`repro.graph` — CSR graphs, IO, generators, dataset stand-ins.
* :mod:`repro.partition` — 1D & delegate partitioning, balance metrics.
* :mod:`repro.simmpi` — the in-process SPMD message-passing runtime.
* :mod:`repro.baselines` — the GossipMap-like Table 3 comparator.
* :mod:`repro.metrics` — NMI, F-measure, Jaccard.
* :mod:`repro.bench` — experiment drivers for every paper table/figure.
* :mod:`repro.obs` — run traces, Perfetto export, provenance
  manifests, rank-aware logging.
"""

from .core import (
    ClusteringResult,
    DistributedInfomap,
    FlowNetwork,
    IncrementalSession,
    InfomapConfig,
    LevelRecord,
    ModuleStats,
    SequentialInfomap,
    distributed_infomap,
    external_infomap,
    sequential_infomap,
)
from .graph import (
    Graph,
    GraphDelta,
    LabeledGraph,
    apply_delta,
    dataset_names,
    from_edge_array,
    from_edges,
    load_dataset,
    planted_partition,
    powerlaw_planted_partition,
    read_delta_file,
    read_edgelist,
    ring_of_cliques,
    write_delta_file,
    write_edgelist,
)
from .metrics import compare_partitions, f_measure, jaccard_index, nmi
from .partition import (
    DelegatePartition,
    OneDPartition,
    compare_partitions as compare_partitionings,
    delegate_partition,
)
from .obs import NullTracer, Tracer, build_run_artifact
from .simmpi import Communicator, MachineModel, SpmdResult, run_spmd

__version__ = "1.0.0"

__all__ = [
    "ClusteringResult",
    "Communicator",
    "DelegatePartition",
    "DistributedInfomap",
    "FlowNetwork",
    "Graph",
    "GraphDelta",
    "IncrementalSession",
    "InfomapConfig",
    "LabeledGraph",
    "LevelRecord",
    "MachineModel",
    "ModuleStats",
    "NullTracer",
    "OneDPartition",
    "SequentialInfomap",
    "SpmdResult",
    "Tracer",
    "__version__",
    "apply_delta",
    "build_run_artifact",
    "compare_partitionings",
    "compare_partitions",
    "dataset_names",
    "delegate_partition",
    "distributed_infomap",
    "external_infomap",
    "f_measure",
    "from_edge_array",
    "from_edges",
    "jaccard_index",
    "load_dataset",
    "nmi",
    "planted_partition",
    "powerlaw_planted_partition",
    "read_delta_file",
    "read_edgelist",
    "ring_of_cliques",
    "run_spmd",
    "sequential_infomap",
    "write_delta_file",
    "write_edgelist",
]
