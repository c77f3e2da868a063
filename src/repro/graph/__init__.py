"""Graph substrate: CSR storage, construction, IO, generators, datasets.

The public surface other packages build on:

* :class:`~repro.graph.graph.Graph` — immutable CSR undirected graph.
* :mod:`~repro.graph.builder` — edge-array → Graph canonicalization.
* :mod:`~repro.graph.io` — edge-list / METIS / Pajek readers & writers.
* :mod:`~repro.graph.generators` — scale-free and planted-community
  synthetic workloads.
* :mod:`~repro.graph.datasets` — Table 1 dataset stand-ins.
* :mod:`~repro.graph.coarsen` — community merging for the multi-level
  algorithms.
* :mod:`~repro.graph.degree` — degree statistics and hub detection.
"""

from .builder import from_adjacency, from_edge_array, from_edges, relabel_compact
from .coarsen import CoarseGraph, coarsen, compact_labels, project_labels
from .datasets import (
    DATASET_SPECS,
    LARGE_DATASETS,
    MEDIUM_DATASETS,
    SMALL_DATASETS,
    Dataset,
    DatasetSpec,
    dataset_names,
    load_dataset,
)
from .delta import (
    GraphDelta,
    apply_delta,
    apply_delta_to_store,
    dirty_region,
    read_delta_file,
    write_delta_file,
)
from .components import (
    component_sizes,
    connected_components,
    count_disconnected_modules,
    largest_component,
    num_connected_components,
)
from .degree import (
    DegreeSummary,
    degree_histogram,
    degree_summary,
    hub_edge_fraction,
    hub_vertices,
    powerlaw_mle,
)
from .generators import (
    LabeledGraph,
    barabasi_albert,
    caveman,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid2d,
    path_graph,
    planted_partition,
    powerlaw_configuration,
    powerlaw_planted_partition,
    ring_of_cliques,
    star,
)
from .extcsr import (
    build_csr_store,
    edgelist_to_store,
    graph_to_store,
    metis_to_store,
    open_csr_store,
    snap_to_store,
    store_header,
)
from .graph import Graph
from .io import (
    EdgeChunk,
    iter_edgelist_chunks,
    iter_metis_chunks,
    read_edgelist,
    read_edgelist_legacy,
    read_metis,
    read_metis_legacy,
    read_pajek,
    read_snap,
    write_edgelist,
    write_metis,
    write_pajek,
)

__all__ = [
    "DATASET_SPECS",
    "LARGE_DATASETS",
    "MEDIUM_DATASETS",
    "SMALL_DATASETS",
    "CoarseGraph",
    "Dataset",
    "DatasetSpec",
    "DegreeSummary",
    "EdgeChunk",
    "GraphDelta",
    "apply_delta",
    "apply_delta_to_store",
    "dirty_region",
    "read_delta_file",
    "write_delta_file",
    "build_csr_store",
    "edgelist_to_store",
    "graph_to_store",
    "iter_edgelist_chunks",
    "iter_metis_chunks",
    "open_csr_store",
    "snap_to_store",
    "store_header",
    "read_edgelist_legacy",
    "read_metis_legacy",
    "Graph",
    "LabeledGraph",
    "barabasi_albert",
    "caveman",
    "coarsen",
    "compact_labels",
    "complete_graph",
    "component_sizes",
    "connected_components",
    "count_disconnected_modules",
    "cycle_graph",
    "dataset_names",
    "degree_histogram",
    "degree_summary",
    "erdos_renyi",
    "from_adjacency",
    "from_edge_array",
    "from_edges",
    "grid2d",
    "hub_edge_fraction",
    "hub_vertices",
    "largest_component",
    "num_connected_components",
    "load_dataset",
    "path_graph",
    "planted_partition",
    "powerlaw_configuration",
    "powerlaw_mle",
    "powerlaw_planted_partition",
    "project_labels",
    "read_edgelist",
    "read_metis",
    "read_pajek",
    "read_snap",
    "relabel_compact",
    "ring_of_cliques",
    "star",
    "write_edgelist",
    "write_metis",
    "write_pajek",
]
