"""Scaled synthetic stand-ins for the paper's Table 1 datasets.

The paper evaluates on nine real-world graphs, from Amazon (0.92M
edges) to UK-2007 (3.78B edges).  Those files are not available here
(no network) and would not fit this machine, so each dataset is
replaced by a *synthetic stand-in* that preserves the properties the
experiments actually exercise:

* social/web graphs → power-law degrees with pronounced hubs (what
  drives the partitioning experiments, Figs 6–8), plus planted
  community structure (web crawls and social networks are strongly
  modular);
* ground-truth datasets (DBLP, Amazon, also the stand-ins for
  LiveJournal/YouTube which SNAP ships with ground truth) → planted
  partitions whose labels play the role of the published ground-truth
  communities (Table 2);
* the relative size ordering and density ordering of the nine datasets
  are preserved at ~1/2000 scale so the cross-dataset comparisons in
  Figs 6–10 keep their shape (e.g. UK-2005 denser than WebBase-2001).

Every stand-in records which paper dataset it substitutes, the paper's
original size, and the generator parameters used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import from_edge_array
from .generators import (
    LabeledGraph,
    powerlaw_planted_partition,
)
from .graph import Graph

__all__ = ["Dataset", "DATASET_SPECS", "load_dataset", "dataset_names", "DatasetSpec"]


@dataclass(frozen=True)
class Dataset:
    """A loaded stand-in: graph + optional ground truth + provenance."""

    name: str
    graph: Graph
    labels: np.ndarray | None
    category: str  # "small" | "medium" | "large"
    paper_name: str
    paper_vertices: str
    paper_edges: str
    description: str
    params: dict

    @property
    def has_ground_truth(self) -> bool:
        return self.labels is not None


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one stand-in (scales with the ``scale`` argument).

    ``superhubs``/``superhub_frac`` model the extreme hubs of real web
    crawls and social networks — root pages / celebrity accounts whose
    degree is a sizable fraction of the whole vertex set.  These are
    the vertices whose adjacency list exceeds one rank's fair share of
    edges, i.e. exactly the pathology delegate partitioning exists for
    (Figures 6-7's orders-of-magnitude 1D imbalance comes from them).
    """

    name: str
    category: str
    paper_name: str
    paper_vertices: str
    paper_edges: str
    description: str
    n: int
    num_communities: int
    mu: float
    exponent: float
    min_degree: int
    max_degree_frac: float  # max degree cap as a fraction of n
    ground_truth: bool
    superhubs: int = 0
    superhub_frac: float = 0.0

    def build(self, *, seed: int, scale: float) -> Dataset:
        n = max(64, int(round(self.n * scale)))
        k = max(2, int(round(self.num_communities * scale**0.5)))
        lg: LabeledGraph = powerlaw_planted_partition(
            n,
            k,
            mu=self.mu,
            exponent=self.exponent,
            min_degree=self.min_degree,
            max_degree=max(self.min_degree + 2, int(self.max_degree_frac * n)),
            seed=seed,
        )
        if self.superhubs > 0 and self.superhub_frac > 0.0:
            lg = _attach_superhubs(
                lg, self.superhubs, self.superhub_frac, seed=seed + 104729
            )
        return Dataset(
            name=self.name,
            graph=lg.graph,
            labels=lg.labels if self.ground_truth else None,
            category=self.category,
            paper_name=self.paper_name,
            paper_vertices=self.paper_vertices,
            paper_edges=self.paper_edges,
            description=self.description,
            params={**lg.params, "scale": scale, "spec": self.name},
        )


# Sizes chosen so the full distributed pipeline on the largest stand-in
# completes in seconds on one machine while the size/density *ordering*
# of the paper's Table 1 is preserved.
DATASET_SPECS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            name="amazon",
            category="small",
            paper_name="Amazon",
            paper_vertices="0.33M",
            paper_edges="0.92M",
            description="Frequently co-purchased products (ground truth)",
            n=1200, num_communities=40, mu=0.15, exponent=2.8,
            min_degree=2, max_degree_frac=0.02, ground_truth=True,
        ),
        DatasetSpec(
            name="dblp",
            category="small",
            paper_name="DBLP",
            paper_vertices="0.31M",
            paper_edges="1.04M",
            description="Co-authorship network (ground truth)",
            n=1200, num_communities=50, mu=0.2, exponent=2.6,
            min_degree=2, max_degree_frac=0.03, ground_truth=True,
        ),
        DatasetSpec(
            name="ndweb",
            category="small",
            paper_name="ND-Web",
            paper_vertices="0.33M",
            paper_edges="1.50M",
            description="University of Notre Dame web graph",
            n=1500, num_communities=30, mu=0.15, exponent=2.1,
            min_degree=2, max_degree_frac=0.1, ground_truth=False,
            superhubs=1, superhub_frac=0.3,
        ),
        DatasetSpec(
            name="youtube",
            category="medium",
            paper_name="YouTube",
            paper_vertices="11.34M",
            paper_edges="29.87M",
            description="YouTube friendship network (sparse, hubby)",
            n=6000, num_communities=80, mu=0.3, exponent=2.2,
            min_degree=2, max_degree_frac=0.08, ground_truth=True,
            superhubs=1, superhub_frac=0.1,
        ),
        DatasetSpec(
            name="livejournal",
            category="medium",
            paper_name="LiveJournal",
            paper_vertices="5.20M",
            paper_edges="76.94M",
            description="Virtual-community social site (dense, hubby)",
            n=5000, num_communities=60, mu=0.25, exponent=2.3,
            min_degree=5, max_degree_frac=0.08, ground_truth=True,
            superhubs=1, superhub_frac=0.08,
        ),
        DatasetSpec(
            name="uk2005",
            category="large",
            paper_name="UK-2005",
            paper_vertices="39.46M",
            paper_edges="936.4M",
            description=".uk web crawl 2005 (densest of the crawls)",
            n=12000, num_communities=100, mu=0.15, exponent=2.0,
            min_degree=4, max_degree_frac=0.15, ground_truth=False,
            superhubs=3, superhub_frac=0.45,
        ),
        DatasetSpec(
            name="webbase2001",
            category="large",
            paper_name="WebBase-2001",
            paper_vertices="118.14M",
            paper_edges="1.01B",
            description="WebBase crawl (sparser than UK-2005)",
            n=16000, num_communities=120, mu=0.15, exponent=2.4,
            min_degree=2, max_degree_frac=0.05, ground_truth=False,
            superhubs=2, superhub_frac=0.25,
        ),
        DatasetSpec(
            name="friendster",
            category="large",
            paper_name="Friendster",
            paper_vertices="65.61M",
            paper_edges="1.81B",
            description="On-line gaming social network (ground truth)",
            n=14000, num_communities=60, mu=0.3, exponent=2.2,
            min_degree=6, max_degree_frac=0.08, ground_truth=True,
            superhubs=2, superhub_frac=0.18,
        ),
        DatasetSpec(
            name="uk2007",
            category="large",
            paper_name="UK-2007",
            paper_vertices="105.9M",
            paper_edges="3.78B",
            description=".uk web crawl 2007 (largest dataset)",
            n=20000, num_communities=80, mu=0.12, exponent=2.0,
            min_degree=5, max_degree_frac=0.12, ground_truth=False,
            superhubs=4, superhub_frac=0.4,
        ),
    ]
}

def _attach_superhubs(
    lg: LabeledGraph, count: int, frac: float, *, seed: int
) -> LabeledGraph:
    """Fan the top-degree vertices out to a random ``frac`` of the graph.

    Reuses the existing highest-degree vertices as the superhubs (so
    the vertex count is unchanged) and adds edges from each to a
    uniform sample of the vertex set; duplicates collapse in the
    builder.  Community labels are untouched — a root page links into
    every community, which is also why superhubs carry no community
    signal and real pipelines often treat them as noise.
    """
    g = lg.graph
    rng = np.random.default_rng(seed)
    n = g.num_vertices
    hubs = np.argsort(g.degrees())[-count:]
    src_new = []
    dst_new = []
    for h in hubs.tolist():
        targets = rng.choice(n, size=max(1, int(frac * n)), replace=False)
        targets = targets[targets != h]
        src_new.append(np.full(targets.size, h, dtype=np.int64))
        dst_new.append(targets.astype(np.int64))
    src0, dst0, w0 = g.edge_array()
    src = np.concatenate([src0] + src_new)
    dst = np.concatenate([dst0] + dst_new)
    new_graph = from_edge_array(src, dst, None, num_vertices=n, dedup="first")
    return LabeledGraph(
        graph=new_graph,
        labels=lg.labels,
        params={**lg.params, "superhubs": count, "superhub_frac": frac},
    )


#: Dataset groups matching the paper's experiment figures.
SMALL_DATASETS = ("amazon", "dblp", "ndweb")
MEDIUM_DATASETS = ("livejournal", "youtube")
LARGE_DATASETS = ("uk2005", "webbase2001", "friendster", "uk2007")


def dataset_names() -> list[str]:
    """All stand-in names, in the paper's Table 1 size groups."""
    return list(SMALL_DATASETS) + list(MEDIUM_DATASETS) + list(LARGE_DATASETS)


def load_dataset(
    name: str,
    *,
    seed: int = 0,
    scale: float = 1.0,
    mmap_dir: "str | None" = None,
) -> Dataset:
    """Build the stand-in for the named paper dataset.

    Args:
        name: one of :func:`dataset_names` (case-insensitive).
        seed: generator seed; the same (name, seed, scale) is
            bit-for-bit reproducible.
        scale: multiplies the stand-in's vertex count (0.25 for quick
            tests, >1 for stress runs).
        mmap_dir: when given, the built graph is persisted as an
            on-disk CSR store there and the returned Dataset carries
            the memmap-backed re-opened graph (bitwise-identical CSR;
            exercises the out-of-core path end to end).
    """
    key = name.lower().replace("-", "").replace("_", "")
    for spec_name, spec in DATASET_SPECS.items():
        if spec_name.replace("-", "") == key:
            ds = spec.build(seed=seed, scale=scale)
            if mmap_dir is not None:
                from dataclasses import replace

                from .extcsr import graph_to_store, open_csr_store

                graph_to_store(ds.graph, mmap_dir)
                ds = replace(ds, graph=open_csr_store(mmap_dir))
            return ds
    raise KeyError(
        f"unknown dataset {name!r}; available: {', '.join(dataset_names())}"
    )
