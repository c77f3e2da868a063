"""Partition quality metrics (Table 2: NMI, F-measure, Jaccard; extras)."""

from .comparison import (
    PartitionComparisonReport,
    compare_partitions,
    purity,
    variation_of_information,
)
from .fmeasure import (
    PairCounts,
    adjusted_rand_index,
    best_match_f_measure,
    best_match_jaccard,
    f_measure,
    jaccard_index,
    pair_counts,
    rand_index,
)
from .nmi import contingency, entropy, mutual_information, nmi

__all__ = [
    "PairCounts",
    "PartitionComparisonReport",
    "adjusted_rand_index",
    "best_match_f_measure",
    "best_match_jaccard",
    "compare_partitions",
    "contingency",
    "entropy",
    "f_measure",
    "jaccard_index",
    "mutual_information",
    "nmi",
    "pair_counts",
    "purity",
    "rand_index",
    "variation_of_information",
]
