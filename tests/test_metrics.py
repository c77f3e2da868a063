"""Quality metrics: identities, known values, degenerate cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    adjusted_rand_index,
    best_match_f_measure,
    best_match_jaccard,
    compare_partitions,
    contingency,
    entropy,
    f_measure,
    jaccard_index,
    mutual_information,
    nmi,
    pair_counts,
    purity,
    rand_index,
    variation_of_information,
)

A = np.array([0, 0, 0, 1, 1, 1])
B_SAME = np.array([5, 5, 5, 9, 9, 9])  # identical up to relabeling
B_SPLIT = np.array([0, 0, 1, 2, 2, 3])  # refinement of A
B_INDEP = np.array([0, 1, 0, 1, 0, 1])


class TestNMI:
    def test_identical_up_to_relabel(self):
        assert nmi(A, B_SAME) == pytest.approx(1.0)

    def test_symmetric(self):
        assert nmi(A, B_SPLIT) == pytest.approx(nmi(B_SPLIT, A))

    def test_bounded(self):
        for b in (B_SAME, B_SPLIT, B_INDEP):
            assert 0.0 <= nmi(A, b) <= 1.0

    def test_degenerate_single_clusters(self):
        one = np.zeros(6, dtype=int)
        assert nmi(one, one) == 1.0
        assert nmi(A, one) == 0.0

    def test_averages(self):
        args = dict(a=A, b=B_SPLIT)
        vals = {avg: nmi(A, B_SPLIT, average=avg)
                for avg in ("arithmetic", "geometric", "min", "max")}
        assert vals["min"] >= vals["arithmetic"] >= vals["max"]
        with pytest.raises(ValueError):
            nmi(A, B_SPLIT, average="median")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nmi(A, A[:-1])

    def test_entropy_known_value(self):
        assert entropy(A) == pytest.approx(np.log(2))
        assert entropy(np.zeros(4, dtype=int)) == 0.0

    def test_mutual_information_identity(self):
        assert mutual_information(A, A) == pytest.approx(entropy(A))

    def test_contingency(self):
        counts, row, col = contingency(A, B_SPLIT)
        assert counts.sum() == 6
        assert counts.tolist() == [2, 1, 2, 1]


class TestPairCounting:
    def test_identical(self):
        pc = pair_counts(A, B_SAME)
        assert pc.first_only == pc.second_only == 0
        assert pc.both == 2 * 3  # two C(3,2) groups
        assert pc.total == 15

    def test_f1_jaccard_rand_on_identical(self):
        assert f_measure(A, B_SAME) == 1.0
        assert jaccard_index(A, B_SAME) == 1.0
        assert rand_index(A, B_SAME) == 1.0
        assert adjusted_rand_index(A, B_SAME) == 1.0

    def test_refinement_scores(self):
        # B_SPLIT co-clusters only a subset of A's pairs.
        assert 0 < jaccard_index(A, B_SPLIT) < 1
        assert f_measure(A, B_SPLIT) == pytest.approx(
            2 * 2 / (2 * 2 + 4 + 0)
        )

    def test_all_singletons_vs_itself(self):
        singles = np.arange(6)
        assert jaccard_index(singles, singles) == 1.0
        assert rand_index(singles, singles) == 1.0

    def test_ari_near_zero_for_independent(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 5, size=2000)
        b = rng.integers(0, 5, size=2000)
        assert abs(adjusted_rand_index(a, b)) < 0.02


class TestBestMatch:
    def test_identical_is_one(self):
        assert best_match_f_measure(A, B_SAME) == pytest.approx(1.0)
        assert best_match_jaccard(A, B_SAME) == pytest.approx(1.0)

    def test_refinement_forgiving(self):
        """Best-match scores sit above the pair-counting scores for a
        coarsening/refinement relation — the reason the paper's Table 2
        convention uses them."""
        assert best_match_f_measure(A, B_SPLIT) > f_measure(A, B_SPLIT)
        assert best_match_jaccard(A, B_SPLIT) > jaccard_index(A, B_SPLIT)

    def test_symmetric(self):
        assert best_match_f_measure(A, B_SPLIT) == pytest.approx(
            best_match_f_measure(B_SPLIT, A)
        )

    def test_bounded(self):
        for b in (B_SAME, B_SPLIT, B_INDEP):
            assert 0.0 <= best_match_f_measure(A, b) <= 1.0
            assert 0.0 <= best_match_jaccard(A, b) <= 1.0


class TestOtherMetrics:
    def test_vi_zero_iff_identical(self):
        assert variation_of_information(A, B_SAME) == pytest.approx(0.0)
        assert variation_of_information(A, B_SPLIT) > 0

    def test_purity(self):
        assert purity(A, B_SAME) == 1.0
        assert purity(B_SPLIT, A) == 1.0  # refinements are pure
        assert purity(np.zeros(6, dtype=int), A) == pytest.approx(0.5)

    def test_report_bundle(self):
        rep = compare_partitions(A, B_SPLIT)
        assert rep.num_clusters_a == 2 and rep.num_clusters_b == 4
        assert set(rep.row()) == {"NMI", "F-measure", "JI"}
        assert "NMI=" in str(rep)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(5, 60),
    ka=st.integers(1, 6),
    kb=st.integers(1, 6),
)
def test_property_metric_bounds_and_symmetry(seed, n, ka, kb):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, ka, size=n)
    b = rng.integers(0, kb, size=n)
    for fn in (nmi, f_measure, jaccard_index, rand_index,
               best_match_f_measure, best_match_jaccard):
        v = fn(a, b)
        assert 0.0 <= v <= 1.0 + 1e-12
        assert v == pytest.approx(fn(b, a))
    assert variation_of_information(a, b) >= -1e-12
    # Self-comparison is always perfect.
    assert nmi(a, a) == pytest.approx(1.0)
    assert variation_of_information(a, a) == pytest.approx(0.0, abs=1e-9)
