"""The pruned BMU search: equivalence, bound soundness, fallbacks.

Three layers of contract, strongest first:

1. **Exact equality of indices** — the projected lower bound is
   conservative and shortlist scoring reuses the exact einsum kernel
   with the same tie-break, so :class:`PrunedBMUSearch` must return
   the *same* indices as :func:`bmu_indices`, bit for bit, on any
   well-conditioned input (pinned by Hypothesis below, not just on
   friendly fixtures).
2. **Bound soundness** — the diagnostic ``shortlist_mask`` must always
   contain the true BMU (the property the equality above rests on).
3. **Fit-level tolerance** — a pruned *fit* additionally swaps the
   batch update for the grouped accumulation, which reorders float
   additions; there the contract is quantization error within 1% of
   exact and identical recommended cluster counts on the paper
   fixtures, not bitwise weights.

Forced-fallback paths (rank-starved data, calls too small to prune,
bound-defeating weights) must degrade to the exact search for the
whole call and say so in the stats.  Small random problems sit below
the search's size rule, so the equality properties run with the rule
switched off (:func:`_engaged`) to exercise the pruned path itself.

Every batch fit runs this search, whatever its ``bmu_strategy``, so an
exact-strategy fit on a shape where the search engages must still be
bitwise the reference batch loop.
"""

from __future__ import annotations

from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from repro.analysis.sweep import PipelineVariant
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.som import bmu_fast
from repro.som.bmu import bmu_indices
from repro.pca import PCA
from repro.som.bmu_fast import PrunedBMUSearch
from repro.som.grid import Grid
from repro.som.quality import quantization_error
from repro.som.som import SOMConfig, SelfOrganizingMap
from repro.synthetic import big_suite
from tests.reference_kernels import reference_batch_weights


def _engaged():
    """Switch off the small-call fallback so the bound always runs."""
    return mock.patch.object(bmu_fast, "_MIN_PRUNED_PAIRS", 0)


def _search(matrix: np.ndarray) -> PrunedBMUSearch:
    """A search over ``matrix`` with its PCA, as a batch fit builds it."""
    pca = PCA().fit(matrix) if matrix.shape[0] >= 2 else None
    return PrunedBMUSearch(matrix, pca)


def _standardized(n_workloads: int, n_dims: int, seed: int = 3) -> np.ndarray:
    raw = big_suite(n_workloads, n_dims, seed=seed)
    std = raw.std(axis=0)
    return (raw - raw.mean(axis=0)) / np.where(std > 0.0, std, 1.0)


@st.composite
def search_problems(draw):
    samples = draw(st.integers(min_value=1, max_value=40))
    units = draw(st.integers(min_value=1, max_value=30))
    dim = draw(st.integers(min_value=1, max_value=12))
    finite = st.floats(min_value=-100.0, max_value=100.0, width=32)
    matrix = np.array(
        draw(st.lists(finite, min_size=samples * dim, max_size=samples * dim))
    ).reshape(samples, dim)
    weights = np.array(
        draw(st.lists(finite, min_size=units * dim, max_size=units * dim))
    ).reshape(units, dim)
    return matrix, weights


class TestIndexEquality:
    @given(search_problems())
    @settings(max_examples=80, deadline=None)
    def test_pruned_equals_exact_bitwise(self, problem):
        """Same winner and same tie-break as the exact search, always."""
        matrix, weights = problem
        with _engaged():
            found = _search(matrix)(weights)
        np.testing.assert_array_equal(found, bmu_indices(matrix, weights))

    @given(
        exponent=st.integers(min_value=0, max_value=12),
        samples=st.integers(min_value=2, max_value=40),
        units=st.integers(min_value=9, max_value=30),
        dim=st.integers(min_value=3, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_equal_under_common_offsets(
        self, exponent, samples, units, dim, seed, data
    ):
        """Far from the origin the dense scores round at the scale of
        the offset, not of the spread; the keep threshold must cover
        that rounding so near-tied units still resolve as the dense
        search resolves them."""
        rng = np.random.default_rng(seed)
        offset = 10.0**exponent
        matrix = rng.normal(size=(samples, dim)) + offset
        weights = rng.normal(size=(units, dim)) + offset
        source = data.draw(st.integers(0, units - 1), label="source")
        twin = data.draw(st.integers(0, units - 1), label="twin")
        if twin != source:
            weights[twin] = np.nextafter(weights[source], np.inf)
        with _engaged():
            found = _search(matrix)(weights)
        np.testing.assert_array_equal(found, bmu_indices(matrix, weights))

    @given(search_problems())
    @settings(max_examples=80, deadline=None)
    def test_shortlist_contains_the_true_bmu(self, problem):
        """Bound soundness: no true BMU is ever pruned away."""
        matrix, weights = problem
        assume(matrix.shape[0] >= 2)  # a PCA needs two samples
        mask, _ = _search(matrix).shortlist_mask(weights)
        true_bmus = bmu_indices(matrix, weights)
        assert mask[np.arange(matrix.shape[0]), true_bmus].all()

    def test_big_suite_agreement(self):
        """Full agreement on the realistic correlated counter matrix."""
        data = _standardized(200, 32)
        rows, cols = Grid.suggested_shape(200)
        rng = np.random.default_rng(7)
        weights = rng.normal(size=(rows * cols, 32))
        search = _search(data)
        np.testing.assert_array_equal(
            search(weights), bmu_indices(data, weights)
        )
        assert search.fallbacks == 0
        assert search.pruning_rate > 0.5

    def test_duplicate_rows_and_tied_weights(self):
        """Adversarial exact ties still pick the lowest unit index."""
        matrix = np.tile([[1.0, 2.0], [3.0, -1.0]], (6, 1))
        weights = np.tile([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]], (4, 1))
        search = _search(matrix)
        np.testing.assert_array_equal(
            search(weights), bmu_indices(matrix, weights)
        )


class TestFallbacks:
    def test_rank_starved_data_falls_back_exactly(self):
        """1-D data leaves no projection room: whole-call exact."""
        rng = np.random.default_rng(11)
        matrix = rng.normal(size=(30, 1))
        weights = rng.normal(size=(16, 1))
        search = _search(matrix)
        np.testing.assert_array_equal(
            search(weights), bmu_indices(matrix, weights)
        )
        assert search.fallbacks == 1
        assert search.exhaustive == 30 * 16
        assert search.pruning_rate == 0.0

    def test_tiny_maps_fall_back(self):
        """U <= 8 units cannot amortize the prefilter."""
        rng = np.random.default_rng(12)
        matrix = rng.normal(size=(25, 5))
        weights = rng.normal(size=(6, 5))
        search = _search(matrix)
        np.testing.assert_array_equal(
            search(weights), bmu_indices(matrix, weights)
        )
        assert search.fallbacks == 1

    def test_one_dimensional_projection_falls_back(self):
        """Two features leave a rank-1 bound too loose to pay, even on
        a call large enough to prune."""
        rng = np.random.default_rng(14)
        matrix = rng.normal(size=(1000, 2))
        weights = rng.normal(size=(169, 2))
        search = _search(matrix)
        np.testing.assert_array_equal(
            search(weights), bmu_indices(matrix, weights)
        )
        assert search.fallbacks == 1

    def test_identical_weights_defeat_the_bound_exactly(self):
        """Every unit ties: the shortlist covers everything, so the
        max_share guard hands the whole call to the exact search."""
        rng = np.random.default_rng(13)
        matrix = rng.normal(size=(40, 6))
        weights = np.tile(rng.normal(size=(1, 6)), (16, 1))
        search = _search(matrix)
        result = search(weights)
        np.testing.assert_array_equal(result, bmu_indices(matrix, weights))
        assert result.max() == 0  # ties all resolve to unit 0
        assert search.fallbacks == 1


class TestPrunedFit:
    @pytest.fixture(scope="class")
    def fits(self):
        data = _standardized(200, 32)
        rows, cols = Grid.suggested_shape(200)
        config = SOMConfig(rows=rows, columns=cols, seed=7)
        exact = SelfOrganizingMap(config).fit(data, mode="batch")
        registry = MetricsRegistry()
        with use_metrics(registry):
            pruned = SelfOrganizingMap(config).fit(
                data, mode="batch", bmu_strategy="pruned"
            )
        return data, exact, pruned, registry

    def test_quantization_error_within_one_percent(self, fits):
        data, exact, pruned, _ = fits
        qe_exact = quantization_error(exact, data)
        qe_pruned = quantization_error(pruned, data)
        assert abs(qe_pruned - qe_exact) <= 0.01 * qe_exact

    def test_stats_cover_every_epoch(self, fits):
        _, _, pruned, _ = fits
        stats = pruned.bmu_stats
        assert stats["calls"] == pruned.epochs_trained
        assert stats["fallbacks"] == 0
        assert 0.5 < stats["pruning_rate"] <= 1.0

    def test_metrics_published(self, fits):
        _, _, pruned, registry = fits
        snapshot = registry.as_dict()
        stats = pruned.bmu_stats
        assert (
            snapshot["repro_som_bmu_candidates_total"]
            == stats["candidates"] + stats["exhaustive"]
        )
        assert snapshot["repro_som_bmu_pruned_total"] == stats["pruned_pairs"]

    def test_every_batch_fit_reports_search_stats(self, fits):
        """Both strategies search through the pruned search and publish
        its counters; sequential training searches one sample at a time
        and reports none."""
        data, exact, pruned, _ = fits
        for som in (exact, pruned):
            assert som.bmu_stats["calls"] == som.epochs_trained
        registry = MetricsRegistry()
        with use_metrics(registry):
            small = SelfOrganizingMap(SOMConfig(rows=3, columns=3, seed=7))
            small.fit(data[:20], mode="batch")
        # 20 x 9 pairs is below the size rule: every call scores densely.
        assert small.bmu_stats["fallbacks"] == small.epochs_trained
        assert (
            registry.as_dict()["repro_som_bmu_candidates_total"]
            == small.epochs_trained * 20 * 9
        )
        sequential = SelfOrganizingMap(
            SOMConfig(rows=3, columns=3, steps_per_sample=2, seed=7)
        ).fit(data)
        assert sequential.bmu_stats is None

    def test_strategy_guards(self):
        data = _standardized(30, 8)
        som = SelfOrganizingMap(SOMConfig(seed=1))
        with pytest.raises(Exception, match="bmu_strategy"):
            som.fit(data, bmu_strategy="pruned")  # sequential mode
        with pytest.raises(Exception, match="bmu_strategy"):
            som.fit(data, mode="batch", bmu_strategy="fastest")


class TestExactFitsOnEngagedShapes:
    @pytest.mark.parametrize("shape", [(200, 32), (300, 64)])
    def test_exact_fit_is_the_reference_loop_bitwise(self, shape):
        """Shapes large enough for the search to prune every epoch: the
        exact strategy still trains bit for bit like the dense loop."""
        data = _standardized(*shape)
        rows, cols = Grid.suggested_shape(shape[0])
        config = SOMConfig(rows=rows, columns=cols, seed=7)
        som = SelfOrganizingMap(config).fit(data, mode="batch")
        assert np.array_equal(
            som.weights, reference_batch_weights(config, data)
        )
        stats = som.bmu_stats
        assert stats["calls"] == som.epochs_trained
        assert stats["fallbacks"] == 0
        assert stats["pruning_rate"] > 0.5


class TestOnePrincipalAxesFit:
    def test_a_pruning_batch_fit_diagonalizes_once(self):
        """The PCA initializer and the search share the fit's one PCA:
        a fit whose search prunes (200 samples x 81 units = 16,200
        pairs) runs a single eigendecomposition."""
        data = _standardized(200, 32)
        rows, cols = Grid.suggested_shape(200)
        assert rows * cols * 200 >= bmu_fast._MIN_PRUNED_PAIRS
        config = SOMConfig(rows=rows, columns=cols, seed=7)
        eigh = np.linalg.eigh
        with mock.patch.object(np.linalg, "eigh", side_effect=eigh) as spy:
            som = SelfOrganizingMap(config).fit(data, mode="batch")
        assert spy.call_count == 1
        assert som.bmu_stats["fallbacks"] == 0

    def test_search_prepares_once(self):
        """The projected samples are built on the first pruned call and
        kept for every later one."""
        data = _standardized(200, 32)
        weights = np.random.default_rng(7).normal(size=(81, 32))
        search = _search(data)
        search(weights)
        prep = search._prep
        search(weights * 0.5)
        assert search._prep is prep


class TestPaperPipelineAgreement:
    def test_identical_recommendation_on_paper_fixtures(self, paper_suite):
        """Exact and pruned batch pipelines recommend the same cut."""
        exact = (
            PipelineVariant(name="exact", som_mode="batch", seed=11)
            .pipeline(11, None)
            .run(paper_suite)
        )
        pruned = (
            PipelineVariant(
                name="pruned",
                som_mode="batch",
                seed=11,
                bmu_strategy="pruned",
            )
            .pipeline(11, None)
            .run(paper_suite)
        )
        assert (
            pruned.recommended_clusters == exact.recommended_clusters
        )
        assert pruned.positions == exact.positions
