"""The one-pass quality gauges against the per-sample reference loops.

``repro.som.quality`` ranks units with the einsum scores of
``project()`` and derives the best units, the quantization error and
the topographic error from one score pass.  These tests pin it to the
loops it replaced (kept in ``tests/reference_kernels.py``): the
topographic error is exactly equal and the quantization error agrees
to 1e-12 relative (only the summation order differs) on tie-free data.
The quantization error is bitwise the ``som.fit`` span's
``final_quantization_error``, and the best units are bitwise the
cells ``project()`` returns.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from repro.characterization.base import CharacteristicVectors
from repro.engine.stage import RunContext
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.trace import Tracer, use_tracer
from repro.som.quality import map_quality, quantization_error, topographic_error
from repro.som.som import SOMConfig, SelfOrganizingMap
from repro.som.stages import SOMReduceStage

from tests.reference_kernels import (
    reference_quantization_error,
    reference_topographic_error,
)


def _tie_free(som: SelfOrganizingMap, data: np.ndarray) -> bool:
    """True when every sample's three nearest units are well separated."""
    weights = som.weights
    for sample in data:
        distances = np.sort(np.sum((weights - sample) ** 2, axis=1))
        scale = max(1.0, float(distances[-1]))
        if np.min(np.diff(distances[:3])) <= 1e-9 * scale:
            return False
    return True


def _traced_fit(config: SOMConfig, data: np.ndarray, mode: str):
    tracer = Tracer()
    with use_tracer(tracer), use_metrics(MetricsRegistry()):
        som = SelfOrganizingMap(config).fit(data, mode=mode)
    (fit_span,) = tracer.find("som.fit")
    return som, fit_span.attributes["final_quantization_error"]


class TestOnePassMatchesReferenceLoops:
    @given(
        samples=st.integers(min_value=2, max_value=30),
        dim=st.integers(min_value=2, max_value=8),
        rows=st.integers(min_value=2, max_value=6),
        columns=st.integers(min_value=2, max_value=6),
        topology=st.sampled_from(["rectangular", "hexagonal"]),
        mode=st.sampled_from(["sequential", "batch"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_gauges_and_best_units(
        self, samples, dim, rows, columns, topology, mode, seed
    ):
        config = SOMConfig(
            rows=rows,
            columns=columns,
            topology=topology,
            steps_per_sample=20,
            seed=seed,
        )
        data = np.random.default_rng(seed).normal(size=(samples, dim)) * 3.0
        som, span_qe = _traced_fit(config, data, mode)
        quality = map_quality(som, data)

        cells = np.column_stack(np.divmod(quality.bmus, columns))
        assert np.array_equal(cells, som.project(data))

        assert quality.quantization_error == span_qe
        assert quantization_error(som, data) == span_qe
        assert topographic_error(som, data) == quality.topographic_error

        # Near ties the reference's direct distances and the einsum
        # scores may rank units differently; compare where they cannot.
        assume(_tie_free(som, data))
        assert quality.quantization_error == pytest.approx(
            reference_quantization_error(som, data), rel=1e-12, abs=0.0
        )
        assert quality.topographic_error == reference_topographic_error(som, data)


class TestReduceStage:
    def test_one_pass_gauges_and_positions(self):
        data = np.random.default_rng(4).normal(size=(24, 6))
        labels = tuple(f"w{i}" for i in range(24))
        vectors = CharacteristicVectors(
            labels=labels,
            feature_names=tuple(f"f{i}" for i in range(6)),
            matrix=data,
        )
        config = SOMConfig(rows=5, columns=4, seed=2)
        stage = SOMReduceStage(config, mode="batch")
        tracer, metrics = Tracer(), MetricsRegistry()
        with use_tracer(tracer), use_metrics(metrics):
            outputs = stage.run(RunContext({"prepared_vectors": vectors}))
        som = outputs["som"]
        (fit_span,) = tracer.find("som.fit")
        snapshot = metrics.as_dict()
        assert (
            snapshot["repro_som_quantization_error"]
            == fit_span.attributes["final_quantization_error"]
        )
        assert snapshot["repro_som_topographic_error"] == topographic_error(
            som, data
        )
        projected = som.project(data)
        assert outputs["positions"] == {
            label: (int(row), int(col))
            for label, (row, col) in zip(labels, projected)
        }
