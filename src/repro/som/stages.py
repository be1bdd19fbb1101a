"""Engine stage for the SOM dimensionality reduction (paper stage 3).

Trains a :class:`~repro.som.som.SelfOrganizingMap` on the prepared
characteristic vectors and maps each workload to its best-matching
2-D cell.  The full :class:`~repro.som.som.SOMConfig` is part of the
stage params, so any hyper-parameter change invalidates the cached
map while leaving the characterization stages untouched.

Training cost is the pipeline's dominant term, so this stage is the
most heavily instrumented one: it asks the map to record its
quantization-error trajectory (surfaced as ``qe`` events on the
``som.fit`` tracing span and via ``SelfOrganizingMap.training_history``)
and publishes the final quantization/topographic errors as gauges in
the ambient metrics registry.  Positions and both gauges come from one
ranking of the units (:func:`repro.som.quality.map_quality`); after a
batch fit that ranking is the top-two query of the fit's own pruned
search, bitwise the dense one.  The quantization-error gauge is
bitwise the span's ``final_quantization_error``.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.characterization.base import CharacteristicVectors
from repro.engine.stage import RunContext, Stage
from repro.obs.log import fmt_kv, get_logger
from repro.obs.metrics import current_metrics
from repro.som.quality import map_quality
from repro.som.som import SelfOrganizingMap, SOMConfig

__all__ = ["SOMReduceStage"]

_log = get_logger("som")

# Aim for ~this many quantization-error samples in training_history.
_HISTORY_POINTS = 20


class SOMReduceStage(Stage):
    """Stage 3: prepared vectors → trained SOM + workload positions."""

    name = "reduce"
    inputs = ("prepared_vectors",)
    outputs = ("som", "positions")

    def __init__(
        self,
        config: SOMConfig | None = None,
        *,
        mode: str = "sequential",
        bmu_strategy: str = "exact",
    ) -> None:
        self._config = config or SOMConfig()
        self._mode = mode
        self._bmu_strategy = bmu_strategy

    @property
    def config(self) -> SOMConfig:
        """The SOM hyper-parameters this stage trains with."""
        return self._config

    @property
    def mode(self) -> str:
        """The training mode (``"sequential"`` or ``"batch"``)."""
        return self._mode

    @property
    def bmu_strategy(self) -> str:
        """The batch update arithmetic (``"exact"`` or ``"pruned"``)."""
        return self._bmu_strategy

    @property
    def params(self) -> Mapping[str, Any]:
        """The SOM configuration plus every result-changing knob.

        ``bmu_strategy`` is a result knob (the pruned path is
        tolerance-bounded), but it joins the params only when
        non-default, so every exact-strategy cache key (and golden
        fixture keyed on it) is byte-for-byte unchanged.
        """
        params: dict[str, Any] = {"config": self._config, "mode": self._mode}
        if self._bmu_strategy != "exact":
            params["bmu_strategy"] = self._bmu_strategy
        return params

    def run(self, ctx: RunContext) -> Mapping[str, Any]:
        """Train the map and project every workload to a cell."""
        prepared: CharacteristicVectors = ctx["prepared_vectors"]
        matrix = prepared.matrix  # a copy per read: read it once
        total_steps = self._config.steps_per_sample * len(prepared.labels)
        som = SelfOrganizingMap(self._config).fit(
            matrix,
            mode=self._mode,
            bmu_strategy=self._bmu_strategy,
            track_quality_every=max(1, total_steps // _HISTORY_POINTS),
        )
        # One ranking gives the cells project() would return plus both
        # quality gauges.  A batch fit's search answers it from its
        # pruned bound; it is taken off the map first, so the map this
        # stage outputs (and the engine memoizes) does not keep it.
        quality = map_quality(som, matrix, search=som._take_search())
        rows, cols = np.divmod(quality.bmus, som.grid.columns)
        positions = {
            label: (int(row), int(col))
            for label, row, col in zip(prepared.labels, rows, cols)
        }

        qe = quality.quantization_error
        te = quality.topographic_error
        metrics = current_metrics()
        metrics.gauge("repro_som_quantization_error").set(qe)
        metrics.gauge("repro_som_topographic_error").set(te)
        metrics.gauge("repro_som_epochs").set(som.epochs_trained)
        if _log.isEnabledFor(20):  # INFO
            _log.info(
                fmt_kv(
                    "som.reduce",
                    workloads=len(positions),
                    epochs=som.epochs_trained,
                    quantization_error=qe,
                    topographic_error=te,
                )
            )
        return {"som": som, "positions": positions}
