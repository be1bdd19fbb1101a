"""The Self-Organizing Map (Section III-A), trained as in the paper.

Training follows the pseudo-code of Section III-A exactly:

    Initialize: assign initial values to each unit's weight vector
    Repeat:
        randomly select a characteristic vector
        get the best matching unit
        adjust the weight of itself and its neighbors
    Continue until converge

with the update rule

    w_i(n+1) = w_i(n) + h_ci(n) * [x(n) - w_i(n)]
    h_ci(n)  = alpha(n) * exp(-||r_c - r_i||^2 / (2 sigma(n)^2))

where both ``alpha`` and ``sigma`` decay monotonically.  A batch
training mode (deterministic, the standard Kohonen batch update) is
provided as an extension for reproducible pipelines.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.exceptions import SOMError
from repro.obs.log import fmt_kv, get_logger
from repro.obs.metrics import current_metrics
from repro.obs.trace import current_tracer
from repro.pca.pca import PCA
from repro.som.batch import (
    EpochTerms,
    GroupedEpochTerms,
    apply_epoch_terms,
    exact_epoch_terms,
)
from repro.som.bmu import bmu_indices
from repro.som.bmu_fast import PrunedBMUSearch
from repro.som.decay import DecaySchedule, resolve_decay
from repro.som.grid import Grid
from repro.som.initialization import resolve_initializer
from repro.som.neighborhood import (
    GaussianNeighborhood,
    NeighborhoodKernel,
    resolve_neighborhood,
)

__all__ = ["SOMConfig", "SelfOrganizingMap"]

_log = get_logger("som")

try:  # The raw einsum entry point skips np.einsum's parsing wrapper;
    # it is the exact same C kernel, so results are bit-identical.
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:  # pragma: no cover - other numpy layouts
    _einsum = np.einsum

# Pre-tiling every sample to the (n_units, dim) update shape turns the
# per-step subtract into a same-shape ufunc call (numpy's broadcast
# inner loop is measurably slower).  Skip the tiling when it would cost
# real memory and broadcast from the raw rows instead.
_TILE_BUDGET_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class _SequentialPlan:
    """Precomputed draws, schedules and buffers for one sequential fit.

    Everything the per-step hot loop needs, materialized up front: the
    whole random-index stream in one ``rng.integers`` call (same
    Generator stream as per-step scalar draws), the alpha/sigma decay
    schedules as plain lists, per-sample update operands, row views of
    the grid's squared-distance table, and reusable scratch buffers.
    """

    samples: list  # per-sample operand for "sample - weights"
    indices: list  # pre-drawn sample index per step
    alphas: list  # learning rate per step
    sigmas: list  # neighborhood radius per step
    distance_rows: list  # row views of the grid distance table
    diff: np.ndarray  # (n_units, dim) scratch
    dist: np.ndarray  # (n_units,) squared-distance scratch
    kernel_buf: np.ndarray  # (n_units,) neighborhood scratch
    kernel_col: np.ndarray  # column view of kernel_buf
    kernel_takes_out: bool  # whether the kernel accepts out=
    neg_two_sigma_sq: list | None  # Gaussian fast path: -(2 sigma^2) per step


@dataclass(frozen=True)
class SOMConfig:
    """Hyper-parameters of a :class:`SelfOrganizingMap`.

    Attributes
    ----------
    rows, columns:
        Lattice shape.  The paper's figures use maps around 8x8 for 13
        workloads; a few units per workload is a good default ratio.
    topology:
        ``"rectangular"`` (paper) or ``"hexagonal"``.
    initialization:
        ``"pca"`` (paper's principal-plane sampling) or ``"random"``.
    neighborhood:
        ``"gaussian"`` (paper) or ``"bubble"``.
    learning_rate:
        ``(start, end)`` for ``alpha(n)``.
    radius:
        ``(start, end)`` for ``sigma(n)``; ``start=None`` defaults to
        half the grid diameter.
    decay:
        Schedule family for both ``alpha`` and ``sigma``:
        ``"exponential"`` (default), ``"linear"`` or ``"inverse"``.
    steps_per_sample:
        Sequential training runs ``steps_per_sample * n_samples``
        random-draw steps.
    seed:
        Seed for initialization and the random sample draws.
    """

    rows: int = 8
    columns: int = 8
    topology: str = "rectangular"
    initialization: str = "pca"
    neighborhood: str = "gaussian"
    learning_rate: tuple[float, float] = (0.5, 0.01)
    radius: tuple[float | None, float] = (None, 0.6)
    decay: str = "exponential"
    steps_per_sample: int = 500
    seed: int = 7

    def __post_init__(self) -> None:
        if self.steps_per_sample < 1:
            raise SOMError("SOMConfig: steps_per_sample must be >= 1")
        start, end = self.learning_rate
        if not (0.0 < end <= start <= 1.0):
            raise SOMError(
                "SOMConfig: learning_rate must satisfy 0 < end <= start <= 1, "
                f"got {self.learning_rate}"
            )


class SelfOrganizingMap:
    """A 2-D Kohonen map for workload characteristic vectors.

    Example
    -------
    >>> import numpy as np
    >>> data = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    >>> som = SelfOrganizingMap(SOMConfig(rows=4, columns=4)).fit(data)
    >>> cells = som.project(data)
    >>> bool(np.all(cells[0] == cells[1]) or
    ...      np.abs(cells[0] - cells[1]).sum() <= 2)
    True
    """

    def __init__(self, config: SOMConfig | None = None) -> None:
        self._config = config or SOMConfig()
        self._grid = Grid(
            self._config.rows, self._config.columns, topology=self._config.topology
        )
        self._kernel: NeighborhoodKernel = resolve_neighborhood(
            self._config.neighborhood
        )
        radius_start = self._config.radius[0]
        if radius_start is None:
            radius_start = max(self._grid.diameter / 2.0, self._config.radius[1])
        self._alpha: DecaySchedule = resolve_decay(
            self._config.decay, *self._config.learning_rate
        )
        self._sigma: DecaySchedule = resolve_decay(
            self._config.decay, radius_start, self._config.radius[1]
        )
        self._weights: np.ndarray | None = None
        self._history: tuple[tuple[int, float], ...] = ()
        self._epochs_trained = 0
        self._bmu_stats: dict[str, Any] | None = None

    # -- accessors ---------------------------------------------------------

    @property
    def config(self) -> SOMConfig:
        """The configuration this map was built with."""
        return self._config

    @property
    def grid(self) -> Grid:
        """The unit lattice."""
        return self._grid

    @property
    def is_trained(self) -> bool:
        """True once :meth:`fit` has run."""
        return self._weights is not None

    @property
    def weights(self) -> np.ndarray:
        """Unit weight vectors, shape ``(num_units, dim)`` (copy)."""
        self._require_trained()
        assert self._weights is not None
        return self._weights.copy()

    @property
    def weight_grid(self) -> np.ndarray:
        """Weights reshaped to ``(rows, columns, dim)`` (copy)."""
        self._require_trained()
        assert self._weights is not None
        return self._weights.reshape(
            self._grid.rows, self._grid.columns, -1
        ).copy()

    def _require_trained(self) -> None:
        if self._weights is None:
            raise SOMError("SelfOrganizingMap: not trained yet; call fit() first")

    # -- data validation ---------------------------------------------------

    @staticmethod
    def _as_data(data: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise SOMError(
                f"SOM: expected a non-empty 2-D data matrix, got shape {matrix.shape}"
            )
        if not np.all(np.isfinite(matrix)):
            raise SOMError("SOM: data contains NaN or inf")
        return matrix

    # -- training -------------------------------------------------------------

    def fit(
        self,
        data: Sequence[Sequence[float]] | np.ndarray,
        *,
        mode: str = "sequential",
        track_quality_every: int = 0,
        bmu_strategy: str = "exact",
    ) -> "SelfOrganizingMap":
        """Train the map on characteristic vectors (samples in rows).

        ``mode="sequential"`` is the paper's algorithm (random draws,
        per-sample updates); ``mode="batch"`` is the deterministic
        batch rule, useful when bit-for-bit reproducibility across
        sample orderings matters.

        Every batch fit finds its BMUs with the bound-pruned search of
        :mod:`repro.som.bmu_fast`, which returns the dense search's
        indices bit for bit.  The fit runs one :class:`~repro.pca.PCA`
        on the training matrix and hands it to both the PCA initializer
        and that search, so the covariance is diagonalized once.
        ``bmu_strategy`` (batch mode only) picks only the epoch-update
        arithmetic: ``"exact"`` (default,
        bitwise the reference batch loop) or ``"pruned"`` — the grouped
        update of :class:`~repro.som.batch.GroupedEpochTerms`, faster
        on large suites and within ~1e-13 of exact.  Search statistics
        land on :attr:`bmu_stats` and the
        ``repro_som_bmu_candidates_total`` /
        ``repro_som_bmu_pruned_total`` metrics.

        ``track_quality_every`` (sequential mode only): when positive,
        record the quantization error every that-many steps into
        :attr:`training_history` — the quantitative version of the
        pseudo-code's "continue until converge".

        Training runs inside a ``som.fit`` tracing span with one
        ``som.epoch`` child span per epoch (an epoch is one pass of
        ``n_samples`` random draws in sequential mode, one batch
        update in batch mode) when a tracer is installed; the recorded
        quality history is surfaced on the span as ``qe`` events.
        Per-epoch quantization error on the epoch spans is opt-in via
        ``track_quality_every`` (epochs without a tracked quality
        sample record ``quantization_error_skipped``), so tracing
        alone never adds extra distance passes.  Each fit also emits
        ``repro_som_fit_seconds`` and ``repro_som_steps_total``
        metrics.
        """
        if track_quality_every < 0:
            raise SOMError("SOM: track_quality_every must be >= 0")
        self._check_batch_extras(mode, bmu_strategy=bmu_strategy)
        matrix = self._as_data(data)
        tracer = current_tracer()
        started = time.perf_counter()
        with tracer.span(
            "som.fit",
            mode=mode,
            rows=self._grid.rows,
            columns=self._grid.columns,
            samples=int(matrix.shape[0]),
            dim=int(matrix.shape[1]),
        ) as span:
            rng = np.random.default_rng(self._config.seed)
            initializer = resolve_initializer(self._config.initialization)
            pca = None
            if matrix.shape[0] >= 2 and (
                mode == "batch" or self._config.initialization == "pca"
            ):
                pca = PCA().fit(matrix)
            self._weights = initializer(self._grid, matrix, rng, pca).astype(float)
            self._history = ()
            self._epochs_trained = 0
            self._bmu_stats = None

            if mode == "sequential":
                self._fit_sequential(matrix, rng, track_quality_every)
            elif mode == "batch":
                self._fit_batch(
                    matrix,
                    pca,
                    track_quality_every=track_quality_every,
                    bmu_strategy=bmu_strategy,
                )
            else:
                raise SOMError(
                    f"SOM: unknown training mode {mode!r}; "
                    "use 'sequential' or 'batch'"
                )
            if tracer.enabled:
                for step, qe in self._history:
                    span.add_event("qe", step=int(step), value=float(qe))
                final_qe = self._quantization_error_of(matrix)
                span.set(
                    epochs=self.epochs_trained, final_quantization_error=final_qe
                )
        elapsed = time.perf_counter() - started
        steps_run = self._epochs_trained * (
            matrix.shape[0] if mode == "sequential" else 1
        )
        metrics = current_metrics()
        metrics.histogram("repro_som_fit_seconds", mode=mode).observe(elapsed)
        metrics.counter("repro_som_steps_total", mode=mode).inc(steps_run)
        self._emit_bmu_metrics(metrics)
        if _log.isEnabledFor(10):  # DEBUG
            _log.debug(
                fmt_kv(
                    "som.fit",
                    mode=mode,
                    rows=self._grid.rows,
                    columns=self._grid.columns,
                    samples=int(matrix.shape[0]),
                    epochs=self.epochs_trained,
                    qe=self._quantization_error_of(matrix),
                )
            )
        return self

    @property
    def training_history(self) -> tuple[tuple[int, float], ...]:
        """``(step, quantization error)`` samples recorded during fit."""
        return self._history

    @property
    def epochs_trained(self) -> int:
        """Epochs the last :meth:`fit` ran (0 before training).

        Sequential mode counts one pass of ``n_samples`` random draws
        as an epoch (so ``steps_per_sample`` epochs total); batch mode
        counts batch updates.
        """
        return self._epochs_trained

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Everything needed to rebuild this map: config + learned state.

        The inverse is :meth:`from_state`; together they let trained
        maps be archived (the engine's disk cache stores SOM artifacts
        through this pair via :mod:`repro.serialization`).
        """
        return {
            "config": self._config,
            "weights": None if self._weights is None else self._weights.copy(),
            "history": tuple(self._history),
            "epochs_trained": self._epochs_trained,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "SelfOrganizingMap":
        """Rebuild a map from :meth:`state_dict` output.

        The reconstructed map projects and scores identically to the
        original; it does not replay training.
        """
        try:
            som = cls(state["config"])
            weights = state.get("weights")
            if weights is not None:
                som._weights = np.asarray(weights, dtype=float).copy()
            som._history = tuple(
                (int(step), float(qe)) for step, qe in state.get("history", ())
            )
            som._epochs_trained = int(state.get("epochs_trained", 0))
        except (KeyError, TypeError, ValueError) as error:
            raise SOMError(f"SOM.from_state: malformed state ({error!r})") from None
        return som

    def _quantization_error_of(
        self, matrix: np.ndarray, bmus: np.ndarray | None = None
    ) -> float:
        """Mean distance from each row to its BMU weight vector.

        The one quantization error of the repo: training history, the
        ``som.fit`` span's ``final_quantization_error`` and
        :func:`repro.som.quality.quantization_error` all come from
        here.  ``bmus`` lets a caller that already ranked the units
        (the reduce stage) skip the search.
        """
        assert self._weights is not None
        if bmus is None:
            bmus = self._bmus_of(matrix)
        return float(
            np.mean(
                np.linalg.norm(matrix - self._weights[bmus], axis=1)
            )
        )

    def _fit_sequential(
        self,
        matrix: np.ndarray,
        rng: np.random.Generator,
        track_quality_every: int = 0,
    ) -> None:
        assert self._weights is not None
        n_samples = matrix.shape[0]
        epochs = self._config.steps_per_sample
        total_steps = epochs * n_samples
        plan = self._sequential_plan(matrix, rng, total_steps)
        history: list[tuple[int, float]] = []
        tracer = current_tracer()
        # The step loop is chunked into epochs of n_samples draws purely
        # for observability; draw order and updates are unchanged.  An
        # untraced span is a shared no-op (~1 us an epoch).
        for epoch in range(epochs):
            with tracer.span("som.epoch", epoch=epoch, steps=n_samples) as span:
                recorded = len(history)
                self._sequential_steps(
                    matrix, plan, epoch * n_samples, n_samples,
                    track_quality_every, history,
                )
                # Per-epoch quality on the span is opt-in: reuse the
                # quality samples the caller asked for instead of
                # paying a full distance pass on every epoch.
                if track_quality_every and len(history) > recorded:
                    step_seen, qe = history[-1]
                    span.set(quantization_error=qe, quantization_error_step=step_seen)
                else:
                    span.set(quantization_error_skipped=True)
        self._epochs_trained = epochs
        if track_quality_every:
            history.append(
                (total_steps - 1, self._quantization_error_of(matrix))
            )
            self._history = tuple(history)

    def _sequential_plan(
        self,
        matrix: np.ndarray,
        rng: np.random.Generator,
        total_steps: int,
    ) -> _SequentialPlan:
        """Materialize draws, schedules and buffers for a sequential fit.

        Drawing all sample indices in one ``rng.integers(n, size=k)``
        call consumes the Generator stream exactly as ``k`` scalar
        draws would, so pre-drawing does not change which samples each
        step sees.
        """
        n_samples, dim = matrix.shape
        n_units = self._grid.num_units
        denominator = max(total_steps - 1, 1)
        indices = rng.integers(n_samples, size=total_steps)
        progress = np.arange(total_steps) / denominator
        alphas = self._alpha.values(progress)
        sigmas = self._sigma.values(progress)
        if n_samples * n_units * dim * 8 <= _TILE_BUDGET_BYTES:
            samples = list(
                np.ascontiguousarray(
                    np.broadcast_to(
                        matrix[:, None, :], (n_samples, n_units, dim)
                    )
                )
            )
        else:
            samples = list(matrix)
        kernel_buf = np.empty(n_units)
        try:
            kernel_takes_out = "out" in inspect.signature(
                self._kernel.__call__
            ).parameters
        except (TypeError, ValueError):  # pragma: no cover - C callables
            kernel_takes_out = False
        sigma_list = sigmas.tolist()
        # The paper's Gaussian kernel inlines to two in-place ufuncs
        # with -(2 sigma^2) hoisted out of the loop; d / -(2s^2) is
        # bitwise equal to -d / (2s^2).  Non-positive sigmas (possible
        # only at the last step of a linear-to-zero radius schedule)
        # fall back to the kernel object so its validation still fires
        # at the right step.
        neg_two_sigma_sq = None
        if type(self._kernel) is GaussianNeighborhood and all(
            sigma > 0.0 for sigma in sigma_list
        ):
            neg_two_sigma_sq = [
                -(2.0 * sigma * sigma) for sigma in sigma_list
            ]
        return _SequentialPlan(
            samples=samples,
            indices=indices.tolist(),
            alphas=alphas.tolist(),
            sigmas=sigma_list,
            distance_rows=list(self._grid.squared_distance_table),
            diff=np.empty((n_units, dim)),
            dist=np.empty(n_units),
            kernel_buf=kernel_buf,
            kernel_col=kernel_buf[:, None],
            kernel_takes_out=kernel_takes_out,
            neg_two_sigma_sq=neg_two_sigma_sq,
        )

    def _sequential_steps(
        self,
        matrix: np.ndarray,
        plan: _SequentialPlan,
        first_step: int,
        count: int,
        track_quality_every: int,
        history: list[tuple[int, float]],
    ) -> None:
        """Run ``count`` sequential updates starting at ``first_step``.

        The body is the paper's update rule as five in-place ufunc
        calls on preallocated buffers; every step is bitwise identical
        to the scalar reference loop (pinned by
        ``tests/som/test_kernel_equivalence.py``): squares make the
        diff direction irrelevant for the BMU search, so one
        ``sample - weights`` buffer serves both the search and the
        update term.
        """
        weights = self._weights
        assert weights is not None
        diff, dist = plan.diff, plan.dist
        kernel_buf, kernel_col = plan.kernel_buf, plan.kernel_col
        samples, rows = plan.samples, plan.distance_rows
        indices, alphas, sigmas = plan.indices, plan.alphas, plan.sigmas
        takes_out = plan.kernel_takes_out
        neg_two_sigma_sq = plan.neg_two_sigma_sq
        kernel = self._kernel
        subtract, multiply, add = np.subtract, np.multiply, np.add
        divide, exp = np.divide, np.exp
        einsum = _einsum
        if neg_two_sigma_sq is not None:
            for step in range(first_step, first_step + count):
                subtract(samples[indices[step]], weights, out=diff)
                einsum("ij,ij->i", diff, diff, out=dist)
                bmu = dist.argmin()
                divide(rows[bmu], neg_two_sigma_sq[step], out=kernel_buf)
                exp(kernel_buf, out=kernel_buf)
                multiply(kernel_buf, alphas[step], out=kernel_buf)
                multiply(diff, kernel_col, out=diff)
                add(weights, diff, out=weights)
                if track_quality_every and step % track_quality_every == 0:
                    history.append(
                        (step, self._quantization_error_of(matrix))
                    )
            return
        for step in range(first_step, first_step + count):
            subtract(samples[indices[step]], weights, out=diff)
            einsum("ij,ij->i", diff, diff, out=dist)
            bmu = dist.argmin()
            if takes_out:
                kernel(rows[bmu], sigmas[step], out=kernel_buf)
            else:
                kernel_buf[...] = kernel(rows[bmu], sigmas[step])
            multiply(kernel_buf, alphas[step], out=kernel_buf)
            multiply(diff, kernel_col, out=diff)
            add(weights, diff, out=weights)
            if track_quality_every and step % track_quality_every == 0:
                history.append((step, self._quantization_error_of(matrix)))

    def _check_batch_extras(self, mode: str, *, bmu_strategy: str) -> None:
        """Validate the batch-only fit extensions before any work."""
        if bmu_strategy not in ("exact", "pruned"):
            raise SOMError(
                f"SOM: unknown bmu_strategy {bmu_strategy!r}; "
                "use 'exact' or 'pruned'"
            )
        if bmu_strategy != "exact" and mode != "batch":
            raise SOMError(
                "SOM: bmu_strategy='pruned' selects the batch update's "
                "arithmetic; sequential training has no batch update"
            )

    @property
    def bmu_stats(self) -> "dict[str, Any] | None":
        """BMU-search statistics of the last batch fit, or None.

        Populated by every batch fit (``None`` after a sequential one):
        calls, candidate/exhaustive exact evaluations, whole-call
        fallbacks, pruned pair count and pruning rate — the numbers
        behind the ``repro_som_bmu_*_total`` metrics.
        """
        return None if self._bmu_stats is None else dict(self._bmu_stats)

    def _emit_bmu_metrics(self, metrics: Any) -> None:
        """Publish pruning counters once per fit (no-op for sequential)."""
        stats = self._bmu_stats
        if not stats:
            return
        scored = int(stats.get("candidates", 0)) + int(
            stats.get("exhaustive", 0)
        )
        metrics.counter("repro_som_bmu_candidates_total").inc(scored)
        metrics.counter("repro_som_bmu_pruned_total").inc(
            int(stats.get("pruned_pairs", 0))
        )

    def _fit_batch(
        self,
        matrix: np.ndarray,
        pca: PCA | None,
        *,
        epochs: int = 50,
        track_quality_every: int = 0,
        bmu_strategy: str = "exact",
    ) -> None:
        assert self._weights is not None
        denominator = max(epochs - 1, 1)
        tracer = current_tracer()
        search = PrunedBMUSearch(matrix, pca)
        epoch_terms = (
            exact_epoch_terms if bmu_strategy == "exact" else GroupedEpochTerms()
        )
        for epoch in range(epochs):
            with tracer.span("som.epoch", epoch=epoch) as span:
                self._batch_epoch(matrix, epoch / denominator, search, epoch_terms)
                # Opt-in, as in sequential mode: per-epoch quality on a
                # traced span costs a full distance pass.
                if track_quality_every and tracer.enabled:
                    span.set(
                        quantization_error=self._quantization_error_of(matrix)
                    )
                else:
                    span.set(quantization_error_skipped=True)
        self._epochs_trained = epochs
        self._bmu_stats = search.stats()

    def _batch_epoch(
        self,
        matrix: np.ndarray,
        progress: float,
        search: PrunedBMUSearch,
        epoch_terms: Callable[..., EpochTerms],
    ) -> None:
        """One deterministic Kohonen batch update: search, terms, apply.

        Both strategies search with the fit's one
        :class:`~repro.som.bmu_fast.PrunedBMUSearch`, whose indices are
        bitwise those of :func:`~repro.som.bmu.bmu_indices`; the
        strategy picks only the terms arithmetic, set up by
        :meth:`_fit_batch`: :func:`exact_epoch_terms` (the
        golden-pinned op sequence) or a :class:`GroupedEpochTerms`.
        """
        weights = self._weights
        assert weights is not None
        terms = epoch_terms(
            weights,
            matrix,
            kernel=self._kernel,
            sq_table=self._grid.squared_distance_table,
            sigma=self._sigma(progress),
            bmus=search(weights),
        )
        apply_epoch_terms(weights, terms)

    # -- queries ------------------------------------------------------------------

    def _bmu_of(self, sample: np.ndarray) -> int:
        assert self._weights is not None
        diff = self._weights - sample
        return int(np.argmin(np.einsum("ij,ij->i", diff, diff)))

    def _bmus_of(self, matrix: np.ndarray) -> np.ndarray:
        assert self._weights is not None
        # The same einsum search batch training uses, so projection
        # agrees with the BMUs the last epoch saw (see repro.som.bmu).
        return bmu_indices(matrix, self._weights)

    def best_matching_unit(self, vector: Sequence[float] | np.ndarray) -> int:
        """Index of the unit whose weight vector is nearest to ``vector``."""
        self._require_trained()
        sample = self._as_data(vector)[0]
        assert self._weights is not None
        if sample.size != self._weights.shape[1]:
            raise SOMError(
                f"SOM: vector has dimension {sample.size}, map expects "
                f"{self._weights.shape[1]}"
            )
        return self._bmu_of(sample)

    def second_best_matching_unit(
        self, vector: Sequence[float] | np.ndarray
    ) -> int:
        """Index of the nearest unit other than the BMU.

        Ties go to the lowest index, as for the BMU itself, so when
        the two nearest units tie the BMU is the lower index and this
        is the other one (never the BMU again).
        """
        self._require_trained()
        sample = self._as_data(vector)[0]
        assert self._weights is not None
        if self._weights.shape[0] < 2:
            raise SOMError("SOM: map has a single unit; no second BMU exists")
        if sample.size != self._weights.shape[1]:
            raise SOMError(
                f"SOM: vector has dimension {sample.size}, map expects "
                f"{self._weights.shape[1]}"
            )
        diff = self._weights - sample
        distances = np.einsum("ij,ij->i", diff, diff)
        distances[np.argmin(distances)] = np.inf
        return int(np.argmin(distances))

    def project(
        self, data: Sequence[Sequence[float]] | np.ndarray
    ) -> np.ndarray:
        """Map samples to lattice coordinates, shape ``(n_samples, 2)``.

        Each row is ``(row, col)`` of the sample's best matching unit —
        the "location of the workloads on the reduced dimension" that
        Figures 3, 5 and 7 plot.
        """
        self._require_trained()
        matrix = self._as_data(data)
        assert self._weights is not None
        if matrix.shape[1] != self._weights.shape[1]:
            raise SOMError(
                f"SOM: data has dimension {matrix.shape[1]}, map expects "
                f"{self._weights.shape[1]}"
            )
        bmus = self._bmus_of(matrix)
        return np.column_stack(np.divmod(bmus, self._grid.columns))

    def hit_map(
        self, data: Sequence[Sequence[float]] | np.ndarray
    ) -> np.ndarray:
        """Per-cell sample counts, shape ``(rows, columns)``.

        Cells with counts above one are the "darker cells" of Figure 3:
        multiple workloads mapping to the same unit, i.e. particularly
        similar workloads.
        """
        positions = self.project(data)
        counts = np.zeros(self._grid.shape, dtype=int)
        for row, col in positions:
            counts[row, col] += 1
        return counts

    def label_map(
        self,
        data: Sequence[Sequence[float]] | np.ndarray,
        labels: Sequence[str],
    ) -> Mapping[tuple[int, int], tuple[str, ...]]:
        """Labels grouped by the cell their vectors map to."""
        matrix = self._as_data(data)
        if len(labels) != matrix.shape[0]:
            raise SOMError(
                f"SOM: {len(labels)} labels for {matrix.shape[0]} samples"
            )
        positions = self.project(matrix)
        cells: dict[tuple[int, int], list[str]] = {}
        for (row, col), label in zip(positions, labels):
            cells.setdefault((int(row), int(col)), []).append(label)
        return {cell: tuple(names) for cell, names in cells.items()}
