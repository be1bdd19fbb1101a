"""Plain and weighted mean families for benchmark scoring.

These are the scoring baselines the paper improves on: the arithmetic,
geometric, and harmonic means (the long-running "war of the benchmark
means", refs [19]-[21]) and their weighted variants, which are the
standard — but subjective — workaround for workload redundancy that
Section I criticizes.

All functions validate their input strictly: scores must be finite,
non-empty and strictly positive.  Speedups are ratios: one of zero or
below has no physical meaning, silently poisons a product or a
reciprocal sum, and would let an arithmetic mean cancel a slowdown
against a fictitious negative.  Every family rejects them alike, as
the scoring service does.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.exceptions import MeasurementError

__all__ = [
    "arithmetic_mean",
    "geometric_mean",
    "harmonic_mean",
    "power_mean",
    "weighted_arithmetic_mean",
    "weighted_geometric_mean",
    "weighted_harmonic_mean",
    "MEAN_FUNCTIONS",
]

_FLOAT_TINY = float(np.finfo(float).tiny)


def _validate_scores(
    values: Sequence[float] | np.ndarray, *, context: str
) -> np.ndarray:
    """Return ``values`` as a finite, strictly positive 1-D float array."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise MeasurementError(
            f"{context}: expected a 1-D sequence of scores, got shape {array.shape}"
        )
    if array.size == 0:
        raise MeasurementError(f"{context}: no scores given")
    if not np.all(np.isfinite(array)):
        raise MeasurementError(f"{context}: scores contain NaN or infinite values")
    if not np.all(array > 0.0):
        worst = float(array.min())
        raise MeasurementError(
            f"{context}: scores must be strictly positive, found {worst}"
        )
    return array


def _validate_weights(
    weights: Sequence[float] | np.ndarray,
    count: int,
    *,
    context: str,
) -> np.ndarray:
    """Return normalized positive weights summing to one."""
    array = np.asarray(weights, dtype=float)
    if array.ndim != 1 or array.size != count:
        raise MeasurementError(
            f"{context}: expected {count} weights, got shape {array.shape}"
        )
    if not np.all(np.isfinite(array)):
        raise MeasurementError(f"{context}: weights contain NaN or infinite values")
    if not np.all(array > 0.0):
        raise MeasurementError(f"{context}: weights must be strictly positive")
    return array / array.sum()


def _reciprocal_sum(
    array: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    context: str,
    axis: int | None = None,
) -> np.ndarray:
    """Sum of ``1/x`` (``weights``-weighted when given); raise if it overflows.

    A score near the bottom of the float range (a subnormal speedup)
    has a reciprocal beyond its top, and the harmonic mean of anything
    containing it would silently come out as 0.
    """
    with np.errstate(over="ignore"):
        reciprocals = 1.0 / array
        total = (
            np.sum(reciprocals, axis=axis)
            if weights is None
            else np.dot(weights, reciprocals)
        )
    # math.isfinite keeps the common scalar case off numpy's slow path.
    if not (math.isfinite(total) if axis is None else np.isfinite(total).all()):
        raise MeasurementError(
            f"{context}: the reciprocal of score {float(array.min())!r} "
            "overflows; the harmonic mean would collapse to 0"
        )
    return total


def arithmetic_mean(values: Sequence[float] | np.ndarray) -> float:
    """Plain arithmetic mean: ``(X_1 + ... + X_n) / n``."""
    array = _validate_scores(values, context="arithmetic_mean")
    return float(array.mean())


def geometric_mean(values: Sequence[float] | np.ndarray) -> float:
    """Plain geometric mean: ``(X_1 * ... * X_n) ** (1/n)``.

    Computed in log space so long suites of large speedups do not
    overflow the product.
    """
    array = _validate_scores(values, context="geometric_mean")
    return float(math.exp(np.log(array).mean()))


def harmonic_mean(values: Sequence[float] | np.ndarray) -> float:
    """Plain harmonic mean: ``n / (1/X_1 + ... + 1/X_n)``."""
    array = _validate_scores(values, context="harmonic_mean")
    return float(array.size / _reciprocal_sum(array, context="harmonic_mean"))


def power_mean(values: Sequence[float] | np.ndarray, exponent: float) -> float:
    """Generalized (power) mean with the given exponent.

    ``exponent=1`` is the arithmetic mean, ``-1`` the harmonic mean and
    the limit at ``0`` the geometric mean (handled explicitly).  The
    family is monotonically increasing in the exponent, which is the
    property behind the AM >= GM >= HM inequality the test suite checks.
    """
    if not math.isfinite(exponent):
        raise MeasurementError("power_mean: exponent must be finite")
    array = _validate_scores(values, context="power_mean")
    # Exponents this small are indistinguishable from the geometric
    # limit at double precision (and denormals would corrupt the
    # expm1/log1p route below through rounding at denormal granularity).
    if abs(exponent) < 1e-10:
        return float(math.exp(np.log(array).mean()))
    if abs(exponent) >= 1e-4:
        with np.errstate(over="ignore", under="ignore"):
            total = float(np.mean(array**exponent))
        # Past the float range x**p overflows to inf (the mean then
        # collapses to 0 for p < 0), or every power underflows.
        if not _FLOAT_TINY <= total < math.inf:
            worst = float(array.min() if exponent < 0 else array.max())
            raise MeasurementError(
                f"power_mean: score {worst!r} raised to {exponent!r} "
                "leaves the float range; the mean would come out as 0 or inf"
            )
        return float(total ** (1.0 / exponent))
    # Near zero the direct formula collapses x**p to 1.0 and the whole
    # mean to 1; the expm1/log1p route keeps the limit toward the
    # geometric mean accurate.
    logs = np.log(array)
    mean_scaled = float(np.mean(np.expm1(exponent * logs)))
    return float(math.exp(math.log1p(mean_scaled) / exponent))


def weighted_arithmetic_mean(
    values: Sequence[float] | np.ndarray,
    weights: Sequence[float] | np.ndarray,
) -> float:
    """Arithmetic mean with per-workload weights (normalized to sum 1)."""
    array = _validate_scores(values, context="weighted_arithmetic_mean")
    normalized = _validate_weights(
        weights, array.size, context="weighted_arithmetic_mean"
    )
    return float(np.dot(normalized, array))


def weighted_geometric_mean(
    values: Sequence[float] | np.ndarray,
    weights: Sequence[float] | np.ndarray,
) -> float:
    """Geometric mean with per-workload weights: ``prod(X_i ** w_i)``."""
    array = _validate_scores(values, context="weighted_geometric_mean")
    normalized = _validate_weights(
        weights, array.size, context="weighted_geometric_mean"
    )
    return float(math.exp(np.dot(normalized, np.log(array))))


def weighted_harmonic_mean(
    values: Sequence[float] | np.ndarray,
    weights: Sequence[float] | np.ndarray,
) -> float:
    """Harmonic mean with per-workload weights."""
    array = _validate_scores(values, context="weighted_harmonic_mean")
    normalized = _validate_weights(
        weights, array.size, context="weighted_harmonic_mean"
    )
    return float(
        1.0
        / _reciprocal_sum(array, normalized, context="weighted_harmonic_mean")
    )


MEAN_FUNCTIONS = {
    "arithmetic": arithmetic_mean,
    "geometric": geometric_mean,
    "harmonic": harmonic_mean,
}
"""Plain means by name, for callers that select the family at runtime."""
