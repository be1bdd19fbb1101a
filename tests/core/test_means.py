"""Unit tests for the plain and weighted mean families."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.core.means import (
    MEAN_FUNCTIONS,
    arithmetic_mean,
    geometric_mean,
    harmonic_mean,
    power_mean,
    weighted_arithmetic_mean,
    weighted_geometric_mean,
    weighted_harmonic_mean,
)
from repro.exceptions import MeasurementError


class TestArithmeticMean:
    def test_simple_average(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_single_value_is_identity(self):
        assert arithmetic_mean([7.3]) == pytest.approx(7.3)

    def test_rejects_negative_values(self):
        """Speedups are ratios: the arithmetic mean rejects a
        non-positive score as every other family does."""
        with pytest.raises(MeasurementError, match="strictly positive"):
            arithmetic_mean([-1.0, 1.0])
        with pytest.raises(MeasurementError, match="strictly positive"):
            arithmetic_mean([0.0, 1.0])

    def test_accepts_numpy_array(self):
        assert arithmetic_mean(np.array([2.0, 4.0])) == pytest.approx(3.0)

    def test_rejects_empty(self):
        with pytest.raises(MeasurementError, match="no scores"):
            arithmetic_mean([])

    def test_rejects_nan(self):
        with pytest.raises(MeasurementError, match="NaN or infinite"):
            arithmetic_mean([1.0, float("nan")])

    def test_rejects_infinity(self):
        with pytest.raises(MeasurementError, match="NaN or infinite"):
            arithmetic_mean([1.0, float("inf")])

    def test_rejects_2d_input(self):
        with pytest.raises(MeasurementError, match="1-D"):
            arithmetic_mean([[1.0, 2.0]])


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single_value_is_identity(self):
        assert geometric_mean([5.5]) == pytest.approx(5.5)

    def test_table3_machine_a_summary(self, speedups_a):
        # The paper's plain GM row: 2.10 for machine A.
        assert geometric_mean(list(speedups_a.values())) == pytest.approx(
            2.10, abs=0.005
        )

    def test_table3_machine_b_summary(self, speedups_b):
        assert geometric_mean(list(speedups_b.values())) == pytest.approx(
            1.94, abs=0.005
        )

    def test_no_overflow_for_large_products(self):
        values = [1e300] * 10
        assert geometric_mean(values) == pytest.approx(1e300, rel=1e-9)

    def test_rejects_zero(self):
        with pytest.raises(MeasurementError, match="strictly positive"):
            geometric_mean([1.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(MeasurementError, match="strictly positive"):
            geometric_mean([1.0, -2.0])

    def test_rejects_empty(self):
        with pytest.raises(MeasurementError):
            geometric_mean([])


class TestHarmonicMean:
    def test_known_value(self):
        # HM of 1 and 3 is 1.5.
        assert harmonic_mean([1.0, 3.0]) == pytest.approx(1.5)

    def test_equal_values_fixed_point(self):
        assert harmonic_mean([4.0, 4.0, 4.0]) == pytest.approx(4.0)

    def test_rejects_zero(self):
        with pytest.raises(MeasurementError, match="strictly positive"):
            harmonic_mean([0.0, 1.0])

    @pytest.mark.parametrize(
        "values, named",
        [([1e-320, 1.0, 2.0], "1e-320"), ([1e-308, 1e-308], "1e-308")],
    )
    def test_reciprocal_overflow_names_the_score_without_warning(
        self, values, named
    ):
        # A subnormal reciprocal (or a reciprocal sum past the float
        # range) used to come out as a silent 0 behind a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeasurementError, match=named):
                harmonic_mean(values)


class TestPowerMean:
    def test_exponent_one_is_arithmetic(self):
        values = [1.0, 4.0, 9.0]
        assert power_mean(values, 1.0) == pytest.approx(arithmetic_mean(values))

    def test_exponent_zero_is_geometric(self):
        values = [1.0, 4.0, 9.0]
        assert power_mean(values, 0.0) == pytest.approx(geometric_mean(values))

    def test_exponent_minus_one_is_harmonic(self):
        values = [1.0, 4.0, 9.0]
        assert power_mean(values, -1.0) == pytest.approx(harmonic_mean(values))

    def test_exponent_two_is_rms(self):
        assert power_mean([3.0, 4.0], 2.0) == pytest.approx(math.sqrt(12.5))

    def test_rejects_nan_exponent(self):
        with pytest.raises(MeasurementError, match="finite"):
            power_mean([1.0], float("nan"))

    @pytest.mark.parametrize(
        "values, exponent, named",
        [
            ([1e-320, 1.0, 2.0], -1.0, "1e-320"),
            ([1e-320, 1.0, 2.0], -2.0, "1e-320"),
            ([1e-200, 1.0], -2.0, "1e-200"),
            ([1e200, 1.0], 2.0, "1e\\+200"),
            ([1e200, 1e200], -2.0, "1e\\+200"),
        ],
    )
    def test_power_out_of_float_range_names_the_score_without_warning(
        self, values, exponent, named
    ):
        # x**p past the float range used to come out as a silent 0 or
        # inf behind a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeasurementError, match=named):
                power_mean(values, exponent)

    def test_partial_underflow_is_harmless(self):
        # One power below the float range is negligible in the mean.
        assert power_mean([1e-200, 1.0], 2.0) == pytest.approx(
            math.sqrt(0.5)
        )


class TestWeightedMeans:
    def test_uniform_weights_match_plain_arithmetic(self):
        values = [1.0, 2.0, 6.0]
        assert weighted_arithmetic_mean(values, [1, 1, 1]) == pytest.approx(
            arithmetic_mean(values)
        )

    def test_uniform_weights_match_plain_geometric(self):
        values = [1.0, 2.0, 6.0]
        assert weighted_geometric_mean(values, [2, 2, 2]) == pytest.approx(
            geometric_mean(values)
        )

    def test_uniform_weights_match_plain_harmonic(self):
        values = [1.0, 2.0, 6.0]
        assert weighted_harmonic_mean(values, [0.5, 0.5, 0.5]) == pytest.approx(
            harmonic_mean(values)
        )

    def test_weights_are_normalized(self):
        # Scaling all weights by a constant must not change the result.
        values = [2.0, 8.0]
        assert weighted_geometric_mean(values, [1, 3]) == pytest.approx(
            weighted_geometric_mean(values, [10, 30])
        )

    def test_full_weight_on_one_value(self):
        # A dominant weight pulls the mean to that value.
        result = weighted_arithmetic_mean([1.0, 100.0], [1e9, 1e-9])
        assert result == pytest.approx(1.0, abs=1e-6)

    def test_rejects_wrong_weight_count(self):
        with pytest.raises(MeasurementError, match="expected 2 weights"):
            weighted_arithmetic_mean([1.0, 2.0], [1.0])

    def test_rejects_zero_weight(self):
        with pytest.raises(MeasurementError, match="strictly positive"):
            weighted_geometric_mean([1.0, 2.0], [1.0, 0.0])

    def test_rejects_nan_weight(self):
        with pytest.raises(MeasurementError, match="NaN or infinite"):
            weighted_harmonic_mean([1.0, 2.0], [1.0, float("nan")])

    def test_weighted_harmonic_rejects_reciprocal_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeasurementError, match="1e-320"):
                weighted_harmonic_mean([1e-320, 1.0, 2.0], [1.0, 1.0, 1.0])


class TestMeanRegistry:
    def test_registry_contains_three_families(self):
        assert set(MEAN_FUNCTIONS) == {"arithmetic", "geometric", "harmonic"}

    def test_registry_functions_are_callable(self):
        for fn in MEAN_FUNCTIONS.values():
            assert fn([2.0, 2.0]) == pytest.approx(2.0)
