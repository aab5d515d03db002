"""Tests for 8-bit linear fixed-point quantization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import (
    CALIBRATIONS,
    LinearQuantizer,
    dequantize_tensor,
    quantization_error,
    quantize_tensor,
)


def test_quantizer_range_for_8_bits():
    quantizer = LinearQuantizer(bits=8, scale=1.0)
    assert quantizer.qmax == 127
    assert quantizer.qmin == -128


def test_fit_maps_largest_magnitude_to_qmax(rng):
    tensor = rng.normal(size=(10, 10))
    quantizer = LinearQuantizer.fit(tensor, bits=8)
    quantized = quantizer.quantize(tensor)
    assert np.abs(quantized).max() == 127


def test_quantize_clips_to_representable_range():
    quantizer = LinearQuantizer(bits=8, scale=1.0)
    quantized = quantizer.quantize(np.array([1000.0, -1000.0]))
    np.testing.assert_array_equal(quantized, [127, -128])


def test_zero_maps_to_zero(rng):
    tensor = rng.normal(size=(5, 5))
    tensor[0, 0] = 0.0
    quantizer = LinearQuantizer.fit(tensor)
    assert quantizer.quantize(tensor)[0, 0] == 0


def test_roundtrip_error_is_bounded_by_half_scale(rng):
    tensor = rng.normal(size=(100,))
    quantizer = LinearQuantizer.fit(tensor)
    error = np.abs(quantizer.roundtrip(tensor) - tensor)
    assert error.max() <= quantizer.scale / 2 + 1e-12


def test_fit_on_all_zero_tensor_uses_unit_scale():
    quantizer = LinearQuantizer.fit(np.zeros((3, 3)))
    assert quantizer.scale == 1.0
    assert np.all(quantizer.quantize(np.zeros((3, 3))) == 0)


def test_quantize_dequantize_helpers(rng):
    tensor = rng.normal(size=(6, 6))
    quantized, quantizer = quantize_tensor(tensor, bits=8)
    restored = dequantize_tensor(quantized, quantizer)
    assert np.abs(restored - tensor).max() <= quantizer.scale / 2 + 1e-12


def test_quantization_error_decreases_with_more_bits(rng):
    tensor = rng.normal(size=(200,))
    assert quantization_error(tensor, bits=8) < quantization_error(tensor, bits=4)


def test_quantization_error_of_empty_tensor_is_zero():
    assert quantization_error(np.zeros((0,))) == 0.0


def test_validation():
    with pytest.raises(ValueError):
        LinearQuantizer(bits=1)
    with pytest.raises(ValueError):
        LinearQuantizer(bits=8, scale=0.0)


# -- calibration strategies ---------------------------------------------------------

def test_calibrations_registry_names_both_strategies():
    assert CALIBRATIONS == ("max", "percentile")


def test_percentile_calibration_shrinks_scale_on_outliers(rng):
    tensor = rng.normal(size=(1000,))
    tensor[0] = 1000.0  # a single outlier dominates the max-magnitude fit
    by_max = LinearQuantizer.fit(tensor, bits=8, calibration="max")
    by_percentile = LinearQuantizer.fit(tensor, bits=8, calibration="percentile",
                                        percentile=99.0)
    assert by_percentile.scale < by_max.scale / 100
    # The outlier saturates under the percentile fit, nothing under max.
    assert by_max.saturation_rate(tensor) == 0.0
    assert 0.0 < by_percentile.saturation_rate(tensor) <= 0.02


def test_percentile_calibration_beats_max_on_heavy_tails_at_low_bits(rng):
    tensor = rng.standard_t(df=2, size=(5000,))  # heavy-tailed
    by_max = LinearQuantizer.fit(tensor, bits=3, calibration="max")
    by_percentile = LinearQuantizer.fit(tensor, bits=3, calibration="percentile",
                                        percentile=99.0)
    assert by_percentile.rmse(tensor) < by_max.rmse(tensor)


def test_percentile_100_matches_max_calibration(rng):
    tensor = rng.normal(size=(64,))
    by_max = LinearQuantizer.fit(tensor, calibration="max")
    by_percentile = LinearQuantizer.fit(tensor, calibration="percentile",
                                        percentile=100.0)
    assert by_percentile.scale == by_max.scale


def test_percentile_falls_back_to_max_on_mostly_zero_tensor():
    tensor = np.zeros(1000)
    tensor[0] = 5.0  # the 99th percentile of |tensor| is 0
    quantizer = LinearQuantizer.fit(tensor, bits=8, calibration="percentile",
                                    percentile=99.0)
    assert quantizer.scale == pytest.approx(5.0 / 127)


def test_zero_tensor_fast_path_for_both_calibrations():
    for calibration in CALIBRATIONS:
        for tensor in (np.zeros((4, 4)), np.zeros((0,))):
            quantizer = LinearQuantizer.fit(tensor, calibration=calibration)
            assert quantizer.scale == 1.0
            assert quantizer.saturation_rate(tensor) == 0.0


def test_fit_rejects_unknown_calibration_and_bad_percentile(rng):
    tensor = rng.normal(size=(8,))
    with pytest.raises(ValueError):
        LinearQuantizer.fit(tensor, calibration="entropy")
    with pytest.raises(ValueError):
        LinearQuantizer.fit(tensor, calibration="percentile", percentile=0.0)
    with pytest.raises(ValueError):
        LinearQuantizer.fit(tensor, calibration="percentile", percentile=101.0)


def test_saturation_rate_counts_clipped_values():
    quantizer = LinearQuantizer(bits=8, scale=1.0)
    tensor = np.array([0.0, 100.0, 200.0, -300.0])  # 200 and -300 clip
    assert quantizer.saturation_rate(tensor) == pytest.approx(0.5)
    assert quantizer.rmse(np.array([0.25])) == pytest.approx(0.25)


def test_quantize_with_saturation_matches_the_two_call_form(rng):
    quantizer = LinearQuantizer(bits=6, scale=0.05)
    tensor = rng.normal(size=(13, 7)) * 3.0
    # A matrix, a strided view of it, and scalars inside and beyond range.
    for value in (tensor, tensor.T, 1.0, 9.0):
        quantized, rate = quantizer.quantize_with_saturation(value)
        np.testing.assert_array_equal(quantized, quantizer.quantize(value))
        rounded = np.round(np.asarray(value) / quantizer.scale)
        outside = (rounded < quantizer.qmin) | (rounded > quantizer.qmax)
        assert rate == np.count_nonzero(outside) / outside.size
    empty, empty_rate = quantizer.quantize_with_saturation(np.zeros((0, 4)))
    assert empty.shape == (0, 4) and empty_rate == 0.0


def test_quantize_with_saturation_returns_integer_valued_float64(rng):
    quantizer = LinearQuantizer(bits=6, scale=0.05)
    tensor = rng.normal(size=(3, 4, 5, 2))
    # A transposed view comes back as a fresh C-order buffer.
    for value in (tensor, tensor.transpose(1, 0, 2, 3),
                  tensor.astype(np.float32)):
        quantized, _ = quantizer.quantize_with_saturation(value)
        assert quantized.dtype == np.float64
        assert quantized.flags["C_CONTIGUOUS"]
        assert quantized.shape == value.shape
        assert np.array_equal(quantized, quantizer.quantize(value))


def test_quantize_with_saturation_rounds_small_negatives_to_plus_zero():
    quantizer = LinearQuantizer(bits=8, scale=0.5)
    # np.round maps (-scale/2, 0) to -0.0; the GEMM operand holds +0.0.
    tiny = np.array([-0.2499, -1e-300, -0.0, 0.0, 0.1])
    quantized, rate = quantizer.quantize_with_saturation(tiny)
    assert rate == 0.0
    assert quantized.tobytes() == np.zeros(5).tobytes()


def test_quantize_with_saturation_rate_is_the_same_on_both_paths(rng):
    """In-range data skips the count and the clip; out-of-range data
    takes them.  Either way the rate is the clipped share."""
    quantizer = LinearQuantizer(bits=4, scale=1.0)
    in_range = rng.uniform(-8.4, 7.4, size=200)
    out_of_range = np.concatenate([in_range, [-9.0, 8.0, 100.0, -100.0]])
    for value, clipped in ((in_range, 0), (out_of_range, 4),
                           # half to even: 7.5 -> 8 clips, -8.5 -> -8 not
                           (np.array([-8.5, 7.5]), 1),
                           (np.array([7.49, -8.49]), 0)):
        quantized, rate = quantizer.quantize_with_saturation(value)
        assert rate == clipped / value.size
        assert quantizer.qmin <= quantized.min()
        assert quantized.max() <= quantizer.qmax
        assert np.array_equal(quantized, quantizer.quantize(value))


def test_quantize_with_saturation_keeps_nan():
    quantizer = LinearQuantizer(bits=8, scale=0.1)
    quantized, rate = quantizer.quantize_with_saturation(
        np.array([np.nan, 1.0, -np.nan, 1e9]))
    assert np.isnan(quantized[0]) and np.isnan(quantized[2])
    assert quantized[1] == 10.0 and quantized[3] == quantizer.qmax
    assert rate == 0.25


def test_fit_on_nan_tensor_falls_back_to_unit_scale():
    """A diverged model's NaN activations must not poison the scale."""
    tensor = np.array([1.0, np.nan, 2.0])
    for calibration in CALIBRATIONS:
        quantizer = LinearQuantizer.fit(tensor, calibration=calibration)
        assert quantizer.scale == 1.0
    np.testing.assert_array_equal(
        LinearQuantizer.fit(tensor).quantize(np.array([1.0, -2.0])), [1, -2])


def test_integer_matmul_with_scales_approximates_float_matmul(rng):
    """The hardware path: quantize weights and inputs, multiply integers,
    rescale — the result must be close to the float product."""
    weights = rng.normal(size=(16, 24))
    data = rng.normal(size=(24, 10))
    w_int, w_quant = quantize_tensor(weights)
    d_int, d_quant = quantize_tensor(data)
    approx = (w_int @ d_int) * (w_quant.scale * d_quant.scale)
    exact = weights @ data
    relative = np.abs(approx - exact).mean() / np.abs(exact).mean()
    assert relative < 0.02


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000), bits=st.integers(4, 12))
def test_property_roundtrip_error_bounded(seed, bits):
    rng = np.random.default_rng(seed)
    tensor = rng.normal(size=(32,)) * rng.uniform(0.1, 10.0)
    quantizer = LinearQuantizer.fit(tensor, bits=bits)
    error = np.abs(quantizer.roundtrip(tensor) - tensor).max()
    assert error <= quantizer.scale / 2 + 1e-9
