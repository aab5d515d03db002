"""Differential tests for the QuantizedPackedModel subsystem.

The central promises:

* at 8 bits the quantized integer forward agrees with the exact packed
  forward on >= 95% of top-1 predictions (the documented serving
  tolerance for seeded LeNet-5);
* per-layer quantized outputs are **bit-identical** across ``workers=1``
  vs ``workers=4`` packing and across every grouping x prune engine
  combination — the quantized path inherits the packing determinism
  guarantees;
* calibration freezes the quantizers: inference never refits on the data
  it serves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.combining import (
    GROUPING_ENGINES,
    MAX_BITS,
    MIN_BITS,
    PRUNE_ENGINES,
    PackedModel,
    PackingPipeline,
    PipelineConfig,
    QuantizedPackedModel,
)
from repro.models import build_model
from repro.quant import LinearQuantizer
from repro.systolic.array import ArrayConfig
from repro.systolic.system import SystolicSystem

ENGINE_COMBOS = [(grouping, prune)
                 for grouping in GROUPING_ENGINES for prune in PRUNE_ENGINES]

#: The documented 8-bit serving tolerance of the acceptance criteria.
AGREEMENT_TOLERANCE = 0.95


def make_model(name: str = "lenet5", seed: int = 3, density: float = 0.5):
    """A small sparsified model whose packed logits stay nonzero."""
    rng = np.random.default_rng(seed)
    kwargs = dict(num_classes=10, rng=rng)
    if name == "lenet5":
        model = build_model(name, in_channels=1, scale=1.0, image_size=8, **kwargs)
    else:
        model = build_model(name, in_channels=3, scale=0.25, **kwargs)
    mask_rng = np.random.default_rng(seed + 1)
    for _, layer in model.packable_layers():
        weights = layer.weight.data
        weights *= mask_rng.random(weights.shape) < density
    return model


def make_batch(model_name: str = "lenet5", batch: int = 64,
               seed: int = 9) -> np.ndarray:
    channels = 1 if model_name == "lenet5" else 3
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, channels, 8, 8))


def make_quantized(bits: int = 8, grouping_engine: str = "fast",
                   prune_engine: str = "fast", model_name: str = "lenet5",
                   **kwargs) -> QuantizedPackedModel:
    model = make_model(model_name)
    return QuantizedPackedModel.from_model(
        model, PipelineConfig(alpha=8, gamma=0.5,
                              grouping_engine=grouping_engine,
                              prune_engine=prune_engine),
        bits=bits, **kwargs)


# -- the 8-bit serving tolerance -----------------------------------------------------

def test_8bit_forward_matches_exact_top1_within_documented_tolerance():
    quantized = make_quantized(bits=8)
    quantized.calibrate(make_batch(seed=5, batch=32))
    batch = make_batch(batch=64)
    assert quantized.prediction_agreement(batch) >= AGREEMENT_TOLERANCE
    # The integer path genuinely quantizes: outputs differ from the exact
    # forward, but only by quantization noise.
    outputs = quantized.forward(batch)
    exact = quantized.packed.forward(batch)
    assert np.any(exact)  # the comparison is not vacuous
    assert not np.array_equal(outputs, exact)
    assert float(np.sqrt(np.mean((outputs - exact) ** 2))) < 0.01


def test_divergence_shrinks_as_bits_grow():
    batch = make_batch(batch=32)
    calibration = make_batch(seed=5, batch=32)
    rmse = {}
    for bits in (2, 4, 8):
        quantized = make_quantized(bits=bits)
        quantized.calibrate(calibration)
        outputs = quantized.forward(batch)
        exact = quantized.packed.forward(batch)
        rmse[bits] = float(np.sqrt(np.mean((outputs - exact) ** 2)))
    assert rmse[8] < rmse[4] < rmse[2]


# -- determinism: workers and engines ------------------------------------------------

def test_per_layer_outputs_bit_identical_across_workers():
    model = make_model()
    batch = make_batch(batch=16)
    calibration = make_batch(seed=5, batch=16)
    outputs = []
    for workers in (1, 4):
        config = PipelineConfig(alpha=8, gamma=0.5, workers=workers)
        with PackingPipeline(config) as pipeline:
            quantized = QuantizedPackedModel.from_model(model,
                                                        pipeline=pipeline)
        quantized.calibrate(calibration)
        final = quantized.forward(batch, capture_layer_outputs=True)
        outputs.append((final, quantized.layer_outputs()))
    (serial_final, serial_layers), (parallel_final, parallel_layers) = outputs
    np.testing.assert_array_equal(serial_final, parallel_final)
    assert serial_layers.keys() == parallel_layers.keys()
    for name in serial_layers:
        np.testing.assert_array_equal(serial_layers[name],
                                      parallel_layers[name])


def test_per_layer_outputs_bit_identical_across_engines():
    batch = make_batch(batch=16)
    calibration = make_batch(seed=5, batch=16)
    reference: dict[str, np.ndarray] | None = None
    for grouping_engine, prune_engine in ENGINE_COMBOS:
        quantized = make_quantized(grouping_engine=grouping_engine,
                                   prune_engine=prune_engine)
        quantized.calibrate(calibration)
        quantized.forward(batch, capture_layer_outputs=True)
        layers = quantized.layer_outputs()
        if reference is None:
            reference = layers
            continue
        assert layers.keys() == reference.keys()
        for name in layers:
            np.testing.assert_array_equal(layers[name], reference[name])


def test_repeated_forwards_are_bit_identical():
    quantized = make_quantized()
    quantized.calibrate(make_batch(seed=5))
    batch = make_batch(batch=8)
    np.testing.assert_array_equal(quantized.forward(batch),
                                  quantized.forward(batch))


# -- calibration ---------------------------------------------------------------------

def test_forward_requires_calibration():
    quantized = make_quantized()
    with pytest.raises(RuntimeError, match="calibrate"):
        quantized.forward(make_batch(batch=4))
    with pytest.raises(RuntimeError, match="calibrate"):
        quantized.layer_calibrations()


def test_calibration_freezes_quantizers_across_forwards():
    quantized = make_quantized()
    quantized.calibrate(make_batch(seed=5, batch=16))
    scales = [(c.input_quantizer.scale, c.weight_quantizer.scale)
              for c in quantized.layer_calibrations()]
    # Forwards over very differently scaled data must not refit anything.
    quantized.forward(make_batch(seed=6, batch=8) * 100.0)
    quantized.forward(make_batch(seed=7, batch=8) * 0.01)
    assert [(c.input_quantizer.scale, c.weight_quantizer.scale)
            for c in quantized.layer_calibrations()] == scales


def test_calibration_is_deterministic():
    first = make_quantized().calibrate(make_batch(seed=5))
    second = make_quantized().calibrate(make_batch(seed=5))
    for a, b in zip(first.layer_calibrations(), second.layer_calibrations()):
        assert a.input_quantizer.scale == b.input_quantizer.scale
        assert a.weight_quantizer.scale == b.weight_quantizer.scale


def test_recalibration_replaces_the_frozen_scales():
    quantized = make_quantized()
    quantized.calibrate(make_batch(seed=5, batch=16))
    before = [c.input_quantizer.scale for c in quantized.layer_calibrations()]
    quantized.calibrate(make_batch(seed=5, batch=16) * 10.0)
    after = [c.input_quantizer.scale for c in quantized.layer_calibrations()]
    assert all(b != a for b, a in zip(before, after))


def test_percentile_calibration_saturates_outlier_activations():
    quantized = make_quantized(calibration="percentile", percentile=90.0)
    calibration = make_batch(seed=5, batch=32)
    quantized.calibrate(calibration)
    quantized.forward(calibration)
    reports = quantized.layer_report()
    # The first layer sees the raw (heavy-tailed normal) images: with a
    # 90th-percentile scale a nontrivial tail must clip.
    assert reports[0].input_saturation > 0.01
    max_fit = make_quantized().calibrate(calibration)
    assert (quantized.layer_calibrations()[0].input_quantizer.scale
            < max_fit.layer_calibrations()[0].input_quantizer.scale)


# -- construction / validation -------------------------------------------------------

def test_bits_outside_supported_range_are_rejected():
    for bits in (MIN_BITS - 1, MAX_BITS + 1):
        with pytest.raises(ValueError, match="bits"):
            make_quantized(bits=bits)


def test_rejects_model_free_packed_model():
    model = make_model()
    with PackingPipeline(PipelineConfig()) as pipeline:
        result = pipeline.run([(name, layer.weight.data)
                               for name, layer in model.packable_layers()])
    packed = PackedModel.from_pipeline_result(result)  # no model attached
    with pytest.raises(ValueError, match="model-backed"):
        QuantizedPackedModel(packed)


def test_rejects_array_config_bit_width_mismatch():
    model = make_model()
    packed = PackedModel.from_model(model, PipelineConfig())
    with pytest.raises(ValueError, match="input_bits"):
        QuantizedPackedModel(packed, bits=4,
                             array_config=ArrayConfig(input_bits=8, alpha=8))
    with pytest.raises(ValueError, match="calibration"):
        QuantizedPackedModel(packed, calibration="entropy")


def test_from_pipeline_result_matches_from_model():
    model = make_model()
    calibration = make_batch(seed=5, batch=16)
    batch = make_batch(batch=8)
    direct = QuantizedPackedModel.from_model(model, PipelineConfig())
    with PackingPipeline(PipelineConfig()) as pipeline:
        result = pipeline.run([(name, layer.weight.data)
                               for name, layer in model.packable_layers()])
    assembled = QuantizedPackedModel.from_pipeline_result(result, model)
    np.testing.assert_array_equal(
        direct.calibrate(calibration).forward(batch),
        assembled.calibrate(calibration).forward(batch))


def test_forward_validates_shape_and_batch_size():
    quantized = make_quantized()
    quantized.calibrate(make_batch(batch=8))
    with pytest.raises(ValueError):
        quantized.forward(make_batch(batch=4)[0])
    with pytest.raises(ValueError):
        quantized.forward(make_batch(batch=4), batch_size=0)


def test_chunked_forward_is_numerically_equivalent():
    quantized = make_quantized()
    quantized.calibrate(make_batch(seed=5))
    batch = make_batch(batch=7)
    whole = quantized.forward(batch)
    chunked = quantized.forward(batch, batch_size=3)
    assert chunked.shape == whole.shape
    np.testing.assert_allclose(chunked, whole, rtol=1e-10, atol=1e-12)


# -- per-layer reports and accounting ------------------------------------------------

def test_layer_report_requires_a_forward():
    quantized = make_quantized()
    quantized.calibrate(make_batch(batch=8))
    with pytest.raises(RuntimeError, match="forward"):
        quantized.layer_report()


def test_layer_report_carries_error_and_execution_accounting():
    quantized = make_quantized()
    quantized.calibrate(make_batch(seed=5, batch=16))
    quantized.forward(make_batch(batch=16))
    reports = quantized.layer_report()
    assert [r.name for r in reports] == quantized.layer_names()
    for report in reports:
        assert report.bits == 8
        assert report.weight_rmse >= 0.0
        assert report.input_rmse > 0.0
        assert 0.0 <= report.input_saturation <= 1.0
        assert 0.0 <= report.weight_saturation <= 1.0
        assert report.divergence_rmse > 0.0
        assert report.divergence_max >= report.divergence_rmse
        assert report.num_tiles >= 1
        assert report.cycles > 0


def test_layer_report_accumulates_across_chunks():
    quantized = make_quantized()
    quantized.calibrate(make_batch(seed=5, batch=16))
    batch = make_batch(batch=8)
    quantized.forward(batch)
    unchunked = quantized.layer_report()
    quantized.forward(batch, batch_size=2)
    chunked = quantized.layer_report()
    for one, many in zip(unchunked, chunked):
        # 4 chunks re-load the weights 4 times: strictly more cycles.
        assert many.cycles > one.cycles
        assert many.num_tiles == 4 * one.num_tiles
        assert many.divergence_rmse == pytest.approx(one.divergence_rmse,
                                                     rel=1e-9)


def test_lower_bit_widths_plan_fewer_cycles():
    calibration = make_batch(seed=5, batch=8)
    batch = make_batch(batch=8)
    cycles = {}
    for bits in (2, 8):
        quantized = make_quantized(bits=bits)
        quantized.calibrate(calibration)
        quantized.forward(batch)
        cycles[bits] = quantized.plan().total_cycles
    assert cycles[2] < cycles[8]


def test_summary_reports_quantized_totals():
    quantized = make_quantized()
    bare = quantized.summary()
    assert bare["bits"] == 8 and bare["calibrated"] is False
    assert "quantized_cycles" not in bare
    quantized.calibrate(make_batch(seed=5, batch=16))
    quantized.forward(make_batch(batch=16))
    summary = quantized.summary(quantized.plan())
    reports = quantized.layer_report()
    assert summary["calibrated"] is True
    assert summary["quantized_tiles"] == sum(r.num_tiles for r in reports)
    assert summary["quantized_cycles"] == sum(r.cycles for r in reports)
    assert summary["divergence_rmse"] > 0.0
    assert summary["num_layers"] == quantized.num_layers
    assert summary["total_cycles"] > 0


def test_untracked_forward_skips_error_shadow_but_not_execution_stats():
    quantized = make_quantized()
    quantized.calibrate(make_batch(seed=5, batch=16))
    batch = make_batch(batch=16)
    tracked = quantized.forward(batch)
    tracked_reports = quantized.layer_report()
    untracked = quantized.forward(batch, track_errors=False)
    untracked_reports = quantized.layer_report()
    # The quantized outputs are bit-identical either way ...
    np.testing.assert_array_equal(untracked, tracked)
    for fast, full in zip(untracked_reports, tracked_reports):
        # ... execution accounting is still collected ...
        assert fast.cycles == full.cycles
        assert fast.num_tiles == full.num_tiles
        assert fast.input_saturation == full.input_saturation
        # ... and only the error columns are marked unavailable.
        assert np.isnan(fast.divergence_rmse) and np.isnan(fast.input_rmse)
        assert np.isnan(fast.divergence_max)
        assert not np.isnan(full.divergence_rmse)
    assert np.isnan(quantized.summary()["divergence_rmse"])


def test_predict_uses_the_untracked_serving_path():
    quantized = make_quantized()
    quantized.calibrate(make_batch(seed=5, batch=16))
    batch = make_batch(batch=8)
    labels = quantized.predict(batch)
    np.testing.assert_array_equal(labels, np.argmax(quantized.forward(batch),
                                                    axis=1))
    quantized.predict(batch)
    assert np.isnan(quantized.layer_report()[0].divergence_rmse)


def test_layer_outputs_requires_capture():
    quantized = make_quantized()
    quantized.calibrate(make_batch(batch=8))
    quantized.forward(make_batch(batch=4))
    with pytest.raises(RuntimeError, match="capture"):
        quantized.layer_outputs()


# -- model restoration ----------------------------------------------------------------

def test_quantized_forward_restores_model_state():
    model = make_model()
    saved = {name: layer.weight.data.copy()
             for name, layer in model.packable_layers()}
    model.train()
    quantized = QuantizedPackedModel.from_model(model, PipelineConfig())
    quantized.calibrate(make_batch(batch=8))
    quantized.forward(make_batch(batch=4))
    for name, layer in model.packable_layers():
        np.testing.assert_array_equal(layer.weight.data, saved[name])
        assert "forward" not in layer.__dict__
    assert all(module.training for module in model.modules())


def test_quantized_forward_restores_state_when_a_layer_raises():
    model = make_model()
    quantized = QuantizedPackedModel.from_model(model, PipelineConfig())
    quantized.calibrate(make_batch(batch=8))
    with pytest.raises(ValueError):
        quantized.forward(np.zeros((2, 3, 8, 8)))  # wrong channel count
    for _, layer in model.packable_layers():
        assert "forward" not in layer.__dict__


# -- SystolicSystem integration -------------------------------------------------------

def test_run_layer_prefit_quantizers_match_refit_when_equal(rng):
    model = make_model()
    packed = PackedModel.from_model(model, PipelineConfig()).specs[0].packed
    system = SystolicSystem(ArrayConfig(alpha=8))
    activations = rng.normal(size=(2, packed.original_shape[1], 4, 4))
    refit_output, refit_info = system.run_layer(packed, activations)
    prefit_output, prefit_info = system.run_layer(
        packed, activations,
        input_quantizer=refit_info["input_quantizer"],
        weight_quantizer=refit_info["weight_quantizer"])
    np.testing.assert_array_equal(prefit_output, refit_output)
    assert prefit_info["input_saturation"] == refit_info["input_saturation"]


def test_run_layer_rejects_quantizer_bit_width_mismatch(rng):
    model = make_model()
    packed = PackedModel.from_model(model, PipelineConfig()).specs[0].packed
    system = SystolicSystem(ArrayConfig(alpha=8, input_bits=8))
    activations = rng.normal(size=(1, packed.original_shape[1], 4, 4))
    with pytest.raises(ValueError, match="8-bit"):
        system.run_layer(packed, activations,
                         input_quantizer=LinearQuantizer(bits=4, scale=1.0))


def test_requantize_hook_rectifies_and_requantizes(rng):
    system = SystolicSystem(ArrayConfig(input_bits=8))
    accumulations = rng.normal(size=(6, 10)) * 1000.0
    outputs, quantizer = system.requantize(accumulations)
    assert outputs.min() >= 0  # ReLU: negatives became zero
    assert outputs.max() <= quantizer.qmax
    assert quantizer.bits == 8
    rectified = np.maximum(accumulations, 0.0)
    np.testing.assert_array_equal(outputs, quantizer.quantize(rectified))
    # A frozen scale is honoured instead of refitting.
    reused, frozen = system.requantize(accumulations, scale=quantizer.scale)
    assert frozen.scale == quantizer.scale
    np.testing.assert_array_equal(reused, outputs)
