"""Tests for the end-to-end systolic array system (planning + quantized execution)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.combining import group_columns, pack_filter_matrix
from repro.nn import PointwiseConv2d, Shift2d
from repro.systolic import ArrayConfig, SystolicSystem
from repro.systolic.system import layer_execution
from repro.systolic.tiles import tile_geometry


def packed_layer(rng, rows=24, cols=16, density=0.25, alpha=8, gamma=0.5):
    matrix = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density)
    grouping = group_columns(matrix, alpha=alpha, gamma=gamma)
    return matrix, pack_filter_matrix(matrix, grouping)


def test_plan_layer_reports_tiles_cycles_and_macs(rng):
    _, packed = packed_layer(rng, rows=96, cols=94, density=0.16)
    system = SystolicSystem(ArrayConfig(rows=32, cols=32, alpha=8))
    execution = system.plan_layer("layer", packed, spatial_size=16)
    assert execution.rows == 96
    assert execution.packed_columns == packed.num_groups
    assert execution.num_tiles >= 1
    assert execution.cycles > 0
    assert execution.useful_macs <= execution.occupied_macs
    assert execution.occupied_macs == packed.weights.size * 256


@pytest.mark.parametrize("array", [(32, 32), (8, 8)])
def test_plan_layer_matches_a_tiled_multiply_at_the_real_word_count(rng, array):
    """Planning reads tile geometry; a tiled multiply over as many words
    as the layer streams gives the same tiles, cycles and MACs."""
    _, packed = packed_layer(rng, rows=40, cols=30, density=0.2)
    system = SystolicSystem(ArrayConfig(rows=array[0], cols=array[1], alpha=8))
    execution = system.plan_layer("layer", packed, spatial_size=3, batch=2)
    result = system.tiled.multiply_packed(packed, np.zeros((30, 18)))
    assert execution.num_tiles == result.num_tiles
    assert execution.cycles == result.total_cycles
    assert execution.useful_macs == result.useful_macs
    assert execution.occupied_macs == result.occupied_macs


@pytest.mark.parametrize("config", [
    ArrayConfig(rows=8, cols=5, alpha=8),
    ArrayConfig(rows=16, cols=8, alpha=8, interleaved=False),
    ArrayConfig(rows=8, cols=8, alpha=8, input_bits=4, accumulation_bits=16,
                interleaved=False),
], ids=["interleaved", "unbalanced", "narrow"])
def test_layer_execution_matches_the_tiled_multiply(rng, config):
    """The integer-only tile -> layer arithmetic reports what a tiled
    multiply over the same words does, empty streams included."""
    _, packed = packed_layer(rng, rows=40, cols=30, density=0.2)
    tiles = tile_geometry(packed.weights, config)
    for words in (0, 1, 7):
        execution = layer_execution("layer", packed, tiles, 1, words,
                                    config.timing)
        result = SystolicSystem(config).tiled.multiply_packed(
            packed, np.zeros((30, words)))
        assert execution.num_tiles == result.num_tiles > 1
        assert execution.cycles == result.total_cycles
        assert execution.useful_macs == result.useful_macs
        assert execution.occupied_macs == result.occupied_macs


def test_plan_layer_checks_the_multiplexing_degree(rng):
    _, packed = packed_layer(rng, rows=40, cols=30, density=0.2)
    assert packed.multiplexing_degree() > 1
    system = SystolicSystem(ArrayConfig(rows=8, cols=8, alpha=1))
    with pytest.raises(ValueError, match="multiplexing degree"):
        system.plan_layer("layer", packed, spatial_size=3)


def test_plan_model_totals_are_sums(rng):
    layers = [packed_layer(rng)[1] for _ in range(3)]
    system = SystolicSystem(ArrayConfig(rows=32, cols=32, alpha=8))
    plan = system.plan_model([(f"l{i}", p) for i, p in enumerate(layers)], [8, 8, 4])
    assert plan.total_cycles == sum(l.cycles for l in plan.layers)
    assert plan.total_tiles == sum(l.num_tiles for l in plan.layers)
    assert 0 < plan.utilization <= 1


def test_plan_model_requires_matching_spatial_sizes(rng):
    _, packed = packed_layer(rng)
    system = SystolicSystem()
    with pytest.raises(ValueError):
        system.plan_model([("l", packed)], [8, 8])


def test_packed_layer_plan_needs_fewer_cycles_than_baseline(rng):
    matrix, packed = packed_layer(rng, rows=96, cols=94, density=0.16)
    baseline_grouping = group_columns(matrix, alpha=1, gamma=0.0)
    baseline_packed = pack_filter_matrix(matrix, baseline_grouping)
    system = SystolicSystem(ArrayConfig(rows=32, cols=32, alpha=8))
    packed_plan = system.plan_layer("packed", packed, 16)
    baseline_plan = system.plan_layer("baseline", baseline_packed, 16)
    assert packed_plan.cycles < baseline_plan.cycles
    assert packed_plan.num_tiles < baseline_plan.num_tiles
    assert packed_plan.utilization > baseline_plan.utilization


def test_run_layer_matches_float_reference_within_quantization_error(rng):
    """Quantized integer execution through the packed array must match the
    float shift + pointwise layer up to 8-bit quantization error."""
    in_channels, out_channels = 12, 20
    matrix = rng.normal(size=(out_channels, in_channels)) * \
        (rng.random((out_channels, in_channels)) < 0.4)
    grouping = group_columns(matrix, alpha=8, gamma=0.5)
    packed = pack_filter_matrix(matrix, grouping)
    pruned = packed.to_sparse()

    activations = rng.normal(size=(4, in_channels, 6, 6))
    system = SystolicSystem(ArrayConfig(rows=32, cols=32, alpha=8))
    output, info = system.run_layer(packed, activations, apply_shift=True, apply_relu=True)

    shift = Shift2d(in_channels)
    reference = np.maximum(
        np.einsum("nc,bchw->bnhw", pruned, shift.forward(activations)), 0.0)
    scale = np.abs(reference).max()
    assert np.abs(output - reference).max() < 0.05 * scale + 1e-9
    assert info["num_tiles"] >= 1
    assert 0 < info["utilization"] <= 1


def test_run_layer_without_shift_or_relu(rng):
    matrix = rng.normal(size=(8, 6))
    grouping = group_columns(matrix, alpha=4, gamma=0.5)
    packed = pack_filter_matrix(matrix, grouping)
    activations = rng.normal(size=(2, 6, 3, 3))
    system = SystolicSystem(ArrayConfig(rows=16, cols=16, alpha=4))
    output, _ = system.run_layer(packed, activations, apply_shift=False, apply_relu=False)
    reference = np.einsum("nc,bchw->bnhw", packed.to_sparse(), activations)
    assert np.abs(output - reference).max() < 0.05 * np.abs(reference).max() + 1e-9
    assert np.any(output < 0)  # ReLU really was skipped


def test_run_layer_validates_activation_shape(rng):
    _, packed = packed_layer(rng, rows=8, cols=6)
    system = SystolicSystem()
    with pytest.raises(ValueError):
        system.run_layer(packed, rng.normal(size=(2, 5, 3, 3)))
    with pytest.raises(ValueError):
        system.run_layer(packed, rng.normal(size=(2, 6, 3)))
