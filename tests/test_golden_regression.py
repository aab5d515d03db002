"""Golden regression harness for the packing engines.

Small frozen JSON fixtures under ``tests/golden/`` pin the exact outputs
of the group -> conflict-prune -> pack -> tile flow — tile counts, packing
efficiency, pruned-weight counts — for seeded 64x128 layers and a seeded
LeNet-5 workload; cycle-level execution plans (per-layer tiles, cycles,
MAC counts) for the full-size VGG and ResNet-20 workloads; and the
quantized integer forward of a seeded LeNet-5 at 8 bits (predictions,
logits, and per-layer error accounting).  Every engine combination must
reproduce the frozen numbers bit-for-bit, so future engine rewrites are
diffed against the frozen behaviour instead of only against each other.

Alongside the JSON fixtures, two **serialized packed artifacts** (a float
and an 8-bit quantized LeNet-5, written by the format-V1 writer that
:func:`repro.combining.serialization.save_packed` has since replaced) are
checked in as binary fixtures: the round-trip tests load them with the
*current* reader and pin save -> load -> forward end to end, so a format
change that breaks existing artifacts (or shifts a single output bit)
fails here instead of in production registries.

To re-freeze after an intentional behaviour change::

    PYTHONPATH=src python -m pytest tests/test_golden_regression.py --regen-golden

and review the JSON diff.  The two ``.npz`` artifacts are never
re-written: they are the only real V1 files, and the current writer
could only replace them with V2 ones.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.combining import (
    GROUPING_ENGINES,
    PRUNE_ENGINES,
    PackedModel,
    PackingPipeline,
    PipelineConfig,
    QuantizedPackedModel,
    load_packed,
)
from repro.combining.serialization import fingerprint_packed
from repro.experiments.workloads import (
    PAPER_DENSITY,
    sparse_filter_matrix,
    sparse_network,
    spatial_sizes,
)
from repro.models import build_model
from tests.conftest import regen_golden_text

ENGINE_COMBOS = [(grouping, prune)
                 for grouping in GROUPING_ENGINES for prune in PRUNE_ENGINES]

#: ``first_logits`` leave the float classifier head, a BLAS matmul whose
#: summation order depends on the BLAS build, so their last bits are not
#: platform-defined: builds seen so far differ by at most 4 ULP.  Allow 8
#: ULP; one quantization level moved anywhere upstream shifts the logits by
#: orders of magnitude more.  Predictions, scales and layer stats stay exact.
LOGITS_MAX_ULP = {"first_logits": 8}

#: Seeded 64x128 layers at the densities the paper's workloads span.
LAYER_CASES: tuple[tuple[int, float], ...] = (
    (0, 0.10), (1, 0.10), (2, 0.10),
    (0, 0.16), (1, 0.16), (2, 0.16),
)


def layer_metrics(seed: int, density: float, grouping_engine: str,
                  prune_engine: str) -> dict:
    rng = np.random.default_rng(seed)
    matrix = sparse_filter_matrix(64, 128, density, rng)
    config = PipelineConfig(alpha=8, gamma=0.5, grouping_engine=grouping_engine,
                            prune_engine=prune_engine)
    layer = PackingPipeline(config).run_layer(f"seed{seed}", matrix)
    return {
        "rows": layer.rows,
        "columns_before": layer.columns_before,
        "columns_after": layer.columns_after,
        "tiles_before": layer.tiles_before,
        "tiles_after": layer.tiles_after,
        "packing_efficiency": layer.packing_efficiency,
        "nonzeros_before": layer.nonzeros_before,
        "nonzeros_after": layer.nonzeros_after,
        "pruned_weights": layer.pruned_weights,
    }


@pytest.mark.parametrize("grouping_engine,prune_engine", ENGINE_COMBOS)
def test_seeded_layers_match_golden(golden_check, grouping_engine, prune_engine):
    payload = {
        f"seed{seed}_density{int(round(density * 100))}":
            layer_metrics(seed, density, grouping_engine, prune_engine)
        for seed, density in LAYER_CASES
    }
    golden_check("packed_layers_64x128", payload)


@pytest.mark.parametrize("grouping_engine,prune_engine", ENGINE_COMBOS)
def test_lenet5_packed_model_matches_golden(golden_check, grouping_engine,
                                            prune_engine):
    layers = sparse_network("lenet5", density=0.13, seed=0)
    config = PipelineConfig(alpha=8, gamma=0.5, grouping_engine=grouping_engine,
                            prune_engine=prune_engine)
    with PackingPipeline(config) as pipeline:
        result = pipeline.run(layers)
    model = PackedModel.from_pipeline_result(result)
    plan = model.plan(spatial_sizes(layers))
    payload = {
        "layers": {
            layer.name: {
                "columns_after": layer.columns_after,
                "tiles_after": layer.tiles_after,
                "packing_efficiency": layer.packing_efficiency,
                "pruned_weights": layer.pruned_weights,
            }
            for layer in result.layers
        },
        "model": {
            "packing_efficiency": model.packing_efficiency(),
            "total_nonzeros": model.total_nonzeros(),
            "multiplexing_degree": model.multiplexing_degree(),
            "total_tiles": plan.total_tiles,
            "total_cycles": plan.total_cycles,
            "utilization": plan.utilization,
        },
    }
    golden_check("packed_model_lenet5", payload)


@pytest.mark.parametrize("network", ["vgg", "resnet20"])
@pytest.mark.parametrize("grouping_engine,prune_engine", ENGINE_COMBOS)
def test_workload_execution_plan_matches_golden(golden_check, network,
                                                grouping_engine, prune_engine):
    """Cycle-level plans of the full-size VGG / ResNet-20 workloads."""
    layers = sparse_network(network, density=PAPER_DENSITY[network], seed=0)
    config = PipelineConfig(alpha=8, gamma=0.5, grouping_engine=grouping_engine,
                            prune_engine=prune_engine)
    with PackingPipeline(config) as pipeline:
        result = pipeline.run(layers)
    model = PackedModel.from_pipeline_result(result)
    plan = model.plan(spatial_sizes(layers))
    payload = {
        "layers": {
            execution.name: {
                "packed_columns": execution.packed_columns,
                "num_tiles": execution.num_tiles,
                "cycles": execution.cycles,
                "useful_macs": execution.useful_macs,
                "occupied_macs": execution.occupied_macs,
            }
            for execution in plan.layers
        },
        "totals": {
            "total_tiles": plan.total_tiles,
            "total_cycles": plan.total_cycles,
            "total_useful_macs": plan.total_useful_macs,
            "total_occupied_macs": plan.total_occupied_macs,
            "utilization": plan.utilization,
        },
    }
    golden_check(f"execution_plan_{network}", payload)


def quantized_lenet5():
    """The seeded LeNet-5 quantized-forward scenario the fixture freezes."""
    model = build_model("lenet5", in_channels=1, num_classes=10, scale=1.0,
                        image_size=8, rng=np.random.default_rng(3))
    mask_rng = np.random.default_rng(4)
    for _, layer in model.packable_layers():
        layer.weight.data *= mask_rng.random(layer.weight.data.shape) < 0.5
    rng = np.random.default_rng(7)
    calibration = rng.normal(size=(32, 1, 8, 8))
    batch = rng.normal(size=(64, 1, 8, 8))
    return model, calibration, batch


@pytest.mark.parametrize("grouping_engine,prune_engine", ENGINE_COMBOS)
def test_lenet5_quantized_forward_matches_golden(golden_check, grouping_engine,
                                                 prune_engine):
    """The 8-bit integer forward of a seeded LeNet-5, frozen end to end."""
    model, calibration, batch = quantized_lenet5()
    config = PipelineConfig(alpha=8, gamma=0.5, grouping_engine=grouping_engine,
                            prune_engine=prune_engine)
    quantized = QuantizedPackedModel.from_model(model, config, bits=8)
    quantized.calibrate(calibration)
    outputs = quantized.forward(batch)
    # Agreement straight from the fixture outputs — re-running predict()
    # here would replace the tracked stats the layer report freezes.
    agreement = float(np.mean(np.argmax(outputs, axis=1)
                              == quantized.packed.predict(batch)))
    payload = {
        "bits": 8,
        "predictions": np.argmax(outputs, axis=1).tolist(),
        "first_logits": outputs[0].tolist(),
        "agreement": agreement,
        "layers": {
            report.name: {
                "weight_rmse": report.weight_rmse,
                "input_rmse": report.input_rmse,
                "input_saturation": report.input_saturation,
                "divergence_rmse": report.divergence_rmse,
                "num_tiles": report.num_tiles,
                "cycles": report.cycles,
            }
            for report in quantized.layer_report()
        },
        "calibration_scales": {
            calibration_entry.name: {
                "input_scale": calibration_entry.input_quantizer.scale,
                "weight_scale": calibration_entry.weight_quantizer.scale,
            }
            for calibration_entry in quantized.layer_calibrations()
        },
    }
    golden_check("quantized_forward_lenet5", payload, max_ulp=LOGITS_MAX_ULP)


# -- serialized packed artifacts ---------------------------------------------
def _golden_dir():
    from pathlib import Path

    return Path(__file__).resolve().parent / "golden"


def _artifact_check(request, path, fresh, batch, fixture_name, golden_check):
    """Verify one checked-in V1 artifact: load -> forward.

    The checked-in file is loaded with the current reader and its forward
    must be bit-identical to the freshly packed model's — the acceptance
    contract of the serialization format — with the outputs additionally
    frozen in a JSON fixture.  ``--regen-golden`` re-freezes only that
    JSON: the artifact itself stays as the old writer left it (and still
    has to reproduce the fresh model).
    """
    assert path.exists(), (
        f"golden artifact {path} is missing; it is a format-V1 file that "
        "the current writer cannot reproduce — restore it from git")
    loaded = load_packed(path)
    loaded_outputs = loaded.forward(batch)
    assert np.array_equal(loaded_outputs, fresh.forward(batch)), (
        "the checked-in artifact no longer reproduces the freshly packed "
        "model's forward bit-for-bit")
    packed = loaded.packed if isinstance(loaded, QuantizedPackedModel) else loaded
    payload = {
        "predictions": np.argmax(loaded_outputs, axis=1).tolist(),
        "first_logits": loaded_outputs[0].tolist(),
        "fingerprints": {spec.name: fingerprint_packed(spec.packed)
                         for spec in packed.specs},
    }
    golden_check(fixture_name, payload, max_ulp=LOGITS_MAX_ULP)


def test_packed_artifact_round_trip_matches_golden(request, golden_check):
    """save -> load -> forward of the float LeNet-5 artifact, pinned."""
    model, _, batch = quantized_lenet5()
    fresh = PackedModel.from_model(model, PipelineConfig(alpha=8, gamma=0.5))
    _artifact_check(request, _golden_dir() / "lenet5_packed_artifact.npz",
                    fresh, batch, "artifact_forward_lenet5", golden_check)


def test_quantized_artifact_round_trip_matches_golden(request, golden_check):
    """save -> load -> forward of the 8-bit quantized artifact, pinned."""
    model, calibration, batch = quantized_lenet5()
    fresh = QuantizedPackedModel.from_model(
        model, PipelineConfig(alpha=8, gamma=0.5), bits=8)
    fresh.calibrate(calibration)
    _artifact_check(request, _golden_dir() / "lenet5_quantized8_artifact.npz",
                    fresh, batch, "artifact_forward_lenet5_int8", golden_check)


def test_golden_fixtures_are_checked_in():
    """The harness must fail loudly if the frozen fixtures go missing."""
    golden_dir = _golden_dir()
    names = {path.name for path in golden_dir.glob("*.json")}
    assert {"packed_layers_64x128.json", "packed_model_lenet5.json",
            "execution_plan_vgg.json", "execution_plan_resnet20.json",
            "quantized_forward_lenet5.json", "artifact_forward_lenet5.json",
            "artifact_forward_lenet5_int8.json"} <= names
    artifacts = {path.name for path in golden_dir.glob("*.npz")}
    assert {"lenet5_packed_artifact.npz",
            "lenet5_quantized8_artifact.npz"} <= artifacts


def test_regen_keeps_stored_values_within_their_ulp_bound(tmp_path):
    """``--regen-golden`` rewrites a ``max_ulp`` key only when it moved past
    its bound: a 1-2 ULP BLAS difference leaves the fixture byte-identical,
    while an out-of-bound key and any exact key take the fresh values."""
    path = tmp_path / "fixture.json"
    logits = [0.1, -2.5, 3.75]
    stored = {"first_logits": logits, "predictions": [2, 0]}
    path.write_text(regen_golden_text(path, stored))
    frozen = path.read_text()

    def shifted(ulps: int) -> list[float]:
        return [float(value) for value in np.asarray(logits)
                + ulps * np.spacing(np.asarray(logits))]

    path.write_text(regen_golden_text(
        path, {"first_logits": shifted(2), "predictions": [2, 0]},
        max_ulp=LOGITS_MAX_ULP))
    assert path.read_text() == frozen

    moved = shifted(9)
    path.write_text(regen_golden_text(
        path, {"first_logits": moved, "predictions": [2, 0]},
        max_ulp=LOGITS_MAX_ULP))
    assert json.loads(path.read_text())["first_logits"] == moved

    path.write_text(frozen)
    path.write_text(regen_golden_text(
        path, {"first_logits": shifted(1), "predictions": [2, 1]},
        max_ulp=LOGITS_MAX_ULP))
    assert json.loads(path.read_text()) == {"first_logits": logits,
                                            "predictions": [2, 1]}
