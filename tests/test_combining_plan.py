"""Immutable execution plans: differential suite against independent oracles.

``ExecutionPlan`` is the only forward engine (``PackedModel.forward`` and
``QuantizedPackedModel.forward`` run on one), so its three meanings of a
packed layer are pinned against oracles that never touch a plan:

* exact mode is **bit-identical** to the nn model's own dense forward over
  the conflict-pruned ``to_sparse()`` weights;
* mx mode and the batch-invariant kernels match that dense forward up to
  float summation order, and batch-invariant outputs are bit-identical
  per sample however the batch is split;
* quantized mode is bit-identical to running every packed layer of a
  deep-copied nn model through ``SystolicSystem.run_layer`` with the
  frozen quantizers.

The parametrized ``test_plan_matches_legacy_*`` tests keep their
historical names; they check the dense oracle.  Compiling / running a plan
never perturbs the source model, and ``load_plan`` must reproduce the same
bits straight from a V2 artifact (mmap or not) and from V1 artifacts via
the assemble-then-compile fallback.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.combining import (
    GROUPING_ENGINES,
    PRUNE_ENGINES,
    ExecutionPlan,
    PackedModel,
    PackingPipeline,
    PipelineConfig,
    QuantizedPackedModel,
    compile_plan,
    load_plan,
    save_packed,
)
from repro.experiments.workloads import sparse_network
from repro.models import build_model
from repro.systolic.system import SystolicSystem

ENGINE_COMBOS = [(grouping, prune)
                 for grouping in GROUPING_ENGINES for prune in PRUNE_ENGINES]

MODELS = {
    "lenet5": {"kwargs": {"in_channels": 1, "num_classes": 10, "scale": 1.0,
                          "image_size": 8},
               "sample_shape": (1, 8, 8)},
    "vgg": {"kwargs": {"in_channels": 3, "num_classes": 10, "scale": 0.25},
            "sample_shape": (3, 8, 8)},
    "resnet20": {"kwargs": {"in_channels": 3, "num_classes": 10,
                            "scale": 0.25},
                 "sample_shape": (3, 8, 8)},
}


def build_packed(name: str, grouping_engine: str = "fast",
                 prune_engine: str = "fast") -> PackedModel:
    model = build_model(name, rng=np.random.default_rng(3),
                        **MODELS[name]["kwargs"])
    mask_rng = np.random.default_rng(4)
    for _, layer in model.packable_layers():
        layer.weight.data *= mask_rng.random(layer.weight.data.shape) < 0.5
    config = PipelineConfig(alpha=8, gamma=0.5,
                            grouping_engine=grouping_engine,
                            prune_engine=prune_engine)
    return PackedModel.from_model(model, config)


def images_for(name: str, count: int = 6) -> np.ndarray:
    return np.random.default_rng(11).normal(
        size=(count, *MODELS[name]["sample_shape"]))


@pytest.fixture(scope="module")
def packed_lenet5() -> PackedModel:
    return build_packed("lenet5")


@pytest.fixture(scope="module")
def quantized_lenet5(packed_lenet5: PackedModel) -> QuantizedPackedModel:
    quantized = QuantizedPackedModel(packed_lenet5, bits=8)
    quantized.calibrate(np.random.default_rng(7).normal(size=(16, 1, 8, 8)))
    return quantized


def dense_reference(packed: PackedModel, images: np.ndarray) -> np.ndarray:
    """The nn model's own eval forward with the pruned weights installed."""
    reference = copy.deepcopy(packed.model)
    for (_, layer), (_, sparse) in zip(reference.packable_layers(),
                                       packed.to_sparse()):
        layer.weight.data = sparse
    return reference.eval().forward(images)


def quantized_reference(quantized: QuantizedPackedModel,
                        images: np.ndarray) -> np.ndarray:
    """Every packed layer of a deep-copied nn model run through
    ``SystolicSystem.run_layer`` with its frozen quantizers."""
    reference = copy.deepcopy(quantized.packed.model)
    system = SystolicSystem(quantized.system.config)
    for (_, layer), spec, calibration in zip(
            reference.packable_layers(), quantized.packed.specs,
            quantized.layer_calibrations()):
        def forward(x, layer=layer, packed=spec.packed,
                    calibration=calibration):
            out, _ = system.run_layer(
                packed, x, apply_shift=False, apply_relu=False,
                input_quantizer=calibration.input_quantizer,
                weight_quantizer=calibration.weight_quantizer)
            if layer.bias is not None:
                out = out + layer.bias.data[None, :, None, None]
            return out
        layer.forward = forward
    return reference.eval().forward(images)


def assert_per_sample_invariant(plan: ExecutionPlan, images: np.ndarray,
                                mode: str) -> np.ndarray:
    """Batch-invariant outputs equal the per-sample forwards bit for bit."""
    whole = plan.forward(images, mode=mode, batch_invariant=True)
    singles = np.concatenate([
        plan.forward(images[i:i + 1], mode=mode, batch_invariant=True)
        for i in range(len(images))])
    assert np.array_equal(whole, singles), f"mode={mode} is batch-variant"
    return whole


def assert_plan_matches_dense_oracle(packed: PackedModel, images: np.ndarray
                                     ) -> ExecutionPlan:
    plan = packed.compile_plan()
    expected = dense_reference(packed, images)
    assert np.array_equal(plan.forward(images), expected), (
        "exact-mode plan diverged from the dense forward")
    outputs = {"mx": plan.forward(images, mode="mx")}
    for mode in ("exact", "mx"):
        outputs[f"{mode}, batch-invariant"] = assert_per_sample_invariant(
            plan, images, mode)
    for label, out in outputs.items():
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12,
                                   err_msg=label)
    return plan


# -- differential bit-identity -----------------------------------------------
@pytest.mark.parametrize("name", list(MODELS))
def test_plan_matches_legacy_forward_per_architecture(name):
    packed = build_packed(name)
    assert_plan_matches_dense_oracle(packed, images_for(name))


@pytest.mark.parametrize("grouping_engine,prune_engine", ENGINE_COMBOS)
def test_plan_matches_legacy_across_engines(grouping_engine, prune_engine):
    packed = build_packed("lenet5", grouping_engine, prune_engine)
    assert_plan_matches_dense_oracle(packed, images_for("lenet5"))


def test_quantized_plan_matches_run_layer_oracle(quantized_lenet5):
    images = images_for("lenet5")
    plan = quantized_lenet5.compile_plan()
    assert plan.bits == 8
    assert "quantized" in plan.modes
    expected = quantized_reference(quantized_lenet5, images)
    assert np.array_equal(plan.forward(images, mode="quantized"), expected)
    assert np.array_equal(quantized_lenet5.forward(images), expected)
    np.testing.assert_allclose(
        assert_per_sample_invariant(plan, images, "quantized"), expected,
        rtol=1e-10, atol=1e-12)


def test_plan_predict_matches_dense_oracle(packed_lenet5):
    images = images_for("lenet5")
    expected = np.argmax(dense_reference(packed_lenet5, images), axis=1)
    plan = packed_lenet5.compile_plan()
    assert np.array_equal(plan.predict(images), expected)
    assert np.array_equal(packed_lenet5.predict(images), expected)
    single = plan.predict(images[2])
    assert np.ndim(single) == 0 and single == expected[2]


# -- the plan is inert: picklable, read-only, source-preserving --------------
def test_plan_pickle_round_trip_is_bit_identical(packed_lenet5,
                                                 quantized_lenet5):
    images = images_for("lenet5")
    for source, kwargs in [(packed_lenet5.compile_plan(), {"mode": "exact"}),
                           (quantized_lenet5.compile_plan(),
                            {"mode": "quantized"})]:
        clone = pickle.loads(pickle.dumps(source))
        assert np.array_equal(
            source.forward(images, batch_invariant=True, **kwargs),
            clone.forward(images, batch_invariant=True, **kwargs))


def test_compile_and_run_leave_the_source_model_untouched(packed_lenet5):
    images = images_for("lenet5")
    before = packed_lenet5.forward(images)
    plan = packed_lenet5.compile_plan()
    plan.forward(images)
    plan.forward(images, mode="mx", batch_invariant=True)
    assert np.array_equal(packed_lenet5.forward(images), before)
    assert all("forward" not in vars(module)
               for module in packed_lenet5.model.modules())


def test_plan_arrays_are_read_only(packed_lenet5):
    plan = packed_lenet5.compile_plan()
    op = plan.packed_ops[0]
    with pytest.raises((ValueError, RuntimeError)):
        op.packed.weights[0, 0] = 1.0
    with pytest.raises((ValueError, RuntimeError)):
        op.packed.channel_index[0, 0] = 0


def test_concurrent_plan_forwards_are_bit_identical(packed_lenet5):
    import threading

    images = images_for("lenet5", count=4)
    plan = packed_lenet5.compile_plan()
    expected = plan.forward(images, batch_invariant=True)
    results: list = []
    lock = threading.Lock()

    def run() -> None:
        for _ in range(5):
            out = plan.forward(images, batch_invariant=True)
            with lock:
                results.append(out)

    threads = [threading.Thread(target=run) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(results) == 20
    assert all(np.array_equal(out, expected) for out in results)


# -- systolic accounting ------------------------------------------------------
def test_plan_execution_plan_matches_quantized_model_cycles(quantized_lenet5):
    images = images_for("lenet5", count=5)
    quantized_lenet5.forward(images, track_errors=False)
    expected = quantized_lenet5.plan(batch=5)

    plan = quantized_lenet5.compile_plan()
    observed: dict = {}
    plan.forward(images, mode="quantized", observed=observed)
    planned = plan.execution_plan(observed=observed, batch=5)
    assert planned.total_cycles == expected.total_cycles
    assert planned.total_tiles == expected.total_tiles


def test_plan_execution_plan_needs_spatial_sizes(packed_lenet5):
    plan = packed_lenet5.compile_plan()
    with pytest.raises(RuntimeError, match="no spatial sizes available"):
        plan.execution_plan()


# -- validation ---------------------------------------------------------------
def test_compile_plan_requires_an_nn_model():
    layers = sparse_network("lenet5", density=0.13, seed=0)
    with PackingPipeline(PipelineConfig(alpha=8, gamma=0.5)) as pipeline:
        matrix_only = PackedModel.from_pipeline_result(pipeline.run(layers))
    with pytest.raises(RuntimeError, match="without an nn model"):
        compile_plan(matrix_only)


def test_float_plan_rejects_quantized_mode(packed_lenet5):
    plan = packed_lenet5.compile_plan()
    assert plan.modes == ("exact", "mx")
    with pytest.raises(ValueError, match="unknown forward mode"):
        plan.forward(images_for("lenet5"), mode="quantized")
    with pytest.raises(ValueError, match="unknown forward mode"):
        plan.forward(images_for("lenet5"), mode="warp")


# -- artifacts straight to plans ---------------------------------------------
@pytest.mark.parametrize("mmap", [False, True, "auto"])
def test_load_plan_from_v2_artifact_is_bit_identical(tmp_path, packed_lenet5,
                                                     mmap):
    images = images_for("lenet5")
    path = save_packed(packed_lenet5, tmp_path / "lenet5.npz",
                       model_spec={"name": "lenet5",
                                   "kwargs": MODELS["lenet5"]["kwargs"]},
                       compress=False)
    plan = load_plan(path, mmap=mmap)
    assert isinstance(plan, ExecutionPlan)
    for mode in ("exact", "mx"):
        for batch_invariant in (False, True):
            assert np.array_equal(
                plan.forward(images, mode=mode,
                             batch_invariant=batch_invariant),
                packed_lenet5.forward(images, mode=mode,
                                      batch_invariant=batch_invariant))


def test_load_plan_quantized_v2_artifact(tmp_path, quantized_lenet5):
    images = images_for("lenet5")
    path = save_packed(quantized_lenet5, tmp_path / "lenet5.int8.npz",
                       model_spec={"name": "lenet5",
                                   "kwargs": MODELS["lenet5"]["kwargs"]},
                       compress=False)
    plan = load_plan(path, mmap=True)
    assert plan.bits == 8
    assert np.array_equal(
        plan.forward(images, mode="quantized", batch_invariant=True),
        quantized_lenet5.forward(images, track_errors=False,
                                 batch_invariant=True))


def test_load_plan_v1_artifact_compiles_through_the_model(tmp_path,
                                                          packed_lenet5):
    """V1 artifacts predate plan manifests: load_plan reconstructs the nn
    model and compiles, landing on the same bits."""
    images = images_for("lenet5")
    path = save_packed(packed_lenet5, tmp_path / "lenet5.v1.npz",
                       model_spec={"name": "lenet5",
                                   "kwargs": MODELS["lenet5"]["kwargs"]},
                       format_version=1)
    plan = load_plan(path)
    assert np.array_equal(plan.forward(images, batch_invariant=True),
                          packed_lenet5.forward(images, batch_invariant=True))


def test_load_plan_rejects_matrix_only_artifacts(tmp_path):
    layers = sparse_network("lenet5", density=0.13, seed=0)
    with PackingPipeline(PipelineConfig(alpha=8, gamma=0.5)) as pipeline:
        matrix_only = PackedModel.from_pipeline_result(pipeline.run(layers))
    path = save_packed(matrix_only, tmp_path / "matrices.npz")
    with pytest.raises(ValueError, match="no nn model"):
        load_plan(path)
