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
  frozen quantizers, and so is its tile / cycle / saturation accounting;
  the plan itself never calls ``run_layer`` or the tiled multiply.

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
    PackedArtifactError,
    PackedModel,
    PackingPipeline,
    PipelineConfig,
    QuantizedPackedModel,
    compile_plan,
    group_columns,
    load_plan,
    pack_filter_matrix,
    save_packed,
)
from repro.combining.execplan import PackedLayerOp
from repro.combining.kernels import invariant_matmul
from repro.experiments.workloads import sparse_network
from repro.models import build_model
from repro.nn.layers import Dense
from repro.quant.linear import LinearQuantizer
from repro.serving.registry import ResidentModel
from repro.systolic.array import ArrayConfig
from repro.systolic.system import SystolicSystem
from repro.systolic.tiles import TiledMatmul
from tests.conftest import rewrite_as_v1

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


def read_only_images(name: str) -> np.ndarray:
    """``images_for(name)`` flagged read-only: no op may write into the
    caller's input (an op writes in place only into arrays it allocated)."""
    images = images_for(name)
    images.setflags(write=False)
    return images


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
                        images: np.ndarray,
                        infos: dict[str, list] | None = None,
                        invariant_head: bool = False) -> np.ndarray:
    """Every packed layer of a deep-copied nn model run through
    ``SystolicSystem.run_layer`` with its frozen quantizers.

    ``infos`` collects each layer call's ``(input size, run_layer info)``;
    ``invariant_head`` runs the Dense layers through the batch-invariant
    matmul, the numerics of a ``batch_invariant=True`` forward.
    """
    reference = copy.deepcopy(quantized.packed.model)
    system = SystolicSystem(quantized.system.config)
    for (name, layer), spec, calibration in zip(
            reference.packable_layers(), quantized.packed.specs,
            quantized.layer_calibrations()):
        def forward(x, name=name, layer=layer, packed=spec.packed,
                    calibration=calibration):
            out, info = system.run_layer(
                packed, x, apply_shift=False, apply_relu=False,
                input_quantizer=calibration.input_quantizer,
                weight_quantizer=calibration.weight_quantizer)
            if infos is not None:
                infos.setdefault(name, []).append((x.size, info))
            if layer.bias is not None:
                out = out + layer.bias.data[None, :, None, None]
            return out
        layer.forward = forward
    if invariant_head:
        for module in reference.modules():
            if isinstance(module, Dense):
                def dense(x, module=module):
                    out = invariant_matmul(x, module.weight.data)
                    return out if module.bias is None else out + module.bias.data
                module.forward = dense
    return reference.eval().forward(images)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal shapes, dtypes and bytes (signed zeros and NaN payloads too)."""
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert (np.ascontiguousarray(actual).tobytes()
            == np.ascontiguousarray(expected).tobytes())


def build_quantized(name: str, bits: int,
                    array: tuple[int, int] | None = None
                    ) -> QuantizedPackedModel:
    packed = build_packed(name)
    array_config = None
    if array is not None:
        array_config = ArrayConfig(rows=array[0], cols=array[1],
                                   input_bits=bits,
                                   alpha=max(1, packed.multiplexing_degree()))
    quantized = QuantizedPackedModel(packed, bits=bits,
                                     array_config=array_config)
    # Calibrating on damped inputs makes the test inputs saturate.
    return quantized.calibrate(0.5 * images_for(name, count=16))


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
    images = read_only_images(name)
    assert_plan_matches_dense_oracle(packed, images)
    assert_same_bits(images, images_for(name))


@pytest.mark.parametrize("grouping_engine,prune_engine", ENGINE_COMBOS)
def test_plan_matches_legacy_across_engines(grouping_engine, prune_engine):
    packed = build_packed("lenet5", grouping_engine, prune_engine)
    assert_plan_matches_dense_oracle(packed, images_for("lenet5"))


#: (model, bits, array) cases of the quantized oracle; the 8x8 array splits
#: lenet5's layers into several tiles, so partial sums cross tiles.
QUANTIZED_CASES = [
    pytest.param(name, bits, None, id=f"{name}-{bits}bit")
    for name in MODELS for bits in (2, 4, 8)
] + [pytest.param("lenet5", 8, (8, 8), id="lenet5-8bit-8x8")]


@pytest.mark.parametrize("name,bits,array", QUANTIZED_CASES)
def test_quantized_plan_matches_run_layer_oracle(name, bits, array):
    quantized = build_quantized(name, bits, array)
    images = read_only_images(name)
    plan = quantized.compile_plan()
    assert plan.bits == bits
    assert "quantized" in plan.modes
    if array is not None:
        assert any(len(op.geometry(plan.array_config)) > 1
                   for op in plan.packed_ops)
    infos: dict[str, list] = {}
    expected = quantized_reference(quantized, images, infos=infos)
    assert_same_bits(plan.forward(images, mode="quantized"), expected)
    assert_same_bits(quantized.forward(images), expected)
    assert_same_bits(
        assert_per_sample_invariant(plan, images, "quantized"),
        quantized_reference(quantized, images, invariant_head=True))
    assert_report_matches_run_layer(quantized, infos)

    chunked: dict[str, list] = {}
    expected = np.concatenate([
        quantized_reference(quantized, images[start:start + 2], infos=chunked)
        for start in range(0, len(images), 2)])
    assert_same_bits(quantized.forward(images, batch_size=2), expected)
    assert_report_matches_run_layer(quantized, chunked)
    assert_same_bits(images, images_for(name))


def assert_report_matches_run_layer(quantized: QuantizedPackedModel,
                                    infos: dict[str, list]) -> None:
    """``layer_report()`` after the last forward equals the accounting a
    ``run_layer`` loop over the same calls gives."""
    reports = quantized.layer_report()
    assert any(report.input_saturation > 0 for report in reports)
    for report in reports:
        calls = infos[report.name]
        assert report.num_tiles == sum(info["num_tiles"] for _, info in calls)
        assert report.cycles == sum(info["cycles"] for _, info in calls)
        saturated = 0.0
        for size, info in calls:
            saturated += info["input_saturation"] * size
        assert report.input_saturation == saturated / sum(
            size for size, _ in calls)


def test_quantized_forward_never_runs_the_datapath_model(monkeypatch,
                                                         quantized_lenet5):
    """Quantized plans run their own integer GEMM: with the tiled multiply
    and ``run_layer`` raising, plan forwards and the serving executor
    still return the oracle's bits."""
    images = images_for("lenet5")
    expected = quantized_reference(quantized_lenet5, images)
    expected_served = quantized_reference(quantized_lenet5, images,
                                          invariant_head=True)
    plan = quantized_lenet5.compile_plan()

    def unreachable(*args, **kwargs):
        raise AssertionError("quantized forward ran the datapath model")
    monkeypatch.setattr(TiledMatmul, "multiply_packed", unreachable)
    monkeypatch.setattr(SystolicSystem, "run_layer", unreachable)

    assert_same_bits(plan.forward(images, mode="quantized"), expected)
    assert_same_bits(quantized_lenet5.forward(images), expected)
    resident = ResidentModel("lenet5", "quantized", plan)
    served, cycles, tiles, _ = resident.serve_batch(images)
    assert_same_bits(served, expected_served)
    assert cycles > 0 and tiles > 0


def test_quantized_weights_are_frozen_after_the_first_forward(
        monkeypatch, quantized_lenet5):
    images = images_for("lenet5")
    plan = quantized_lenet5.compile_plan()
    first = plan.forward(images, mode="quantized")
    weight_quantizers = {id(op.weight_quantizer) for op in plan.packed_ops}
    calls: list[int] = []
    for method in ("quantize", "quantize_with_saturation"):
        original = getattr(LinearQuantizer, method)

        def spy(self, tensor, original=original):
            calls.append(id(self))
            return original(self, tensor)
        monkeypatch.setattr(LinearQuantizer, method, spy)
    assert_same_bits(plan.forward(images, mode="quantized"), first)
    assert calls, "the input quantizers run on every forward"
    assert weight_quantizers.isdisjoint(calls)

    clone = pickle.loads(pickle.dumps(plan))
    assert all(op._integer is None for op in clone.packed_ops)
    assert_same_bits(clone.forward(images, mode="quantized"), first)


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


def tiny_quantized_op(bits: int) -> PackedLayerOp:
    """A 2x2 packed layer (two input channels) with ``bits``-bit quantizers."""
    matrix = np.array([[1.0, 0.0], [0.0, -1.0]])
    packed = pack_filter_matrix(matrix, group_columns(matrix, alpha=2,
                                                      gamma=0.5))
    return PackedLayerOp("tiny", packed, bias=None, in_channels=2,
                         input_quantizer=LinearQuantizer(bits=bits),
                         weight_quantizer=LinearQuantizer(bits=bits))


def test_quantized_plan_rejects_sums_beyond_exact_float64():
    """2^26 * 2^26 products over 2 channels reach 2^53: not exact."""
    op = tiny_quantized_op(27)
    with pytest.raises(ValueError, match="'tiny'.*2\\^53"):
        ExecutionPlan(root=op, packed_ops=[op], kind="quantized",
                      array_rows=8, array_cols=8, bits=27)
    op = tiny_quantized_op(26)
    plan = ExecutionPlan(root=op, packed_ops=[op], kind="quantized",
                         array_rows=8, array_cols=8, bits=26)
    assert plan.forward(np.ones((1, 2, 1, 1)), mode="quantized").shape == (
        1, 2, 1, 1)


def test_compile_checks_quantizer_preconditions(quantized_lenet5):
    """Bit width and MX degree are checked once, when the plan is built."""
    packed = quantized_lenet5.packed
    name = packed.specs[0].name
    quantizers = {calibration.name: (calibration.input_quantizer,
                                     calibration.weight_quantizer)
                  for calibration in quantized_lenet5.layer_calibrations()}
    with pytest.raises(ValueError, match=f"{name!r}.*8-bit but the array"):
        compile_plan(packed, quantizers=quantizers, bits=8,
                     array_config=ArrayConfig(input_bits=6, alpha=8))
    degree = packed.multiplexing_degree()
    assert degree > 1
    with pytest.raises(ValueError, match="MX degree"):
        compile_plan(packed, quantizers=quantizers, bits=8,
                     array_config=ArrayConfig(input_bits=8,
                                              alpha=degree - 1))


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


@pytest.mark.parametrize("mmap", [False, True, "auto"])
def test_load_plan_quantized_v2_artifact(tmp_path, quantized_lenet5, mmap):
    images = images_for("lenet5")
    path = save_packed(quantized_lenet5, tmp_path / "lenet5.int8.npz",
                       model_spec={"name": "lenet5",
                                   "kwargs": MODELS["lenet5"]["kwargs"]},
                       compress=False)
    plan = load_plan(path, mmap=mmap)
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
    path = rewrite_as_v1(save_packed(
        packed_lenet5, tmp_path / "lenet5.v1.npz",
        model_spec={"name": "lenet5", "kwargs": MODELS["lenet5"]["kwargs"]}))
    plan = load_plan(path)
    assert np.array_equal(plan.forward(images, batch_invariant=True),
                          packed_lenet5.forward(images, batch_invariant=True))


def test_load_plan_rejects_v1_artifact_without_spec(tmp_path, packed_lenet5):
    """With neither a plan manifest nor a model_spec the file alone cannot
    rebuild the model, so there is no plan to serve."""
    path = rewrite_as_v1(save_packed(packed_lenet5, tmp_path / "v1.npz"))
    with pytest.raises(PackedArtifactError, match="neither a plan manifest"):
        load_plan(path)


def test_load_plan_rejects_matrix_only_artifacts(tmp_path):
    layers = sparse_network("lenet5", density=0.13, seed=0)
    with PackingPipeline(PipelineConfig(alpha=8, gamma=0.5)) as pipeline:
        matrix_only = PackedModel.from_pipeline_result(pipeline.run(layers))
    path = save_packed(matrix_only, tmp_path / "matrices.npz")
    with pytest.raises(ValueError, match="no nn model"):
        load_plan(path)
