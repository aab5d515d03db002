"""Differential tests for the PackedModel batched-inference subsystem.

The central promise: ``PackedModel.forward`` (exact mode) is **bit-identical**
to the dense reference forward — the same model with the conflict-pruned
weights installed — on LeNet / VGG slices, for every combination of the
grouping and pruning engines, including empty-group and zero-row edge
cases.  The ``"mx"`` mode (true MX-cell routing: gather by channel index,
sum across groups) matches the same reference up to float summation order.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.combining import (
    GROUPING_ENGINES,
    PRUNE_ENGINES,
    PackedLayerSpec,
    PackedModel,
    PackingPipeline,
    PipelineConfig,
    register_plan_compiler,
)
from repro.combining.execplan import _compile_module
from repro.models import build_model
from repro.nn import Module, PointwiseConv2d

ENGINE_COMBOS = [(grouping, prune)
                 for grouping in GROUPING_ENGINES for prune in PRUNE_ENGINES]


def make_model(name: str, seed: int = 3) -> Module:
    """A small LeNet / VGG slice with sparsified packable weights."""
    rng = np.random.default_rng(seed)
    kwargs = dict(num_classes=10, rng=rng)
    if name == "lenet5":
        model = build_model(name, in_channels=1, scale=1.0, image_size=8, **kwargs)
    else:
        model = build_model(name, in_channels=3, scale=0.25, **kwargs)
    mask_rng = np.random.default_rng(seed + 1)
    for _, layer in model.packable_layers():
        weights = layer.weight.data
        weights *= mask_rng.random(weights.shape) < 0.3
    return model


def make_batch(model_name: str, batch: int = 4, seed: int = 9) -> np.ndarray:
    channels = 1 if model_name == "lenet5" else 3
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, channels, 8, 8))


def dense_reference(model: Module, packed: PackedModel) -> Module:
    """The dense model holding the pruned weights the packing represents."""
    reference = copy.deepcopy(model)
    for (_, layer), (_, sparse) in zip(reference.packable_layers(),
                                       packed.to_sparse()):
        layer.weight.data = sparse
    reference.eval()
    return reference


# -- bit-exact differential suite ---------------------------------------------------

@pytest.mark.parametrize("model_name", ["lenet5", "vgg"])
@pytest.mark.parametrize("grouping_engine,prune_engine", ENGINE_COMBOS)
def test_exact_forward_bit_identical_to_dense_reference(model_name,
                                                        grouping_engine,
                                                        prune_engine):
    model = make_model(model_name)
    packed = PackedModel.from_model(model, PipelineConfig(
        alpha=8, gamma=0.5, grouping_engine=grouping_engine,
        prune_engine=prune_engine))
    batch = make_batch(model_name)
    expected = dense_reference(model, packed).forward(batch)
    np.testing.assert_array_equal(packed.forward(batch), expected)


@pytest.mark.parametrize("model_name", ["lenet5", "vgg"])
def test_engine_combos_produce_bit_identical_forwards(model_name):
    model = make_model(model_name)
    batch = make_batch(model_name)
    outputs = []
    for grouping_engine, prune_engine in ENGINE_COMBOS:
        packed = PackedModel.from_model(model, PipelineConfig(
            alpha=8, gamma=0.5, grouping_engine=grouping_engine,
            prune_engine=prune_engine))
        outputs.append(packed.forward(batch))
    for other in outputs[1:]:
        np.testing.assert_array_equal(outputs[0], other)


@pytest.mark.parametrize("model_name", ["lenet5", "vgg"])
def test_mx_forward_matches_dense_reference_numerically(model_name):
    model = make_model(model_name)
    packed = PackedModel.from_model(model, PipelineConfig(alpha=8, gamma=0.5))
    batch = make_batch(model_name)
    expected = dense_reference(model, packed).forward(batch)
    np.testing.assert_allclose(packed.forward(batch, mode="mx"), expected,
                               rtol=1e-10, atol=1e-12)


def test_alpha_one_baseline_reproduces_the_unpruned_model():
    """α=1 / γ=0 groups every column alone: nothing is pruned, so the packed
    forward must equal the original model's eval-mode forward bit-for-bit."""
    model = make_model("lenet5")
    packed = PackedModel.from_model(model, PipelineConfig(alpha=1, gamma=0.0))
    batch = make_batch("lenet5")
    original = copy.deepcopy(model).eval()
    np.testing.assert_array_equal(packed.forward(batch), original.forward(batch))


# -- edge cases: zero rows, zero columns, empty groups ------------------------------

def edge_case_model() -> Module:
    """A LeNet slice whose first packable layer has zero rows and columns.

    Zeroed rows (dead filters) pack into all-empty packed rows; zeroed
    columns (dead input channels) leave their group's cells empty — the
    empty-group case when a whole group's columns are zero.
    """
    model = make_model("lenet5")
    name, layer = model.packable_layers()[0]
    weights = layer.weight.data
    weights[0, :] = 0.0           # dead filter -> all-empty packed row
    weights[:, :4] = 0.0          # dead channels -> empty cells / groups
    return model


@pytest.mark.parametrize("grouping_engine,prune_engine", ENGINE_COMBOS)
def test_zero_row_and_empty_group_edge_cases(grouping_engine, prune_engine):
    model = edge_case_model()
    packed = PackedModel.from_model(model, PipelineConfig(
        alpha=8, gamma=0.5, grouping_engine=grouping_engine,
        prune_engine=prune_engine))
    batch = make_batch("lenet5")
    expected = dense_reference(model, packed).forward(batch)
    np.testing.assert_array_equal(packed.forward(batch), expected)
    np.testing.assert_allclose(packed.forward(batch, mode="mx"), expected,
                               rtol=1e-10, atol=1e-12)


def test_mx_mode_handles_bias_modules():
    class BiasedModel(Module):
        def __init__(self):
            super().__init__()
            self.pointwise = PointwiseConv2d(6, 5, bias=True,
                                             rng=np.random.default_rng(0))
            self.pointwise.bias.data[:] = np.arange(5, dtype=np.float64)

        def forward(self, x):
            return self.pointwise.forward(x)

        def packable_layers(self):
            return [("pointwise", self.pointwise)]

    # Packed forwards run on execution plans, so a new model family
    # registers how its forward composes its children.
    @register_plan_compiler(BiasedModel)
    def _compile_biased(module, state):
        return _compile_module(module.pointwise, state)

    model = BiasedModel()
    model.pointwise.weight.data *= np.random.default_rng(1).random((5, 6)) < 0.5
    packed = PackedModel.from_model(model, PipelineConfig(alpha=4, gamma=0.5))
    batch = np.random.default_rng(2).normal(size=(3, 6, 2, 2))
    expected = dense_reference(model, packed).forward(batch)
    np.testing.assert_array_equal(packed.forward(batch), expected)
    np.testing.assert_allclose(packed.forward(batch, mode="mx"), expected,
                               rtol=1e-10, atol=1e-12)


# -- batching ------------------------------------------------------------------------

def test_chunked_forward_is_numerically_equivalent():
    model = make_model("lenet5")
    packed = PackedModel.from_model(model, PipelineConfig())
    batch = make_batch("lenet5", batch=7)
    whole = packed.forward(batch)
    chunked = packed.forward(batch, batch_size=3)
    assert chunked.shape == whole.shape
    np.testing.assert_allclose(chunked, whole, rtol=1e-10, atol=1e-12)
    # A chunk size covering the batch takes the single-chunk path: bit-equal.
    np.testing.assert_array_equal(packed.forward(batch, batch_size=7), whole)


def test_predict_returns_argmax_labels():
    model = make_model("lenet5")
    packed = PackedModel.from_model(model, PipelineConfig())
    batch = make_batch("lenet5", batch=5)
    labels = packed.predict(batch)
    np.testing.assert_array_equal(labels, np.argmax(packed.forward(batch), axis=1))


# -- model restoration ----------------------------------------------------------------

def test_forward_restores_weights_training_flags_and_methods():
    model = make_model("lenet5")
    saved = {name: layer.weight.data.copy()
             for name, layer in model.packable_layers()}
    model.train()
    packed = PackedModel.from_model(model, PipelineConfig())
    packed.forward(make_batch("lenet5"))
    packed.forward(make_batch("lenet5"), mode="mx")
    for name, layer in model.packable_layers():
        np.testing.assert_array_equal(layer.weight.data, saved[name])
        assert "forward" not in layer.__dict__
    assert all(module.training for module in model.modules())


def test_forward_preserves_pending_backward_caches():
    """A mid-training packed evaluation must not clobber the activation
    caches a pending ``backward`` depends on (nor retain its own)."""
    model = make_model("lenet5")
    train_batch = make_batch("lenet5", batch=2, seed=21)
    labels_grad = np.random.default_rng(22).normal(size=(2, 10))
    packed = PackedModel.from_model(model, PipelineConfig())

    model.train()
    logits = model.forward(train_batch)
    model.zero_grad()
    expected_grad = {}
    for name, layer in model.packable_layers():
        layer.weight.grad[:] = 0.0
    reference = copy.deepcopy(model)
    reference.backward(labels_grad.copy())
    for (name, layer) in reference.packable_layers():
        expected_grad[name] = layer.weight.grad.copy()

    packed.forward(make_batch("lenet5", batch=5, seed=23))  # mid-training eval
    packed.forward(make_batch("lenet5", batch=5, seed=24), mode="mx")
    model.backward(labels_grad.copy())
    for name, layer in model.packable_layers():
        np.testing.assert_array_equal(layer.weight.grad, expected_grad[name])
    assert logits.shape == (2, 10)


def test_forward_restores_state_when_a_layer_raises():
    model = make_model("lenet5")
    packed = PackedModel.from_model(model, PipelineConfig())
    with pytest.raises(ValueError):
        packed.forward(np.zeros((2, 3, 8, 8)))  # wrong channel count
    for _, layer in model.packable_layers():
        assert "forward" not in layer.__dict__
    assert all(module.training for module in model.modules())


# -- construction and validation -------------------------------------------------------

def test_from_pipeline_result_matches_from_model():
    model = make_model("lenet5")
    direct = PackedModel.from_model(model, PipelineConfig())
    with PackingPipeline(PipelineConfig()) as pipeline:
        result = pipeline.run([(name, layer.weight.data)
                               for name, layer in model.packable_layers()])
    assembled = PackedModel.from_pipeline_result(result, model=model)
    batch = make_batch("lenet5")
    np.testing.assert_array_equal(assembled.forward(batch), direct.forward(batch))
    assert assembled.layer_names() == direct.layer_names()


def test_from_pipeline_result_without_model_rejects_forward():
    model = make_model("lenet5")
    with PackingPipeline(PipelineConfig()) as pipeline:
        result = pipeline.run([(name, layer.weight.data)
                               for name, layer in model.packable_layers()])
    packed = PackedModel.from_pipeline_result(result)
    assert packed.num_layers == len(result.layers)
    with pytest.raises(RuntimeError):
        packed.forward(make_batch("lenet5"))


def test_from_pipeline_result_rejects_layer_count_mismatch():
    model = make_model("lenet5")
    with PackingPipeline(PipelineConfig()) as pipeline:
        result = pipeline.run([("only", model.packable_layers()[0][1].weight.data)])
    with pytest.raises(ValueError):
        PackedModel.from_pipeline_result(result, model=model)


def test_spec_rejects_shape_mismatch_with_module():
    model = make_model("lenet5")
    layers = model.packable_layers()
    (name0, module0), (_, module1) = layers[0], layers[1]
    packed = PackedModel.from_model(model, PipelineConfig()).specs[0].packed
    with pytest.raises(ValueError):
        PackedLayerSpec(name0, packed, module1)


def test_from_model_rejects_config_and_pipeline_together():
    model = make_model("lenet5")
    with PackingPipeline(PipelineConfig()) as pipeline:
        with pytest.raises(ValueError):
            PackedModel.from_model(model, config=PipelineConfig(),
                                   pipeline=pipeline)


def test_forward_validates_mode_shape_and_batch_size():
    model = make_model("lenet5")
    packed = PackedModel.from_model(model, PipelineConfig())
    batch = make_batch("lenet5")
    with pytest.raises(ValueError):
        packed.forward(batch, mode="turbo")
    with pytest.raises(ValueError):
        packed.forward(batch[0])
    with pytest.raises(ValueError):
        packed.forward(batch, batch_size=0)


# -- realized-matrix caching -----------------------------------------------------------

def test_realized_cache_is_hit_on_repeated_forwards(monkeypatch):
    model = make_model("lenet5")
    packed = PackedModel.from_model(model, PipelineConfig())
    batch = make_batch("lenet5")
    calls = {"to_sparse": 0}
    for spec in packed.specs:
        original = spec.packed.to_sparse
        def counting(original=original):
            calls["to_sparse"] += 1
            return original()
        monkeypatch.setattr(spec.packed, "to_sparse", counting)
    first = packed.forward(batch)
    realizations = calls["to_sparse"]
    assert realizations == packed.num_layers  # one realization per layer ...
    second = packed.forward(batch)
    third = packed.forward(batch)
    assert calls["to_sparse"] == realizations  # ... and none on later forwards
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(first, third)
    # The cached realization is one shared (read-only) array per spec.
    for spec in packed.specs:
        assert spec.realized() is spec.realized()
        assert not spec.realized().flags.writeable


def test_realized_cache_is_invalidated_on_weight_mutation():
    model = make_model("lenet5")
    packed = PackedModel.from_model(model, PipelineConfig())
    batch = make_batch("lenet5")
    packed.forward(batch)  # populate the caches
    spec = packed.specs[0]
    cached = spec.realized()
    # Mutate a packed weight that survives in the packing (keep the routing
    # metadata untouched so the packing stays valid).
    occupied = np.argwhere(spec.packed.channel_index >= 0)
    row, group = occupied[0]
    spec.packed.weights[row, group] += 1.0
    refreshed = spec.realized()
    assert refreshed is not cached
    column = spec.packed.channel_index[row, group]
    assert refreshed[row, column] == pytest.approx(cached[row, column] + 1.0)
    # The next forward and export see the refreshed realization.
    name, exported = packed.to_sparse()[0]
    assert exported[row, column] == refreshed[row, column]
    expected = dense_reference(model, packed).forward(batch)
    np.testing.assert_array_equal(packed.forward(batch), expected)


def test_to_sparse_export_returns_writable_copies():
    model = make_model("lenet5")
    packed = PackedModel.from_model(model, PipelineConfig())
    exported = packed.to_sparse()
    for (_, sparse), spec in zip(exported, packed.specs):
        assert sparse.flags.writeable
        sparse[:] = -1.0  # mutating the export must not corrupt the cache
    for (name, _), spec in zip(exported, packed.specs):
        np.testing.assert_array_equal(spec.realized(), spec.packed.to_sparse())


# -- batched export and accounting ----------------------------------------------------

def test_to_sparse_reconstructs_every_pruned_layer_in_order():
    model = make_model("lenet5")
    packed = PackedModel.from_model(model, PipelineConfig())
    names = [name for name, _ in model.packable_layers()]
    exported = packed.to_sparse()
    assert [name for name, _ in exported] == names
    assert [name for name, _ in packed.packed_layers()] == names
    for (_, sparse), (_, matrix) in zip(exported, packed.packed_layers()):
        np.testing.assert_array_equal(sparse, matrix.to_sparse())
        assert sparse.shape == matrix.original_shape


def test_packing_efficiency_and_nonzeros_are_cell_weighted():
    model = make_model("lenet5")
    packed = PackedModel.from_model(model, PipelineConfig())
    cells = sum(spec.packed.weights.size for spec in packed.specs)
    nonzeros = sum(int(np.count_nonzero(spec.packed.weights))
                   for spec in packed.specs)
    assert packed.total_nonzeros() == nonzeros
    assert packed.packing_efficiency() == pytest.approx(nonzeros / cells)
    assert 0.0 < packed.packing_efficiency() <= 1.0


def test_plan_uses_observed_spatial_sizes_from_forward():
    model = make_model("lenet5")
    packed = PackedModel.from_model(model, PipelineConfig())
    with pytest.raises(RuntimeError):
        packed.observed_spatial_sizes()
    packed.forward(make_batch("lenet5"))
    observed = packed.observed_spatial_sizes()
    assert observed == [8, 4]  # image 8, pooled once before conv2
    from_observed = packed.plan()
    explicit = packed.plan(spatial_sizes=observed)
    assert from_observed.total_cycles == explicit.total_cycles
    assert from_observed.total_tiles == explicit.total_tiles
    assert from_observed.total_tiles >= packed.num_layers


def test_summary_aggregates_plan_totals():
    model = make_model("lenet5")
    packed = PackedModel.from_model(model, PipelineConfig())
    packed.forward(make_batch("lenet5"))
    plan = packed.plan()
    summary = packed.summary(plan)
    assert summary["num_layers"] == packed.num_layers
    assert summary["total_tiles"] == plan.total_tiles
    assert summary["total_cycles"] == plan.total_cycles
    assert summary["utilization"] == plan.utilization
    assert summary["multiplexing_degree"] <= 8
    bare = packed.summary()
    assert "total_cycles" not in bare and bare["num_layers"] == packed.num_layers
