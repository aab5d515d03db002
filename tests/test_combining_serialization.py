"""Packed-artifact serialization: round-trip bit-identity and integrity.

The contract under test (the serving subsystem's foundation):
``load_packed(save_packed(m))`` is forward-bit-identical to ``m`` for
float and quantized packed models, artifacts self-describe (format
version, pipeline config, model spec), and corruption — wrong version,
tampered arrays, truncated data, mismatched architectures — fails loudly
with :class:`~repro.combining.serialization.PackedArtifactError` instead
of producing a silently wrong model.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from repro.combining import (
    FORMAT_VERSION,
    PackedArtifactError,
    PackedModel,
    PackingPipeline,
    PipelineConfig,
    QuantizedPackedModel,
    artifact_info,
    load_packed,
    load_plan,
    save_packed,
)
from repro.combining.serialization import (
    artifact_fingerprint,
    fingerprint_packed,
)
from repro.experiments.workloads import sparse_network, spatial_sizes
from repro.models import build_model
from repro.systolic.array import ArrayConfig
from tests.conftest import rewrite_as_v1

MODEL_SPEC = {"name": "lenet5",
              "kwargs": {"in_channels": 1, "num_classes": 10, "scale": 1.0,
                         "image_size": 8}}


def sparsified_lenet5(seed: int = 3) -> "build_model":
    model = build_model("lenet5", rng=np.random.default_rng(seed),
                        **MODEL_SPEC["kwargs"])
    mask_rng = np.random.default_rng(seed + 1)
    for _, layer in model.packable_layers():
        layer.weight.data *= mask_rng.random(layer.weight.data.shape) < 0.5
    return model


@pytest.fixture(scope="module")
def packed_lenet5() -> PackedModel:
    return PackedModel.from_model(sparsified_lenet5(),
                                  PipelineConfig(alpha=8, gamma=0.5))


@pytest.fixture(scope="module")
def quantized_lenet5(packed_lenet5: PackedModel) -> QuantizedPackedModel:
    quantized = QuantizedPackedModel(packed_lenet5, bits=8)
    quantized.calibrate(np.random.default_rng(7).normal(size=(16, 1, 8, 8)))
    return quantized


@pytest.fixture
def images() -> np.ndarray:
    return np.random.default_rng(11).normal(size=(12, 1, 8, 8))


def rewrite_artifact(path, mutate) -> None:
    """Reload an artifact's raw arrays, apply ``mutate``, write it back."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key].copy() for key in data.files}
    mutate(arrays)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def edit_meta(arrays: dict, edit) -> None:
    meta = json.loads(str(arrays["meta"][()]))
    edit(meta)
    arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))


# -- round trips -------------------------------------------------------------
def test_packed_round_trip_is_forward_bit_identical(tmp_path, packed_lenet5,
                                                    images):
    path = save_packed(packed_lenet5, tmp_path / "lenet5.npz",
                       model_spec=MODEL_SPEC)
    loaded = load_packed(path)
    assert isinstance(loaded, PackedModel)
    assert loaded.layer_names() == packed_lenet5.layer_names()
    assert np.array_equal(loaded.forward(images), packed_lenet5.forward(images))
    assert np.array_equal(loaded.forward(images, mode="mx"),
                          packed_lenet5.forward(images, mode="mx"))
    assert np.array_equal(
        loaded.forward(images, batch_invariant=True),
        packed_lenet5.forward(images, batch_invariant=True))
    assert np.array_equal(loaded.predict(images), packed_lenet5.predict(images))


def test_packed_round_trip_preserves_packings_and_config(tmp_path,
                                                         packed_lenet5):
    path = save_packed(packed_lenet5, tmp_path / "lenet5.npz",
                       model_spec=MODEL_SPEC)
    loaded = load_packed(path)
    assert loaded.pipeline_config == packed_lenet5.pipeline_config
    assert loaded.array_rows == packed_lenet5.array_rows
    for original, restored in zip(packed_lenet5.specs, loaded.specs):
        assert np.array_equal(original.packed.weights, restored.packed.weights)
        assert np.array_equal(original.packed.channel_index,
                              restored.packed.channel_index)
        assert original.packed.grouping.groups == restored.packed.grouping.groups
        assert original.packed.original_shape == restored.packed.original_shape
        assert (fingerprint_packed(original.packed)
                == fingerprint_packed(restored.packed))


def test_quantized_round_trip_is_forward_bit_identical(tmp_path,
                                                       quantized_lenet5,
                                                       images):
    path = save_packed(quantized_lenet5, tmp_path / "lenet5.int8.npz",
                       model_spec=MODEL_SPEC)
    loaded = load_packed(path)
    assert isinstance(loaded, QuantizedPackedModel)
    assert loaded.calibrated
    assert loaded.bits == 8
    assert np.array_equal(loaded.forward(images),
                          quantized_lenet5.forward(images))
    assert np.array_equal(
        loaded.forward(images, track_errors=False, batch_invariant=True),
        quantized_lenet5.forward(images, track_errors=False,
                                 batch_invariant=True))
    for original, restored in zip(quantized_lenet5.layer_calibrations(),
                                  loaded.layer_calibrations()):
        assert original.input_quantizer.scale == restored.input_quantizer.scale
        assert original.weight_quantizer.scale == restored.weight_quantizer.scale
        assert original.weight_rmse == restored.weight_rmse


def test_quantized_round_trip_keeps_a_custom_array(tmp_path, packed_lenet5,
                                                   images):
    """A quantized artifact costs batches on the array it was built for,
    not a default one rebuilt from ``array_rows`` x ``array_cols``."""
    config = ArrayConfig(rows=8, cols=8, input_bits=8, alpha=8)
    quantized = QuantizedPackedModel(packed_lenet5, bits=8,
                                     array_config=config)
    quantized.calibrate(np.random.default_rng(7).normal(size=(16, 1, 8, 8)))
    path = save_packed(quantized, tmp_path / "lenet5.int8.8x8.npz",
                       model_spec=MODEL_SPEC)

    def cycles(plan) -> int:
        observed: dict = {}
        plan.forward(images[:4], mode="quantized", observed=observed)
        return plan.execution_plan(observed=observed, batch=4).total_cycles
    live = cycles(quantized.compile_plan())
    assert cycles(load_plan(path)) == live
    assert load_packed(path).system.config == config

    # A stored array whose cells disagree with the quantizers, or that is
    # not an ArrayConfig at all, is refused on both load paths.
    for stored, error in (({**asdict(config), "input_bits": 4}, ValueError),
                          ({**asdict(config), "depth": 2}, PackedArtifactError)):
        bad = tmp_path / "bad.npz"
        shutil.copyfile(path, bad)
        rewrite_artifact(bad, lambda arrays: edit_meta(
            arrays, lambda meta: meta["quantized"].update(array=stored)))
        for load in (load_plan, load_packed):
            with pytest.raises(error):
                load(bad)

    # Files written before the array was stored keep the default array.
    rewrite_artifact(path, lambda arrays: edit_meta(
        arrays, lambda meta: meta["quantized"].pop("array")))
    default = ArrayConfig(rows=packed_lenet5.array_rows,
                          cols=packed_lenet5.array_cols, input_bits=8,
                          alpha=max(1, packed_lenet5.multiplexing_degree()))
    assert load_plan(path).array_config == default
    assert load_packed(path).system.config == default


def test_matrix_only_round_trip(tmp_path):
    layers = sparse_network("lenet5", density=0.13, seed=0)
    with PackingPipeline(PipelineConfig(alpha=8, gamma=0.5)) as pipeline:
        model = PackedModel.from_pipeline_result(pipeline.run(layers))
    path = save_packed(model, tmp_path / "lenet5-matrices.npz")
    loaded = load_packed(path)
    assert loaded.model is None
    assert loaded.layer_names() == model.layer_names()
    for (_, original), (_, restored) in zip(model.to_sparse(),
                                            loaded.to_sparse()):
        assert np.array_equal(original, restored)
    plan = loaded.plan(spatial_sizes(layers))
    assert plan.total_cycles == model.plan(spatial_sizes(layers)).total_cycles
    with pytest.raises(RuntimeError, match="without an nn model"):
        loaded.forward(np.zeros((1, 1, 8, 8)))


def test_uncompressed_round_trip_identical(tmp_path, packed_lenet5, images):
    compressed = save_packed(packed_lenet5, tmp_path / "c.npz",
                             model_spec=MODEL_SPEC, compress=True)
    uncompressed = save_packed(packed_lenet5, tmp_path / "u.npz",
                               model_spec=MODEL_SPEC, compress=False)
    assert uncompressed.stat().st_size > compressed.stat().st_size
    assert np.array_equal(load_packed(compressed).forward(images),
                          load_packed(uncompressed).forward(images))


# -- V2 blob layout and mmap loading -----------------------------------------
def test_v2_consolidates_state_into_per_dtype_blobs(tmp_path, packed_lenet5):
    """V2 stores the whole nn state as one blob per dtype instead of one
    zip entry per tensor — few entries, each one mappable."""
    path = save_packed(packed_lenet5, tmp_path / "v2.npz",
                       model_spec=MODEL_SPEC)
    with np.load(path, allow_pickle=False) as data:
        entries = sorted(data.files)
    assert not any(name.startswith("state.") for name in entries)
    blobs = [name for name in entries if name.startswith("blob.")]
    assert blobs  # per-dtype consolidated state
    # packed.* (4) + blob.* + meta, nothing per-tensor: a handful total.
    assert len(entries) <= 4 + len(blobs) + 1
    v1 = rewrite_as_v1(path, tmp_path / "v1.npz")
    with np.load(v1, allow_pickle=False) as data:
        v1_entries = sorted(data.files)
    assert any(name.startswith("state.") for name in v1_entries)
    assert len(entries) < len(v1_entries)


def test_v1_format_save_and_load_compat(tmp_path, packed_lenet5,
                                        quantized_lenet5, images):
    """V1 artifacts (and the checked-in golden ones) keep loading
    bit-identically under the V2 reader."""
    for model, reference in [(packed_lenet5, packed_lenet5.forward(images)),
                             (quantized_lenet5,
                              quantized_lenet5.forward(images))]:
        path = rewrite_as_v1(save_packed(model, tmp_path / "v1.npz",
                                         model_spec=MODEL_SPEC))
        assert artifact_info(path)["format_version"] == 1
        assert np.array_equal(load_packed(path).forward(images), reference)
        path.unlink()


def test_mmap_load_is_forward_bit_identical(tmp_path, packed_lenet5,
                                            quantized_lenet5, images):
    for model in (packed_lenet5, quantized_lenet5):
        quantized = isinstance(model, QuantizedPackedModel)
        mode = "quantized" if quantized else "exact"
        path = save_packed(model, tmp_path / f"{mode}.npz",
                           model_spec=MODEL_SPEC, compress=False)
        reference = load_plan(path, mmap=False)
        for mmap in (True, "auto"):
            mapped = load_plan(path, mmap=mmap)
            for batch_invariant in (False, True):
                assert np.array_equal(
                    mapped.forward(images, mode=mode,
                                   batch_invariant=batch_invariant),
                    reference.forward(images, mode=mode,
                                      batch_invariant=batch_invariant))


def test_mmap_rejects_compressed_artifacts_but_auto_falls_back(
        tmp_path, packed_lenet5, images):
    path = save_packed(packed_lenet5, tmp_path / "c.npz",
                       model_spec=MODEL_SPEC, compress=True)
    with pytest.raises(PackedArtifactError, match="cannot be memory-mapped"):
        load_plan(path, mmap=True)
    loaded = load_plan(path, mmap="auto")  # silent fallback
    assert np.array_equal(loaded.forward(images),
                          packed_lenet5.forward(images))
    with pytest.raises(ValueError, match="mmap"):
        load_plan(path, mmap="sometimes")


# -- model resolution --------------------------------------------------------
def test_load_with_explicit_architecture(tmp_path, packed_lenet5, images):
    path = save_packed(packed_lenet5, tmp_path / "lenet5.npz")  # no spec
    architecture = build_model("lenet5", rng=np.random.default_rng(99),
                               **MODEL_SPEC["kwargs"])
    loaded = load_packed(path, model=architecture)
    assert loaded.model is architecture
    assert np.array_equal(loaded.forward(images), packed_lenet5.forward(images))


def test_load_without_spec_or_model_demands_architecture(tmp_path,
                                                         packed_lenet5):
    path = save_packed(packed_lenet5, tmp_path / "lenet5.npz")
    with pytest.raises(PackedArtifactError, match="pass the\n?.*architecture"):
        load_packed(path)


def test_load_with_wrong_architecture_fails_loudly(tmp_path, packed_lenet5):
    path = save_packed(packed_lenet5, tmp_path / "lenet5.npz",
                       model_spec=MODEL_SPEC)
    wrong = build_model("lenet5", in_channels=1, num_classes=10, scale=2.0,
                        image_size=8)
    with pytest.raises(PackedArtifactError):
        load_packed(path, model=wrong)


def test_save_model_spec_requires_model_backed_packing(tmp_path):
    layers = sparse_network("lenet5", density=0.13, seed=0)
    with PackingPipeline(PipelineConfig()) as pipeline:
        model = PackedModel.from_pipeline_result(pipeline.run(layers))
    with pytest.raises(ValueError, match="no nn model"):
        save_packed(model, tmp_path / "x.npz", model_spec=MODEL_SPEC)


def test_save_rejects_unserializable_spec(tmp_path, packed_lenet5):
    with pytest.raises(ValueError, match="JSON-serializable"):
        save_packed(packed_lenet5, tmp_path / "x.npz",
                    model_spec={"name": "lenet5",
                                "kwargs": {"rng": np.random.default_rng(0)}})


def test_save_rejects_uncalibrated_quantized(tmp_path, packed_lenet5):
    quantized = QuantizedPackedModel(packed_lenet5, bits=8)
    with pytest.raises(ValueError, match="uncalibrated"):
        save_packed(quantized, tmp_path / "x.npz")


def test_save_rejects_other_objects(tmp_path):
    with pytest.raises(TypeError, match="PackedModel"):
        save_packed(object(), tmp_path / "x.npz")


# -- integrity ---------------------------------------------------------------
def test_format_version_mismatch_raises(tmp_path, packed_lenet5):
    path = save_packed(packed_lenet5, tmp_path / "lenet5.npz",
                       model_spec=MODEL_SPEC)
    rewrite_artifact(path, lambda arrays: edit_meta(
        arrays, lambda meta: meta.update(format_version=FORMAT_VERSION + 1)))
    with pytest.raises(PackedArtifactError, match="format version"):
        load_packed(path)
    with pytest.raises(PackedArtifactError, match="format version"):
        artifact_info(path)


def test_tampered_weights_fail_the_fingerprint(tmp_path, packed_lenet5):
    path = save_packed(packed_lenet5, tmp_path / "lenet5.npz",
                       model_spec=MODEL_SPEC)

    def corrupt(arrays: dict) -> None:
        weights = arrays["packed.weights"]
        index = int(np.flatnonzero(weights)[0])
        weights[index] *= 1.5

    rewrite_artifact(path, corrupt)
    with pytest.raises(PackedArtifactError, match="fingerprint mismatch"):
        load_packed(path)


def test_tampered_routing_fails_the_fingerprint(tmp_path, packed_lenet5):
    path = save_packed(packed_lenet5, tmp_path / "lenet5.npz",
                       model_spec=MODEL_SPEC)

    def corrupt(arrays: dict) -> None:
        # Swap two distinct member columns of the last layer: the grouping
        # stays structurally plausible, so only the fingerprint (or the
        # routing validation it guards) can catch the edit.
        columns = arrays["packed.group_columns"]
        assert columns[-1] != columns[-2]
        columns[[-1, -2]] = columns[[-2, -1]]

    rewrite_artifact(path, corrupt)
    with pytest.raises(PackedArtifactError):
        load_packed(path)


def test_truncated_arrays_raise(tmp_path, packed_lenet5):
    path = save_packed(packed_lenet5, tmp_path / "lenet5.npz",
                       model_spec=MODEL_SPEC)
    rewrite_artifact(
        path,
        lambda arrays: arrays.update({
            "packed.weights": arrays["packed.weights"][:-1]}))
    with pytest.raises(PackedArtifactError,
                       match="truncated|past the end"):
        load_packed(path)


def test_non_artifact_npz_rejected(tmp_path):
    path = tmp_path / "random.npz"
    np.savez(path, data=np.arange(3))
    with pytest.raises(PackedArtifactError, match="not a packed artifact"):
        artifact_info(path)
    with pytest.raises(PackedArtifactError, match="not a packed artifact"):
        load_packed(path)


def test_garbage_and_truncated_containers_rejected(tmp_path, packed_lenet5):
    """Container-level corruption raises PackedArtifactError, not raw
    zipfile / pickle errors with misleading messages."""
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"this is not an npz file at all")
    truncated = tmp_path / "truncated.npz"
    artifact = save_packed(packed_lenet5, tmp_path / "ok.npz")
    truncated.write_bytes(artifact.read_bytes()[:100])
    for path in (garbage, truncated):
        with pytest.raises(PackedArtifactError, match="not a readable"):
            artifact_info(path)
        with pytest.raises(PackedArtifactError, match="not a readable"):
            load_packed(path)
    with pytest.raises(FileNotFoundError):
        load_packed(tmp_path / "never-saved.npz")


def test_artifact_info_reports_without_loading(tmp_path, quantized_lenet5):
    path = save_packed(quantized_lenet5, tmp_path / "lenet5.int8.npz",
                       model_spec=MODEL_SPEC)
    info = artifact_info(path)
    assert info["kind"] == "quantized"
    assert info["format_version"] == FORMAT_VERSION
    assert info["quantized"]["bits"] == 8
    assert [layer["name"] for layer in info["layers"]] \
        == quantized_lenet5.layer_names()
    assert info["file_bytes"] == path.stat().st_size


# -- content fingerprints (the hot-swap token) -------------------------------
def test_content_fingerprint_is_stable_across_resave(tmp_path, packed_lenet5):
    first = save_packed(packed_lenet5, tmp_path / "a.npz",
                        model_spec=MODEL_SPEC)
    second = save_packed(packed_lenet5, tmp_path / "b.npz",
                         model_spec=MODEL_SPEC)
    assert artifact_fingerprint(first) == artifact_fingerprint(second)
    # The cheap probe agrees with the full-metadata path.
    assert artifact_info(first)["fingerprint"] == artifact_fingerprint(first)
    assert not artifact_fingerprint(first).startswith("file-")


def test_content_fingerprint_changes_with_content(tmp_path, packed_lenet5):
    original = save_packed(packed_lenet5, tmp_path / "a.npz",
                           model_spec=MODEL_SPEC)
    model = sparsified_lenet5(seed=17)
    other = PackedModel.from_model(model, PipelineConfig(alpha=8, gamma=0.5))
    changed = save_packed(other, tmp_path / "b.npz", model_spec=MODEL_SPEC)
    assert artifact_fingerprint(original) != artifact_fingerprint(changed)


def test_legacy_artifact_falls_back_to_file_fingerprint(tmp_path,
                                                        packed_lenet5):
    path = save_packed(packed_lenet5, tmp_path / "a.npz",
                       model_spec=MODEL_SPEC)
    rewrite_artifact(path, lambda arrays: edit_meta(
        arrays, lambda meta: meta.pop("fingerprint")))
    fingerprint = artifact_fingerprint(path)
    assert fingerprint.startswith("file-")
    assert artifact_info(path)["fingerprint"] == fingerprint
    # Still a usable identity: byte-identical copies agree, edits differ.
    copy = tmp_path / "copy.npz"
    copy.write_bytes(path.read_bytes())
    assert artifact_fingerprint(copy) == fingerprint


# -- config round trip -------------------------------------------------------
def test_pipeline_config_round_trips_through_dict():
    config = PipelineConfig(alpha=4, gamma=0.25, policy="first-fit",
                            grouping_engine="reference",
                            prune_engine="reference", array_rows=16,
                            array_cols=8, workers=2, seed=5)
    assert PipelineConfig.from_dict(config.to_dict()) == config


def test_pipeline_config_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown PipelineConfig fields"):
        PipelineConfig.from_dict({"alpha": 8, "turbo": True})
