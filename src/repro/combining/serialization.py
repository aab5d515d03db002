"""Versioned packed-artifact serialization: pack once, serve forever.

Every consumer so far re-runs the :class:`~repro.combining.pipeline.PackingPipeline`
to get a :class:`~repro.combining.inference.PackedModel` — acceptable for
experiments, wasteful for serving, where the whole point of column
combining is to amortize one packing across millions of requests.  This
module persists a packed model (or its quantized twin) as a single
``.npz`` *packed artifact* so servers cold-start by loading instead of
re-packing:

* **Everything the array needs** — per-layer packed filter matrices and
  MX-cell channel routing, the column grouping (the tiling plan derives
  from it), the array geometry, the
  :class:`~repro.combining.pipeline.PipelineConfig` the packing ran
  under, and — for :class:`~repro.combining.quantized.QuantizedPackedModel` —
  the frozen per-layer calibration scales and the systolic array
  configuration its cycles are costed on.
* **Everything the host needs** — the nn model's full parameter state
  (:func:`repro.nn.serialization.state_dict`) plus an optional
  ``model_spec`` (``{"name": ..., "kwargs": {...}}`` for
  :func:`repro.models.build_model`) so :func:`load_packed` can rebuild
  the module graph without the caller supplying an architecture.
* **Integrity** — a format version (readers reject artifacts written by
  an incompatible format) and a per-layer blake2b fingerprint over the
  packed weights, routing, and grouping (readers reject corrupted or
  tampered layer data), both with explicit
  :class:`PackedArtifactError` messages.

The contract that makes artifacts trustworthy: ``load_packed(save_packed(m))``
is **forward-bit-identical** to ``m`` — float64 arrays round-trip raw
through the npz container, the module state restores exactly, and frozen
quantizer scales are persisted as arrays (not decimal strings), so a
served model answers with exactly the bits the freshly packed model would
have produced.

**Format V2** (current) reorganizes the host-side payload for serving:

* nn model state consolidates from one npz entry per parameter into one
  flat ``blob.<dtype>`` entry per dtype (entry-count and container
  overhead stop scaling with parameter count); the metadata maps each
  parameter name to its ``{blob, offset, size, shape}`` slice.
  Batch-norm running statistics — non-parameter module state V1 silently
  dropped — persist the same way under ``meta["buffers"]``.
* Model-backed artifacts additionally carry an **execution-plan
  manifest** (the op tree of
  :meth:`~repro.combining.inference.PackedModel.compile_plan`), so
  :func:`load_plan` rebuilds an immutable
  :class:`~repro.combining.execplan.ExecutionPlan` straight from the
  arrays — no nn module graph, no ``build_model``.
* Uncompressed V2 artifacts (``compress=False``) load **zero-copy** with
  ``load_plan(path, mmap=True)``: every array is an ``np.memmap`` view
  into the file, so N serving worker processes share one resident copy
  of the packed arrays through the page cache.  ``mmap="auto"`` falls
  back to a normal read for compressed artifacts.

:func:`save_packed` writes V2 only.  V1 artifacts (one npz entry per nn
parameter, no plan manifest) stay readable — see
``SUPPORTED_FORMAT_VERSIONS`` — and :func:`load_plan` serves them by
rebuilding the model from their ``model_spec``.

Usage::

    from repro.combining import PackedModel, PipelineConfig
    from repro.combining.serialization import load_packed, load_plan, save_packed

    packed = PackedModel.from_model(model, PipelineConfig(alpha=8, gamma=0.5))
    save_packed(packed, "lenet5.packed.npz", compress=False,
                model_spec={"name": "lenet5",
                            "kwargs": {"in_channels": 1, "image_size": 12}})
    served = load_packed("lenet5.packed.npz")   # no pipeline run
    assert np.array_equal(served.forward(x), packed.forward(x))
    plan = load_plan("lenet5.packed.npz", mmap=True)   # zero-copy, no nn model
    assert np.array_equal(plan.forward(x), served.forward(x))   # one engine
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.combining.grouping import ColumnGrouping
from repro.combining.inference import PackedLayerSpec, PackedModel
from repro.combining.packing import PackedFilterMatrix
from repro.combining.pipeline import PipelineConfig
from repro.combining.quantized import LayerCalibration, QuantizedPackedModel
from repro.models.registry import build_model
from repro.models.registry import packable_layers as _model_packable_layers
from repro.nn import Module
from repro.nn.layers import BatchNorm2d
from repro.nn.serialization import load_state_dict, state_dict
from repro.quant.linear import LinearQuantizer
from repro.systolic.array import ArrayConfig

#: Version stamp written into every artifact.  Bump on any layout change;
#: readers refuse versions outside :data:`SUPPORTED_FORMAT_VERSIONS` with
#: a clear error instead of misreading the container.
FORMAT_VERSION = 2

#: Format versions :func:`load_packed` / :func:`load_plan` read.  V1 (one
#: npz entry per nn parameter, no plan manifest) stays readable so
#: existing artifacts keep serving; V2 is the only one :func:`save_packed`
#: writes.
SUPPORTED_FORMAT_VERSIONS: tuple[int, ...] = (1, 2)

#: Artifact kinds: a float :class:`PackedModel` or its calibrated
#: :class:`QuantizedPackedModel` twin.
ARTIFACT_KINDS: tuple[str, ...] = ("packed", "quantized")


class PackedArtifactError(ValueError):
    """A packed artifact is unreadable: wrong format version, corrupted or
    tampered layer data (fingerprint mismatch), or missing pieces."""


def fingerprint_packed(packed: PackedFilterMatrix) -> str:
    """Hex blake2b digest of one layer's packed weights, routing, and grouping.

    This is the artifact-integrity fingerprint: it covers everything that
    determines the layer's packed computation (weights, per-cell channel
    routing, group membership and order), so any corruption of the stored
    arrays — or a mismatch between arrays and metadata — changes it.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(packed.weights).tobytes())
    digest.update(np.ascontiguousarray(packed.channel_index).tobytes())
    flat_columns, group_sizes = _grouping_arrays(packed.grouping)
    digest.update(flat_columns.tobytes())
    digest.update(group_sizes.tobytes())
    return digest.hexdigest()


def _content_digest(arrays: dict[str, np.ndarray],
                    meta: dict[str, Any]) -> str:
    """Hex blake2b digest over an artifact's full content.

    Covers every stored array (packed layers, nn state / plan blobs,
    quantizer scales) plus the metadata itself, so *any* change to what
    the artifact serves — weights, biases, batch-norm statistics,
    calibration scales, layer structure — changes the digest, while
    re-saving identical content reproduces it (container timestamps and
    compression settings do not participate).  Stored in the metadata at
    save time so :func:`artifact_fingerprint` can probe it without a
    full load.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(json.dumps(meta, sort_keys=True).encode())
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _file_digest(path: Path) -> str:
    """Fallback whole-artifact fingerprint for legacy artifacts.

    Artifacts saved before the content digest existed carry no
    ``fingerprint`` in their metadata; hashing the container bytes still
    yields a token that changes whenever the file changes, which is all
    the hot-swap cache keying needs.  The prefix keeps the two digest
    namespaces from ever colliding.
    """
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
    return f"file-{digest.hexdigest()}"


def artifact_fingerprint(path: str | Path) -> str:
    """The artifact's whole-content fingerprint, without a full load.

    The cheap probe behind :meth:`ModelRegistry.swap
    <repro.serving.registry.ModelRegistry.swap>` and the worker-process
    plan caches: reads only the metadata entry (artifacts written by the
    current :func:`save_packed` store their content digest there) and
    falls back to hashing the container bytes for legacy artifacts.
    Two artifacts with identical served content fingerprint identically;
    any change to weights, state, scales, or structure changes the
    token.
    """
    path = Path(path)
    with _open_artifact(path) as data:
        meta = _read_meta(data, path)
    fingerprint = meta.get("fingerprint")
    if fingerprint:
        return str(fingerprint)
    return _file_digest(path)


def _grouping_arrays(grouping: ColumnGrouping) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a grouping into (member columns in group order, group sizes)."""
    flat_columns = np.fromiter(
        (column for group in grouping.groups for column in group),
        dtype=np.int64, count=grouping.num_columns)
    group_sizes = np.fromiter((len(group) for group in grouping.groups),
                              dtype=np.int64, count=grouping.num_groups)
    return flat_columns, group_sizes


def _concatenate(pieces: list[np.ndarray], dtype: type) -> np.ndarray:
    """Concatenate 1-D pieces (an empty list becomes an empty typed array)."""
    if not pieces:
        return np.zeros(0, dtype=dtype)
    return np.concatenate([np.asarray(piece, dtype=dtype) for piece in pieces])


def _validate_model_spec(model_spec: dict[str, Any]) -> dict[str, Any]:
    if not isinstance(model_spec, dict) or "name" not in model_spec:
        raise ValueError('model_spec must be {"name": ..., "kwargs": {...}}')
    kwargs = model_spec.get("kwargs", {})
    if not isinstance(kwargs, dict):
        raise ValueError("model_spec['kwargs'] must be a mapping")
    spec = {"name": str(model_spec["name"]), "kwargs": kwargs}
    try:
        json.dumps(spec)
    except TypeError as error:
        raise ValueError(
            f"model_spec must be JSON-serializable: {error}") from error
    return spec


class _BlobWriter:
    """Consolidates arrays into one flat buffer per dtype.

    ``store(array)`` appends the array's bytes to its dtype's blob and
    returns a JSON-able ``{"blob", "offset", "size", "shape"}`` reference
    (offsets and sizes in elements); identical contents (same dtype,
    shape, and bytes) deduplicate to one stored copy, so e.g. a parameter
    that appears both in the state dict and in the plan manifest costs
    the artifact one slice.  ``entries()`` emits the finished
    ``blob.<dtype>`` npz entries.
    """

    def __init__(self) -> None:
        self._pieces: dict[str, list[np.ndarray]] = {}
        self._offsets: dict[str, int] = {}
        self._dedupe: dict[tuple, dict[str, Any]] = {}

    def store(self, array: np.ndarray) -> dict[str, Any]:
        array = np.ascontiguousarray(array)
        key = (array.dtype.str, array.shape,
               hashlib.blake2b(array.tobytes(), digest_size=16).digest())
        ref = self._dedupe.get(key)
        if ref is not None:
            return ref
        blob = array.dtype.name
        offset = self._offsets.get(blob, 0)
        self._pieces.setdefault(blob, []).append(array.ravel())
        self._offsets[blob] = offset + int(array.size)
        ref = {"blob": blob, "offset": offset, "size": int(array.size),
               "shape": [int(side) for side in array.shape]}
        self._dedupe[key] = ref
        return ref

    def entries(self) -> dict[str, np.ndarray]:
        return {f"blob.{blob}": np.concatenate(pieces)
                for blob, pieces in self._pieces.items()}


def _slice_ref(blobs: dict[str, np.ndarray], ref: dict[str, Any],
               path: Path) -> np.ndarray:
    """Resolve a blob reference to a (read-only) array view."""
    blob = blobs.get(f"blob.{ref['blob']}")
    start, size = int(ref["offset"]), int(ref["size"])
    if blob is None or start < 0 or start + size > blob.size:
        raise PackedArtifactError(
            f"{path}: blob reference {ref!r} points outside the artifact's "
            "stored data — the artifact is truncated or its metadata does "
            "not match its blobs")
    view = blob[start:start + size].reshape(
        [int(side) for side in ref["shape"]])
    view.setflags(write=False)
    return view


def save_packed(model: PackedModel | QuantizedPackedModel,
                path: str | Path,
                model_spec: dict[str, Any] | None = None,
                compress: bool = True) -> Path:
    """Persist a packed (or quantized packed) model as one ``.npz`` artifact.

    ``model_spec`` (optional, for model-backed packings) records how to
    rebuild the architecture at load time —
    ``{"name": <registry name>, "kwargs": {...}}`` for
    :func:`repro.models.build_model`; the parameter *values* are always
    persisted via :func:`repro.nn.serialization.state_dict`, so the spec
    only has to reproduce the topology.  Without a spec,
    :func:`load_plan` still serves the artifact from its plan manifest,
    but :func:`load_packed` needs the architecture passed explicitly.

    ``compress=False`` trades file size for faster cold-start loads
    (zlib inflation is a visible share of load time for the full-size
    workloads) and enables zero-copy ``load_plan(..., mmap=True)``; the
    logical format is identical either way.  The artifact is always
    written in the current format, :data:`FORMAT_VERSION`.

    A :class:`QuantizedPackedModel` must be calibrated — the artifact's
    job is to carry the frozen scales a server cold-starts with.
    """
    quantized: QuantizedPackedModel | None = None
    if isinstance(model, QuantizedPackedModel):
        quantized = model
        packed = model.packed
        if not quantized.calibrated:
            raise ValueError(
                "cannot save an uncalibrated QuantizedPackedModel: the "
                "artifact persists the frozen calibration scales; run "
                "calibrate(batch) first")
    elif isinstance(model, PackedModel):
        packed = model
    else:
        raise TypeError(
            f"save_packed takes a PackedModel or QuantizedPackedModel, "
            f"got {type(model).__name__}")
    if model_spec is not None:
        if packed.model is None:
            raise ValueError(
                "model_spec was given but this PackedModel has no nn model")
        model_spec = _validate_model_spec(model_spec)

    # Columnar layout: every layer's packed data concatenates into four
    # flat arrays (sliced back apart via the shapes in the metadata), so
    # the artifact holds a handful of npz entries however many layers the
    # network has — per-entry container overhead is what dominates load
    # time for the 20-layer workloads.
    arrays: dict[str, np.ndarray] = {}
    layers_meta: list[dict[str, Any]] = []
    all_weights: list[np.ndarray] = []
    all_channels: list[np.ndarray] = []
    all_columns: list[np.ndarray] = []
    all_sizes: list[np.ndarray] = []
    for spec in packed.specs:
        layer = spec.packed
        flat_columns, group_sizes = _grouping_arrays(layer.grouping)
        all_weights.append(layer.weights.ravel())
        all_channels.append(layer.channel_index.ravel())
        all_columns.append(flat_columns)
        all_sizes.append(group_sizes)
        layers_meta.append({
            "name": spec.name,
            "original_shape": list(layer.original_shape),
            "num_groups": layer.num_groups,
            "alpha": layer.grouping.alpha,
            "gamma": layer.grouping.gamma,
            "policy": layer.grouping.policy,
            "fingerprint": fingerprint_packed(layer),
        })
    arrays["packed.weights"] = _concatenate(all_weights, np.float64)
    arrays["packed.channel_index"] = _concatenate(all_channels, np.int64)
    arrays["packed.group_columns"] = _concatenate(all_columns, np.int64)
    arrays["packed.group_sizes"] = _concatenate(all_sizes, np.int64)

    has_model_state = packed.model is not None
    state_meta: dict[str, Any] | None = None
    buffers_meta: dict[str, Any] | None = None
    plan_meta: dict[str, Any] | None = None
    if has_model_state:
        blobs = _BlobWriter()
        state_meta = {name: blobs.store(array)
                      for name, array in state_dict(packed.model).items()}
        # Non-parameter module state the state dict does not cover:
        # batch-norm running statistics, addressed by module path.
        buffers_meta = {}
        for module_path, module in packed.model.named_modules():
            if isinstance(module, BatchNorm2d):
                prefix = f"{module_path}." if module_path else ""
                buffers_meta[f"{prefix}running_mean"] = blobs.store(
                    module.running_mean)
                buffers_meta[f"{prefix}running_var"] = blobs.store(
                    module.running_var)
        # The float op tree; quantizers rebuild from quant.* at load.
        from repro.combining.execplan import manifest_from_plan
        plan_meta = manifest_from_plan(packed.compile_plan(), blobs.store)
        arrays.update(blobs.entries())

    quantized_meta: dict[str, Any] | None = None
    if quantized is not None:
        calibrations = quantized.layer_calibrations()
        arrays["quant.input_scales"] = np.array(
            [c.input_quantizer.scale for c in calibrations], dtype=np.float64)
        arrays["quant.weight_scales"] = np.array(
            [c.weight_quantizer.scale for c in calibrations], dtype=np.float64)
        config = quantized.system.config
        quantized_meta = {
            "bits": quantized.bits,
            "calibration": quantized.calibration,
            "percentile": quantized.percentile,
            "array": asdict(config),
            "layers": [{"name": c.name,
                        "weight_rmse": c.weight_rmse,
                        "weight_saturation": c.weight_saturation}
                       for c in calibrations],
        }

    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "quantized" if quantized is not None else "packed",
        "array_rows": packed.array_rows,
        "array_cols": packed.array_cols,
        "pipeline_config": (packed.pipeline_config.to_dict()
                            if packed.pipeline_config is not None else None),
        "layers": layers_meta,
        "model_spec": model_spec,
        "has_model_state": has_model_state,
        "quantized": quantized_meta,
        "state": state_meta,
        "buffers": buffers_meta,
        "plan": plan_meta,
    }
    # The whole-content digest goes into the metadata itself, so probing
    # it later (artifact_fingerprint) never has to touch the arrays.
    meta["fingerprint"] = _content_digest(arrays, meta)
    arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))

    path = Path(path)
    writer = np.savez_compressed if compress else np.savez
    with open(path, "wb") as handle:
        writer(handle, **arrays)
    return path


def _open_artifact(path: Path) -> Any:
    """``np.load`` with container failures wrapped as artifact errors.

    A truncated download or a non-npz file makes ``np.load`` raise zip /
    pickle errors whose messages mislead ("pickled data" for plain
    garbage); readers promise :class:`PackedArtifactError` for anything
    unreadable.  A missing file still raises ``FileNotFoundError``.
    """
    try:
        return np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except (ValueError, OSError, zipfile.BadZipFile) as error:
        raise PackedArtifactError(
            f"{path} is not a readable packed artifact "
            f"(corrupt or not an npz file): {error}") from error


class _MmapUnsupportedError(PackedArtifactError):
    """The artifact exists and is valid but cannot be memory-mapped
    (compressed entries); ``mmap="auto"`` falls back to a normal read."""


class _MmapArtifact:
    """Zero-copy npz reader: every array is an ``np.memmap`` into the file.

    ``np.load(mmap_mode=...)`` does not support npz archives, so this
    walks the zip members directly: for each stored (uncompressed) entry
    it parses the local file header and the npy header, then maps the
    raw element bytes read-only.  N processes opening one artifact this
    way share a single resident copy of the arrays via the page cache —
    the sharing model the process serving backend builds on.  Compressed
    entries cannot be mapped and raise :class:`_MmapUnsupportedError`
    (re-save with ``compress=False``).  Zero-size and 0-d entries (the
    ``meta`` JSON string) are read eagerly — ``np.memmap`` cannot
    represent them, and they are not worth sharing.
    """

    def __init__(self, path: Path):
        self._arrays: dict[str, np.ndarray] = {}
        try:
            archive = zipfile.ZipFile(path)
        except FileNotFoundError:
            raise
        except (OSError, zipfile.BadZipFile) as error:
            raise PackedArtifactError(
                f"{path} is not a readable packed artifact "
                f"(corrupt or not an npz file): {error}") from error
        with archive, open(path, "rb") as handle:
            for info in archive.infolist():
                name = info.filename
                if name.endswith(".npy"):
                    name = name[:-len(".npy")]
                if info.compress_type != zipfile.ZIP_STORED:
                    raise _MmapUnsupportedError(
                        f"{path}: entry {info.filename!r} is compressed and "
                        "cannot be memory-mapped; re-save the artifact with "
                        "compress=False (or load with mmap=False)")
                try:
                    self._arrays[name] = self._map_entry(handle, info, path)
                except PackedArtifactError:
                    raise
                except (ValueError, OSError) as error:
                    raise PackedArtifactError(
                        f"{path}: entry {info.filename!r} is not a readable "
                        f"npy member: {error}") from error
        self.files = list(self._arrays)

    @staticmethod
    def _map_entry(handle: Any, info: zipfile.ZipInfo,
                   path: Path) -> np.ndarray:
        # Local file header: 30 fixed bytes, then the (variable) name and
        # extra fields; the member's data follows.  The central directory
        # (what ZipInfo reflects) may disagree with the local extra-field
        # length, so read it from the local header itself.
        handle.seek(info.header_offset)
        header = handle.read(30)
        if len(header) != 30 or header[:4] != b"PK\x03\x04":
            raise PackedArtifactError(
                f"{path}: zip member {info.filename!r} has a corrupt local "
                "header")
        name_len = int.from_bytes(header[26:28], "little")
        extra_len = int.from_bytes(header[28:30], "little")
        data_start = info.header_offset + 30 + name_len + extra_len
        handle.seek(data_start)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran_order, dtype = \
                np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran_order, dtype = \
                np.lib.format.read_array_header_2_0(handle)
        else:
            raise PackedArtifactError(
                f"{path}: entry {info.filename!r} has unsupported npy "
                f"format version {version}")
        if dtype.hasobject:
            raise PackedArtifactError(
                f"{path}: entry {info.filename!r} holds Python objects; "
                "packed artifacts never do — the file was tampered with")
        if len(shape) == 0 or 0 in shape:
            handle.seek(data_start)
            return np.lib.format.read_array(handle, allow_pickle=False)
        return np.memmap(path, mode="r", dtype=dtype, shape=shape,
                         offset=handle.tell(),
                         order="F" if fortran_order else "C")

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __enter__(self) -> "_MmapArtifact":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


def _read_meta(data: Any, path: Path) -> dict[str, Any]:
    if "meta" not in data:
        raise PackedArtifactError(
            f"{path} is not a packed artifact (no 'meta' entry)")
    meta = json.loads(str(data["meta"][()]))
    version = meta.get("format_version")
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise PackedArtifactError(
            f"{path} has packed-artifact format version {version!r}; this "
            f"build reads versions {SUPPORTED_FORMAT_VERSIONS} — re-save "
            "the artifact with the current save_packed")
    if meta.get("kind") not in ARTIFACT_KINDS:
        raise PackedArtifactError(
            f"{path} has unknown artifact kind {meta.get('kind')!r}; "
            f"expected one of {ARTIFACT_KINDS}")
    return meta


def artifact_info(path: str | Path) -> dict[str, Any]:
    """The artifact's metadata (validated version / kind) without rebuilding it.

    The cheap inspection path for registries and the ``load-packed`` CLI
    report: returns the decoded metadata mapping plus ``path`` and
    ``file_bytes``.
    """
    path = Path(path)
    with _open_artifact(path) as data:
        meta = _read_meta(data, path)
    if not meta.get("fingerprint"):
        meta["fingerprint"] = _file_digest(path)
    meta["path"] = str(path)
    meta["file_bytes"] = path.stat().st_size
    return meta


def _load_layers(data: Any, meta: dict[str, Any], path: Path,
                 copy: bool = True) -> list[PackedFilterMatrix]:
    """Slice the columnar arrays back into per-layer packed matrices.

    ``copy=False`` (the mmap path) keeps each layer's weights and routing
    as read-only views into the columnar arrays instead of materializing
    private copies — the whole point of memory-mapping the artifact.
    """
    try:
        all_weights = data["packed.weights"]
        all_channels = data["packed.channel_index"]
        all_columns = data["packed.group_columns"]
        all_sizes = data["packed.group_sizes"]
    except KeyError as error:
        raise PackedArtifactError(
            f"{path}: artifact is missing packed array {error}") from error
    layers: list[PackedFilterMatrix] = []
    cell_cursor = column_cursor = group_cursor = 0
    for index, layer_meta in enumerate(meta["layers"]):
        rows, columns = (int(side) for side in layer_meta["original_shape"])
        num_groups = int(layer_meta["num_groups"])
        cells = rows * num_groups
        if (cell_cursor + cells > all_weights.size
                or column_cursor + columns > all_columns.size
                or group_cursor + num_groups > all_sizes.size):
            raise PackedArtifactError(
                f"{path}: layer {index} ({layer_meta['name']!r}) extends "
                "past the end of the packed arrays — the artifact is "
                "truncated or its metadata does not match its data")
        weights = all_weights[cell_cursor:cell_cursor + cells]
        channel_index = all_channels[cell_cursor:cell_cursor + cells]
        group_sizes = all_sizes[group_cursor:group_cursor + num_groups]
        flat_columns = all_columns[column_cursor:column_cursor + columns]
        cell_cursor += cells
        column_cursor += columns
        group_cursor += num_groups
        groups: list[list[int]] = []
        cursor = 0
        for size in group_sizes:
            groups.append([int(col)
                           for col in flat_columns[cursor:cursor + size]])
            cursor += int(size)
        try:
            grouping = ColumnGrouping(groups=groups, num_columns=columns,
                                      num_rows=rows,
                                      alpha=int(layer_meta["alpha"]),
                                      gamma=float(layer_meta["gamma"]),
                                      policy=str(layer_meta["policy"]))
            layer_weights = weights.reshape(rows, num_groups)
            layer_channels = channel_index.reshape(rows, num_groups)
            if copy:
                layer_weights = layer_weights.copy()
                layer_channels = layer_channels.copy()
            packed = PackedFilterMatrix(
                weights=layer_weights,
                channel_index=layer_channels,
                grouping=grouping,
                original_shape=(rows, columns))
        except ValueError as error:
            raise PackedArtifactError(
                f"{path}: layer {index} ({layer_meta['name']!r}) is "
                f"internally inconsistent: {error}") from error
        fingerprint = fingerprint_packed(packed)
        if fingerprint != layer_meta["fingerprint"]:
            raise PackedArtifactError(
                f"{path}: layer {index} ({layer_meta['name']!r}) fingerprint "
                f"mismatch: stored {layer_meta['fingerprint']}, recomputed "
                f"{fingerprint} — the artifact's layer data was corrupted "
                "or edited after saving")
        layers.append(packed)
    if (cell_cursor != all_weights.size or cell_cursor != all_channels.size
            or column_cursor != all_columns.size
            or group_cursor != all_sizes.size):
        raise PackedArtifactError(
            f"{path}: packed arrays hold more data than the metadata "
            "describes — the artifact is corrupted")
    return layers


@dataclass
class _RawArtifact:
    """An artifact's decoded, integrity-checked contents (no nn model)."""

    meta: dict[str, Any]
    layers: list[PackedFilterMatrix]
    state: dict[str, np.ndarray]
    quant_arrays: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    blobs: dict[str, np.ndarray] = field(default_factory=dict)


def _open_for_read(path: Path, mmap: bool | str) -> Any:
    if mmap is True:
        return _MmapArtifact(path)
    if mmap == "auto":
        try:
            return _MmapArtifact(path)
        except _MmapUnsupportedError:
            return _open_artifact(path)
    if mmap is not False:
        raise ValueError(f"mmap must be True, False, or 'auto', got {mmap!r}")
    return _open_artifact(path)


def _load_raw(path: Path, mmap: bool | str = False) -> _RawArtifact:
    """Read + integrity-check an artifact's contents, no model resolution."""
    data = _open_for_read(path, mmap)
    is_mmap = isinstance(data, _MmapArtifact)
    with data:
        meta = _read_meta(data, path)
        layers = _load_layers(data, meta, path, copy=not is_mmap)
        blobs = {key: data[key] for key in data.files
                 if key.startswith("blob.")}
        state: dict[str, np.ndarray] = {}
        buffers: dict[str, np.ndarray] = {}
        if int(meta["format_version"]) >= 2:
            state = {name: _slice_ref(blobs, ref, path)
                     for name, ref in (meta.get("state") or {}).items()}
            buffers = {name: _slice_ref(blobs, ref, path)
                       for name, ref in (meta.get("buffers") or {}).items()}
        else:
            state = {key[len("state."):]: data[key]
                     for key in data.files if key.startswith("state.")}
        quant_arrays: dict[str, np.ndarray] = {}
        if meta["kind"] == "quantized":
            try:
                quant_arrays = {"input_scales": data["quant.input_scales"],
                                "weight_scales": data["quant.weight_scales"]}
            except KeyError as error:
                raise PackedArtifactError(
                    f"{path}: quantized artifact is missing scale array "
                    f"{error}") from error
    return _RawArtifact(meta=meta, layers=layers, state=state,
                        quant_arrays=quant_arrays, buffers=buffers,
                        blobs=blobs)


def verify_artifact(path: str | Path) -> dict[str, Any]:
    """Load and integrity-check an artifact without materializing a model.

    The inspection path (the ``load-packed`` CLI report): every layer is
    rebuilt, validated, and fingerprint-checked exactly as
    :func:`load_packed` would, but the nn architecture is never built —
    so artifacts saved without a ``model_spec`` (or whose spec the
    caller cannot satisfy) still inspect cleanly.  Returns the metadata
    (as :func:`artifact_info`), the verified
    :class:`~repro.combining.packing.PackedFilterMatrix` per layer, and
    the frozen quantizer scale arrays for quantized artifacts.
    """
    path = Path(path)
    raw = _load_raw(path)
    info = dict(raw.meta)
    info["path"] = str(path)
    info["file_bytes"] = path.stat().st_size
    return {"info": info, "layers": raw.layers,
            "input_scales": raw.quant_arrays.get("input_scales"),
            "weight_scales": raw.quant_arrays.get("weight_scales")}


def _resolve_model(meta: dict[str, Any], model: Module | None,
                   path: Path) -> Module | None:
    if model is not None:
        return model
    if meta["model_spec"] is not None:
        spec = meta["model_spec"]
        return build_model(spec["name"], **spec.get("kwargs", {}))
    if meta["has_model_state"]:
        raise PackedArtifactError(
            f"{path} carries nn model state but no model_spec; pass the "
            "architecture explicitly: load_packed(path, model=...)")
    return None


def _apply_buffers(model: Module, buffers: dict[str, np.ndarray],
                   path: Path) -> None:
    """Install persisted non-parameter module state (batch-norm stats)."""
    modules = dict(model.named_modules())
    for name, array in buffers.items():
        module_path, _, attr = name.rpartition(".")
        module = modules.get(module_path)
        if module is None or not hasattr(module, attr):
            raise PackedArtifactError(
                f"{path}: buffer {name!r} does not fit the supplied model "
                "architecture")
        setattr(module, attr, np.array(array))


def _assemble_model(raw: _RawArtifact, model: Module | None,
                    path: Path) -> PackedModel | QuantizedPackedModel:
    """Build the forward-ready model from an artifact's decoded contents."""
    meta, packed_layers = raw.meta, raw.layers
    resolved = _resolve_model(meta, model, path)
    if meta["has_model_state"]:
        assert resolved is not None
        try:
            load_state_dict(resolved, raw.state, strict=True)
        except (KeyError, ValueError) as error:
            raise PackedArtifactError(
                f"{path}: artifact state does not fit the supplied model "
                f"architecture: {error}") from error
        if raw.buffers:
            _apply_buffers(resolved, raw.buffers, path)

    modules: list[Any]
    if resolved is not None:
        layers = _model_packable_layers(resolved)
        if len(layers) != len(packed_layers):
            raise PackedArtifactError(
                f"{path} has {len(packed_layers)} packed layers but the "
                f"model architecture has {len(layers)} packable layers")
        modules = [module for _, module in layers]
    else:
        modules = [None] * len(packed_layers)
    try:
        specs = [PackedLayerSpec(layer_meta["name"], packed_layer, module)
                 for layer_meta, packed_layer, module
                 in zip(meta["layers"], packed_layers, modules)]
    except ValueError as error:
        raise PackedArtifactError(
            f"{path}: packed layers do not fit the model architecture: "
            f"{error}") from error
    pipeline_config = (PipelineConfig.from_dict(meta["pipeline_config"])
                       if meta["pipeline_config"] is not None else None)
    packed_model = PackedModel(specs, model=resolved,
                               array_rows=int(meta["array_rows"]),
                               array_cols=int(meta["array_cols"]),
                               pipeline_config=pipeline_config)
    if meta["kind"] == "packed":
        return packed_model

    quantized_meta = meta["quantized"]
    quantized = QuantizedPackedModel(
        packed_model, bits=int(quantized_meta["bits"]),
        calibration=str(quantized_meta["calibration"]),
        percentile=float(quantized_meta["percentile"]),
        array_config=_quantized_array_config(meta, path))
    calibrations = []
    for layer_meta, input_scale, weight_scale in zip(
            quantized_meta["layers"], raw.quant_arrays["input_scales"],
            raw.quant_arrays["weight_scales"]):
        calibrations.append(LayerCalibration(
            name=layer_meta["name"],
            input_quantizer=LinearQuantizer(bits=quantized.bits,
                                            scale=float(input_scale)),
            weight_quantizer=LinearQuantizer(bits=quantized.bits,
                                             scale=float(weight_scale)),
            weight_rmse=float(layer_meta["weight_rmse"]),
            weight_saturation=float(layer_meta["weight_saturation"]),
        ))
    try:
        quantized.restore_calibrations(calibrations)
    except ValueError as error:
        raise PackedArtifactError(
            f"{path}: frozen calibrations do not match the packed layers: "
            f"{error}") from error
    return quantized


def _quantized_array_config(meta: dict[str, Any],
                            path: Path) -> ArrayConfig | None:
    """The array a quantized artifact was costed on, or ``None`` for
    files written before it was stored (their array is the default one
    derived from ``array_rows`` x ``array_cols``)."""
    stored = meta["quantized"].get("array")
    if stored is None:
        return None
    try:
        return ArrayConfig(**stored)
    except (TypeError, ValueError) as error:
        raise PackedArtifactError(
            f"{path}: stored array configuration is unreadable: "
            f"{error!r}") from error


def load_packed(path: str | Path, model: Module | None = None
                ) -> PackedModel | QuantizedPackedModel:
    """Load a packed artifact back into a forward-ready model.

    Returns a :class:`PackedModel` for ``"packed"`` artifacts and a
    calibrated :class:`QuantizedPackedModel` for ``"quantized"`` ones.
    The loaded model's forward is bit-identical to the model that was
    saved, for any format version.  ``model`` optionally supplies the nn
    architecture (parameter values are overwritten from the artifact's
    state); when omitted, the artifact's ``model_spec`` rebuilds it, and
    artifacts saved from matrix-only packings load as matrix-only models
    (no forward).  Serving loads through :func:`load_plan` instead.

    Raises :class:`PackedArtifactError` on format-version mismatch,
    per-layer fingerprint mismatch, or structural corruption.
    """
    path = Path(path)
    return _assemble_model(_load_raw(path), model, path)


def _plan_from_artifact(raw: _RawArtifact, path: Path) -> Any:
    """Rebuild an :class:`ExecutionPlan` from a V2 plan manifest."""
    from repro.combining.execplan import (
        ExecutionPlan,
        PackedLayerOp,
        plan_from_manifest,
    )

    meta = raw.meta
    bits = array_config = None
    if meta["kind"] == "quantized":
        bits = int(meta["quantized"]["bits"])
        array_config = _quantized_array_config(meta, path)
    packed_ops: dict[int, PackedLayerOp] = {}

    def packed_factory(index: int, bias: np.ndarray | None) -> PackedLayerOp:
        if not 0 <= index < len(raw.layers):
            raise PackedArtifactError(
                f"{path}: plan manifest references packed layer {index} but "
                f"the artifact holds {len(raw.layers)} layers")
        existing = packed_ops.get(index)
        if existing is not None:
            return existing
        packed = raw.layers[index]
        input_quantizer = weight_quantizer = None
        if bits is not None:
            input_quantizer = LinearQuantizer(
                bits=bits, scale=float(raw.quant_arrays["input_scales"][index]))
            weight_quantizer = LinearQuantizer(
                bits=bits, scale=float(raw.quant_arrays["weight_scales"][index]))
        op = PackedLayerOp(
            name=str(meta["layers"][index]["name"]), packed=packed,
            bias=bias, in_channels=packed.original_shape[1],
            input_quantizer=input_quantizer,
            weight_quantizer=weight_quantizer)
        packed_ops[index] = op
        return op

    def load(ref: Any) -> np.ndarray | None:
        if ref is None:
            return None
        # BLAS kernels choose their code path — and with it their float
        # summation order — partly from operand alignment, and a memmap
        # view lands at whatever offset the zip layout dictates.  The
        # manifest's arrays feed the non-batch-invariant matmul paths, so
        # materialize them as ordinary allocations to keep plan forwards
        # bit-identical to the saved model's; the large packed.* arrays
        # stay mapped (they never feed BLAS directly).
        array = np.array(_slice_ref(raw.blobs, ref, path))
        array.setflags(write=False)
        return array

    try:
        root = plan_from_manifest(meta["plan"], packed_factory, load)
    except (KeyError, TypeError, ValueError) as error:
        if isinstance(error, PackedArtifactError):
            raise
        raise PackedArtifactError(
            f"{path}: plan manifest is unreadable: {error}") from error
    missing = [index for index in range(len(raw.layers))
               if index not in packed_ops]
    if missing:
        raise PackedArtifactError(
            f"{path}: plan manifest never references packed layers "
            f"{missing} — the artifact's plan does not cover its data")
    pipeline_config = (PipelineConfig.from_dict(meta["pipeline_config"])
                       if meta["pipeline_config"] is not None else None)
    return ExecutionPlan(
        root=root,
        packed_ops=[packed_ops[index] for index in range(len(raw.layers))],
        kind=str(meta["kind"]),
        array_rows=int(meta["array_rows"]),
        array_cols=int(meta["array_cols"]),
        pipeline_config=pipeline_config,
        bits=bits,
        array_config=array_config)


def check_servable(meta: dict[str, Any], path: str | Path) -> None:
    """Raise :class:`PackedArtifactError` unless :func:`load_plan` can
    build a plan from an artifact with this metadata: that takes a plan
    manifest (V2, model-backed) or a ``model_spec`` to rebuild the model
    from (V1).  Metadata only, so registries refuse an unservable
    artifact when it is registered rather than on its first request."""
    if meta.get("plan") is not None or meta["model_spec"] is not None:
        return
    if not meta["has_model_state"]:
        raise PackedArtifactError(
            f"{path} holds a matrix-only packing with no nn model state or "
            "plan manifest; serving needs a forward-capable artifact (save "
            "it with model state)")
    raise PackedArtifactError(
        f"{path} carries nn model state but neither a plan manifest nor a "
        "model_spec, so no plan can be built from the file alone (re-save "
        "it with the current save_packed)")


def load_plan(path: str | Path, mmap: bool | str = False) -> Any:
    """Load a packed artifact straight into an immutable :class:`ExecutionPlan`.

    The serving cold-start path, from the file alone.  V2 model-backed
    artifacts carry their op tree as a manifest, so the plan assembles
    directly from the stored arrays — no nn module graph is ever built.
    V1 artifacts rebuild the model from their ``model_spec`` as
    :func:`load_packed` does and compile it.  Either way the plan's
    forward is bit-identical to the saved model's, quantized artifacts
    yielding quantized-capable plans.  Anything else (matrix-only
    packings, V1 artifacts without a spec) raises
    :class:`PackedArtifactError` — see :func:`check_servable`.

    ``mmap=True`` memory-maps every array read-only instead of copying
    it into anonymous memory, so concurrent loaders of one artifact
    share a single resident copy via the page cache.  It requires an
    uncompressed artifact (``save_packed(..., compress=False)``) and
    raises :class:`PackedArtifactError` otherwise; ``mmap="auto"`` falls
    back to a normal read in that case.
    """
    path = Path(path)
    raw = _load_raw(path, mmap=mmap)
    check_servable(raw.meta, path)
    if raw.meta.get("plan") is not None:
        return _plan_from_artifact(raw, path)
    return _assemble_model(raw, None, path).compile_plan()
