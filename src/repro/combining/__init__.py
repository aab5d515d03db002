"""Column combining: the paper's core contribution.

The public surface mirrors the paper's algorithms:

* :func:`~repro.combining.grouping.group_columns` — Algorithm 2, the
  dense-column-first column grouping under the group-size (α) and
  limited-conflict (γ) constraints.
* :func:`~repro.combining.pruning.column_combine_prune` — Algorithm 3,
  pruning all conflicting weights but the largest-magnitude one per row.
* :class:`~repro.combining.trainer.ColumnCombineTrainer` — Algorithm 1, the
  iterative joint optimization of utilization efficiency and accuracy.
* :class:`~repro.combining.packing.PackedFilterMatrix` — the packed matrix
  plus the per-cell channel indices that an MX-cell systolic array needs.
* :mod:`~repro.combining.permutation` — the row permutation of Section 3.5
  that makes each next-layer group contiguous, removing the switchbox.
* :mod:`~repro.combining.metrics` / :mod:`~repro.combining.tiling` —
  packing / utilization efficiency and tile-count arithmetic.
* :class:`~repro.combining.pipeline.PackingPipeline` — the end-to-end
  group / conflict-prune / pack / tile flow over a list of layers, with
  optional layer-parallel fan-out over a persistent process pool
  (``workers=N``; spawned lazily, reused across ``run()`` calls, released
  by ``close()`` / the context-manager exit); every figure/table sweep
  routes through it.
* :class:`~repro.combining.inference.PackedModel` — the model-level
  consumer of ``PipelineResult.packed_layers()``: batched multi-layer
  forward passes through the packed representations (bit-exact dense
  realization or MX-cell routing), batched ``to_sparse`` export, and
  per-model cycle / tile accounting via the systolic timing model.
* :class:`~repro.combining.quantized.QuantizedPackedModel` — the
  serving-path integer twin of ``PackedModel``: per-layer quantizers
  calibrated once and frozen, every packed layer run as one exact
  integer GEMM, bit-identical to
  :meth:`repro.systolic.system.SystolicSystem.run_layer`'s tiled
  quantized execution (``bits``-bit MX routing, 32-bit accumulation,
  per-layer re-quantization), with per-layer error reports and
  bit-width-aware cycle accounting.
* :mod:`~repro.combining.serialization` — the versioned packed-artifact
  format (:func:`~repro.combining.serialization.save_packed` /
  :func:`~repro.combining.serialization.load_packed`): one ``.npz`` file
  persisting the packed matrices, channel routing, grouping, pipeline
  config, nn model state, and frozen calibration scales, with format
  versioning and per-layer fingerprints; loaded models are
  forward-bit-identical to the ones saved.  :mod:`repro.serving` builds
  its model registry / dynamic-batching inference server on top.

Engine selection
----------------

Both greedy algorithms ship two implementations that produce bit-identical
results; the ``"reference"`` variants are the executable specifications
kept for differential testing and debugging.

:func:`~repro.combining.grouping.group_columns` (Algorithm 2) accepts
``engine="fast"`` (the default) or ``engine="reference"``:

* ``"fast"`` — the vectorized bitset engine.  Each group's occupied-row
  set lives in a ``(G, ceil(N / 64))`` uint64 bitset matrix
  (:mod:`~repro.combining.bitset`), so one broadcasted ``bitwise_and`` +
  popcount pass scores a candidate column against every open group at
  once; when only 1-2 groups are open it drops to a scalar Python-int
  micro-path that avoids the vectorized call overhead entirely.
* ``"reference"`` — the original per-group Python loop.

:func:`~repro.combining.pruning.conflict_mask` (Algorithm 3) accepts the
same two names: ``"fast"`` selects every group's row winners in one
``ufunc.at`` scatter pass over the packed nonzero-entry list, while
``"reference"`` is the per-group dense-slice loop.

Every other caller — :func:`~repro.combining.tiling.tiles_for_model`,
:func:`~repro.combining.packing.pack_filter_matrix`, the Algorithm 1
trainer, the experiments and the CLI — always runs the fast engines.  The
choice survives in exactly five places: the ``engine`` argument of
:func:`~repro.combining.grouping.group_columns`,
:func:`~repro.combining.pruning.conflict_mask` and
:func:`~repro.combining.pruning.column_combine_prune`, which the
differential suites call with both names; and the ``grouping_engine`` /
``prune_engine`` fields of
:class:`~repro.combining.pipeline.PipelineConfig`, which packed artifacts
record in their ``pipeline_config`` (the checked-in V1 golden artifacts
carry both, and :meth:`PipelineConfig.from_dict
<repro.combining.pipeline.PipelineConfig.from_dict>` rejects unknown
fields) and which the benchmark's traced pack replay reads.  Valid names
are listed in :data:`~repro.combining.grouping.GROUPING_ENGINES` and
:data:`~repro.combining.pruning.PRUNE_ENGINES`.
"""

from repro.combining.grouping import (
    GROUPING_ENGINES,
    GROUPING_POLICIES,
    ColumnGrouping,
    group_columns,
    group_layout,
)
from repro.combining.pruning import (
    PRUNE_ENGINES,
    column_combine_prune,
    conflict_mask,
    pruned_weight_count,
)
from repro.combining.packing import PackedFilterMatrix, pack_filter_matrix
from repro.combining.pipeline import (
    LayerResult,
    PackingPipeline,
    PipelineConfig,
    PipelineResult,
    ordered_pool_map,
)
from repro.combining.inference import (
    PackedLayerSpec,
    PackedModel,
    ensure_sample_batch,
)
from repro.combining.execplan import (
    PLAN_MODES,
    ExecutionPlan,
    compile_plan,
    register_plan_compiler,
)
from repro.combining.kernels import (
    invariant_conv_pointwise,
    invariant_matmul,
    kernel_schedule,
)
from repro.combining.serialization import (
    ARTIFACT_KINDS,
    FORMAT_VERSION,
    SUPPORTED_FORMAT_VERSIONS,
    PackedArtifactError,
    artifact_info,
    fingerprint_packed,
    load_packed,
    load_plan,
    save_packed,
    verify_artifact,
)
from repro.combining.quantized import (
    MAX_BITS,
    MIN_BITS,
    LayerCalibration,
    QuantizedLayerReport,
    QuantizedPackedModel,
)
from repro.combining.permutation import (
    permutation_from_groups,
    apply_row_permutation,
    apply_column_permutation,
    remap_groups_contiguous,
    plan_cross_layer_permutations,
)
from repro.combining.metrics import (
    density,
    column_density,
    count_conflicts,
    packing_efficiency,
    utilization_efficiency,
)
from repro.combining.tiling import tile_count, tiles_for_layer, tiles_for_model
from repro.combining.trainer import (
    ColumnCombineConfig,
    ColumnCombineTrainer,
    EpochRecord,
    TrainingHistory,
)
from repro.combining.reports import (
    LayerPackingReport,
    ModelPackingReport,
    packing_report,
)

__all__ = [
    "GROUPING_ENGINES",
    "GROUPING_POLICIES",
    "PRUNE_ENGINES",
    "ColumnGrouping",
    "group_columns",
    "column_combine_prune",
    "conflict_mask",
    "group_layout",
    "pruned_weight_count",
    "PackedFilterMatrix",
    "pack_filter_matrix",
    "PLAN_MODES",
    "invariant_matmul",
    "invariant_conv_pointwise",
    "kernel_schedule",
    "PackedLayerSpec",
    "PackedModel",
    "ExecutionPlan",
    "compile_plan",
    "register_plan_compiler",
    "ensure_sample_batch",
    "ARTIFACT_KINDS",
    "FORMAT_VERSION",
    "SUPPORTED_FORMAT_VERSIONS",
    "PackedArtifactError",
    "artifact_info",
    "fingerprint_packed",
    "load_packed",
    "load_plan",
    "save_packed",
    "verify_artifact",
    "MIN_BITS",
    "MAX_BITS",
    "LayerCalibration",
    "QuantizedLayerReport",
    "QuantizedPackedModel",
    "LayerResult",
    "PackingPipeline",
    "PipelineConfig",
    "PipelineResult",
    "ordered_pool_map",
    "permutation_from_groups",
    "apply_row_permutation",
    "apply_column_permutation",
    "remap_groups_contiguous",
    "plan_cross_layer_permutations",
    "density",
    "column_density",
    "count_conflicts",
    "packing_efficiency",
    "utilization_efficiency",
    "tile_count",
    "tiles_for_layer",
    "tiles_for_model",
    "ColumnCombineConfig",
    "ColumnCombineTrainer",
    "EpochRecord",
    "TrainingHistory",
    "LayerPackingReport",
    "ModelPackingReport",
    "packing_report",
]
