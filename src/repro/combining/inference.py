"""Model-level batched inference over packed filter matrices.

The rest of :mod:`repro.combining` stops at per-layer
:class:`~repro.combining.packing.PackedFilterMatrix` objects;
:class:`PackedModel` is the model-level consumer.  It assembles from a
:class:`~repro.combining.pipeline.PipelineResult` (or directly from an nn
model via :class:`~repro.combining.pipeline.PackingPipeline`) and provides:

* **Batched forward passes** — :meth:`PackedModel.forward` runs the whole
  network (shift blocks, batch norm, pooling, classifier heads) with each
  packable pointwise layer computed from its packed representation.  Each
  call compiles an :class:`~repro.combining.execplan.ExecutionPlan` from
  the model's current state and runs it, so the nn module graph is never
  modified (a pending training ``backward`` keeps its caches).  Modes:

  - ``"exact"`` (default): the packed weights are realized back into the
    layer's dense filter matrix via
    :meth:`~repro.combining.packing.PackedFilterMatrix.to_sparse` (an
    exact reconstruction of the conflict-pruned matrix, cached per layer
    across forwards — see :meth:`PackedLayerSpec.realized`).  The output
    is **bit-identical** to the dense reference forward of a model
    holding the pruned weights — any corruption of the channel routing,
    group assignment, or layer ordering changes the output.
  - ``"mx"``: every packed layer runs the true MX-cell computation
    (:meth:`~repro.combining.packing.PackedFilterMatrix.multiply_activations`):
    each cell multiplies its stored weight by the input channel it routes
    and the group outputs are summed.  This matches the dense forward up
    to floating-point summation order (the hardware sums across groups,
    a dense matmul across channels).

  Both modes also accept ``batch_invariant=True``, the serving-path
  numerics: every weight-bearing computation runs through the
  batch-invariant kernels of :mod:`repro.combining.kernels` instead of
  BLAS calls whose blocking (and therefore whose float summation order)
  depends on the batch dimension.  Batch-invariant outputs are
  *bit-identical per sample no matter how samples are batched* —
  ``forward(batch)[i:j]`` equals ``forward(batch[i:j])`` exactly — which
  is what lets :mod:`repro.serving`'s dynamic batcher coalesce arbitrary
  requests into one forward while each response stays bit-identical to
  the direct single-request call.  The kernels dispatch fixed-shape
  blocks to BLAS and run within a small factor of the unconstrained
  path.  The trade-off is numerics-only: batch-invariant results are
  numerically equivalent to the default path (same arithmetic up to
  float summation order), not bitwise equal to it.

* **Batched sparse export** — :meth:`PackedModel.to_sparse` reconstructs
  every layer's pruned dense filter matrix in one call.

* **Model-level cycle / tile accounting** — :meth:`PackedModel.plan` runs
  the systolic timing model (:meth:`repro.systolic.system.SystolicSystem.plan_model`)
  over all packed layers and :meth:`PackedModel.summary` aggregates tiles,
  cycles, utilization, packing efficiency, and pruned-weight counts per
  model.

Usage::

    from repro.combining import PackedModel, PipelineConfig
    from repro.models import build_model

    model = build_model("lenet5", image_size=12)
    packed = PackedModel.from_model(model, PipelineConfig(alpha=8, gamma=0.5))
    outputs = packed.forward(images)              # bit-exact packed inference
    mx_outputs = packed.forward(images, mode="mx")  # MX-cell routing semantics
    plan = packed.plan(spatial_sizes=[12, 6])
    print(packed.summary(plan))
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.combining.execplan import (
    ExecutionPlan,
    compile_plan,
    ensure_sample_batch,
)
from repro.combining.packing import PackedFilterMatrix
from repro.combining.pipeline import (
    PackingPipeline,
    PipelineConfig,
    PipelineResult,
)
from repro.models.registry import packable_layers as _model_packable_layers
from repro.nn import Module, PointwiseConv2d
from repro.systolic.array import ArrayConfig
from repro.systolic.system import ModelExecutionPlan, SystolicSystem


@dataclass
class PackedLayerSpec:
    """One packed layer of a :class:`PackedModel`.

    ``module`` is the live :class:`~repro.nn.layers.PointwiseConv2d` the
    packing came from, when the model was assembled from an nn model; it is
    ``None`` for pure matrix workloads (e.g. the structural experiments'
    :func:`~repro.experiments.workloads.sparse_network` layers).
    """

    name: str
    packed: PackedFilterMatrix
    module: PointwiseConv2d | None = None
    #: cache of :meth:`realized` — the dense matrix and the fingerprint of
    #: the packed weights / routing it was realized from.
    _realized: np.ndarray | None = field(default=None, repr=False, compare=False)
    _realized_key: bytes | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.module is not None:
            expected = (self.module.out_channels, self.module.in_channels)
            if self.packed.original_shape != expected:
                raise ValueError(
                    f"layer {self.name!r}: packed original_shape "
                    f"{self.packed.original_shape} does not match the module's "
                    f"filter matrix shape {expected}")

    @property
    def nonzeros(self) -> int:
        """Nonzero weights surviving in the packed representation."""
        return int(np.count_nonzero(self.packed.weights))

    def _fingerprint(self) -> bytes:
        """Digest of the packed weights and channel routing.

        Fingerprinting the packed arrays is O(N x G) — much cheaper than
        realizing the (N x M) dense matrix, whose zero-fill and scatter
        the cache exists to avoid (G is the combined column count, a
        fraction of M on the sparse layers this library targets).
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.packed.weights.tobytes())
        digest.update(self.packed.channel_index.tobytes())
        return digest.digest()

    def realized(self) -> np.ndarray:
        """The pruned dense filter matrix, cached across calls.

        Repeated exact-mode forwards reuse one realization instead of
        re-running :meth:`~repro.combining.packing.PackedFilterMatrix.to_sparse`
        per call; mutating the packed weights (or routing) invalidates the
        cache on the next call.  The returned array is shared and marked
        read-only — copy it before writing.
        """
        key = self._fingerprint()
        if self._realized is None or key != self._realized_key:
            dense = self.packed.to_sparse()
            dense.setflags(write=False)
            self._realized = dense
            self._realized_key = key
        return self._realized


class PackedModel:
    """A whole network in packed form: the unit of work is the model.

    Assemble with :meth:`from_pipeline_result` (matrix workloads or an
    already-run pipeline) or :meth:`from_model` (packs an nn model's
    packable layers through a :class:`PackingPipeline`).  Specs preserve
    the pipeline's layer order, which in turn preserves the input layer
    order even under parallel fan-out (see
    :meth:`~repro.combining.pipeline.PipelineResult.packed_layers`).
    """

    def __init__(self, specs: Sequence[PackedLayerSpec],
                 model: Module | None = None,
                 array_rows: int = 32, array_cols: int = 32,
                 pipeline_config: PipelineConfig | None = None):
        if array_rows < 1 or array_cols < 1:
            raise ValueError("array dimensions must be >= 1")
        self.specs = list(specs)
        self.model = model
        self.array_rows = array_rows
        self.array_cols = array_cols
        #: the :class:`PipelineConfig` the packing ran under, when known —
        #: persisted into packed artifacts so a served model records how it
        #: was packed (see :mod:`repro.combining.serialization`).
        self.pipeline_config = pipeline_config
        #: per-layer (H, W) observed during the last :meth:`forward` call.
        self._observed_spatial: dict[str, tuple[int, int]] = {}
        if model is not None and any(spec.module is None for spec in self.specs):
            raise ValueError("model-backed PackedModel needs a module per spec")

    # -- construction -------------------------------------------------------
    @classmethod
    def from_pipeline_result(cls, result: PipelineResult,
                             model: Module | None = None) -> "PackedModel":
        """Assemble from a pipeline run's ordered per-layer results.

        With ``model``, the result's layers are matched positionally to the
        model's ``packable_layers()`` (both are in forward order), enabling
        :meth:`forward`; shape mismatches raise ``ValueError``.
        """
        modules: list[PointwiseConv2d | None]
        if model is not None:
            layers = _model_packable_layers(model)
            if len(layers) != len(result.layers):
                raise ValueError(
                    f"pipeline result has {len(result.layers)} layers but the "
                    f"model has {len(layers)} packable layers")
            modules = [module for _, module in layers]
        else:
            modules = [None] * len(result.layers)
        specs = [PackedLayerSpec(layer.name, layer.packed, module)
                 for layer, module in zip(result.layers, modules)]
        return cls(specs, model=model,
                   array_rows=result.config.array_rows,
                   array_cols=result.config.array_cols,
                   pipeline_config=result.config)

    @classmethod
    def from_model(cls, model: Module,
                   config: PipelineConfig | None = None,
                   pipeline: PackingPipeline | None = None) -> "PackedModel":
        """Pack an nn model's packable layers and assemble the packed model.

        The packing snapshots the model's *current* weights; training the
        model afterwards does not update the packed matrices.  Pass an
        existing ``pipeline`` to reuse its (persistent) worker pool; when
        omitted a temporary pipeline is built from ``config`` and closed
        after the run.
        """
        layers = _model_packable_layers(model)
        if not layers:
            raise ValueError("model has no packable layers")
        owns_pipeline = pipeline is None
        if pipeline is None:
            pipeline = PackingPipeline(config)
        elif config is not None:
            raise ValueError("pass either config or pipeline, not both")
        try:
            result = pipeline.run([(name, module.weight.data)
                                   for name, module in layers])
        finally:
            if owns_pipeline:
                pipeline.close()
        return cls.from_pipeline_result(result, model=model)

    # -- batched forward ----------------------------------------------------
    def forward(self, activations: np.ndarray, mode: str = "exact",
                batch_size: int | None = None,
                batch_invariant: bool = False) -> np.ndarray:
        """Run a batched forward pass through the packed network.

        ``activations`` is an NCHW batch.  ``mode`` selects the packed
        computation (see the module docstring): ``"exact"`` is bit-identical
        to the dense forward over the pruned weights *for the same batch*;
        ``"mx"`` runs the MX-cell routing semantics.  ``batch_size``
        optionally splits the batch into chunks whose outputs are
        concatenated; every layer is a per-sample computation in eval
        mode, so chunking changes the result only through BLAS summation
        order (numerically equivalent, not necessarily the same bits as
        the unchunked batch).  ``batch_invariant=True`` switches every
        weight-bearing layer to the batch-invariant kernels (see
        :mod:`repro.combining.kernels`) so the result is bit-identical per
        sample regardless of batching — ``forward(x)[i:j] ==
        forward(x[i:j])`` exactly, for either mode — the property
        :mod:`repro.serving`'s dynamic batcher relies on (see the module
        docstring).  The spatial size each packed layer sees is recorded
        for :meth:`plan`.
        """
        plan = self.compile_plan()
        self._observed_spatial = {}
        return plan.forward(activations, mode=mode, batch_size=batch_size,
                            batch_invariant=batch_invariant,
                            observed=self._observed_spatial)

    def predict(self, activations: np.ndarray, mode: str = "exact",
                batch_size: int | None = None,
                batch_invariant: bool = False) -> np.ndarray:
        """Class predictions (argmax over the final logits).

        Accepts either an NCHW batch (returns one prediction per sample)
        or a single unbatched ``(C, H, W)`` sample — the natural unit of a
        serving request — which is auto-expanded to a one-sample batch and
        squeezed back to a scalar prediction.
        """
        batch, unbatched = ensure_sample_batch(activations)
        predictions = np.argmax(self.forward(batch, mode=mode,
                                             batch_size=batch_size,
                                             batch_invariant=batch_invariant),
                                axis=1)
        return predictions[0] if unbatched else predictions

    def compile_plan(self) -> ExecutionPlan:
        """Compile an immutable :class:`~repro.combining.execplan.ExecutionPlan`.

        The plan snapshots the packed matrices, module topology, and all
        non-packed parameters into a read-only, picklable op tree — the
        engine :meth:`forward` runs on — without touching this model's
        module graph, so one plan can run concurrently from any number of
        threads or processes.  Later training or repacking does not
        affect a compiled plan.
        """
        return compile_plan(self)

    # -- batched exports ----------------------------------------------------
    def packed_layers(self) -> list[tuple[str, PackedFilterMatrix]]:
        """``(name, packed)`` pairs in layer order (the planners' shape)."""
        return [(spec.name, spec.packed) for spec in self.specs]

    def to_sparse(self) -> list[tuple[str, np.ndarray]]:
        """Reconstruct every layer's pruned dense filter matrix, in order.

        Returns writable copies of the cached realizations (see
        :meth:`PackedLayerSpec.realized`), so callers may mutate them
        freely without corrupting later exact-mode forwards.
        """
        return [(spec.name, spec.realized().copy()) for spec in self.specs]

    def layer_names(self) -> list[str]:
        return [spec.name for spec in self.specs]

    # -- aggregate metrics ---------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.specs)

    def packing_efficiency(self) -> float:
        """Cell-weighted packing efficiency across all packed layers."""
        total_cells = sum(spec.packed.weights.size for spec in self.specs)
        if total_cells == 0:
            return 0.0
        nonzero = sum(spec.nonzeros for spec in self.specs)
        return nonzero / total_cells

    def total_nonzeros(self) -> int:
        """Nonzero weights across all packed layers (after conflict pruning)."""
        return sum(spec.nonzeros for spec in self.specs)

    def multiplexing_degree(self) -> int:
        """Largest MX fan-in any layer needs."""
        degrees = [spec.packed.multiplexing_degree() for spec in self.specs]
        return max(degrees) if degrees else 0

    # -- cycle / tile accounting --------------------------------------------
    def observed_spatial_map(self) -> dict[str, tuple[int, int]]:
        """Per-layer (H, W) recorded by the last forward (possibly partial).

        Unlike :meth:`observed_spatial_sizes` this never raises — it is
        the raw observation record of the spatial shapes the last forward
        actually ran at.
        """
        return dict(self._observed_spatial)

    def observed_spatial_sizes(self) -> list[int]:
        """Linear spatial sizes recorded by the last :meth:`forward` call."""
        if len(self._observed_spatial) != len(self.specs):
            raise RuntimeError(
                "no spatial sizes observed yet; run forward() first or pass "
                "spatial_sizes to plan()")
        sizes: list[int] = []
        for spec in self.specs:
            height, width = self._observed_spatial[spec.name]
            if height != width:
                raise ValueError(
                    f"layer {spec.name!r} saw a non-square {height}x{width} "
                    "activation map; pass spatial_sizes to plan() explicitly")
            sizes.append(height)
        return sizes

    def plan(self, spatial_sizes: Sequence[int] | None = None,
             batch: int = 1,
             array_config: ArrayConfig | None = None) -> ModelExecutionPlan:
        """Plan the whole model on a systolic array via the timing model.

        ``spatial_sizes[i]`` is layer i's linear activation-map size (1 for
        fully connected layers); when omitted, the sizes observed during
        the last :meth:`forward` call are used.  The returned
        :class:`~repro.systolic.system.ModelExecutionPlan` aggregates
        tiles, cycles, and MAC counts across layers.
        """
        if spatial_sizes is None:
            spatial_sizes = self.observed_spatial_sizes()
        if array_config is None:
            array_config = ArrayConfig(rows=self.array_rows, cols=self.array_cols,
                                       alpha=max(1, self.multiplexing_degree()))
        system = SystolicSystem(array_config)
        return system.plan_model(self.packed_layers(), list(spatial_sizes),
                                 batch=batch)

    def summary(self, plan: ModelExecutionPlan | None = None) -> dict[str, Any]:
        """Aggregate packed-model accounting, optionally with a timing plan."""
        result: dict[str, Any] = {
            "num_layers": self.num_layers,
            "packing_efficiency": self.packing_efficiency(),
            "total_nonzeros": self.total_nonzeros(),
            "multiplexing_degree": self.multiplexing_degree(),
        }
        if plan is not None:
            result.update({
                "total_tiles": plan.total_tiles,
                "total_cycles": plan.total_cycles,
                "utilization": plan.utilization,
            })
        return result
