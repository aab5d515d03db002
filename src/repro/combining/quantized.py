"""Whole-model quantized inference on the packed systolic representations.

:class:`~repro.combining.inference.PackedModel` runs batched forwards on
the float nn path; :class:`QuantizedPackedModel` is the serving-path
counterpart that computes every packed layer with the integer arithmetic
of the hardware of Figure 6 / Figure 12, bit-identical to
:meth:`repro.systolic.system.SystolicSystem.run_layer`'s tiled quantized
execution:

* **Calibration** — :meth:`QuantizedPackedModel.calibrate` runs one float
  forward over a calibration batch, records the activations every packed
  layer observes, and fits a frozen per-layer
  :class:`~repro.quant.linear.LinearQuantizer` pair (inputs and weights)
  once.  Inference then reuses the frozen scales instead of
  ``run_layer``'s per-call refit — what a deployed array does, since the
  hardware cannot re-derive scales from data it has not seen yet.
  Activation scales honour the ``calibration`` strategy (``"max"`` or the
  outlier-robust ``"percentile"``); weight scales always use the exact
  max-magnitude fit, since the weights are fully known at pack time.
* **Batched integer forwards** — :meth:`QuantizedPackedModel.forward`
  compiles a quantized :class:`~repro.combining.execplan.ExecutionPlan`
  from the frozen scales and runs the whole network on it, with every
  packed layer computing what the array computes: ``bits``-bit quantized
  activations and weights, exact integer accumulation, and
  dequantization by the product of the frozen scales.  The plan runs
  each layer as one integer GEMM over weights quantized once, not the
  array's tile-by-tile MX routing; integer sums are exact in float64, so
  the bits are the same (see :mod:`repro.combining.execplan`).  The spatial
  shift runs inside the model's own shift layers (bit-exact with
  :class:`~repro.systolic.blocks.ShiftBlock`); ReLU and the 8-bit
  re-quantization feeding the next packed layer happen in the plan's
  float ops and at the next layer's frozen input quantizer respectively.
  Non-packable modules (batch norm, pooling, classifier heads) run in
  float, as on the host.
* **Per-layer error accounting** — :meth:`QuantizedPackedModel.layer_report`
  reports, for the last forward, each layer's quantization RMSE,
  saturation rates, and the divergence between its quantized output and
  the exact packed computation on the same inputs, all collected by a
  per-layer tap on the plan forward;
  :meth:`QuantizedPackedModel.prediction_agreement` compares top-1
  predictions against :meth:`PackedModel.predict`'s exact mode.
* **Cycle / tile accounting** — ``bits`` threads into the systolic timing
  model (bit-serial MACs stream fewer cycles at lower widths), so
  :meth:`QuantizedPackedModel.plan` / :meth:`QuantizedPackedModel.summary`
  report the cycle cost of the chosen width alongside the error metrics.

Usage::

    from repro.combining import PipelineConfig, QuantizedPackedModel
    from repro.models import build_model

    model = build_model("lenet5", image_size=12)
    quantized = QuantizedPackedModel.from_model(
        model, PipelineConfig(alpha=8, gamma=0.5), bits=8)
    quantized.calibrate(calibration_images)
    outputs = quantized.forward(images)          # integer systolic execution
    agreement = quantized.prediction_agreement(images)
    for report in quantized.layer_report():
        print(report.name, report.divergence_rmse, report.input_saturation)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.combining.execplan import (
    ExecutionPlan,
    PackedLayerOp,
    _LayerTap,
    compile_plan,
    ensure_sample_batch,
)
from repro.combining.inference import PackedModel
from repro.combining.pipeline import PackingPipeline, PipelineConfig, PipelineResult
from repro.nn import Module
from repro.quant.linear import CALIBRATIONS, LinearQuantizer
from repro.systolic.array import ArrayConfig
from repro.systolic.system import (
    LayerExecution,
    ModelExecutionPlan,
    SystolicSystem,
    layer_execution,
)

#: Bit widths the bit-serial MX cells support (the paper's design space).
MIN_BITS, MAX_BITS = 2, 8


@dataclass(frozen=True)
class LayerCalibration:
    """Frozen per-layer quantizers, fit once by :meth:`QuantizedPackedModel.calibrate`.

    ``weight_rmse`` / ``weight_saturation`` are computed at calibration
    time — the weights do not change between forwards, so neither do they.
    """

    name: str
    input_quantizer: LinearQuantizer
    weight_quantizer: LinearQuantizer
    weight_rmse: float
    weight_saturation: float


@dataclass
class QuantizedLayerReport:
    """Per-layer error / execution accounting of the last quantized forward.

    ``divergence_rmse`` / ``divergence_max`` measure the quantized layer
    output against the **exact** packed computation on the same inputs, so
    they isolate each layer's own quantization error from error the layer
    inherited from upstream.
    """

    name: str
    bits: int
    weight_rmse: float
    weight_saturation: float
    input_rmse: float
    input_saturation: float
    divergence_rmse: float
    divergence_max: float
    num_tiles: int
    cycles: int


class _LayerStats:
    """Accumulates one layer's statistics across the chunks of a forward.

    Execution accounting (tiles, cycles, saturation) comes with every
    chunk, from the layer's tile geometry and its input quantization;
    the error terms (divergence vs the exact shadow computation,
    input quantization RMSE) are only accumulated when the forward tracks
    them — untracked forwards report them as NaN.
    """

    __slots__ = ("tracked", "elements", "squared_divergence", "max_divergence",
                 "input_squared_error", "saturated_inputs", "input_elements",
                 "num_tiles", "cycles")

    def __init__(self) -> None:
        self.tracked = False
        self.elements = 0
        self.squared_divergence = 0.0
        self.max_divergence = 0.0
        self.input_squared_error = 0.0
        self.saturated_inputs = 0.0
        self.input_elements = 0
        self.num_tiles = 0
        self.cycles = 0

    def accumulate(self, inputs: np.ndarray, saturation: float,
                   execution: LayerExecution,
                   input_quantizer: LinearQuantizer,
                   divergence: np.ndarray | None = None) -> None:
        self.saturated_inputs += saturation * inputs.size
        self.input_elements += inputs.size
        self.num_tiles += execution.num_tiles
        self.cycles += execution.cycles
        if divergence is None:
            return
        self.tracked = True
        self.elements += divergence.size
        self.squared_divergence += float(np.sum(divergence ** 2))
        self.max_divergence = max(self.max_divergence,
                                  float(np.max(np.abs(divergence)))
                                  if divergence.size else 0.0)
        residual = input_quantizer.roundtrip(inputs) - inputs
        self.input_squared_error += float(np.sum(residual ** 2))

    def divergence_rmse(self) -> float:
        if not self.tracked:
            return float("nan")
        if self.elements == 0:
            return 0.0
        return float(np.sqrt(self.squared_divergence / self.elements))

    def divergence_max(self) -> float:
        return self.max_divergence if self.tracked else float("nan")

    def input_rmse(self) -> float:
        if not self.tracked:
            return float("nan")
        if self.input_elements == 0:
            return 0.0
        return float(np.sqrt(self.input_squared_error / self.input_elements))

    def input_saturation(self) -> float:
        if self.input_elements == 0:
            return 0.0
        return self.saturated_inputs / self.input_elements


class _QuantizedTap(_LayerTap):
    """The plan tap behind calibration and the quantized forward's reports.

    Besides the base tap's spatial sizes it optionally keeps each layer's
    last input (``inputs``, for calibration), accumulates its
    :class:`_LayerStats` (``stats``; with ``track_errors`` also the
    divergence from the exact shadow computation on the same input) and
    appends its output (``outputs``, for :meth:`QuantizedPackedModel.layer_outputs`).
    Stats cost each call on ``config``'s array from the layer's tile
    geometry and the words it streamed.
    """

    def __init__(self, observed: dict[str, tuple[int, int]] | None = None,
                 inputs: dict[str, np.ndarray] | None = None,
                 stats: dict[str, _LayerStats] | None = None,
                 track_errors: bool = False,
                 outputs: dict[str, list[np.ndarray]] | None = None,
                 config: ArrayConfig | None = None):
        super().__init__(observed)
        self.inputs = inputs
        self.stats = stats
        self.track_errors = track_errors
        self.outputs = outputs
        self.config = config

    def record(self, op: PackedLayerOp, x: np.ndarray, raw: np.ndarray,
               out: np.ndarray, info: dict | None, elapsed_ns: int) -> None:
        super().record(op, x, raw, out, info, elapsed_ns)
        if self.inputs is not None:
            self.inputs[op.name] = x
        if self.stats is not None:
            assert info is not None and op.input_quantizer is not None
            assert self.config is not None
            batch, _, height, width = x.shape
            execution = layer_execution(
                op.name, op.packed, op.geometry(self.config), height,
                batch * height * width, self.config.timing)
            divergence = None
            if self.track_errors:
                # The exact float layer, as the exact-mode plan computes it.
                exact = np.einsum("nc,bchw->bnhw", op.realized(), x,
                                  optimize=True)
                divergence = raw - exact
            self.stats[op.name].accumulate(x, info["input_saturation"],
                                           execution, op.input_quantizer,
                                           divergence=divergence)
        if self.outputs is not None:
            self.outputs[op.name].append(out)


class QuantizedPackedModel:
    """A :class:`PackedModel` executed with the hardware's integer arithmetic.

    Wraps a model-backed :class:`PackedModel` and runs its packed layers
    with the integer arithmetic of a
    :class:`~repro.systolic.system.SystolicSystem` configured for
    ``bits``-bit cells (2-8; the paper's arrays are 8-bit).  Assemble
    with :meth:`from_model` / :meth:`from_pipeline_result` (mirroring
    :class:`PackedModel`), or wrap an existing packed model directly.
    :meth:`calibrate` must run before :meth:`forward`.
    """

    def __init__(self, packed: PackedModel, bits: int = 8,
                 calibration: str = "max", percentile: float = 99.5,
                 array_config: ArrayConfig | None = None):
        if not MIN_BITS <= bits <= MAX_BITS:
            raise ValueError(
                f"bits must be in [{MIN_BITS}, {MAX_BITS}], got {bits}")
        if calibration not in CALIBRATIONS:
            raise ValueError(f"unknown calibration {calibration!r}; "
                             f"expected one of {CALIBRATIONS}")
        if packed.model is None:
            raise ValueError(
                "QuantizedPackedModel needs a model-backed PackedModel "
                "(assemble it with from_model or pass model=...)")
        if array_config is None:
            array_config = ArrayConfig(
                rows=packed.array_rows, cols=packed.array_cols,
                input_bits=bits, alpha=max(1, packed.multiplexing_degree()))
        elif array_config.input_bits != bits:
            raise ValueError(
                f"array_config.input_bits={array_config.input_bits} "
                f"disagrees with bits={bits}")
        self.packed = packed
        self.bits = bits
        self.calibration = calibration
        self.percentile = percentile
        self.system = SystolicSystem(array_config)
        self._calibrations: dict[str, LayerCalibration] | None = None
        self._stats: dict[str, _LayerStats] | None = None
        self._last_layer_outputs: dict[str, list[np.ndarray]] | None = None

    # -- construction -------------------------------------------------------
    @classmethod
    def from_model(cls, model: Module, config: PipelineConfig | None = None,
                   pipeline: PackingPipeline | None = None, *, bits: int = 8,
                   calibration: str = "max", percentile: float = 99.5
                   ) -> "QuantizedPackedModel":
        """Pack an nn model's packable layers and wrap them for quantized runs."""
        packed = PackedModel.from_model(model, config=config, pipeline=pipeline)
        return cls(packed, bits=bits, calibration=calibration,
                   percentile=percentile)

    @classmethod
    def from_pipeline_result(cls, result: PipelineResult, model: Module, *,
                             bits: int = 8, calibration: str = "max",
                             percentile: float = 99.5) -> "QuantizedPackedModel":
        """Assemble from an already-run pipeline (layers matched to ``model``)."""
        packed = PackedModel.from_pipeline_result(result, model=model)
        return cls(packed, bits=bits, calibration=calibration,
                   percentile=percentile)

    # -- calibration --------------------------------------------------------
    @property
    def calibrated(self) -> bool:
        return self._calibrations is not None

    def calibrate(self, batch: np.ndarray) -> "QuantizedPackedModel":
        """Fit and freeze the per-layer quantizers on one calibration batch.

        Runs a single **exact** (float, conflict-pruned) forward over
        ``batch``, records the activations each packed layer observes, and
        fits every layer's input quantizer on them; weight quantizers are
        fit on the packed weights directly.  The frozen scales are what
        every subsequent :meth:`forward` uses — recalibrating replaces
        them.  Returns ``self`` so assembly and calibration chain.
        """
        layer_inputs: dict[str, np.ndarray] = {}
        self.packed.compile_plan()._run(batch, "exact", None, False,
                                        _QuantizedTap(inputs=layer_inputs))
        calibrations: dict[str, LayerCalibration] = {}
        for spec in self.packed.specs:
            inputs = layer_inputs[spec.name]
            input_quantizer = LinearQuantizer.fit(
                inputs, bits=self.bits, calibration=self.calibration,
                percentile=self.percentile)
            weight_quantizer = LinearQuantizer.fit(spec.packed.weights,
                                                   bits=self.bits)
            calibrations[spec.name] = LayerCalibration(
                name=spec.name,
                input_quantizer=input_quantizer,
                weight_quantizer=weight_quantizer,
                weight_rmse=weight_quantizer.rmse(spec.packed.weights),
                weight_saturation=weight_quantizer.saturation_rate(
                    spec.packed.weights),
            )
        self._calibrations = calibrations
        return self

    def layer_calibrations(self) -> list[LayerCalibration]:
        """The frozen per-layer calibrations, in layer order."""
        self._require_calibrated()
        assert self._calibrations is not None
        return [self._calibrations[spec.name] for spec in self.packed.specs]

    def restore_calibrations(self, calibrations: Sequence[LayerCalibration]
                             ) -> "QuantizedPackedModel":
        """Install previously frozen calibrations without a calibration run.

        The artifact-loading path
        (:func:`repro.combining.serialization.load_packed`): a served model
        cold-starts from the scales frozen at save time instead of needing
        a calibration batch.  ``calibrations`` must cover exactly this
        model's packed layers (any order) at this model's bit width.
        Returns ``self``, mirroring :meth:`calibrate`.
        """
        by_name = {calibration.name: calibration for calibration in calibrations}
        expected = [spec.name for spec in self.packed.specs]
        if sorted(by_name) != sorted(expected):
            raise ValueError(
                f"calibrations cover layers {sorted(by_name)} but the packed "
                f"model has layers {sorted(expected)}")
        for calibration in calibrations:
            for role, quantizer in (("input", calibration.input_quantizer),
                                    ("weight", calibration.weight_quantizer)):
                if quantizer.bits != self.bits:
                    raise ValueError(
                        f"layer {calibration.name!r}: {role} quantizer is "
                        f"{quantizer.bits}-bit but this model runs at "
                        f"{self.bits} bits")
        self._calibrations = {name: by_name[name] for name in expected}
        return self

    # -- quantized batched forward ------------------------------------------
    def forward(self, activations: np.ndarray, batch_size: int | None = None,
                capture_layer_outputs: bool = False,
                track_errors: bool = True,
                batch_invariant: bool = False) -> np.ndarray:
        """Run a batched integer forward through every packed layer.

        Mirrors :meth:`PackedModel.forward`'s batching contract
        (``batch_size`` chunks the batch; every layer is per-sample in
        eval mode).  Each packed layer runs as one exact integer GEMM
        with the frozen calibration, bit-identical to
        :meth:`~repro.systolic.system.SystolicSystem.run_layer`; per-layer
        statistics for :meth:`layer_report` are (re)collected over the
        whole call, tiles and cycles from each layer's tile geometry.
        ``track_errors=False`` skips the exact shadow computation and the
        input-roundtrip pass behind the divergence / input-RMSE columns —
        on a 16-sample batch of the 12x12 resnet20 that perfbench serves
        (one BLAS thread, 2-core x86 host) that cut the whole forward from
        18.0 to 10.9 ms — when only the outputs matter (:meth:`predict`
        uses this), leaving those columns NaN while tiles / cycles /
        saturation are still collected.  With
        ``capture_layer_outputs`` the per-layer quantized outputs are kept
        for :meth:`layer_outputs` — the differential tests' hook.
        The quantized outputs themselves are bit-identical however the
        accounting knobs are set.  ``batch_invariant=True`` is the serving
        numerics (see :meth:`PackedModel.forward`): the packed integer
        execution is already batch-invariant by construction (its sums
        are exact integers), so the flag switches the surrounding
        float ops (classifier heads) to their batch-invariant twins (see
        :mod:`repro.combining.kernels`), making the whole chain
        bit-identical per sample under any request coalescing.
        """
        plan = self.compile_plan()
        names = self.packed.layer_names()
        self._stats = {name: _LayerStats() for name in names}
        self._last_layer_outputs = ({name: [] for name in names}
                                    if capture_layer_outputs else None)
        self.packed._observed_spatial = {}
        tap = _QuantizedTap(observed=self.packed._observed_spatial,
                            stats=self._stats, track_errors=track_errors,
                            outputs=self._last_layer_outputs,
                            config=plan.array_config)
        return plan._run(activations, "quantized", batch_size,
                         batch_invariant, tap)

    def predict(self, activations: np.ndarray, batch_size: int | None = None,
                batch_invariant: bool = False) -> np.ndarray:
        """Class predictions (argmax over the final logits).

        Mirrors :meth:`PackedModel.predict`: a single unbatched
        ``(C, H, W)`` sample — the natural unit of a serving request — is
        auto-expanded to a one-sample batch and the prediction squeezed
        back to a scalar.
        """
        batch, unbatched = ensure_sample_batch(activations)
        predictions = np.argmax(
            self.forward(batch, batch_size=batch_size, track_errors=False,
                         batch_invariant=batch_invariant),
            axis=1)
        return predictions[0] if unbatched else predictions

    def prediction_agreement(self, activations: np.ndarray,
                             batch_size: int | None = None) -> float:
        """Fraction of top-1 predictions matching the exact packed forward."""
        quantized = self.predict(activations, batch_size=batch_size)
        exact = self.packed.predict(activations, batch_size=batch_size)
        return float(np.mean(quantized == exact))

    def layer_outputs(self) -> dict[str, np.ndarray]:
        """Per-layer quantized outputs captured by the last :meth:`forward`.

        Requires ``forward(..., capture_layer_outputs=True)``; chunked
        forwards concatenate each layer's chunk outputs in batch order.
        """
        if self._last_layer_outputs is None:
            raise RuntimeError(
                "no layer outputs captured; run "
                "forward(..., capture_layer_outputs=True) first")
        return {name: (pieces[0] if len(pieces) == 1
                       else np.concatenate(pieces, axis=0))
                for name, pieces in self._last_layer_outputs.items()}

    def compile_plan(self) -> ExecutionPlan:
        """Compile an immutable quantized-capable execution plan.

        The returned :class:`~repro.combining.execplan.ExecutionPlan`
        carries the packed matrices **and** the frozen per-layer
        quantizer pairs; :meth:`forward` is ``plan.forward(x,
        mode="quantized")`` plus the per-layer accounting behind
        :meth:`layer_report`, and its exact / mx modes are
        :meth:`PackedModel.forward`'s.  The plan never touches this
        model, needs no locks, and pickles into worker processes.
        """
        self._require_calibrated()
        assert self._calibrations is not None
        quantizers = {
            spec.name: (self._calibrations[spec.name].input_quantizer,
                        self._calibrations[spec.name].weight_quantizer)
            for spec in self.packed.specs}
        return compile_plan(self.packed, quantizers=quantizers,
                            bits=self.bits, array_config=self.system.config)

    # -- error / accuracy accounting ----------------------------------------
    def layer_report(self) -> list[QuantizedLayerReport]:
        """Per-layer quantization accounting for the last :meth:`forward`."""
        self._require_calibrated()
        if self._stats is None:
            raise RuntimeError("no quantized forward has run yet; "
                               "call forward() before layer_report()")
        assert self._calibrations is not None
        reports: list[QuantizedLayerReport] = []
        for spec in self.packed.specs:
            calibration = self._calibrations[spec.name]
            stats = self._stats[spec.name]
            reports.append(QuantizedLayerReport(
                name=spec.name,
                bits=self.bits,
                weight_rmse=calibration.weight_rmse,
                weight_saturation=calibration.weight_saturation,
                input_rmse=stats.input_rmse(),
                input_saturation=stats.input_saturation(),
                divergence_rmse=stats.divergence_rmse(),
                divergence_max=stats.divergence_max(),
                num_tiles=stats.num_tiles,
                cycles=stats.cycles,
            ))
        return reports

    # -- cycle / tile accounting --------------------------------------------
    def plan(self, spatial_sizes: Sequence[int] | None = None,
             batch: int = 1,
             array_config: ArrayConfig | None = None) -> ModelExecutionPlan:
        """Plan the model on the quantized array's timing configuration.

        Defaults to this model's own :class:`~repro.systolic.array.ArrayConfig`,
        so the bit-serial cycle counts reflect ``bits`` (lower widths
        stream fewer cycles per word).  Spatial sizes fall back to the
        ones observed during the last forward (quantized or exact).
        """
        if array_config is None:
            array_config = self.system.config
        return self.packed.plan(spatial_sizes=spatial_sizes, batch=batch,
                                array_config=array_config)

    def summary(self, plan: ModelExecutionPlan | None = None) -> dict[str, Any]:
        """Aggregate accounting: the packed-model summary plus quantization."""
        result = self.packed.summary(plan)
        result.update({
            "bits": self.bits,
            "calibration": self.calibration,
            "calibrated": self.calibrated,
        })
        if self._stats is not None:
            stats = [self._stats[spec.name] for spec in self.packed.specs]
            elements = sum(s.elements for s in stats)
            squared = sum(s.squared_divergence for s in stats)
            if not any(s.tracked for s in stats):
                divergence = float("nan")  # last forward ran track_errors=False
            elif elements == 0:
                divergence = 0.0
            else:
                divergence = float(np.sqrt(squared / elements))
            result.update({
                "quantized_tiles": sum(s.num_tiles for s in stats),
                "quantized_cycles": sum(s.cycles for s in stats),
                "divergence_rmse": divergence,
            })
        return result

    # -- plumbing ------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return self.packed.num_layers

    def layer_names(self) -> list[str]:
        return self.packed.layer_names()

    def _require_calibrated(self) -> None:
        if not self.calibrated:
            raise RuntimeError(
                "QuantizedPackedModel is not calibrated; run "
                "calibrate(batch) once before quantized inference")
