"""End-to-end execution planning and quantized inference on systolic arrays.

Two levels of fidelity are provided:

* :meth:`SystolicSystem.plan_model` — given the packed filter matrices of a
  trained CNN and the spatial size of each layer's activation map, produce
  a per-layer :class:`LayerExecution` (tiles, cycles, useful and occupied
  MACs).  This is what the ASIC / FPGA evaluation (Section 7) consumes.
* :meth:`SystolicSystem.run_layer` — run a single layer's quantized
  computation exactly as the hardware would: shift block, 8-bit quantized
  inputs and weights, integer matrix multiplication through the (tiled,
  packed) array, 32-bit accumulation, ReLU, and 8-bit re-quantization.
  It is the paper's datapath model and the independent oracle for
  quantized inference, not the serving path: quantized execution plans
  (:class:`~repro.combining.execplan.ExecutionPlan`) run each packed
  layer as one exact integer GEMM over weights quantized once per plan,
  and the tests pin those plans to this method bit for bit.  Tests also
  use it to show that packed integer execution matches the pruned
  floating-point layer up to quantization error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.combining.packing import PackedFilterMatrix
from repro.quant.linear import LinearQuantizer
from repro.systolic.array import ArrayConfig
from repro.systolic.blocks import ReluQuantBlock, ShiftBlock
from repro.systolic.tiles import TiledMatmul, TileGeometry, tile_geometry
from repro.systolic.timing import CellTiming, words_per_sample


@dataclass
class LayerExecution:
    """Planned execution of one packed layer on the systolic array."""

    name: str
    rows: int
    packed_columns: int
    original_columns: int
    spatial_size: int
    num_tiles: int
    cycles: int
    useful_macs: int
    occupied_macs: int

    @property
    def utilization(self) -> float:
        if self.occupied_macs == 0:
            return 0.0
        return self.useful_macs / self.occupied_macs


@dataclass
class ModelExecutionPlan:
    """Totals across all layers of a planned model execution."""

    layers: list[LayerExecution] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_tiles(self) -> int:
        return sum(layer.num_tiles for layer in self.layers)

    @property
    def total_useful_macs(self) -> int:
        return sum(layer.useful_macs for layer in self.layers)

    @property
    def total_occupied_macs(self) -> int:
        return sum(layer.occupied_macs for layer in self.layers)

    @property
    def utilization(self) -> float:
        occupied = self.total_occupied_macs
        if occupied == 0:
            return 0.0
        return self.total_useful_macs / occupied


def layer_execution(name: str, packed: PackedFilterMatrix,
                    tiles: Sequence[TileGeometry], spatial_size: int,
                    words: int, timing: CellTiming) -> LayerExecution:
    """One packed layer's planned execution, from its tile geometry.

    Each tile streams ``words`` data words (``batch * H * W``), back to
    back with overlapped weight loads: the arithmetic of
    :meth:`~repro.systolic.tiles.TileGeometry.execution` and
    :func:`~repro.systolic.tiles.pipelined_cycles`, in integers only, as
    serving costs every batch with it.  ``spatial_size`` is only recorded.
    """
    stream_and_drain = (words * timing.effective_cycles_per_word
                        + timing.accumulation_bits)
    cycles = nonzeros = cells = 0
    for index, tile in enumerate(tiles):
        rows = tile.row_end - tile.row_start
        cols = tile.col_end - tile.col_start
        matmul = ((rows + cols - 2) * timing.skew_clocks + stream_and_drain
                  if words else 0)
        weight_load = rows * timing.input_bits
        cycles += (weight_load + matmul if index == 0
                   else max(matmul, weight_load))
        nonzeros += tile.nonzeros
        cells += rows * cols
    return LayerExecution(
        name=name,
        rows=packed.num_rows,
        packed_columns=packed.num_groups,
        original_columns=packed.original_shape[1],
        spatial_size=spatial_size,
        num_tiles=len(tiles),
        cycles=cycles,
        useful_macs=nonzeros * words,
        occupied_macs=cells * words,
    )


class SystolicSystem:
    """The full systolic array system of Figure 6 (array + shift + ReLU blocks)."""

    def __init__(self, config: ArrayConfig | None = None):
        self.config = config if config is not None else ArrayConfig()
        self.tiled = TiledMatmul(self.config)
        self.relu_quant = ReluQuantBlock(output_bits=self.config.input_bits)

    # -- planning ---------------------------------------------------------------
    def plan_layer(self, name: str, packed: PackedFilterMatrix, spatial_size: int,
                   batch: int = 1) -> LayerExecution:
        """Tile counts, cycles, and MAC counts for one packed layer."""
        if packed.multiplexing_degree() > self.config.alpha:
            raise ValueError("packing exceeds the array's MX multiplexing degree")
        return layer_execution(name, packed,
                               tile_geometry(packed.weights, self.config),
                               spatial_size, words_per_sample(spatial_size, batch),
                               self.config.timing)

    def plan_model(self, packed_layers: list[tuple[str, PackedFilterMatrix]],
                   spatial_sizes: list[int], batch: int = 1) -> ModelExecutionPlan:
        """Plan every layer of a model; ``spatial_sizes[i]`` is layer i's map size."""
        if len(packed_layers) != len(spatial_sizes):
            raise ValueError("need one spatial size per packed layer")
        plan = ModelExecutionPlan()
        for (name, packed), spatial in zip(packed_layers, spatial_sizes):
            plan.layers.append(self.plan_layer(name, packed, spatial, batch=batch))
        return plan

    # -- quantized execution -------------------------------------------------------
    def run_layer(self, packed: PackedFilterMatrix, activations: np.ndarray,
                  apply_shift: bool = True, apply_relu: bool = True,
                  input_quantizer: LinearQuantizer | None = None,
                  weight_quantizer: LinearQuantizer | None = None
                  ) -> tuple[np.ndarray, dict]:
        """Run one layer with 8-bit inputs / weights and integer accumulation.

        Parameters
        ----------
        packed:
            The layer's packed filter matrix (float weights; quantized here).
        activations:
            Input activations, shape (batch, in_channels, H, W), floats.
        apply_shift:
            Whether to run the shift block first (pointwise-only layers such
            as residual shortcuts skip it).
        apply_relu:
            Whether to apply ReLU before re-quantization.
        input_quantizer / weight_quantizer:
            Pre-fit :class:`~repro.quant.linear.LinearQuantizer` to use
            instead of refitting on this call's data.  A deployed array
            runs with calibrated, frozen scales
            (:meth:`repro.combining.quantized.QuantizedPackedModel.calibrate`);
            per-call refitting remains the default for single-layer use.
            The quantizer's bit width must match the array's
            ``config.input_bits`` — the MX cells are built for one width.

        Returns
        -------
        ``(output_activations, info)`` where ``output_activations`` is the
        dequantized float result with shape (batch, out_channels, H, W) and
        ``info`` carries the tiled-execution statistics, the quantizers,
        and their saturation rates on this call's data.
        """
        activations = np.asarray(activations, dtype=np.float64)
        if activations.ndim != 4:
            raise ValueError("activations must be (batch, channels, H, W)")
        batch, channels, height, width = activations.shape
        if channels != packed.original_shape[1]:
            raise ValueError("activation channels do not match the packed matrix")

        if apply_shift:
            shift = ShiftBlock(channels)
            data_matrix = shift.to_data_matrix(activations)
        else:
            data_matrix = activations.transpose(1, 0, 2, 3).reshape(channels, -1)

        if input_quantizer is None:
            input_quantizer = LinearQuantizer.fit(data_matrix,
                                                  bits=self.config.input_bits)
        if weight_quantizer is None:
            weight_quantizer = LinearQuantizer.fit(packed.weights,
                                                   bits=self.config.input_bits)
        for role, quantizer in (("input", input_quantizer),
                                ("weight", weight_quantizer)):
            if quantizer.bits != self.config.input_bits:
                raise ValueError(
                    f"{role} quantizer is {quantizer.bits}-bit but the array's "
                    f"cells are {self.config.input_bits}-bit")
        data_int, input_saturation = \
            input_quantizer.quantize_with_saturation(data_matrix)
        weights_int, weight_saturation = \
            weight_quantizer.quantize_with_saturation(packed.weights)
        packed_int = PackedFilterMatrix(
            weights=weights_int.astype(np.float64),
            channel_index=packed.channel_index.copy(),
            grouping=packed.grouping,
            original_shape=packed.original_shape,
        )

        result = self.tiled.multiply_packed(packed_int, data_int.astype(np.float64))
        accumulations = result.output * (input_quantizer.scale * weight_quantizer.scale)
        if apply_relu:
            accumulations = np.maximum(accumulations, 0.0)
        output = accumulations.reshape(packed.num_rows, batch, height, width)
        output = output.transpose(1, 0, 2, 3)
        info = {
            "num_tiles": result.num_tiles,
            "cycles": result.total_cycles,
            "useful_macs": result.useful_macs,
            "occupied_macs": result.occupied_macs,
            "utilization": result.utilization,
            "input_quantizer": input_quantizer,
            "weight_quantizer": weight_quantizer,
            "input_saturation": input_saturation,
            "weight_saturation": weight_saturation,
        }
        return output, info

    def requantize(self, accumulations: np.ndarray, scale: float | None = None
                   ) -> tuple[np.ndarray, LinearQuantizer]:
        """The ReLU / re-quantization hook between chained layers (Fig. 12).

        Rectifies the 32-bit accumulations and re-quantizes them to the
        array's input width so they can feed the next layer's input buffer.
        Pass a calibrated ``scale`` to reuse a frozen output quantizer;
        otherwise one is fit on the rectified values.  Returns
        ``(int outputs, quantizer)``.
        """
        return self.relu_quant.apply(accumulations, scale=scale)
