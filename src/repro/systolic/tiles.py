"""Partitioned (tiled) matrix multiplication on a fixed-size array (Fig. 14a).

When a layer's filter matrix is larger than the systolic array, it is split
into tiles of at most (array_rows x array_cols).  The array alternates
between loading the weights of the next tile and multiplying the current
tile by the corresponding slice of the data matrix; as in the paper, weight
loading overlaps with matrix multiplication so every cell is busy either
computing or loading, and only the very first weight load is exposed.
Partial results of tiles that share output rows are accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.combining.packing import PackedFilterMatrix
from repro.systolic.array import ArrayConfig, SystolicArray
from repro.systolic.timing import CellTiming, cycles_for_tile


@dataclass
class TileExecution:
    """Record of one tile's execution."""

    row_start: int
    row_end: int
    col_start: int
    col_end: int
    matmul_cycles: int
    weight_load_cycles: int
    useful_macs: int
    occupied_macs: int


@dataclass(frozen=True)
class TileGeometry:
    """Where one tile sits in a filter matrix and how many weights it holds.

    The data-independent half of a :class:`TileExecution`: a tile's
    cycles and MACs follow from its shape, its nonzero count and the
    number of data words streamed through it (:meth:`execution`).
    """

    row_start: int
    row_end: int
    col_start: int
    col_end: int
    nonzeros: int

    def execution(self, words: int, timing: CellTiming) -> TileExecution:
        """This tile's record when it streams ``words`` data words."""
        rows = self.row_end - self.row_start
        cols = self.col_end - self.col_start
        tile_timing = cycles_for_tile(rows, cols, words, timing)
        return TileExecution(
            row_start=self.row_start, row_end=self.row_end,
            col_start=self.col_start, col_end=self.col_end,
            matmul_cycles=tile_timing.matmul_cycles,
            weight_load_cycles=tile_timing.weight_load_cycles,
            useful_macs=self.nonzeros * words,
            occupied_macs=rows * cols * words,
        )


def tile_geometry(weights: np.ndarray, config: ArrayConfig
                  ) -> tuple[TileGeometry, ...]:
    """Partition a (dense or packed) weight matrix into array-sized tiles.

    Tiles come in :class:`TiledMatmul`'s execution order (row slices
    outer, column slices inner), so accounting built on them matches a
    tiled multiplication without running one.
    """
    num_rows, num_cols = weights.shape
    return tuple(
        TileGeometry(row_start, min(row_start + config.rows, num_rows),
                     col_start, min(col_start + config.cols, num_cols),
                     int(np.count_nonzero(
                         weights[row_start:row_start + config.rows,
                                 col_start:col_start + config.cols])))
        for row_start in range(0, num_rows, config.rows)
        for col_start in range(0, num_cols, config.cols))


def pipelined_cycles(executions: Sequence[TileExecution]) -> int:
    """Total cycles of tiles run back to back with overlapped weight loads.

    The first tile's weight load is exposed; afterwards loading the next
    tile overlaps with the current tile's multiplication (Figure 14a), so
    each subsequent tile costs ``max(matmul, weight_load)`` cycles.
    """
    if not executions:
        return 0
    total = executions[0].weight_load_cycles + executions[0].matmul_cycles
    for execution in executions[1:]:
        total += max(execution.matmul_cycles, execution.weight_load_cycles)
    return total


@dataclass
class TiledMatmulResult:
    """Aggregate result of a partitioned matrix multiplication."""

    output: np.ndarray
    num_tiles: int
    total_cycles: int
    useful_macs: int
    occupied_macs: int
    tiles: list[TileExecution] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        if self.occupied_macs == 0:
            return 0.0
        return self.useful_macs / self.occupied_macs


class TiledMatmul:
    """Execute dense or packed filter matrices of arbitrary size."""

    def __init__(self, config: ArrayConfig | None = None):
        self.config = config if config is not None else ArrayConfig()
        self.array = SystolicArray(self.config)

    # -- dense ---------------------------------------------------------------
    def multiply_dense(self, filter_matrix: np.ndarray, data: np.ndarray) -> TiledMatmulResult:
        """Tiled multiplication of an (N x M) filter matrix by (M x L) data."""
        filter_matrix = np.asarray(filter_matrix)
        data = np.asarray(data)
        if data.ndim != 2 or data.shape[0] != filter_matrix.shape[1]:
            raise ValueError("data shape incompatible with filter matrix")
        num_rows, num_cols = filter_matrix.shape
        words = data.shape[1]
        output = np.zeros((num_rows, words))
        executions: list[TileExecution] = []
        for row_start in range(0, num_rows, self.config.rows):
            row_end = min(row_start + self.config.rows, num_rows)
            for col_start in range(0, num_cols, self.config.cols):
                col_end = min(col_start + self.config.cols, num_cols)
                tile = filter_matrix[row_start:row_end, col_start:col_end]
                tile_data = data[col_start:col_end]
                output[row_start:row_end] += tile @ tile_data
                executions.append(self._tile_record(tile, words, row_start, row_end,
                                                    col_start, col_end))
        return self._aggregate(output, executions)

    # -- packed ----------------------------------------------------------------
    def multiply_packed(self, packed: PackedFilterMatrix, data: np.ndarray) -> TiledMatmulResult:
        """Tiled multiplication of a packed filter matrix by (M x L) data.

        Tiles slice the packed matrix along rows and combined columns; the
        MX cells of each tile route the original input channels recorded in
        ``packed.channel_index``.
        """
        data = np.asarray(data)
        if data.ndim != 2 or data.shape[0] != packed.original_shape[1]:
            raise ValueError("data shape incompatible with the packed matrix")
        if packed.multiplexing_degree() > self.config.alpha:
            raise ValueError("packing exceeds the array's MX multiplexing degree")
        num_rows, num_groups = packed.weights.shape
        words = data.shape[1]
        output = np.zeros((num_rows, words))
        executions: list[TileExecution] = []
        safe_index = np.where(packed.channel_index >= 0, packed.channel_index, 0)
        for row_start in range(0, num_rows, self.config.rows):
            row_end = min(row_start + self.config.rows, num_rows)
            for col_start in range(0, num_groups, self.config.cols):
                col_end = min(col_start + self.config.cols, num_groups)
                weights = packed.weights[row_start:row_end, col_start:col_end]
                index = safe_index[row_start:row_end, col_start:col_end]
                gathered = data[index]                      # (rows, groups, words)
                output[row_start:row_end] += (weights[..., None] * gathered).sum(axis=1)
                executions.append(self._tile_record(weights, words, row_start, row_end,
                                                    col_start, col_end))
        return self._aggregate(output, executions)

    # -- shared bookkeeping --------------------------------------------------------
    def _tile_record(self, tile_weights: np.ndarray, words: int, row_start: int,
                     row_end: int, col_start: int, col_end: int) -> TileExecution:
        geometry = TileGeometry(row_start, row_end, col_start, col_end,
                                int(np.count_nonzero(tile_weights)))
        return geometry.execution(words, self.config.timing)

    def _aggregate(self, output: np.ndarray, executions: list[TileExecution]
                   ) -> TiledMatmulResult:
        return TiledMatmulResult(
            output=output,
            num_tiles=len(executions),
            total_cycles=pipelined_cycles(executions),
            useful_macs=sum(e.useful_macs for e in executions),
            occupied_macs=sum(e.occupied_macs for e in executions),
            tiles=executions,
        )
