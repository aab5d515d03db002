"""Tile counting for partitioned matrix multiplication (Section 5.4).

When a layer's filter matrix is larger than the systolic array, the
multiplication runs in multiple passes, one per (array_rows x array_cols)
tile of the filter matrix.  Column combining shrinks the number of columns
from M to the number of groups, reducing the tile count — the effect shown
in Figures 14b and 15a.
"""

from __future__ import annotations

import math

import numpy as np

from repro.combining.grouping import ColumnGrouping, group_columns


def tile_count(num_rows: int, num_columns: int, array_rows: int, array_columns: int) -> int:
    """Number of tiles needed to cover an (num_rows x num_columns) matrix."""
    if num_rows < 0 or num_columns < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if array_rows < 1 or array_columns < 1:
        raise ValueError("array dimensions must be >= 1")
    if num_rows == 0 or num_columns == 0:
        return 0
    return math.ceil(num_rows / array_rows) * math.ceil(num_columns / array_columns)


def tiles_for_layer(matrix: np.ndarray, array_rows: int, array_columns: int,
                    grouping: ColumnGrouping | None = None) -> int:
    """Tile count for one layer, optionally after column combining.

    Without a grouping, the layer occupies all of its original columns
    (zero weights still occupy systolic cells).  With a grouping, the
    packed matrix has one column per group.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    columns = grouping.num_groups if grouping is not None else matrix.shape[1]
    return tile_count(matrix.shape[0], columns, array_rows, array_columns)


def tiles_for_model(matrices: list[np.ndarray], array_rows: int, array_columns: int,
                    alpha: int = 1, gamma: float = 0.0) -> list[int]:
    """Per-layer tile counts for a list of filter matrices.

    ``alpha = 1`` reproduces the baseline (no combining); larger ``alpha``
    groups columns with the given conflict budget before counting tiles.
    """
    counts: list[int] = []
    for matrix in matrices:
        if alpha <= 1:
            counts.append(tiles_for_layer(matrix, array_rows, array_columns))
        else:
            grouping = group_columns(matrix, alpha=alpha, gamma=gamma)
            counts.append(tiles_for_layer(matrix, array_rows, array_columns, grouping))
    return counts
