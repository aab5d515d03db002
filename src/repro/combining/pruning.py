"""Column-combine pruning — Algorithm 3 of the paper.

Within each group of columns, every row may keep at most one nonzero
weight: the one with the largest magnitude.  All other (conflicting)
weights in that row are pruned.  Retraining afterwards (Algorithm 1)
recovers the lost accuracy.

Two interchangeable engines implement the row-winner selection:

* ``engine="fast"`` (the default) lays the groups out in the packed flat
  format of :func:`~repro.combining.grouping.group_layout` (shared with
  the bitset substrate's
  :func:`~repro.combining.bitset.group_occupancy`) and selects every
  group's row winners in one ``ufunc.at`` scatter pass over the nonzero
  entries — no per-group dense slicing, so the cost scales with the
  number of weights rather than with ``num_groups`` Python iterations.
* ``engine="reference"`` is the straightforward per-group Python loop,
  kept as the executable specification for differential testing.

Both engines produce bit-identical keep masks — same winners, same
tie-breaks (toward the earliest column in each group's order), same
handling of all-zero rows — for every matrix and grouping.
"""

from __future__ import annotations

import numpy as np

from repro.combining.grouping import ColumnGrouping, group_layout

#: Engines accepted by :func:`conflict_mask` / :func:`column_combine_prune`.
PRUNE_ENGINES = ("fast", "reference")


def _conflict_mask_reference(matrix: np.ndarray, grouping: ColumnGrouping
                             ) -> np.ndarray:
    """Per-group Python loop: the executable specification of Algorithm 3."""
    keep = np.zeros(matrix.shape, dtype=bool)
    for group in grouping.groups:
        columns = np.asarray(group, dtype=int)
        submatrix = np.abs(matrix[:, columns])
        # Rows with no nonzero keep nothing from this group.
        row_has_weight = submatrix.max(axis=1) > 0
        winners = submatrix.argmax(axis=1)  # first maximal column wins ties
        rows = np.flatnonzero(row_has_weight)
        keep[rows, columns[winners[rows]]] = True
    return keep


def _conflict_mask_fast(matrix: np.ndarray, grouping: ColumnGrouping
                        ) -> np.ndarray:
    """Scatter engine: every group's row winners selected in one pass.

    Instead of slicing a dense ``(N, len(group))`` submatrix per group, the
    engine extracts the nonzero entries once and scatters them into the
    ``N x G`` grid of (row, group) cells with ``ufunc.at``:

    1. ``maximum.at`` accumulates each cell's largest magnitude;
    2. ``minimum.at`` over the maximal entries finds each cell's earliest
       within-group position — exactly the reference loop's
       first-found-wins ``argmax`` tie-break;
    3. the entry matching that (magnitude, position) pair *is* the cell's
       surviving weight, so the keep mask is one boolean scatter away.

    Cost scales with the number of nonzero entries plus the cell grid, not
    with ``num_groups`` Python iterations over dense slices.
    """
    num_rows, num_columns = matrix.shape
    keep = np.zeros(matrix.shape, dtype=bool)
    if not grouping.groups or num_rows == 0 or num_columns == 0:
        return keep
    num_groups = grouping.num_groups
    _, assignment, position = group_layout(grouping)

    flat = np.flatnonzero(matrix != 0)          # row-major entry list
    if flat.size == 0:
        return keep
    rows = flat // num_columns
    columns = flat - rows * num_columns
    if matrix.flags.c_contiguous:
        values = np.abs(matrix.reshape(-1)[flat])
    else:
        values = np.abs(matrix[rows, columns])
    cells = rows * num_groups + assignment[columns]

    cell_max = np.zeros(num_rows * num_groups, dtype=values.dtype)
    np.maximum.at(cell_max, cells, values)
    is_max = values == cell_max[cells]
    # A NaN magnitude poisons its cell's max (NaN compares unequal to
    # everything, so the cell has no maximal entry); the reference loop
    # keeps nothing from such a cell, and the shortcut's tie count would
    # miscount it, so NaNs always take the explicit tie-break path.
    no_nan = not np.isnan(values.max()) if values.dtype.kind == "f" else True
    if no_nan and np.count_nonzero(is_max) == np.count_nonzero(cell_max):
        # No magnitude ties anywhere: every occupied cell has exactly one
        # maximal entry, which therefore is its winner.
        keep.reshape(-1)[flat] = is_max
        return keep
    # Tie-break toward the earliest within-group position among each
    # cell's maximal entries (the reference argmax's first-found-wins).
    entry_position = np.where(is_max, position[columns], num_columns)
    cell_first = np.full(num_rows * num_groups, num_columns, dtype=np.intp)
    np.minimum.at(cell_first, cells, entry_position)
    keep.reshape(-1)[flat] = is_max & (entry_position == cell_first[cells])
    return keep


_ENGINES = {
    "fast": _conflict_mask_fast,
    "reference": _conflict_mask_reference,
}


def conflict_mask(matrix: np.ndarray, grouping: ColumnGrouping,
                  engine: str = "fast") -> np.ndarray:
    """Binary mask of the weights that survive column-combine pruning.

    For each group and each row, the largest-magnitude nonzero among the
    group's columns is kept (ties are broken toward the earliest column in
    the group, matching Algorithm 3's first-found-wins loop); every other
    nonzero in that row/group is marked for pruning.  Weights outside any
    conflict are kept unchanged.

    ``engine`` selects between the vectorized bitset implementation
    (``"fast"``, the default) and the per-group Python loop
    (``"reference"``); the two produce bit-identical masks.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if grouping.num_columns != matrix.shape[1] or grouping.num_rows != matrix.shape[0]:
        raise ValueError("grouping does not match matrix shape")
    if engine not in _ENGINES:
        raise ValueError(
            f"unknown prune engine {engine!r}; expected one of {PRUNE_ENGINES}")
    return _ENGINES[engine](matrix, grouping).astype(np.float64)


def column_combine_prune(matrix: np.ndarray, grouping: ColumnGrouping,
                         engine: str = "fast"
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Apply Algorithm 3 and return ``(pruned_matrix, keep_mask)``.

    ``pruned_matrix`` is a copy of ``matrix`` with conflicting weights set
    to zero; ``keep_mask`` is the binary mask of surviving weights (which
    the trainer installs on the layer's parameter so retraining cannot
    resurrect pruned weights).  ``engine`` selects the
    :func:`conflict_mask` implementation.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    keep = conflict_mask(matrix, grouping, engine=engine)
    return matrix * keep, keep


def pruned_weight_count(matrix: np.ndarray, grouping: ColumnGrouping) -> int:
    """Number of weights Algorithm 3 would remove for this grouping."""
    matrix = np.asarray(matrix)
    keep = conflict_mask(matrix, grouping)
    return int(np.count_nonzero(matrix) - np.count_nonzero(matrix * keep))
