"""Packed filter matrices: the data structure loaded into MX-cell arrays.

After column-combine pruning, every group of columns has at most one
nonzero per row, so the group collapses into a single *combined column*.
A packed filter matrix therefore has shape ``(N, num_groups)``; alongside
the weights, each cell records *which* original column (input channel) its
weight came from — exactly the per-cell channel-select information an MX
cell needs to pick the right multiplexed input stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.combining.grouping import ColumnGrouping
from repro.combining.pruning import column_combine_prune
from repro.combining.metrics import packing_efficiency


@dataclass
class PackedFilterMatrix:
    """A column-combined filter matrix plus its channel-routing metadata.

    Attributes
    ----------
    weights:
        ``(N, G)`` array of packed weights (``G`` = number of groups).
    channel_index:
        ``(N, G)`` integer array; ``channel_index[n, g]`` is the original
        column whose weight sits in cell ``(n, g)``, or ``-1`` if the cell
        is empty (stores a zero weight).
    grouping:
        The :class:`ColumnGrouping` the packing was built from.
    original_shape:
        Shape ``(N, M)`` of the unpacked filter matrix.
    """

    weights: np.ndarray
    channel_index: np.ndarray
    grouping: ColumnGrouping
    original_shape: tuple[int, int]

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.channel_index = np.asarray(self.channel_index, dtype=np.int64)
        self.original_shape = tuple(int(side) for side in self.original_shape)
        if self.weights.shape != self.channel_index.shape:
            raise ValueError("weights and channel_index must have the same shape")
        if self.weights.shape[1] != self.grouping.num_groups:
            raise ValueError("packed width does not match the number of groups")
        if len(self.original_shape) != 2:
            raise ValueError("original_shape must be (rows, columns)")
        if self.weights.shape[0] != self.original_shape[0]:
            raise ValueError("packed height does not match original_shape")
        if self.grouping.num_columns != self.original_shape[1]:
            raise ValueError("grouping does not cover original_shape's columns")
        self._validate_channel_index()

    def _validate_channel_index(self) -> None:
        """Reject routing metadata that would silently corrupt the packing.

        Every non-empty cell must name an original column that exists
        (``0 <= channel < M``) and that belongs to the cell's own group —
        otherwise :meth:`to_sparse` scatters weights into the wrong columns
        and :meth:`multiply` routes the wrong input channels.
        """
        num_columns = self.original_shape[1]
        if np.any(self.channel_index < -1) or np.any(self.channel_index >= num_columns):
            bad = self.channel_index[(self.channel_index < -1)
                                     | (self.channel_index >= num_columns)]
            raise ValueError(
                f"channel_index contains out-of-range channels (e.g. {int(bad[0])}); "
                f"expected -1 or 0..{num_columns - 1}")
        rows, groups = np.nonzero(self.channel_index >= 0)
        if rows.size == 0:
            return
        assignment = self.grouping.as_assignment()
        channels = self.channel_index[rows, groups]
        misrouted = assignment[channels] != groups
        if np.any(misrouted):
            where = int(np.argmax(misrouted))
            raise ValueError(
                f"channel_index[{int(rows[where])}, {int(groups[where])}] routes "
                f"channel {int(channels[where])}, which belongs to group "
                f"{int(assignment[channels[where]])}, not group {int(groups[where])}")

    # -- shape / metric helpers ---------------------------------------------
    @property
    def num_rows(self) -> int:
        return self.weights.shape[0]

    @property
    def num_groups(self) -> int:
        return self.weights.shape[1]

    def packing_efficiency(self) -> float:
        """Fraction of packed cells that hold a nonzero weight."""
        return packing_efficiency(self.weights)

    def multiplexing_degree(self) -> int:
        """Largest group size (the MX fan-in the hardware must support)."""
        sizes = self.grouping.group_sizes()
        return max(sizes) if sizes else 0

    # -- functional semantics -------------------------------------------------
    def to_sparse(self) -> np.ndarray:
        """Reconstruct the (N, M) sparse filter matrix the packing represents."""
        sparse = np.zeros(self.original_shape, dtype=np.float64)
        rows, groups = np.nonzero(self.channel_index >= 0)
        columns = self.channel_index[rows, groups]
        sparse[rows, columns] = self.weights[rows, groups]
        return sparse

    def multiply(self, data: np.ndarray) -> np.ndarray:
        """Multiply the packed matrix by a data matrix of shape (M, L).

        Each packed cell multiplies its stored weight by the input channel
        it routes (the MX-cell behaviour); cells with no weight contribute
        zero.  The result equals ``pruned_filter_matrix @ data``.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] != self.original_shape[1]:
            raise ValueError(
                f"data must have shape ({self.original_shape[1]}, L), got {data.shape}"
            )
        safe_index = np.where(self.channel_index >= 0, self.channel_index, 0)
        gathered = data[safe_index]            # (N, G, L)
        contributions = self.weights[..., None] * gathered
        return contributions.sum(axis=1)

    def multiply_activations(self, activations: np.ndarray) -> np.ndarray:
        """MX-cell :meth:`multiply` over NCHW activations.

        ``activations`` has shape (batch, in_channels, H, W); the result has
        shape (batch, num_rows, H, W) — the layout a pointwise convolution
        produces, so packed layers drop into an nn forward pass unchanged.
        The sum runs over the packed groups (one product per occupied MX
        cell), so it equals the pruned dense convolution up to float
        summation order; see
        :meth:`repro.combining.inference.PackedModel.forward` for the
        bit-exact dense-realized path.
        """
        activations = np.asarray(activations, dtype=np.float64)
        if activations.ndim != 4 or activations.shape[1] != self.original_shape[1]:
            raise ValueError(
                f"activations must have shape (batch, {self.original_shape[1]}, H, W), "
                f"got {activations.shape}")
        batch, channels, height, width = activations.shape
        data = activations.transpose(1, 0, 2, 3).reshape(channels, -1)
        out = self.multiply(data)
        return out.reshape(self.num_rows, batch, height, width).transpose(1, 0, 2, 3)


def pack_filter_matrix(matrix: np.ndarray, grouping: ColumnGrouping,
                       prune_conflicts: bool = True) -> PackedFilterMatrix:
    """Build a :class:`PackedFilterMatrix` from a filter matrix and grouping.

    If ``prune_conflicts`` is true (the normal case), Algorithm 3 is applied
    first so that each row of each group has at most one nonzero.  With
    ``prune_conflicts=False`` the matrix must already satisfy that property
    (e.g. the γ=0 "column-combine without pruning" baseline); a conflict in
    that case raises ``ValueError`` because the packing would silently drop
    weights.

    After conflict pruning every (row, group) cell holds at most one
    nonzero, so the packing itself is one scatter over the nonzero entries
    of the pruned matrix — no per-group dense slicing.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if grouping.num_rows != matrix.shape[0] or grouping.num_columns != matrix.shape[1]:
        raise ValueError("grouping does not match matrix shape")

    if prune_conflicts:
        pruned, _ = column_combine_prune(matrix, grouping)
    else:
        pruned = matrix

    num_rows = matrix.shape[0]
    num_groups = grouping.num_groups
    weights = np.zeros((num_rows, num_groups), dtype=np.float64)
    channel_index = np.full((num_rows, num_groups), -1, dtype=np.int64)
    if num_groups == 0 or num_rows == 0:
        return PackedFilterMatrix(weights, channel_index, grouping, matrix.shape)

    assignment = grouping.as_assignment()
    rows, columns = np.nonzero(pruned)
    groups_of_entries = assignment[columns]
    if not prune_conflicts:
        cells = rows * num_groups + groups_of_entries
        per_cell = np.bincount(cells, minlength=num_rows * num_groups)
        if np.any(per_cell > 1):
            # Report the first conflicting group (and its first bad row),
            # in the group-major order the per-group loop would have used.
            grid = per_cell.reshape(num_rows, num_groups)
            bad_group = int(np.argmax((grid > 1).any(axis=0)))
            bad_row = int(np.argmax(grid[:, bad_group] > 1))
            raise ValueError(
                f"group {bad_group} has {int(grid[:, bad_group].max())} nonzeros "
                f"in row {bad_row}; apply column-combine pruning first or pass "
                "prune_conflicts=True"
            )
    weights[rows, groups_of_entries] = pruned[rows, columns]
    channel_index[rows, groups_of_entries] = columns

    return PackedFilterMatrix(weights, channel_index, grouping, matrix.shape)
