"""Differential tests: the fast conflict-pruning engine against the reference loop.

The fast scatter engine promises *bit-identical* keep masks — same row
winners, same tie-breaks (toward the earliest column in each group's
order), same handling of all-zero rows — for every matrix and grouping.
These tests sweep seeded random matrices across the parameter grid,
deliberately include magnitude ties (integer-valued matrices) so the
tie-break path is exercised, and assert exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.combining import (
    PRUNE_ENGINES,
    ColumnGrouping,
    column_combine_prune,
    conflict_mask,
    group_columns,
    group_layout,
)
from repro.combining.bitset import group_occupancy, pack_columns, unpack_rows

ALPHAS = (1, 2, 8, 16)
GAMMAS = (0.0, 0.5, 2.0)


def seeded_matrix(seed: int, rows: int = 28, cols: int = 36,
                  density: float = 0.2, ties: bool = False) -> np.ndarray:
    """Sparse test matrix; ``ties=True`` quantizes magnitudes to force ties."""
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, cols)) < density
    if ties:
        values = rng.integers(-3, 4, size=(rows, cols)).astype(np.float64)
    else:
        values = rng.normal(size=(rows, cols))
    return values * mask


def assert_prune_engines_identical(matrix: np.ndarray,
                                   grouping: ColumnGrouping) -> None:
    fast = conflict_mask(matrix, grouping, engine="fast")
    reference = conflict_mask(matrix, grouping, engine="reference")
    np.testing.assert_array_equal(fast, reference)


# -- bitset substrate ---------------------------------------------------------------------

def test_unpack_rows_inverts_pack_columns(rng):
    mask = rng.random((70, 9)) < 0.3
    bits = pack_columns(mask)
    np.testing.assert_array_equal(unpack_rows(bits, 70), mask.T)


def test_unpack_rows_validates_arguments():
    bits = pack_columns(np.ones((4, 2), dtype=bool))
    with pytest.raises(ValueError):
        unpack_rows(bits, -1)
    with pytest.raises(ValueError):
        unpack_rows(bits, 65)  # one word holds at most 64 rows


def test_group_occupancy_ors_member_columns(rng):
    mask = rng.random((130, 12)) < 0.25
    bits = pack_columns(mask)
    groups = [[3, 0, 7], [1, 2], [11, 5, 4, 10], [6], [8, 9]]
    member_columns = np.concatenate([np.asarray(g) for g in groups])
    starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
    occupancy = group_occupancy(bits, member_columns, starts)
    assert occupancy.shape == (len(groups), bits.shape[1])
    for index, group in enumerate(groups):
        expected = mask[:, group].any(axis=1)
        np.testing.assert_array_equal(unpack_rows(occupancy[index], 130), expected)


def test_group_occupancy_empty_grouping():
    bits = pack_columns(np.ones((4, 2), dtype=bool))
    occupancy = group_occupancy(bits, np.array([], dtype=int),
                                np.array([], dtype=int))
    assert occupancy.shape == (0, bits.shape[1])


def test_keep_mask_occupancy_matches_bitset_occupancy():
    """Cross-check: a (row, group) cell keeps a weight iff the group's
    occupancy bitset has that row's bit set, for both engines."""
    matrix = seeded_matrix(8, rows=90, cols=48, density=0.3, ties=True)
    grouping = group_columns(matrix, alpha=8, gamma=1.0)
    flat_columns, assignment, _ = group_layout(grouping)
    starts = np.cumsum([0] + [len(g) for g in grouping.groups[:-1]])
    occupancy = group_occupancy(pack_columns(matrix != 0), flat_columns, starts)
    occupied = unpack_rows(occupancy, matrix.shape[0])      # (G, N)
    for engine in PRUNE_ENGINES:
        keep = conflict_mask(matrix, grouping, engine=engine) != 0
        kept_cells = np.zeros_like(occupied)
        rows, columns = np.nonzero(keep)
        kept_cells[assignment[columns], rows] = True
        np.testing.assert_array_equal(kept_cells, occupied)


def test_group_layout_round_trips_grouping():
    grouping = ColumnGrouping([[3, 0], [2], [4, 1]], num_columns=5, num_rows=2,
                              alpha=8, gamma=1.0)
    flat_columns, assignment, position = group_layout(grouping)
    np.testing.assert_array_equal(flat_columns, [3, 0, 2, 4, 1])
    np.testing.assert_array_equal(assignment, [0, 2, 1, 0, 2])
    np.testing.assert_array_equal(position, [1, 1, 0, 0, 0])


# -- engine selection ---------------------------------------------------------------------

def test_prune_engine_names_exported():
    assert set(PRUNE_ENGINES) == {"fast", "reference"}


def test_unknown_prune_engine_raises():
    matrix = seeded_matrix(0)
    grouping = group_columns(matrix)
    with pytest.raises(ValueError):
        conflict_mask(matrix, grouping, engine="turbo")
    with pytest.raises(ValueError):
        column_combine_prune(matrix, grouping, engine="turbo")


def test_column_combine_prune_threads_engine():
    matrix = seeded_matrix(1, ties=True)
    grouping = group_columns(matrix, alpha=8, gamma=0.5)
    pruned_fast, keep_fast = column_combine_prune(matrix, grouping, engine="fast")
    pruned_ref, keep_ref = column_combine_prune(matrix, grouping, engine="reference")
    np.testing.assert_array_equal(pruned_fast, pruned_ref)
    np.testing.assert_array_equal(keep_fast, keep_ref)


# -- differential sweep -------------------------------------------------------------------

@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_engines_identical_across_alpha_gamma(alpha, gamma):
    for seed, density in ((0, 0.1), (1, 0.25), (2, 0.5)):
        matrix = seeded_matrix(seed, density=density)
        grouping = group_columns(matrix, alpha=alpha, gamma=gamma)
        assert_prune_engines_identical(matrix, grouping)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_engines_identical_with_magnitude_ties(alpha):
    """Integer-valued matrices hit the tie-break path on nearly every row."""
    for seed in range(4):
        matrix = seeded_matrix(seed, density=0.5, ties=True)
        grouping = group_columns(matrix, alpha=alpha, gamma=1.0)
        assert_prune_engines_identical(matrix, grouping)


def test_tie_breaks_toward_earliest_column_in_group_order():
    # The group lists column 1 before column 0, so the tie must resolve to
    # column 1 — group *order*, not ascending column index.
    matrix = np.array([[2.0, -2.0]])
    grouping = ColumnGrouping([[1, 0]], num_columns=2, num_rows=1, alpha=8,
                              gamma=1.0)
    for engine in PRUNE_ENGINES:
        keep = conflict_mask(matrix, grouping, engine=engine)
        np.testing.assert_array_equal(keep, [[0.0, 1.0]])


def test_engines_identical_with_all_zero_rows():
    matrix = seeded_matrix(3, rows=20, cols=30, density=0.3)
    matrix[[0, 7, 19], :] = 0.0
    grouping = group_columns(matrix, alpha=8, gamma=0.5)
    assert_prune_engines_identical(matrix, grouping)
    keep = conflict_mask(matrix, grouping, engine="fast")
    assert np.count_nonzero(keep[[0, 7, 19], :]) == 0


def test_engines_identical_with_singleton_groups():
    matrix = seeded_matrix(4, density=0.4)
    grouping = group_columns(matrix, alpha=1, gamma=0.0)
    assert all(len(group) == 1 for group in grouping.groups)
    assert_prune_engines_identical(matrix, grouping)
    # Singleton groups never prune anything.
    keep = conflict_mask(matrix, grouping, engine="fast")
    np.testing.assert_array_equal(keep != 0, matrix != 0)


def test_engines_identical_on_all_zero_matrix():
    matrix = np.zeros((12, 9))
    grouping = group_columns(matrix, alpha=4, gamma=0.5)
    assert_prune_engines_identical(matrix, grouping)


def test_engines_identical_on_zero_row_matrix():
    matrix = np.zeros((0, 11))
    grouping = group_columns(matrix, alpha=4, gamma=0.5)
    assert_prune_engines_identical(matrix, grouping)


def test_engines_identical_on_empty_matrix():
    matrix = np.zeros((4, 0))
    grouping = group_columns(matrix, alpha=8, gamma=0.5)
    for engine in PRUNE_ENGINES:
        assert conflict_mask(matrix, grouping, engine=engine).shape == (4, 0)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_engines_identical_with_nan_weights():
    """A NaN magnitude poisons its (row, group) cell: the reference loop
    keeps nothing from that cell (NaN > 0 is false), and the fast engine
    must do the same rather than keeping every entry."""
    matrix = np.array([[1.0, np.nan, 2.0],
                       [3.0, 1.0, 0.0]])
    grouping = ColumnGrouping([[0, 1, 2]], num_columns=3, num_rows=2, alpha=8,
                              gamma=2.0)
    assert_prune_engines_identical(matrix, grouping)
    keep = conflict_mask(matrix, grouping, engine="fast")
    np.testing.assert_array_equal(keep[0], [0.0, 0.0, 0.0])  # poisoned cell
    np.testing.assert_array_equal(keep[1], [1.0, 0.0, 0.0])  # unaffected row


def test_engines_identical_on_many_rows():
    # More than 64 rows exercises multi-word bitsets in the grouping that
    # feeds the prune step.
    matrix = seeded_matrix(5, rows=150, cols=80, density=0.15)
    grouping = group_columns(matrix, alpha=8, gamma=0.5)
    assert_prune_engines_identical(matrix, grouping)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000),
       rows=st.integers(1, 70),
       cols=st.integers(1, 40),
       density=st.floats(0.0, 1.0),
       alpha=st.sampled_from(ALPHAS),
       gamma=st.sampled_from(GAMMAS),
       ties=st.booleans())
def test_property_engines_bit_identical(seed, rows, cols, density, alpha, gamma,
                                        ties):
    matrix = seeded_matrix(seed, rows=rows, cols=cols, density=density, ties=ties)
    grouping = group_columns(matrix, alpha=alpha, gamma=gamma)
    fast = conflict_mask(matrix, grouping, engine="fast")
    reference = conflict_mask(matrix, grouping, engine="reference")
    np.testing.assert_array_equal(fast, reference)
    # Invariants: only existing nonzeros are kept, at most one per
    # (row, group) cell, and a row keeps something from every group it
    # holds a weight in.
    assert np.all((fast == 0) | (matrix != 0))
    for group in grouping.groups:
        kept = np.count_nonzero(fast[:, group], axis=1)
        has_weight = (matrix[:, group] != 0).any(axis=1)
        np.testing.assert_array_equal(kept, has_weight.astype(int))
