"""Tests for partitioned (tiled) matrix multiplication."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.combining import group_columns, column_combine_prune, pack_filter_matrix
from repro.systolic import ArrayConfig, TiledMatmul
from repro.systolic.tiles import pipelined_cycles, tile_geometry


def sparse(rng, rows, cols, density=0.2):
    return rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density)


def test_dense_tiling_matches_direct_product(rng):
    matrix = sparse(rng, 96, 94)
    data = rng.normal(size=(94, 13))
    tiled = TiledMatmul(ArrayConfig(rows=32, cols=32))
    result = tiled.multiply_dense(matrix, data)
    np.testing.assert_allclose(result.output, matrix @ data)
    assert result.num_tiles == 9


def test_single_tile_when_matrix_fits(rng):
    matrix = sparse(rng, 16, 16)
    data = rng.normal(size=(16, 3))
    result = TiledMatmul(ArrayConfig(rows=32, cols=32)).multiply_dense(matrix, data)
    assert result.num_tiles == 1


def test_packed_tiling_matches_pruned_product(rng):
    matrix = sparse(rng, 96, 94, density=0.16)
    grouping = group_columns(matrix, alpha=8, gamma=0.5)
    packed = pack_filter_matrix(matrix, grouping)
    pruned, _ = column_combine_prune(matrix, grouping)
    data = rng.normal(size=(94, 21))
    result = TiledMatmul(ArrayConfig(rows=32, cols=32, alpha=8)).multiply_packed(packed, data)
    np.testing.assert_allclose(result.output, pruned @ data)
    assert result.num_tiles < 9


def test_packing_reduces_tiles_and_cycles(rng):
    matrix = sparse(rng, 96, 94, density=0.16)
    grouping = group_columns(matrix, alpha=8, gamma=0.5)
    packed = pack_filter_matrix(matrix, grouping)
    data = rng.normal(size=(94, 50))
    tiled = TiledMatmul(ArrayConfig(rows=32, cols=32, alpha=8))
    dense_result = tiled.multiply_dense(matrix, data)
    packed_result = tiled.multiply_packed(packed, data)
    assert packed_result.num_tiles < dense_result.num_tiles
    assert packed_result.total_cycles < dense_result.total_cycles
    assert packed_result.utilization > dense_result.utilization


def test_weight_load_overlap_only_first_tile_exposed(rng):
    matrix = sparse(rng, 64, 64)
    data = rng.normal(size=(64, 100))
    result = TiledMatmul(ArrayConfig(rows=32, cols=32)).multiply_dense(matrix, data)
    assert result.num_tiles == 4
    expected = (result.tiles[0].weight_load_cycles + result.tiles[0].matmul_cycles
                + sum(max(t.matmul_cycles, t.weight_load_cycles) for t in result.tiles[1:]))
    assert result.total_cycles == expected


def test_tile_records_cover_whole_matrix(rng):
    matrix = sparse(rng, 50, 70)
    data = rng.normal(size=(70, 2))
    result = TiledMatmul(ArrayConfig(rows=32, cols=32)).multiply_dense(matrix, data)
    covered = np.zeros((50, 70), dtype=int)
    for tile in result.tiles:
        covered[tile.row_start:tile.row_end, tile.col_start:tile.col_end] += 1
    assert np.all(covered == 1)


def test_mismatched_data_raises(rng):
    tiled = TiledMatmul(ArrayConfig(rows=8, cols=8))
    with pytest.raises(ValueError):
        tiled.multiply_dense(np.ones((4, 4)), np.ones((5, 2)))


def test_packed_multiplexing_degree_checked(rng):
    matrix = sparse(rng, 40, 40, density=0.05)
    grouping = group_columns(matrix, alpha=8, gamma=0.5)
    packed = pack_filter_matrix(matrix, grouping)
    if packed.multiplexing_degree() <= 1:
        pytest.skip("no multiplexing occurred")
    tiled = TiledMatmul(ArrayConfig(rows=8, cols=8, alpha=1))
    with pytest.raises(ValueError):
        tiled.multiply_packed(packed, np.zeros((40, 1)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2000), rows=st.integers(1, 70), cols=st.integers(1, 70))
def test_property_tiled_dense_matmul_is_exact(seed, rows, cols):
    """Tiled execution over any matrix size equals the direct product."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(rows, cols))
    data = rng.normal(size=(cols, 3))
    result = TiledMatmul(ArrayConfig(rows=16, cols=16)).multiply_dense(matrix, data)
    np.testing.assert_allclose(result.output, matrix @ data, atol=1e-9)
    expected_tiles = -(-rows // 16) * (-(-cols // 16))
    assert result.num_tiles == expected_tiles


@pytest.mark.parametrize("array", [(32, 32), (8, 8), (8, 5)])
def test_tile_geometry_matches_tiled_execution(rng, array):
    """The geometry helper lists exactly the tiles a packed multiply runs."""
    matrix = sparse(rng, 40, 37, density=0.2)
    packed = pack_filter_matrix(matrix, group_columns(matrix, alpha=8,
                                                      gamma=0.5))
    config = ArrayConfig(rows=array[0], cols=array[1], alpha=8)
    for words in (0, 1, 7):
        result = TiledMatmul(config).multiply_packed(
            packed, rng.normal(size=(37, words)))
        executions = [tile.execution(words, config.timing)
                      for tile in tile_geometry(packed.weights, config)]
        assert executions == result.tiles
        assert pipelined_cycles(executions) == result.total_cycles
    assert pipelined_cycles([]) == 0
