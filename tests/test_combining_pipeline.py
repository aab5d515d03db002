"""Tests for the PackingPipeline subsystem and its layer-parallel fan-out.

The pipeline promises that ``workers=N`` returns exactly the results of
the serial ``workers=1`` run, in layer order, for every policy and engine
— including the ``"random"`` grouping policy, whose per-layer generators
are derived from ``(seed, layer_index)`` rather than shared state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.combining import (
    PackingPipeline,
    PipelineConfig,
    column_combine_prune,
    group_columns,
    ordered_pool_map,
    pack_filter_matrix,
    tile_count,
)
from repro.combining.pipeline import _pack_one_layer
from repro.experiments import fig16
from repro.experiments.workloads import PAPER_DENSITY, sparse_network


def small_layers(seed: int = 0, count: int = 3):
    rng = np.random.default_rng(seed)
    layers = []
    for index in range(count):
        rows, cols = 40 + 8 * index, 36 + 4 * index
        matrix = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.2)
        layers.append((f"layer-{index}", matrix))
    return layers


def assert_results_identical(first, second):
    assert first.layer_names() == second.layer_names()
    for a, b in zip(first.layers, second.layers):
        assert a.grouping.groups == b.grouping.groups
        np.testing.assert_array_equal(a.packed.weights, b.packed.weights)
        np.testing.assert_array_equal(a.packed.channel_index, b.packed.channel_index)
        assert (a.tiles_before, a.tiles_after) == (b.tiles_before, b.tiles_after)


# -- config validation --------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(alpha=0)
    with pytest.raises(ValueError):
        PipelineConfig(gamma=-0.5)
    with pytest.raises(ValueError):
        PipelineConfig(policy="densest")
    with pytest.raises(ValueError):
        PipelineConfig(grouping_engine="turbo")
    with pytest.raises(ValueError):
        PipelineConfig(prune_engine="turbo")
    with pytest.raises(ValueError):
        PipelineConfig(array_rows=0)
    with pytest.raises(ValueError):
        PipelineConfig(workers=0)


def test_config_defaults_match_paper():
    config = PipelineConfig()
    assert config.alpha == 8 and config.gamma == 0.5
    assert config.workers == 1


# -- per-layer flow -----------------------------------------------------------------------

def test_layer_result_matches_direct_calls():
    name, matrix = small_layers()[0]
    result = PackingPipeline(PipelineConfig(alpha=8, gamma=0.5)).run_layer(name, matrix)
    grouping = group_columns(matrix, alpha=8, gamma=0.5)
    packed = pack_filter_matrix(matrix, grouping)
    assert result.name == name
    assert result.grouping.groups == grouping.groups
    np.testing.assert_array_equal(result.packed.weights, packed.weights)
    assert result.columns_before == matrix.shape[1]
    assert result.columns_after == grouping.num_groups
    assert result.tiles_before == tile_count(matrix.shape[0], matrix.shape[1], 32, 32)
    assert result.tiles_after == tile_count(matrix.shape[0], grouping.num_groups, 32, 32)
    assert result.density_before == pytest.approx(
        np.count_nonzero(matrix) / matrix.size)
    assert result.tile_reduction == result.tiles_before / max(1, result.tiles_after)


def test_packed_layer_round_trips_pruned_matrix():
    name, matrix = small_layers(seed=3)[1]
    result = PackingPipeline().run_layer(name, matrix)
    pruned, _ = column_combine_prune(matrix, result.grouping)
    np.testing.assert_allclose(result.packed.to_sparse(), pruned)


def test_rejects_non_2d_matrix():
    with pytest.raises(ValueError):
        PackingPipeline().run_layer("bad", np.zeros(5))


def test_run_accepts_layer_shapes_strings_and_bare_matrices():
    layers = sparse_network("lenet5", density=0.2, seed=0)
    named = small_layers()
    pipeline = PackingPipeline()
    from_shapes = pipeline.run(layers)
    assert from_shapes.layer_names() == [shape.name for shape, _ in layers]
    from_names = pipeline.run(named)
    assert from_names.layer_names() == [name for name, _ in named]
    bare = pipeline.run([matrix for _, matrix in named])
    assert bare.layer_names() == [f"layer{i}" for i in range(len(named))]


def test_result_helpers_aggregate_layers():
    result = PackingPipeline().run(small_layers())
    assert result.total_tiles_before == sum(result.tiles_before())
    assert result.total_tiles_after == sum(result.tiles_after())
    assert [name for name, _ in result.packed_layers()] == result.layer_names()
    assert result.total_tiles_after <= result.total_tiles_before


# -- serial vs parallel -------------------------------------------------------------------

def test_parallel_results_identical_to_serial():
    layers = small_layers()
    serial = PackingPipeline(PipelineConfig(workers=1)).run(layers)
    parallel = PackingPipeline(PipelineConfig(workers=3)).run(layers)
    assert_results_identical(serial, parallel)


def test_parallel_random_policy_identical_to_serial():
    layers = small_layers(seed=7)
    serial = PackingPipeline(PipelineConfig(policy="random", seed=11,
                                            workers=1)).run(layers)
    parallel = PackingPipeline(PipelineConfig(policy="random", seed=11,
                                              workers=2)).run(layers)
    assert_results_identical(serial, parallel)


def test_random_policy_depends_on_seed_not_schedule():
    layers = small_layers(seed=7)
    first = PackingPipeline(PipelineConfig(policy="random", seed=1)).run(layers)
    second = PackingPipeline(PipelineConfig(policy="random", seed=2)).run(layers)
    assert any(a.grouping.groups != b.grouping.groups
               for a, b in zip(first.layers, second.layers))


def assert_engines_agree(layers, **knobs):
    fast = PackingPipeline(PipelineConfig(grouping_engine="fast",
                                          prune_engine="fast", **knobs)).run(layers)
    reference = PackingPipeline(PipelineConfig(grouping_engine="reference",
                                               prune_engine="reference",
                                               **knobs)).run(layers)
    assert_results_identical(fast, reference)


def test_reference_engines_through_pipeline_match_fast():
    assert_engines_agree(small_layers(seed=5))


@pytest.mark.slow
@pytest.mark.parametrize("setting,alpha,gamma", fig16.SETTINGS)
@pytest.mark.parametrize("network", fig16.NETWORKS)
def test_reference_engines_match_fast_on_full_size_networks(network, setting,
                                                             alpha, gamma):
    """Every network x setting that ``fig16`` packs, at the paper's density
    and full layer shapes: the reference loops walk every layer, so this
    is the thorough tier."""
    layers = sparse_network(network, PAPER_DENSITY[network],
                            **fig16.SHAPE_KWARGS[network])
    assert_engines_agree(layers, alpha=alpha, gamma=gamma)


# -- persistent worker pool ----------------------------------------------------------------

def test_persistent_pool_reused_across_runs_matches_fresh_pipelines():
    """Three run() calls on one (pool-reusing) pipeline must equal three
    runs on fresh pipelines — the pool is an optimization, never a result
    change."""
    layers = small_layers()
    with PackingPipeline(PipelineConfig(workers=2)) as pipeline:
        reused = [pipeline.run(layers) for _ in range(3)]
        assert pipeline.pool_active  # one pool served all three runs
    assert not pipeline.pool_active
    for result in reused:
        with PackingPipeline(PipelineConfig(workers=2)) as fresh:
            assert_results_identical(fresh.run(layers), result)


def test_pool_spawns_lazily_and_respawns_after_close():
    pipeline = PackingPipeline(PipelineConfig(workers=2))
    assert not pipeline.pool_active  # constructing never forks
    first = pipeline.run(small_layers())
    assert pipeline.pool_active
    pipeline.close()
    pipeline.close()  # idempotent
    assert not pipeline.pool_active
    second = pipeline.run(small_layers())  # closed pipeline keeps working
    assert pipeline.pool_active
    pipeline.close()
    assert_results_identical(first, second)


def test_serial_pipeline_never_spawns_a_pool():
    with PackingPipeline(PipelineConfig(workers=1)) as pipeline:
        pipeline.run(small_layers())
        assert not pipeline.pool_active


def test_single_layer_run_stays_in_process():
    with PackingPipeline(PipelineConfig(workers=4)) as pipeline:
        pipeline.run(small_layers(count=1))
        assert not pipeline.pool_active


def test_packed_layers_preserve_input_order_under_parallel_fanout():
    """packed_layers() documents that it preserves input layer order even
    under parallel fan-out; pin that with names whose sorted order differs
    from the input order."""
    names = ["zeta", "alpha", "mid", "omega", "beta"]
    rng = np.random.default_rng(2)
    layers = [(name, rng.normal(size=(30, 24)) * (rng.random((30, 24)) < 0.25))
              for name in names]
    serial = PackingPipeline(PipelineConfig(workers=1)).run(layers)
    with PackingPipeline(PipelineConfig(workers=4)) as pipeline:
        parallel = pipeline.run(layers)
    assert [name for name, _ in serial.packed_layers()] == names
    assert [name for name, _ in parallel.packed_layers()] == names
    for (_, a), (_, b) in zip(serial.packed_layers(), parallel.packed_layers()):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.channel_index, b.channel_index)


def test_borrowed_pool_is_shared_and_never_shut_down_by_borrowers():
    """Pipelines with different configs can borrow one executor; closing a
    borrower must leave the lender's pool alive for the others."""
    from concurrent.futures import ProcessPoolExecutor

    layers = small_layers()
    with ProcessPoolExecutor(max_workers=2) as shared:
        first = PackingPipeline(PipelineConfig(workers=2), pool=shared)
        second = PackingPipeline(PipelineConfig(alpha=4, workers=2), pool=shared)
        assert first.pool_active and second.pool_active
        first_result = first.run(layers)
        first.close()
        assert not first.pool_active
        second_result = second.run(layers)  # pool still alive after close()
        second.close()
    assert_results_identical(
        first_result, PackingPipeline(PipelineConfig(workers=1)).run(layers))
    assert_results_identical(
        second_result,
        PackingPipeline(PipelineConfig(alpha=4, workers=1)).run(layers))


def test_closed_borrower_spawns_its_own_pool_next_time():
    from concurrent.futures import ProcessPoolExecutor

    layers = small_layers()
    with ProcessPoolExecutor(max_workers=2) as shared:
        pipeline = PackingPipeline(PipelineConfig(workers=2), pool=shared)
        pipeline.close()  # detaches the borrowed pool
        result = pipeline.run(layers)  # spawns (and now owns) a fresh pool
        assert pipeline.pool_active
        pipeline.close()
    assert_results_identical(
        result, PackingPipeline(PipelineConfig(workers=1)).run(layers))


def test_layer_result_counts_nonzeros_and_pruned_weights():
    name, matrix = small_layers()[0]
    result = PackingPipeline().run_layer(name, matrix)
    assert result.nonzeros_before == int(np.count_nonzero(matrix))
    assert result.nonzeros_after == int(np.count_nonzero(result.packed.weights))
    assert result.pruned_weights == result.nonzeros_before - result.nonzeros_after
    assert result.pruned_weights >= 0


# -- ordered_pool_map ---------------------------------------------------------------------

def test_ordered_pool_map_serial_path_preserves_order():
    assert ordered_pool_map(abs, [-3, 1, -2], workers=1) == [3, 1, 2]


def test_ordered_pool_map_serial_path_runs_initializer():
    installed: list[int] = []
    result = ordered_pool_map(abs, [-4, 4], workers=1,
                              initializer=installed.append, initargs=(7,))
    assert result == [4, 4]
    assert installed == [7]


def test_ordered_pool_map_parallel_preserves_order():
    tasks = [(PipelineConfig(), f"m{i}", matrix, i)
             for i, (_, matrix) in enumerate(small_layers())]
    serial = ordered_pool_map(_pack_one_layer, tasks, workers=1)
    parallel = ordered_pool_map(_pack_one_layer, tasks, workers=3)
    assert [r.name for r in serial] == [r.name for r in parallel] == ["m0", "m1", "m2"]
    for a, b in zip(serial, parallel):
        assert a.grouping.groups == b.grouping.groups


def test_ordered_pool_map_lent_pool_is_not_shut_down():
    from concurrent.futures import ProcessPoolExecutor

    tasks = [(PipelineConfig(), f"m{i}", matrix, i)
             for i, (_, matrix) in enumerate(small_layers())]
    with ProcessPoolExecutor(max_workers=2) as pool:
        first = ordered_pool_map(_pack_one_layer, tasks, workers=2, pool=pool)
        # The pool must survive the call so the owner can reuse it.
        second = ordered_pool_map(_pack_one_layer, tasks, workers=2, pool=pool)
    assert [r.name for r in first] == [r.name for r in second]
    for a, b in zip(first, second):
        assert a.grouping.groups == b.grouping.groups
