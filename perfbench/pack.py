"""``pack``: the group -> prune -> pack -> tile pipeline, then array planning.

Each iteration packs every full-size network shape of
``repro.experiments.workloads`` (lenet5, vgg, resnet20) twice: at the
paper's density and at 5%, on a freshly seeded matrix set.  A unit of
work is one network: one serial ``PackingPipeline.run`` plus
``SystolicSystem.plan_model`` over its packed layers.  Grouping dominates
(about 70% of a resnet20 pack) and no serving code runs, so a grouping
speed-up shows here and not on the serving workloads.

Matrix generation and the correctness checks run outside the timed calls.
"""

from __future__ import annotations

import time

import numpy as np

from repro.combining.grouping import group_columns
from repro.combining.packing import pack_filter_matrix
from repro.combining.pipeline import PackingPipeline, PipelineConfig
from repro.combining.pruning import column_combine_prune
from repro.combining.tiling import tile_count
from repro.experiments.workloads import (
    PAPER_DENSITY,
    sparse_network,
    spatial_sizes,
)
from repro.systolic.array import ArrayConfig
from repro.systolic.system import SystolicSystem

from perfbench.harness import (
    HOST_BOUND, HostSpeed, Outcome, Tracer, percentile, seeded_int)

NETWORKS = ("lenet5", "vgg", "resnet20")
LOW_DENSITY = 0.05
STAGES = ("grouping", "pruning", "packing", "tiling")


class PackWorkload:
    """The ``pack`` workload."""

    host_bound = HOST_BOUND
    # Grouping works on full-size weight matrices; over ten runs the small
    # loop overstated the host's slowdowns for it, the bulk loop did not.
    host_reference = "bulk"

    def __init__(self, seed: int):
        self.seed = seed
        self.outcome = Outcome()
        self.config = PipelineConfig()
        self.iteration = 0

    def _networks(self, iteration: int):
        """The ``(network, density, layers)`` set of one iteration."""
        for index, network in enumerate(NETWORKS):
            for density in (PAPER_DENSITY[network], LOW_DENSITY):
                layers = sparse_network(
                    network, density,
                    seed=seeded_int(self.seed, iteration, index,
                                    int(density * 1000)))
                yield network, density, layers

    def _pack(self, layers):
        result = self.pipeline.run(layers)
        plan = self.system.plan_model(result.packed_layers(),
                                      spatial_sizes(layers))
        return result, plan

    def _check(self, layers, result, replayed=None) -> None:
        """Each packed layer equals its Algorithm-3-pruned matrix; tiles match."""
        rows_cols = (self.config.array_rows, self.config.array_cols)
        for index, ((_, matrix), layer) in enumerate(zip(layers,
                                                         result.layers)):
            if replayed is None:
                grouping = layer.grouping
                pruned = column_combine_prune(matrix, grouping)[0]
            else:
                grouping, pruned = replayed[index]
                if grouping.groups != layer.grouping.groups:
                    self.outcome.check(False)
                    continue
            rows, cols = matrix.shape
            self.outcome.check(
                np.array_equal(layer.packed.to_sparse(), pruned)
                and layer.tiles_before == tile_count(rows, cols, *rows_cols)
                and layer.tiles_after == tile_count(
                    rows, grouping.num_groups, *rows_cols))

    def _replay(self, layers, tracer: Tracer):
        """Each layer through the stage functions, one span per stage."""
        config = self.config
        replayed = []
        for _, matrix in layers:
            with tracer.span("grouping"):
                grouping = group_columns(
                    matrix, alpha=config.alpha, gamma=config.gamma,
                    policy=config.policy, engine=config.grouping_engine)
            with tracer.span("pruning"):
                pruned = column_combine_prune(
                    matrix, grouping, engine=config.prune_engine)[0]
            with tracer.span("packing"):
                pack_filter_matrix(pruned, grouping, prune_conflicts=False)
            with tracer.span("tiling"):
                rows, cols = matrix.shape
                tile_count(rows, cols, config.array_rows, config.array_cols)
                tile_count(rows, grouping.num_groups, config.array_rows,
                           config.array_cols)
            replayed.append((grouping, pruned))
        return replayed

    # -- protocol -------------------------------------------------------------
    def setup(self) -> None:
        self.pipeline = PackingPipeline(self.config)
        self.system = SystolicSystem(ArrayConfig())
        _, _, layers = next(self._networks(0))
        result, _ = self._pack(layers)
        self._check(layers, result)

    def prepare(self) -> None:
        pass

    def exact_metrics(self) -> dict[str, float]:
        """Utilization, cycles and work counts of iteration 0's networks."""
        useful = occupied = cycles = groups = pruned = tiles = 0
        for _, _, layers in self._networks(0):
            result, plan = self._pack(layers)
            useful += plan.total_useful_macs
            occupied += plan.total_occupied_macs
            cycles += plan.total_cycles
            groups += sum(layer.columns_after for layer in result.layers)
            pruned += sum(layer.pruned_weights for layer in result.layers)
            tiles += result.total_tiles_after
        return {"utilization": useful / occupied, "sim_cycles": cycles,
                "grouping.groups": groups, "pruning.pruned_weights": pruned,
                "tiling.tiles_after": tiles}

    def measure(self, seconds: float, tracer: Tracer, host: HostSpeed
                ) -> list[float]:
        """Pack networks for ``seconds``; returns per-network times in ms."""
        units: list[float] = []
        self.pipeline_self_ms = 0.0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.iteration += 1
            for _, _, layers in self._networks(self.iteration):
                tracer.new_trace()
                started = time.perf_counter_ns()
                with tracer.span("pipeline.run"):
                    result = self.pipeline.run(layers)
                run_ns = time.perf_counter_ns() - started
                self.pipeline_self_ms += (
                    run_ns - sum(result.stage_ns_totals().values())) / 1e6
                with tracer.span("systolic.plan"):
                    self.system.plan_model(result.packed_layers(),
                                           spatial_sizes(layers))
                units.append((time.perf_counter_ns() - started) / 1e6)
                replayed = (self._replay(layers, tracer) if tracer.enabled
                            else None)
                self._check(layers, result, replayed)
            host.sample()
        return units

    def end_to_end(self, units: list[float]) -> dict[str, float]:
        return {"throughput": len(units) / (sum(units) / 1e3),
                "p50_ms": percentile(units, 50),
                "p90_ms": percentile(units, 90)}

    def layer_metrics(self, tracer: Tracer, units: list[float]
                      ) -> dict[str, float]:
        networks = len(units)
        metrics = {f"{stage}.busy_ms": tracer.total_ms(stage) / networks
                   for stage in STAGES}
        metrics["systolic.plan_ms"] = tracer.total_ms("systolic.plan") / networks
        # Self time from the run's own stage timings: the replay is a
        # different execution, so subtracting it would mostly measure noise.
        metrics["pipeline.self_ms"] = self.pipeline_self_ms / networks
        busy = (sum(tracer.total_ms(stage) for stage in STAGES)
                + self.pipeline_self_ms + tracer.total_ms("systolic.plan"))
        metrics["trace.attributed_share"] = busy / sum(units)
        return metrics

    def close(self) -> None:
        self.pipeline.close()
