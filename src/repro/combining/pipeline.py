"""End-to-end packing pipeline: group -> conflict-prune -> pack -> tile.

Every figure/table sweep runs the same per-layer flow — Algorithm 2
grouping under (α, γ), Algorithm 3 conflict pruning, packing into the
MX-cell layout, and tile counting for a systolic array — over a list of
layers.  :class:`PackingPipeline` is that flow as a reusable subsystem: it
takes ``(name_or_shape, matrix)`` layers plus a :class:`PipelineConfig`
and returns one :class:`LayerResult` per layer, optionally fanning the
layers out over a ``ProcessPoolExecutor``.

``workers=1`` (the default) runs serially and is deterministic by
construction; ``workers=N`` runs layers concurrently but returns results
in layer order, and every layer's work is seeded independently of its
schedule (the ``"random"`` grouping policy derives a per-layer generator
from ``(config.seed, layer_index)``), so parallel results are identical
to serial ones.  The worker pool is persistent: it is spawned lazily on
the first parallel ``run()`` and reused by later calls until
:meth:`PackingPipeline.close` (or the context-manager exit) shuts it
down, so repeated sweeps do not re-pay the process fork cost.

Usage::

    import numpy as np
    from repro.combining.pipeline import PackingPipeline, PipelineConfig

    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(96, 94)) * (rng.random((96, 94)) < 0.16)
    pipeline = PackingPipeline(PipelineConfig(alpha=8, gamma=0.5,
                                              array_rows=32, array_cols=32,
                                              workers=4))
    result = pipeline.run([("conv3", matrix)])
    layer = result.layers[0]
    print(layer.columns_before, "->", layer.columns_after,
          f"tiles {layer.tiles_before} -> {layer.tiles_after}")

``grouping_engine`` selects the Algorithm 2 implementation
(:data:`~repro.combining.grouping.GROUPING_ENGINES`) and ``prune_engine``
the Algorithm 3 one (:data:`~repro.combining.pruning.PRUNE_ENGINES`).
Both default to ``"fast"``; they stay settable here because packed
artifacts record them and the differential suites run the reference
loops through the pipeline.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro.combining.grouping import (
    GROUPING_ENGINES,
    GROUPING_POLICIES,
    ColumnGrouping,
    group_columns,
)
from repro.combining.packing import PackedFilterMatrix, pack_filter_matrix
from repro.combining.pruning import PRUNE_ENGINES, column_combine_prune
from repro.combining.tiling import tile_count
from repro.obs.metrics import MetricsRegistry

#: The per-layer flow's stages, in execution order.  Stage spans and the
#: ``packing_stage_seconds{stage=...}`` histograms use these names.
PIPELINE_STAGES = ("group", "prune", "pack", "tile")

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


def ordered_pool_map(function: Callable[[_ItemT], _ResultT],
                     items: Iterable[_ItemT], workers: int = 1,
                     initializer: Callable[..., None] | None = None,
                     initargs: tuple = (),
                     pool: ProcessPoolExecutor | None = None) -> list[_ResultT]:
    """Map ``function`` over ``items``, optionally on a process pool.

    ``workers <= 1`` (or a single item) runs serially in-process; larger
    values fan out over a ``ProcessPoolExecutor``.  Results always come
    back in input order, and the serial path calls the *same* function on
    the same items, so parallel and serial runs are interchangeable as
    long as ``function`` is deterministic.  For ``workers > 1`` the
    function, items, and ``initargs`` must be picklable (module-level
    function, plain data arguments).

    ``initializer(*initargs)`` runs once per worker process (and once
    up-front on the serial path) — the place to install shared read-only
    context (e.g. datasets) so it is shipped per worker rather than
    pickled into every item.

    ``pool`` lends an already-running executor: the map runs on it and the
    caller keeps ownership (it is not shut down here), which is how
    :class:`PackingPipeline` reuses one persistent pool across ``run()``
    calls.  A lent pool must already carry any initializer it needs, so
    combining ``pool`` with ``initializer`` is rejected — the lent pool's
    workers were spawned long before this call and would silently skip it.
    """
    if pool is not None and initializer is not None:
        raise ValueError(
            "pass either initializer or pool, not both: a lent pool's workers "
            "are already running and would never execute the initializer")
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [function(item) for item in items]
    if pool is not None:
        return list(pool.map(function, items))
    with ProcessPoolExecutor(max_workers=min(workers, len(items)),
                             initializer=initializer,
                             initargs=initargs) as fresh_pool:
        return list(fresh_pool.map(function, items))


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the per-layer packing flow plus the layer fan-out.

    ``alpha`` / ``gamma`` / ``policy`` parameterize Algorithm 2,
    ``grouping_engine`` / ``prune_engine`` select the Algorithm 2 / 3
    implementations, ``array_rows`` / ``array_cols`` size the systolic
    array the tile counts are computed for, ``workers`` is the number of
    layer-parallel processes (1 = serial), and ``seed`` feeds the
    per-layer generators of the ``"random"`` grouping policy.
    """

    alpha: int = 8
    gamma: float = 0.5
    policy: str = "dense-first"
    grouping_engine: str = "fast"
    prune_engine: str = "fast"
    array_rows: int = 32
    array_cols: int = 32
    workers: int = 1
    seed: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping of every knob (the packed-artifact footprint).

        :func:`repro.combining.serialization.save_packed` embeds this in the
        artifact metadata so a served model records the exact pipeline
        settings it was packed under; :meth:`from_dict` round-trips it.
        """
        return {
            "alpha": self.alpha,
            "gamma": self.gamma,
            "policy": self.policy,
            "grouping_engine": self.grouping_engine,
            "prune_engine": self.prune_engine,
            "array_rows": self.array_rows,
            "array_cols": self.array_cols,
            "workers": self.workers,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PipelineConfig":
        """Reconstruct a config from :meth:`to_dict` output (validated as usual)."""
        known = {field_name for field_name in cls.__dataclass_fields__}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown PipelineConfig fields: {unknown}")
        return cls(**data)

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.policy not in GROUPING_POLICIES:
            raise ValueError(
                f"unknown grouping policy {self.policy!r}; "
                f"expected one of {GROUPING_POLICIES}")
        if self.grouping_engine not in GROUPING_ENGINES:
            raise ValueError(
                f"unknown grouping engine {self.grouping_engine!r}; "
                f"expected one of {GROUPING_ENGINES}")
        if self.prune_engine not in PRUNE_ENGINES:
            raise ValueError(
                f"unknown prune engine {self.prune_engine!r}; "
                f"expected one of {PRUNE_ENGINES}")
        if self.array_rows < 1 or self.array_cols < 1:
            raise ValueError("array dimensions must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class LayerResult:
    """Everything the prune/group/pack/tile flow produced for one layer."""

    name: str
    rows: int
    columns_before: int
    columns_after: int
    density_before: float
    packing_efficiency: float
    tiles_before: int
    tiles_after: int
    grouping: ColumnGrouping
    packed: PackedFilterMatrix
    #: nonzero weights in the input matrix / surviving after Algorithm 3.
    nonzeros_before: int = 0
    nonzeros_after: int = 0
    #: Per-stage wall durations in integer nanoseconds, keyed by
    #: :data:`PIPELINE_STAGES`.  Integer ns ride home picklable from pool
    #: workers and fold into histograms independent of layer schedule.
    stage_ns: dict[str, int] = field(default_factory=dict)
    #: ``(stage, start_ns, end_ns)`` offsets relative to the layer's
    #: start, for timeline export (:func:`repro.obs.export.chrome_trace_from_pipeline`).
    stage_spans: list[tuple[str, int, int]] = field(default_factory=list)
    #: Wall-clock time the layer's flow started (anchors stage_spans).
    epoch: float = 0.0
    #: OS pid that packed this layer (shows pool fan-out in timelines).
    worker_pid: int = 0

    @property
    def tile_reduction(self) -> float:
        """Tile-count reduction factor (>= 1 when combining helps)."""
        return self.tiles_before / max(1, self.tiles_after)

    @property
    def pruned_weights(self) -> int:
        """Weights Algorithm 3 dropped to make every group conflict-free."""
        return self.nonzeros_before - self.nonzeros_after


@dataclass
class PipelineResult:
    """Ordered per-layer results of one :meth:`PackingPipeline.run` call."""

    config: PipelineConfig
    layers: list[LayerResult] = field(default_factory=list)

    def layer_names(self) -> list[str]:
        return [layer.name for layer in self.layers]

    def packed_layers(self) -> list[tuple[str, PackedFilterMatrix]]:
        """``(name, packed)`` pairs, the shape the systolic planners take.

        Ordering guarantee: pairs appear in the *input layer order* of the
        :meth:`PackingPipeline.run` call that produced this result —
        ``packed_layers()[i]`` is the packing of ``layers[i]`` — even when
        the run fanned layers out over a process pool (``workers > 1``),
        because :func:`ordered_pool_map` returns results in input order
        regardless of completion order.  Consumers that depend on forward
        order (cross-layer permutation, :class:`~repro.combining.inference.PackedModel`
        assembly, the systolic planners' per-layer spatial sizes) may rely
        on this.
        """
        return [(layer.name, layer.packed) for layer in self.layers]

    def tiles_before(self) -> list[int]:
        return [layer.tiles_before for layer in self.layers]

    def tiles_after(self) -> list[int]:
        return [layer.tiles_after for layer in self.layers]

    @property
    def total_tiles_before(self) -> int:
        return sum(layer.tiles_before for layer in self.layers)

    @property
    def total_tiles_after(self) -> int:
        return sum(layer.tiles_after for layer in self.layers)

    def stage_ns_totals(self) -> dict[str, int]:
        """Exact per-stage nanosecond totals across all layers.

        Integer adds over the per-layer ``stage_ns`` records, so the
        totals are identical whichever workers packed which layers.
        """
        totals = {stage: 0 for stage in PIPELINE_STAGES}
        for layer in self.layers:
            for stage, nanoseconds in layer.stage_ns.items():
                totals[stage] = totals.get(stage, 0) + int(nanoseconds)
        return totals


def _layer_name(layer_id: Any, index: int) -> str:
    """Display name for a layer: LayerShape.name, a string, or a default."""
    name = getattr(layer_id, "name", layer_id)
    if isinstance(name, str):
        return name
    return f"layer{index}"


def _pack_one_layer(task: tuple[PipelineConfig, str, np.ndarray, int]
                    ) -> LayerResult:
    """Run the whole per-layer flow; module-level so process pools can pickle it.

    Each stage (group / prune / pack / tile) is timed with
    ``perf_counter_ns``; the integer durations and span offsets travel
    back with the :class:`LayerResult`, so a parallel run's telemetry is
    folded together in the parent exactly like the serving path folds
    worker snapshots — integer adds, independent of which worker ran
    which layer.  The prune stage calls Algorithm 3 explicitly and hands
    the pruned matrix to the packer (``prune_conflicts=False``), which
    scatters the same entries the fused call would — packings are
    bit-identical to the un-instrumented flow.
    """
    config, name, matrix, layer_index = task
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"layer {name!r}: matrix must be 2-D")
    rng = None
    if config.policy == "random":
        # Seeded per layer (not shared across layers) so results do not
        # depend on which worker processes which layer.
        rng = np.random.default_rng((config.seed, layer_index))

    epoch = time.time()
    started = time.perf_counter_ns()
    spans: list[tuple[str, int, int]] = []

    def _staged(stage: str, call):
        start = time.perf_counter_ns() - started
        value = call()
        spans.append((stage, start, time.perf_counter_ns() - started))
        return value

    grouping = _staged("group", lambda: group_columns(
        matrix, alpha=config.alpha, gamma=config.gamma,
        policy=config.policy, rng=rng, engine=config.grouping_engine))
    pruned = _staged("prune", lambda: column_combine_prune(
        matrix, grouping, engine=config.prune_engine)[0])
    packed = _staged("pack", lambda: pack_filter_matrix(
        pruned, grouping, prune_conflicts=False))
    tiles = _staged("tile", lambda: (
        tile_count(matrix.shape[0], matrix.shape[1],
                   config.array_rows, config.array_cols),
        tile_count(matrix.shape[0], grouping.num_groups,
                   config.array_rows, config.array_cols)))
    return LayerResult(
        name=name,
        rows=matrix.shape[0],
        columns_before=matrix.shape[1],
        columns_after=grouping.num_groups,
        density_before=(float(np.count_nonzero(matrix) / matrix.size)
                        if matrix.size else 0.0),
        packing_efficiency=packed.packing_efficiency(),
        tiles_before=tiles[0],
        tiles_after=tiles[1],
        grouping=grouping,
        packed=packed,
        nonzeros_before=int(np.count_nonzero(matrix)),
        nonzeros_after=int(np.count_nonzero(packed.weights)),
        stage_ns={stage: end - start for stage, start, end in spans},
        stage_spans=spans,
        epoch=epoch,
        worker_pid=os.getpid(),
    )


class PackingPipeline:
    """Runs group -> conflict-prune -> pack -> tile over a list of layers.

    With ``workers > 1`` the pipeline owns a **persistent**
    ``ProcessPoolExecutor``: it is spawned lazily on the first parallel
    :meth:`run` and reused by every subsequent call, so sweeps that call
    the pipeline many times (fig15a's three settings, table2's measured +
    baseline plans, fig16's settings x networks grid) pay the ~100 ms
    worker fork cost once instead of per call.  The pool holds OS
    processes, so use the pipeline as a context manager (or call
    :meth:`close`) when its lifetime is scoped::

        with PackingPipeline(PipelineConfig(workers=4)) as pipeline:
            for layers in sweeps:
                results.append(pipeline.run(layers))

    ``close()`` is idempotent and a closed pipeline may keep running —
    serial runs never need the pool, and the next parallel ``run()``
    simply spawns a fresh one.  Results are identical whether the pool is
    fresh, reused, borrowed, or absent (``workers=1``).

    Several pipelines with *different* configs can also share one
    executor: pass a running ``ProcessPoolExecutor`` as ``pool`` and the
    pipeline borrows it instead of spawning its own (the borrower never
    shuts it down — the lender keeps ownership).  The figure/table sweeps
    that plan multiple (α, γ) settings per run (fig15a, table2) fork one
    pool this way instead of one per setting.
    """

    def __init__(self, config: PipelineConfig | None = None,
                 pool: ProcessPoolExecutor | None = None,
                 metrics: MetricsRegistry | None = None):
        self.config = config if config is not None else PipelineConfig()
        self._pool = pool
        self._owns_pool = pool is None
        #: Pipeline telemetry: ``packing_stage_seconds{stage=...}``
        #: histograms plus layer/column/tile counters.  Stage timings are
        #: measured inside the (possibly pooled) per-layer flow and ride
        #: home as integers on each :class:`LayerResult`, then fold in
        #: here — the same exact, schedule-independent merge the serving
        #: path uses for worker snapshots.  Pass a shared registry to
        #: aggregate several pipelines into one exposition.
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def _record_layer_metrics(self, layers: Iterable[LayerResult]) -> None:
        for layer in layers:
            for stage, nanoseconds in layer.stage_ns.items():
                self.metrics.histogram("packing_stage_seconds",
                                       labels={"stage": stage}
                                       ).record(nanoseconds / 1e9)
            self.metrics.counter("packing_layers").inc()
            self.metrics.counter("packing_columns_before"
                                 ).inc(layer.columns_before)
            self.metrics.counter("packing_columns_after"
                                 ).inc(layer.columns_after)
            self.metrics.counter("packing_tiles_saved"
                                 ).inc(max(0, layer.tiles_before
                                           - layer.tiles_after))
            self.metrics.counter("packing_pruned_weights"
                                 ).inc(layer.pruned_weights)

    # -- persistent-pool lifecycle ------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent executor: borrowed, or spawned (once) on first use."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.config.workers)
            self._owns_pool = True
        return self._pool

    @property
    def pool_active(self) -> bool:
        """Whether a worker pool (owned or borrowed) is currently attached."""
        return self._pool is not None

    def close(self) -> None:
        """Release the worker pool: shut it down if owned, detach if borrowed."""
        pool, self._pool = self._pool, None
        owned, self._owns_pool = self._owns_pool, True
        if pool is not None and owned:
            pool.shutdown(wait=True)

    def __enter__(self) -> "PackingPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    # -- running ------------------------------------------------------------
    def run_layer(self, name: str, matrix: np.ndarray,
                  layer_index: int = 0) -> LayerResult:
        """The per-layer flow for a single matrix, always in-process."""
        result = _pack_one_layer((self.config, name, matrix, layer_index))
        self._record_layer_metrics([result])
        return result

    def run(self, layers: Sequence[tuple[Any, np.ndarray] | np.ndarray]
            ) -> PipelineResult:
        """Run every layer through the flow, fanning out when ``workers > 1``.

        ``layers`` items may be ``(LayerShape, matrix)`` pairs (as produced
        by :func:`repro.experiments.workloads.sparse_network`),
        ``(name, matrix)`` pairs, or bare matrices (named ``layerN``).
        Results come back in input layer order (see
        :meth:`PipelineResult.packed_layers`).
        """
        tasks = []
        for index, item in enumerate(layers):
            if isinstance(item, tuple):
                layer_id, matrix = item
            else:
                layer_id, matrix = None, item
            tasks.append((self.config, _layer_name(layer_id, index),
                          matrix, index))
        pool = None
        if self.config.workers > 1 and len(tasks) > 1:
            pool = self._ensure_pool()
        results = ordered_pool_map(_pack_one_layer, tasks, self.config.workers,
                                   pool=pool)
        self._record_layer_metrics(results)
        return PipelineResult(self.config, results)
