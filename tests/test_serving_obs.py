"""Observability threaded through the serving stack: profiled forwards
stay bit-identical, histograms merge exactly across process-backend
workers, flush reasons are counted, traces are bounded, and the server's
stats / snapshot / Prometheus surfaces agree with each other.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.combining import save_packed
from repro.combining.serialization import load_plan
from repro.obs import (MetricsRegistry, merge_snapshots,
                       summarize_histogram_state)
from repro.serving import (
    DynamicBatcher,
    FLUSH_REASONS,
    InferenceServer,
    ModelRegistry,
)
from tests.test_serving import (
    MODEL_SPEC,
    build_packed,
    build_quantized,
    direct_forward,
    request_stream,
)


@pytest.fixture(scope="module")
def packed():
    return build_packed()


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, packed):
    path = tmp_path_factory.mktemp("obs") / "lenet5.packed.npz"
    save_packed(packed, path, model_spec=MODEL_SPEC, compress=False)
    return path


@pytest.fixture(scope="module")
def quantized_artifact(tmp_path_factory, packed):
    path = tmp_path_factory.mktemp("obs") / "lenet5.int8.npz"
    save_packed(build_quantized(packed), path, model_spec=MODEL_SPEC,
                compress=False)
    return path


# -- profiled forward is bit-identical ---------------------------------------
@pytest.mark.parametrize("mode", ["exact", "mx"])
@pytest.mark.parametrize("kernel", ["blocked", "loops"])
def test_profiled_plan_forward_is_bit_identical(artifact, mode, kernel,
                                                use_kernel):
    """Profiling wraps each packed layer op in perf-counter reads and
    nothing else, so the profiled forward must return the exact bits of
    the unprofiled one — per mode, per kernel."""
    use_kernel(kernel)
    plan = load_plan(artifact)
    batch = np.random.default_rng(0).normal(size=(5, 1, 8, 8))
    plain = plan.forward(batch, mode=mode, batch_invariant=True)
    profile: dict[str, int] = {}
    profiled = plan.forward(batch, mode=mode, batch_invariant=True,
                            profile=profile)
    assert np.array_equal(plain, profiled)
    assert profile, "profiling recorded no layers"
    assert all(isinstance(ns, int) and ns > 0 for ns in profile.values())


def test_profiled_quantized_plan_forward_is_bit_identical(quantized_artifact):
    plan = load_plan(quantized_artifact)
    batch = np.random.default_rng(1).normal(size=(4, 1, 8, 8))
    plain = plan.forward(batch, mode="quantized", batch_invariant=True)
    profile: dict[str, int] = {}
    profiled = plan.forward(batch, mode="quantized", batch_invariant=True,
                            profile=profile)
    assert np.array_equal(plain, profiled)
    assert profile


SERVER_CELLS = [
    pytest.param(backend, workers, kernel,
                 marks=() if backend == "thread" else pytest.mark.slow,
                 id=f"{backend}-w{workers}-{kernel}")
    for backend in ("thread", "process")
    for workers in (1, 2, 4)
    for kernel in ("blocked", "loops")
]


@pytest.mark.parametrize("backend,workers,kernel", SERVER_CELLS)
def test_observed_serving_is_bit_identical_to_direct(packed, artifact,
                                                     backend, workers,
                                                     kernel, use_kernel):
    """Tracing + per-layer profiling on, across every backend x workers
    x kernel cell: responses must still be bit-identical to the direct
    batch-invariant forward of each request alone."""
    use_kernel(kernel)
    registry = ModelRegistry()
    if backend == "process":
        registry.register("m", path=artifact, mode="exact")
    else:
        registry.add("m", packed)
    requests = request_stream(10, seed=21)
    with InferenceServer(registry, max_batch=8, max_wait=0.002,
                         workers=workers, backend=backend,
                         profile=True, trace_capacity=32) as server:
        outputs = [server.infer("m", request) for request in requests]
        stats = server.stats()
        profile = server.layer_profile()
    for request, output in zip(requests, outputs):
        assert np.array_equal(output,
                              direct_forward(packed, "exact", request))
    assert stats["totals"]["requests"] == len(requests)
    assert profile["m"], "profiling recorded no layers"
    assert stats["traces"]["recorded"] == len(requests)


@pytest.mark.parametrize("backend", [
    "thread", pytest.param("process", marks=pytest.mark.slow)])
def test_backends_share_one_result_contract(artifact, backend):
    """Both backends run one batch executor, so a sequential profiled
    stream (one request per batch) must report the timing model's own
    cycle and tile totals and export the same metric keys and counts on
    either backend."""
    requests = request_stream(6, seed=4)
    plan = load_plan(artifact)
    cycles = tiles = 0
    for request in requests:
        observed: dict[str, tuple[int, int]] = {}
        plan.forward(request, batch_invariant=True, observed=observed)
        modelled = plan.execution_plan(observed=observed,
                                       batch=request.shape[0])
        cycles += modelled.total_cycles
        tiles += modelled.total_tiles
    expected = MetricsRegistry()
    model = {"model": "m"}
    for name in ("serving_queued_seconds", "serving_service_seconds",
                 "serving_forward_seconds"):
        expected.histogram(name, labels=model)
    for layer in plan.layer_names():
        expected.histogram("serving_layer_seconds",
                           labels={**model, "layer": layer})
    expected.counter("serving_batches",
                     labels={**model, "flush_reason": "max_wait"}
                     ).inc(len(requests))
    expected.counter("serving_profiled_batches",
                     labels=model).inc(len(requests))

    registry = ModelRegistry()
    registry.register("m", path=artifact)
    with InferenceServer(registry, max_batch=16, max_wait=0.001,
                         backend=backend, profile=True) as server:
        for request in requests:
            server.infer("m", request)
        totals = server.stats()["totals"]
        snapshot = server.metrics_snapshot()
    assert totals["batches"] == len(requests)
    assert (totals["cycles"], totals["tiles"]) == (cycles, tiles)
    wanted = expected.snapshot()
    assert sorted(snapshot["histograms"]) == sorted(wanted["histograms"])
    assert snapshot["counters"] == wanted["counters"]
    assert snapshot["gauges"] == wanted["gauges"] == {}


# -- exact merge across worker processes --------------------------------------
@pytest.mark.slow
def test_worker_histograms_merge_exactly_across_processes(artifact):
    """Process-backend workers each accumulate their own registries; the
    server-side merge must account for every profiled batch exactly
    (counts add as integers) and be independent of merge order."""
    registry = ModelRegistry()
    registry.register("m", path=artifact, mode="exact")
    requests = request_stream(16, seed=3)
    with InferenceServer(registry, max_batch=4, max_wait=0.001, workers=2,
                         backend="process", profile=True) as server:
        for request in requests:
            server.infer("m", request)
        stats = server.stats()
        snapshot = server.metrics_snapshot()
        worker_snapshots = list(server._worker_snapshots.values())
        own = server._metrics.snapshot()
        prometheus = server.prometheus_text()

    batches = stats["totals"]["batches"]
    assert snapshot["counters"]['serving_profiled_batches{model="m"}'] \
        == batches
    forward = snapshot["histograms"]['serving_forward_seconds{model="m"}']
    assert forward["count"] == batches
    assert summarize_histogram_state(forward)["count"] == batches
    # Per-layer counts: every profiled batch timed every packed layer.
    layer_states = [state for key, state in snapshot["histograms"].items()
                    if key.startswith("serving_layer_seconds")]
    assert layer_states
    assert all(state["count"] == batches for state in layer_states)
    # Merge order cannot matter: integer state everywhere.
    reordered = merge_snapshots([*reversed(worker_snapshots), own])
    forward_reordered = \
        reordered["histograms"]['serving_forward_seconds{model="m"}']
    assert forward_reordered == forward
    assert f'serving_forward_seconds_count{{model="m"}} {batches}' \
        in prometheus.splitlines()


# -- flush reasons ------------------------------------------------------------
def test_batcher_counts_flush_reasons():
    batcher = DynamicBatcher(max_batch=4, max_wait=0.01)
    sample = np.zeros((1, 1, 4, 4))
    for _ in range(4):
        batcher.submit("m", sample)
    full = batcher.next_batch(timeout=1.0)
    assert full.flush_reason == "max_batch"

    batcher.submit("m", sample)
    aged = batcher.next_batch(timeout=1.0)  # waits out max_wait
    assert aged.flush_reason == "max_wait"

    batcher.submit("m", sample)
    batcher.close()
    drained = batcher.next_batch(timeout=1.0)
    assert drained.flush_reason == "drain"

    counts = batcher.flush_reasons
    assert counts == {"max_batch": 1, "max_wait": 1, "drain": 1}
    assert set(counts) == set(FLUSH_REASONS)


def test_server_stats_carry_flush_reasons(packed):
    registry = ModelRegistry()
    registry.add("m", packed)
    requests = request_stream(6, seed=9, max_request=1)
    with InferenceServer(registry, max_batch=2, max_wait=0.001) as server:
        for request in requests:
            server.infer("m", request)
        stats = server.stats()
    flush = stats["totals"]["flush_reasons"]
    assert set(flush) == set(FLUSH_REASONS)
    assert sum(flush.values()) == stats["totals"]["batches"]


# -- stats totals latency aggregates ------------------------------------------
def test_stats_totals_aggregate_latency_across_models(packed, artifact):
    """The bug this PR fixes: totals previously had no queued/service
    aggregates at all.  They must now be the exact merge of the
    per-model histograms."""
    registry = ModelRegistry()
    registry.add("a", packed)
    registry.add("b", packed)
    with InferenceServer(registry, max_batch=4, max_wait=0.001) as server:
        for index, request in enumerate(request_stream(10, seed=2)):
            server.infer("a" if index % 2 else "b", request)
        stats = server.stats()
    totals = stats["totals"]
    for section in ("queued_seconds", "service_seconds"):
        digest = totals[section]
        assert set(digest) == {"count", "mean", "min", "max",
                               "p50", "p90", "p99"}
        per_model = [stats["per_model"][name][section] for name in ("a", "b")]
        assert digest["count"] == sum(entry["count"] for entry in per_model)
        assert digest["max"] == max(entry["max"] for entry in per_model)
        assert digest["min"] == min(entry["min"] for entry in per_model)
        # Exact merge: the nanosecond-integer means recombine exactly.
        merged_sum = sum(entry["mean"] * entry["count"]
                        for entry in per_model)
        assert digest["mean"] * digest["count"] \
            == pytest.approx(merged_sum, rel=1e-12)
        assert digest["p50"] <= digest["p90"] <= digest["p99"] <= digest["max"]
    assert totals["service_seconds"]["max"] > 0.0


# -- tracing through the server -----------------------------------------------
def test_trace_ring_bounds_memory_under_sustained_load(packed):
    registry = ModelRegistry()
    registry.add("m", packed)
    total = 60
    with InferenceServer(registry, max_batch=4, max_wait=0.0005,
                         trace_capacity=8) as server:
        for request in request_stream(total, seed=4, max_request=1):
            server.infer("m", request)
        traces = server.traces()
        stats = server.stats()
    assert stats["traces"]["capacity"] == 8
    assert stats["traces"]["recorded"] == total
    assert stats["traces"]["retained"] == 8
    assert stats["traces"]["dropped"] == total - 8
    assert len(traces) == 8


def test_traces_record_span_timeline_and_flush_reason(packed):
    registry = ModelRegistry()
    registry.add("m", packed)
    with InferenceServer(registry, max_batch=4, max_wait=0.001,
                         profile=True, trace_capacity=16) as server:
        pending = [server.submit("m", request)
                   for request in request_stream(4, seed=6, max_request=1)]
        trace_ids = [request.trace_id for request in pending]
        for request in pending:
            request.result(timeout=30.0)
        traces = server.traces()
    assert all(trace_id is not None for trace_id in trace_ids)
    assert {trace["trace_id"] for trace in traces} == set(trace_ids)
    for trace in traces:
        spans = {span["name"]: span for span in trace["spans"]}
        assert list(spans) == ["enqueue", "coalesce", "forward", "respond"]
        assert spans["coalesce"]["attributes"]["flush_reason"] \
            in FLUSH_REASONS
        forward = spans["forward"]["attributes"]
        assert forward["backend"] == "thread"
        assert forward["layer_ns"], "profiled trace carries layer timings"
        assert spans["respond"]["attributes"]["failed"] is False
        # Timeline is contiguous: enqueue/coalesce end at dispatch,
        # forward starts there, respond follows forward.
        assert spans["enqueue"]["end"] == spans["coalesce"]["end"] \
            == spans["forward"]["start"]
        assert spans["forward"]["end"] == spans["respond"]["start"]


def test_trace_capacity_zero_disables_tracing(packed):
    registry = ModelRegistry()
    registry.add("m", packed)
    with InferenceServer(registry, max_batch=4, max_wait=0.001,
                         trace_capacity=0) as server:
        for request in request_stream(4, seed=8, max_request=1):
            server.infer("m", request)
        assert server.traces() == []
        assert server.stats()["traces"]["retained"] == 0


def test_failed_batches_trace_the_error(packed):
    registry = ModelRegistry()
    registry.add("m", packed)
    bad = np.zeros((1, 1, 3, 3))  # wrong spatial size -> forward raises
    with InferenceServer(registry, max_batch=2, max_wait=0.0005,
                         trace_capacity=8) as server:
        request = server.submit("m", bad)
        with pytest.raises(Exception):
            request.result(timeout=30.0)
        traces = server.traces()
        stats = server.stats()
    assert stats["totals"]["failures"] == 1
    respond = traces[-1]["spans"][-1]
    assert respond["attributes"]["failed"] is True
    assert respond["attributes"]["error"]


# -- thread-backend profiling lands in the server registry --------------------
def test_thread_profile_populates_registry_and_layer_profile(packed):
    registry = ModelRegistry()
    registry.add("m", packed)
    requests = request_stream(8, seed=13)
    with InferenceServer(registry, max_batch=4, max_wait=0.001,
                         profile=True) as server:
        for request in requests:
            server.infer("m", request)
        stats = server.stats()
        snapshot = server.metrics_snapshot()
        profile = server.layer_profile(top=1)
    batches = stats["totals"]["batches"]
    assert snapshot["counters"]['serving_profiled_batches{model="m"}'] \
        == batches
    queued = snapshot["histograms"]['serving_queued_seconds{model="m"}']
    assert queued["count"] == stats["totals"]["requests"]
    assert len(profile["m"]) == 1
    top = profile["m"][0]
    assert top["batches"] == batches
    assert top["total_seconds"] > 0.0
    assert top["mean_seconds"] == pytest.approx(top["total_seconds"]
                                                / top["batches"])


def test_unprofiled_server_records_no_layer_metrics(packed):
    registry = ModelRegistry()
    registry.add("m", packed)
    with InferenceServer(registry, max_batch=4, max_wait=0.001) as server:
        for request in request_stream(4, seed=17, max_request=1):
            server.infer("m", request)
        snapshot = server.metrics_snapshot()
        assert server.layer_profile() == {}
    assert not any(key.startswith("serving_layer_seconds")
                   for key in snapshot["histograms"])
