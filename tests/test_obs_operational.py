"""The operational observability layer: rolling windows, the SLO engine,
the lifecycle event log, the live HTTP exporter, pipeline stage metrics,
and Chrome-trace export.

Two properties anchor everything here:

* **Determinism under an injected clock.**  Windows bucket by the
  absolute index of a plain callable clock, so a fake clock drives
  rotation, expiry, and SLO breach -> recover transitions exactly.
* **Wrapping only.**  A server with the exporter attached, the SLO
  engine evaluating, and the event log enabled must return bit-identical
  responses to bare serving — across backends, worker counts, and
  kernels.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.combining import (
    PackingPipeline,
    PipelineConfig,
    save_packed,
)
from repro.combining.pipeline import PIPELINE_STAGES
from repro.obs import (
    EventLog,
    MetricsRegistry,
    ObservabilityExporter,
    SLOEngine,
    SLORule,
    Span,
    Trace,
    WindowedCounter,
    WindowedHistogram,
    chrome_trace_from_pipeline,
    chrome_trace_from_traces,
    worst_verdict,
    write_chrome_trace,
)
from repro.serving import InferenceServer, ModelRegistry
from tests.test_serving import (
    MODEL_SPEC,
    build_packed,
    direct_forward,
    request_stream,
)


class FakeClock:
    """An injectable wall clock the tests advance by hand."""

    def __init__(self, start: float = 1_000_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def packed():
    return build_packed()


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, packed):
    path = tmp_path_factory.mktemp("ops") / "lenet5.packed.npz"
    save_packed(packed, path, model_spec=MODEL_SPEC, compress=False)
    return path


def _get(url: str) -> tuple[int, str]:
    """GET without raising on 4xx/5xx; returns (status, body text)."""
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


# -- rolling windows ----------------------------------------------------------
def test_window_validation():
    with pytest.raises(ValueError):
        WindowedHistogram(bucket_seconds=0.0)
    with pytest.raises(ValueError):
        WindowedHistogram(buckets=0)
    with pytest.raises(ValueError):
        WindowedCounter().inc(-1)


def test_windowed_histogram_rotates_and_expires_under_fake_clock():
    clock = FakeClock()
    window = WindowedHistogram(bucket_seconds=5.0, buckets=3, clock=clock)
    window.record(0.010)
    clock.advance(5.0)
    window.record(0.020)
    assert len(window) == 2
    assert window.count == 2

    # Two more bucket widths: the first bucket ages out of the 3-bucket
    # window, the second survives at the window's trailing edge.
    clock.advance(10.0)
    assert len(window) == 1
    assert window.count == 1
    assert window.quantile(0.5) == pytest.approx(0.020, rel=0.2)

    # One more width and the window drains to empty.
    clock.advance(5.0)
    assert len(window) == 0
    assert window.count == 0
    assert window.summary()["count"] == 0


def test_window_memory_stays_bounded_forever():
    clock = FakeClock()
    window = WindowedHistogram(bucket_seconds=1.0, buckets=4, clock=clock)
    for _ in range(100):
        window.record(0.001)
        clock.advance(1.0)
        assert len(window) <= 4


def test_window_partitions_merge_exactly_in_any_order():
    """Split one observation stream across three windows under a shared
    clock; merging their states back — in any order — must reproduce the
    single-stream window state bit for bit."""
    import random

    rng = random.Random(5)
    clock = FakeClock()
    reference = WindowedHistogram(bucket_seconds=5.0, buckets=12,
                                  clock=clock)
    partitions = [WindowedHistogram(bucket_seconds=5.0, buckets=12,
                                    clock=clock) for _ in range(3)]
    for _ in range(200):
        value = rng.uniform(1e-5, 0.5)
        reference.record(value)
        partitions[rng.randrange(3)].record(value)
        if rng.random() < 0.1:
            clock.advance(5.0)

    states = [partition.state() for partition in partitions]
    forward = WindowedHistogram(bucket_seconds=5.0, buckets=12, clock=clock)
    backward = WindowedHistogram(bucket_seconds=5.0, buckets=12, clock=clock)
    for state in states:
        forward.merge_state(state)
    for state in reversed(states):
        backward.merge_state(state)
    assert forward.state() == backward.state() == reference.state()
    assert forward.merged().to_dict() == reference.merged().to_dict()


def test_window_merge_rejects_geometry_mismatch():
    window = WindowedHistogram(bucket_seconds=5.0, buckets=12)
    other = WindowedHistogram(bucket_seconds=1.0, buckets=12)
    with pytest.raises(ValueError):
        window.merge_state(other.state())
    counter = WindowedCounter(bucket_seconds=5.0, buckets=12)
    with pytest.raises(ValueError):
        counter.merge_state(WindowedCounter(buckets=6).state())


def test_windowed_counter_rates_and_exact_merge():
    clock = FakeClock()
    counter = WindowedCounter(bucket_seconds=5.0, buckets=2, clock=clock)
    counter.inc(3)
    clock.advance(5.0)
    counter.inc(2)
    assert counter.total() == 5
    assert counter.rate() == pytest.approx(5 / 10.0)
    other = WindowedCounter(bucket_seconds=5.0, buckets=2, clock=clock)
    other.inc(4)
    counter.merge_state(other.state())
    assert counter.total() == 9
    # The first bucket expires once the clock moves another width on.
    clock.advance(5.0)
    assert counter.total() == 6


# -- SLO rules and engine -----------------------------------------------------
def test_slo_rule_validation_and_verdict_bands():
    with pytest.raises(ValueError):
        SLORule("r", "latency_mean", 0.1)
    with pytest.raises(ValueError):
        SLORule("r", "latency_quantile", 0.1, quantile=1.5)
    with pytest.raises(ValueError):
        SLORule("r", "latency_quantile", -1.0)
    with pytest.raises(ValueError):
        SLORule("r", "latency_quantile", 0.1, warn_ratio=1.5)
    with pytest.raises(ValueError):
        SLORule("r", "latency_quantile", 0.1, latency="tail")

    rule = SLORule("p99", "latency_quantile", target=0.100, warn_ratio=0.8)
    assert rule.verdict(0.050) == "ok"
    assert rule.verdict(0.090) == "warn"
    assert rule.verdict(0.150) == "breach"
    assert worst_verdict(["ok", "breach", "warn"]) == "breach"
    assert worst_verdict([]) == "ok"


def test_slo_engine_rejects_duplicate_rule_names():
    with pytest.raises(ValueError):
        SLOEngine([SLORule("r", "error_rate", 0.1),
                   SLORule("r", "queue_depth", 10.0)])


def test_slo_breach_and_recover_under_fake_clock():
    """Slow latencies breach the rule (one burn episode starts, the
    transition emits an event); once they age out of the rolling window
    the verdict recovers and the recover transition is emitted."""
    clock = FakeClock()
    events = EventLog(clock=clock)
    engine = SLOEngine([SLORule("p99", "latency_quantile", target=0.010,
                                quantile=0.99, latency="service")],
                       bucket_seconds=5.0, buckets=3, clock=clock,
                       events=events)
    for _ in range(10):
        engine.observe_latency("service", 0.200)
    report = engine.evaluate()
    assert report.overall == "breach"
    [row] = report.rules
    assert row["verdict"] == "breach"
    assert row["value"] > 0.010
    assert row["burn"]["breaching"] is True
    assert row["burn"]["episodes"] == 1
    assert [e["kind"] for e in events.snapshot()] == ["slo_breach"]

    # Still breaching on re-evaluation: no new episode, no new event.
    assert engine.evaluate().overall == "breach"
    assert engine.evaluate().rules[0]["burn"]["episodes"] == 1
    assert len(events) == 1

    # Advance past the whole window: the slow observations expire, the
    # empty window measures ok, and the recover edge is emitted once.
    clock.advance(engine.windows["service"].window_seconds + 5.0)
    report = engine.evaluate()
    assert report.overall == "ok"
    assert report.rules[0]["burn"]["breaching"] is False
    assert [e["kind"] for e in events.snapshot()] \
        == ["slo_breach", "slo_recover"]


def test_slo_error_rate_and_queue_depth_rules():
    clock = FakeClock()
    engine = SLOEngine([SLORule("errors", "error_rate", target=0.10),
                        SLORule("depth", "queue_depth", target=4.0)],
                       clock=clock)
    for index in range(10):
        engine.observe_request(failed=index < 2)  # 20% failures
    engine.observe_queue_depth(9)
    report = engine.evaluate()
    by_name = {row["name"]: row for row in report.rules}
    assert by_name["errors"]["verdict"] == "breach"
    assert by_name["errors"]["value"] == pytest.approx(0.2)
    assert by_name["depth"]["verdict"] == "breach"
    assert report.overall == "breach"
    summaries = engine.window_summaries()
    assert summaries["requests"] == 10
    assert summaries["failures"] == 2


def test_slo_empty_windows_evaluate_ok():
    """An idle server is healthy: empty windows measure 0 everywhere."""
    engine = SLOEngine([SLORule("p99", "latency_quantile", target=1e-9),
                        SLORule("errors", "error_rate", target=1e-9)])
    assert engine.evaluate().overall == "ok"


# -- event log ----------------------------------------------------------------
def test_event_log_is_bounded_and_counts_survive_overwrite():
    clock = FakeClock()
    log = EventLog(capacity=4, clock=clock)
    for index in range(10):
        log.emit("tick" if index % 2 else "tock", index=index)
        clock.advance(1.0)
    assert len(log) == 4
    stats = log.stats()
    assert stats["capacity"] == 4
    assert stats["retained"] == 4
    assert stats["emitted"] == 10
    assert stats["dropped"] == 6
    # Per-kind counts cover every emit, not just the retained ring.
    assert stats["kinds"] == {"tick": 5, "tock": 5}

    snapshot = log.snapshot()
    assert [event["attributes"]["index"] for event in snapshot] \
        == [6, 7, 8, 9]
    sequences = [event["seq"] for event in snapshot]
    assert sequences == sorted(sequences)
    assert snapshot[0]["timestamp"] == pytest.approx(1_000_006.0)
    assert [e["attributes"]["index"] for e in log.snapshot(kind="tock")] \
        == [6, 8]
    assert len(log.snapshot(limit=2)) == 2


def test_registry_emits_lifecycle_events(artifact, tmp_path, packed):
    """Loads, LRU evictions, swaps, and load failures all land in the
    registry's event log as timestamped, attributed records."""
    registry = ModelRegistry(max_resident=1)
    registry.register("a", path=artifact, mode="exact")
    registry.register("b", path=artifact, mode="exact")
    registry.get("a")
    registry.get("b")  # evicts "a" (max_resident=1)
    kinds = [event["kind"] for event in registry.event_log.snapshot()]
    assert kinds == ["model_load", "model_evict", "model_load"]
    load = registry.event_log.snapshot(kind="model_load")[0]
    assert load["attributes"]["model"] == "a"
    assert load["attributes"]["fingerprint"]
    evict = registry.event_log.snapshot(kind="model_evict")[0]
    assert evict["attributes"]["model"] == "a"

    swap_info = registry.swap("b", artifact)
    [swap] = registry.event_log.snapshot(kind="model_swap")
    assert swap["attributes"]["generation"] == swap_info["generation"]
    assert swap["attributes"]["fingerprint"] == swap_info["fingerprint"]
    assert swap["attributes"]["previous_fingerprint"] \
        == swap_info["previous_fingerprint"]

    # Registration validates the path, so break the artifact *after*
    # registering it: the lazy load then fails and records the failure.
    import shutil

    doomed = tmp_path / "doomed.npz"
    shutil.copyfile(artifact, doomed)
    registry.register("missing", path=doomed, mode="exact")
    doomed.unlink()
    with pytest.raises(Exception):
        registry.get("missing")
    [failure] = registry.event_log.snapshot(kind="load_failure")
    assert failure["attributes"]["model"] == "missing"
    assert failure["attributes"]["error"]


# -- the HTTP exporter --------------------------------------------------------
class _StubProvider:
    """Minimal duck-typed provider: the exporter needs nothing more."""

    def __init__(self, status: str = "ok"):
        self.status = status

    def prometheus_text(self) -> str:
        return "# TYPE up gauge\nup 1\n"

    def stats(self) -> dict:
        return {"requests": 7}

    def health(self) -> dict:
        return {"live": True, "status": self.status}

    def traces(self, limit=None) -> list:
        return [{"trace_id": "t-1"}][:limit]

    def events(self, limit=None) -> list:
        return [{"kind": "server_start"}, {"kind": "model_load"}][:limit]


def test_exporter_routes_status_codes_and_limits():
    provider = _StubProvider()
    exporter = ObservabilityExporter(provider, port=0).start()
    try:
        assert exporter.port != 0  # ephemeral bind reports the real port
        status, body = _get(exporter.url + "/metrics")
        assert status == 200 and body.startswith("# TYPE up gauge")
        status, body = _get(exporter.url + "/health")
        assert status == 200 and json.loads(body)["status"] == "ok"

        provider.status = "warn"  # a page, not an outage: still 200
        assert _get(exporter.url + "/health")[0] == 200
        provider.status = "breach"  # down to a load balancer: 503
        status, body = _get(exporter.url + "/health")
        assert status == 503 and json.loads(body)["status"] == "breach"

        assert json.loads(_get(exporter.url + "/stats")[1]) \
            == {"requests": 7}
        assert json.loads(_get(exporter.url + "/traces")[1]) \
            == {"traces": [{"trace_id": "t-1"}]}
        events = json.loads(_get(exporter.url + "/events?limit=1")[1])
        assert events == {"events": [{"kind": "server_start"}]}

        status, body = _get(exporter.url + "/nope")
        assert status == 404
        assert "/metrics" in json.loads(body)["routes"]

        with pytest.raises(RuntimeError):
            exporter.start()
    finally:
        exporter.close()
    exporter.close()  # idempotent


def test_exporter_concurrent_scrapes_while_serving(packed):
    """Scrape every route from several threads while requests are in
    flight: every response parses, the registry stays consistent, and
    ``stop()`` shuts the endpoint down cleanly."""
    registry = ModelRegistry()
    registry.add("m", packed)
    requests = request_stream(24, seed=11)
    scrape_errors: list[str] = []
    statuses: list[int] = []
    lock = threading.Lock()

    server = InferenceServer(registry, max_batch=8, max_wait=0.002,
                             workers=2, trace_capacity=16,
                             slo=[SLORule("p99", "latency_quantile", 5.0)])
    server.start()
    exporter = server.serve_metrics(port=0)
    url = exporter.url
    assert server.exporter is exporter
    with pytest.raises(RuntimeError):
        server.serve_metrics()  # one endpoint per server

    def scraper() -> None:
        for _ in range(8):
            for route in ("/metrics", "/health", "/stats", "/traces",
                          "/events"):
                try:
                    status, body = _get(url + route)
                    if route != "/metrics":
                        json.loads(body)
                    with lock:
                        statuses.append(status)
                except Exception as error:  # noqa: BLE001 - collected
                    with lock:
                        scrape_errors.append(f"{route}: {error}")

    scrapers = [threading.Thread(target=scraper) for _ in range(4)]
    for thread in scrapers:
        thread.start()
    pending = [server.submit("m", request) for request in requests]
    outputs = [request.result(timeout=30.0) for request in pending]
    for thread in scrapers:
        thread.join()

    assert not scrape_errors
    assert statuses and all(status == 200 for status in statuses)
    # Served bits and accounting are unperturbed by the scrape storm.
    for request, output in zip(requests, outputs):
        assert np.array_equal(output, direct_forward(packed, "exact",
                                                     request))
    stats = server.stats()
    assert stats["totals"]["requests"] == len(requests)
    assert stats["windows"]["requests"] == len(requests)

    server.stop()
    assert server.exporter is None
    assert not exporter.running
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(url + "/metrics", timeout=2.0)


def test_health_flips_on_breach_and_recovers_on_live_server(packed):
    """The acceptance scenario: an induced latency breach flips /health
    to 503, and advancing the (injected) clock past the rolling window
    recovers it to 200 — on a real serving stack over real HTTP."""
    clock = FakeClock()
    registry = ModelRegistry()
    registry.add("m", packed)
    # Any real service latency breaches a 1ns target.
    with InferenceServer(registry, max_batch=4, max_wait=0.001,
                         slo=[SLORule("p99", "latency_quantile", 1e-9,
                                      latency="service")],
                         clock=clock) as server:
        exporter = server.serve_metrics(port=0)
        for request in request_stream(4, seed=2):
            server.infer("m", request)
        status, body = _get(exporter.url + "/health")
        assert status == 503
        health = json.loads(body)
        assert health["status"] == "breach"
        assert health["live"] is True

        clock.advance(server.slo.windows["service"].window_seconds + 10.0)
        status, body = _get(exporter.url + "/health")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        kinds = [event["kind"] for event in server.events()]
        assert "slo_breach" in kinds and "slo_recover" in kinds


# -- wrapping only: observed serving stays bit-identical ----------------------
OPERATIONAL_CELLS = [
    pytest.param(backend, workers, kernel,
                 marks=() if backend == "thread" else pytest.mark.slow,
                 id=f"{backend}-w{workers}-{kernel}")
    for backend in ("thread", "process")
    for workers in (1, 2, 4)
    for kernel in ("blocked", "loops")
]


@pytest.mark.parametrize("backend,workers,kernel", OPERATIONAL_CELLS)
def test_operational_serving_is_bit_identical_to_direct(packed, artifact,
                                                        backend, workers,
                                                        kernel, use_kernel):
    """Exporter attached, SLO engine evaluating, event log enabled —
    across every backend x workers x kernel cell the responses must
    still match the direct batch-invariant forward bit for bit."""
    use_kernel(kernel)
    registry = ModelRegistry()
    if backend == "process":
        registry.register("m", path=artifact, mode="exact")
    else:
        registry.add("m", packed)
    requests = request_stream(8, seed=33)
    rules = [SLORule("p99", "latency_quantile", 5.0),
             SLORule("errors", "error_rate", 0.5)]
    with InferenceServer(registry, max_batch=8, max_wait=0.002,
                         workers=workers, backend=backend,
                         slo=rules, trace_capacity=16) as server:
        exporter = server.serve_metrics(port=0)
        outputs = [server.infer("m", request) for request in requests]
        health = json.loads(_get(exporter.url + "/health")[1])
        stats = server.stats()
    for request, output in zip(requests, outputs):
        assert np.array_equal(output, direct_forward(packed, "exact",
                                                     request))
    assert health["status"] in ("ok", "warn")
    assert stats["windows"]["requests"] == len(requests)
    assert stats["events"]["emitted"] >= 2  # server_start, exporter_start


# -- pipeline stage instrumentation ------------------------------------------
def small_layers(seed: int = 0, count: int = 3):
    rng = np.random.default_rng(seed)
    layers = []
    for index in range(count):
        rows, cols = 40 + 8 * index, 36 + 4 * index
        matrix = rng.normal(size=(rows, cols)) \
            * (rng.random((rows, cols)) < 0.2)
        layers.append((f"layer-{index}", matrix))
    return layers


def test_pipeline_stage_spans_and_metrics():
    """Each packed layer carries group/prune/pack/tile stage spans, and
    an attached registry accumulates stage histograms + counters —
    without changing the packed results."""
    layers = small_layers()
    config = PipelineConfig(alpha=8, gamma=0.5)
    metrics = MetricsRegistry()
    result = PackingPipeline(config, metrics=metrics).run(layers)
    bare = PackingPipeline(config).run(layers)

    for observed, reference in zip(result.layers, bare.layers):
        assert observed.grouping.groups == reference.grouping.groups
        np.testing.assert_array_equal(observed.packed.weights,
                                      reference.packed.weights)
        assert set(observed.stage_ns) == set(PIPELINE_STAGES)
        assert all(ns >= 0 for ns in observed.stage_ns.values())
        assert [name for name, _, _ in observed.stage_spans] \
            == list(PIPELINE_STAGES)
        for _, start, end in observed.stage_spans:
            assert 0 <= start <= end
        assert observed.epoch > 1e9
        assert observed.worker_pid > 0

    totals = result.stage_ns_totals()
    assert set(totals) == set(PIPELINE_STAGES)
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["packing_layers"] == len(layers)
    for stage in PIPELINE_STAGES:
        key = f'packing_stage_seconds{{stage="{stage}"}}'
        assert snapshot["histograms"][key]["counts"], key
        state = snapshot["histograms"][key]
        assert sum(state["counts"]) == len(layers)


def test_pipeline_metrics_are_schedule_independent():
    """Counter totals and histogram observation counts must not depend
    on how layers were fanned out across pool workers."""
    layers = small_layers(seed=4, count=4)
    config_serial = PipelineConfig(alpha=8, gamma=0.5, workers=1)
    config_parallel = PipelineConfig(alpha=8, gamma=0.5, workers=2)
    serial_metrics = MetricsRegistry()
    parallel_metrics = MetricsRegistry()
    with PackingPipeline(config_serial,
                         metrics=serial_metrics) as pipeline:
        serial = pipeline.run(layers)
    with PackingPipeline(config_parallel,
                         metrics=parallel_metrics) as pipeline:
        parallel = pipeline.run(layers)

    assert serial.layer_names() == parallel.layer_names()
    for a, b in zip(serial.layers, parallel.layers):
        np.testing.assert_array_equal(a.packed.weights, b.packed.weights)

    serial_snapshot = serial_metrics.snapshot()
    parallel_snapshot = parallel_metrics.snapshot()
    # Work counters are exact integers: identical under any schedule.
    assert serial_snapshot["counters"] == parallel_snapshot["counters"]
    # Histogram *timings* differ run to run, but every layer is counted.
    for key, state in serial_snapshot["histograms"].items():
        assert sum(parallel_snapshot["histograms"][key]["counts"]) \
            == sum(state["counts"])


# -- Chrome trace export ------------------------------------------------------
def test_chrome_trace_from_serving_traces():
    trace = Trace("req-000001", "m", epoch=1_000_000.0, anchor=100.0)
    trace.add_span(Span("enqueue", 101.0, 101.5))
    trace.add_span(Span("forward", 101.5, 102.0, {"backend": "thread"}))
    events = chrome_trace_from_traces([trace, trace.to_dict()])
    assert len(events) == 6  # (1 metadata + 2 spans) x 2 traces
    metadata = [e for e in events if e["ph"] == "M"]
    assert all(e["name"] == "thread_name" for e in metadata)
    assert "req-000001" in metadata[0]["args"]["name"]
    spans = [e for e in events if e["ph"] == "X"]
    forward = next(e for e in spans if e["name"] == "forward")
    # Wall-anchored: epoch + (start - anchor), in microseconds.
    assert forward["ts"] == pytest.approx((1_000_000.0 + 1.5) * 1e6)
    assert forward["dur"] == pytest.approx(0.5e6)
    assert forward["args"]["backend"] == "thread"
    assert forward["args"]["trace_id"] == "req-000001"
    json.dumps(events)  # JSON-serializable end to end


def test_chrome_trace_from_pipeline_and_write(tmp_path):
    result = PackingPipeline(PipelineConfig(alpha=8, gamma=0.5)).run(
        small_layers(count=2))
    events = chrome_trace_from_pipeline(result)
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 2 * len(PIPELINE_STAGES)
    assert {e["name"] for e in spans} == set(PIPELINE_STAGES)
    assert all(e["dur"] >= 0 for e in spans)

    path = write_chrome_trace(tmp_path / "sub" / "pipeline.json", events)
    document = json.loads(path.read_text())
    assert document["displayTimeUnit"] == "ms"
    assert len(document["traceEvents"]) == len(events)
