"""Serving demo: save packed artifacts -> start a server -> fire requests.

The full serving path of the reproduction, end to end:

1. build two sparsified LeNet-5 variants, pack them through the
   :class:`PackingPipeline`, quantize + calibrate one of them,
2. persist both as versioned packed artifacts
   (:func:`~repro.combining.serialization.save_packed`, uncompressed so
   they are memory-mappable) — the format a server cold-starts from
   without re-running the pipeline,
3. register the artifacts by name in a
   :class:`~repro.serving.registry.ModelRegistry` (lazy load, LRU-bounded
   residency) and start an
   :class:`~repro.serving.server.InferenceServer` whose
   :class:`~repro.serving.batcher.DynamicBatcher` coalesces single-sample
   requests into batched forwards,
4. fire a mixed-model request stream from concurrent client threads, and
   check every response is bit-identical to the direct batch-invariant
   forward on that request alone — dynamic batching changes throughput,
   never bits,
5. serve the same stream again on the **process backend** and check the
   responses are bit-identical across backends too,
6. **hot-swap** the float model to a retrained variant while clients are
   mid-flight (:meth:`~repro.serving.registry.ModelRegistry.swap`): the
   new artifact loads off to the side and the entry flips atomically, so
   in-flight requests finish on the old immutable plan, later ones serve
   the new one, and every response is bit-identical to one of the two
   artifacts' direct forwards — zero downtime, zero ambiguous bits,
7. read the per-model latency / batch / systolic-cycle accounting off the
   servers,
8. turn the **observability layer** on (``profile=True`` + request
   tracing) and serve the stream once more: every response stays
   bit-identical to the unobserved run, while the server now reports
   p50/p90/p99 latency digests from exactly-mergeable histograms, the
   batcher's flush-reason split, per-layer wall time, and per-request
   span timelines (enqueue -> coalesce -> forward -> respond),
9. attach the **operational layer**: declare SLO rules (p99 service
   latency, error rate, queue depth), attach the live HTTP exporter on
   an ephemeral port (``server.serve_metrics(port=0)``), scrape
   ``/metrics`` and ``/health`` over real HTTP while the server runs,
   and read the rolling-window quantiles, per-rule verdicts, and the
   lifecycle event log (model loads, exporter start, ...) back off the
   endpoint.

Execution architecture
----------------------

Serving runs on immutable execution plans
(:class:`~repro.combining.execplan.ExecutionPlan`): the registry compiles
(or, for V2 artifacts, directly loads) a read-only, picklable op tree per
model, so forwards never install state into a shared module graph and
need no per-model lock — worker threads run batches for the *same* model
concurrently.  With ``backend="process"`` the server instead ships
``(artifact path, mode, batch)`` to persistent worker processes; each
worker memory-maps the uncompressed artifact (``load_plan(mmap="auto")``)
so all workers share one resident copy of the packed arrays through the
page cache.  Pick the process backend for CPU-bound sustained load on
artifact-backed models, where the GIL caps thread scaling; pick threads
for live (``add()``-registered) models or low request rates.  Either way
the bits never change.

What makes the bits batch-independent are the **batch-invariant kernels**
(:mod:`repro.combining.kernels`).  A general BLAS gemm picks its
blocking — and therefore its float summation order — from the full
operand shapes, so a sample's bits change with the batch it rides in.
The server's blocked kernels pin the whole schedule from
weight / spatial dimensions only: the pointwise contraction runs one
k-blocked ``(n, c) @ (c, H*W)`` gemm per sample, the dense head runs
fixed 16-row tiles, and per-k-block partials sum left to right.  BLAS
never sees the batch size, so splitting a batch concatenates to the
exact whole-batch bits — while the inner blocks still dispatch to BLAS,
measuring ~3.8x faster than the einsum reduction loops they replaced
on the ResNet-20 serving shapes (at or below the raw batched
einsum's own time there; see ``benchmarks/test_bench_serving.py``).

Run with:  python examples/serving_demo.py
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.combining import PipelineConfig, PackedModel, QuantizedPackedModel
from repro.models import build_model
from repro.serving import (
    InferenceServer,
    ModelRegistry,
    load_packed,
    save_packed,
)

MODEL_KWARGS = {"in_channels": 1, "num_classes": 10, "scale": 1.0,
                "image_size": 12}


def build_artifacts(directory: Path) -> dict[str, Path]:
    """Pack two LeNet-5 variants and persist them as packed artifacts."""
    rng = np.random.default_rng(0)
    paths: dict[str, Path] = {}
    model = build_model("lenet5", rng=np.random.default_rng(1), **MODEL_KWARGS)
    for _, layer in model.packable_layers():
        layer.weight.data *= rng.random(layer.weight.data.shape) < 0.2
    packed = PackedModel.from_model(model, PipelineConfig(alpha=8, gamma=0.5))
    spec = {"name": "lenet5", "kwargs": MODEL_KWARGS}
    # compress=False keeps every array memory-mappable: the registry and
    # the process workers map the file instead of copying it.
    paths["lenet5"] = save_packed(packed, directory / "lenet5.packed.npz",
                                  model_spec=spec, compress=False)

    quantized = QuantizedPackedModel(packed, bits=8)
    quantized.calibrate(rng.normal(size=(32, 1, 12, 12)))
    paths["lenet5-int8"] = save_packed(
        quantized, directory / "lenet5.int8.npz", model_spec=spec,
        compress=False)
    for name, path in paths.items():
        print(f"saved artifact {name}: {path.name} "
              f"({path.stat().st_size / 1024:.0f} KiB)")
    return paths


def build_v2_artifact(directory: Path) -> Path:
    """A 'retrained' LeNet-5: same architecture, different weights —
    exactly what a hot-swap target looks like to the registry."""
    rng = np.random.default_rng(9)
    model = build_model("lenet5", rng=np.random.default_rng(8),
                        **MODEL_KWARGS)
    for _, layer in model.packable_layers():
        layer.weight.data *= rng.random(layer.weight.data.shape) < 0.2
    packed = PackedModel.from_model(model, PipelineConfig(alpha=8, gamma=0.5))
    spec = {"name": "lenet5", "kwargs": MODEL_KWARGS}
    return save_packed(packed, directory / "lenet5.v2.packed.npz",
                       model_spec=spec, compress=False)


def build_registry(paths: dict[str, Path]) -> ModelRegistry:
    """A fresh registry over the artifacts (lazy load, LRU residency)."""
    registry = ModelRegistry(max_resident=2)
    registry.register("lenet5", path=paths["lenet5"], mode="exact")
    registry.register("lenet5-int8", path=paths["lenet5-int8"],
                      mode="quantized")
    return registry


def serve_stream(registry: ModelRegistry, requests: list, backend: str
                 ) -> tuple[dict[int, np.ndarray], dict]:
    """Serve the request stream from three client threads; return
    (responses by request index, server stats)."""
    with InferenceServer(registry, max_batch=16, max_wait=0.002,
                         workers=2, backend=backend) as server:
        responses: dict[int, np.ndarray] = {}
        lock = threading.Lock()

        def client(offset: int) -> None:
            # Submit asynchronously, then gather: in-flight requests
            # are what the dynamic batcher coalesces.
            pending = [(index, server.submit(*requests[index]))
                       for index in range(offset, len(requests), 3)]
            for index, request in pending:
                output = request.result(timeout=30.0)
                with lock:
                    responses[index] = output

        threads = [threading.Thread(target=client, args=(offset,))
                   for offset in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = server.stats()
    return responses, stats


def main() -> None:
    rng = np.random.default_rng(42)
    with tempfile.TemporaryDirectory() as tmp:
        paths = build_artifacts(Path(tmp))
        requests = [(name, rng.normal(size=(1, 12, 12)))
                    for _ in range(24) for name in ("lenet5", "lenet5-int8")]

        registry = build_registry(paths)
        responses, stats = serve_stream(registry, requests, backend="thread")

        # Every response must match the direct single-request forward on
        # the loaded plans, bit for bit, however the batcher coalesced.
        exact = registry.get("lenet5")
        int8 = registry.get("lenet5-int8")
        matches = 0
        for index, (name, sample) in enumerate(requests):
            resident = exact if name == "lenet5" else int8
            expected = resident.plan.forward(sample[None], mode=resident.mode,
                                             batch_invariant=True)[0]
            matches += np.array_equal(responses[index], expected)
        print(f"thread backend: responses bit-identical to direct forward: "
              f"{matches}/{len(requests)}")

        # The same stream through the process backend: worker processes
        # mmap the artifacts and must produce the same bits.
        process_responses, process_stats = serve_stream(
            build_registry(paths), requests, backend="process")
        matches = sum(
            np.array_equal(responses[index], process_responses[index])
            for index in range(len(requests)))
        print(f"process backend: responses bit-identical to thread backend: "
              f"{matches}/{len(requests)}")

        # Live hot swap: cut "lenet5" over to the retrained variant while
        # clients are mid-flight.  The new artifact loads off to the side
        # (old plan keeps serving — no drain, no downtime) and the entry
        # flips atomically; every response must be bit-identical to one
        # of the two artifacts' direct forwards.
        v2_path = build_v2_artifact(Path(tmp))
        old_direct = load_packed(paths["lenet5"])
        new_direct = load_packed(v2_path)
        swap_registry = build_registry(paths)
        swap_samples = [rng.normal(size=(1, 12, 12)) for _ in range(24)]
        with InferenceServer(swap_registry, max_batch=8, max_wait=0.002,
                             workers=2) as server:
            pending = [server.submit("lenet5", sample)
                       for sample in swap_samples]
            swap_info = swap_registry.swap("lenet5", v2_path)
            outputs = [request.result(timeout=30.0) for request in pending]
        old_count = sum(
            np.array_equal(output,
                           old_direct.forward(sample[None],
                                              batch_invariant=True)[0])
            for sample, output in zip(swap_samples, outputs))
        new_count = sum(
            np.array_equal(output,
                           new_direct.forward(sample[None],
                                              batch_invariant=True)[0])
            for sample, output in zip(swap_samples, outputs))
        print(f"hot swap under traffic: generation "
              f"{swap_info['generation']}, fingerprint "
              f"{swap_info['previous_fingerprint'][:8]} -> "
              f"{swap_info['fingerprint'][:8]}; "
              f"{old_count} responses on the old artifact, {new_count} on "
              f"the new, {len(swap_samples) - old_count - new_count} "
              f"ambiguous")

        for label, run_stats in [("thread", stats), ("process", process_stats)]:
            totals = run_stats["totals"]
            print(f"[{label}] served {totals['requests']} requests in "
                  f"{totals['batches']} batches "
                  f"(mean batch {totals['mean_batch_size']:.1f}), "
                  f"{totals['cycles']} systolic cycles")
            for name, model_stats in sorted(run_stats["per_model"].items()):
                print(f"  {name}: {model_stats['requests']} requests, "
                      f"mean queue "
                      f"{model_stats['queued_seconds']['mean'] * 1e3:.2f} ms, "
                      f"mean service "
                      f"{model_stats['service_seconds']['mean'] * 1e3:.2f} ms")
        registry_stats = stats["registry"]
        print(f"registry: {registry_stats['loads']} artifact loads, "
              f"{registry_stats['hits']} hits, "
              f"{registry_stats['evictions']} evictions")

        # Observability: the same stream with per-layer profiling and
        # request tracing on.  Profiling wraps each packed layer op in
        # perf-counter reads — it never touches the math, so responses
        # stay bit-identical to the unobserved run.
        with InferenceServer(build_registry(paths), max_batch=16,
                             max_wait=0.002, workers=2, profile=True,
                             trace_capacity=64) as server:
            pending = [(index, server.submit(*requests[index]))
                       for index in range(len(requests))]
            observed = {index: request.result(timeout=30.0)
                        for index, request in pending}
            obs_stats = server.stats()
            profile = server.layer_profile(top=3)
            traces = server.traces(limit=2)
        matches = sum(np.array_equal(responses[index], observed[index])
                      for index in range(len(requests)))
        print(f"profiled+traced run: responses bit-identical to the "
              f"unobserved run: {matches}/{len(requests)}")
        totals = obs_stats["totals"]
        queued, service = totals["queued_seconds"], totals["service_seconds"]
        print(f"latency (all models, exactly merged): queued p50/p99 "
              f"{queued['p50'] * 1e3:.2f}/{queued['p99'] * 1e3:.2f} ms, "
              f"service p50/p99 "
              f"{service['p50'] * 1e3:.2f}/{service['p99'] * 1e3:.2f} ms")
        flush = totals["flush_reasons"]
        print("flush reasons: " + ", ".join(
            f"{reason}={flush[reason]}" for reason in sorted(flush)))
        for name, layers in sorted(profile.items()):
            ranked = ", ".join(
                f"{row['layer']} {row['total_seconds'] * 1e3:.2f} ms"
                for row in layers)
            print(f"  slowest layers [{name}]: {ranked}")
        for trace in traces:
            timeline = " -> ".join(
                f"{span['name']} {span['seconds'] * 1e3:.2f} ms"
                for span in trace["spans"])
            print(f"  trace {trace['trace_id']} ({trace['model']}): "
                  f"{timeline}")

        # Operational layer: SLO rules evaluated over rolling windows,
        # plus the live HTTP exporter — scraped over real HTTP while the
        # server is under traffic.  All of it is wrapping only: the
        # observed responses stay bit-identical (checked above for the
        # profiled run; the exporter only *reads* server state).
        import json
        import urllib.request

        from repro.serving import SLORule

        rules = (
            SLORule("service-p99", "latency_quantile", target=0.5,
                    quantile=0.99, latency="service"),
            SLORule("error-rate", "error_rate", target=0.01),
            SLORule("queue-depth", "queue_depth", target=256),
        )
        with InferenceServer(build_registry(paths), max_batch=16,
                             max_wait=0.002, workers=2,
                             slo=rules) as server:
            exporter = server.serve_metrics(port=0)  # ephemeral port
            pending = [server.submit(*request) for request in requests]
            for request in pending:
                request.result(timeout=30.0)
            with urllib.request.urlopen(exporter.url + "/health",
                                        timeout=10.0) as response:
                health = json.loads(response.read())
                health_status = response.status
            with urllib.request.urlopen(exporter.url + "/metrics",
                                        timeout=10.0) as response:
                metrics_text = response.read().decode("utf-8")
            events = server.events()
        print(f"exporter at {exporter.url}: /health {health_status} "
              f"(status {health['status']!r}), /metrics "
              f"{metrics_text.count(chr(10))} lines of Prometheus text")
        windows = health["windows"]
        service = windows["service"]
        print(f"rolling window ({windows['requests']} requests): service "
              f"p50/p99 {service['p50'] * 1e3:.2f}/"
              f"{service['p99'] * 1e3:.2f} ms")
        for rule in health["slo"]["rules"]:
            print(f"  slo {rule['name']}: value {rule['value']:.4g} vs "
                  f"target {rule['target']:.4g} -> {rule['verdict']}")
        kinds = sorted({event["kind"] for event in events})
        print(f"lifecycle events ({len(events)} retained): "
              + ", ".join(kinds))


if __name__ == "__main__":
    main()
