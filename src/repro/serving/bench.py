"""Serving benchmarks: batching throughput, artifact cold-start, backends.

Three measurements justify the serving subsystem, and this module is
their single implementation (used by the ``repro serve-bench`` CLI and
asserted by ``benchmarks/test_bench_serving.py``):

* **Dynamic batching vs one-request-at-a-time** — the same stream of
  single-sample requests is served twice, once with ``max_batch=1``
  (every request is its own forward) and once with the real ``max_batch``;
  the per-forward fixed cost amortizes across the coalesced batch, so
  batched throughput wins while every response stays bit-identical to
  the direct forward (checked here, too).
* **Artifact load vs re-packing** — cold-starting a server by
  :func:`~repro.combining.serialization.load_packed` versus re-running
  the :class:`~repro.combining.pipeline.PackingPipeline` on the same
  weights.
* **Process vs thread backend scaling** — the same stream served under
  ``backend="thread"`` and ``backend="process"`` at increasing worker
  counts.  Thread workers contend on the GIL for the Python-loop parts
  of plan execution; process workers each mmap the artifact and run
  fully parallel, so CPU-bound models scale with workers.  Responses
  must stay bit-identical across every (backend, workers) cell — the
  invariant the plan refactor bought.

:func:`hot_swap_benchmark` measures live redeploy: clients keep
submitting while :meth:`~repro.serving.registry.ModelRegistry.swap`
repeatedly cuts the model over between two artifacts, and every response
must be bit-identical to one of the two artifacts' direct forwards —
zero dropped requests, zero ambiguous bits — while the swap wall time
(probe + side-load + atomic flip) is reported per cutover.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from time import monotonic
from typing import Any

import numpy as np

from repro.combining.inference import PackedModel
from repro.combining.pipeline import PipelineConfig
from repro.combining.quantized import QuantizedPackedModel
from repro.combining.serialization import load_packed
from repro.obs.slo import SLORule
from repro.serving.registry import ModelRegistry
from repro.serving.server import InferenceServer


def default_slo_rules(latency_target: float = 0.25,
                      error_rate: float = 0.01,
                      queue_depth: int = 256) -> tuple[SLORule, ...]:
    """The stock rule set ``serve-bench --slo`` evaluates.

    One rule per kind: p99 service latency under ``latency_target``
    seconds, failed-request fraction under ``error_rate``, and pending
    queue depth under ``queue_depth``.
    """
    return (
        SLORule("service-p99", "latency_quantile", latency_target,
                quantile=0.99, latency="service"),
        SLORule("error-rate", "error_rate", error_rate),
        SLORule("queue-depth", "queue_depth", float(queue_depth)),
    )


def _scrape(url: str) -> tuple[int, str]:
    """GET ``url``; returns ``(status, body)`` without raising on 4xx/5xx."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def resolve_sample_shape(loaded: PackedModel | QuantizedPackedModel,
                         image_size: int,
                         model_spec: dict[str, Any] | None = None
                         ) -> tuple[int, int, int]:
    """The ``(C, H, W)`` a request to this model must have.

    Channels come from the first packed layer's original filter matrix;
    the spatial size comes from the artifact's ``model_spec`` when it
    records one (architectures like LeNet-5 bake the image size into
    their classifier shapes) and from ``image_size`` otherwise.
    """
    packed = loaded.packed if isinstance(loaded, QuantizedPackedModel) else loaded
    if not packed.specs:
        raise ValueError("model has no packed layers")
    channels = packed.specs[0].packed.original_shape[1]
    if model_spec is not None:
        image_size = int(model_spec.get("kwargs", {}).get("image_size",
                                                          image_size))
    return channels, image_size, image_size


def _serving_mode(loaded: PackedModel | QuantizedPackedModel) -> str:
    return ("quantized" if isinstance(loaded, QuantizedPackedModel)
            else "exact")


def _serve_stream(loaded: PackedModel | QuantizedPackedModel,
                  samples: np.ndarray, max_batch: int, max_wait: float,
                  workers: int = 1, backend: str = "thread",
                  path: str | Path | None = None, profile: bool = False,
                  trace_capacity: int = 0,
                  slo_rules: tuple[SLORule, ...] | None = None,
                  export_port: int | None = None
                  ) -> tuple[float, list[np.ndarray], dict[str, Any],
                             dict[str, Any]]:
    """Serve every sample as its own request.

    Returns ``(seconds, outputs, stats, obs)`` — ``obs`` carries the
    server's observability exports (per-layer profile, retained traces,
    merged metrics snapshot); empty-ish unless ``profile`` /
    ``trace_capacity`` opt in.  ``slo_rules`` installs the rules on the
    server's SLO engine; ``export_port`` (0 = ephemeral) attaches the
    live HTTP exporter for the run and scrapes ``/metrics`` + ``/health``
    once before shutdown — both land under ``obs["operational"]``.  The
    thread backend serves the live ``loaded`` model directly; the
    process backend needs ``path``, because its workers map the artifact
    themselves rather than receiving a model.
    """
    registry = ModelRegistry(max_resident=1)
    if backend == "process":
        if path is None:
            raise ValueError(
                "the process backend serves artifact-backed registrations; "
                "pass the artifact path")
        registry.register("bench", path=path, mode=_serving_mode(loaded))
    else:
        registry.add("bench", loaded)
    with InferenceServer(registry, max_batch=max_batch, max_wait=max_wait,
                         workers=workers, backend=backend, profile=profile,
                         trace_capacity=trace_capacity,
                         slo=slo_rules) as server:
        exporter = (server.serve_metrics(port=export_port)
                    if export_port is not None else None)
        started = monotonic()
        pending = [server.submit("bench", sample) for sample in samples]
        outputs = [request.result(timeout=120.0) for request in pending]
        elapsed = monotonic() - started
        stats = server.stats()
        obs = {
            "layer_profile": server.layer_profile(),
            "traces": server.traces(),
            "metrics_snapshot": server.metrics_snapshot(),
        }
        if slo_rules is not None or exporter is not None:
            health = server.health()
            operational: dict[str, Any] = {
                "health": health,
                "slo": health["slo"],
                "windows": health["windows"],
                "events": server.events(),
            }
            if exporter is not None:
                health_status, health_body = _scrape(exporter.url + "/health")
                metrics_status, metrics_body = _scrape(
                    exporter.url + "/metrics")
                operational["exporter"] = {
                    "url": exporter.url,
                    "health_status": health_status,
                    "health_body": health_body,
                    "metrics_status": metrics_status,
                    "metrics_lines": metrics_body.count("\n"),
                }
            obs["operational"] = operational
    return elapsed, outputs, stats, obs


def _direct_reference(loaded: PackedModel | QuantizedPackedModel):
    """The per-sample reference forward every served response must match."""
    if isinstance(loaded, QuantizedPackedModel):
        def direct(sample: np.ndarray) -> np.ndarray:
            return loaded.forward(sample[None], track_errors=False,
                                  batch_invariant=True)[0]
    else:
        def direct(sample: np.ndarray) -> np.ndarray:
            return loaded.forward(sample[None], batch_invariant=True)[0]
    return direct


def _top_layers(layer_profile: dict[str, list[dict[str, Any]]],
                top: int = 3) -> list[dict[str, Any]]:
    """The ``top`` slowest layers across every model in a layer profile."""
    rows = [dict(row, model=model)
            for model, layers in layer_profile.items() for row in layers]
    rows.sort(key=lambda row: (-row["total_seconds"], row["layer"]))
    return rows[:top]


def throughput_benchmark(loaded: PackedModel | QuantizedPackedModel,
                         samples: np.ndarray, max_batch: int = 16,
                         max_wait: float = 0.002, workers: int = 1,
                         backend: str = "thread",
                         path: str | Path | None = None,
                         profile: bool = False,
                         trace: bool = False,
                         slo_rules: tuple[SLORule, ...] | None = None,
                         export_port: int | None = None) -> dict[str, Any]:
    """Serve ``samples`` one-at-a-time and batched; verify bit-identity.

    Every sample becomes one single-sample request.  The returned mapping
    carries both wall times, both throughputs (requests/second), the
    speedup, the servers' batch-size accounting, the batched server's
    systolic cycles, the batched run's queued / service
    latency digests (p50/p90/p99 from the server's mergeable histograms)
    and flush-reason split, and ``bit_identical_to_direct`` — whether
    every batched response matched the direct ``forward`` call on its own
    request, which the batch-invariant serving path guarantees regardless
    of ``backend``, ``workers``, and (``profile=True``)
    per-layer profiling.  Profiling adds ``slowest_layers``; ``trace``
    retains the batched run's request traces (``traces`` /
    ``trace_stats``).  ``slo_rules`` / ``export_port`` run the batched
    leg with the SLO engine evaluating and the HTTP exporter attached
    (scraped once) and add the ``operational`` section — rolling-window
    quantiles, per-rule verdicts, lifecycle events, scrape results.
    """
    sequential_seconds, sequential_outputs, sequential_stats, _ = (
        _serve_stream(loaded, samples, max_batch=1, max_wait=0.0,
                      workers=workers, backend=backend, path=path))
    batched_seconds, batched_outputs, batched_stats, batched_obs = (
        _serve_stream(loaded, samples, max_batch=max_batch,
                      max_wait=max_wait, workers=workers, backend=backend,
                      path=path, profile=profile,
                      trace_capacity=256 if trace else 0,
                      slo_rules=slo_rules, export_port=export_port))

    direct = _direct_reference(loaded)
    bit_identical = all(
        np.array_equal(batched, direct(sample))
        and np.array_equal(sequential, batched)
        for sample, sequential, batched
        in zip(samples, sequential_outputs, batched_outputs))

    requests = len(samples)
    result = {
        "requests": requests,
        "max_batch": max_batch,
        "backend": backend,
        "workers": workers,
        "profile": profile,
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "sequential_throughput": requests / sequential_seconds,
        "batched_throughput": requests / batched_seconds,
        "speedup": sequential_seconds / batched_seconds,
        "sequential_mean_batch": sequential_stats["totals"]["mean_batch_size"],
        "batched_mean_batch": batched_stats["totals"]["mean_batch_size"],
        "batched_cycles": batched_stats["totals"]["cycles"],
        "queued_seconds": batched_stats["totals"]["queued_seconds"],
        "service_seconds": batched_stats["totals"]["service_seconds"],
        "flush_reasons": batched_stats["totals"]["flush_reasons"],
        "bit_identical_to_direct": bit_identical,
    }
    if profile:
        result["slowest_layers"] = _top_layers(batched_obs["layer_profile"])
    if trace:
        result["traces"] = batched_obs["traces"]
        result["trace_stats"] = batched_stats["traces"]
    if "operational" in batched_obs:
        result["operational"] = batched_obs["operational"]
    return result


def profiling_overhead_benchmark(loaded: PackedModel | QuantizedPackedModel,
                                 samples: np.ndarray, max_batch: int = 16,
                                 max_wait: float = 0.002, workers: int = 1,
                                 backend: str = "thread",
                                 path: str | Path | None = None,
                                 repeats: int = 3) -> dict[str, Any]:
    """Served wall time with per-layer profiling off vs on.

    Serves the same stream ``repeats`` times per configuration and keeps
    each configuration's **minimum** wall time (the standard
    noise-rejection for wall-clock benchmarks), then reports
    ``overhead`` — profiled seconds over unprofiled seconds, minus one.
    Profiling wraps each packed layer op in two perf-counter reads and a
    dict update, nothing inside the contraction loops, so the overhead
    stays small (the benchmark suite pins < 10%) and outputs stay
    bit-identical (``bit_identical``).
    """
    def best(profile: bool) -> tuple[float, list[np.ndarray]]:
        elapsed = float("inf")
        outputs: list[np.ndarray] = []
        for _ in range(repeats):
            seconds, run_outputs, _, _ = _serve_stream(
                loaded, samples, max_batch=max_batch, max_wait=max_wait,
                workers=workers, backend=backend, path=path, profile=profile)
            if seconds < elapsed:
                elapsed = seconds
            outputs = run_outputs
        return elapsed, outputs

    plain_seconds, plain_outputs = best(profile=False)
    profiled_seconds, profiled_outputs = best(profile=True)
    bit_identical = all(np.array_equal(plain, profiled)
                        for plain, profiled
                        in zip(plain_outputs, profiled_outputs))
    return {
        "requests": len(samples),
        "repeats": repeats,
        "backend": backend,
        "workers": workers,
        "plain_seconds": plain_seconds,
        "profiled_seconds": profiled_seconds,
        "overhead": (profiled_seconds / plain_seconds - 1.0
                     if plain_seconds else 0.0),
        "bit_identical": bit_identical,
    }


def backend_scaling_benchmark(path: str | Path, requests: int = 64,
                              max_batch: int = 8, max_wait: float = 0.001,
                              worker_counts: tuple[int, ...] = (1, 2, 4),
                              image_size: int = 8, seed: int = 0
                              ) -> dict[str, Any]:
    """Thread vs process backend over increasing worker counts.

    Serves the same seeded single-sample stream once per
    (backend, workers) cell and reports each cell's wall time and
    throughput, plus ``bit_identical`` — whether every cell's responses
    matched the direct batch-invariant forward bit-for-bit.
    """
    from repro.combining.serialization import artifact_info

    if requests < 1:
        raise ValueError("requests must be >= 1")
    loaded = load_packed(path)
    info = artifact_info(path)
    shape = resolve_sample_shape(loaded, image_size,
                                 model_spec=info.get("model_spec"))
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(requests, *shape))
    direct = _direct_reference(loaded)
    expected = [direct(sample) for sample in samples]

    cells: dict[str, dict[int, dict[str, float]]] = {}
    bit_identical = True
    for backend in ("thread", "process"):
        cells[backend] = {}
        for workers in worker_counts:
            seconds, outputs, _, _ = _serve_stream(
                loaded, samples, max_batch=max_batch, max_wait=max_wait,
                workers=workers, backend=backend, path=path)
            bit_identical &= all(np.array_equal(output, reference)
                                 for output, reference
                                 in zip(outputs, expected))
            cells[backend][workers] = {
                "seconds": seconds,
                "throughput": requests / seconds,
            }
    return {
        "requests": requests,
        "sample_shape": shape,
        "worker_counts": tuple(worker_counts),
        "backends": cells,
        "bit_identical": bit_identical,
    }


def cold_start_benchmark(path: str | Path) -> dict[str, Any]:
    """Artifact load time vs re-packing the same weights from scratch.

    The artifact must be model-backed and carry its
    :class:`~repro.combining.pipeline.PipelineConfig` (anything saved
    from a pipeline-assembled model does).  Re-packing runs serially
    (``workers=1``) so the comparison is deterministic and conservative —
    it excludes process-pool spawn costs *and* any quantized model's
    calibration run, both of which would only widen the gap.
    """
    started = monotonic()
    loaded = load_packed(path)
    load_seconds = monotonic() - started

    packed = (loaded.packed if isinstance(loaded, QuantizedPackedModel)
              else loaded)
    if packed.model is None or packed.pipeline_config is None:
        raise ValueError(
            "cold-start comparison needs a model-backed artifact with a "
            "recorded pipeline config")
    config = dataclasses.replace(packed.pipeline_config, workers=1)
    started = monotonic()
    repacked = PackedModel.from_model(packed.model, config)
    repack_seconds = monotonic() - started

    return {
        "load_seconds": load_seconds,
        "repack_seconds": repack_seconds,
        "speedup": repack_seconds / load_seconds,
        "num_layers": repacked.num_layers,
        "loaded": loaded,
    }


def run_serving_benchmark(path: str | Path, requests: int = 96,
                          max_batch: int = 16, max_wait: float = 0.002,
                          image_size: int = 8, seed: int = 0,
                          workers: int = 1, backend: str = "thread",
                          profile: bool = False, trace: bool = False,
                          slo_rules: tuple[SLORule, ...] | None = None,
                          export_port: int | None = None
                          ) -> dict[str, Any]:
    """The full serve-bench: cold start plus throughput on one artifact.

    ``profile`` turns on per-layer wall-time accounting for the batched
    run (slowest layers land in the throughput section); ``trace``
    retains its request traces; ``slo_rules`` / ``export_port`` add the
    operational section (window quantiles, verdicts, exporter scrape).
    """
    if requests < 1:
        raise ValueError("requests must be >= 1")
    cold = cold_start_benchmark(path)
    loaded = cold.pop("loaded")
    from repro.combining.serialization import artifact_info

    info = artifact_info(path)
    shape = resolve_sample_shape(loaded, image_size,
                                 model_spec=info.get("model_spec"))
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(requests, *shape))
    throughput = throughput_benchmark(loaded, samples, max_batch=max_batch,
                                      max_wait=max_wait, workers=workers,
                                      backend=backend, path=path,
                                      profile=profile,
                                      trace=trace, slo_rules=slo_rules,
                                      export_port=export_port)
    return {"kind": info["kind"], "sample_shape": shape,
            "cold_start": cold, "throughput": throughput}


def observability_report(path: str | Path, requests: int = 32,
                         max_batch: int = 8, max_wait: float = 0.001,
                         image_size: int = 8, seed: int = 0,
                         workers: int = 1, backend: str = "thread",
                         trace_limit: int = 5) -> dict[str, Any]:
    """One profiled, traced serving run distilled into a stats report.

    The implementation behind ``repro serve-stats``: serve a seeded
    single-sample stream against the artifact with per-layer profiling
    and request tracing on, then return the server's aggregate stats,
    the per-model layer profile, the last ``trace_limit`` traces, and
    the merged metrics snapshot (JSON-able; render with
    :func:`repro.obs.prometheus_from_snapshot` for scrape-style output).
    """
    if requests < 1:
        raise ValueError("requests must be >= 1")
    loaded = load_packed(path)
    from repro.combining.serialization import artifact_info

    info = artifact_info(path)
    shape = resolve_sample_shape(loaded, image_size,
                                 model_spec=info.get("model_spec"))
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(requests, *shape))
    seconds, _, stats, obs = _serve_stream(
        loaded, samples, max_batch=max_batch, max_wait=max_wait,
        workers=workers, backend=backend, path=path,
        profile=True, trace_capacity=max(trace_limit, 1))
    return {
        "kind": info["kind"],
        "requests": requests,
        "seconds": seconds,
        "throughput": requests / seconds if seconds else 0.0,
        "stats": stats,
        "layer_profile": obs["layer_profile"],
        "slowest_layers": _top_layers(obs["layer_profile"]),
        "traces": obs["traces"][-trace_limit:],
        "metrics_snapshot": obs["metrics_snapshot"],
    }


def _perturbed_artifact_copy(loaded: PackedModel, destination: Path,
                             model_spec: dict[str, Any] | None = None
                             ) -> PackedModel:
    """Save a same-architecture artifact whose forward produces different bits.

    Perturbs the first **non-packed** parameter (classifier weights /
    biases — packed conv weights are realized into the plan's arrays at
    pack time, so touching them would not change the artifact's packed
    forward) and repacks, restoring the source model afterwards.  The
    result is exactly what a retrained checkpoint looks like to the
    registry: same layer signature, different content fingerprint,
    measurably different outputs.
    """
    model = loaded.model
    if model is None or loaded.pipeline_config is None:
        raise ValueError(
            "hot-swap benchmark needs a model-backed artifact with a "
            "recorded pipeline config")
    packed_weights = {id(layer.weight)
                      for _, layer in model.packable_layers()}
    target = None
    for _, parameter in model.named_parameters():
        if id(parameter) not in packed_weights:
            target = parameter
            break
    if target is None:
        raise ValueError("model has no non-packed parameter to perturb")
    original = target.data
    target.data = original + 0.01
    try:
        config = dataclasses.replace(loaded.pipeline_config, workers=1)
        repacked = PackedModel.from_model(model, config)
        from repro.combining.serialization import save_packed

        save_packed(repacked, destination, model_spec=model_spec,
                    compress=False)
    finally:
        target.data = original
    return load_packed(destination)


def hot_swap_benchmark(path: str | Path, swaps: int = 4,
                       requests_per_swap: int = 24, max_batch: int = 8,
                       max_wait: float = 0.001, workers: int = 2,
                       backend: str = "thread", image_size: int = 8,
                       seed: int = 0) -> dict[str, Any]:
    """Repeated live cutovers under traffic; every response old or new bits.

    Builds a perturbed same-architecture copy of the artifact, then
    alternates ``registry.swap`` between the two **while requests are in
    flight**: each round submits ``requests_per_swap`` single-sample
    requests and swaps mid-stream.  Every response must be bit-identical
    to the direct batch-invariant forward of *one of the two* artifacts
    (in-flight batches finish on the old immutable plan, later batches
    serve the new one — nothing in between exists), and no request may
    fail or hang.  Reports per-swap wall time (artifact probe +
    side-load + atomic flip — the old plan serves throughout, so this is
    deploy latency, not downtime) plus the old/new response split and
    the registry's final generation.
    """
    import tempfile

    from repro.combining.serialization import artifact_info

    if swaps < 1:
        raise ValueError("swaps must be >= 1")
    loaded = load_packed(path)
    if isinstance(loaded, QuantizedPackedModel):
        raise ValueError(
            "hot-swap benchmark perturbs float model state; pass a float "
            "packed artifact")
    info = artifact_info(path)
    shape = resolve_sample_shape(loaded, image_size,
                                 model_spec=info.get("model_spec"))
    rng = np.random.default_rng(seed)
    direct_old = _direct_reference(loaded)

    with tempfile.TemporaryDirectory() as tmp:
        alt_path = Path(tmp) / "swap-target.npz"
        alt = _perturbed_artifact_copy(loaded, alt_path,
                                       model_spec=info.get("model_spec"))
        direct_new = _direct_reference(alt)

        registry = ModelRegistry(max_resident=2)
        registry.register("bench", path=path, mode="exact")
        targets = (alt_path, Path(path))
        swap_seconds: list[float] = []
        old_bits = new_bits = mismatched = failures = 0
        started = monotonic()
        with InferenceServer(registry, max_batch=max_batch,
                             max_wait=max_wait, workers=workers,
                             backend=backend) as server:
            for index in range(swaps):
                samples = rng.normal(size=(requests_per_swap, *shape))
                pending = [server.submit("bench", sample)
                           for sample in samples]
                swap_started = monotonic()
                registry.swap("bench", targets[index % 2])
                swap_seconds.append(monotonic() - swap_started)
                for sample, request in zip(samples, pending):
                    try:
                        output = request.result(timeout=120.0)
                    except Exception:  # noqa: BLE001 - counted, not raised
                        failures += 1
                        continue
                    if np.array_equal(output, direct_old(sample)):
                        old_bits += 1
                    elif np.array_equal(output, direct_new(sample)):
                        new_bits += 1
                    else:
                        mismatched += 1
        elapsed = monotonic() - started
    registry_stats = registry.stats()
    total = swaps * requests_per_swap
    return {
        "backend": backend,
        "workers": workers,
        "swaps": swaps,
        "requests": total,
        "seconds": elapsed,
        "throughput": total / elapsed if elapsed else 0.0,
        "swap_seconds": {
            "mean": sum(swap_seconds) / len(swap_seconds),
            "max": max(swap_seconds),
        },
        "old_bits": old_bits,
        "new_bits": new_bits,
        "mismatched": mismatched,
        "failures": failures,
        "bit_exact": mismatched == 0 and failures == 0,
        "final_generation": registry_stats["generations"]["bench"],
        "registry_swaps": registry_stats["swaps"],
    }
