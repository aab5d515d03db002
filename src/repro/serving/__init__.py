"""Dynamic-batching inference serving over packed artifacts.

The paper's column-combined arrays are throughput engines: packing costs
one pipeline run, and the payoff materializes when many requests share
the resident packed model.  This package is that serving layer:

* :mod:`~repro.serving.registry` —
  :class:`~repro.serving.registry.ModelRegistry`: named packed artifacts
  (:mod:`repro.combining.serialization`) loaded lazily on first request,
  with LRU-bounded residency so a node can advertise more models than it
  keeps in memory.  Loads run under per-entry locks (a slow load never
  blocks unrelated models) and resolve to immutable execution plans,
  built from each artifact's file alone; an artifact no plan can be
  built from is refused when it is registered.
* :mod:`~repro.serving.batcher` —
  :class:`~repro.serving.batcher.DynamicBatcher`: single-sample requests
  queue up and coalesce (up to ``max_batch`` samples or ``max_wait``
  seconds) into one forward per model, and the batched outputs split
  back per request.  Coalescing is bit-transparent: every response is
  bit-identical to the direct single-request forward, because the
  server runs the batch-invariant execution path
  (``batch_invariant=True``).
* :mod:`~repro.serving.server` —
  :class:`~repro.serving.server.InferenceServer`: drain threads over the
  batcher with per-request latency accounting and per-batch systolic
  cycle accounting (from each packed layer's tile geometry, with no
  per-batch-size cache), plus graceful drain-and-join shutdown.  The
  ``backend`` knob picks where forwards run (see below); ``profile``
  and ``trace_capacity`` opt into the observability layer.
* :mod:`~repro.serving.procpool` —
  :class:`~repro.serving.procpool.ProcessWorkerPool`: the persistent
  worker processes behind ``backend="process"``.
* :mod:`~repro.serving.bench` — the throughput / cold-start / backend
  scaling benchmarks behind ``repro serve-bench`` and
  ``benchmarks/test_bench_serving.py``.

Execution architecture
----------------------

Serving runs on **immutable execution plans**
(:class:`~repro.combining.execplan.ExecutionPlan`), the one forward
engine of the library, not on the nn module graph.  A plan is compiled
once (from a loaded artifact or a live model) into a read-only,
picklable op tree; running it touches no shared state, so:

* any number of worker threads forward the *same* resident model
  concurrently — no per-model lock;
* :func:`~repro.combining.serialization.load_plan` with ``mmap="auto"``
  maps a V2 uncompressed artifact's arrays straight out of the page
  cache, so N processes serving one artifact share one resident copy;
* the process backend ships ``(artifact path, content fingerprint,
  mode, batch)`` to persistent workers that map the plan themselves —
  one batch of activations crosses the boundary each way, never a model;
* both backends run one batch executor,
  :meth:`~repro.serving.registry.ResidentModel.serve_batch` — the same
  forward, profile recording and systolic accounting whether it runs on
  a drain thread or in a worker process.

Live redeploy (hot swap)
------------------------

Immutable plans are also what make zero-downtime model updates trivial:
:meth:`~repro.serving.registry.ModelRegistry.swap` loads a new artifact
off to the side (old plan keeps serving every in-flight and queued
forward — no drain, no request-blocking lock) and atomically flips the
resident entry once the new plan is ready; the next batch serves the
new bits.  Compatibility (a buildable plan, serving kind, per-layer
shape skeleton) is verified against :func:`~repro.combining.serialization.artifact_info`
*before* the flip, so a bad swap never degrades the live entry.  Every
artifact carries a content **fingerprint**
(:func:`~repro.combining.serialization.artifact_fingerprint`, stored in
the metadata at save time) and every swap bumps the entry's
**generation**; the process backend keys its per-worker plan caches on
``(path, fingerprint)`` — a hot swap takes effect in every warm worker
on its next batch, and an artifact overwritten in place *without* a
swap fails loudly in the worker rather than serving ambiguous bits.
:meth:`~repro.serving.registry.ModelRegistry.swap_live` is the same
cutover for an already-built model object (the entry becomes pinned).
Swap counts and per-model generations surface in
``ModelRegistry.stats()`` / ``InferenceServer.stats()``.

Pick ``backend="thread"`` (default) for low request rates, live
(``add()``-registered) models, or when artifacts are compressed; pick
``backend="process"`` for CPU-bound sustained load on artifact-backed
models, where the GIL caps thread scaling.  Responses are bit-identical
across backends, worker counts, and batch coalescing — every path runs
the same batch-invariant plan execution.

Batch-invariant numerics used to mean a performance tax: every
weight-bearing layer ran ``np.einsum(optimize=False)`` reduction loops
because a general BLAS gemm picks its blocking — and therefore its float
summation order — from the full operand shapes, batch included.  The
server runs the **blocked batch-invariant kernels**
(:mod:`repro.combining.kernels`): blocked GEMM whose entire schedule —
per-sample dispatch for the pointwise contraction, fixed
:data:`~repro.combining.kernels.M_TILE` row tiles for the dense head,
:data:`~repro.combining.kernels.K_BLOCK` reduction blocks summed in
pinned left-to-right order — is chosen only from weight / spatial
dimensions, never the batch size.  Every inner block still dispatches to
BLAS on contiguous slices, so the measured packed layers run ~3.8x
faster than the einsum loops (at or below the *raw* batched-BLAS einsum
time on the ResNet-20 serving shapes — the per-sample gemm skips the
batched dispatch's internal transposes), while splitting a batch still
concatenates to the exact whole-batch bits.  The einsum loops remain
only as the tests' differential reference.  Determinism is the cheap
default serving mode.

Observability data flow
-----------------------

The serving stack reports on itself through :mod:`repro.obs`, and the
data flow mirrors the execution architecture — **record where the work
runs, merge exactly at the server, expose in one place**:

1. **Record.**  Every request gets a trace id at ``submit()`` and its
   latencies land in fixed-bucket log-spaced histograms whose bucket
   edges are computed from constants and whose sums are integer
   nanoseconds — the two properties that make histogram merging
   *exact*, not approximate.  Every dispatched batch counts its flush
   reason (``max_batch`` / ``max_wait`` / ``drain``).  With
   ``profile=True`` each packed layer op is timed with a perf-counter
   wrapper (wrapping only: profiled responses are bit-identical to
   unprofiled ones).  In the thread backend all of this records into
   the server's own :class:`~repro.obs.metrics.MetricsRegistry`; in the
   process backend each worker records layer / forward timings into its
   own per-process registry and ships its full snapshot back with every
   profiled batch result.
2. **Merge.**  The server keeps the latest snapshot per worker pid
   (snapshots are cumulative, so latest-wins loses nothing) and
   :meth:`~repro.serving.server.InferenceServer.metrics_snapshot` folds
   them into the server registry in pid order.  Because counters add as
   integers and histograms merge exactly, the merged totals are
   independent of how batches were scheduled across threads, workers,
   and models — the same schedule-independence the bit-identical
   forward gives responses, extended to telemetry.
3. **Expose.**  ``InferenceServer.stats()`` carries per-model and total
   latency digests (p50/p90/p99/mean/max) and the flush-reason split;
   ``traces()`` returns the bounded ring of recent span timelines
   (enqueue -> coalesce -> forward -> respond); ``layer_profile()``
   ranks layers by exact integer-nanosecond totals; ``prometheus_text()``
   renders the merged snapshot in text exposition format.  The
   ``repro serve-stats`` CLI and ``serve-bench --profile --trace`` are
   thin views over these.
4. **Operate.**  On top of the lifetime totals sits the operational
   layer (:mod:`repro.obs.window` / :mod:`~repro.obs.slo` /
   :mod:`~repro.obs.events` / :mod:`~repro.obs.exporter`): every
   request's queued / service / total latency also lands in **rolling
   time-bucketed windows** (same exactly-mergeable histogram state,
   keyed by absolute wall-clock bucket index, O(buckets) memory), a
   declarative :class:`~repro.obs.slo.SLOEngine` evaluates
   latency-quantile / error-rate / queue-depth rules over those windows
   into ok / warn / breach verdicts with burn counters, and lifecycle
   transitions — model load / evict, hot-swap old->new fingerprint +
   generation, pool warm / rebuild / shutdown, load failures, SLO
   breach / recover — append to one bounded
   :class:`~repro.obs.events.EventLog` shared by registry, server, and
   pool.  ``InferenceServer.serve_metrics()`` attaches a live threaded
   HTTP endpoint (:class:`~repro.obs.exporter.ObservabilityExporter`)
   serving ``/metrics`` (Prometheus text), ``/health`` (liveness + SLO
   verdict in the HTTP status: 200 ok/warn, 503 breach or stopped),
   ``/stats``, ``/traces``, and ``/events``; ``stop()`` closes it
   first.  :mod:`repro.obs.export` renders the same traces — and
   instrumented :class:`~repro.combining.pipeline.PackingPipeline`
   stage spans — as Chrome-trace-event JSON for Perfetto.  All of it is
   wrapping only: an observed server's responses stay bit-identical to
   a bare one's.

Usage::

    from repro.serving import InferenceServer, ModelRegistry

    registry = ModelRegistry(max_resident=2)
    registry.register("lenet5", path="lenet5.packed.npz", mode="exact")
    registry.register("lenet5-int8", path="lenet5.int8.npz", mode="quantized")
    with InferenceServer(registry, max_batch=16, max_wait=0.002,
                         workers=4, backend="process") as server:
        logits = server.infer("lenet5", sample)        # (C, H, W) or NCHW
        pending = server.submit("lenet5-int8", sample)  # async
        logits8 = pending.result(timeout=1.0)
"""

from repro.combining.serialization import (
    ARTIFACT_KINDS,
    FORMAT_VERSION,
    PackedArtifactError,
    artifact_fingerprint,
    artifact_info,
    fingerprint_packed,
    load_packed,
    load_plan,
    save_packed,
)
from repro.obs import (
    EventLog,
    MetricsRegistry,
    ObservabilityExporter,
    SLOEngine,
    SLORule,
    TraceBuffer,
)
from repro.serving.batcher import (
    Batch,
    DynamicBatcher,
    FLUSH_REASONS,
    PendingRequest,
)
from repro.serving.procpool import ProcessWorkerPool
from repro.serving.registry import ModelRegistry, ResidentModel, SERVING_MODES
from repro.serving.server import InferenceServer, SERVING_BACKENDS

__all__ = [
    "ARTIFACT_KINDS",
    "FORMAT_VERSION",
    "PackedArtifactError",
    "artifact_fingerprint",
    "artifact_info",
    "fingerprint_packed",
    "load_packed",
    "load_plan",
    "save_packed",
    "Batch",
    "DynamicBatcher",
    "FLUSH_REASONS",
    "EventLog",
    "MetricsRegistry",
    "ObservabilityExporter",
    "PendingRequest",
    "SLOEngine",
    "SLORule",
    "TraceBuffer",
    "ModelRegistry",
    "ProcessWorkerPool",
    "ResidentModel",
    "SERVING_MODES",
    "SERVING_BACKENDS",
    "InferenceServer",
]
