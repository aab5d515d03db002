"""The inference server: worker threads over the dynamic batcher.

:class:`InferenceServer` wires the serving pieces together: requests
enter through :meth:`~InferenceServer.submit` / :meth:`~InferenceServer.infer`,
coalesce in a :class:`~repro.serving.batcher.DynamicBatcher`, and worker
threads drain batches — resolving each batch's model through the
:class:`~repro.serving.registry.ModelRegistry` (lazy load, LRU residency)
and running one batch-invariant forward per batch through the model's
immutable :class:`~repro.combining.execplan.ExecutionPlan`.  Plans never
mutate shared state, so forwards need no lock: workers run batches for
the *same* model concurrently, not just across models.

Two execution backends share this structure (``backend=``):

* ``"thread"`` (default) — each drain thread runs the batch in-process
  through the registry's resident entry
  (:meth:`~repro.serving.registry.ResidentModel.serve_batch`).
* ``"process"`` — each drain thread ships ``(artifact path, content
  fingerprint, mode, batch)`` to a persistent
  :class:`~repro.serving.procpool.ProcessWorkerPool` worker, which maps
  the artifact itself (``load_plan(mmap="auto")``, cached per process
  and per content generation) and runs the same ``serve_batch`` outside
  the GIL.  Every artifact registration loads from its path alone, so
  any of them can be served this way; a pinned live model has no path
  to ship, and its batches fail with a clear error.  If the pool dies (a
  worker was killed, OOMed, or crashed the interpreter), only the
  in-flight batch fails: the server rebuilds and rewarms the pool once
  per incident — with the ``forkserver`` start method, since by then
  drain threads exist and forking a multi-threaded parent is unsafe —
  and subsequent batches serve normally
  (``stats()["totals"]["pool_rebuilds"]`` counts the incidents).

Hot swap composes with both backends:
:meth:`~repro.serving.registry.ModelRegistry.swap` installs a new plan
off to the side and flips the entry atomically, so in-flight forwards
finish on the old immutable plan while the next batch serves the new
one — no drain, no lock, no dropped request.

Responses are bit-identical across backends, worker counts, and batch
coalescing: every path runs the same batch executor.

Observability rides along (:mod:`repro.obs`):

* **per request** — queueing delay (submit -> batch dispatch) and service
  time (dispatch -> response) recorded into exactly-mergeable log-spaced
  histograms (:class:`~repro.obs.metrics.Histogram`), per model and —
  merged, exactly — in the ``stats()`` totals: p50/p90/p99 next to the
  legacy mean/max.  Every request also gets a **trace id** at
  :meth:`submit` and a span timeline (enqueue -> coalesce with the
  batcher's flush reason -> forward -> respond) retained in a bounded
  ring (:meth:`InferenceServer.traces`).
* **per batch** — the systolic cycle / tile cost of the batch from the
  plan's per-layer tile geometry and the batch's size, i.e. what
  the batch would cost on the paper's array rather than on the host CPU
  running the simulation; plus the batcher's flush reason
  (max_batch / max_wait / drain), counted per model.
* **per layer** (opt-in, ``profile=True``) — each packed layer op's wall
  time from perf-counter wrapping (outputs stay bit-identical); in the
  process backend the per-worker histograms and layer timings ride back
  with the ``_run_plan_batch`` result tuple, and
  :meth:`InferenceServer.metrics_snapshot` merges the per-worker
  registries (sorted by pid — histogram merge is exact, so totals are
  schedule-independent) into the server-side registry.  Export as a
  JSON snapshot or Prometheus text (:meth:`InferenceServer.prometheus_text`).
* **operationally** — :meth:`InferenceServer.serve_metrics` attaches a
  threaded HTTP scrape endpoint (``/metrics`` Prometheus text,
  ``/health`` liveness + SLO verdict with the verdict in the HTTP
  status, ``/stats`` / ``/traces`` / ``/events`` JSON); rolling
  windows over the same exactly-mergeable histograms
  (:mod:`repro.obs.window`) feed declarative SLO rules
  (:mod:`repro.obs.slo`, ``slo=[...]``), and lifecycle transitions —
  model load/evict/swap, pool warm/rebuild, SLO breach/recover, server
  start/stop — land in a bounded :class:`~repro.obs.events.EventLog`
  shared with the registry and the process pool.  All of it wraps the
  serving path from outside the forward, so observed and exported
  serving stays bit-identical.

Shutdown is graceful by default: :meth:`~InferenceServer.stop` closes the
batcher to new work, lets the workers drain everything already queued,
joins them, and releases the process pool (if any); every submitted
request therefore gets an answer (or the failure that prevented one)
before ``stop`` returns.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Callable, Sequence

import numpy as np

from repro.combining.inference import ensure_sample_batch
from repro.obs.events import EventLog
from repro.obs.exporter import ObservabilityExporter
from repro.obs.metrics import (Histogram, MetricsRegistry, merge_snapshots,
                               prometheus_from_snapshot)
from repro.obs.slo import SLOEngine, SLORule
from repro.obs.tracing import (DEFAULT_TRACE_CAPACITY, Span, Trace,
                               TraceBuffer, TraceIdAllocator)
from repro.serving.batcher import Batch, DynamicBatcher, PendingRequest
from repro.serving.procpool import ProcessWorkerPool
from repro.serving.registry import ModelRegistry

#: Execution backends the server can run batches on.
SERVING_BACKENDS: tuple[str, ...] = ("thread", "process")


@dataclass
class _ModelStats:
    """Per-model serving counters, updated under the server's stats lock.

    ``queued`` / ``service`` are the *live* registry histograms for this
    model (``serving_queued_seconds{model=...}`` etc.), so recording a
    latency here and exporting it through
    :meth:`InferenceServer.metrics_snapshot` are one write, never two
    copies that could drift.
    """

    requests: int = 0
    samples: int = 0
    batches: int = 0
    failures: int = 0
    cycles: int = 0
    tiles: int = 0
    queued: Histogram = field(default_factory=Histogram)
    service: Histogram = field(default_factory=Histogram)

    @property
    def mean_batch_size(self) -> float:
        return self.samples / self.batches if self.batches else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "samples": self.samples,
            "batches": self.batches,
            "failures": self.failures,
            "mean_batch_size": self.mean_batch_size,
            "cycles": self.cycles,
            "tiles": self.tiles,
            "queued_seconds": self.queued.summary(),
            "service_seconds": self.service.summary(),
        }


class InferenceServer:
    """Dynamic-batching server over a :class:`ModelRegistry`.

    ``workers`` is the number of batch-draining threads; with
    ``backend="process"`` it is also the process pool size, so each
    drain thread keeps one worker process busy.  Plan execution is
    lock-free, so extra workers buy real concurrency even on a single
    hot model — threads overlap BLAS-released GIL sections, processes
    sidestep the GIL entirely.  Both backends run one batch executor
    (:meth:`~repro.serving.registry.ResidentModel.serve_batch`), so
    responses are bit-identical across backends / workers / coalescing.
    Use as a context manager, or pair :meth:`start` with :meth:`stop`.

    ``profile=True`` opts every batch into per-layer wall-time
    accounting (perf-counter wrapping around each packed layer op —
    responses stay bit-identical); ``trace_capacity`` bounds the ring of
    retained request traces (``0`` disables tracing).
    """

    def __init__(self, registry: ModelRegistry, max_batch: int = 16,
                 max_wait: float = 0.002, workers: int = 1,
                 backend: str = "thread", profile: bool = False,
                 trace_capacity: int = DEFAULT_TRACE_CAPACITY,
                 slo: "Sequence[SLORule] | SLOEngine | None" = None,
                 events: EventLog | None = None,
                 clock: Callable[[], float] = time.time):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in SERVING_BACKENDS:
            raise ValueError(f"unknown serving backend {backend!r}; "
                             f"expected one of {SERVING_BACKENDS}")
        self.registry = registry
        self.batcher = DynamicBatcher(max_batch=max_batch, max_wait=max_wait)
        self.workers = workers
        self.backend = backend
        self.profile = profile
        self._pool: ProcessWorkerPool | None = None
        self._pool_lock = threading.Lock()
        self._pool_rebuilds = 0
        self._threads: list[threading.Thread] = []
        self._started = False
        self._stats_lock = threading.Lock()
        self._model_stats: dict[str, _ModelStats] = {}
        #: Server-side metrics registry.  Request latencies, flush-reason
        #: counters, and (thread backend) layer timings record here; the
        #: process backend's layer timings live in the workers' own
        #: registries and merge in through ``metrics_snapshot()``.
        self._metrics = MetricsRegistry()
        self._trace_ids = TraceIdAllocator()
        self._traces = TraceBuffer(trace_capacity)
        #: Latest metrics snapshot per worker pid (process backend).
        #: Workers accumulate cumulative registries and ship full
        #: snapshots, so "latest per pid" is lossless and merge-exact.
        self._worker_snapshots: dict[int, dict[str, Any]] = {}
        #: Per model -> layer -> [total_ns, batches]; exact integer
        #: accumulation across both backends, feeding ``layer_profile``.
        self._layer_ns: dict[str, dict[str, list[int]]] = {}
        #: Lifecycle event log.  By default the server joins the
        #: registry's log, so model loads/evictions/swaps and server
        #: start/stop/pool-rebuild land in one timestamped stream; pass
        #: ``events`` to use a dedicated (or shared-wider) log instead.
        self.event_log: EventLog = (events if events is not None
                                    else registry.event_log)
        #: Rolling windows + SLO rules.  Always present (the windows are
        #: what ``/health`` and ``stats()["windows"]`` read); with no
        #: rules the engine evaluates to an empty all-ok report.  The
        #: injected ``clock`` drives window bucketing and event
        #: timestamps, so tests can rotate and expire windows
        #: deterministically.
        if isinstance(slo, SLOEngine):
            self.slo = slo
            if self.slo.event_log is None:
                self.slo.event_log = self.event_log
        else:
            self.slo = SLOEngine(tuple(slo) if slo is not None else (),
                                 clock=clock, events=self.event_log)
        self._exporter: ObservabilityExporter | None = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "InferenceServer":
        if self._started:
            raise RuntimeError("server is already running")
        if self.batcher.closed:
            raise RuntimeError("server was stopped; build a new one to restart")
        if self.backend == "process" and self._pool is None:
            # Create and warm the pool before any drain thread exists:
            # forking a multi-threaded parent is where fork-based pools
            # go to deadlock.
            pool = ProcessWorkerPool(self.workers, events=self.event_log)
            pool.warm()
            self._pool = pool
        self._started = True
        for index in range(self.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"serving-worker-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        self.event_log.emit("server_start", backend=self.backend,
                            workers=self.workers, profile=self.profile)
        return self

    def stop(self, timeout: float | None = None) -> None:
        """Graceful shutdown: refuse new requests, drain the queue, join.

        Idempotent.  After ``close()`` the batcher dispatches everything
        still pending without coalescing waits; each worker exits once the
        queue reads empty, so every accepted request is answered before
        the threads are joined (and the process pool, if any, released).

        ``timeout`` bounds the **whole** shutdown, not each join: all
        worker threads share one monotonic deadline, so ``stop(5.0)``
        returns within ~5 seconds even with many wedged workers (joining
        each thread with the full timeout would multiply the wait by the
        worker count).  Threads still alive at the deadline are kept so a
        later ``stop()`` can finish the join.

        An attached exporter (:meth:`serve_metrics`) is closed *first*,
        so the scrape endpoint never outlives the server it reports on.
        """
        stopping = self._started and not self.batcher.closed
        if self._exporter is not None:
            self._exporter.close()
            self._exporter = None
        self.batcher.close()
        deadline = None if timeout is None else monotonic() + timeout
        for thread in self._threads:
            remaining = (None if deadline is None
                         else max(0.0, deadline - monotonic()))
            thread.join(remaining)
        self._threads = [thread for thread in self._threads
                         if thread.is_alive()]
        self._started = bool(self._threads)
        if not self._started:
            with self._pool_lock:
                if self._pool is not None:
                    self._pool.shutdown()
                    self._pool = None
        if stopping:
            self.event_log.emit("server_stop", drained=not self._started)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._started and not self.batcher.closed

    # -- request entry points ------------------------------------------------
    def submit(self, model_name: str, samples: np.ndarray) -> PendingRequest:
        """Enqueue a request; returns a waitable :class:`PendingRequest`.

        ``samples`` is a single ``(C, H, W)`` sample (the response is the
        single sample's output row) or an NCHW batch (the response keeps
        the batch axis).  Unknown model names fail fast here rather than
        poisoning a worker.
        """
        if model_name not in self.registry:
            raise KeyError(
                f"unknown model {model_name!r}; registered models: "
                f"{self.registry.names()}")
        if not self._started:
            raise RuntimeError("server is not running; call start() first")
        batch, unbatched = ensure_sample_batch(samples)
        if batch.ndim != 4:
            raise ValueError(
                "samples must be (C, H, W) or (batch, C, H, W), got shape "
                f"{np.asarray(samples).shape}")
        request = self.batcher.submit(model_name, batch, unbatched=unbatched,
                                      trace_id=self._trace_ids.allocate())
        self.slo.observe_queue_depth(self.batcher.pending_count())
        return request

    def infer(self, model_name: str, samples: np.ndarray,
              timeout: float | None = 60.0) -> np.ndarray:
        """Synchronous :meth:`submit` + ``result``."""
        return self.submit(model_name, samples).result(timeout)

    # -- worker loop ---------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self.batcher.next_batch(timeout=0.1)
            if batch is None:
                if self.batcher.closed and self.batcher.pending_count() == 0:
                    return
                continue
            self._run_batch(batch)

    def _forward_process(self, batch: Batch
                         ) -> tuple[np.ndarray, int, int, bool | None,
                                    dict[str, Any] | None]:
        """Ship (path, fingerprint, mode, batch) to a pool worker.

        The registry's content fingerprint rides along so the worker's
        plan cache is keyed by content generation: after a hot swap the
        very next batch serves the new artifact, never a superseded
        cached plan.  A dead pool fails only this batch — the pool is
        rebuilt (once per incident) for the next one.  When profiling,
        the worker's per-layer timings and full metrics snapshot come
        back in the result's ``obs`` element.
        """
        path, mode, fingerprint = self.registry.registration_info(batch.key)
        if path is None:
            raise ValueError(
                f"model {batch.key!r} is registered as a live object; the "
                "process backend serves artifact-backed registrations only "
                "(register a saved artifact path instead of add()ing a model)")
        pool = self._pool
        assert pool is not None
        try:
            return pool.run(path, mode, batch.stacked(),
                            fingerprint=fingerprint, profile=self.profile,
                            model_name=batch.key)
        except BrokenProcessPool:
            self._rebuild_pool(pool)
            raise

    def _rebuild_pool(self, broken: ProcessWorkerPool) -> None:
        """Replace a dead process pool; once per incident.

        Every drain thread whose batch died on the same broken pool calls
        in; the identity check makes the first one rebuild and the rest
        no-ops, so one incident costs one rebuild.  The replacement uses
        the ``forkserver`` start method: the server is multi-threaded by
        now, and forking a multi-threaded parent directly is where
        fork-based pools go to deadlock (forkserver forks from its own
        clean single-threaded process instead, and unlike ``spawn``
        never re-executes ``__main__``).
        """
        with self._pool_lock:
            if self._pool is not broken:
                return
            try:
                broken.shutdown()
            except Exception:  # noqa: BLE001 - already broken
                pass
            pool = ProcessWorkerPool(self.workers, start_method="forkserver",
                                     events=self.event_log)
            pool.warm()
            self._pool = pool
            self._pool_rebuilds += 1
            self.event_log.emit("pool_rebuild", workers=self.workers,
                                rebuilds=self._pool_rebuilds,
                                start_method="forkserver")

    def _stats_for(self, name: str) -> _ModelStats:
        """The model's stats record; caller must hold the stats lock.

        Created on first use with its latency histograms registered in
        the server's metrics registry, so per-model ``stats()`` digests
        and the Prometheus exposition read the same live objects.
        """
        stats = self._model_stats.get(name)
        if stats is None:
            stats = _ModelStats(
                queued=self._metrics.histogram("serving_queued_seconds",
                                               labels={"model": name}),
                service=self._metrics.histogram("serving_service_seconds",
                                                labels={"model": name}))
            self._model_stats[name] = stats
        return stats

    def _run_batch(self, batch: Batch) -> None:
        dispatched = monotonic()
        # Keep the queue-depth reading honest on the drain side too:
        # this batch just left the queue.
        self.slo.observe_queue_depth(self.batcher.pending_count())
        cycles = tiles = 0
        obs: dict[str, Any] | None = None
        error_text: str | None = None
        try:
            if self.backend == "process":
                outputs, cycles, tiles, obs = self._forward_process(batch)
            else:
                outputs, cycles, tiles, obs = (
                    self.registry.get(batch.key).serve_batch(
                        batch.stacked(),
                        self._metrics if self.profile else None))
            forward_done = monotonic()
            batch.resolve(outputs)
            failed = False
        except BaseException as error:  # noqa: BLE001 - relayed to clients
            forward_done = monotonic()
            batch.fail(error)
            failed = True
            error_text = repr(error)
        finished = monotonic()
        if batch.flush_reason is not None:
            self._metrics.counter(
                "serving_batches",
                labels={"model": batch.key,
                        "flush_reason": batch.flush_reason}).inc()
        with self._stats_lock:
            stats = self._stats_for(batch.key)
            stats.batches += 1
            stats.cycles += cycles
            stats.tiles += tiles
            if failed:
                stats.failures += len(batch.requests)
            for request in batch:
                request.queued_seconds = dispatched - request.enqueued_at
                request.service_seconds = finished - dispatched
                stats.requests += 1
                stats.samples += request.num_samples
                stats.queued.record(request.queued_seconds)
                stats.service.record(request.service_seconds)
                # The same durations also feed the rolling windows the
                # SLO engine evaluates — one more ring record per
                # request, nowhere near the forward path.
                self.slo.observe_latency("queued", request.queued_seconds)
                self.slo.observe_latency("service", request.service_seconds)
                self.slo.observe_latency("total",
                                         finished - request.enqueued_at)
                self.slo.observe_request(failed=failed)
            if obs is not None:
                if "snapshot" in obs:
                    self._worker_snapshots[obs["pid"]] = obs["snapshot"]
                layer_totals = self._layer_ns.setdefault(batch.key, {})
                for layer, elapsed_ns in obs["layer_ns"].items():
                    entry = layer_totals.setdefault(layer, [0, 0])
                    entry[0] += elapsed_ns
                    entry[1] += 1
        self._record_traces(batch, dispatched, forward_done, finished,
                            cycles, tiles, obs, failed, error_text)

    def _record_traces(self, batch: Batch, dispatched: float,
                       forward_done: float, finished: float, cycles: int,
                       tiles: int, obs: dict[str, Any] | None, failed: bool,
                       error_text: str | None) -> None:
        """One trace per request in the batch, into the bounded ring.

        Spans share the batch's timeline (requests in one batch were
        forwarded together); the ``enqueue`` span is the only
        per-request interval.  The ``coalesce`` span carries the
        batcher's flush reason — the why of this batch's latency.
        """
        if self._traces.capacity == 0:
            return
        head = batch.requests[0]
        forward_attributes: dict[str, Any] = {
            "backend": self.backend, "cycles": cycles, "tiles": tiles,
            "batch_samples": batch.num_samples,
        }
        if obs is not None:
            forward_attributes["forward_ns"] = obs["forward_ns"]
            forward_attributes["layer_ns"] = dict(obs["layer_ns"])
            if "pid" in obs:
                forward_attributes["worker_pid"] = obs["pid"]
        respond_attributes: dict[str, Any] = {"failed": failed}
        if error_text is not None:
            respond_attributes["error"] = error_text
        for request in batch:
            trace = Trace(request.trace_id or "untraced", batch.key,
                          attributes={"samples": request.num_samples,
                                      "unbatched": request.unbatched})
            trace.add_span(Span("enqueue", request.enqueued_at, dispatched))
            trace.add_span(Span(
                "coalesce", head.enqueued_at, dispatched,
                {"flush_reason": batch.flush_reason,
                 "requests": len(batch.requests),
                 "samples": batch.num_samples}))
            trace.add_span(Span("forward", dispatched, forward_done,
                                forward_attributes))
            trace.add_span(Span("respond", forward_done, finished,
                                respond_attributes))
            self._traces.record(trace)

    # -- accounting ----------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Aggregate serving statistics: totals plus a per-model breakdown.

        The totals' ``queued_seconds`` / ``service_seconds`` digests come
        from *exactly merging* the per-model histograms — identical to
        what one histogram recording every request would report,
        regardless of how requests spread across models and workers.
        """
        queued_total = Histogram()
        service_total = Histogram()
        with self._stats_lock:
            per_model = {name: stats.as_dict()
                         for name, stats in self._model_stats.items()}
            for stats in self._model_stats.values():
                queued_total.merge(stats.queued)
                service_total.merge(stats.service)
        totals = {
            "requests": sum(s["requests"] for s in per_model.values()),
            "samples": sum(s["samples"] for s in per_model.values()),
            "batches": sum(s["batches"] for s in per_model.values()),
            "failures": sum(s["failures"] for s in per_model.values()),
            "cycles": sum(s["cycles"] for s in per_model.values()),
            "tiles": sum(s["tiles"] for s in per_model.values()),
        }
        batches = totals["batches"]
        totals["mean_batch_size"] = totals["samples"] / batches if batches else 0.0
        totals["queued_seconds"] = queued_total.summary()
        totals["service_seconds"] = service_total.summary()
        totals["flush_reasons"] = self.batcher.flush_reasons
        totals["peak_pending"] = self.batcher.peak_pending
        with self._pool_lock:
            totals["pool_rebuilds"] = self._pool_rebuilds
        return {"totals": totals, "per_model": per_model,
                "backend": self.backend, "profile": self.profile,
                "traces": self._traces.stats(),
                "registry": self.registry.stats(),
                "windows": self.slo.window_summaries(),
                "events": self.event_log.stats()}

    # -- observability -------------------------------------------------------
    def traces(self, limit: int | None = None) -> list[dict[str, Any]]:
        """The retained request traces as dicts, oldest first.

        Each trace is one request's span timeline — ``enqueue`` ->
        ``coalesce`` (with the batcher's flush reason) -> ``forward``
        (backend / cycles / per-layer nanoseconds when profiling) ->
        ``respond`` — bounded by the server's ``trace_capacity``.
        """
        return self._traces.snapshot(limit)

    def events(self, limit: int | None = None,
               kind: str | None = None) -> list[dict[str, Any]]:
        """Recent lifecycle events as dicts, oldest first.

        The stream the registry, pool, SLO engine, and the server itself
        emit into: ``model_load`` / ``model_evict`` / ``model_swap`` /
        ``load_failure``, ``pool_warm`` / ``pool_rebuild`` /
        ``pool_shutdown``, ``slo_breach`` / ``slo_recover``,
        ``server_start`` / ``server_stop``.
        """
        return self.event_log.snapshot(limit=limit, kind=kind)

    def health(self) -> dict[str, Any]:
        """Liveness + the SLO verdict, the payload behind ``/health``.

        ``live`` is whether the server accepts requests; ``status`` is
        the worst verdict across the SLO rules evaluated against the
        rolling windows *right now* (``ok`` with no rules).  The
        exporter maps breach — or a stopped server — to HTTP 503.
        """
        report = self.slo.evaluate()
        return {"live": self.running, "status": report.overall,
                "backend": self.backend, "workers": self.workers,
                "queue_depth": self.slo.queue_depth,
                "slo": report.to_dict(),
                "windows": self.slo.window_summaries()}

    def serve_metrics(self, host: str = "127.0.0.1",
                      port: int = 0) -> ObservabilityExporter:
        """Attach and start an HTTP scrape endpoint over this server.

        ``port=0`` binds an ephemeral port (read it back from the
        returned exporter's ``.port``).  The endpoint serves
        ``/metrics``, ``/health``, ``/stats``, ``/traces``, and
        ``/events``; :meth:`stop` closes it with the server.
        """
        if self._exporter is not None:
            raise RuntimeError("an exporter is already attached; "
                               "stop() the server to detach it first")
        self._exporter = ObservabilityExporter(self, host=host,
                                               port=port).start()
        self.event_log.emit("exporter_start", host=self._exporter.host,
                            port=self._exporter.port)
        return self._exporter

    @property
    def exporter(self) -> ObservabilityExporter | None:
        return self._exporter

    def metrics_snapshot(self) -> dict[str, Any]:
        """The merged, JSON-able metrics state across the whole server.

        The server's own registry (request latencies, flush reasons,
        thread-backend layer timings) merged with the latest snapshot
        from every process-backend worker, in pid order.  Counters and
        histograms merge exactly, so the result is independent of how
        batches were scheduled across threads and workers.
        """
        with self._stats_lock:
            worker_snapshots = [snapshot for _pid, snapshot
                                in sorted(self._worker_snapshots.items())]
        return merge_snapshots([self._metrics.snapshot(), *worker_snapshots])

    def prometheus_text(self) -> str:
        """:meth:`metrics_snapshot` in Prometheus text exposition format."""
        return prometheus_from_snapshot(self.metrics_snapshot())

    def layer_profile(self, top: int | None = None
                      ) -> dict[str, list[dict[str, Any]]]:
        """Per-model layer timings, slowest first (requires ``profile=True``).

        Integer-nanosecond totals accumulated across both backends (the
        process backend ships each batch's layer timings home with the
        result), so the ranking is exact and schedule-independent.
        ``top`` keeps only the N slowest layers per model.
        """
        with self._stats_lock:
            captured = {model: {layer: (entry[0], entry[1])
                                for layer, entry in layers.items()}
                        for model, layers in self._layer_ns.items()}
        report: dict[str, list[dict[str, Any]]] = {}
        for model, layers in captured.items():
            ranked = sorted(layers.items(),
                            key=lambda item: (-item[1][0], item[0]))
            if top is not None:
                ranked = ranked[:top]
            report[model] = [
                {"layer": layer, "total_seconds": total_ns / 1e9,
                 "batches": batches,
                 "mean_seconds": (total_ns / 1e9 / batches) if batches else 0.0}
                for layer, (total_ns, batches) in ranked]
        return report
