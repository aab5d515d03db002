"""Persistent worker processes running mmap-shared execution plans.

The process serving backend ships ``(artifact path, content fingerprint,
mode, batch)`` to a pool of long-lived worker processes instead of
running the forward on a server thread.  Each worker lazily loads the
artifact **once per content generation** through
:func:`~repro.combining.serialization.load_plan` with ``mmap="auto"``
and caches the resulting :class:`~repro.combining.execplan.ExecutionPlan`
in its own module globals, keyed by ``(path, fingerprint)`` — so N
workers serving one V2 uncompressed artifact share a single resident
copy of the packed arrays through the page cache, the cost of crossing
the process boundary is one batch of activations each way (never a
model), and a hot-swapped artifact takes effect in every warm worker on
its next batch: the registry's new fingerprint misses the cache, the
worker re-verifies the file against it, and the superseded plan ages out
of the bounded LRU.

Because a worker runs the same plan forward, with the same
batch-invariant kernels, as the in-process thread backend, responses
computed in a worker process are bit-identical to the thread backend's — the server's determinism guarantee holds across
backends and worker counts.

Fork safety: :class:`ProcessWorkerPool` is created and warmed (one no-op
task per worker, forcing every fork) before the server spawns its drain
threads, so no worker process is ever forked from a multi-threaded
parent.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any

import numpy as np

from repro.combining.kernels import DEFAULT_KERNEL
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.utils.lru import LRUCache

#: How many distinct ``(path, fingerprint)`` plans one worker keeps
#: resident.  Plans are the expensive entries (they pin the mmap'd
#: arrays), and a worker serving a registry that hot-swaps artifacts
#: would otherwise accumulate every superseded generation forever.
PLAN_CACHE_SIZE = 4

#: Bound on the per-worker systolic accounting-plan cache — its key
#: space (artifact x batch size x observed spatial map) is unbounded
#: under varied traffic.
BATCH_PLAN_CACHE_SIZE = 32

#: Per-process plan cache: ``(artifact path, content fingerprint)`` ->
#: loaded ExecutionPlan.  Lives in the worker's own interpreter; the
#: parent never touches it.  Keying by fingerprint — not path alone — is
#: what makes artifact hot-swap safe: after a
#: :meth:`~repro.serving.registry.ModelRegistry.swap` the registry hands
#: out the new content token, so a warm worker can never serve a
#: superseded plan it cached under the same path.
_PLAN_CACHE: LRUCache = LRUCache(PLAN_CACHE_SIZE)

#: Per-process systolic batch-plan cache, keyed like
#: ResidentModel's accounting cache but per (artifact, fingerprint).
_BATCH_PLAN_CACHE: LRUCache = LRUCache(BATCH_PLAN_CACHE_SIZE)

#: Per-process observability registry.  Profiled batches record their
#: per-layer and whole-forward wall times here, and every profiled
#: result ships the registry's *snapshot* back to the server, which
#: keeps the latest snapshot per worker pid and merges them on demand
#: (:meth:`~repro.serving.server.InferenceServer.metrics_snapshot`) —
#: histogram merging is exact (:mod:`repro.obs.metrics`), so N workers'
#: partial views combine into the same totals one worker would have
#: recorded alone.
_WORKER_METRICS = MetricsRegistry()


def _plan_for(path: str, fingerprint: str | None = None):
    key = (path, fingerprint)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        from repro.combining.serialization import (
            PackedArtifactError,
            artifact_fingerprint,
            load_plan,
        )

        if fingerprint is not None:
            actual = artifact_fingerprint(path)
            if actual != fingerprint:
                raise PackedArtifactError(
                    f"{path} changed on disk: the registry expects content "
                    f"fingerprint {fingerprint} but the artifact now "
                    f"fingerprints as {actual}; cut the model over with "
                    "ModelRegistry.swap(name, path) instead of overwriting "
                    "its artifact in place")
        plan = load_plan(path, mmap="auto")
        _PLAN_CACHE.put(key, plan)
    return plan


def _warm_worker() -> int:
    """No-op task submitted once per worker to force the fork up front."""
    return 0


def _run_plan_batch(path: str, mode: str, batch: np.ndarray,
                    kernel: str = DEFAULT_KERNEL,
                    fingerprint: str | None = None,
                    profile: bool = False,
                    model_name: str | None = None
                    ) -> tuple[np.ndarray, int, int, bool | None,
                               dict[str, Any] | None]:
    """One serving forward inside a worker:
    ``(outputs, cycles, tiles, plan_cache_hit, obs)``.

    Mirrors the thread backend exactly: batch-invariant plan forward with
    the server's ``kernel``, then best-effort systolic cycle / tile
    accounting from the observed spatial map (a timing-model failure must
    not fail a batch whose forward already succeeded — it reports
    ``plan_cache_hit=None`` instead).  The hit flag reflects *this
    worker's* ``_BATCH_PLAN_CACHE``: each process pays its own misses, so
    the server-side hit/miss totals expose how much accounting work the
    process backend duplicates across workers.

    ``fingerprint`` is the content token the registry probed for the
    artifact; both caches key on it, and a cache miss re-verifies it
    against the file before loading, so a warm worker can neither serve a
    superseded cached plan nor silently adopt an artifact that was
    overwritten in place behind the registry's back.

    ``profile`` opts into per-layer wall-time accounting
    (``ExecutionPlan.forward(profile=...)`` — wrapping only, outputs
    bit-identical): this batch's per-layer nanoseconds are recorded into
    the worker's persistent :data:`_WORKER_METRICS` registry (histograms
    labelled by model and layer) and the last element of the result
    becomes ``{"pid", "layer_ns", "forward_ns", "snapshot"}`` — the
    per-batch timings for the server's trace, plus this worker's full
    registry snapshot for the server-side merge.  Unprofiled batches
    return ``None`` there and pay nothing.
    """
    plan = _plan_for(path, fingerprint)
    observed: dict[str, tuple[int, int]] = {}
    layer_ns: dict[str, int] | None = {} if profile else None
    if profile:
        from time import perf_counter_ns

        forward_started = perf_counter_ns()
    outputs = plan.forward(batch, mode=mode, batch_invariant=True,
                           observed=observed, kernel=kernel,
                           profile=layer_ns)
    obs: dict[str, Any] | None = None
    if profile:
        forward_ns = perf_counter_ns() - forward_started
        label_model = model_name if model_name is not None else path
        for layer, elapsed_ns in layer_ns.items():
            _WORKER_METRICS.histogram(
                "serving_layer_seconds",
                labels={"model": label_model, "layer": layer},
            ).record(elapsed_ns / 1e9)
        _WORKER_METRICS.histogram(
            "serving_forward_seconds",
            labels={"model": label_model}).record(forward_ns / 1e9)
        _WORKER_METRICS.counter(
            "serving_profiled_batches",
            labels={"model": label_model}).inc()
        obs = {"pid": os.getpid(), "layer_ns": layer_ns,
               "forward_ns": forward_ns,
               "snapshot": _WORKER_METRICS.snapshot()}
    cycles = tiles = 0
    cache_hit: bool | None = None
    try:
        key = (path, fingerprint, batch.shape[0],
               tuple(sorted(observed.items())))
        batch_plan = _BATCH_PLAN_CACHE.get(key)
        cache_hit = batch_plan is not None
        if batch_plan is None:
            batch_plan = plan.execution_plan(observed=observed,
                                             batch=batch.shape[0])
            _BATCH_PLAN_CACHE.put(key, batch_plan)
        cycles, tiles = batch_plan.total_cycles, batch_plan.total_tiles
    except Exception:  # noqa: BLE001 - accounting is best-effort
        cache_hit = None
    return outputs, cycles, tiles, cache_hit, obs


class ProcessWorkerPool:
    """A warmed, persistent :class:`ProcessPoolExecutor` for plan forwards.

    ``run`` blocks until the worker returns, so the server's drain
    threads provide the concurrency structure (one in-flight batch per
    drain thread) while the pool provides the parallel compute.
    """

    def __init__(self, workers: int, start_method: str | None = None,
                 events: EventLog | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.start_method = start_method
        #: Optional lifecycle stream (the server passes its own):
        #: ``pool_warm`` / ``pool_shutdown`` records with pids, so a
        #: rebuild incident reads as evict-old/warm-new in one log.
        self.event_log = events
        context = (multiprocessing.get_context(start_method)
                   if start_method is not None else None)
        self._executor = ProcessPoolExecutor(max_workers=workers,
                                             mp_context=context)
        self._shut_down = False

    def warm(self) -> None:
        """Fork every worker now (call before any threads exist)."""
        futures = [self._executor.submit(_warm_worker)
                   for _ in range(self.workers)]
        for future in futures:
            future.result()
        if self.event_log is not None:
            self.event_log.emit("pool_warm", workers=self.workers,
                                start_method=self.start_method)

    def run(self, path: str | Path, mode: str, batch: np.ndarray,
            kernel: str = DEFAULT_KERNEL, fingerprint: str | None = None,
            profile: bool = False, model_name: str | None = None
            ) -> tuple[np.ndarray, int, int, bool | None,
                       dict[str, Any] | None]:
        """Run one batch in a worker process; returns
        ``(outputs, cycles, tiles, plan_cache_hit, obs)``.

        ``fingerprint`` pins which artifact *content* the worker must
        serve — its plan cache keys on it, so a swap-updated registry is
        never answered from a superseded cached plan.  ``profile``
        additionally collects per-layer wall time in the worker and
        ships its metrics snapshot back in ``obs`` (see
        :func:`_run_plan_batch`).
        """
        future = self._executor.submit(_run_plan_batch, str(path), mode, batch,
                                       kernel, fingerprint, profile,
                                       model_name)
        return future.result()

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)
        if self.event_log is not None and not self._shut_down:
            self._shut_down = True
            self.event_log.emit("pool_shutdown", workers=self.workers)
