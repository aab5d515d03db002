"""Persistent worker processes running mmap-shared execution plans.

The process serving backend ships ``(artifact path, content fingerprint,
mode, batch)`` to a pool of long-lived worker processes instead of
running the forward on a server thread.  Each worker lazily loads the
artifact **once per content generation** through
:func:`~repro.combining.serialization.load_plan` with ``mmap="auto"``
and caches a :class:`~repro.serving.registry.ResidentModel` over the
resulting :class:`~repro.combining.execplan.ExecutionPlan` in its own
module globals, keyed by ``(path, fingerprint)`` — so N
workers serving one V2 uncompressed artifact share a single resident
copy of the packed arrays through the page cache, the cost of crossing
the process boundary is one batch of activations each way (never a
model), and a hot-swapped artifact takes effect in every warm worker on
its next batch: the registry's new fingerprint misses the cache, the
worker re-verifies the file against it, and the superseded plan ages out
of the bounded LRU.  The mode rides along with each batch rather than in
the key: one plan serves every mode, so an artifact registered under
both ``exact`` and ``mx`` is loaded and held once per worker.

Because a worker runs the thread backend's own batch executor
(:meth:`~repro.serving.registry.ResidentModel.serve_batch`), responses
computed in a worker process are bit-identical to the thread backend's —
the server's determinism guarantee holds across backends and worker
counts.

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

from repro.combining.serialization import (
    PackedArtifactError,
    artifact_fingerprint,
    load_plan,
)
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.serving.registry import ResidentModel
from repro.utils.lru import LRUCache

#: How many distinct ``(path, fingerprint)`` entries one worker
#: keeps resident.  Plans are the expensive part (they pin the mmap'd
#: arrays), and a worker serving a registry that hot-swaps artifacts
#: would otherwise accumulate every superseded generation forever.  Each
#: entry's accounting cache is bounded too (``ACCOUNTING_PLAN_CACHE_SIZE``
#: in :mod:`repro.serving.registry`).
PLAN_CACHE_SIZE = 4

#: Per-process cache: ``(artifact path, content fingerprint)`` ->
#: :class:`~repro.serving.registry.ResidentModel` over the loaded plan.
#: Lives in the worker's own interpreter; the parent never touches it.
#: Keying by fingerprint — not path alone — is what makes artifact
#: hot-swap safe: after a
#: :meth:`~repro.serving.registry.ModelRegistry.swap` the registry hands
#: out the new content token, so a warm worker can never serve a
#: superseded plan it cached under the same path.
_PLAN_CACHE: LRUCache = LRUCache(PLAN_CACHE_SIZE)

#: Per-process observability registry.  Profiled batches record their
#: per-layer and whole-forward wall times here, and every profiled
#: result ships the registry's *snapshot* back to the server, which
#: keeps the latest snapshot per worker pid and merges them on demand
#: (:meth:`~repro.serving.server.InferenceServer.metrics_snapshot`) —
#: histogram merging is exact (:mod:`repro.obs.metrics`), so N workers'
#: partial views combine into the same totals one worker would have
#: recorded alone.
_WORKER_METRICS = MetricsRegistry()


def _resident_for(path: str, fingerprint: str | None,
                  mode: str) -> ResidentModel:
    """This worker's entry for the artifact; ``mode`` only seeds a new
    entry's default, since every batch passes its own."""
    key = (path, fingerprint)
    resident = _PLAN_CACHE.get(key)
    if resident is None:
        if fingerprint is not None:
            actual = artifact_fingerprint(path)
            if actual != fingerprint:
                raise PackedArtifactError(
                    f"{path} changed on disk: the registry expects content "
                    f"fingerprint {fingerprint} but the artifact now "
                    f"fingerprints as {actual}; cut the model over with "
                    "ModelRegistry.swap(name, path) instead of overwriting "
                    "its artifact in place")
        resident = ResidentModel(path, mode, load_plan(path, mmap="auto"))
        _PLAN_CACHE.put(key, resident)
    return resident


def _warm_worker() -> int:
    """No-op task submitted once per worker to force the fork up front."""
    return 0


def _run_plan_batch(path: str, mode: str, batch: np.ndarray,
                    fingerprint: str | None = None,
                    profile: bool = False,
                    model_name: str | None = None
                    ) -> tuple[np.ndarray, int, int, bool | None,
                               dict[str, Any] | None]:
    """One serving forward inside a worker:
    ``(outputs, cycles, tiles, plan_cache_hit, obs)``.

    Runs :meth:`~repro.serving.registry.ResidentModel.serve_batch` — the
    thread backend's executor — on this worker's cached entry for the
    artifact, so the forward, the profile recording and the best-effort
    systolic accounting are the thread backend's own.  The hit flag
    reflects *this worker's* accounting cache: each process pays its own
    misses, so the server-side hit/miss totals expose how much accounting
    work the process backend duplicates across workers.

    ``fingerprint`` is the content token the registry probed for the
    artifact; the cache keys on it, and a cache miss re-verifies it
    against the file before loading, so a warm worker can neither serve a
    superseded cached plan nor silently adopt an artifact that was
    overwritten in place behind the registry's back.

    ``profile`` records the batch into the worker's persistent
    :data:`_WORKER_METRICS` registry (labelled by ``model_name``, else
    the path) and adds ``pid`` and the registry's full ``snapshot`` to
    ``obs`` for the server-side merge.  Unprofiled batches return
    ``None`` there and pay nothing.
    """
    resident = _resident_for(path, fingerprint, mode)
    result = resident.serve_batch(batch, _WORKER_METRICS if profile else None,
                                  label=model_name, mode=mode)
    obs = result[4]
    if obs is not None:
        obs.update(pid=os.getpid(), snapshot=_WORKER_METRICS.snapshot())
    return result


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
            fingerprint: str | None = None, profile: bool = False,
            model_name: str | None = None
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
                                       fingerprint, profile, model_name)
        return future.result()

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)
        if self.event_log is not None and not self._shut_down:
            self._shut_down = True
            self.event_log.emit("pool_shutdown", workers=self.workers)
