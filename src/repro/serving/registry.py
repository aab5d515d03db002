"""Named packed artifacts with lazy loading and LRU-bounded residency.

A serving node typically advertises more models than it wants resident in
memory at once: artifacts are cheap on disk (the whole point of
:mod:`repro.combining.serialization`), loaded models are not.
:class:`ModelRegistry` maps names to registered artifacts, loads them on
first request (:meth:`ModelRegistry.get`), and keeps at most
``max_resident`` loaded at a time, evicting the least recently used
reloadable entry when the bound is exceeded.  Models registered directly
as live objects (:meth:`ModelRegistry.add`) cannot be reloaded from
anywhere, so they are pinned and never count against the bound.

What the registry keeps resident is an immutable
:class:`~repro.combining.execplan.ExecutionPlan`, not an nn module graph.
Plans never mutate shared state during a forward, so any number of worker
threads may run the *same* resident model concurrently — there is no
per-model forward lock anymore, and the registry is no longer the unit of
serving concurrency.  An artifact-backed entry loads from its file
alone, through :func:`~repro.combining.serialization.load_plan` with
``mmap="auto"`` — the same call the process backend's workers make — so
a V2 uncompressed artifact comes up as read-only views of the page cache
without ever reconstructing the nn model.  An artifact no plan can be
built from (a matrix-only packing, a V1 file without ``model_spec``) is
refused when it is registered or swapped in, never on a request.

Loads are guarded by **per-entry** locks: concurrent ``get`` calls for
one name still load its artifact exactly once, but a slow load of one
model never serializes loads (or cache hits) of unrelated models behind
a registry-wide lock.

Live redeploy: :meth:`ModelRegistry.swap` cuts a registered name over to
an updated artifact **under traffic**.  The new artifact is probed
(content fingerprint, serving-mode and layer-architecture compatibility
via :func:`~repro.combining.serialization.artifact_info`) and loaded off
to the side under the entry's ``load_lock``; only then does the resident
entry atomically flip.  In-flight forwards keep running on the old
:class:`~repro.combining.execplan.ExecutionPlan` — plans are immutable,
so no drain or request-blocking is needed — and the next ``get()``
serves the new plan.  Every swap bumps the entry's **generation** and
re-probes its **fingerprint**, the token the process serving backend
keys its per-worker plan caches on, so warm worker processes can never
serve a superseded artifact.  :meth:`ModelRegistry.swap_live` is the
same cutover for an already-built model object (the entry becomes
pinned, like :meth:`ModelRegistry.add`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.combining.execplan import PLAN_MODES, ExecutionPlan
from repro.combining.inference import PackedModel
from repro.combining.quantized import QuantizedPackedModel
from repro.combining.serialization import (
    artifact_info,
    check_servable,
    load_plan,
)
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry

#: Forward modes a registered model can serve under — the plan's modes.
SERVING_MODES: tuple[str, ...] = PLAN_MODES

#: ``((layer name, (rows, cols)), ...)`` — the per-layer shape skeleton
#: a swap target must reproduce.
_LayerSignature = tuple[tuple[str, tuple[int, int]], ...]


def _signature_from_info(info: dict[str, Any]) -> _LayerSignature:
    return tuple((str(layer["name"]),
                  tuple(int(side) for side in layer["original_shape"]))
                 for layer in info["layers"])


def _signature_from_plan(plan: ExecutionPlan) -> _LayerSignature:
    return tuple((op.name, tuple(op.packed.original_shape))
                 for op in plan.packed_ops)


@dataclass
class _Registration:
    """How to obtain a model: an artifact path, or a pinned live object.

    ``load_lock`` serializes loads *of this entry only*: the registry
    lock is never held across a load, so unrelated entries load (and
    serve cache hits) concurrently.  ``fingerprint`` is the artifact's
    content token (probed at registration / swap time, never trusted
    stale); ``generation`` counts cutovers — 1 for the original
    registration, +1 per swap.  ``layer_signature`` pins the per-layer
    shape skeleton a swap target must reproduce.
    """

    name: str
    mode: str
    path: Path | None = None
    resident: "ResidentModel | None" = None
    fingerprint: str | None = None
    generation: int = 1
    layer_signature: _LayerSignature | None = None
    load_lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def reloadable(self) -> bool:
        return self.path is not None


class ResidentModel:
    """A resident serving entry: an immutable plan, its dispatch mode, and
    the batch executor both serving backends run.

    Accepts an already-compiled :class:`ExecutionPlan` (the artifact load
    path) or a live :class:`PackedModel` / :class:`QuantizedPackedModel`
    (the :meth:`ModelRegistry.add` path), which is compiled once here.
    The source model objects, when given, are kept on :attr:`packed` /
    :attr:`quantized` for callers that want the full accounting API; the
    serving forward itself only ever touches :attr:`plan`.  Plan
    execution is stateless, so :meth:`serve_batch` needs no lock.
    """

    def __init__(self, name: str, mode: str,
                 model: PackedModel | QuantizedPackedModel | ExecutionPlan):
        self.name = name
        self.mode = mode
        if isinstance(model, ExecutionPlan):
            self.quantized = None
            self.packed = None
            plan = model
        else:
            self.quantized = (model if isinstance(model, QuantizedPackedModel)
                              else None)
            self.packed = (model.packed if self.quantized is not None
                           else model)
            plan = None
        if mode == "quantized":
            quantized_capable = (plan.bits is not None if plan is not None
                                 else self.quantized is not None)
            if not quantized_capable:
                raise ValueError(
                    f"model {name!r} is registered for quantized serving but "
                    "the artifact holds a float PackedModel")
            if self.quantized is not None and not self.quantized.calibrated:
                raise ValueError(
                    f"model {name!r} is not calibrated; quantized serving "
                    "needs the frozen scales")
        if plan is None:
            if self.packed.model is None:
                raise ValueError(
                    f"model {name!r} has no nn model attached; serving needs a "
                    "forward-capable artifact (save it with model state)")
            source = self.quantized if self.quantized is not None else self.packed
            plan = source.compile_plan()
        #: The immutable execution plan every forward runs through.
        self.plan = plan
        #: Content fingerprint of the artifact this entry was loaded
        #: from (None for live models) and the registration generation
        #: it belongs to — stamped by the registry, bumped per swap.
        self.fingerprint: str | None = None
        self.generation = 1

    def serve_batch(self, batch: np.ndarray,
                    metrics: MetricsRegistry | None = None,
                    label: str | None = None, mode: str | None = None
                    ) -> tuple[np.ndarray, int, int, dict[str, Any] | None]:
        """Serve one coalesced batch: ``(outputs, cycles, tiles, obs)``.

        The one batch executor of both serving backends — a drain thread
        calls it on the registry's resident entry, a worker process on
        the entry it cached for the artifact.  It runs the
        batch-invariant plan forward (what makes dynamic batching
        bit-transparent — see
        :meth:`repro.combining.execplan.ExecutionPlan.forward`) and
        costs the batch on the systolic timing model
        (:meth:`~repro.combining.execplan.ExecutionPlan.execution_plan`:
        each layer's cached tile geometry and the words this batch
        streamed through it, no per-batch-size cache).  Accounting is
        best effort: a timing-model failure (e.g. non-square activation
        maps) must not fail a batch whose forward already succeeded, so
        it reports zero cycles and tiles instead.

        ``metrics`` opts into per-layer profiling (wrapping only; the
        outputs stay bit-identical): the batch's layer and forward wall
        times and a profiled-batch count are recorded into it as
        ``serving_layer_seconds`` / ``serving_forward_seconds`` /
        ``serving_profiled_batches``, labelled with ``label`` (default
        :attr:`name`), and ``obs`` becomes ``{"layer_ns", "forward_ns"}``
        (integer nanoseconds).  Without ``metrics``, ``obs`` is ``None``.

        ``mode`` overrides :attr:`mode` for this batch.  A worker process
        holds one entry per artifact and passes each batch's registered
        mode; neither the plan nor its accounting depends on the mode.
        """
        observed: dict[str, tuple[int, int]] = {}
        layer_ns: dict[str, int] | None = None if metrics is None else {}
        mode = self.mode if mode is None else mode
        started = time.perf_counter_ns()
        outputs = self.plan.forward(batch, mode=mode,
                                    batch_invariant=True, observed=observed,
                                    profile=layer_ns)
        obs: dict[str, Any] | None = None
        if metrics is not None:
            forward_ns = time.perf_counter_ns() - started
            model = self.name if label is None else label
            for layer, elapsed_ns in layer_ns.items():
                metrics.histogram(
                    "serving_layer_seconds",
                    labels={"model": model, "layer": layer},
                ).record(elapsed_ns / 1e9)
            metrics.histogram("serving_forward_seconds",
                              labels={"model": model}).record(forward_ns / 1e9)
            metrics.counter("serving_profiled_batches",
                            labels={"model": model}).inc()
            obs = {"layer_ns": layer_ns, "forward_ns": forward_ns}
        try:
            plan = self.plan.execution_plan(observed=observed,
                                            batch=batch.shape[0])
        except Exception:  # noqa: BLE001 - accounting is best-effort
            return outputs, 0, 0, obs
        return outputs, plan.total_cycles, plan.total_tiles, obs


class ModelRegistry:
    """Thread-safe name -> execution plan mapping with bounded residency.

    Every artifact load is ``load_plan(path, mmap="auto")``: V2
    uncompressed artifacts are memory-mapped (so N registries / processes
    share one resident copy through the page cache), anything else falls
    back to a regular read.
    """

    def __init__(self, max_resident: int = 2,
                 events: EventLog | None = None):
        if max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        self.max_resident = max_resident
        self._lock = threading.RLock()
        self._registrations: dict[str, _Registration] = {}
        #: LRU order over resident *reloadable* entries (pinned live
        #: models are tracked on their registration instead).
        self._resident: OrderedDict[str, ResidentModel] = OrderedDict()
        self.loads = 0
        self.hits = 0
        self.evictions = 0
        self.swaps = 0
        self.load_seconds = 0.0
        #: Lifecycle stream: ``model_load`` / ``model_evict`` /
        #: ``model_swap`` / ``load_failure`` records with fingerprints
        #: and generations — the inspectable counterpart of the bare
        #: counters above.  An :class:`InferenceServer` built over this
        #: registry joins the same log by default.
        self.event_log: EventLog = (events if events is not None
                                    else EventLog())

    def _evict_over_limit_locked(self) -> None:
        """Evict LRU entries over the bound; caller holds ``_lock``."""
        while len(self._resident) > self.max_resident:
            evicted_name, _ = self._resident.popitem(last=False)
            self.evictions += 1
            self.event_log.emit("model_evict", model=evicted_name,
                                resident=len(self._resident),
                                max_resident=self.max_resident)

    # -- registration --------------------------------------------------------
    def register(self, name: str, path: str | Path, mode: str = "exact"
                 ) -> None:
        """Register a packed artifact under ``name`` (loaded lazily).

        ``mode`` picks the serving mode.  Registration probes the
        artifact's metadata (cheap — no arrays are loaded) to pin its
        content fingerprint and per-layer shape signature: the
        fingerprint is what keys the process backend's worker caches,
        and the signature is what a later :meth:`swap` target must
        reproduce.  An artifact no plan can be built from raises
        :class:`~repro.combining.serialization.PackedArtifactError` here
        (see :func:`~repro.combining.serialization.check_servable`).
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"packed artifact {path} does not exist")
        info = artifact_info(path)
        check_servable(info, path)
        with self._lock:
            self._check_registration(name, mode)
            self._registrations[name] = _Registration(
                name=name, mode=mode, path=path,
                fingerprint=str(info["fingerprint"]),
                layer_signature=_signature_from_info(info))

    def add(self, name: str,
            model: PackedModel | QuantizedPackedModel | ExecutionPlan,
            mode: str | None = None) -> None:
        """Register an already-built model (pinned: it cannot be reloaded,
        so it is never evicted and does not count against ``max_resident``).

        Accepts a live model (compiled to a plan here) or an
        :class:`ExecutionPlan` directly.  ``mode`` defaults to
        ``"quantized"`` when the model carries frozen scales and
        ``"exact"`` otherwise.
        """
        if mode is None:
            quantized = (model.bits is not None
                         if isinstance(model, ExecutionPlan)
                         else isinstance(model, QuantizedPackedModel))
            mode = "quantized" if quantized else "exact"
        resident = ResidentModel(name, mode, model)
        with self._lock:
            self._check_registration(name, mode)
            self._registrations[name] = _Registration(
                name=name, mode=mode, resident=resident,
                layer_signature=_signature_from_plan(resident.plan))

    def _check_registration(self, name: str, mode: str) -> None:
        """Validate under the caller's lock hold (check + insert are atomic)."""
        if mode not in SERVING_MODES:
            raise ValueError(f"unknown serving mode {mode!r}; "
                             f"expected one of {SERVING_MODES}")
        if name in self._registrations:
            raise ValueError(f"model {name!r} is already registered")

    # -- lookup --------------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._registrations)

    def resident_names(self) -> list[str]:
        """Currently loaded models (pinned ones included), unordered."""
        with self._lock:
            pinned = [registration.name
                      for registration in self._registrations.values()
                      if registration.resident is not None]
            return sorted(pinned + list(self._resident))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._registrations

    def registration_info(self, name: str
                          ) -> tuple[Path | None, str, str | None]:
        """``(artifact path, serving mode, content fingerprint)`` for a name.

        Pinned live models have no path (and no fingerprint).  The
        process serving backend uses this to ship
        (path, mode, fingerprint) — instead of a loaded model — to its
        workers, which map the artifact themselves and key their plan
        caches by ``(path, fingerprint)``; after a :meth:`swap`, the new
        fingerprint is what forces every warm worker onto the new
        artifact.
        """
        with self._lock:
            registration = self._registrations.get(name)
            if registration is None:
                raise KeyError(
                    f"unknown model {name!r}; registered models: "
                    f"{self.names()}")
            return (registration.path, registration.mode,
                    registration.fingerprint)

    def get(self, name: str) -> ResidentModel:
        """The resident model for ``name``, loading (and evicting) as needed.

        The registry lock is held only for residency bookkeeping; the
        artifact load itself runs under the entry's own ``load_lock``,
        so concurrent ``get`` calls for one name load its artifact
        exactly once while gets of *other* names (hits or loads)
        proceed unblocked.
        """
        with self._lock:
            registration = self._registrations.get(name)
            if registration is None:
                raise KeyError(
                    f"unknown model {name!r}; registered models: "
                    f"{self.names()}")
            if registration.resident is not None:  # pinned live model
                self.hits += 1
                return registration.resident
            resident = self._resident.get(name)
            if resident is not None:
                self.hits += 1
                self._resident.move_to_end(name)
                return resident
        with registration.load_lock:
            # Double-check: another thread may have finished this load —
            # or a swap_live may have pinned a fresh entry — while we
            # waited on the entry lock.
            with self._lock:
                if registration.resident is not None:
                    self.hits += 1
                    return registration.resident
                resident = self._resident.get(name)
                if resident is not None:
                    self.hits += 1
                    self._resident.move_to_end(name)
                    return resident
                # Snapshot under the lock: stable for the duration of
                # the load (swaps also serialize on load_lock).
                path = registration.path
                mode, fingerprint = registration.mode, registration.fingerprint
                generation = registration.generation
            started = time.monotonic()
            try:
                loaded = load_plan(path, mmap="auto")
            except Exception as error:
                self.event_log.emit("load_failure", model=name,
                                    path=str(path),
                                    error=f"{type(error).__name__}: {error}")
                raise
            elapsed = time.monotonic() - started
            resident = ResidentModel(name, mode, loaded)
            resident.fingerprint = fingerprint
            resident.generation = generation
            with self._lock:
                self.loads += 1
                self.load_seconds += elapsed
                self._resident[name] = resident
                self._evict_over_limit_locked()
            self.event_log.emit("model_load", model=name, mode=mode,
                                fingerprint=fingerprint,
                                generation=generation,
                                load_seconds=elapsed)
            return resident

    # -- live redeploy (hot swap) --------------------------------------------
    def _registration_for_swap(self, name: str) -> _Registration:
        with self._lock:
            registration = self._registrations.get(name)
            if registration is None:
                raise KeyError(
                    f"unknown model {name!r}; registered models: "
                    f"{self.names()}")
            return registration

    @staticmethod
    def _check_swap_compatible(registration: _Registration,
                               kind: str, signature: _LayerSignature,
                               target: str) -> None:
        """Refuse cutovers the live traffic could not survive.

        Must hold *before* the resident entry flips: a quantized-mode
        entry needs frozen scales, and the per-layer shape skeleton must
        match the registration's — in-flight clients keep sending the
        shapes the old model accepted.
        """
        if registration.mode == "quantized" and kind != "quantized":
            raise ValueError(
                f"cannot swap model {registration.name!r}: it serves in "
                f"quantized mode but {target} holds a float packed model "
                "(no frozen calibration scales)")
        expected = registration.layer_signature
        if expected is not None and signature != expected:
            raise ValueError(
                f"cannot swap model {registration.name!r}: {target} has a "
                f"different packed-layer architecture ({len(signature)} "
                f"layers {[name for name, _ in signature]} vs the "
                f"registered {len(expected)} layers "
                f"{[name for name, _ in expected]} / shapes) — swap targets "
                "must repackage the same architecture")

    def _install_swapped(self, registration: _Registration,
                         resident: ResidentModel, *, path: Path | None,
                         fingerprint: str | None,
                         signature: _LayerSignature,
                         load_seconds: float) -> dict[str, Any]:
        """Atomically cut the entry over (caller holds ``load_lock``)."""
        with self._lock:
            previous_fingerprint = registration.fingerprint
            registration.generation += 1
            registration.path = path
            registration.fingerprint = fingerprint
            registration.layer_signature = signature
            resident.generation = registration.generation
            resident.fingerprint = fingerprint
            if path is None:
                # Live model: pinned, never evicted, leaves the LRU.
                registration.resident = resident
                self._resident.pop(name := registration.name, None)
            else:
                registration.resident = None
                self._resident[name := registration.name] = resident
                self._resident.move_to_end(name)
                self._evict_over_limit_locked()
            self.swaps += 1
            self.load_seconds += load_seconds
            result = {
                "name": name,
                "generation": registration.generation,
                "fingerprint": fingerprint,
                "previous_fingerprint": previous_fingerprint,
                "load_seconds": load_seconds,
            }
        self.event_log.emit("model_swap", model=result["name"],
                            generation=result["generation"],
                            fingerprint=result["fingerprint"],
                            previous_fingerprint=result["previous_fingerprint"],
                            load_seconds=result["load_seconds"],
                            live=path is None)
        return result

    def swap(self, name: str, path: str | Path) -> dict[str, Any]:
        """Cut a registered name over to an updated artifact, under traffic.

        The new artifact is probed (:func:`artifact_info`: content
        fingerprint plus serving-mode / layer-architecture compatibility)
        and loaded **off to the side** under the entry's ``load_lock`` —
        the old resident keeps serving every in-flight and queued forward
        throughout, and nothing blocks requests (plans are immutable, so
        no drain is needed).  Only when the new plan is fully resident
        does the entry atomically flip: the next ``get()`` (and, via the
        re-probed fingerprint, the next process-backend batch) serves the
        new artifact.  Works on artifact-backed *and* pinned live
        entries (the entry becomes artifact-backed).  Returns the new
        ``{"generation", "fingerprint", "previous_fingerprint",
        "load_seconds", "name"}``.

        Incompatible targets (wrong serving kind, different packed-layer
        skeleton) raise ``ValueError``, and targets no plan can be built
        from raise
        :class:`~repro.combining.serialization.PackedArtifactError`, all
        before anything flips, so a failed swap never degrades the live
        entry.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"packed artifact {path} does not exist")
        registration = self._registration_for_swap(name)
        with registration.load_lock:
            info = artifact_info(path)
            check_servable(info, path)
            fingerprint = str(info["fingerprint"])
            signature = _signature_from_info(info)
            self._check_swap_compatible(registration, str(info["kind"]),
                                        signature, str(path))
            started = time.monotonic()
            try:
                loaded = load_plan(path, mmap="auto")
            except Exception as error:
                self.event_log.emit("load_failure", model=name,
                                    path=str(path),
                                    error=f"{type(error).__name__}: {error}")
                raise
            elapsed = time.monotonic() - started
            resident = ResidentModel(name, registration.mode, loaded)
            return self._install_swapped(
                registration, resident, path=path, fingerprint=fingerprint,
                signature=signature, load_seconds=elapsed)

    def swap_live(self, name: str,
                  model: PackedModel | QuantizedPackedModel | ExecutionPlan
                  ) -> dict[str, Any]:
        """:meth:`swap`, but the replacement is an already-built model.

        The model is compiled to a plan off to the side (old resident
        keeps serving), checked against the entry's serving mode and
        layer signature, then atomically installed as a **pinned** live
        entry — exactly what :meth:`add` would have registered, so the
        process backend can no longer serve this name afterwards (live
        models have no artifact to ship).
        """
        registration = self._registration_for_swap(name)
        with registration.load_lock:
            started = time.monotonic()
            resident = ResidentModel(name, registration.mode, model)
            elapsed = time.monotonic() - started
            signature = _signature_from_plan(resident.plan)
            kind = "quantized" if resident.plan.bits is not None else "packed"
            self._check_swap_compatible(registration, kind, signature,
                                        f"the live {type(model).__name__}")
            return self._install_swapped(
                registration, resident, path=None, fingerprint=None,
                signature=signature, load_seconds=elapsed)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "registered": len(self._registrations),
                "resident": len(self.resident_names()),
                "loads": self.loads,
                "hits": self.hits,
                "evictions": self.evictions,
                "swaps": self.swaps,
                "load_seconds": self.load_seconds,
                "generations": {name: registration.generation
                                for name, registration
                                in sorted(self._registrations.items())},
            }
