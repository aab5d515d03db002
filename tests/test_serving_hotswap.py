"""Live artifact hot swap and the serving-robustness invariants around it.

The contract under test: :meth:`ModelRegistry.swap` cuts a served name
over to a new artifact **under traffic** with zero downtime and zero
ambiguity — every response is bit-identical to either the old or the new
artifact's direct batch-invariant forward, never a mixture, never a
drop — across backends, worker counts, and kernels.  Around that sit the
bugs the swap machinery exposed: worker-process plan caches must key by
content fingerprint (not path alone, or an overwritten artifact serves
stale bits); a dead process pool must cost one batch and one rebuild
(not permanent failure); the per-model accounting caches must be
LRU-bounded; and ``InferenceServer.stop(timeout)`` must treat ``timeout``
as one shared deadline rather than per-thread.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.combining import (
    PackedModel,
    PipelineConfig,
    QuantizedPackedModel,
    save_packed,
)
from repro.combining.serialization import (
    PackedArtifactError,
    artifact_fingerprint,
)
from repro.models import build_model
from repro.serving import InferenceServer, ModelRegistry
from repro.serving.procpool import (
    PLAN_CACHE_SIZE,
    _PLAN_CACHE,
    _run_plan_batch,
)
from repro.utils.lru import LRUCache

MODEL_KWARGS = {"in_channels": 1, "num_classes": 10, "scale": 1.0,
                "image_size": 8}
MODEL_SPEC = {"name": "lenet5", "kwargs": MODEL_KWARGS}


def sparsified_lenet5(seed: int = 3, **overrides):
    kwargs = {**MODEL_KWARGS, **overrides}
    model = build_model("lenet5", rng=np.random.default_rng(seed), **kwargs)
    mask_rng = np.random.default_rng(seed + 1)
    for _, layer in model.packable_layers():
        layer.weight.data *= mask_rng.random(layer.weight.data.shape) < 0.5
    return model


def build_packed(seed: int = 3, **overrides) -> PackedModel:
    return PackedModel.from_model(sparsified_lenet5(seed, **overrides),
                                  PipelineConfig(alpha=8, gamma=0.5))


def save_artifact(packed, path: Path, spec: dict = MODEL_SPEC) -> Path:
    return save_packed(packed, path, model_spec=spec, compress=False)


def direct_forward(model, mode: str, batch: np.ndarray) -> np.ndarray:
    if mode == "quantized":
        return model.forward(batch, track_errors=False, batch_invariant=True)
    return model.forward(batch, mode=mode, batch_invariant=True)


@pytest.fixture(scope="module")
def packed_old() -> PackedModel:
    return build_packed(seed=3)


@pytest.fixture(scope="module")
def packed_new() -> PackedModel:
    # Different seed, same architecture: what a retrained checkpoint
    # looks like to the registry (same layer signature, new bits).
    return build_packed(seed=21)


@pytest.fixture
def artifacts(tmp_path, packed_old, packed_new) -> tuple[Path, Path]:
    return (save_artifact(packed_old, tmp_path / "old.npz"),
            save_artifact(packed_new, tmp_path / "new.npz"))


# -- the tentpole: swap serves the new artifact's bits -----------------------
@pytest.mark.parametrize("backend", [
    "thread",
    pytest.param("process", marks=pytest.mark.slow),
])
def test_swap_cuts_over_to_new_artifact(artifacts, packed_old, packed_new,
                                        backend):
    old_path, new_path = artifacts
    batch = np.random.default_rng(5).normal(size=(4, 1, 8, 8))
    ref_old = direct_forward(packed_old, "exact", batch)
    ref_new = direct_forward(packed_new, "exact", batch)
    assert not np.array_equal(ref_old, ref_new)

    registry = ModelRegistry()
    registry.register("m", old_path)
    with InferenceServer(registry, workers=2, backend=backend) as server:
        assert np.array_equal(server.infer("m", batch), ref_old)
        info = registry.swap("m", new_path)
        assert info["generation"] == 2
        assert info["fingerprint"] == artifact_fingerprint(new_path)
        assert info["previous_fingerprint"] == artifact_fingerprint(old_path)
        assert np.array_equal(server.infer("m", batch), ref_new)
        stats = server.stats()
    assert stats["registry"]["swaps"] == 1
    assert stats["registry"]["generations"]["m"] == 2
    assert stats["totals"]["pool_rebuilds"] == 0
    assert stats["totals"]["failures"] == 0


def test_swap_back_and_forth_restores_old_bits(artifacts, packed_old,
                                               packed_new):
    old_path, new_path = artifacts
    batch = np.random.default_rng(6).normal(size=(3, 1, 8, 8))
    registry = ModelRegistry()
    registry.register("m", old_path)
    with InferenceServer(registry, workers=1) as server:
        server.infer("m", batch)
        registry.swap("m", new_path)
        assert np.array_equal(server.infer("m", batch),
                              direct_forward(packed_new, "exact", batch))
        registry.swap("m", old_path)
        assert np.array_equal(server.infer("m", batch),
                              direct_forward(packed_old, "exact", batch))
    assert registry.stats()["generations"]["m"] == 3


# -- hot swap under concurrent traffic ---------------------------------------
@pytest.mark.parametrize("backend,workers,kernel", [
    ("thread", 2, "blocked"),
    ("thread", 3, "loops"),
    pytest.param("process", 2, "blocked", marks=pytest.mark.slow),
])
def test_swap_under_concurrent_traffic_is_old_or_new_bits(
        artifacts, packed_old, packed_new, backend, workers, kernel,
        use_kernel):
    """Clients hammer infer() while swap() runs repeatedly: every response
    must be bit-identical to the old or the new artifact's direct forward
    (in-flight batches finish on the old immutable plan, later batches
    serve the new one — nothing in between exists), with zero dropped or
    hung requests."""
    old_path, new_path = artifacts
    rng = np.random.default_rng(9)
    requests = [rng.normal(size=(int(rng.integers(1, 4)), 1, 8, 8))
                for _ in range(30)]
    use_kernel(kernel)
    references = [(direct_forward(packed_old, "exact", request),
                   direct_forward(packed_new, "exact", request))
                  for request in requests]

    registry = ModelRegistry()
    registry.register("m", old_path)
    outcomes: dict[int, str] = {}
    errors: list[BaseException] = []
    lock = threading.Lock()

    with InferenceServer(registry, max_batch=4, max_wait=0.001,
                         workers=workers, backend=backend) as server:
        def client(offset: int) -> None:
            pending = [(index, server.submit("m", requests[index]))
                       for index in range(offset, len(requests), 3)]
            for index, request in pending:
                try:
                    output = request.result(timeout=60.0)
                except BaseException as error:  # noqa: BLE001
                    with lock:
                        errors.append(error)
                    continue
                ref_old, ref_new = references[index]
                if np.array_equal(output, ref_old):
                    verdict = "old"
                elif np.array_equal(output, ref_new):
                    verdict = "new"
                else:
                    verdict = "ambiguous"
                with lock:
                    outcomes[index] = verdict

        clients = [threading.Thread(target=client, args=(offset,))
                   for offset in range(3)]
        for thread in clients:
            thread.start()
        targets = (new_path, old_path)
        for index in range(4):
            time.sleep(0.005)
            registry.swap("m", targets[index % 2])
        for thread in clients:
            thread.join()
        stats = server.stats()

    assert not errors
    assert len(outcomes) == len(requests)
    assert "ambiguous" not in outcomes.values()
    assert stats["totals"]["failures"] == 0
    assert stats["registry"]["swaps"] == 4
    assert stats["registry"]["generations"]["m"] == 5


# -- the stale-cache bugfix --------------------------------------------------
def test_thread_backend_overwritten_artifact_keeps_registered_bits(
        artifacts, packed_old):
    """Overwriting an artifact in place (no swap) must not change what the
    resident entry serves — the plan was loaded at registration content."""
    old_path, new_path = artifacts
    batch = np.random.default_rng(7).normal(size=(2, 1, 8, 8))
    ref_old = direct_forward(packed_old, "exact", batch)
    registry = ModelRegistry()
    registry.register("m", old_path)
    with InferenceServer(registry, workers=1) as server:
        assert np.array_equal(server.infer("m", batch), ref_old)
        old_path.write_bytes(new_path.read_bytes())
        assert np.array_equal(server.infer("m", batch), ref_old)


@pytest.mark.slow
def test_process_backend_overwrite_then_swap_serves_new_bits(
        artifacts, packed_old, packed_new):
    """The regression the fingerprint keying fixes: overwrite the artifact
    on disk, then swap — warm workers must serve the *new* bits on the
    next batch instead of a plan cached under the bare path."""
    old_path, new_path = artifacts
    batch = np.random.default_rng(8).normal(size=(2, 1, 8, 8))
    ref_old = direct_forward(packed_old, "exact", batch)
    ref_new = direct_forward(packed_new, "exact", batch)
    registry = ModelRegistry()
    registry.register("m", old_path)
    # One worker so the overwrite phase deterministically hits its warm
    # plan cache (a cold worker would instead fail the batch loudly on
    # the fingerprint check — covered below).
    with InferenceServer(registry, workers=1, backend="process") as server:
        assert np.array_equal(server.infer("m", batch), ref_old)
        # Overwrite in place: the warm worker keeps serving the registered
        # content (cached under its fingerprint) — consistent, not stale.
        old_path.write_bytes(new_path.read_bytes())
        assert np.array_equal(server.infer("m", batch), ref_old)
        # The swap re-probes the file; its new fingerprint misses every
        # worker cache, so the very next batch serves the new bits.
        registry.swap("m", old_path)
        assert np.array_equal(server.infer("m", batch), ref_new)


def test_worker_detects_fingerprint_mismatch_on_load(artifacts):
    """A worker-side cache miss re-verifies the file against the registry's
    fingerprint: an artifact overwritten behind the registry's back fails
    loudly instead of serving ambiguous bits."""
    old_path, _ = artifacts
    batch = np.random.default_rng(3).normal(size=(2, 1, 8, 8))
    with pytest.raises(PackedArtifactError,
                       match="changed on disk.*swap"):
        _run_plan_batch(str(old_path), "exact", batch,
                        fingerprint="not-the-real-fingerprint")


# -- swap validation ---------------------------------------------------------
def test_swap_rejects_unknown_name_and_missing_file(artifacts):
    old_path, new_path = artifacts
    registry = ModelRegistry()
    registry.register("m", old_path)
    with pytest.raises(KeyError, match="unknown model"):
        registry.swap("nope", new_path)
    with pytest.raises(FileNotFoundError):
        registry.swap("m", new_path.parent / "never-saved.npz")


def test_swap_rejects_architecture_mismatch_and_keeps_serving(
        tmp_path, artifacts, packed_old):
    old_path, _ = artifacts
    other_kwargs = {**MODEL_KWARGS, "scale": 0.5}
    mismatched = save_artifact(
        build_packed(seed=4, scale=0.5), tmp_path / "mismatched.npz",
        spec={"name": "lenet5", "kwargs": other_kwargs})
    batch = np.random.default_rng(2).normal(size=(2, 1, 8, 8))
    registry = ModelRegistry()
    registry.register("m", old_path)
    with InferenceServer(registry, workers=1) as server:
        with pytest.raises(ValueError, match="different packed-layer"):
            registry.swap("m", mismatched)
        # A failed swap must not degrade the live entry.
        assert np.array_equal(server.infer("m", batch),
                              direct_forward(packed_old, "exact", batch))
    assert registry.stats()["swaps"] == 0
    assert registry.stats()["generations"]["m"] == 1


def test_swap_rejects_float_artifact_for_quantized_entry(
        tmp_path, packed_old, artifacts):
    old_path, _ = artifacts
    quantized = QuantizedPackedModel(packed_old, bits=8)
    quantized.calibrate(np.random.default_rng(7).normal(size=(8, 1, 8, 8)))
    quantized_path = save_artifact(quantized, tmp_path / "int8.npz")
    registry = ModelRegistry()
    registry.register("m", quantized_path, mode="quantized")
    with pytest.raises(ValueError, match="float packed model"):
        registry.swap("m", old_path)


# -- swap_live ---------------------------------------------------------------
def test_swap_live_pins_the_replacement(artifacts, packed_old, packed_new):
    old_path, _ = artifacts
    batch = np.random.default_rng(4).normal(size=(2, 1, 8, 8))
    registry = ModelRegistry()
    registry.register("m", old_path)
    with InferenceServer(registry, workers=1) as server:
        assert np.array_equal(server.infer("m", batch),
                              direct_forward(packed_old, "exact", batch))
        info = registry.swap_live("m", packed_new)
        assert info["generation"] == 2 and info["fingerprint"] is None
        assert np.array_equal(server.infer("m", batch),
                              direct_forward(packed_new, "exact", batch))
    # The entry is now pinned: no artifact path or fingerprint to ship.
    assert registry.registration_info("m") == (None, "exact", None)
    assert registry.stats()["swaps"] == 1


def test_swap_live_rejects_architecture_mismatch(artifacts):
    old_path, _ = artifacts
    registry = ModelRegistry()
    registry.register("m", old_path)
    with pytest.raises(ValueError, match="different packed-layer"):
        registry.swap_live("m", build_packed(seed=4, scale=0.5))


# -- bounded caches -----------------------------------------------------------
def test_lru_cache_bounds_and_refreshes_recency():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refresh: "b" is now oldest
    cache.put("c", 3)
    assert len(cache) == 2
    assert "b" not in cache and "a" in cache and "c" in cache
    with pytest.raises(ValueError, match="maxsize"):
        LRUCache(0)


def test_worker_process_caches_are_bounded(tmp_path, packed_old):
    """The worker-module plan cache (exercised here in-process) stays
    within its bound under many artifact generations."""
    _PLAN_CACHE.clear()
    paths = []
    for index in range(PLAN_CACHE_SIZE + 2):
        paths.append(save_artifact(build_packed(seed=30 + index),
                                   tmp_path / f"gen{index}.npz"))
    rng = np.random.default_rng(1)
    for index, path in enumerate(paths):
        batch = rng.normal(size=(1 + index, 1, 8, 8))
        _run_plan_batch(str(path), "exact", batch,
                        fingerprint=artifact_fingerprint(path))
    assert len(_PLAN_CACHE) <= PLAN_CACHE_SIZE
    _PLAN_CACHE.clear()


def test_worker_loads_one_plan_per_artifact_across_modes(artifacts, packed_old):
    """One artifact served under two modes is loaded and held once per
    worker (exercised here in-process); each batch still runs its own
    mode, bit-identical to the direct batch-invariant forward."""
    old_path, _ = artifacts
    fingerprint = artifact_fingerprint(old_path)
    batch = np.random.default_rng(6).normal(size=(3, 1, 8, 8))
    _PLAN_CACHE.clear()
    for mode in ("exact", "mx", "exact"):
        outputs = _run_plan_batch(str(old_path), mode, batch,
                                  fingerprint=fingerprint)[0]
        assert np.array_equal(outputs, direct_forward(packed_old, mode, batch))
    assert len(_PLAN_CACHE) == 1
    _PLAN_CACHE.clear()


# -- broken-pool recovery ----------------------------------------------------
@pytest.mark.slow
def test_broken_pool_fails_one_batch_then_rebuilds(artifacts, packed_old):
    old_path, _ = artifacts
    batch = np.random.default_rng(5).normal(size=(2, 1, 8, 8))
    ref = direct_forward(packed_old, "exact", batch)
    registry = ModelRegistry()
    registry.register("m", old_path)
    with InferenceServer(registry, workers=2, backend="process") as server:
        assert np.array_equal(server.infer("m", batch), ref)
        for _ in range(2):
            try:
                server._pool._executor.submit(os._exit, 1)
            except BrokenProcessPool:
                break  # the first exit already broke the pool
        time.sleep(0.3)
        failures = 0
        for _ in range(4):
            try:
                assert np.array_equal(server.infer("m", batch), ref)
            except AssertionError:
                raise
            except Exception:  # noqa: BLE001 - the poisoned batch
                failures += 1
        # Only the in-flight batches failed; one incident, one rebuild.
        assert 1 <= failures <= 2
        assert server.stats()["totals"]["pool_rebuilds"] == 1
        assert np.array_equal(server.infer("m", batch), ref)
        stats = server.stats()
    assert stats["totals"]["pool_rebuilds"] == 1
    assert stats["totals"]["failures"] == failures


# -- stop() deadline ---------------------------------------------------------
def test_stop_timeout_is_a_shared_deadline(artifacts, packed_old):
    """Three wedged workers must not stretch stop(1.0) to ~3 seconds: the
    timeout is one monotonic deadline shared by every join."""
    old_path, _ = artifacts
    batch = np.random.default_rng(5).normal(size=(2, 1, 8, 8))
    registry = ModelRegistry()
    registry.register("m", old_path)
    server = InferenceServer(registry, workers=3, max_batch=1,
                             max_wait=0.0).start()
    release = threading.Event()
    resident = registry.get("m")
    original = resident.serve_batch

    def wedged(*args, **kwargs):
        release.wait(timeout=30.0)
        return original(*args, **kwargs)

    resident.serve_batch = wedged
    pending = [server.submit("m", batch) for _ in range(3)]
    time.sleep(0.2)  # let every worker pick up a wedged batch
    started = time.monotonic()
    server.stop(timeout=1.0)
    elapsed = time.monotonic() - started
    assert elapsed < 2.0, f"stop(1.0) took {elapsed:.2f}s with 3 workers"
    assert server._threads  # wedged workers survive for a later stop()
    release.set()
    server.stop(timeout=10.0)
    assert not server._threads
    reference = direct_forward(packed_old, "exact", batch)
    for request in pending:  # every accepted request still got its answer
        assert np.array_equal(request.result(timeout=5.0), reference)
