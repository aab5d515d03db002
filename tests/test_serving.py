"""The serving subsystem: batcher, registry, server, and the determinism
guarantee — responses under concurrent clients and arbitrary batch
coalescing are bit-identical to the direct batch-invariant forward on
each request, across exact / mx / quantized modes, every grouping x
prune engine combination, both execution backends
(``backend="thread"|"process"``), and any worker count.
"""

from __future__ import annotations

import shutil
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.combining import (
    GROUPING_ENGINES,
    PRUNE_ENGINES,
    PackedArtifactError,
    PackedModel,
    PackingPipeline,
    PipelineConfig,
    QuantizedPackedModel,
    load_packed,
    save_packed,
)
from repro.combining.serialization import artifact_fingerprint
from repro.experiments.workloads import sparse_network
from repro.models import build_model
from repro.serving import (
    DynamicBatcher,
    InferenceServer,
    ModelRegistry,
    SERVING_MODES,
)
from repro.serving.batcher import Batch, PendingRequest
from repro.serving.registry import ResidentModel
from repro.systolic.array import ArrayConfig
from repro.systolic.system import SystolicSystem
from tests.conftest import rewrite_as_v1

ENGINE_COMBOS = [(grouping, prune)
                 for grouping in GROUPING_ENGINES for prune in PRUNE_ENGINES]

MODEL_KWARGS = {"in_channels": 1, "num_classes": 10, "scale": 1.0,
                "image_size": 8}
MODEL_SPEC = {"name": "lenet5", "kwargs": MODEL_KWARGS}


def sparsified_lenet5(seed: int = 3):
    model = build_model("lenet5", rng=np.random.default_rng(seed),
                        **MODEL_KWARGS)
    mask_rng = np.random.default_rng(seed + 1)
    for _, layer in model.packable_layers():
        layer.weight.data *= mask_rng.random(layer.weight.data.shape) < 0.5
    return model


def build_packed(grouping_engine: str = "fast", prune_engine: str = "fast"
                 ) -> PackedModel:
    config = PipelineConfig(alpha=8, gamma=0.5,
                            grouping_engine=grouping_engine,
                            prune_engine=prune_engine)
    return PackedModel.from_model(sparsified_lenet5(), config)


def build_quantized(packed: PackedModel) -> QuantizedPackedModel:
    quantized = QuantizedPackedModel(packed, bits=8)
    quantized.calibrate(np.random.default_rng(7).normal(size=(16, 1, 8, 8)))
    return quantized


@pytest.fixture(scope="module")
def packed() -> PackedModel:
    return build_packed()


@pytest.fixture(scope="module")
def quantized(packed: PackedModel) -> QuantizedPackedModel:
    return build_quantized(packed)


def request_stream(count: int, seed: int, max_request: int = 3) -> list[np.ndarray]:
    """Seeded requests of 1..max_request samples each."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(int(rng.integers(1, max_request + 1)), 1, 8, 8))
            for _ in range(count)]


def direct_forward(model, mode: str, batch: np.ndarray) -> np.ndarray:
    """The reference each served response must match bit-for-bit."""
    if mode == "quantized":
        return model.forward(batch, track_errors=False, batch_invariant=True)
    return model.forward(batch, mode=mode, batch_invariant=True)


# -- batch-invariant forward (the property serving builds on) ----------------
@pytest.mark.parametrize("mode", ["exact", "mx"])
def test_batch_invariant_forward_is_coalescing_independent(packed, mode):
    images = np.random.default_rng(0).normal(size=(11, 1, 8, 8))
    full = packed.forward(images, mode=mode, batch_invariant=True)
    for start, stop in [(0, 1), (1, 4), (4, 11), (2, 3)]:
        chunk = packed.forward(images[start:stop], mode=mode,
                               batch_invariant=True)
        assert np.array_equal(full[start:stop], chunk)
    # Numerically equivalent to the default (BLAS) path.
    assert np.allclose(full, packed.forward(images, mode=mode),
                       rtol=1e-9, atol=1e-11)


def test_quantized_batch_invariant_forward_is_coalescing_independent(quantized):
    images = np.random.default_rng(0).normal(size=(11, 1, 8, 8))
    full = quantized.forward(images, track_errors=False, batch_invariant=True)
    for start, stop in [(0, 1), (1, 4), (4, 11)]:
        chunk = quantized.forward(images[start:stop], track_errors=False,
                                  batch_invariant=True)
        assert np.array_equal(full[start:stop], chunk)
    assert np.allclose(full, quantized.forward(images, track_errors=False),
                       rtol=1e-9, atol=1e-11)


def test_batch_invariant_context_restores_module_state(packed):
    images = np.random.default_rng(0).normal(size=(4, 1, 8, 8))
    before = packed.forward(images)
    packed.forward(images, batch_invariant=True)
    assert np.array_equal(packed.forward(images), before)
    model = packed.model
    assert all("forward" not in vars(module) for module in model.modules())


def test_predict_accepts_single_unbatched_sample(packed, quantized):
    images = np.random.default_rng(1).normal(size=(5, 1, 8, 8))
    batched = packed.predict(images)
    single = packed.predict(images[2])
    assert np.ndim(single) == 0
    assert single == batched[2]
    quantized_batched = quantized.predict(images)
    quantized_single = quantized.predict(images[2])
    assert np.ndim(quantized_single) == 0
    assert quantized_single == quantized_batched[2]


# -- dynamic batcher ---------------------------------------------------------
def sample(n: int = 1) -> np.ndarray:
    return np.zeros((n, 1, 2, 2))


def test_batcher_coalesces_up_to_max_batch():
    batcher = DynamicBatcher(max_batch=4, max_wait=0.0)
    requests = [batcher.submit("m", sample()) for _ in range(6)]
    first = batcher.next_batch(timeout=0.1)
    second = batcher.next_batch(timeout=0.1)
    assert [len(first), len(second)] == [4, 2]
    assert first.requests == requests[:4]
    assert second.requests == requests[4:]
    assert first.num_samples == 4
    assert first.stacked().shape == (4, 1, 2, 2)


def test_batcher_counts_samples_not_requests():
    batcher = DynamicBatcher(max_batch=4, max_wait=0.0)
    batcher.submit("m", sample(3))
    batcher.submit("m", sample(3))
    first = batcher.next_batch(timeout=0.1)
    assert len(first) == 1 and first.num_samples == 3  # 3 + 3 > 4: no split
    oversized = batcher.submit("m", sample(9))
    batcher.next_batch(timeout=0.1)
    alone = batcher.next_batch(timeout=0.1)
    assert alone.requests == [oversized]  # oversized dispatches alone


def test_batcher_keeps_per_key_fifo_and_separates_keys():
    batcher = DynamicBatcher(max_batch=8, max_wait=0.0)
    a1 = batcher.submit("a", sample())
    b1 = batcher.submit("b", sample())
    a2 = batcher.submit("a", sample())
    b2 = batcher.submit("b", sample())
    first = batcher.next_batch(timeout=0.1)
    second = batcher.next_batch(timeout=0.1)
    assert first.key == "a" and first.requests == [a1, a2]
    assert second.key == "b" and second.requests == [b1, b2]


def test_batcher_max_wait_dispatches_partial_batches():
    batcher = DynamicBatcher(max_batch=64, max_wait=0.01)
    batcher.submit("m", sample())
    started = time.monotonic()
    batch = batcher.next_batch(timeout=1.0)
    waited = time.monotonic() - started
    assert batch is not None and len(batch) == 1
    assert waited < 0.5  # dispatched by max_wait, not the caller timeout


def test_batcher_never_coalesces_incompatible_sample_shapes():
    batcher = DynamicBatcher(max_batch=8, max_wait=0.0)
    first = batcher.submit("m", sample())
    odd = batcher.submit("m", np.zeros((1, 3, 2, 2)))  # different channels
    last = batcher.submit("m", sample())
    batches = [batcher.next_batch(timeout=0.1) for _ in range(3)]
    assert [batch.requests for batch in batches] == [[first], [odd], [last]]


def test_batcher_timeout_returns_none():
    batcher = DynamicBatcher(max_batch=4, max_wait=0.0)
    assert batcher.next_batch(timeout=0.01) is None


def test_batcher_ready_batch_is_not_blocked_by_a_coalescing_head():
    batcher = DynamicBatcher(max_batch=4, max_wait=5.0)
    head = batcher.submit("slow", sample())     # underfull, huge window
    full = [batcher.submit("fast", sample()) for _ in range(4)]
    started = time.monotonic()
    batch = batcher.next_batch(timeout=1.0)
    assert time.monotonic() - started < 0.5     # no wait behind "slow"
    assert batch.key == "fast" and batch.requests == full
    assert batcher.pending_count() == 1          # head still coalescing
    batcher.close()
    drained = batcher.next_batch(timeout=0.1)
    assert drained.requests == [head]


def test_batcher_caller_timeout_never_truncates_the_coalescing_window():
    batcher = DynamicBatcher(max_batch=16, max_wait=0.15)
    request = batcher.submit("m", sample())
    started = time.monotonic()
    # Short polls (the worker loop's shape) must NOT dispatch the
    # underfull batch early; it becomes ready only after max_wait.
    assert batcher.next_batch(timeout=0.02) is None
    batch = None
    while batch is None and time.monotonic() - started < 2.0:
        batch = batcher.next_batch(timeout=0.02)
    assert batch is not None and batch.requests == [request]
    assert time.monotonic() - started >= 0.15


def test_batcher_close_drains_and_rejects():
    batcher = DynamicBatcher(max_batch=64, max_wait=10.0)
    batcher.submit("m", sample())
    batcher.close()
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit("m", sample())
    batch = batcher.next_batch(timeout=0.1)  # no coalescing wait once closed
    assert batch is not None and len(batch) == 1
    assert batcher.next_batch(timeout=0.01) is None


def test_batcher_concurrent_workers_never_double_dispatch():
    batcher = DynamicBatcher(max_batch=2, max_wait=0.0)
    requests = [batcher.submit("m", sample()) for _ in range(40)]
    seen: list = []
    lock = threading.Lock()

    def drain():
        while True:
            batch = batcher.next_batch(timeout=0.05)
            if batch is None:
                return
            with lock:
                seen.extend(batch.requests)

    workers = [threading.Thread(target=drain) for _ in range(3)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert len(seen) == len(requests)
    assert {id(request) for request in seen} \
        == {id(request) for request in requests}


def test_batch_resolve_splits_outputs_in_request_order():
    batcher = DynamicBatcher(max_batch=8, max_wait=0.0)
    two = batcher.submit("m", sample(2))
    one = batcher.submit("m", sample(1), unbatched=True)
    batch = batcher.next_batch(timeout=0.1)
    outputs = np.arange(3.0)[:, None]
    batch.resolve(outputs)
    assert np.array_equal(two.result(0.1), outputs[:2])
    assert np.array_equal(one.result(0.1), outputs[2])  # squeezed
    assert two.done() and one.done()


def test_batch_resolve_rejects_wrong_output_count():
    batch = Batch("m", [PendingRequest("m", sample(2), False)])
    with pytest.raises(ValueError, match="outputs"):
        batch.resolve(np.zeros((1, 4)))
    with pytest.raises(ValueError, match="at least one request"):
        Batch("m", [])


def test_batch_fail_propagates_to_results():
    batcher = DynamicBatcher(max_batch=4, max_wait=0.0)
    request = batcher.submit("m", sample())
    batch = batcher.next_batch(timeout=0.1)
    batch.fail(RuntimeError("array on fire"))
    with pytest.raises(RuntimeError, match="array on fire"):
        request.result(0.1)


def test_failed_batch_raises_a_fresh_copy_per_waiter():
    """One shared failure, many client threads: each raise must get its
    own exception instance (concurrent raises of one object would mutate
    its shared traceback/context)."""
    batcher = DynamicBatcher(max_batch=8, max_wait=0.0)
    requests = [batcher.submit("m", sample()) for _ in range(4)]
    shared = ValueError("boom")
    batcher.next_batch(timeout=0.1).fail(shared)
    caught: list[BaseException] = []
    lock = threading.Lock()

    def wait_one(request: PendingRequest) -> None:
        try:
            request.result(0.1)
        except ValueError as error:
            with lock:
                caught.append(error)

    threads = [threading.Thread(target=wait_one, args=(request,))
               for request in requests]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(caught) == 4
    assert len({id(error) for error in caught}) == 4  # distinct copies
    assert all(str(error) == "boom" for error in caught)
    assert all(error.__cause__ is shared for error in caught)
    assert shared.__traceback__ is None  # the shared instance stays clean


def test_request_result_times_out():
    batcher = DynamicBatcher(max_batch=4, max_wait=0.0)
    request = batcher.submit("m", sample())
    with pytest.raises(TimeoutError):
        request.result(0.01)


def test_batcher_validates_knobs():
    with pytest.raises(ValueError, match="max_batch"):
        DynamicBatcher(max_batch=0)
    with pytest.raises(ValueError, match="max_wait"):
        DynamicBatcher(max_wait=-1.0)


# -- model registry ----------------------------------------------------------
def test_registry_lazy_loads_and_serves_hits(tmp_path, packed):
    path = save_packed(packed, tmp_path / "m.npz", model_spec=MODEL_SPEC)
    registry = ModelRegistry(max_resident=2)
    registry.register("m", path=path)
    assert registry.resident_names() == []
    resident = registry.get("m")
    assert registry.get("m") is resident
    stats = registry.stats()
    assert stats["loads"] == 1 and stats["hits"] == 1
    assert registry.resident_names() == ["m"]
    assert "m" in registry and "other" not in registry


def test_registry_evicts_least_recently_used(tmp_path, packed):
    path = save_packed(packed, tmp_path / "m.npz", model_spec=MODEL_SPEC)
    registry = ModelRegistry(max_resident=2)
    for name in ["a", "b", "c"]:
        registry.register(name, path=path)
    registry.get("a")
    registry.get("b")
    registry.get("a")          # refresh a: b is now least recent
    registry.get("c")          # evicts b
    assert registry.resident_names() == ["a", "c"]
    assert registry.stats()["evictions"] == 1
    reloaded = registry.get("b")  # transparently reloads (evicting a)
    assert reloaded.plan is not None
    assert registry.stats()["loads"] == 4


def test_registry_pins_directly_added_models(tmp_path, packed):
    path = save_packed(packed, tmp_path / "m.npz", model_spec=MODEL_SPEC)
    registry = ModelRegistry(max_resident=1)
    registry.add("pinned", packed)
    registry.register("a", path=path)
    registry.register("b", path=path)
    pinned = registry.get("pinned")
    registry.get("a")
    registry.get("b")  # evicts a, never the pinned model
    assert registry.get("pinned") is pinned
    assert "pinned" in registry.resident_names()


def test_registry_rejects_duplicates_unknown_modes_and_missing_paths(
        tmp_path, packed):
    path = save_packed(packed, tmp_path / "m.npz", model_spec=MODEL_SPEC)
    registry = ModelRegistry()
    registry.register("m", path=path)
    with pytest.raises(ValueError, match="already registered"):
        registry.register("m", path=path)
    with pytest.raises(ValueError, match="unknown serving mode"):
        registry.register("x", path=path, mode="warp")
    with pytest.raises(FileNotFoundError):
        registry.register("y", path=tmp_path / "missing.npz")
    with pytest.raises(KeyError, match="unknown model"):
        registry.get("never-registered")
    assert SERVING_MODES == ("exact", "mx", "quantized")


def test_registry_quantized_mode_requires_quantized_artifact(tmp_path, packed):
    path = save_packed(packed, tmp_path / "m.npz", model_spec=MODEL_SPEC)
    registry = ModelRegistry()
    registry.register("m", path=path, mode="quantized")
    with pytest.raises(ValueError, match="float PackedModel"):
        registry.get("m")


@pytest.fixture(scope="module")
def packed_resnet20() -> PackedModel:
    """A small sparsified resnet20: global pooling serves any map size."""
    model = build_model("resnet20", in_channels=3, num_classes=10, scale=0.25,
                        rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for _, layer in model.packable_layers():
        layer.weight.data *= rng.random(layer.weight.data.shape) < 0.5
    return PackedModel.from_model(model, PipelineConfig(alpha=4, gamma=0.5))


def test_resident_batch_plan_tracks_spatial_sizes(packed_resnet20):
    """Cycle accounting distinguishes batches of different map sizes."""
    registry = ModelRegistry()
    registry.add("rn", packed_resnet20)
    resident = registry.get("rn")
    rng = np.random.default_rng(1)
    small = resident.serve_batch(rng.normal(size=(2, 3, 8, 8)))
    large = resident.serve_batch(rng.normal(size=(2, 3, 16, 16)))
    assert len(small) == len(large) == 4
    _, small_cycles, small_tiles, small_obs = small
    _, large_cycles, large_tiles, large_obs = large
    assert large_cycles > small_cycles > 0
    # The tiles are the layers' fixed geometry; only the words change.
    assert large_tiles == small_tiles > 0
    assert small_obs is None and large_obs is None


def test_serve_batch_cost_matches_plan_model_oracle(packed, packed_resnet20):
    """Every served batch is costed from per-layer tile geometry: cycles
    and tiles equal ``SystolicSystem.plan_model`` on the plan's array for
    batch sizes 1-16, float and quantized, at every map size served."""
    quantized = QuantizedPackedModel(
        packed, bits=8,
        array_config=ArrayConfig(rows=8, cols=8,
                                 alpha=max(1, packed.multiplexing_degree())))
    quantized.calibrate(np.random.default_rng(7).normal(size=(16, 1, 8, 8)))
    resnet20 = ResidentModel("rn", "exact", packed_resnet20.compile_plan())
    quantized_8x8 = ResidentModel("q8", "quantized", quantized.compile_plan())
    cases = [(ResidentModel("lenet5", "exact", packed.compile_plan()), (1, 8)),
             (resnet20, (3, 8)), (resnet20, (3, 12)), (quantized_8x8, (1, 8))]
    rng = np.random.default_rng(2)
    for resident, (channels, side) in cases:
        plan = resident.plan
        observed: dict = {}
        plan.forward(rng.normal(size=(1, channels, side, side)),
                     observed=observed)
        sizes = [observed[name][0] for name in plan.layer_names()]
        oracle = SystolicSystem(plan.array_config)
        for batch_size in range(1, 17):
            _, cycles, tiles, _ = resident.serve_batch(
                rng.normal(size=(batch_size, channels, side, side)))
            expected = oracle.plan_model(plan.packed_layers(), sizes,
                                         batch=batch_size)
            assert (cycles, tiles) == (expected.total_cycles,
                                       expected.total_tiles)
    q8_plan = quantized_8x8.plan
    assert (q8_plan.array_config.rows, q8_plan.array_config.cols) == (8, 8)
    assert any(len(op.geometry(q8_plan.array_config)) > 1
               for op in q8_plan.packed_ops)


def save_matrix_only(path: Path) -> Path:
    """A matrix-only artifact: packed lenet5 filter matrices, no nn model."""
    layers = sparse_network("lenet5", density=0.13, seed=0)
    with PackingPipeline(PipelineConfig()) as pipeline:
        model = PackedModel.from_pipeline_result(pipeline.run(layers))
    return save_packed(model, path)


def test_registry_rejects_matrix_only_artifacts_at_load(tmp_path):
    path = save_matrix_only(tmp_path / "matrices.npz")
    registry = ModelRegistry()
    with pytest.raises(ValueError, match="no nn model"):
        registry.register("m", path=path)
    assert "m" not in registry


@pytest.mark.parametrize("backend", [
    "thread", pytest.param("process", marks=pytest.mark.slow)])
def test_unservable_artifacts_are_refused_at_register_and_swap(
        tmp_path, packed, backend):
    """An artifact no plan can be built from — a matrix-only packing, or a
    V1 file without model_spec — is refused when registered or swapped
    in, on either backend, so no batch ever fails on it; after a refused
    swap the entry keeps serving its old bits."""
    unservable = {
        "matrix-only": (save_matrix_only(tmp_path / "matrices.npz"),
                        "no nn model"),
        "v1-no-spec": (rewrite_as_v1(save_packed(packed, tmp_path / "v1.npz")),
                       "neither a plan manifest nor a model_spec"),
    }
    path = save_packed(packed, tmp_path / "m.npz", model_spec=MODEL_SPEC,
                       compress=False)
    request = np.random.default_rng(8).normal(size=(1, 8, 8))
    expected = direct_forward(packed, "exact", request[None])[0]
    registry = ModelRegistry()
    for label, (bad_path, message) in unservable.items():
        with pytest.raises(PackedArtifactError, match=message):
            registry.register(label, path=bad_path)
    assert registry.names() == []
    registry.register("m", path=path)
    with InferenceServer(registry, backend=backend, workers=1) as server:
        assert np.array_equal(server.infer("m", request), expected)
        for label, (bad_path, message) in unservable.items():
            with pytest.raises(PackedArtifactError, match=message):
                registry.swap("m", bad_path)
            assert np.array_equal(server.infer("m", request), expected)
        stats = server.stats()
    assert registry.registration_info("m") == (
        path, "exact", artifact_fingerprint(path))
    assert registry.stats()["generations"] == {"m": 1}
    assert stats["totals"]["failures"] == 0
    assert registry.event_log.snapshot(kind="load_failure") == []


# -- per-entry load locks ----------------------------------------------------
def test_registry_slow_load_does_not_block_other_models(tmp_path, packed,
                                                        monkeypatch):
    """A stuck load of one model must not serialize loads of other models
    behind it (the old registry held one RLock across every load)."""
    import repro.serving.registry as registry_module

    path_a = save_packed(packed, tmp_path / "a.npz", model_spec=MODEL_SPEC)
    path_b = save_packed(packed, tmp_path / "b.npz", model_spec=MODEL_SPEC)
    real_load = registry_module.load_plan
    entered_a = threading.Event()
    release_a = threading.Event()

    def gated_load(path, **kwargs):
        if Path(path).name == "a.npz":
            entered_a.set()
            assert release_a.wait(10.0), "test deadlocked"
        return real_load(path, **kwargs)

    monkeypatch.setattr(registry_module, "load_plan", gated_load)
    registry = ModelRegistry(max_resident=2)
    registry.register("a", path=path_a)
    registry.register("b", path=path_b)
    results: dict = {}

    def get(name: str) -> None:
        results[name] = registry.get(name)

    thread_a = threading.Thread(target=get, args=("a",))
    thread_a.start()
    assert entered_a.wait(10.0)
    thread_b = threading.Thread(target=get, args=("b",))
    thread_b.start()
    thread_b.join(10.0)  # b loads to completion while a is still stuck
    assert not thread_b.is_alive() and results["b"].plan is not None
    assert "a" not in results
    release_a.set()
    thread_a.join(10.0)
    assert results["a"].plan is not None
    assert registry.stats()["loads"] == 2


def test_registry_concurrent_gets_of_one_name_load_once(tmp_path, packed,
                                                        monkeypatch):
    import repro.serving.registry as registry_module

    path = save_packed(packed, tmp_path / "m.npz", model_spec=MODEL_SPEC)
    real_load = registry_module.load_plan
    calls: list = []
    lock = threading.Lock()

    def counting_load(path, **kwargs):
        with lock:
            calls.append(path)
        time.sleep(0.02)  # widen the race window
        return real_load(path, **kwargs)

    monkeypatch.setattr(registry_module, "load_plan", counting_load)
    registry = ModelRegistry(max_resident=2)
    registry.register("m", path=path)
    residents: list = []

    def get() -> None:
        resident = registry.get("m")
        with lock:
            residents.append(resident)

    threads = [threading.Thread(target=get) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(calls) == 1
    assert len({id(resident) for resident in residents}) == 1
    stats = registry.stats()
    assert stats["loads"] == 1 and stats["hits"] == 7


# -- inference server --------------------------------------------------------
def serve_and_check(models: dict[str, tuple], max_batch: int, max_wait: float,
                    workers: int, clients: int, requests_per_client: int,
                    max_resident: int = 4) -> InferenceServer:
    """Serve seeded concurrent traffic; assert every response bit-identical.

    ``models`` maps name -> (model_object, mode, direct_model) where
    ``direct_model`` computes the reference response.
    """
    registry = ModelRegistry(max_resident=max_resident)
    for name, (model, mode, _) in models.items():
        registry.add(name, model, mode=mode)
    # Expected responses are precomputed up front.  (With plan execution
    # the server never touches the source module graphs, so the legacy
    # reference forwards *could* now run concurrently with the workers —
    # precomputing just keeps the client threads trivial.)
    names = sorted(models)
    plans: dict[int, list[tuple[str, np.ndarray, np.ndarray]]] = {}
    for client_index in range(clients):
        stream = request_stream(requests_per_client, seed=100 + client_index)
        plan = []
        for index, batch in enumerate(stream):
            name = names[(client_index + index) % len(names)]
            _, mode, direct_model = models[name]
            plan.append((name, batch, direct_forward(direct_model, mode, batch)))
        plans[client_index] = plan
    failures: list = []
    with InferenceServer(registry, max_batch=max_batch, max_wait=max_wait,
                         workers=workers) as server:

        def client(client_index: int) -> None:
            try:
                pending = [(expected, server.submit(name, batch))
                           for name, batch, expected in plans[client_index]]
                for expected, request in pending:
                    response = request.result(timeout=30.0)
                    assert np.array_equal(response, expected), \
                        "served response diverged from direct forward"
            except BaseException as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    return server


@pytest.mark.parametrize("grouping_engine,prune_engine", ENGINE_COMBOS)
def test_server_responses_bit_identical_across_backends(grouping_engine,
                                                        prune_engine):
    """The determinism guarantee, per engine combo, all three backends."""
    packed_model = build_packed(grouping_engine, prune_engine)
    quantized_model = build_quantized(packed_model)
    models = {
        "exact": (packed_model, "exact", packed_model),
        "mx": (packed_model, "mx", packed_model),
        "int8": (quantized_model, "quantized", quantized_model),
    }
    server = serve_and_check(models, max_batch=8, max_wait=0.001, workers=2,
                             clients=3, requests_per_client=6)
    totals = server.stats()["totals"]
    assert totals["requests"] == 18
    assert totals["failures"] == 0
    assert totals["cycles"] > 0


BACKEND_CELLS = [
    ("thread", workers, kernel)
    for workers in (1, 2, 4) for kernel in ("blocked", "loops")] + [
    pytest.param("process", workers, kernel, marks=pytest.mark.slow)
    for workers in (1, 2, 4) for kernel in ("blocked", "loops")]


@pytest.mark.parametrize("backend,workers,kernel", BACKEND_CELLS)
def test_server_bit_identical_across_execution_backends(tmp_path, packed,
                                                        quantized, backend,
                                                        workers, kernel,
                                                        use_kernel):
    """The serving invariant, per cell of backend x workers x kernel:
    responses are bit-identical across backend="thread"|"process", worker
    counts, batch-invariant kernels (the production blocked kernels, or
    the einsum reference swapped in by ``use_kernel``), and arbitrary
    coalescing, for every serving mode."""
    use_kernel(kernel)
    path_f = save_packed(packed, tmp_path / "f.npz", model_spec=MODEL_SPEC,
                         compress=False)
    path_q = save_packed(quantized, tmp_path / "q.npz", model_spec=MODEL_SPEC,
                         compress=False)
    registry = ModelRegistry(max_resident=3)
    registry.register("exact", path=path_f, mode="exact")
    registry.register("mx", path=path_f, mode="mx")
    registry.register("int8", path=path_q, mode="quantized")
    stream = request_stream(8, seed=21)
    expected = {name: [direct_forward(model, mode, batch)
                       for batch in stream]
                for name, (model, mode)
                in {"exact": (packed, "exact"), "mx": (packed, "mx"),
                    "int8": (quantized, "quantized")}.items()}
    with InferenceServer(registry, max_batch=4, max_wait=0.001,
                         workers=workers, backend=backend) as server:
        pending = [(name, index, server.submit(name, batch))
                   for index, batch in enumerate(stream)
                   for name in ("exact", "mx", "int8")]
        for name, index, request in pending:
            assert np.array_equal(request.result(60.0),
                                  expected[name][index]), (
                f"response diverged (backend={backend}, workers={workers}, "
                f"kernel={kernel}, model={name})")
        stats = server.stats()
    assert stats["totals"]["failures"] == 0
    assert stats["totals"]["cycles"] > 0
    assert stats["backend"] == backend


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_server_serves_checked_in_v1_artifacts(tmp_path, backend):
    """The golden artifacts are real files from the old V1 writer, with
    its legacy ``file-`` fingerprint: both backends serve them through
    load_plan's V1 branch (and, on the process backend, the worker's
    fingerprint check) with the bits load_packed reproduces."""
    golden = Path(__file__).resolve().parent / "golden"
    models = {"exact": ("lenet5_packed_artifact.npz", "exact"),
              "mx": ("lenet5_packed_artifact.npz", "mx"),
              "int8": ("lenet5_quantized8_artifact.npz", "quantized")}
    registry = ModelRegistry(max_resident=3)
    expected: dict[str, list[np.ndarray]] = {}
    stream = request_stream(6, seed=31)
    for name, (filename, mode) in models.items():
        path = tmp_path / filename
        if not path.exists():
            shutil.copyfile(golden / filename, path)
        registry.register(name, path=path, mode=mode)
        assert registry.registration_info(name)[2].startswith("file-")
        expected[name] = [direct_forward(load_packed(path), mode, batch)
                          for batch in stream]
    with InferenceServer(registry, max_batch=4, max_wait=0.001, workers=2,
                         backend=backend) as server:
        pending = [(name, index, server.submit(name, batch))
                   for index, batch in enumerate(stream) for name in models]
        for name, index, request in pending:
            assert np.array_equal(request.result(60.0),
                                  expected[name][index]), (backend, name)
        stats = server.stats()
    assert stats["totals"]["failures"] == 0


def test_server_rejects_unknown_backend(packed):
    registry = ModelRegistry()
    registry.add("m", packed)
    with pytest.raises(ValueError, match="unknown serving backend"):
        InferenceServer(registry, backend="fiber")


@pytest.mark.slow
def test_process_backend_relays_live_model_rejection(packed):
    """add()-registered models have no artifact to ship to a worker
    process; the failure must come back on the request, not kill a
    worker."""
    registry = ModelRegistry()
    registry.add("live", packed)
    with InferenceServer(registry, backend="process", workers=1) as server:
        with pytest.raises(ValueError, match="artifact-backed"):
            server.submit("live", sample(1)[0]).result(30.0)
    assert server.stats()["totals"]["failures"] == 1


def test_server_coalescing_settings_do_not_change_responses(packed):
    """Same traffic under wildly different batching knobs: same bits."""
    stream = request_stream(10, seed=5)
    outputs = []
    for max_batch, max_wait, workers in [(1, 0.0, 1), (4, 0.002, 1),
                                         (32, 0.01, 2)]:
        registry = ModelRegistry()
        registry.add("m", packed)
        with InferenceServer(registry, max_batch=max_batch,
                             max_wait=max_wait, workers=workers) as server:
            pending = [server.submit("m", batch) for batch in stream]
            outputs.append([request.result(30.0) for request in pending])
    for other in outputs[1:]:
        assert all(np.array_equal(first, second)
                   for first, second in zip(outputs[0], other))


def test_server_single_sample_requests_squeeze(packed):
    registry = ModelRegistry()
    registry.add("m", packed)
    sample_image = np.random.default_rng(2).normal(size=(1, 8, 8))
    with InferenceServer(registry, max_batch=4, max_wait=0.0) as server:
        response = server.infer("m", sample_image, timeout=10.0)
    expected = direct_forward(packed, "exact", sample_image[None])[0]
    assert response.shape == (10,)
    assert np.array_equal(response, expected)


def test_server_graceful_shutdown_answers_everything(packed):
    registry = ModelRegistry()
    registry.add("m", packed)
    server = InferenceServer(registry, max_batch=4, max_wait=5.0).start()
    stream = request_stream(7, seed=9)
    pending = [server.submit("m", batch) for batch in stream]
    server.stop()  # drains despite the huge coalescing window
    assert all(request.done() for request in pending)
    for batch, request in zip(stream, pending):
        assert np.array_equal(request.result(0.1),
                              direct_forward(packed, "exact", batch))
    assert not server.running
    with pytest.raises(RuntimeError, match="stopped"):
        server.start()


def test_server_validates_requests(packed):
    registry = ModelRegistry()
    registry.add("m", packed)
    server = InferenceServer(registry)
    with pytest.raises(RuntimeError, match="not running"):
        server.submit("m", sample())
    with server:
        with pytest.raises(KeyError, match="unknown model"):
            server.submit("ghost", sample())
        with pytest.raises(ValueError, match=r"\(C, H, W\)"):
            server.submit("m", np.zeros((2, 2)))


def test_server_relays_forward_failures(packed):
    registry = ModelRegistry()
    registry.add("m", packed)
    with InferenceServer(registry, max_batch=2, max_wait=0.0) as server:
        bad = server.submit("m", np.zeros((1, 3, 8, 8)))  # wrong channels
        good = server.submit("m", np.zeros((1, 1, 8, 8)))
        with pytest.raises(ValueError):
            bad.result(10.0)
        assert good.result(10.0).shape == (1, 10)
    assert server.stats()["totals"]["failures"] == 1


def test_server_stats_account_requests_batches_and_latency(packed):
    registry = ModelRegistry()
    registry.add("m", packed)
    stream = request_stream(8, seed=3, max_request=1)
    with InferenceServer(registry, max_batch=4, max_wait=0.05) as server:
        pending = [server.submit("m", batch) for batch in stream]
        for request in pending:
            request.result(30.0)
        stats = server.stats()
    totals = stats["totals"]
    assert totals["requests"] == 8 and totals["samples"] == 8
    assert 2 <= totals["batches"] <= 8
    assert totals["mean_batch_size"] == totals["samples"] / totals["batches"]
    model_stats = stats["per_model"]["m"]
    assert model_stats["queued_seconds"]["mean"] >= 0.0
    assert model_stats["service_seconds"]["max"] > 0.0
    assert model_stats["cycles"] > 0 and model_stats["tiles"] > 0
    assert all(request.queued_seconds is not None
               and request.service_seconds is not None
               for request in pending)


@pytest.mark.slow
def test_server_sustained_load_with_eviction_thrash(tmp_path):
    """Sustained mixed-model traffic against a thrashing LRU registry.

    Two artifact-backed models share a max_resident=1 registry, so nearly
    every alternation reloads from disk mid-traffic; responses must still
    be bit-identical throughout, and the drain must answer everything.
    """
    packed_a = build_packed("fast", "fast")
    quantized_b = build_quantized(packed_a)
    path_a = save_packed(packed_a, tmp_path / "a.npz", model_spec=MODEL_SPEC)
    path_b = save_packed(quantized_b, tmp_path / "b.npz",
                         model_spec=MODEL_SPEC)
    registry = ModelRegistry(max_resident=1)
    registry.register("a", path=path_a, mode="exact")
    registry.register("b", path=path_b, mode="quantized")
    # References precomputed up front: the local packed_a / quantized_b
    # share one module graph, and the server loads its own instances from
    # the artifacts, so the direct forwards must not race the workers.
    plans: dict[int, list[tuple[str, np.ndarray, np.ndarray]]] = {}
    for index in range(4):
        plan = []
        for position, batch in enumerate(request_stream(25, seed=500 + index)):
            name = "a" if (index + position) % 2 == 0 else "b"
            model = packed_a if name == "a" else quantized_b
            mode = "exact" if name == "a" else "quantized"
            plan.append((name, batch, direct_forward(model, mode, batch)))
        plans[index] = plan
    failures: list = []
    with InferenceServer(registry, max_batch=8, max_wait=0.001,
                         workers=2) as server:

        def client(index: int) -> None:
            try:
                for name, batch, expected in plans[index]:
                    response = server.submit(name, batch).result(60.0)
                    assert np.array_equal(response, expected)
            except BaseException as error:  # noqa: BLE001
                failures.append(error)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = server.stats()
    if failures:
        raise failures[0]
    assert stats["totals"]["requests"] == 100
    assert stats["totals"]["failures"] == 0
    assert stats["registry"]["evictions"] > 0
