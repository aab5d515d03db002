"""``serve-steady`` and ``serve-mixed``: the dynamic-batching server.

Both serve packed artifacts built from the seed through
``InferenceServer`` on the thread backend with one worker
(``max_batch=16``, ``max_wait=2 ms``).  The first second of load is
warm-up and is not measured; the rest runs in 1.25-second segments,
each drained before the host reference is sampled.

* ``serve-steady`` is an open loop: seeded Poisson arrivals at a fixed
  400 requests/s (about 40% of the full-batch capacity) of single samples
  to one resnet20 exact artifact.  Latency counts from each request's due time, so a stall
  of the generator is charged to the requests it delays.  Batches stay
  small (mean about 3.5) and flush on ``max_wait``, so latency is set by
  small-batch plan forwards, where per-op Python dispatch dominates.
* ``serve-mixed`` is a closed loop: one generator thread keeps 48 requests
  outstanding, Zipf-skewed over resnet20 exact, lenet5 exact and resnet20
  8-bit quantized artifacts (all resident), 10% of them 8-sample batches.
  Batches fill to ``max_batch``, so throughput is set by full-batch
  blocked kernels and the quantized path.

Inputs and schedules are generated before the clock starts.  A request's
latency runs from its due (open loop) or submit (closed loop) instant on
the client's monotonic clock to the instant the server resolved it
(``enqueued_at + queued_seconds + service_seconds`` of the
``PendingRequest``, the same clock).  Every response is checked, after the
load ends, to be bit-identical to the direct
``ExecutionPlan.forward(batch_invariant=True)`` of its samples.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import deque
from pathlib import Path

import numpy as np

from repro.combining.inference import PackedModel
from repro.combining.kernels import invariant_conv_pointwise
from repro.combining.pipeline import PackingPipeline, PipelineConfig
from repro.combining.quantized import QuantizedPackedModel
from repro.combining.serialization import load_plan, save_packed
from repro.experiments.common import DATASET_FOR_MODEL, FAST_RUN, prepare_data
from repro.experiments.quant_sweep import sparsified_model
from repro.serving.procpool import ProcessWorkerPool
from repro.serving.registry import ModelRegistry
from repro.serving.server import InferenceServer

from perfbench.harness import (
    HOST_BOUND, OUT_DIR, HostSpeed, Outcome, Tracer, percentile, seeded_int)

#: Served artifact key -> (network, quantized to 8 bits).
ARTIFACTS = {
    "resnet20": ("resnet20", False),
    "lenet5": ("lenet5", False),
    "resnet20_q8": ("resnet20", True),
}
DENSITY = 0.5
CALIBRATION_SAMPLES = 64
MAX_BATCH = 16
MAX_WAIT = 0.002
WARMUP_SECONDS = 1.0
SEGMENT_SECONDS = 1.25
HOST_REPEATS = 9
POOL = 128
RESULT_TIMEOUT = 60.0

STEADY_RATE = 400.0
MIXED_MODELS = ("resnet20", "lenet5", "resnet20_q8")  # Zipf rank order
MIXED_WINDOW = 48
MIXED_BATCH_SHARE = 0.1
MIXED_BATCH_SAMPLES = 8
MIXED_BATCHES = 32  # distinct pre-stacked 8-sample inputs per model

MICRO_REPEATS = 15
BATCH_SIZES = (1, 4, 16)


def build_artifact(directory: Path, key: str, seed: int) -> Path:
    """Pack (and for ``_q8`` calibrate) a seeded network and save it."""
    network, quantized = ARTIFACTS[key]
    run = FAST_RUN.scaled(seed=seed)
    model = sparsified_model(network, run, density=DENSITY, seed=seed)
    with PackingPipeline(PipelineConfig(seed=seed)) as pipeline:
        artifact = PackedModel.from_model(model, pipeline=pipeline)
    if quantized:
        train, _ = prepare_data(DATASET_FOR_MODEL[network], run)
        artifact = QuantizedPackedModel(artifact, bits=8)
        artifact.calibrate(train.images[:CALIBRATION_SAMPLES])
    kwargs = {"in_channels": 1 if DATASET_FOR_MODEL[network] == "mnist" else 3,
              "num_classes": 10, "scale": run.model_scale}
    if network == "lenet5":
        kwargs["image_size"] = run.image_size
    return save_packed(artifact, directory / f"{key}.npz",
                       model_spec={"name": network, "kwargs": kwargs},
                       compress=False)


def sample_shape(key: str) -> tuple[int, int, int]:
    network, _ = ARTIFACTS[key]
    channels = 1 if DATASET_FOR_MODEL[network] == "mnist" else 3
    return channels, FAST_RUN.image_size, FAST_RUN.image_size


def mode_of(key: str) -> str:
    return "quantized" if ARTIFACTS[key][1] else "exact"


class ServeWorkload:
    """Shared set-up, checking and layer measurements of both serve loads."""

    host_bound = HOST_BOUND
    host_reference = "small"

    models: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.outcome = Outcome()
        rng = np.random.default_rng(seeded_int(seed, 1))
        self.pool = {key: rng.normal(size=(POOL, *sample_shape(key)))
                     for key in self.models}
        self.work = OUT_DIR / f"run-{os.getpid()}"
        self.server: InferenceServer | None = None
        self.setups = 0
        self.measures = 0

    def setup(self) -> None:
        """Build artifacts, start a server, check its first response."""
        directory = self.work / f"setup{self.setups}"
        directory.mkdir(parents=True)
        self.setups += 1
        self.paths = {key: build_artifact(directory, key, self.seed)
                      for key in self.models}
        registry = ModelRegistry(max_resident=len(self.models))
        for key, path in self.paths.items():
            registry.register(key, path, mode=mode_of(key))
        if self.server is not None:
            self.server.stop()
        self.server = InferenceServer(registry, max_batch=MAX_BATCH,
                                      max_wait=MAX_WAIT, workers=1).start()
        for key in self.models:
            sample = self.pool[key][0]
            served = self.server.infer(key, sample, timeout=RESULT_TIMEOUT)
            direct = load_plan(self.paths[key], mmap="auto").forward(
                sample[None], mode=mode_of(key), batch_invariant=True)[0]
            self.outcome.check(np.array_equal(served, direct))

    def prepare(self) -> None:
        """Direct per-sample reference outputs for every pool input."""
        self.plans = {key: load_plan(path, mmap="auto")
                      for key, path in self.paths.items()}
        self.observed = {key: {} for key in self.models}
        for key, plan in self.plans.items():
            plan.forward(self.pool[key][:1], mode=mode_of(key),
                         batch_invariant=True, observed=self.observed[key])
        self.expected = {
            key: np.stack([plan.forward(sample[None], mode=mode_of(key),
                                        batch_invariant=True)[0]
                           for sample in self.pool[key]])
            for key, plan in self.plans.items()}

    def exact_metrics(self) -> dict[str, float]:
        """Modelled array utilization and cycles of one sample per model."""
        metrics: dict[str, float] = {}
        useful = occupied = 0
        for key, plan in self.plans.items():
            modelled = plan.execution_plan(observed=self.observed[key],
                                           batch=1)
            useful += modelled.total_useful_macs
            occupied += modelled.total_occupied_macs
            metrics[f"systolic.{key}.cycles_per_sample"] = modelled.total_cycles
        metrics["utilization"] = useful / occupied
        metrics["sim_cycles"] = sum(
            metrics[f"systolic.{key}.cycles_per_sample"] for key in self.models)
        return metrics

    # -- one measured load ---------------------------------------------------
    def _counters(self) -> dict[str, float]:
        totals = self.server.stats()["totals"]
        registry = self.server.registry
        return {"samples": totals["samples"], "batches": totals["batches"],
                **totals["flush_reasons"], "loads": registry.loads,
                "evictions": registry.evictions}

    def _generate(self, rng: np.random.Generator, seconds: float):
        """The requests of one segment, made before its clock starts."""
        raise NotImplementedError

    def _drive(self, requests, seconds: float):
        """Send one segment; returns ``(sent, start)``, where ``sent`` holds
        ``(model, pool index, origin, submitted, pending)`` per request."""
        raise NotImplementedError

    def _finish(self, sent) -> float:
        """Check every response; returns the last resolution instant."""
        for key, index, _, _, pending in sent:
            try:
                output = pending.result(timeout=RESULT_TIMEOUT)
            except Exception:  # the server relays any forward error
                self.outcome.check(False)
                continue
            self.outcome.check(np.array_equal(
                output, self.expected[key][index]))
        # The server stamps queue and service times just after resolving.
        deadline = time.monotonic() + RESULT_TIMEOUT
        while (any(p.service_seconds is None for *_, p in sent)
               and time.monotonic() < deadline):
            time.sleep(0.001)
        return max(p.enqueued_at + p.queued_seconds + p.service_seconds
                   for *_, p in sent)

    def measure(self, seconds: float, tracer: Tracer, host: HostSpeed
                ) -> list[float]:
        """Serve warm-up then ``seconds`` of load; per-request latency in ms.

        The load runs in segments of about :data:`SEGMENT_SECONDS`; each
        drains before the host is sampled, so the host reference never
        competes with the server.  Throughput is the samples answered over
        the time from each segment's start to its last response.
        """
        self.measures += 1
        rng = np.random.default_rng(seeded_int(self.seed, 2, self.measures))
        count = max(1, round(seconds / SEGMENT_SECONDS))
        length = seconds / count
        segments = [self._generate(rng, WARMUP_SECONDS)] + [
            self._generate(rng, length) for _ in range(count)]
        before = self._counters()
        self.window = []
        answered = 0
        busy = 0.0
        for index, requests in enumerate(segments):
            if index:
                host.sample(repeats=HOST_REPEATS)
            sent, start = self._drive(requests,
                                      length if index else WARMUP_SECONDS)
            finished = self._finish(sent)
            if index:
                answered += sum(entry[4].num_samples for entry in sent)
                busy += finished - start
                # Keep the instants only: a finished request holds its
                # output and an Event, and would make memory grow with
                # the number of requests served.
                self.window += [
                    (origin, submitted, p.enqueued_at, p.queued_seconds,
                     p.service_seconds)
                    for _, _, origin, submitted, p in sent]
        after = self._counters()
        self.delta = {name: after[name] - before.get(name, 0)
                      for name in after}
        self.throughput = answered / busy
        latencies = []
        for origin, submitted, enqueued, queued, service in self.window:
            done = enqueued + queued + service
            latencies.append((done - origin) * 1e3)
            if tracer.enabled:
                tracer.new_trace()
                root = tracer.add("request", int(origin * 1e9),
                                  int(done * 1e9))
                tracer.add("client.lag", int(origin * 1e9),
                           int(submitted * 1e9), root)
                tracer.add("batcher.queue", int(enqueued * 1e9),
                           int((enqueued + queued) * 1e9), root)
                tracer.add("server.service", int((done - service) * 1e9),
                           int(done * 1e9), root)
        return latencies

    def end_to_end(self, units: list[float]) -> dict[str, float]:
        return {"throughput": self.throughput,
                "p50_ms": percentile(units, 50),
                "p90_ms": percentile(units, 90)}

    # -- per-layer measurements (traced runs only) ----------------------------
    def layer_metrics(self, tracer: Tracer, units: list[float]
                      ) -> dict[str, float]:
        queued = [entry[3] * 1e3 for entry in self.window]
        service = [entry[4] * 1e3 for entry in self.window]
        delta = self.delta
        metrics = {
            "batcher.queued_p50_ms": percentile(queued, 50),
            "server.service_p50_ms": percentile(service, 50),
            "batcher.mean_batch": delta["samples"] / delta["batches"],
            "batcher.flush_max_batch": delta.get("max_batch", 0)
            / delta["batches"],
            "batcher.flush_max_wait": delta.get("max_wait", 0)
            / delta["batches"],
            "registry.loads": delta["loads"],
            "registry.evictions": delta["evictions"],
            "trace.attributed_share": (sum(queued) + sum(service))
            / sum(units),
        }
        self.server.stop()
        for key in self.models:
            metrics.update(self._layer_probe(key))
        return metrics

    def _median_ms(self, call, repeats: int = MICRO_REPEATS) -> float:
        call()
        samples = []
        for _ in range(repeats):
            started = time.perf_counter_ns()
            call()
            samples.append((time.perf_counter_ns() - started) / 1e6)
        return percentile(samples, 50)

    def _layer_probe(self, key: str) -> dict[str, float]:
        """Direct timings of one model's plan, kernels, load and worker."""
        plan, mode, path = self.plans[key], mode_of(key), self.paths[key]
        rng = np.random.default_rng(seeded_int(self.seed, 3))
        batches = {size: rng.normal(size=(size, *sample_shape(key)))
                   for size in BATCH_SIZES}
        metrics = {}
        for size, batch in batches.items():
            metrics[f"execplan.{key}.forward_b{size}_ms"] = self._median_ms(
                lambda: plan.forward(batch, mode=mode, batch_invariant=True))
        shares = []
        for _ in range(MICRO_REPEATS):
            profile: dict[str, int] = {}
            started = time.perf_counter_ns()
            plan.forward(batches[16], mode=mode, batch_invariant=True,
                         profile=profile)
            shares.append(sum(profile.values())
                          / (time.perf_counter_ns() - started))
        metrics[f"execplan.{key}.profiled_share"] = percentile(shares, 50)
        if mode == "exact":
            operands = [
                (rng.normal(size=(16, op.in_channels, *self.observed[key][op.name])),
                 op.realized()) for op in plan.packed_ops]
            metrics[f"kernels.{key}.pointwise_b16_ms"] = self._median_ms(
                lambda: [invariant_conv_pointwise(x, w) for x, w in operands])
        metrics[f"serialization.{key}.load_plan_ms"] = self._median_ms(
            lambda: load_plan(path, mmap="auto"))
        pool = ProcessWorkerPool(1, start_method="spawn")
        try:
            pool.warm()
            metrics[f"procpool.{key}.run_b16_ms"] = self._median_ms(
                lambda: pool.run(path, mode, batches[16]), repeats=5)
        finally:
            pool.shutdown()
        return metrics

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.work, ignore_errors=True)


class SteadyWorkload(ServeWorkload):
    """The ``serve-steady`` open loop."""

    models = ("resnet20",)
    # Throughput is the offered rate, whatever the host's speed.
    host_bound = ("setup_s", "p50_ms", "p90_ms")

    def _generate(self, rng, seconds):
        """Seeded Poisson due times (seconds from start) and pool indices."""
        count = int(STEADY_RATE * seconds * 1.5) + 16
        due = np.cumsum(rng.exponential(1.0 / STEADY_RATE, size=count))
        due = due[due < seconds]
        return due, rng.integers(0, POOL, size=due.size)

    def _drive(self, requests, seconds):
        due, indices = requests
        key = self.models[0]
        samples = self.pool[key]
        submit = self.server.submit
        sent = []
        start = time.monotonic() + 0.01
        for offset, index in zip(due.tolist(), indices.tolist()):
            origin = start + offset
            wait = origin - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            submitted = time.monotonic()
            sent.append((key, index, origin, submitted,
                         submit(key, samples[index])))
        return sent, start

    def layer_metrics(self, tracer, units):
        lag = [(submitted - origin) * 1e3
               for origin, submitted, *_ in self.window]
        metrics = super().layer_metrics(tracer, units)
        metrics["client.lag_p90_ms"] = percentile(lag, 90)
        return metrics


class MixedWorkload(ServeWorkload):
    """The ``serve-mixed`` closed loop."""

    models = MIXED_MODELS
    # Full batches spend their time in whole-batch numpy kernels.
    host_reference = "bulk"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seeded_int(seed, 4))
        self.batch_indices = {
            key: rng.integers(0, POOL, size=(MIXED_BATCHES,
                                             MIXED_BATCH_SAMPLES))
            for key in self.models}
        self.batch_inputs = {key: self.pool[key][indices]
                             for key, indices in self.batch_indices.items()}

    def _generate(self, rng, seconds):
        """A request list longer than any segment can drain, in order:
        model rank, whether the request is an 8-sample batch, and which
        pool sample or pre-stacked batch it sends."""
        count = int(4000 * seconds)
        weights = 1.0 / np.arange(1, len(self.models) + 1)
        models = rng.choice(len(self.models), size=count,
                            p=weights / weights.sum())
        batched = rng.random(count) < MIXED_BATCH_SHARE
        choices = np.where(batched, rng.integers(0, MIXED_BATCHES, size=count),
                           rng.integers(0, POOL, size=count))
        return models, batched, choices

    def _drive(self, requests, seconds):
        models, batched_flags, choices = (part.tolist() for part in requests)
        submit = self.server.submit
        sent = []
        outstanding: deque = deque()
        start = time.monotonic()
        end = start + seconds
        for model, batched, choice in zip(models, batched_flags, choices):
            key = self.models[model]
            while len(outstanding) >= MIXED_WINDOW:
                outstanding[0].result(timeout=RESULT_TIMEOUT)
                outstanding = deque(p for p in outstanding if not p.done())
            submitted = time.monotonic()
            if submitted >= end:
                break
            if batched:
                pending = submit(key, self.batch_inputs[key][choice])
                index = self.batch_indices[key][choice]
            else:
                pending = submit(key, self.pool[key][choice])
                index = choice
            sent.append((key, index, submitted, submitted, pending))
            outstanding.append(pending)
        else:
            raise RuntimeError("the generated request list ran out")
        return sent, start
