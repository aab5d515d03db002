"""``train``: Algorithm 1 (``ColumnCombineTrainer.run``) on resnet20.

A session builds the FAST_RUN-scale synthetic CIFAR data and resnet20
model from the seed and runs a fixed two prune/group/combine rounds of one
retraining epoch each plus one fine-tuning epoch.  Sessions repeat until
the run's time is up; every session of a seed computes the same bits, so
accuracy, utilization and cycles are exact.  It is the only workload that
runs ``repro.nn`` forward and backward passes; regrouping the shrinking
weights is about 1% of its time, so a grouping speed-up should leave it
flat.

A unit of work is one SGD step (load, forward, loss, backward and update
of one 64-sample batch), timed between successive ``optimizer.step``
returns from outside the trainer.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.combining.inference import PackedModel
from repro.combining.trainer import ColumnCombineTrainer
from repro.experiments.common import (
    FAST_RUN,
    combine_config,
    prepare_data,
    prepare_model,
)
from repro.systolic.array import ArrayConfig
from repro.systolic.system import SystolicSystem
from repro.utils.seeding import seed_everything

from perfbench.harness import (
    HOST_BOUND, HostSpeed, Outcome, Tracer, percentile)

NETWORK = "resnet20"
ROUNDS = 2
TRAINER_SPANS = ("trainer.train_epoch", "trainer.evaluate",
                 "trainer.prune_and_group")


class TrainWorkload:
    """The ``train`` workload."""

    # Its time goes to numpy kernels over whole-batch activations, which
    # the bulk reference loop tracks and the small one does not.
    host_bound = HOST_BOUND
    host_reference = "bulk"

    def __init__(self, seed: int):
        self.seed = seed
        self.outcome = Outcome()
        self.exact: dict[str, float] | None = None

    def _trainer(self) -> ColumnCombineTrainer:
        seed_everything(self.seed)
        run = FAST_RUN.scaled(seed=self.seed)
        train, test = prepare_data("cifar10", run)
        model = prepare_model(NETWORK, run)
        config = dataclasses.replace(combine_config(run, max_rounds=ROUNDS),
                                     epochs_per_round=1, final_epochs=1)
        return ColumnCombineTrainer(model, train, test, config)

    def setup(self) -> None:
        loss, _ = self._trainer().evaluate()
        self.outcome.check(bool(np.isfinite(loss)))

    def prepare(self) -> None:
        pass

    def _instrument(self, trainer: ColumnCombineTrainer, steps: list[float],
                    tracer: Tracer, host: HostSpeed) -> None:
        """Time SGD steps from outside; under tracing, span every layer call.

        The host is sampled before every training epoch; the time that
        takes is left out of the steps and of the run time.
        """
        last = [0]
        train_epoch, step = trainer.train_epoch, trainer.optimizer.step

        def timed_epoch(lr):
            started = time.perf_counter()
            host.sample(repeats=5)
            self.host_seconds += time.perf_counter() - started
            last[0] = time.perf_counter_ns()
            with tracer.span("trainer.train_epoch"):
                return train_epoch(lr)

        def timed_step():
            with tracer.span("optim.step"):
                step()
            now = time.perf_counter_ns()
            steps.append((now - last[0]) / 1e6)
            last[0] = now

        trainer.train_epoch = timed_epoch
        trainer.optimizer.step = timed_step
        if tracer.enabled:
            tracer.wrap(trainer, "evaluate", "trainer.evaluate")
            tracer.wrap(trainer, "prune_and_group", "trainer.prune_and_group")
            tracer.wrap(trainer.model, "forward", "nn.forward")
            tracer.wrap(trainer.model, "backward", "nn.backward")

    @staticmethod
    def _uninstrument(trainer: ColumnCombineTrainer) -> None:
        """Remove the wrappers; their closures would keep each finished
        session alive in reference cycles until a full collection."""
        for owner, attributes in (
                (trainer, ("train_epoch", "evaluate", "prune_and_group")),
                (trainer.optimizer, ("step",)),
                (trainer.model, ("forward", "backward"))):
            for attribute in attributes:
                vars(owner).pop(attribute, None)

    def _exact_metrics(self, trainer: ColumnCombineTrainer) -> dict[str, float]:
        packed = PackedModel.from_model(trainer.model)
        packed.forward(trainer.test_data.images[:1])
        plan = SystolicSystem(ArrayConfig()).plan_model(
            trainer.packed_layers(), packed.observed_spatial_sizes())
        return {"utilization": trainer.utilization(),
                "sim_cycles": plan.total_cycles,
                "trainer.accuracy": trainer.history.final_accuracy,
                "trainer.nonzeros": trainer.conv_nonzeros()}

    def measure(self, seconds: float, tracer: Tracer, host: HostSpeed
                ) -> list[float]:
        """Run sessions for ``seconds``; returns per-step times in ms."""
        steps: list[float] = []
        self.samples = 0
        self.run_seconds = 0.0
        self.host_seconds = 0.0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            trainer = self._trainer()
            self._instrument(trainer, steps, tracer, host)
            tracer.new_trace()
            started = time.perf_counter()
            history = trainer.run()
            self.run_seconds += time.perf_counter() - started
            self._uninstrument(trainer)
            epochs = [r for r in history.records if r.phase != "initial"]
            self.samples += len(trainer.train_data) * len(epochs)
            exact = self._exact_metrics(trainer)
            if self.exact is None:
                self.exact = exact
            self.outcome.check(
                all(np.isfinite(r.train_loss) for r in epochs)
                and exact == self.exact)
        return steps

    def exact_metrics(self) -> dict[str, float]:
        return self.exact

    def end_to_end(self, units: list[float]) -> dict[str, float]:
        return {"throughput": self.samples / (self.run_seconds
                                              - self.host_seconds),
                "p50_ms": percentile(units, 50),
                "p90_ms": percentile(units, 90)}

    def layer_metrics(self, tracer: Tracer, units: list[float]
                      ) -> dict[str, float]:
        metrics = {}
        for name in TRAINER_SPANS + ("nn.forward", "nn.backward",
                                     "optim.step"):
            durations = tracer.durations_ms(name)
            metrics[f"{name}_ms"] = float(np.mean(durations))
        busy = sum(tracer.total_ms(name) for name in TRAINER_SPANS)
        metrics["trace.attributed_share"] = busy / (
            (self.run_seconds - self.host_seconds) * 1e3)
        return metrics

    def close(self) -> None:
        pass
