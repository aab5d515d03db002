"""Shared plumbing for the experiment runners."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

import numpy as np

from repro.combining.pipeline import PackingPipeline, PipelineConfig
from repro.combining.trainer import (
    ColumnCombineConfig,
    ColumnCombineTrainer,
    TrainingHistory,
    train_dense,
)
from repro.data import Dataset, synthetic_cifar10, synthetic_mnist
from repro.models import build_model
from repro.nn import Module
from repro.utils.config import RunConfig
from repro.utils.seeding import seed_everything

#: Scaled-down defaults that let every training experiment finish in tens of
#: seconds on a CPU while exercising the full Algorithm 1 code path and
#: reaching accuracies well above chance (so the accuracy-vs-utilization
#: trends of Figures 13 and 15b are visible).
FAST_RUN = RunConfig(train_samples=512, test_samples=256, image_size=12,
                     epochs_per_round=2, final_epochs=3, batch_size=64,
                     model_scale=1.0)

#: Dataset each network family is evaluated on in the paper.
DATASET_FOR_MODEL = {
    "lenet5": "mnist",
    "vgg": "cifar10",
    "resnet20": "cifar10",
}


def prepare_data(kind: str, config: RunConfig) -> tuple[Dataset, Dataset]:
    """Build the synthetic train / test splits for ``kind`` ('mnist'/'cifar10')."""
    if kind == "mnist":
        train = synthetic_mnist(config.train_samples, image_size=config.image_size,
                                seed=config.seed, split_seed=0)
        test = synthetic_mnist(config.test_samples, image_size=config.image_size,
                               seed=config.seed, split_seed=1)
    elif kind == "cifar10":
        train = synthetic_cifar10(config.train_samples, image_size=config.image_size,
                                  seed=config.seed, split_seed=0)
        test = synthetic_cifar10(config.test_samples, image_size=config.image_size,
                                 seed=config.seed, split_seed=1)
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    return train, test


def prepare_model(name: str, config: RunConfig) -> Module:
    """Build a scaled model matching the dataset's channel count."""
    kind = DATASET_FOR_MODEL[name]
    in_channels = 1 if kind == "mnist" else 3
    kwargs: dict[str, Any] = dict(in_channels=in_channels, num_classes=10,
                                  scale=config.model_scale,
                                  rng=np.random.default_rng(config.seed))
    if name == "lenet5":
        kwargs["image_size"] = config.image_size
    kwargs.update(config.model_kwargs)
    return build_model(name, **kwargs)


def combine_config(run: RunConfig, *, alpha: int = 8, beta: float = 0.20,
                   gamma: float = 0.5, target_fraction: float = 0.2,
                   max_rounds: int = 6, lr: float = 0.05,
                   grouping_policy: str = "dense-first") -> ColumnCombineConfig:
    """Algorithm 1 configuration derived from a :class:`RunConfig`."""
    return ColumnCombineConfig(
        alpha=alpha, beta=beta, gamma=gamma, target_fraction=target_fraction,
        epochs_per_round=run.epochs_per_round, final_epochs=run.final_epochs,
        batch_size=run.batch_size, max_rounds=max_rounds, lr=lr, seed=run.seed,
        grouping_policy=grouping_policy,
    )


def packing_pipeline(*, alpha: int = 8, gamma: float = 0.5,
                     policy: str = "dense-first",
                     array_rows: int = 32, array_cols: int = 32,
                     workers: int = 1, seed: int = 0,
                     pool: ProcessPoolExecutor | None = None) -> PackingPipeline:
    """A :class:`PackingPipeline` for the structural experiment sweeps.

    Thin keyword wrapper around :class:`PipelineConfig` so every runner
    builds its pipeline the same way and gains the ``workers`` knob
    uniformly.  ``pool`` lends a shared executor to the pipeline (see
    :class:`~repro.combining.pipeline.PackingPipeline`), letting sweeps
    that plan several (α, γ) settings fork one pool for all of them.
    """
    return PackingPipeline(PipelineConfig(
        alpha=alpha, gamma=gamma, policy=policy,
        array_rows=array_rows, array_cols=array_cols,
        workers=workers, seed=seed,
    ), pool=pool)


@contextmanager
def shared_packing_pool(workers: int) -> Iterator[ProcessPoolExecutor | None]:
    """One worker pool lent to every pipeline of a multi-setting sweep.

    Sweeps that plan several (α, γ) settings build one pipeline per
    setting (the config is frozen per pipeline); lending them all the
    same executor forks the workers once per sweep instead of once per
    setting.  Yields ``None`` for serial sweeps (``workers <= 1``), which
    pipelines accept as "no borrowed pool".
    """
    if workers <= 1:
        yield None
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        pool.shutdown(wait=True)


def run_column_combining(model_name: str, run: RunConfig | None = None,
                         cc_config: ColumnCombineConfig | None = None,
                         pretrain_epochs: int = 0,
                         data: tuple[Dataset, Dataset] | None = None
                         ) -> dict[str, Any]:
    """Train a model with Algorithm 1 and return the trainer plus its history."""
    run = run if run is not None else FAST_RUN
    seed_everything(run.seed)
    kind = DATASET_FOR_MODEL[model_name]
    train, test = data if data is not None else prepare_data(kind, run)
    model = prepare_model(model_name, run)
    if pretrain_epochs > 0:
        train_dense(model, train, test, epochs=pretrain_epochs, lr=0.1, seed=run.seed)
    config = cc_config if cc_config is not None else combine_config(run)
    trainer = ColumnCombineTrainer(model, train, test, config)
    history = trainer.run()
    return {
        "model_name": model_name,
        "trainer": trainer,
        "history": history,
        "final_accuracy": history.final_accuracy,
        "final_nonzeros": history.final_nonzeros,
        "utilization": trainer.utilization(),
    }


def history_series(history: TrainingHistory) -> dict[str, list]:
    """Flatten a training history into plottable series (Figure 13a's data)."""
    return {
        "epoch": history.epochs(),
        "test_accuracy": history.test_accuracies(),
        "nonzeros": history.nonzero_counts(),
        "pruning_epochs": list(history.pruning_epochs),
    }


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render a plain-text table (used by every experiment's ``main``)."""
    columns = [str(h) for h in headers]
    text_rows = [[_fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in columns]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)
