"""Iterative training with column combining — Algorithm 1 of the paper.

Each iteration (round) of :class:`ColumnCombineTrainer.run`:

1. *Initial pruning* — remove the smallest-magnitude ``beta`` fraction of the
   remaining weights in every packable layer.
2. *Column grouping* (Algorithm 2) — partition each layer's columns into
   groups of at most ``alpha`` columns with at most ``gamma`` conflicts per
   row on average.
3. *Column-combine pruning* (Algorithm 3) — within each group, keep only
   the largest-magnitude weight per row.
4. *Retraining* — a few epochs of SGD with a cosine learning-rate schedule
   to recover accuracy, with pruning masks keeping removed weights at zero.
5. Decay ``beta`` by a constant factor.

The loop stops once the number of nonzero weights across the packable
layers reaches the target ``rho``, after which a final fine-tuning phase
runs with the learning rate decaying to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.combining.grouping import ColumnGrouping, group_columns
from repro.combining.packing import PackedFilterMatrix, pack_filter_matrix
from repro.combining.pruning import conflict_mask
from repro.data.augment import augment_batch
from repro.data.dataset import Dataset
from repro.data.loader import DataLoader
from repro.nn import Module, PointwiseConv2d, SGD, SoftmaxCrossEntropy, accuracy
from repro.nn.schedule import CosineSchedule
from repro.pruning.magnitude import magnitude_prune_parameter
from repro.pruning.schedule import BetaSchedule
from repro.utils.logging import get_logger

logger = get_logger("combining.trainer")


@dataclass
class ColumnCombineConfig:
    """Hyper-parameters of Algorithm 1 plus the retraining setup.

    Defaults follow the paper: α = 8, β = 20%, γ = 0.5, SGD with Nesterov
    momentum 0.9 and a cosine schedule ending at 20% of the initial
    learning rate per round (and at 0 during final fine-tuning).
    """

    alpha: int = 8
    beta: float = 0.20
    gamma: float = 0.5
    #: ρ — target number of nonzero weights across packable layers.  When
    #: ``None`` it is derived as ``target_fraction`` of the initial count.
    target_nonzeros: int | None = None
    target_fraction: float = 0.15
    beta_decay: float = 0.9
    grouping_policy: str = "dense-first"
    lr: float = 0.05
    momentum: float = 0.9
    nesterov: bool = True
    weight_decay: float = 1e-4
    #: global gradient-norm clip applied during retraining; ``None`` disables.
    clip_grad_norm: float | None = 5.0
    epochs_per_round: int = 2
    final_epochs: int = 3
    round_lr_fraction: float = 0.2
    final_lr_fraction: float = 0.0
    batch_size: int = 64
    #: safety bound on the number of prune/retrain rounds.
    max_rounds: int = 10
    augment: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.target_nonzeros is not None:
            # target_nonzeros overrides target_fraction, so only the
            # override is validated — a caller pinning an absolute target
            # should not be rejected over the unused fraction.
            if self.target_nonzeros < 1:
                raise ValueError("target_nonzeros must be >= 1")
        elif not 0.0 < self.target_fraction <= 1.0:
            raise ValueError("target_fraction must be in (0, 1]")
        if self.epochs_per_round < 0:
            raise ValueError("epochs_per_round must be non-negative")
        if self.final_epochs < 0:
            raise ValueError("final_epochs must be non-negative")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class EpochRecord:
    """One row of the training history (the data behind Figure 13a)."""

    epoch: int
    round: int
    phase: str
    train_loss: float
    train_accuracy: float
    test_accuracy: float
    nonzeros: int


@dataclass
class TrainingHistory:
    """Sequence of per-epoch records plus round boundaries."""

    records: list[EpochRecord] = field(default_factory=list)
    #: epochs at which a prune/group/combine step happened (the dashed
    #: vertical lines of Figure 13a).
    pruning_epochs: list[int] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    def epochs(self) -> list[int]:
        return [r.epoch for r in self.records]

    def test_accuracies(self) -> list[float]:
        return [r.test_accuracy for r in self.records]

    def nonzero_counts(self) -> list[int]:
        return [r.nonzeros for r in self.records]

    @property
    def final_accuracy(self) -> float:
        if not self.records:
            raise ValueError("history is empty")
        return self.records[-1].test_accuracy

    @property
    def final_nonzeros(self) -> int:
        if not self.records:
            raise ValueError("history is empty")
        return self.records[-1].nonzeros


class ColumnCombineTrainer:
    """Joint optimization of utilization efficiency and accuracy (Algorithm 1)."""

    def __init__(self, model: Module, train_data: Dataset, test_data: Dataset,
                 config: ColumnCombineConfig | None = None):
        self.model = model
        self.train_data = train_data
        self.test_data = test_data
        self.config = config if config is not None else ColumnCombineConfig()
        method = getattr(model, "packable_layers", None)
        if not callable(method):
            raise TypeError("model must expose packable_layers()")
        self.layers: list[tuple[str, PointwiseConv2d]] = method()
        if not self.layers:
            raise ValueError("model has no packable layers")
        self.rng = np.random.default_rng(self.config.seed)
        self.optimizer = SGD(model.parameters(), lr=self.config.lr,
                             momentum=self.config.momentum,
                             nesterov=self.config.nesterov,
                             weight_decay=self.config.weight_decay,
                             clip_norm=self.config.clip_grad_norm)
        self.loss_fn = SoftmaxCrossEntropy()
        self.groupings: dict[str, ColumnGrouping] = {}
        self.history = TrainingHistory()
        self._epoch = 0
        self.initial_nonzeros = self.conv_nonzeros()
        if self.config.target_nonzeros is not None:
            self.target_nonzeros = int(self.config.target_nonzeros)
        else:
            self.target_nonzeros = max(1, int(self.config.target_fraction * self.initial_nonzeros))

    # -- accounting ----------------------------------------------------------
    def conv_nonzeros(self) -> int:
        """Nonzero weights across the packable (convolutional) layers."""
        return sum(int(np.count_nonzero(layer.weight.data)) for _, layer in self.layers)

    def utilization(self) -> float:
        """Packing efficiency of the current packed layers, cell-weighted."""
        packed = self.packed_layers()
        total_cells = sum(p.weights.size for _, p in packed)
        if total_cells == 0:
            return 0.0
        nonzero_cells = sum(int(np.count_nonzero(p.weights)) for _, p in packed)
        return nonzero_cells / total_cells

    # -- one epoch of SGD ------------------------------------------------------
    def train_epoch(self, lr: float) -> tuple[float, float]:
        """Run one epoch of SGD at the given learning rate."""
        self.model.train()
        self.optimizer.set_lr(lr)
        loader = DataLoader(self.train_data, batch_size=self.config.batch_size,
                            shuffle=True, rng=self.rng)
        losses: list[float] = []
        accuracies: list[float] = []
        for images, labels in loader:
            if self.config.augment:
                images = augment_batch(images, self.rng)
            logits = self.model.forward(images)
            loss = self.loss_fn(logits, labels)
            self.optimizer.zero_grad()
            self.model.backward(self.loss_fn.backward())
            self.optimizer.step()
            losses.append(loss)
            accuracies.append(accuracy(logits, labels))
        return float(np.mean(losses)), float(np.mean(accuracies))

    def evaluate(self, dataset: Dataset | None = None) -> tuple[float, float]:
        """Mean loss and accuracy on a dataset (default: the test set)."""
        dataset = dataset if dataset is not None else self.test_data
        self.model.eval()
        loader = DataLoader(dataset, batch_size=self.config.batch_size, shuffle=False)
        losses: list[float] = []
        correct = 0
        for images, labels in loader:
            logits = self.model.forward(images)
            losses.append(self.loss_fn(logits, labels) * len(labels))
            correct += int((np.argmax(logits, axis=1) == labels).sum())
        total = len(dataset)
        return float(np.sum(losses) / total), correct / total

    # -- pruning / grouping step ------------------------------------------------
    def prune_and_group(self, beta: float) -> dict[str, ColumnGrouping]:
        """Steps 1-3 of Algorithm 1 applied to every packable layer."""
        groupings: dict[str, ColumnGrouping] = {}
        for name, layer in self.layers:
            # Step 1: initial magnitude pruning of the remaining weights.
            magnitude_prune_parameter(layer.weight, beta)
            # Step 2: group columns under the alpha / gamma constraints.
            grouping = group_columns(layer.weight.data, alpha=self.config.alpha,
                                     gamma=self.config.gamma,
                                     policy=self.config.grouping_policy,
                                     rng=self.rng)
            # Step 3: prune conflicts within each group and install the mask
            # so retraining keeps pruned weights at zero.
            keep = conflict_mask(layer.weight.data, grouping)
            layer.weight.set_mask(keep)
            groupings[name] = grouping
        self.groupings = groupings
        return groupings

    # -- the full Algorithm 1 loop ----------------------------------------------
    def run(self) -> TrainingHistory:
        """Execute the iterative prune / group / combine / retrain loop."""
        config = self.config
        beta_schedule = BetaSchedule(config.beta, config.beta_decay)
        rounds = 0
        _, test_acc = self.evaluate()
        self.history.append(EpochRecord(self._epoch, 0, "initial", float("nan"),
                                        float("nan"), test_acc, self.conv_nonzeros()))

        while self.conv_nonzeros() > self.target_nonzeros and rounds < config.max_rounds:
            rounds += 1
            self.history.pruning_epochs.append(self._epoch)
            self.prune_and_group(beta_schedule.value)
            logger.info("round %d: pruned to %d nonzeros (target %d)",
                        rounds, self.conv_nonzeros(), self.target_nonzeros)
            schedule = CosineSchedule(config.lr, final_fraction=config.round_lr_fraction)
            self._run_phase(f"round-{rounds}", rounds, config.epochs_per_round, schedule)
            beta_schedule.step()

        # Final fine-tuning with the learning rate decaying to zero.
        if config.final_epochs > 0:
            schedule = CosineSchedule(config.lr, final_fraction=config.final_lr_fraction)
            self._run_phase("final", rounds, config.final_epochs, schedule)
        return self.history

    def _run_phase(self, phase: str, round_index: int, epochs: int,
                   schedule: CosineSchedule) -> None:
        for epoch_in_phase in range(epochs):
            lr = schedule(epoch_in_phase, epochs)
            train_loss, train_acc = self.train_epoch(lr)
            _, test_acc = self.evaluate()
            self._epoch += 1
            self.history.append(EpochRecord(self._epoch, round_index, phase, train_loss,
                                            train_acc, test_acc, self.conv_nonzeros()))

    # -- deployment artefacts -----------------------------------------------------
    def packed_layers(self) -> list[tuple[str, PackedFilterMatrix]]:
        """Packed filter matrices for every packable layer.

        Layers that have not been grouped yet (e.g. before :meth:`run`) are
        grouped on the fly with the configured α / γ.
        """
        packed: list[tuple[str, PackedFilterMatrix]] = []
        for name, layer in self.layers:
            grouping = self.groupings.get(name)
            if grouping is None:
                grouping = group_columns(layer.weight.data, alpha=self.config.alpha,
                                         gamma=self.config.gamma,
                                         policy=self.config.grouping_policy)
            packed.append((name, pack_filter_matrix(layer.weight.data, grouping)))
        return packed


def train_dense(model: Module, train_data: Dataset, test_data: Dataset,
                epochs: int = 3, lr: float = 0.05, momentum: float = 0.9,
                weight_decay: float = 1e-4, batch_size: int = 64,
                augment: bool = False, seed: int = 0) -> TrainingHistory:
    """Train a dense (unpruned) model — the "pretrained model" of Section 6.

    Uses the same SGD / cosine-schedule setup as the column-combining
    trainer but performs no pruning, so the result is the dense customer
    model that the limited-data experiment (Figure 15b) starts from.
    """
    config = ColumnCombineConfig(lr=lr, momentum=momentum, weight_decay=weight_decay,
                                 batch_size=batch_size, augment=augment, seed=seed,
                                 epochs_per_round=0, final_epochs=epochs,
                                 target_fraction=1.0, max_rounds=1)
    trainer = ColumnCombineTrainer(model, train_data, test_data, config)
    schedule = CosineSchedule(lr, final_fraction=0.0)
    _, test_acc = trainer.evaluate()
    trainer.history.append(EpochRecord(0, 0, "dense-initial", float("nan"), float("nan"),
                                       test_acc, trainer.conv_nonzeros()))
    trainer._run_phase("dense", 0, epochs, schedule)
    return trainer.history
