"""Integration tests for Algorithm 1 (the iterative joint-optimization trainer)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.combining import (
    ColumnCombineConfig,
    ColumnCombineTrainer,
    count_conflicts,
)
from repro.combining.trainer import train_dense
from repro.models import LeNet5, ResNet20


def tiny_config(**overrides):
    defaults = dict(alpha=4, beta=0.25, gamma=0.5, target_fraction=0.4,
                    epochs_per_round=1, final_epochs=1, max_rounds=3,
                    lr=0.1, batch_size=32, seed=0)
    defaults.update(overrides)
    return ColumnCombineConfig(**defaults)


@pytest.fixture
def lenet_trainer(tiny_mnist):
    train, test = tiny_mnist
    model = LeNet5(in_channels=1, scale=1.0, image_size=8, rng=np.random.default_rng(0))
    return ColumnCombineTrainer(model, train, test, tiny_config())


def test_config_validation():
    with pytest.raises(ValueError):
        ColumnCombineConfig(alpha=0)
    with pytest.raises(ValueError):
        ColumnCombineConfig(beta=1.5)
    with pytest.raises(ValueError):
        ColumnCombineConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        ColumnCombineConfig(target_fraction=0.0)
    with pytest.raises(ValueError):
        ColumnCombineConfig(max_rounds=0)
    with pytest.raises(ValueError):
        ColumnCombineConfig(target_nonzeros=0)
    with pytest.raises(ValueError):
        ColumnCombineConfig(epochs_per_round=-1)
    with pytest.raises(ValueError):
        ColumnCombineConfig(final_epochs=-1)


def test_target_nonzeros_overrides_unused_target_fraction():
    # An absolute target must not be rejected over the fraction it overrides.
    config = ColumnCombineConfig(target_nonzeros=17, target_fraction=0.0)
    assert config.target_nonzeros == 17


def test_trainer_requires_packable_layers(tiny_mnist):
    train, test = tiny_mnist
    with pytest.raises(TypeError):
        ColumnCombineTrainer(object(), train, test, tiny_config())


def test_target_nonzeros_derived_from_fraction(lenet_trainer):
    expected = max(1, int(0.4 * lenet_trainer.initial_nonzeros))
    assert lenet_trainer.target_nonzeros == expected


def test_explicit_target_nonzeros_wins(tiny_mnist):
    train, test = tiny_mnist
    model = LeNet5(in_channels=1, scale=1.0, image_size=8, rng=np.random.default_rng(0))
    trainer = ColumnCombineTrainer(model, train, test,
                                   tiny_config(target_nonzeros=17))
    assert trainer.target_nonzeros == 17


def test_prune_and_group_reduces_nonzeros_and_installs_masks(lenet_trainer):
    before = lenet_trainer.conv_nonzeros()
    groupings = lenet_trainer.prune_and_group(beta=0.25)
    after = lenet_trainer.conv_nonzeros()
    assert after < before
    assert set(groupings) == {name for name, _ in lenet_trainer.layers}
    for _, layer in lenet_trainer.layers:
        assert layer.weight.mask is not None


def test_prune_and_group_leaves_groups_conflict_free(lenet_trainer):
    groupings = lenet_trainer.prune_and_group(beta=0.25)
    for name, layer in lenet_trainer.layers:
        for group in groupings[name].groups:
            assert count_conflicts(layer.weight.data, group) == 0


@pytest.mark.slow  # runs real training epochs
def test_run_reaches_target_and_records_history(lenet_trainer):
    history = lenet_trainer.run()
    assert lenet_trainer.conv_nonzeros() <= lenet_trainer.target_nonzeros or \
        len(history.pruning_epochs) == lenet_trainer.config.max_rounds
    assert history.records[0].phase == "initial"
    assert history.final_nonzeros <= lenet_trainer.initial_nonzeros
    assert len(history.pruning_epochs) >= 1
    # Nonzero counts never increase over the run.
    nonzeros = history.nonzero_counts()
    assert all(a >= b for a, b in zip(nonzeros, nonzeros[1:]))


@pytest.mark.slow  # runs real training epochs
def test_retraining_recovers_accuracy_after_pruning(tiny_mnist):
    """Accuracy after the full Algorithm 1 run must recover to a level well
    above chance and above the immediately-post-pruning accuracy."""
    train, test = tiny_mnist
    model = LeNet5(in_channels=1, scale=1.0, image_size=8, rng=np.random.default_rng(0))
    # Pretrain densely so pruning has something to destroy.
    train_dense(model, train, test, epochs=3, lr=0.05, seed=0)
    trainer = ColumnCombineTrainer(model, train, test,
                                   tiny_config(epochs_per_round=2, final_epochs=2))
    _, accuracy_before = trainer.evaluate()
    trainer.prune_and_group(beta=0.5)
    _, accuracy_after_prune = trainer.evaluate()
    history = trainer.run()
    assert history.final_accuracy >= accuracy_after_prune
    assert history.final_accuracy > 0.2  # well above 10-class chance


@pytest.mark.slow  # runs real training epochs
def test_masks_keep_pruned_weights_at_zero_through_training(lenet_trainer):
    lenet_trainer.run()
    for _, layer in lenet_trainer.layers:
        mask = layer.weight.mask
        assert mask is not None
        assert np.all(layer.weight.data[mask == 0] == 0.0)


@pytest.mark.slow  # runs real training epochs
def test_packed_layers_match_current_weights(lenet_trainer):
    lenet_trainer.run()
    packed = dict(lenet_trainer.packed_layers())
    for name, layer in lenet_trainer.layers:
        np.testing.assert_allclose(packed[name].to_sparse(), layer.weight.data)


@pytest.mark.slow  # runs real training epochs
def test_utilization_improves_over_unpacked_density(tiny_cifar):
    train, test = tiny_cifar
    model = ResNet20(in_channels=3, scale=0.5, rng=np.random.default_rng(0))
    trainer = ColumnCombineTrainer(model, train, test,
                                   tiny_config(alpha=8, target_fraction=0.25,
                                               max_rounds=4))
    trainer.run()
    total = sum(layer.weight.data.size for _, layer in trainer.layers)
    nonzeros = trainer.conv_nonzeros()
    unpacked_density = nonzeros / total
    assert trainer.utilization() > unpacked_density


@pytest.mark.slow  # runs real training epochs
def test_alpha_one_trainer_never_prunes_conflicts(tiny_mnist):
    train, test = tiny_mnist
    model = LeNet5(in_channels=1, scale=1.0, image_size=8, rng=np.random.default_rng(0))
    trainer = ColumnCombineTrainer(model, train, test, tiny_config(alpha=1, gamma=0.0))
    trainer.run()
    for grouping in trainer.groupings.values():
        assert all(len(group) == 1 for group in grouping.groups)


@pytest.mark.slow  # runs real training epochs
def test_train_dense_improves_accuracy(tiny_mnist):
    train, test = tiny_mnist
    model = LeNet5(in_channels=1, scale=1.0, image_size=8, rng=np.random.default_rng(0))
    history = train_dense(model, train, test, epochs=3, lr=0.05, seed=0)
    assert history.final_accuracy > history.records[0].test_accuracy
    # Dense training must not prune anything.
    assert history.final_nonzeros == history.records[0].nonzeros


@pytest.mark.slow  # runs real training epochs
def test_history_helpers(lenet_trainer):
    history = lenet_trainer.run()
    assert len(history.epochs()) == len(history.records)
    assert len(history.test_accuracies()) == len(history.records)
    assert history.final_accuracy == history.records[-1].test_accuracy


def test_empty_history_raises():
    from repro.combining.trainer import TrainingHistory
    history = TrainingHistory()
    with pytest.raises(ValueError):
        _ = history.final_accuracy
    with pytest.raises(ValueError):
        _ = history.final_nonzeros
