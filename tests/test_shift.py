"""The shared shift: grouped strided copies against a per-channel oracle.

:func:`~repro.nn.layers.shift_channels` serves :class:`Shift2d` (forward
and backward), the plan's :class:`ShiftOp` and the systolic
:class:`ShiftBlock`.  The oracle below is the per-channel loop it replaced:
one zero-filled plane per channel, written into an output channel by
channel.  Every comparison is on bits, NaN payloads included.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.combining import (
    PackedArtifactError,
    PackedModel,
    PipelineConfig,
    load_plan,
    save_packed,
)
from repro.combining.execplan import BatchNormOp, ShiftOp, _Ctx
from repro.models import build_model
from repro.nn import BatchNorm2d, Shift2d
from repro.nn.layers import (
    SHIFT_DIRECTIONS,
    assign_directions,
    shift_channels,
    shift_groups,
)
from repro.systolic import ShiftBlock

CHANNEL_COUNTS = (1, 8, 9, 10, 17, 64)
SHAPES = ((5, 5), (1, 6), (6, 1), (1, 1), (3, 7), (12, 12))
EXACT = _Ctx(mode="exact", batch_invariant=False, tap=None)


def loop_shift(x: np.ndarray, assignment: np.ndarray,
               inverse: bool = False) -> np.ndarray:
    """The per-channel oracle: shift one zero-filled (B, H, W) plane at a time."""
    out = np.empty_like(x)
    h, w = x.shape[-2], x.shape[-1]
    for c in range(x.shape[1]):
        dy, dx = SHIFT_DIRECTIONS[assignment[c]]
        if inverse:
            dy, dx = -dy, -dx
        plane = np.zeros_like(x[:, c])
        plane[..., max(0, dy):min(h, h + dy), max(0, dx):min(w, w + dx)] = (
            x[:, c][..., max(0, -dy):min(h, h - dy), max(0, -dx):min(w, w - dx)])
        out[:, c] = plane
    return out


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64),
                                  expected.view(np.uint64))
    assert np.array_equal(actual, expected, equal_nan=True)


def random_assignment(channels: int, seed: int) -> np.ndarray:
    """A non-periodic assignment (what a hand-edited manifest may carry)."""
    rng = np.random.default_rng(seed)
    while True:
        assignment = rng.integers(0, len(SHIFT_DIRECTIONS), size=channels)
        if channels == 1 or not np.array_equal(
                assignment, assign_directions(channels)):
            return assignment


@pytest.mark.parametrize("channels", CHANNEL_COUNTS)
def test_grouped_shift_matches_the_channel_loop(channels):
    rng = np.random.default_rng(channels)
    for assignment in (assign_directions(channels),
                       random_assignment(channels, seed=channels)):
        groups = shift_groups(assignment)
        for shape in SHAPES:
            x = rng.normal(size=(3, channels, *shape))
            for inverse in (False, True):
                assert_same_bits(shift_channels(x, groups, inverse=inverse),
                                 loop_shift(x, assignment, inverse=inverse))


def test_periodic_assignment_compiles_to_strided_slices():
    groups = shift_groups(assign_directions(20))
    assert len(groups) == len(SHIFT_DIRECTIONS)
    assert all(isinstance(channels, slice) for channels, _, _ in groups)
    assert len(shift_groups(assign_directions(4))) == 4
    # Any other assignment falls back to index arrays per direction.
    irregular = shift_groups(np.array([3, 3, 0, 8]))
    assert [(list(channels), dy, dx) for channels, dy, dx in irregular] == [
        ([2], 0, 0), ([0, 1], 0, -1), ([3], 1, 1)]


@pytest.mark.parametrize("channels", [9, 10, 17])
def test_special_values_move_bit_for_bit(channels):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, channels, 4, 5))
    flat = x.reshape(-1)
    picks = rng.choice(flat.size, size=4 * (flat.size // 5), replace=False)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0])
    flat[picks] = np.resize(specials, picks.size)
    # A NaN with a non-default payload must survive the copy untouched.
    flat.view(np.uint64)[picks[0]] = np.uint64(0x7FF8_0000_DEAD_BEEF)
    for assignment in (assign_directions(channels),
                       random_assignment(channels, seed=11)):
        for inverse in (False, True):
            assert_same_bits(
                shift_channels(x, shift_groups(assignment), inverse=inverse),
                loop_shift(x, assignment, inverse=inverse))


@pytest.mark.parametrize("channels", [1, 9, 17])
def test_inverse_shift_is_the_adjoint(channels):
    """``<shift(x), g> == <x, shift_inverse(g)>``, exactly: integer values."""
    rng = np.random.default_rng(channels)
    for shape in ((5, 5), (1, 4), (3, 7)):
        x = rng.integers(-50, 50, size=(2, channels, *shape)).astype(np.float64)
        g = rng.integers(-50, 50, size=x.shape).astype(np.float64)
        for assignment in (assign_directions(channels),
                           random_assignment(channels, seed=3)):
            groups = shift_groups(assignment)
            forward = np.sum(shift_channels(x, groups) * g)
            adjoint = np.sum(x * shift_channels(g, groups, inverse=True))
            assert forward == adjoint


@pytest.mark.parametrize("channels", CHANNEL_COUNTS)
def test_layer_block_and_op_share_the_oracle_bits(channels):
    x = np.random.default_rng(channels).normal(size=(2, channels, 6, 5))
    assignment = assign_directions(channels)
    expected = loop_shift(x, assignment)
    layer = Shift2d(channels)
    assert_same_bits(layer.forward(x), expected)
    assert_same_bits(layer.backward(x), loop_shift(x, assignment, inverse=True))
    assert_same_bits(ShiftBlock(channels).apply(x), expected)
    assert_same_bits(ShiftOp(assignment, channels).apply(x, EXACT), expected)


def test_shift_op_keeps_its_bits_through_pickle():
    assignment = random_assignment(17, seed=2)
    op = ShiftOp(assignment, 17)
    clone = pickle.loads(pickle.dumps(op))
    x = np.random.default_rng(0).normal(size=(2, 17, 4, 4))
    assert_same_bits(clone.apply(x, EXACT), op.apply(x, EXACT))
    assert_same_bits(op.apply(x, EXACT), loop_shift(x, assignment))


@pytest.mark.parametrize("assignment, channels", [
    (np.array([0, 1, 9]), 3),       # direction out of range
    (np.array([0, -1, 2]), 3),      # negative direction
    (np.array([0, 1]), 3),          # too short
    (np.array([0, 1, 2, 3]), 3),    # too long
    (np.array([[0, 1, 2]]), 3),     # not 1-D
    (np.array([0.0, 1.0, 2.0]), 3),  # not integers
])
def test_shift_op_rejects_bad_assignments_at_construction(assignment, channels):
    with pytest.raises(ValueError, match="shift assignment"):
        ShiftOp(assignment, channels)


def test_batchnorm_op_matches_layer_eval_bits_and_pickles():
    rng = np.random.default_rng(4)
    layer = BatchNorm2d(6)
    layer.running_mean[:] = rng.normal(size=6)
    layer.running_var[:] = rng.random(6) + 0.5
    layer.gamma.data[:] = rng.normal(size=6)
    layer.beta.data[:] = rng.normal(size=6)
    layer.eval()
    op = BatchNormOp(layer.running_mean.copy(), layer.running_var.copy(),
                     layer.gamma.data.copy(), layer.beta.data.copy(),
                     layer.eps, 6)
    x = rng.normal(size=(3, 6, 4, 4))
    expected = layer.forward(x)
    assert_same_bits(op.apply(x, EXACT), expected)
    assert_same_bits(pickle.loads(pickle.dumps(op)).apply(x, EXACT), expected)


# -- artifacts ---------------------------------------------------------------
def shift_ops(op) -> list[ShiftOp]:
    if isinstance(op, ShiftOp):
        return [op]
    children = getattr(op, "ops", ())
    return [found for child in children for found in shift_ops(child)]


@pytest.fixture(scope="module")
def saved_lenet5(tmp_path_factory):
    spec = {"name": "lenet5", "kwargs": {"in_channels": 1, "num_classes": 10,
                                         "scale": 1.0, "image_size": 8}}
    model = build_model("lenet5", rng=np.random.default_rng(3), **spec["kwargs"])
    mask_rng = np.random.default_rng(4)
    for _, layer in model.packable_layers():
        layer.weight.data *= mask_rng.random(layer.weight.data.shape) < 0.5
    packed = PackedModel.from_model(model, PipelineConfig(alpha=8, gamma=0.5))
    path = save_packed(packed, tmp_path_factory.mktemp("shift") / "lenet5.npz",
                       model_spec=spec, compress=False)
    return packed.compile_plan(), path


def test_shift_ops_keep_their_bits_through_a_manifest_round_trip(saved_lenet5):
    plan, path = saved_lenet5
    compiled = shift_ops(plan.root)
    loaded = shift_ops(load_plan(path).root)
    assert compiled and len(loaded) == len(compiled)
    rng = np.random.default_rng(8)
    for before, after in zip(compiled, loaded):
        np.testing.assert_array_equal(after.assignment, before.assignment)
        x = rng.normal(size=(2, before.channels, 5, 3))
        assert_same_bits(after.apply(x, EXACT), before.apply(x, EXACT))


def rewrite(path, target, mutate) -> None:
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key].copy() for key in data.files}
    mutate(arrays)
    with open(target, "wb") as handle:
        np.savez(handle, **arrays)


def first_shift_node(node: dict) -> dict:
    if node["op"] == "shift":
        return node
    for child in node.get("ops", ()):
        found = first_shift_node(child)
        if found is not None:
            return found
    return None


def test_out_of_range_shift_direction_in_a_manifest_fails_at_load(
        saved_lenet5, tmp_path):
    _, path = saved_lenet5

    def corrupt(arrays: dict) -> None:
        meta = json.loads(str(arrays["meta"][()]))
        ref = first_shift_node(meta["plan"])["assignment"]
        blob = arrays[f"blob.{ref['blob']}"]
        blob[ref["offset"] + ref["size"] - 1] = len(SHIFT_DIRECTIONS)

    target = tmp_path / "corrupt.npz"
    rewrite(path, target, corrupt)
    with pytest.raises(PackedArtifactError, match="shift assignment"):
        load_plan(target)


def test_shift_assignment_length_mismatch_in_a_manifest_fails_at_load(
        saved_lenet5, tmp_path):
    _, path = saved_lenet5

    def corrupt(arrays: dict) -> None:
        meta = json.loads(str(arrays["meta"][()]))
        first_shift_node(meta["plan"])["channels"] += 1
        arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))

    target = tmp_path / "corrupt.npz"
    rewrite(path, target, corrupt)
    with pytest.raises(PackedArtifactError, match="shift assignment"):
        load_plan(target)
