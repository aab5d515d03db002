"""Layer tests: output shapes, semantics, and numerical gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    MaxPool2d,
    PointwiseConv2d,
    ReLU,
    Shift2d,
    ShiftConv2d,
)
from repro.combining.execplan import ReluOp, ResidualOp, SequenceOp
from repro.nn.layers import SHIFT_DIRECTIONS, relu

from tests.conftest import numerical_gradient


def check_input_gradient(layer, x, rtol=1e-4, atol=1e-6):
    """Compare the layer's backward pass against finite differences."""
    out = layer.forward(x)
    upstream = np.random.default_rng(0).normal(size=out.shape)

    def loss() -> float:
        return float(np.sum(layer.forward(x) * upstream))

    numeric = numerical_gradient(loss, x)
    layer.forward(x)
    analytic = layer.backward(upstream)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def check_weight_gradient(layer, parameter, x, rtol=1e-4, atol=1e-6):
    """Compare a parameter gradient against finite differences."""
    out = layer.forward(x)
    upstream = np.random.default_rng(1).normal(size=out.shape)

    def loss() -> float:
        return float(np.sum(layer.forward(x) * upstream))

    numeric = numerical_gradient(loss, parameter.data)
    parameter.zero_grad()
    layer.forward(x)
    layer.backward(upstream)
    np.testing.assert_allclose(parameter.grad, numeric, rtol=rtol, atol=atol)


# -- Dense ---------------------------------------------------------------------

def test_dense_output_shape_and_value(rng):
    layer = Dense(3, 2, rng=rng)
    x = rng.normal(size=(4, 3))
    out = layer.forward(x)
    assert out.shape == (4, 2)
    np.testing.assert_allclose(out, x @ layer.weight.data.T + layer.bias.data)


def test_dense_rejects_wrong_input_width(rng):
    layer = Dense(3, 2, rng=rng)
    with pytest.raises(ValueError):
        layer.forward(rng.normal(size=(4, 5)))


def test_dense_input_gradient(rng):
    layer = Dense(4, 3, rng=rng)
    check_input_gradient(layer, rng.normal(size=(2, 4)))


def test_dense_weight_and_bias_gradients(rng):
    layer = Dense(4, 3, rng=rng)
    x = rng.normal(size=(2, 4))
    check_weight_gradient(layer, layer.weight, x)
    check_weight_gradient(layer, layer.bias, x)


def test_dense_masked_weight_gradient_stays_zero(rng):
    layer = Dense(3, 2, rng=rng)
    mask = np.array([[1, 0, 1], [0, 1, 0]], dtype=float)
    layer.weight.set_mask(mask)
    layer.forward(rng.normal(size=(5, 3)))
    layer.backward(np.ones((5, 2)))
    assert np.all(layer.weight.grad[mask == 0] == 0)


# -- PointwiseConv2d -------------------------------------------------------------

def test_pointwise_matches_explicit_matmul(rng):
    layer = PointwiseConv2d(3, 5, rng=rng)
    x = rng.normal(size=(2, 3, 4, 4))
    out = layer.forward(x)
    assert out.shape == (2, 5, 4, 4)
    expected = np.einsum("nc,bchw->bnhw", layer.weight.data, x)
    np.testing.assert_allclose(out, expected)


def test_pointwise_weight_is_the_filter_matrix(rng):
    layer = PointwiseConv2d(7, 11, rng=rng)
    assert layer.weight.shape == (11, 7)


def test_pointwise_input_gradient(rng):
    layer = PointwiseConv2d(3, 2, rng=rng)
    check_input_gradient(layer, rng.normal(size=(2, 3, 3, 3)))


def test_pointwise_weight_gradient(rng):
    layer = PointwiseConv2d(3, 2, rng=rng)
    check_weight_gradient(layer, layer.weight, rng.normal(size=(2, 3, 3, 3)))


def test_pointwise_rejects_wrong_channel_count(rng):
    layer = PointwiseConv2d(3, 2, rng=rng)
    with pytest.raises(ValueError):
        layer.forward(rng.normal(size=(1, 4, 3, 3)))


def test_pointwise_bias_adds_per_channel(rng):
    layer = PointwiseConv2d(2, 2, bias=True, rng=rng)
    layer.bias.data[:] = [1.0, -1.0]
    out = layer.forward(np.zeros((1, 2, 2, 2)))
    np.testing.assert_allclose(out[0, 0], 1.0)
    np.testing.assert_allclose(out[0, 1], -1.0)


# -- Shift2d / ShiftConv2d ----------------------------------------------------------

def test_shift_assigns_all_nine_directions_cyclically():
    layer = Shift2d(20)
    counts = np.bincount(layer.assignment, minlength=len(SHIFT_DIRECTIONS))
    assert counts.sum() == 20
    assert counts.max() - counts.min() <= 1


def test_shift_moves_pixels_with_zero_fill():
    layer = Shift2d(2)
    # Channel 1 is assigned direction (-1, 0): content moves up by one row.
    x = np.zeros((1, 2, 3, 3))
    x[0, 1, 1, 1] = 5.0
    out = layer.forward(x)
    assert out[0, 1, 0, 1] == 5.0
    assert out[0, 1, 1, 1] == 0.0
    # Channel 0 has the centre direction: unchanged.
    x0 = np.zeros((1, 2, 3, 3))
    x0[0, 0, 2, 2] = 3.0
    np.testing.assert_allclose(layer.forward(x0)[0, 0], x0[0, 0])


def test_shift_backward_is_inverse_shift(rng):
    layer = Shift2d(9)
    x = rng.normal(size=(2, 9, 5, 5))
    check_input_gradient(layer, x)


def test_shift_preserves_shape(rng):
    layer = Shift2d(4)
    x = rng.normal(size=(3, 4, 6, 6))
    assert layer.forward(x).shape == x.shape


def test_shiftconv_weight_property_exposes_filter_matrix(rng):
    layer = ShiftConv2d(4, 6, rng=rng)
    assert layer.weight is layer.pointwise.weight
    assert layer.weight.shape == (6, 4)


def test_shiftconv_stride_subsamples_output(rng):
    layer = ShiftConv2d(3, 5, stride=2, rng=rng)
    out = layer.forward(rng.normal(size=(2, 3, 8, 8)))
    assert out.shape == (2, 5, 4, 4)


def test_shiftconv_gradients(rng):
    layer = ShiftConv2d(3, 4, rng=rng)
    x = rng.normal(size=(2, 3, 4, 4))
    check_input_gradient(layer, x)
    check_weight_gradient(layer, layer.weight, x)


def test_shiftconv_strided_gradients(rng):
    layer = ShiftConv2d(2, 3, stride=2, rng=rng)
    x = rng.normal(size=(1, 2, 4, 4))
    check_input_gradient(layer, x)
    check_weight_gradient(layer, layer.weight, x)


# -- BatchNorm2d ----------------------------------------------------------------------

def test_batchnorm_normalizes_in_training_mode(rng):
    layer = BatchNorm2d(3)
    x = rng.normal(loc=5.0, scale=2.0, size=(8, 3, 4, 4))
    out = layer.forward(x)
    assert abs(out.mean()) < 1e-6
    assert abs(out.std() - 1.0) < 1e-2


def test_batchnorm_uses_running_stats_in_eval_mode(rng):
    layer = BatchNorm2d(2)
    x = rng.normal(loc=3.0, size=(16, 2, 4, 4))
    for _ in range(20):
        layer.forward(x)
    layer.eval()
    out = layer.forward(x)
    # With converged running statistics the eval output is close to normalized.
    assert abs(out.mean()) < 0.5


def test_batchnorm_input_gradient(rng):
    layer = BatchNorm2d(2)
    check_input_gradient(layer, rng.normal(size=(4, 2, 3, 3)), rtol=1e-3, atol=1e-5)


def test_batchnorm_gamma_beta_gradients(rng):
    layer = BatchNorm2d(2)
    x = rng.normal(size=(4, 2, 3, 3))
    check_weight_gradient(layer, layer.gamma, x, rtol=1e-3, atol=1e-5)
    check_weight_gradient(layer, layer.beta, x, rtol=1e-3, atol=1e-5)


def old_batchnorm_forward(x, layer):
    """The multi-pass forward ``BatchNorm2d`` replaced, as the bit oracle:
    returns (output, x_hat, inv_std, running_mean, running_var)."""
    running_mean, running_var = layer.running_mean, layer.running_var
    if layer.training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        m = layer.momentum
        running_mean = (1 - m) * running_mean + m * mean
        running_var = (1 - m) * running_var + m * var
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = (layer.gamma.data[None, :, None, None] * x_hat
           + layer.beta.data[None, :, None, None])
    return out, x_hat, inv_std, running_mean, running_var


def old_batchnorm_backward(grad_output, x_hat, inv_std, gamma, training):
    """The multi-pass backward, as the bit oracle: returns (input grad,
    gamma grad, beta grad)."""
    batch, _, height, width = grad_output.shape
    count = batch * height * width
    gamma_grad = (grad_output * x_hat).sum(axis=(0, 2, 3))
    beta_grad = grad_output.sum(axis=(0, 2, 3))
    dxhat = grad_output * gamma[None, :, None, None]
    if not training:
        return dxhat * inv_std[None, :, None, None], gamma_grad, beta_grad
    sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
    sum_dxhat_xhat = (dxhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
    grad_input = (dxhat - sum_dxhat / count - x_hat * sum_dxhat_xhat / count)
    return grad_input * inv_std[None, :, None, None], gamma_grad, beta_grad


def same_bytes(actual, expected) -> bool:
    return (actual.shape == expected.shape and actual.dtype == expected.dtype
            and actual.tobytes() == expected.tobytes())


@pytest.mark.parametrize("shape", [(64, 16, 12, 12), (64, 32, 6, 6),
                                   (64, 64, 3, 3)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_batchnorm_bits_match_multi_pass_expressions(shape):
    rng = np.random.default_rng(5)
    channels = shape[1]
    layer = BatchNorm2d(channels)
    layer.gamma.data[:] = rng.normal(size=channels)
    layer.beta.data[:] = rng.normal(size=channels)
    layer.running_mean[:] = rng.normal(size=channels)
    # The pointwise convolution hands batch norm a transposed einsum view.
    x = np.einsum("nc,bchw->bnhw", rng.normal(size=(channels, channels)),
                  rng.normal(loc=0.5, size=shape), optimize=True)
    grad_output = rng.normal(size=shape)
    for array in (x, grad_output):
        array.setflags(write=False)
    before = grad_output.copy()
    for set_mode in (layer.train, layer.eval):
        set_mode()
        layer.zero_grad()
        expected, x_hat, inv_std, running_mean, running_var = (
            old_batchnorm_forward(x, layer))
        assert same_bytes(layer.forward(x), expected)
        assert same_bytes(layer._cache[0], x_hat)
        assert same_bytes(layer.running_mean, running_mean)
        assert same_bytes(layer.running_var, running_var)

        grad_input, gamma_grad, beta_grad = old_batchnorm_backward(
            grad_output, x_hat, inv_std, layer.gamma.data, layer.training)
        assert same_bytes(layer.backward(grad_output), grad_input)
        assert same_bytes(layer.gamma.grad, gamma_grad)
        assert same_bytes(layer.beta.grad, beta_grad)
    # A residual block feeds one grad_output to both branches.
    assert same_bytes(grad_output, before)


def test_batchnorm_rejects_wrong_channels(rng):
    layer = BatchNorm2d(2)
    with pytest.raises(ValueError):
        layer.forward(rng.normal(size=(1, 3, 2, 2)))


# -- activations, pooling, dropout ------------------------------------------------------

def test_relu_zeroes_negative_values():
    layer = ReLU()
    out = layer.forward(np.array([[-1.0, 2.0], [0.0, -3.0]]))
    np.testing.assert_allclose(out, [[0.0, 2.0], [0.0, 0.0]])


#: NaN (two payloads, both signs), +-inf, +-0.0, +-denormal and normals.
RELU_SPECIALS = np.concatenate([
    np.array([0x7FF8000000000000, 0xFFF8000000000ABC],
             dtype=np.uint64).view(np.float64),
    [np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.5, -2.5]])


def relu_inputs(layout: str) -> list[np.ndarray]:
    shape = (2, 3, 4, 5)
    if layout == "contiguous":
        return [np.resize(RELU_SPECIALS, shape)]
    if layout == "transposed":  # like a quantized packed layer's output
        return [np.resize(RELU_SPECIALS, shape[::-1]).transpose(3, 2, 1, 0)]
    # One value per array: numpy's fmax takes its scalar loop, which (unlike
    # its vector loop here) returns -0.0 for fmax(-0.0, 0.0).
    return [np.full((1, 1, 1, 1), value) for value in RELU_SPECIALS]


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "single"])
def test_relu_paths_match_the_where_oracle_on_special_values(layout):
    """``relu``, ``ReLU``, ``ReluOp`` and ``ResidualOp`` have the bits of
    ``np.where(x > 0, x, 0.0)`` and leave their read-only input alone."""

    def oracle(values):
        return np.where(values > 0, values, 0.0)

    for x in relu_inputs(layout):
        x.setflags(write=False)
        before = x.copy()
        assert same_bytes(relu(x), oracle(x))
        assert same_bytes(ReLU().forward(x), oracle(x))
        assert same_bytes(ReluOp().apply(x, None), oracle(x))
        # Identity shortcut and an empty main branch: relu(x + x).
        assert same_bytes(ResidualOp(SequenceOp(()), None).apply(x, None),
                          oracle(x + x))
        assert same_bytes(x, before)


def test_relu_gradient_masks_negative_inputs(rng):
    layer = ReLU()
    check_input_gradient(layer, rng.normal(size=(3, 4)) + 0.1)


def test_identity_passes_through(rng):
    layer = Identity()
    x = rng.normal(size=(2, 3))
    np.testing.assert_allclose(layer.forward(x), x)
    np.testing.assert_allclose(layer.backward(x), x)


def test_flatten_and_backward_restores_shape(rng):
    layer = Flatten()
    x = rng.normal(size=(2, 3, 4, 4))
    out = layer.forward(x)
    assert out.shape == (2, 48)
    assert layer.backward(out).shape == x.shape


def test_avgpool_averages_blocks():
    layer = AvgPool2d(2)
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    out = layer.forward(x)
    np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])


def test_avgpool_gradient(rng):
    layer = AvgPool2d(2)
    check_input_gradient(layer, rng.normal(size=(2, 2, 4, 4)))


def test_avgpool_rejects_nondivisible_size(rng):
    layer = AvgPool2d(3)
    with pytest.raises(ValueError):
        layer.forward(rng.normal(size=(1, 1, 4, 4)))


def test_maxpool_takes_block_maximum():
    layer = MaxPool2d(2)
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    out = layer.forward(x)
    np.testing.assert_allclose(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])


def test_maxpool_gradient_flows_only_to_maxima(rng):
    layer = MaxPool2d(2)
    x = rng.normal(size=(2, 2, 4, 4))
    check_input_gradient(layer, x)


def test_maxpool_tie_breaking_gives_each_window_unit_gradient():
    layer = MaxPool2d(2)
    x = np.ones((1, 1, 2, 2))
    layer.forward(x)
    grad = layer.backward(np.ones((1, 1, 1, 1)))
    assert grad.sum() == 1.0


def test_global_avgpool_shape_and_gradient(rng):
    layer = GlobalAvgPool2d()
    x = rng.normal(size=(2, 3, 4, 4))
    out = layer.forward(x)
    assert out.shape == (2, 3)
    np.testing.assert_allclose(out, x.mean(axis=(2, 3)))
    check_input_gradient(layer, x)


def test_dropout_is_identity_in_eval_mode(rng):
    layer = Dropout(0.5, rng=rng)
    layer.eval()
    x = rng.normal(size=(4, 4))
    np.testing.assert_allclose(layer.forward(x), x)


def test_dropout_scales_kept_activations(rng):
    layer = Dropout(0.5, rng=np.random.default_rng(0))
    x = np.ones((1000,))
    out = layer.forward(x)
    kept = out[out != 0]
    np.testing.assert_allclose(kept, 2.0)
    assert 0.3 < (out != 0).mean() < 0.7


def test_dropout_backward_uses_same_mask(rng):
    layer = Dropout(0.5, rng=np.random.default_rng(0))
    x = np.ones((100,))
    out = layer.forward(x)
    grad = layer.backward(np.ones_like(x))
    np.testing.assert_allclose((grad != 0), (out != 0))
