"""Neural-network layers used by the paper's shift + pointwise CNNs.

All 2-D activations use NCHW layout: ``(batch, channels, height, width)``.
The only learned convolution is the pointwise (1x1) convolution; spatial
mixing happens through the parameter-free :class:`Shift2d` operation, so
every convolutional layer reduces to a filter *matrix* of shape
``(out_channels, in_channels)`` — exactly the matrix that column combining
packs.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class Dense(Module):
    """Fully connected layer: ``y = x @ W.T + b`` with ``W`` of shape (out, in)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None, name: str = "dense"):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_normal((out_features, in_features), in_features, rng),
            name=f"{name}.weight",
        )
        self.bias = Parameter(init.zeros((out_features,)), name=f"{name}.bias") if bias else None
        self._cache_x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        self._cache_x = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._cache_x
        if x is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += grad_output.T @ x
        if self.weight.mask is not None:
            self.weight.grad *= self.weight.mask
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data


class PointwiseConv2d(Module):
    """1x1 convolution over NCHW input; weight is the (N, M) filter matrix.

    This is the layer the column-combining algorithm operates on: its
    ``weight`` parameter *is* the filter matrix of Figure 1b (each output
    channel is a row, each input channel a column).
    """

    def __init__(self, in_channels: int, out_channels: int, bias: bool = False,
                 rng: np.random.Generator | None = None, name: str = "pointwise"):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("in_channels and out_channels must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels), in_channels, rng),
            name=f"{name}.weight",
        )
        self.bias = Parameter(init.zeros((out_channels,)), name=f"{name}.bias") if bias else None
        self._cache_x: np.ndarray | None = None

    def check_input(self, x: np.ndarray) -> None:
        """Validate an NCHW activation batch for this layer.

        Shared by :meth:`forward` and the packed-inference substitutes
        (:mod:`repro.combining.inference`), so every path that stands in
        for this layer rejects malformed inputs identically.
        """
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"PointwiseConv2d expected (batch, {self.in_channels}, H, W), got {x.shape}"
            )

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.check_input(x)
        self._cache_x = x
        # (B, C, H, W) -> einsum over channel dimension.
        out = np.einsum("nc,bchw->bnhw", self.weight.data, x, optimize=True)
        if self.bias is not None:
            out = out + self.bias.data[None, :, None, None]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._cache_x
        if x is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += np.einsum("bnhw,bchw->nc", grad_output, x, optimize=True)
        if self.weight.mask is not None:
            self.weight.grad *= self.weight.mask
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=(0, 2, 3))
        return np.einsum("nc,bnhw->bchw", self.weight.data, grad_output, optimize=True)


#: The nine shift directions of shift convolution (dy, dx), centre included.
SHIFT_DIRECTIONS: tuple[tuple[int, int], ...] = (
    (0, 0),
    (-1, 0), (1, 0), (0, -1), (0, 1),
    (-1, -1), (-1, 1), (1, -1), (1, 1),
)


def assign_directions(channels: int) -> np.ndarray:
    """Spread ``channels`` over the nine directions: channel ``c`` takes
    direction ``c % 9``."""
    return np.arange(channels) % len(SHIFT_DIRECTIONS)


def shift_groups(assignment: np.ndarray
                 ) -> tuple[tuple[slice | np.ndarray, int, int], ...]:
    """Precompile a per-channel direction assignment into grouped copies.

    Returns one ``(channels, dy, dx)`` entry per direction that has
    channels, where ``channels`` selects them along axis 1: strided
    slices ``d::9`` for the :func:`assign_directions` layout, index arrays
    for any other assignment.  Raises ``ValueError`` unless ``assignment``
    is a 1-D integer array of direction indices.
    """
    assignment = np.asarray(assignment)
    directions = len(SHIFT_DIRECTIONS)
    if assignment.ndim != 1 or not np.issubdtype(assignment.dtype, np.integer):
        raise ValueError(
            f"shift assignment must be a 1-D integer array, got dtype "
            f"{assignment.dtype} and shape {assignment.shape}")
    if assignment.size and not (0 <= assignment.min()
                                and assignment.max() < directions):
        raise ValueError(
            f"shift assignment values must lie in range({directions}), got "
            f"{int(assignment.min())}..{int(assignment.max())}")
    if np.array_equal(assignment, assign_directions(assignment.size)):
        return tuple((slice(direction, None, directions), dy, dx)
                     for direction, (dy, dx)
                     in enumerate(SHIFT_DIRECTIONS[:assignment.size]))
    groups = ((np.flatnonzero(assignment == direction), dy, dx)
              for direction, (dy, dx) in enumerate(SHIFT_DIRECTIONS))
    return tuple(group for group in groups if group[0].size)


@functools.lru_cache(maxsize=1024)
def _shift_windows(dy: int, dx: int, h: int,
                   w: int) -> tuple[slice, slice, slice, slice]:
    """``(dst_y, dst_x, src_y, src_x)`` of a (dy, dx) shift of an H x W map."""
    return (slice(max(0, dy), min(h, h + dy)), slice(max(0, dx), min(w, w + dx)),
            slice(max(0, -dy), min(h, h - dy)), slice(max(0, -dx), min(w, w - dx)))


def shift_channels(x: np.ndarray, groups: tuple,
                   inverse: bool = False) -> np.ndarray:
    """Shift each channel of an NCHW array by its direction, zero-filled.

    ``groups`` comes from :func:`shift_groups`; each direction's channels
    move together in one copy, so a shift is at most nine copies into one
    zeroed output.  ``inverse=True`` shifts the opposite way (the adjoint,
    used for gradients).
    """
    out = np.zeros_like(x)
    h, w = x.shape[-2], x.shape[-1]
    for channels, dy, dx in groups:
        if inverse:
            dy, dx = -dy, -dx
        dst_y, dst_x, src_y, src_x = _shift_windows(dy, dx, h, w)
        out[:, channels, dst_y, dst_x] = x[:, channels, src_y, src_x]
    return out


class Shift2d(Module):
    """Parameter-free per-channel spatial shift (Wu et al., 2017).

    Channels are divided as evenly as possible among the nine directions in
    :data:`SHIFT_DIRECTIONS`.  Pixels shifted in from outside the image are
    zero.  The direction groups are precompiled once, so a shift is at most
    nine strided copies (:func:`shift_channels`).  The backward pass applies
    the inverse shift to the gradient.
    """

    def __init__(self, channels: int):
        super().__init__()
        if channels <= 0:
            raise ValueError("channels must be positive")
        self.channels = channels
        self.assignment = assign_directions(channels)
        self.groups = shift_groups(self.assignment)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ValueError(
                f"Shift2d expected (batch, {self.channels}, H, W), got {x.shape}"
            )
        return shift_channels(x, self.groups)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return shift_channels(grad_output, self.groups, inverse=True)


class ShiftConv2d(Module):
    """Shift followed by pointwise convolution (Figure 2, "Shift Convolution").

    The learned weights live entirely in ``self.pointwise.weight``, which is
    the filter matrix that column combining packs.  ``stride`` > 1 subsamples
    the spatial grid after the pointwise convolution, matching how strided
    shift convolutions are realised in the paper's network variants.
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 bias: bool = False, rng: np.random.Generator | None = None,
                 name: str = "shiftconv"):
        super().__init__()
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.shift = Shift2d(in_channels)
        self.pointwise = PointwiseConv2d(in_channels, out_channels, bias=bias,
                                         rng=rng, name=f"{name}.pointwise")
        self.stride = stride
        self._cache_shape: tuple[int, ...] | None = None

    @property
    def weight(self) -> Parameter:
        """The (out_channels, in_channels) filter matrix."""
        return self.pointwise.weight

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.pointwise.forward(self.shift.forward(x))
        self._cache_shape = out.shape
        if self.stride > 1:
            out = out[:, :, :: self.stride, :: self.stride]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self.stride > 1:
            if self._cache_shape is None:
                raise RuntimeError("backward called before forward")
            full = np.zeros(self._cache_shape, dtype=grad_output.dtype)
            full[:, :, :: self.stride, :: self.stride] = grad_output
            grad_output = full
        return self.shift.backward(self.pointwise.backward(grad_output))


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rectified linear unit, bit for bit the select it replaced: ``x``
    where ``x > 0``, else ``+0.0``.

    ``np.fmax`` ignores a quiet NaN operand, so NaN (either sign, any
    payload) maps to zero, as the ``x > 0`` test does; ``-inf`` and
    negative values map to zero and ``+inf`` and positive denormals pass
    through.  ``fmax`` may return either zero for ``fmax(-0.0, 0.0)``,
    depending on which loop numpy picks, so ``+= 0.0`` turns a ``-0.0``
    into ``+0.0`` and leaves every other value unchanged.  Two passes and
    one allocation, against the mask, broadcast and select of
    ``np.where``: several times faster.  (A *signalling* NaN may come out
    of fmax's scalar loop as a quiet NaN; no arithmetic produces one, and
    every ReLU in the models follows a batch norm or a dense layer.)

    ``out`` may be ``x`` itself, but only for an array the caller
    allocated in the same call: an op or layer writes in place only into
    its own fresh arrays, never into its input or a cached tensor.
    """
    out = np.fmax(x, 0.0, out=out)
    out += 0.0
    return out


class BatchNorm2d(Module):
    """Batch normalization over the channel dimension of NCHW tensors.

    Training statistics are computed the way ``np.mean`` and ``np.var``
    compute them internally (``add.reduce`` over ``(0, 2, 3)``, divided by
    the count; the variance from the centred squares), and backward keeps
    the ufuncs, operand order and reduction axes of the textbook
    expressions, so the bits are those of the plain multi-pass forms.
    The passes write with ``out=`` or in place into arrays this call
    allocated itself; the input, ``grad_output`` and the cached ``x_hat``
    are never written (a residual block feeds one ``grad_output`` to both
    of its branches).  The bit identity is for float64 activations, the
    dtype every layer that feeds a batch norm produces; other input
    dtypes may promote or round differently from the multi-pass forms.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5,
                 name: str = "bn"):
        super().__init__()
        if channels <= 0:
            raise ValueError("channels must be positive")
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((channels,)), name=f"{name}.gamma")
        self.beta = Parameter(init.zeros((channels,)), name=f"{name}.beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ValueError(
                f"BatchNorm2d expected (batch, {self.channels}, H, W), got {x.shape}"
            )
        if self.training:
            count = x.shape[0] * x.shape[2] * x.shape[3]
            mean4 = np.add.reduce(x, axis=(0, 2, 3), keepdims=True)
            mean4 /= count
            # Centred once: squared for the variance, then scaled in place.
            x_hat = x - mean4
            out = np.square(x_hat)
            var4 = np.add.reduce(out, axis=(0, 2, 3), keepdims=True)
            var4 /= count
            mean, var = mean4.reshape(-1), var4.reshape(-1)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean, var = self.running_mean, self.running_var
            x_hat = x - mean[None, :, None, None]
            out = None
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std[None, :, None, None]
        self._cache = (x_hat, inv_std, x.shape)
        out = np.multiply(self.gamma.data[None, :, None, None], x_hat, out=out)
        out += self.beta.data[None, :, None, None]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, shape = self._cache
        batch, _, height, width = shape
        count = batch * height * width
        scratch = np.multiply(grad_output, x_hat)
        self.gamma.grad += scratch.sum(axis=(0, 2, 3))
        self.beta.grad += grad_output.sum(axis=(0, 2, 3))
        dxhat = np.multiply(grad_output, self.gamma.data[None, :, None, None])
        if self.training:
            # dxhat - sum(dxhat) / count - x_hat * sum(dxhat * x_hat) / count
            sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
            np.multiply(dxhat, x_hat, out=scratch)
            sum_dxhat_xhat = scratch.sum(axis=(0, 2, 3), keepdims=True)
            np.multiply(x_hat, sum_dxhat_xhat, out=scratch)
            scratch /= count
            dxhat -= sum_dxhat / count
            dxhat -= scratch
        dxhat *= inv_std[None, :, None, None]
        return dxhat


class ReLU(Module):
    """Rectified linear activation (:func:`relu`); keeps the ``x > 0`` mask
    for backward and never writes into its input."""

    def __init__(self) -> None:
        super().__init__()
        self._cache_positive: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache_positive = x > 0
        return relu(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_positive is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._cache_positive


class Identity(Module):
    """Pass-through module (used for residual shortcuts)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output


class Flatten(Module):
    """Flatten all dimensions except the batch dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._cache_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._cache_shape)


class AvgPool2d(Module):
    """Non-overlapping average pooling with ``kernel == stride``."""

    def __init__(self, kernel: int):
        super().__init__()
        if kernel < 1:
            raise ValueError("kernel must be >= 1")
        self.kernel = kernel
        self._cache_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel
        batch, channels, height, width = x.shape
        if height % k or width % k:
            raise ValueError(f"spatial dims {height}x{width} not divisible by kernel {k}")
        self._cache_shape = x.shape
        return x.reshape(batch, channels, height // k, k, width // k, k).mean(axis=(3, 5))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_shape is None:
            raise RuntimeError("backward called before forward")
        k = self.kernel
        grad = np.repeat(np.repeat(grad_output, k, axis=2), k, axis=3) / (k * k)
        return grad.reshape(self._cache_shape)


class MaxPool2d(Module):
    """Non-overlapping max pooling with ``kernel == stride``."""

    def __init__(self, kernel: int):
        super().__init__()
        if kernel < 1:
            raise ValueError("kernel must be >= 1")
        self.kernel = kernel
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel
        batch, channels, height, width = x.shape
        if height % k or width % k:
            raise ValueError(f"spatial dims {height}x{width} not divisible by kernel {k}")
        windows = x.reshape(batch, channels, height // k, k, width // k, k)
        out = windows.max(axis=(3, 5))
        mask = windows == out[:, :, :, None, :, None]
        # Break ties so each window contributes gradient exactly once.  The
        # window axes (3 and 5) must be adjacent before flattening them.
        flat = mask.transpose(0, 1, 2, 4, 3, 5).reshape(
            batch, channels, height // k, width // k, k * k)
        first = np.argmax(flat, axis=-1)
        unique_flat = np.zeros_like(flat)
        np.put_along_axis(unique_flat, first[..., None], 1, axis=-1)
        unique_mask = unique_flat.reshape(
            batch, channels, height // k, width // k, k, k
        ).transpose(0, 1, 2, 4, 3, 5).astype(x.dtype)
        self._cache = (unique_mask, x.shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        mask, shape = self._cache
        grad = mask * grad_output[:, :, :, None, :, None]
        return grad.reshape(shape)


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent, producing (batch, channels)."""

    def __init__(self) -> None:
        super().__init__()
        self._cache_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_shape is None:
            raise RuntimeError("backward called before forward")
        _, _, height, width = self._cache_shape
        grad = grad_output[:, :, None, None] / (height * width)
        return np.broadcast_to(grad, self._cache_shape).copy()


class Dropout(Module):
    """Inverted dropout; a no-op in evaluation mode."""

    def __init__(self, rate: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._cache_mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._cache_mask = None
            return x
        keep = 1.0 - self.rate
        self._cache_mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._cache_mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_mask is None:
            return grad_output
        return grad_output * self._cache_mask
