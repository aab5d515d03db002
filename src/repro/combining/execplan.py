"""Execution plans: the one forward engine of packed inference.

An :class:`ExecutionPlan` is a read-only, picklable op tree compiled from a
:class:`~repro.combining.inference.PackedModel` (or its quantized twin)
that owns private copies of everything a forward needs — packed filter
matrices and channel routing, dense/batch-norm/shift parameters, frozen
calibration scales.  Every packed forward in the library runs on one:
:meth:`PackedModel.forward` and
:meth:`~repro.combining.quantized.QuantizedPackedModel.forward` compile a
plan from the live model per call, and serving compiles (or loads) one
per artifact.  Running a plan never touches the source model, so any
number of threads or processes can call :meth:`ExecutionPlan.forward`
concurrently, without locks.

Numerics contract
-----------------

The three meanings of a packed layer are each pinned against an oracle
that does not use the plan (``tests/test_combining_plan.py``):

* ``mode="exact"`` without ``batch_invariant`` is **bit-identical** to the
  nn model's own dense forward over the conflict-pruned weights
  (:meth:`~repro.combining.packing.PackedFilterMatrix.to_sparse`): each op
  repeats the arithmetic — einsum ``optimize`` flags, reduction orders,
  validation messages — of the module it replaces.
* ``mode="mx"`` runs the MX-cell routing and matches that dense forward
  up to float summation order.
* ``mode="quantized"`` runs each packed layer as **one exact integer
  GEMM**: the input is quantized once with the frozen input quantizer,
  multiplied by the layer's dense integer weights (the frozen weight
  quantizer's integers, built once per op) in a single float64 matmul,
  and dequantized by ``acc * (input_scale * weight_scale)``.  It is
  **bit-identical** to running every packed layer of the nn model through
  :meth:`~repro.systolic.system.SystolicSystem.run_layer`, the tiled
  datapath model, with the same quantizers.  The reason: the operands are
  integer-valued float64 with ``|w|, |x| <= 2^(bits-1)``, so while
  ``2^(2*bits-2) * in_channels < 2^53`` (checked when the plan is built)
  every partial sum is an exact integer, and any summation order — tiled
  or not, batched or not — gives the same bits.  Quantized packed layers
  are therefore batch-invariant with or without ``batch_invariant``.

``batch_invariant=True`` swaps every weight-bearing op for the
batch-invariant kernels of :mod:`repro.combining.kernels`, so a sample's
output bits never depend on the batch it rides in.

Batch norm, ReLU and the residual add keep the ufuncs and operand order
of the nn modules they replace (ReLU is :func:`~repro.nn.layers.relu`,
``fmax`` then ``+= 0.0``, with the bits of the ``x > 0`` select it
replaced), and an op writes in place only into arrays it allocated in
the same call, never into its input.

Plans are also the serving-side unit of residency: they pickle cleanly
into worker processes (:mod:`repro.serving.procpool`) and deserialize
straight out of V2 packed artifacts without reconstructing the nn model
(:func:`repro.combining.serialization.load_plan`), via the manifest
helpers :func:`manifest_from_plan` / :func:`plan_from_manifest`.

Usage::

    packed = PackedModel.from_model(model, PipelineConfig(alpha=8, gamma=0.5))
    plan = packed.compile_plan()
    outputs = plan.forward(images, batch_invariant=True)   # no locks needed
    assert np.array_equal(outputs, packed.forward(images, batch_invariant=True))
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Callable, Sequence

import numpy as np

from repro.combining.kernels import invariant_conv_pointwise, invariant_matmul
from repro.combining.packing import PackedFilterMatrix
from repro.models.lenet import LeNet5
from repro.models.resnet import BasicBlock, ResNet20, _StridedPointwiseShortcut
from repro.models.vgg import VGG
from repro.nn.layers import (
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
    relu,
    shift_channels,
    shift_groups,
)
from repro.nn.module import Module, Sequential
from repro.quant.linear import LinearQuantizer
from repro.systolic.array import ArrayConfig
from repro.systolic.system import ModelExecutionPlan, layer_execution
from repro.systolic.tiles import TileGeometry, tile_geometry
from repro.systolic.timing import words_per_sample

#: Forward modes an :class:`ExecutionPlan` can support — the one
#: declaration every mode check derives from.  ``"quantized"`` (last)
#: requires the plan to carry frozen calibration scales.
PLAN_MODES: tuple[str, ...] = ("exact", "mx", "quantized")


class _Ctx:
    """Per-forward execution context threaded through the op tree.

    Holds the knobs every op dispatches on (``mode``,
    ``batch_invariant``) and the optional per-layer :class:`_LayerTap`.
    One ``_Ctx`` is built per ``forward`` call, so
    concurrent forwards on one plan never share mutable state.
    """

    __slots__ = ("mode", "batch_invariant", "tap")

    def __init__(self, mode: str, batch_invariant: bool,
                 tap: _LayerTap | None):
        self.mode = mode
        self.batch_invariant = batch_invariant
        self.tap = tap


class _LayerTap:
    """Observer of every packed-layer op a forward applies.

    :meth:`PackedLayerOp.apply` calls :meth:`record` once per layer and
    batch chunk with the layer's input, its output before (``raw``) and
    after (``out``) the bias, the ``info`` dict of a quantized layer
    (``input_saturation``, as
    :meth:`~repro.systolic.system.SystolicSystem.run_layer` reports it;
    ``None`` in the float modes) and the layer's wall time in integer
    nanoseconds.  This base tap fills :meth:`ExecutionPlan.forward`'s
    ``observed`` spatial sizes and ``profile`` nanoseconds (exact
    accumulation across chunks and merges — see :mod:`repro.obs.metrics`);
    :class:`~repro.combining.quantized.QuantizedPackedModel` extends it to
    capture calibration inputs, layer statistics and layer outputs.  A
    tap only reads: a tapped forward returns the same bits as an untapped
    one.
    """

    def __init__(self, observed: dict[str, tuple[int, int]] | None = None,
                 profile: dict[str, int] | None = None):
        self.observed = observed
        self.profile = profile

    def record(self, op: PackedLayerOp, x: np.ndarray, raw: np.ndarray,
               out: np.ndarray, info: dict | None, elapsed_ns: int) -> None:
        if self.observed is not None:
            self.observed[op.name] = (x.shape[2], x.shape[3])
        if self.profile is not None:
            self.profile[op.name] = self.profile.get(op.name, 0) + elapsed_ns


def _frozen(array: np.ndarray) -> np.ndarray:
    """A private, read-only copy decoupled from the source model."""
    copy = np.ascontiguousarray(array).copy()
    copy.setflags(write=False)
    return copy


def ensure_sample_batch(activations: np.ndarray) -> tuple[np.ndarray, bool]:
    """Promote a single ``(C, H, W)`` sample to a one-sample NCHW batch.

    Returns ``(batch, unbatched)`` where ``unbatched`` records whether the
    input was a bare sample (so callers can squeeze their result back).
    Anything already 4-D passes through untouched; other ranks raise the
    usual batching error downstream.
    """
    activations = np.asarray(activations, dtype=np.float64)
    if activations.ndim == 3:
        return activations[None, ...], True
    return activations, False


def split_activation_batch(activations: np.ndarray,
                           batch_size: int | None = None) -> list[np.ndarray]:
    """Validate an NCHW batch and split it into forward-sized chunks.

    The single home of the batching contract of :meth:`ExecutionPlan.forward`
    (and so of every packed model's forward): ``batch_size=None`` (or a
    size covering the batch) yields one chunk, otherwise consecutive
    slices of at most ``batch_size`` samples.
    """
    activations = np.asarray(activations, dtype=np.float64)
    if activations.ndim != 4:
        raise ValueError("activations must be (batch, channels, H, W)")
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    total = activations.shape[0]
    if batch_size is None or total <= batch_size:
        return [activations]
    return [activations[start:start + batch_size]
            for start in range(0, total, batch_size)]


# -- ops ----------------------------------------------------------------------
class SequenceOp:
    """Run child ops in order (the plan twin of :class:`Sequential`)."""

    def __init__(self, ops: tuple):
        self.ops = tuple(ops)

    def apply(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        for op in self.ops:
            x = op.apply(x, ctx)
        return x


class ResidualOp:
    """Residual block: ``relu(main(x) + shortcut(x))`` (identity shortcut
    when ``shortcut`` is ``None``), matching :meth:`BasicBlock.forward`.

    The ReLU runs in place on the sum, an array this call allocated; the
    input and the branch outputs are never written.
    """

    def __init__(self, main: SequenceOp, shortcut: Any | None):
        self.main = main
        self.shortcut = shortcut

    def apply(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        out = self.main.apply(x, ctx)
        residual = self.shortcut.apply(x, ctx) if self.shortcut is not None else x
        total = out + residual
        return relu(total, out=total)


class PackedLayerOp:
    """One packed pointwise layer, executed per the context's mode.

    Owns a private :class:`~repro.combining.packing.PackedFilterMatrix`
    (weights and routing read-only) plus the optional bias and — on
    quantized plans — the layer's frozen quantizer pair.  The dense
    realization for exact mode starts as the compiled spec's cached
    :meth:`~repro.combining.inference.PackedLayerSpec.realized` (plans
    loaded from artifacts realize lazily); quantized mode's integer
    realization (:meth:`integer_realized`) and the tile geometry the
    systolic accounting reads (:meth:`geometry`) are always built lazily,
    once.  The benign race of two threads realizing concurrently produces
    identical results.
    """

    def __init__(self, name: str, packed: PackedFilterMatrix,
                 bias: np.ndarray | None, in_channels: int,
                 input_quantizer: LinearQuantizer | None = None,
                 weight_quantizer: LinearQuantizer | None = None):
        self.name = name
        self.packed = packed
        self.bias = bias
        self.in_channels = in_channels
        self.input_quantizer = input_quantizer
        self.weight_quantizer = weight_quantizer
        self._realized: np.ndarray | None = None
        self._integer: np.ndarray | None = None
        self._tiles: tuple[TileGeometry, ...] | None = None

    def realized(self) -> np.ndarray:
        dense = self._realized
        if dense is None:
            dense = self.packed.to_sparse()
            dense.setflags(write=False)
            self._realized = dense
        return dense

    def integer_realized(self) -> np.ndarray:
        """Quantized mode's frozen layer: the frozen weight quantizer's
        integers (as float64) scattered into the (N, M) filter matrix the
        way :meth:`~repro.combining.packing.PackedFilterMatrix.to_sparse`
        scatters the float weights."""
        dense_int = self._integer
        if dense_int is None:
            packed = self.packed
            assert self.weight_quantizer is not None
            dense_int = PackedFilterMatrix(
                weights=self.weight_quantizer.quantize(
                    packed.weights).astype(np.float64),
                channel_index=packed.channel_index,
                grouping=packed.grouping,
                original_shape=packed.original_shape).to_sparse()
            dense_int.setflags(write=False)
            self._integer = dense_int
        return dense_int

    def geometry(self, config: ArrayConfig) -> tuple[TileGeometry, ...]:
        """The packed matrix's tile geometry on ``config``'s array, the
        source of every batch's systolic cost.  An op belongs to one plan,
        so ``config`` is always that plan's array and the first call's
        result is kept.  Cycles and tile counts read only tile shapes, so
        they are the same for the float and the integer weights."""
        tiles = self._tiles
        if tiles is None:
            tiles = tile_geometry(self.packed.weights, config)
            self._tiles = tiles
        return tiles

    def check_quantized(self, config: ArrayConfig) -> None:
        """Raise ``ValueError`` naming this layer unless quantized mode
        can run it on ``config``'s array, exactly.

        The quantizers must match the cells' bit width and the packing
        the MX multiplexing degree (the checks
        :meth:`~repro.systolic.system.SystolicSystem.run_layer` makes per
        call).  Exactness: with ``|w|, |x| <= 2^(bits-1)`` every partial
        sum of the integer GEMM stays below ``2^(2*bits-2) * in_channels``,
        and float64 holds every integer below ``2^53``.
        """
        for role, quantizer in (("input", self.input_quantizer),
                                ("weight", self.weight_quantizer)):
            if quantizer is None:
                raise ValueError(
                    f"layer {self.name!r} has no frozen {role} quantizer")
            if quantizer.bits != config.input_bits:
                raise ValueError(
                    f"layer {self.name!r}: {role} quantizer is "
                    f"{quantizer.bits}-bit but the array's cells are "
                    f"{config.input_bits}-bit")
        degree = self.packed.multiplexing_degree()
        if degree > config.alpha:
            raise ValueError(
                f"layer {self.name!r}: packing multiplexes {degree} channels "
                f"per cell, beyond the array's MX degree {config.alpha}")
        exponent = self.input_quantizer.bits + self.weight_quantizer.bits - 2
        if 2 ** exponent * self.in_channels >= 2 ** 53:
            raise ValueError(
                f"layer {self.name!r}: sums of {self.in_channels} products "
                f"of magnitude up to 2^{exponent} can leave float64's exact "
                "integer range (below 2^53)")

    def apply(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"PointwiseConv2d expected (batch, {self.in_channels}, H, W), "
                f"got {x.shape}")
        started = perf_counter_ns()
        info = None
        if ctx.mode == "quantized":
            raw, saturation = self._apply_integer(x)
            info = {"input_saturation": saturation}
        elif ctx.mode == "mx":
            raw = self.packed.multiply_activations(x)
        elif ctx.batch_invariant:
            raw = invariant_conv_pointwise(x, self.realized())
        else:
            raw = np.einsum("nc,bchw->bnhw", self.realized(), x, optimize=True)
        out = raw if self.bias is None else raw + self.bias[None, :, None, None]
        if ctx.tap is not None:
            ctx.tap.record(self, x, raw, out, info, perf_counter_ns() - started)
        return out

    def _apply_integer(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Quantized mode: one exact integer GEMM (see the module docstring).

        The plan's shift op already moved the pixels (bit-exact with the
        hardware ShiftBlock); the layer starts at quantizing.  Returns the
        output and the input quantizer's saturation rate on ``x``.
        """
        assert self.input_quantizer is not None
        assert self.weight_quantizer is not None
        batch, channels, height, width = x.shape
        data = x.transpose(1, 0, 2, 3).reshape(channels, -1)
        data_int, saturation = self.input_quantizer.quantize_with_saturation(data)
        acc = self.integer_realized() @ data_int.astype(np.float64)
        acc *= self.input_quantizer.scale * self.weight_quantizer.scale
        raw = acc.reshape(-1, batch, height, width).transpose(1, 0, 2, 3)
        return raw, saturation

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # Realizations and geometry are rebuilt lazily after unpickling.
        state["_realized"] = None
        state["_integer"] = None
        state["_tiles"] = None
        return state


class PointwiseOp:
    """A non-packed 1x1 convolution (einsum BLAS / shape-stable twins)."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None,
                 in_channels: int):
        self.weight = weight
        self.bias = bias
        self.in_channels = in_channels

    def apply(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"PointwiseConv2d expected (batch, {self.in_channels}, H, W), "
                f"got {x.shape}")
        if ctx.batch_invariant:
            out = invariant_conv_pointwise(x, self.weight)
        else:
            out = np.einsum("nc,bchw->bnhw", self.weight, x, optimize=True)
        if self.bias is not None:
            out = out + self.bias[None, :, None, None]
        return out


class DenseOp:
    """Fully connected layer (BLAS matmul / batch-invariant blocked twin)."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None,
                 in_features: int):
        self.weight = weight
        self.bias = bias
        self.in_features = in_features

    def apply(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected input of shape (batch, {self.in_features}), "
                f"got {x.shape}")
        if ctx.batch_invariant:
            out = invariant_matmul(x, self.weight)
        else:
            out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class ShiftOp:
    """Parameter-free per-channel spatial shift (:class:`Shift2d` twin).

    The direction groups are precompiled at construction (which unpickling
    and manifest loading go through too), so a shift is at most nine
    strided copies (:func:`~repro.nn.layers.shift_channels`).  An
    assignment of the wrong length or with a direction outside
    :data:`~repro.nn.layers.SHIFT_DIRECTIONS` raises ``ValueError`` here,
    not at forward.
    """

    def __init__(self, assignment: np.ndarray, channels: int):
        self.groups = shift_groups(assignment)
        if len(assignment) != channels:
            raise ValueError(
                f"shift assignment holds {len(assignment)} directions for "
                f"{channels} channels")
        self.assignment = assignment
        self.channels = channels

    def __reduce__(self) -> tuple:
        return ShiftOp, (self.assignment, self.channels)

    def apply(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ValueError(
                f"Shift2d expected (batch, {self.channels}, H, W), got {x.shape}")
        return shift_channels(x, self.groups)


class BatchNormOp:
    """Eval-mode batch norm over frozen running statistics.

    ``inv_std`` and the NCHW broadcast views are computed once here.  The
    forward runs :class:`BatchNorm2d`'s eval expression, ``gamma * ((x -
    mean) * inv_std) + beta``, with the same ufuncs in the same order, so
    the bits match it; every pass after the first writes in place into
    the one array the first allocated (never into ``x``).
    """

    def __init__(self, mean: np.ndarray, var: np.ndarray, gamma: np.ndarray,
                 beta: np.ndarray, eps: float, channels: int):
        self.mean = mean
        self.var = var
        self.gamma = gamma
        self.beta = beta
        self.eps = eps
        self.channels = channels
        inv_std = 1.0 / np.sqrt(var + eps)
        inv_std.setflags(write=False)
        self._mean4 = mean[None, :, None, None]
        self._inv_std4 = inv_std[None, :, None, None]
        self._gamma4 = gamma[None, :, None, None]
        self._beta4 = beta[None, :, None, None]

    def __reduce__(self) -> tuple:
        return BatchNormOp, (self.mean, self.var, self.gamma, self.beta,
                             self.eps, self.channels)

    def apply(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ValueError(
                f"BatchNorm2d expected (batch, {self.channels}, H, W), "
                f"got {x.shape}")
        out = x - self._mean4
        out *= self._inv_std4
        np.multiply(self._gamma4, out, out=out)
        out += self._beta4
        return out


class ReluOp:
    """:class:`ReLU` twin: :func:`~repro.nn.layers.relu` into a fresh
    array (``x`` may be a read-only or shared tensor)."""

    def apply(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        return relu(x)


class IdentityOp:
    def apply(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        return x


class FlattenOp:
    def apply(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


class AvgPoolOp:
    def __init__(self, kernel: int):
        self.kernel = kernel

    def apply(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        k = self.kernel
        batch, channels, height, width = x.shape
        if height % k or width % k:
            raise ValueError(
                f"spatial dims {height}x{width} not divisible by kernel {k}")
        return x.reshape(batch, channels, height // k, k, width // k, k).mean(axis=(3, 5))


class MaxPoolOp:
    def __init__(self, kernel: int):
        self.kernel = kernel

    def apply(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        k = self.kernel
        batch, channels, height, width = x.shape
        if height % k or width % k:
            raise ValueError(
                f"spatial dims {height}x{width} not divisible by kernel {k}")
        windows = x.reshape(batch, channels, height // k, k, width // k, k)
        return windows.max(axis=(3, 5))


class GlobalAvgPoolOp:
    def apply(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        return x.mean(axis=(2, 3))


class StrideOp:
    """Spatial subsampling after a strided shift convolution / shortcut."""

    def __init__(self, stride: int):
        self.stride = stride

    def apply(self, x: np.ndarray, ctx: _Ctx) -> np.ndarray:
        return x[:, :, :: self.stride, :: self.stride]


# -- the plan -----------------------------------------------------------------
class ExecutionPlan:
    """A compiled, immutable, picklable forward pass over packed layers.

    Treat instances as read-only: every array is a private copy (or a
    read-only artifact view) and nothing in :meth:`forward` writes
    instance state (beyond filling the ops' lazy realization caches),
    which is what makes one plan safe to share across threads and cheap
    to ship to worker processes.  ``array_config`` is the systolic array
    the plan is costed on (default: ``array_rows`` x ``array_cols`` with
    the packing's MX degree, and ``bits``-bit cells if set).  ``bits`` is
    set for quantized-capable plans, whose array is configured like the
    :class:`~repro.combining.quantized.QuantizedPackedModel` they came
    from, so quantized outputs and cycle accounting match it exactly.
    Building one checks every packed layer's quantizers against that
    configuration (:meth:`PackedLayerOp.check_quantized`), so a plan that
    builds runs every quantized layer exactly.
    """

    def __init__(self, root: Any, packed_ops: Sequence[PackedLayerOp],
                 kind: str, array_rows: int, array_cols: int,
                 pipeline_config: Any | None = None,
                 bits: int | None = None,
                 array_config: ArrayConfig | None = None):
        self.root = root
        self.packed_ops = tuple(packed_ops)
        self.kind = kind
        self.array_rows = array_rows
        self.array_cols = array_cols
        self.pipeline_config = pipeline_config
        self.bits = bits
        if array_config is None:
            array_config = ArrayConfig(
                rows=array_rows, cols=array_cols,
                input_bits=ArrayConfig.input_bits if bits is None else bits,
                alpha=max(1, self.multiplexing_degree()))
        self.array_config = array_config
        if bits is not None:
            for op in self.packed_ops:
                op.check_quantized(array_config)

    # -- introspection -------------------------------------------------------
    @property
    def modes(self) -> tuple[str, ...]:
        """Forward modes this plan supports (frozen scales gate quantized)."""
        return PLAN_MODES if self.bits is not None else PLAN_MODES[:-1]

    @property
    def num_layers(self) -> int:
        return len(self.packed_ops)

    def layer_names(self) -> list[str]:
        return [op.name for op in self.packed_ops]

    def packed_layers(self) -> list[tuple[str, PackedFilterMatrix]]:
        """``(name, packed)`` pairs in layer order (the planners' shape)."""
        return [(op.name, op.packed) for op in self.packed_ops]

    def multiplexing_degree(self) -> int:
        degrees = [op.packed.multiplexing_degree() for op in self.packed_ops]
        return max(degrees) if degrees else 0

    # -- execution -----------------------------------------------------------
    def forward(self, activations: np.ndarray, mode: str = "exact",
                batch_size: int | None = None, batch_invariant: bool = False,
                observed: dict[str, tuple[int, int]] | None = None,
                profile: dict[str, int] | None = None) -> np.ndarray:
        """Run a batched forward pass.

        ``activations`` is an NCHW batch.  ``mode`` selects the packed
        computation (see the module docstring); ``"quantized"`` needs a
        quantized-capable plan.  ``batch_size`` optionally splits the
        batch into chunks whose outputs are concatenated; every layer is a
        per-sample computation, so chunking changes the result only
        through BLAS summation order.  ``batch_invariant=True`` runs every
        weight-bearing op through the blocked batch-invariant kernels (see
        :mod:`repro.combining.kernels`) so ``forward(x)[i:j] ==
        forward(x[i:j])`` exactly — the property :mod:`repro.serving`'s
        dynamic batcher relies on.

        Plans are immutable, so there is no instance-level spatial
        record: pass a dict as ``observed`` to collect each packed
        layer's (H, W) for :meth:`execution_plan`.  ``profile`` opts into
        per-layer wall-time accounting: pass a dict and each packed layer
        op accumulates its execution time into it, keyed by layer name,
        in **integer nanoseconds**.  Neither changes the returned bits,
        which the obs test suite pins per mode.
        """
        tap = (_LayerTap(observed, profile)
               if observed is not None or profile is not None else None)
        return self._run(activations, mode, batch_size, batch_invariant, tap)

    def _run(self, activations: np.ndarray, mode: str,
             batch_size: int | None, batch_invariant: bool,
             tap: _LayerTap | None) -> np.ndarray:
        """:meth:`forward` with an arbitrary tap (the package-private hook
        :class:`~repro.combining.quantized.QuantizedPackedModel` uses)."""
        if mode not in self.modes:
            raise ValueError(f"unknown forward mode {mode!r}; this plan "
                             f"supports {self.modes}")
        chunks = split_activation_batch(activations, batch_size)
        ctx = _Ctx(mode, batch_invariant, tap)
        outputs = [self.root.apply(chunk, ctx) for chunk in chunks]
        return outputs[0] if len(outputs) == 1 else np.concatenate(outputs, axis=0)

    def predict(self, activations: np.ndarray, mode: str = "exact",
                batch_size: int | None = None,
                batch_invariant: bool = False) -> np.ndarray:
        """Class predictions; accepts a bare ``(C, H, W)`` sample too."""
        batch, unbatched = ensure_sample_batch(activations)
        predictions = np.argmax(
            self.forward(batch, mode=mode, batch_size=batch_size,
                         batch_invariant=batch_invariant),
            axis=1)
        return predictions[0] if unbatched else predictions

    # -- cycle / tile accounting ---------------------------------------------
    def execution_plan(self, observed: dict[str, tuple[int, int]] | None = None,
                       batch: int = 1) -> ModelExecutionPlan:
        """Cost ``batch`` samples on the systolic timing model (stateless).

        The plan twin of :meth:`PackedModel.plan` /
        :meth:`QuantizedPackedModel.plan`: spatial sizes come from an
        ``observed`` map collected by :meth:`forward`, and each layer is
        costed from its tile geometry on the plan's own array
        (:meth:`PackedLayerOp.geometry`), so cycle totals are identical to
        the source model's ``plan()``.
        """
        if observed is None or any(op.name not in observed
                                   for op in self.packed_ops):
            raise RuntimeError(
                "no spatial sizes available; pass the observed map from "
                "forward(..., observed={})")
        config = self.array_config
        timing = config.timing
        layers = []
        for op in self.packed_ops:
            height, width = observed[op.name]
            if height != width:
                raise ValueError(
                    f"layer {op.name!r} saw a non-square {height}x{width} "
                    "activation map")
            layers.append(layer_execution(
                op.name, op.packed, op.geometry(config), height,
                words_per_sample(height, batch), timing))
        return ModelExecutionPlan(layers)


# -- compilation --------------------------------------------------------------
class _CompileState:
    """Per-compilation bookkeeping: packed ops by module identity."""

    def __init__(self) -> None:
        self.packed: dict[int, PackedLayerOp] = {}
        self.used: set[int] = set()


_MODULE_COMPILERS: dict[type, Callable[[Module, _CompileState], Any]] = {}


def register_plan_compiler(module_type: type):
    """Register a plan-compilation handler for a :class:`Module` subclass.

    The handler receives ``(module, state)`` and returns an op; lookup
    walks the module's MRO, so registering a base class covers subclasses
    without their own handler.  This is the extension point new model
    families plug into.
    """
    def decorator(handler: Callable[[Module, _CompileState], Any]):
        _MODULE_COMPILERS[module_type] = handler
        return handler
    return decorator


def _compile_module(module: Module, state: _CompileState) -> Any:
    for klass in type(module).__mro__:
        handler = _MODULE_COMPILERS.get(klass)
        if handler is not None:
            return handler(module, state)
    raise TypeError(
        f"no plan compiler registered for module type "
        f"{type(module).__name__}; register one with "
        "repro.combining.execplan.register_plan_compiler")


@register_plan_compiler(Sequential)
def _compile_sequential(module: Sequential, state: _CompileState) -> Any:
    return SequenceOp(tuple(_compile_module(child, state) for child in module))


@register_plan_compiler(Shift2d)
def _compile_shift(module: Shift2d, state: _CompileState) -> Any:
    return ShiftOp(_frozen(module.assignment), module.channels)


@register_plan_compiler(PointwiseConv2d)
def _compile_pointwise(module: PointwiseConv2d, state: _CompileState) -> Any:
    packed_op = state.packed.get(id(module))
    if packed_op is not None:
        state.used.add(id(module))
        return packed_op
    bias = None if module.bias is None else _frozen(module.bias.data)
    return PointwiseOp(_frozen(module.weight.data), bias, module.in_channels)


@register_plan_compiler(ShiftConv2d)
def _compile_shiftconv(module: ShiftConv2d, state: _CompileState) -> Any:
    ops = [_compile_module(module.shift, state),
           _compile_module(module.pointwise, state)]
    if module.stride > 1:
        ops.append(StrideOp(module.stride))
    return SequenceOp(tuple(ops))


@register_plan_compiler(_StridedPointwiseShortcut)
def _compile_shortcut(module: _StridedPointwiseShortcut,
                      state: _CompileState) -> Any:
    ops = [_compile_module(module.pointwise, state)]
    if module.stride > 1:
        ops.append(StrideOp(module.stride))
    return SequenceOp(tuple(ops))


@register_plan_compiler(Dense)
def _compile_dense(module: Dense, state: _CompileState) -> Any:
    bias = None if module.bias is None else _frozen(module.bias.data)
    return DenseOp(_frozen(module.weight.data), bias, module.in_features)


@register_plan_compiler(BatchNorm2d)
def _compile_batchnorm(module: BatchNorm2d, state: _CompileState) -> Any:
    return BatchNormOp(_frozen(module.running_mean), _frozen(module.running_var),
                       _frozen(module.gamma.data), _frozen(module.beta.data),
                       module.eps, module.channels)


@register_plan_compiler(ReLU)
def _compile_relu(module: ReLU, state: _CompileState) -> Any:
    return ReluOp()


@register_plan_compiler(Identity)
def _compile_identity(module: Identity, state: _CompileState) -> Any:
    return IdentityOp()


@register_plan_compiler(Dropout)
def _compile_dropout(module: Dropout, state: _CompileState) -> Any:
    return IdentityOp()  # plans execute eval-mode semantics


@register_plan_compiler(Flatten)
def _compile_flatten(module: Flatten, state: _CompileState) -> Any:
    return FlattenOp()


@register_plan_compiler(AvgPool2d)
def _compile_avgpool(module: AvgPool2d, state: _CompileState) -> Any:
    return AvgPoolOp(module.kernel)


@register_plan_compiler(MaxPool2d)
def _compile_maxpool(module: MaxPool2d, state: _CompileState) -> Any:
    return MaxPoolOp(module.kernel)


@register_plan_compiler(GlobalAvgPool2d)
def _compile_globalpool(module: GlobalAvgPool2d, state: _CompileState) -> Any:
    return GlobalAvgPoolOp()


@register_plan_compiler(BasicBlock)
def _compile_basic_block(module: BasicBlock, state: _CompileState) -> Any:
    main = SequenceOp((
        _compile_module(module.conv1, state),
        _compile_module(module.bn1, state),
        _compile_module(module.relu1, state),
        _compile_module(module.conv2, state),
        _compile_module(module.bn2, state),
    ))
    shortcut = (_compile_module(module.shortcut, state)
                if module.shortcut is not None else None)
    return ResidualOp(main, shortcut)


@register_plan_compiler(LeNet5)
def _compile_lenet(module: LeNet5, state: _CompileState) -> Any:
    return SequenceOp((_compile_module(module.features, state),
                       _compile_module(module.classifier, state)))


@register_plan_compiler(VGG)
def _compile_vgg(module: VGG, state: _CompileState) -> Any:
    return SequenceOp((_compile_module(module.features, state),
                       _compile_module(module.pool, state),
                       _compile_module(module.classifier, state)))


@register_plan_compiler(ResNet20)
def _compile_resnet(module: ResNet20, state: _CompileState) -> Any:
    return SequenceOp((_compile_module(module.stem, state),
                       _compile_module(module.stem_bn, state),
                       _compile_module(module.stem_relu, state),
                       _compile_module(module.blocks, state),
                       _compile_module(module.pool, state),
                       _compile_module(module.classifier, state)))


def _copy_packed(packed: PackedFilterMatrix) -> PackedFilterMatrix:
    """A private packed matrix whose arrays the plan owns (read-only)."""
    copy = PackedFilterMatrix(
        weights=packed.weights.copy(),
        channel_index=packed.channel_index.copy(),
        grouping=packed.grouping,
        original_shape=packed.original_shape)
    copy.weights.setflags(write=False)
    copy.channel_index.setflags(write=False)
    return copy


def compile_plan(packed_model: Any,
                 quantizers: dict[str, tuple[LinearQuantizer,
                                             LinearQuantizer]] | None = None,
                 bits: int | None = None,
                 array_config: ArrayConfig | None = None) -> ExecutionPlan:
    """Compile a model-backed :class:`PackedModel` into an :class:`ExecutionPlan`.

    ``quantizers`` maps layer names to frozen ``(input, weight)``
    quantizer pairs and — together with ``bits`` — makes the plan
    quantized-capable; both come from
    :meth:`QuantizedPackedModel.compile_plan`, the usual entry point.
    The compilation snapshots the model's *current* state (weights,
    batch-norm statistics, packed matrices); later training or repacking
    does not affect the plan.
    """
    model = packed_model.model
    if model is None:
        raise RuntimeError(
            "this PackedModel was assembled without an nn model; "
            "compile_plan needs one (use from_model or pass model=...)")
    if (bits is None) != (quantizers is None):
        raise ValueError("bits and quantizers must be given together")
    state = _CompileState()
    packed_ops: list[PackedLayerOp] = []
    for spec in packed_model.specs:
        module = spec.module
        assert module is not None
        pair = quantizers.get(spec.name) if quantizers is not None else None
        if quantizers is not None and pair is None:
            raise ValueError(f"no quantizers supplied for packed layer "
                             f"{spec.name!r}")
        op = PackedLayerOp(
            name=spec.name,
            packed=_copy_packed(spec.packed),
            bias=None if module.bias is None else _frozen(module.bias.data),
            in_channels=module.in_channels,
            input_quantizer=pair[0] if pair is not None else None,
            weight_quantizer=pair[1] if pair is not None else None)
        op._realized = spec.realized()
        packed_ops.append(op)
        state.packed[id(module)] = op
    root = _compile_module(model, state)
    missing = [spec.name for spec in packed_model.specs
               if id(spec.module) not in state.used]
    if missing:
        raise ValueError(
            f"plan compilation never reached packed layers {missing}; the "
            "model's compiler handlers do not cover its packable modules")
    return ExecutionPlan(root=root, packed_ops=packed_ops,
                         kind="quantized" if bits is not None else "packed",
                         array_rows=packed_model.array_rows,
                         array_cols=packed_model.array_cols,
                         pipeline_config=packed_model.pipeline_config,
                         bits=bits, array_config=array_config)


# -- manifest (de)serialization ----------------------------------------------
# The V2 packed-artifact format persists the op tree as a JSON manifest so
# load_plan can rebuild an ExecutionPlan without reconstructing the nn
# model.  Arrays are persisted through a ``store(array) -> ref`` callback
# (the artifact's per-dtype blob writer) and rehydrated through
# ``load(ref) -> array``; packed layers are referenced by layer index and
# wired to the artifact's own packed matrices by ``packed_factory``.

def manifest_from_plan(plan: ExecutionPlan,
                       store: Callable[[np.ndarray], Any]) -> dict:
    """Serialize a plan's op tree to a JSON-able manifest."""
    index = {id(op): position for position, op in enumerate(plan.packed_ops)}
    return _serialize_op(plan.root, index, store)


def _serialize_op(op: Any, index: dict[int, int],
                  store: Callable[[np.ndarray], Any]) -> dict:
    def ref(array: np.ndarray | None) -> Any:
        return None if array is None else store(array)

    if isinstance(op, SequenceOp):
        return {"op": "sequence",
                "ops": [_serialize_op(child, index, store) for child in op.ops]}
    if isinstance(op, ResidualOp):
        return {"op": "residual",
                "main": _serialize_op(op.main, index, store),
                "shortcut": (_serialize_op(op.shortcut, index, store)
                             if op.shortcut is not None else None)}
    if isinstance(op, PackedLayerOp):
        return {"op": "packed", "layer": index[id(op)], "bias": ref(op.bias)}
    if isinstance(op, PointwiseOp):
        return {"op": "pointwise", "weight": store(op.weight),
                "bias": ref(op.bias), "in_channels": op.in_channels}
    if isinstance(op, DenseOp):
        return {"op": "dense", "weight": store(op.weight),
                "bias": ref(op.bias), "in_features": op.in_features}
    if isinstance(op, ShiftOp):
        return {"op": "shift", "assignment": store(op.assignment),
                "channels": op.channels}
    if isinstance(op, BatchNormOp):
        return {"op": "batchnorm", "mean": store(op.mean), "var": store(op.var),
                "gamma": store(op.gamma), "beta": store(op.beta),
                "eps": op.eps, "channels": op.channels}
    if isinstance(op, ReluOp):
        return {"op": "relu"}
    if isinstance(op, IdentityOp):
        return {"op": "identity"}
    if isinstance(op, FlattenOp):
        return {"op": "flatten"}
    if isinstance(op, GlobalAvgPoolOp):
        return {"op": "globalavgpool"}
    if isinstance(op, AvgPoolOp):
        return {"op": "avgpool", "kernel": op.kernel}
    if isinstance(op, MaxPoolOp):
        return {"op": "maxpool", "kernel": op.kernel}
    if isinstance(op, StrideOp):
        return {"op": "stride", "stride": op.stride}
    raise TypeError(f"cannot serialize plan op {type(op).__name__}")


def plan_from_manifest(node: dict,
                       packed_factory: Callable[[int, np.ndarray | None],
                                                PackedLayerOp],
                       load: Callable[[Any], np.ndarray | None]) -> Any:
    """Rebuild an op tree from a manifest node.

    ``packed_factory(layer_index, bias)`` supplies each packed layer's op
    (wired to the artifact's packed matrices and quantizers); ``load``
    rehydrates an array ref (and maps ``None`` to ``None``).
    """
    kind = node["op"]
    if kind == "sequence":
        return SequenceOp(tuple(plan_from_manifest(child, packed_factory, load)
                                for child in node["ops"]))
    if kind == "residual":
        shortcut = (plan_from_manifest(node["shortcut"], packed_factory, load)
                    if node["shortcut"] is not None else None)
        return ResidualOp(plan_from_manifest(node["main"], packed_factory, load),
                          shortcut)
    if kind == "packed":
        return packed_factory(int(node["layer"]), load(node["bias"]))
    if kind == "pointwise":
        return PointwiseOp(load(node["weight"]), load(node["bias"]),
                           int(node["in_channels"]))
    if kind == "dense":
        return DenseOp(load(node["weight"]), load(node["bias"]),
                       int(node["in_features"]))
    if kind == "shift":
        return ShiftOp(load(node["assignment"]), int(node["channels"]))
    if kind == "batchnorm":
        return BatchNormOp(load(node["mean"]), load(node["var"]),
                           load(node["gamma"]), load(node["beta"]),
                           float(node["eps"]), int(node["channels"]))
    if kind == "relu":
        return ReluOp()
    if kind == "identity":
        return IdentityOp()
    if kind == "flatten":
        return FlattenOp()
    if kind == "globalavgpool":
        return GlobalAvgPoolOp()
    if kind == "avgpool":
        return AvgPoolOp(int(node["kernel"]))
    if kind == "maxpool":
        return MaxPoolOp(int(node["kernel"]))
    if kind == "stride":
        return StrideOp(int(node["stride"]))
    raise ValueError(f"unknown plan op {kind!r} in manifest")
