"""Batch-invariant kernels: the bit contract behind deterministic serving.

The blocked BLAS-backed kernels (``"blocked"``) and their einsum
reference (``"loops"``, :func:`reference_matmul` /
:func:`reference_conv_pointwise`) must each be bitwise batch-invariant
with respect to themselves: forwarding a batch and forwarding any split
of it concatenate to the exact same bits.  Both must also be
layout-insensitive (Fortran or strided operands produce the same bits as
contiguous ones) because BLAS — and einsum's loop order — pick different,
differently rounded, code paths per layout.  Across the two the contract
is numerical equivalence, not bit equality: the blocked path fuses
multiplies into BLAS dot products while the reference loops reduce
scalar-by-scalar.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.combining import (
    PackedModel,
    PipelineConfig,
    invariant_conv_pointwise,
    invariant_matmul,
    kernel_schedule,
)
from repro.combining.kernels import (
    K_BLOCK,
    M_TILE,
    reference_conv_pointwise,
    reference_matmul,
)
from repro.models import build_model

#: ``(matmul, pointwise conv)`` per kernel family: the production blocked
#: kernels and the einsum reference they are checked against.
KERNELS = {"blocked": (invariant_matmul, invariant_conv_pointwise),
           "loops": (reference_matmul, reference_conv_pointwise)}

# Odd / prime reduction sizes straddling the K_BLOCK boundary, plus a
# tail-heavy multiple-of-block case.
K_SIZES = [3, 13, 97, 613]
SPLITS = [(0, 1), (1, 4), (4, 20), (0, 3), (3, 19), (19, 20)]


def rng_pair_matmul(k: int, batch: int = 20, n: int = 7, seed: int = 0,
                    dtype=np.float64):
    rng = np.random.default_rng(seed + k)
    x = rng.normal(size=(batch, k)).astype(dtype)
    weight = rng.normal(size=(n, k)).astype(dtype)
    return x, weight


def rng_pair_conv(c: int, batch: int = 20, n: int = 7, hw: tuple = (5, 3),
                  seed: int = 0, dtype=np.float64):
    rng = np.random.default_rng(seed + c)
    x = rng.normal(size=(batch, c, *hw)).astype(dtype)
    weight = rng.normal(size=(n, c)).astype(dtype)
    return x, weight


# -- batch invariance: splits concatenate to the whole-batch bits ------------
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("k", K_SIZES)
def test_matmul_batch_splits_are_bit_identical(kernel, k):
    matmul, conv = KERNELS[kernel]
    x, weight = rng_pair_matmul(k)
    full = matmul(x, weight)
    for start, stop in SPLITS:
        chunk = matmul(x[start:stop], weight)
        assert np.array_equal(full[start:stop], chunk)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("c", K_SIZES)
def test_conv_batch_splits_are_bit_identical(kernel, c):
    matmul, conv = KERNELS[kernel]
    x, weight = rng_pair_conv(c)
    full = conv(x, weight)
    for start, stop in SPLITS:
        chunk = conv(x[start:stop], weight)
        assert np.array_equal(full[start:stop], chunk)


@pytest.mark.parametrize("kernel", KERNELS)
def test_concatenated_1_3_16_splits_equal_whole_batch(kernel):
    """The serving coalescing shape: 1 + 3 + 16 samples == one batch."""
    matmul, conv = KERNELS[kernel]
    x, weight = rng_pair_matmul(k=131)
    parts = [matmul(x[s], weight)
             for s in (slice(0, 1), slice(1, 4), slice(4, 20))]
    assert np.array_equal(np.concatenate(parts), matmul(x, weight))
    xc, wc = rng_pair_conv(c=131)
    parts = [conv(xc[s], wc)
             for s in (slice(0, 1), slice(1, 4), slice(4, 20))]
    assert np.array_equal(np.concatenate(parts), conv(xc, wc))


# -- layout insensitivity ----------------------------------------------------
@pytest.mark.parametrize("kernel", KERNELS)
def test_fortran_ordered_operands_produce_the_same_bits(kernel):
    matmul, conv = KERNELS[kernel]
    x, weight = rng_pair_matmul(k=613)
    reference = matmul(x, weight)
    assert np.array_equal(
        matmul(np.asfortranarray(x), np.asfortranarray(weight)), reference)
    xc, wc = rng_pair_conv(c=97)
    conv_reference = conv(xc, wc)
    assert np.array_equal(
        conv(np.asfortranarray(xc), np.asfortranarray(wc)), conv_reference)


@pytest.mark.parametrize("kernel", KERNELS)
def test_strided_views_produce_the_same_bits(kernel):
    """Non-contiguous activations (the shape StrideOp hands downstream)."""
    matmul, conv = KERNELS[kernel]
    x, weight = rng_pair_matmul(k=97, batch=40)
    strided = x[::2]
    assert not strided.flags["C_CONTIGUOUS"]
    assert np.array_equal(
        matmul(strided, weight),
        matmul(np.ascontiguousarray(strided), weight))
    xc, wc = rng_pair_conv(c=13, batch=40, hw=(6, 6))
    strided_view = xc[::2, :, ::2, ::2]
    assert not strided_view.flags["C_CONTIGUOUS"]
    assert np.array_equal(
        conv(strided_view, wc),
        conv(np.ascontiguousarray(strided_view), wc))


# -- degenerate shapes and dtypes --------------------------------------------
@pytest.mark.parametrize("kernel", KERNELS)
def test_empty_batch_returns_empty_output(kernel):
    matmul, conv = KERNELS[kernel]
    out = matmul(np.empty((0, 17)), np.ones((5, 17)))
    assert out.shape == (0, 5)
    out = conv(np.empty((0, 3, 4, 4)), np.ones((5, 3)))
    assert out.shape == (0, 5, 4, 4)


@pytest.mark.parametrize("kernel", KERNELS)
def test_zero_reduction_dimension_yields_zeros(kernel):
    matmul, conv = KERNELS[kernel]
    out = matmul(np.empty((4, 0)), np.empty((5, 0)))
    assert out.shape == (4, 5) and not out.any()
    out = conv(np.empty((4, 0, 2, 2)), np.empty((5, 0)))
    assert out.shape == (4, 5, 2, 2) and not out.any()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dtype_is_preserved_and_splits_stay_bit_identical(kernel, dtype):
    matmul, conv = KERNELS[kernel]
    x, weight = rng_pair_matmul(k=613, dtype=dtype)
    full = matmul(x, weight)
    assert full.dtype == dtype
    assert np.array_equal(full[1:4], matmul(x[1:4], weight))
    xc, wc = rng_pair_conv(c=97, dtype=dtype)
    full = conv(xc, wc)
    assert full.dtype == dtype
    assert np.array_equal(full[1:4], conv(xc[1:4], wc))


# -- cross-kernel equivalence ------------------------------------------------
def test_blocked_and_loops_are_numerically_equivalent():
    for k in K_SIZES:
        x, weight = rng_pair_matmul(k)
        assert np.allclose(invariant_matmul(x, weight),
                           reference_matmul(x, weight),
                           rtol=1e-9, atol=1e-11)
        xc, wc = rng_pair_conv(k)
        assert np.allclose(invariant_conv_pointwise(xc, wc),
                           reference_conv_pointwise(xc, wc),
                           rtol=1e-9, atol=1e-11)


def test_loops_kernel_matches_legacy_einsum_bits():
    """The reference IS the pre-kernel einsum — bitwise, on the
    contiguous inputs every legacy call site passed."""
    x, weight = rng_pair_matmul(k=97)
    assert np.array_equal(reference_matmul(x, weight),
                          np.einsum("bi,oi->bo", x, weight))
    xc, wc = rng_pair_conv(c=97)
    assert np.array_equal(reference_conv_pointwise(xc, wc),
                          np.einsum("nc,bchw->bnhw", wc, xc))


# -- schedule and shape validation -------------------------------------------
def test_kernel_schedule_covers_the_reduction_exactly_once():
    for k in [0, 1, K_BLOCK - 1, K_BLOCK, K_BLOCK + 1, 3 * K_BLOCK + 7]:
        schedule = kernel_schedule(k)
        covered = [i for start, stop in schedule for i in range(start, stop)]
        assert covered == list(range(k))
        assert all(stop - start <= K_BLOCK for start, stop in schedule)
    with pytest.raises(ValueError, match=">= 0"):
        kernel_schedule(-1)


def test_kernel_schedule_depends_only_on_the_reduction_dimension():
    # The whole invariance argument: the schedule is a pure function of
    # k — no batch size anywhere in its signature.
    assert kernel_schedule(613) == kernel_schedule(613)
    assert kernel_schedule(K_BLOCK) == ((0, K_BLOCK),)
    assert M_TILE > 0 and K_BLOCK > 0


def test_kernels_validate_operand_shapes():
    with pytest.raises(ValueError, match="matmul"):
        invariant_matmul(np.ones((2, 3)), np.ones((4, 5)))
    with pytest.raises(ValueError, match="pointwise"):
        invariant_conv_pointwise(np.ones((2, 3, 2, 2)), np.ones((4, 5)))
    with pytest.raises(ValueError, match="pointwise"):
        invariant_conv_pointwise(np.ones((2, 3, 2)), np.ones((4, 3)))


# -- end to end through plans and models -------------------------------------
MODEL_KWARGS = {"in_channels": 1, "num_classes": 10, "scale": 1.0,
                "image_size": 8}


@pytest.fixture(scope="module")
def packed() -> PackedModel:
    model = build_model("lenet5", rng=np.random.default_rng(3),
                        **MODEL_KWARGS)
    mask_rng = np.random.default_rng(4)
    for _, layer in model.packable_layers():
        layer.weight.data *= mask_rng.random(layer.weight.data.shape) < 0.5
    return PackedModel.from_model(model, PipelineConfig(alpha=8, gamma=0.5))


@pytest.mark.parametrize("kernel", KERNELS)
def test_plan_forward_is_batch_invariant_per_kernel(packed, kernel,
                                                    use_kernel):
    use_kernel(kernel)
    plan = packed.compile_plan()
    images = np.random.default_rng(0).normal(size=(11, 1, 8, 8))
    full = plan.forward(images, batch_invariant=True)
    for start, stop in [(0, 1), (1, 4), (4, 11)]:
        chunk = plan.forward(images[start:stop], batch_invariant=True)
        assert np.array_equal(full[start:stop], chunk)


@pytest.mark.parametrize("kernel", KERNELS)
def test_plan_and_model_forwards_share_bits_per_kernel(packed, kernel,
                                                       use_kernel):
    use_kernel(kernel)
    plan = packed.compile_plan()
    images = np.random.default_rng(1).normal(size=(5, 1, 8, 8))
    for mode in ["exact", "mx"]:
        assert np.array_equal(
            plan.forward(images, mode=mode, batch_invariant=True),
            packed.forward(images, mode=mode, batch_invariant=True))

