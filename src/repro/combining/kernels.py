"""Batch-invariant GEMM kernels: fixed-shape BLAS dispatch, pinned order.

The serving stack promises *bit-transparent coalescing*: however the
dynamic batcher groups requests, ``forward(batch)[i:j]`` equals
``forward(batch[i:j])`` bit for bit.  General BLAS calls break that
promise — a gemm picks its blocking (and therefore its float summation
order, and sometimes the kernel itself: gemv vs small-matrix vs packed
gemm) from the **full operand shapes**, so a sample's output bits change
with the batch it rides in.  The original batch-invariant path restored
the property by routing every weight-bearing layer through
``np.einsum(..., optimize=False)`` reduction loops — correct, but a large
performance tax on the hottest serving path.

This module closes that gap.  :func:`invariant_matmul` and
:func:`invariant_conv_pointwise` implement blocked GEMM whose **entire
schedule is chosen only from the reduction / output / spatial dimensions
— never from the batch size** — so each inner block still dispatches to
BLAS (``@`` on contiguous slices) while the results stay bit-identical
under any batch split.

The invariance argument
-----------------------

Three pinned choices make the blocked kernels batch-invariant:

1. **Fixed dispatch shapes.**  The batch axis is processed in blocks of
   constant size: :func:`invariant_conv_pointwise` runs one
   ``(n, c) @ (c, H*W)`` gemm **per sample** (the natural unit of
   coalescing — a shape built from channel and spatial dimensions only),
   and :func:`invariant_matmul` tiles rows in blocks of exactly
   :data:`M_TILE`, zero-padding the final partial tile, so every call is
   ``(M_TILE, k_block) @ (k_block, n)``.  BLAS never sees the batch
   size, so it cannot choose a different kernel or blocking for
   different batch sizes.
2. **Fixed reduction blocks.**  The reduction axis is split at the
   multiples of :data:`K_BLOCK` (see :func:`kernel_schedule`), a
   function of the weight shape only.
3. **Pinned accumulation tree.**  Per-block partial products are summed
   left to right in schedule order, and gemm itself computes each output
   element as an independent dot product of one row against one weight
   column — no cross-row arithmetic.  A sample's output bits hence
   depend only on (sample contents, weight contents, the fixed call
   shapes), not on which tile slot or batch the sample occupied.
   Operands are canonicalized to C order first, so strided and
   Fortran-ordered views of the same values produce the same bits too.

Together: splitting a batch changes only *which* fixed-shape calls a
sample lands in, never the shape or order of the arithmetic applied to
it, so concatenating split results reproduces the whole-batch bits
exactly.  (The property suite in ``tests/test_combining_kernels.py``
pins this across odd/prime reduction sizes, adversarial batch splits,
Fortran-ordered inputs, empty batches, and dtypes.)

What is — and is not — bit-identical
------------------------------------

The blocked kernels are bitwise batch-invariant *with respect to
themselves*.  They are **not** bitwise equal to the einsum reduction
loops they replaced, and cannot be: BLAS contracts with fused
multiply-adds and vectorized partial sums, the einsum C loops with
sequential scalar multiply-then-add — same real-number value, different
roundings (observed ~1e-13 relative).  Those loops survive as
:func:`reference_matmul` / :func:`reference_conv_pointwise`, the
differential oracle the test and benchmark suites check the blocked
kernels against (``np.allclose`` tight); serving itself only ever runs
the blocked kernels, so responses are bit-identical across batch
coalescing, worker counts, and execution backends.

Measured on the ResNet-20 serving shapes (see
``benchmarks/test_bench_serving.py``): the blocked pointwise kernel runs
~3.8x faster than the einsum loops per forward — and, because the
per-sample gemm avoids the batched einsum's internal transposes, it
matches or beats the unconstrained ``optimize=True`` dispatch there;
the residual gap to raw BLAS is confined to the padded dense tiles.
"""

from __future__ import annotations

import numpy as np

#: Fixed row-tile height of the blocked :func:`invariant_matmul`.  Every
#: BLAS call sees exactly this many rows (the last tile is zero-padded),
#: so the dispatched gemm shape is independent of the batch size.  Dense
#: layers sit behind the classifier head where serving batches are small
#: (1-32 samples): 16 rows keeps the zero-pad waste of a coalesced batch
#: near zero while still tiling large calibration / sweep batches
#: efficiently.
M_TILE: int = 16

#: Fixed reduction-block length.  The reduction axis is split at
#: multiples of this, a function of the weight shape only (never the
#: batch), pinning the accumulation tree: partial products are summed in
#: schedule order.
K_BLOCK: int = 512


def kernel_schedule(k_dim: int) -> tuple[tuple[int, int], ...]:
    """The fixed reduction-block schedule for a reduction axis of ``k_dim``.

    Returns ``(start, stop)`` slices covering ``[0, k_dim)`` in blocks of
    at most :data:`K_BLOCK`.  The schedule depends only on the reduction
    dimension — batch size does not appear in its inputs, which is the
    load-bearing property: the accumulation order it pins is the same for
    every batch.
    """
    if k_dim < 0:
        raise ValueError(f"reduction dimension must be >= 0, got {k_dim}")
    return tuple((start, min(start + K_BLOCK, k_dim))
                 for start in range(0, k_dim, K_BLOCK))


def _blocked_matmul(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight.T`` via fixed-shape BLAS tiles of :data:`M_TILE` rows.

    ``x`` is ``(rows, k)``, ``weight`` is ``(n, k)``; the result is
    ``(rows, n)`` with bits independent of how the caller's rows were
    batched (see the module docstring for the argument).
    """
    rows, k_dim = x.shape
    n_out = weight.shape[0]
    dtype = np.result_type(x.dtype, weight.dtype)
    out = np.empty((rows, n_out), dtype=dtype)
    if rows == 0:
        return out
    if k_dim == 0:
        out[...] = 0.0
        return out
    if x.dtype != dtype:
        x = np.asarray(x, dtype=dtype)
    # Canonical C-order weight: BLAS picks transpose-handling code paths
    # (and hence roundings) from operand layout, so differently-laid-out
    # views of the same weight values must be normalized to one layout.
    weight = np.ascontiguousarray(weight, dtype=dtype)
    schedule = kernel_schedule(k_dim)
    # One zero-padded staging tile, reused for the final partial tile and
    # for non-contiguous inputs: every gemm call sees (M_TILE, k) rows.
    staging = None
    x_contiguous = x.flags.c_contiguous
    for start in range(0, rows, M_TILE):
        stop = min(start + M_TILE, rows)
        height = stop - start
        if height == M_TILE and x_contiguous:
            tile = x[start:stop]
        else:
            if staging is None:
                staging = np.zeros((M_TILE, k_dim), dtype=dtype)
            staging[:height] = x[start:stop]
            staging[height:] = 0.0
            tile = staging
        first_start, first_stop = schedule[0]
        acc = tile[:, first_start:first_stop] @ weight[:, first_start:first_stop].T
        for block_start, block_stop in schedule[1:]:
            acc += tile[:, block_start:block_stop] @ weight[:, block_start:block_stop].T
        out[start:stop] = acc[:height]
    return out


def invariant_matmul(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Batch-invariant ``x @ weight.T`` (the :class:`Dense` contraction).

    ``x`` is a ``(batch, in_features)`` activation matrix and ``weight``
    an ``(out_features, in_features)`` filter matrix.
    ``invariant_matmul(x)[i:j]`` is bitwise equal to
    ``invariant_matmul(x[i:j])``; :func:`reference_matmul` agrees to
    ``allclose`` but not bitwise (see the module docstring).  Bias
    addition is left to the caller — elementwise adds are batch-invariant
    on their own.
    """
    x = np.asarray(x)
    weight = np.asarray(weight)
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"invariant_matmul expects (batch, k) @ (n, k).T; got "
            f"{x.shape} and {weight.shape}")
    return _blocked_matmul(x, weight)


def invariant_conv_pointwise(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Batch-invariant 1x1 convolution (the packed/pointwise contraction).

    ``x`` is an NCHW activation batch, ``weight`` an
    ``(out_channels, in_channels)`` filter matrix; returns the NCHW
    result of contracting the channel axis.  It runs one
    k-blocked ``(n, c) @ (c, H*W)`` gemm per sample — a dispatch shape
    built from channel and spatial dimensions only, never the batch, and
    one that needs no layout transposes at all (each sample's channel
    plane is already a contiguous ``(c, H*W)`` matrix).  Same bit
    contract as :func:`invariant_matmul`.
    """
    x = np.asarray(x)
    weight = np.asarray(weight)
    if x.ndim != 4 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"invariant_conv_pointwise expects (batch, c, H, W) against "
            f"(n, c); got {x.shape} and {weight.shape}")
    batch, channels, height, width = x.shape
    n_out = weight.shape[0]
    dtype = np.result_type(x.dtype, weight.dtype)
    out = np.empty((batch, n_out, height, width), dtype=dtype)
    if batch == 0 or x.size == 0:
        if channels == 0:
            out[...] = 0.0
        return out
    # Same layout canonicalization as _blocked_matmul (see comment there).
    weight = np.ascontiguousarray(weight, dtype=dtype)
    pixels = height * width
    schedule = kernel_schedule(channels)
    for index in range(batch):
        plane = np.ascontiguousarray(x[index], dtype=dtype).reshape(channels,
                                                                    pixels)
        target = out[index].reshape(n_out, pixels)
        first_start, first_stop = schedule[0]
        np.matmul(weight[:, first_start:first_stop],
                  plane[first_start:first_stop], out=target)
        for block_start, block_stop in schedule[1:]:
            target += weight[:, block_start:block_stop] @ plane[block_start:block_stop]
    return out


# -- the einsum reference ----------------------------------------------------
# einsum's loop order follows operand memory layout, so the reduction loops
# are batch-invariant only for a fixed layout; canonicalizing to C order
# makes the guarantee hold for strided and Fortran-ordered inputs too.

def reference_matmul(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight.T`` as ``np.einsum(optimize=False)`` reduction loops.

    The executable specification :func:`invariant_matmul` is checked
    against (``allclose``, not bitwise); batch-invariant on its own.
    """
    return np.einsum("bi,oi->bo", np.ascontiguousarray(x),
                     np.ascontiguousarray(weight))


def reference_conv_pointwise(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The einsum reduction-loop twin of :func:`invariant_conv_pointwise`."""
    return np.einsum("nc,bchw->bnhw", np.ascontiguousarray(weight),
                     np.ascontiguousarray(x))
