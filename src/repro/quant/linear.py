"""Symmetric linear fixed-point quantization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Scale-calibration strategies of :meth:`LinearQuantizer.fit`.
CALIBRATIONS: tuple[str, ...] = ("max", "percentile")


@dataclass
class LinearQuantizer:
    """Symmetric linear quantizer mapping floats to signed ``bits``-bit integers.

    ``scale`` is chosen so that the largest observed magnitude maps to the
    largest representable integer; zero always maps to zero (symmetric,
    zero-point-free), which keeps the bit-serial MAC design simple.
    """

    bits: int = 8
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.bits < 2:
            raise ValueError("bits must be >= 2")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def qmax(self) -> int:
        """Largest representable positive integer."""
        return 2 ** (self.bits - 1) - 1

    @property
    def qmin(self) -> int:
        return -(2 ** (self.bits - 1))

    @classmethod
    def fit(cls, tensor: np.ndarray, bits: int = 8, calibration: str = "max",
            percentile: float = 99.5) -> "LinearQuantizer":
        """Calibrate the scale from the magnitudes observed in ``tensor``.

        ``calibration`` selects the statistic mapped to the largest
        representable integer:

        * ``"max"`` — the largest magnitude.  Nothing saturates, but a
          single outlier stretches the scale and wastes resolution on the
          bulk of the distribution (which hurts hard at 2-4 bits).
        * ``"percentile"`` — the ``percentile``-th percentile of the
          magnitudes.  Values beyond it saturate (clip) at ``qmax``, in
          exchange for finer resolution where the mass of the values
          lives; this is what keeps low-bit sweeps stable on activation
          distributions with heavy tails.  When the chosen percentile
          lands on 0 (mostly-zero tensors) the fit falls back to the
          max-magnitude scale rather than producing a degenerate scale.

        All-zero (or empty) tensors take an explicit fast path: no
        magnitude statistics exist, so the unit scale is returned directly
        and every representable input quantizes to 0.
        """
        if calibration not in CALIBRATIONS:
            raise ValueError(f"unknown calibration {calibration!r}; "
                             f"expected one of {CALIBRATIONS}")
        tensor = np.asarray(tensor)
        if tensor.size == 0 or not np.any(tensor):
            # Zero-tensor fast path: there is nothing to calibrate on.
            return cls(bits=bits, scale=1.0)
        magnitudes = np.abs(tensor)
        max_abs = float(np.max(magnitudes))
        if calibration == "percentile":
            if not 0.0 < percentile <= 100.0:
                raise ValueError("percentile must be in (0, 100]")
            clipped = float(np.percentile(magnitudes, percentile))
            if clipped > 0.0:
                max_abs = clipped
        if not max_abs > 0.0:
            # NaN magnitudes (a diverged model) give max_abs=nan, which
            # fails every comparison; fall back to the unit scale rather
            # than poisoning quantize() with scale=nan.
            return cls(bits=bits, scale=1.0)
        qmax = 2 ** (bits - 1) - 1
        return cls(bits=bits, scale=max_abs / qmax)

    def quantize(self, tensor: np.ndarray) -> np.ndarray:
        """Round to integers and clip to the representable range."""
        tensor = np.asarray(tensor, dtype=np.float64)
        q = np.round(tensor / self.scale)
        return np.clip(q, self.qmin, self.qmax).astype(np.int64)

    def quantize_with_saturation(self, tensor: np.ndarray
                                 ) -> tuple[np.ndarray, float]:
        """:meth:`quantize` plus the saturation rate, in a single pass.

        Returns the integers as integer-valued float64 — the operand type
        of the exact integer GEMMs that consume them — in a fresh C-order
        buffer, so quantizing a transposed view also lays it out for the
        GEMM.  The values equal :meth:`quantize`'s, with a rounded ``-0.0``
        stored as ``+0.0`` as the int64 cast gave; a NaN input stays NaN
        (it counts as not saturated).  The clipped values are counted on
        the rounded integers the quantization itself computes.  When every
        value lies in range, the count and the clip are skipped; a tensor
        that does saturate pays for the two extra reductions (``min`` and
        ``max``) that decided it.
        """
        tensor = np.asarray(tensor, dtype=np.float64)
        if tensor.size == 0:
            return np.zeros(tensor.shape), 0.0
        q = np.divide(tensor, self.scale, out=np.empty(tensor.shape))
        np.round(q, out=q)
        q += 0.0
        qmin, qmax = self.qmin, self.qmax
        if qmin <= q.min() and q.max() <= qmax:
            return q, 0.0
        clipped = np.count_nonzero(q < qmin) + np.count_nonzero(q > qmax)
        np.clip(q, qmin, qmax, out=q)
        return q, float(clipped / tensor.size)

    def dequantize(self, quantized: np.ndarray) -> np.ndarray:
        """Map integers back to floats."""
        return np.asarray(quantized, dtype=np.float64) * self.scale

    def roundtrip(self, tensor: np.ndarray) -> np.ndarray:
        """Quantize then dequantize (the simulated-quantization value)."""
        return self.dequantize(self.quantize(tensor))

    def saturation_rate(self, tensor: np.ndarray) -> float:
        """Fraction of values that clip at the representable range.

        A value saturates when its rounded integer image falls outside
        ``[qmin, qmax]`` — with a max-magnitude fit this is 0.0; with
        percentile calibration it is roughly the tail mass beyond the
        calibration percentile.
        """
        return self.quantize_with_saturation(tensor)[1]

    def rmse(self, tensor: np.ndarray) -> float:
        """Root-mean-square error of quantizing ``tensor`` with this scale."""
        tensor = np.asarray(tensor, dtype=np.float64)
        if tensor.size == 0:
            return 0.0
        return float(np.sqrt(np.mean((self.roundtrip(tensor) - tensor) ** 2)))


def quantize_tensor(tensor: np.ndarray, bits: int = 8) -> tuple[np.ndarray, LinearQuantizer]:
    """Calibrate a quantizer on ``tensor`` and return (integers, quantizer)."""
    quantizer = LinearQuantizer.fit(tensor, bits=bits)
    return quantizer.quantize(tensor), quantizer


def dequantize_tensor(quantized: np.ndarray, quantizer: LinearQuantizer) -> np.ndarray:
    """Inverse of :func:`quantize_tensor`."""
    return quantizer.dequantize(quantized)


def quantization_error(tensor: np.ndarray, bits: int = 8) -> float:
    """Root-mean-square error introduced by ``bits``-bit quantization."""
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.size == 0:
        return 0.0
    quantizer = LinearQuantizer.fit(tensor, bits=bits)
    return float(np.sqrt(np.mean((quantizer.roundtrip(tensor) - tensor) ** 2)))
