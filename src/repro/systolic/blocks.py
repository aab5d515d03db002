"""The shift and ReLU / quantization blocks surrounding the array (Fig. 12)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import assign_directions, shift_channels, shift_groups
from repro.quant.linear import LinearQuantizer


@dataclass
class ShiftBlock:
    """Applies the per-channel spatial shifts before data enters the array.

    The hardware block fetches 8-bit input maps from the input buffer with
    the offset selected by the shift control signal; functionally this is
    the same per-channel zero-filled translation as the network's
    :class:`~repro.nn.layers.Shift2d` layer, and it runs the same
    :func:`~repro.nn.layers.shift_channels` over the same precompiled
    direction groups — at most nine strided copies — to guarantee
    bit-exact agreement with training.
    """

    channels: int

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        self.assignment = assign_directions(self.channels)
        self.groups = shift_groups(self.assignment)

    def apply(self, activations: np.ndarray) -> np.ndarray:
        """Shift an (batch, channels, H, W) activation tensor."""
        if activations.ndim != 4 or activations.shape[1] != self.channels:
            raise ValueError(
                f"expected (batch, {self.channels}, H, W), got {activations.shape}"
            )
        return shift_channels(activations, self.groups)

    def to_data_matrix(self, activations: np.ndarray) -> np.ndarray:
        """Flatten shifted activations into the (channels, words) data matrix.

        Each spatial position of each sample becomes one column of the data
        matrix streamed into the systolic array (Figure 1b).
        """
        shifted = self.apply(activations)
        batch, channels, height, width = shifted.shape
        return shifted.transpose(1, 0, 2, 3).reshape(channels, batch * height * width)


@dataclass
class ReluQuantBlock:
    """ReLU on the 32-bit accumulations followed by 8-bit re-quantization.

    The hardware inspects the sign bit of the 32-bit result stream and
    outputs zeros for negative values (Figure 12); the surviving values are
    re-quantized to 8 bits before being written to the output buffer.
    """

    output_bits: int = 8

    def apply(self, accumulations: np.ndarray, scale: float | None = None
              ) -> tuple[np.ndarray, LinearQuantizer]:
        """Apply ReLU then re-quantize; returns (int outputs, quantizer)."""
        accumulations = np.asarray(accumulations, dtype=np.float64)
        rectified = np.maximum(accumulations, 0.0)
        if scale is not None:
            quantizer = LinearQuantizer(bits=self.output_bits, scale=scale)
        else:
            quantizer = LinearQuantizer.fit(rectified, bits=self.output_bits)
        return quantizer.quantize(rectified), quantizer


def data_matrix_to_activations(data_matrix: np.ndarray, batch: int, height: int,
                               width: int) -> np.ndarray:
    """Inverse of :meth:`ShiftBlock.to_data_matrix` (for the next layer)."""
    channels = data_matrix.shape[0]
    if data_matrix.shape[1] != batch * height * width:
        raise ValueError("data matrix width does not match batch * height * width")
    return data_matrix.reshape(channels, batch, height, width).transpose(1, 0, 2, 3)
