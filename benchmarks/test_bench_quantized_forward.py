"""Benchmark: calibrated quantizer reuse beats per-call refitting.

``SystolicSystem.run_layer`` fits fresh input / weight quantizers on
every call unless pre-fit ones are passed.  ``QuantizedPackedModel``
calibrates once and freezes the scales — besides being what deployed
hardware does (it cannot refit on unseen data), it skips the per-call
calibration forward and the per-call scale fits.  This benchmark times
both serving shapes over repeated batches and asserts the calibrated
model wins, so a regression back to per-call refitting fails loudly.
"""

from __future__ import annotations

import time

import numpy as np

from repro.combining import PipelineConfig, QuantizedPackedModel
from repro.models import build_model

BATCHES = 8
BATCH = 16


def _quantized_model() -> QuantizedPackedModel:
    model = build_model("lenet5", in_channels=1, num_classes=10, scale=1.0,
                        image_size=8, rng=np.random.default_rng(3))
    mask_rng = np.random.default_rng(4)
    for _, layer in model.packable_layers():
        layer.weight.data *= mask_rng.random(layer.weight.data.shape) < 0.5
    return QuantizedPackedModel.from_model(
        model, PipelineConfig(alpha=8, gamma=0.5), bits=8)


def _batches() -> list[np.ndarray]:
    rng = np.random.default_rng(9)
    return [rng.normal(size=(BATCH, 1, 8, 8)) for _ in range(BATCHES)]


def _calibrated_reuse(quantized, batches) -> list[np.ndarray]:
    quantized.calibrate(batches[0])
    return [quantized.forward(batch) for batch in batches]


def _per_call_refit(quantized, batches) -> list[np.ndarray]:
    outputs = []
    for batch in batches:
        quantized.calibrate(batch)  # refit the scales on every batch ...
        outputs.append(quantized.forward(batch))
    return outputs


#: Interleaved (refit, reuse) timing pairs behind the compared medians.
REPEATS = 7


def _seconds(function, quantized, batches) -> float:
    start = time.perf_counter()
    function(quantized, batches)
    return time.perf_counter() - start


def test_bench_calibrated_reuse_beats_per_call_refit():
    quantized = _quantized_model()
    batches = _batches()
    refit_runs, reuse_runs = [], []
    for _ in range(REPEATS):
        refit_runs.append(_seconds(_per_call_refit, quantized, batches))
        reuse_runs.append(_seconds(_calibrated_reuse, quantized, batches))
    refit_seconds = float(np.median(refit_runs))
    reuse_seconds = float(np.median(reuse_runs))
    print(f"\n{BATCHES} batches x {BATCH} samples, median of {REPEATS}: "
          f"per-call refit {refit_seconds * 1e3:.1f} ms, "
          f"calibrated reuse {reuse_seconds * 1e3:.1f} ms "
          f"({refit_seconds / reuse_seconds:.2f}x)")
    assert reuse_seconds < refit_seconds, (
        f"calibrated reuse ({reuse_seconds:.4f}s) did not beat per-call "
        f"refitting ({refit_seconds:.4f}s) over {BATCHES} batches, median of "
        f"{REPEATS} interleaved repeats")
