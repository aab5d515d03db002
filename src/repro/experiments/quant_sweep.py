"""Accuracy-vs-bits sweep for quantized packed inference (the serving path).

The paper's end-to-end deployment story is quantized execution: packed
filter matrices run on the systolic array with 8-bit bit-serial MACs,
32-bit accumulation, and ReLU + re-quantization between layers
(Sections 2.5 and 7).  This experiment sweeps the cell bit width of that
path over the LeNet-5 / VGG / ResNet-20 substrates and reports, per
width:

* **agreement** — fraction of top-1 predictions matching the exact
  (float, conflict-pruned) packed forward, i.e. how much classification
  behaviour the integer pipeline preserves;
* **accuracy** — top-1 accuracy against the synthetic test labels;
* **output RMSE** — logit divergence from the exact forward;
* **quantized cycles** — the bit-serial cycle cost actually incurred by
  the forward (lower widths stream fewer cycles per word), which is the
  accuracy side of the paper's accuracy-vs-hardware-cost trade.

Expected shape: 8 bits is indistinguishable from the float packed
forward (>= 95% agreement, the documented serving tolerance), agreement
decays monotonically-ish as bits shrink, and cycles fall roughly
linearly with the width — the 2-4 bit points are where the percentile
calibration option earns its keep.

Each network's layers pack through one :class:`PackingPipeline`
(``workers`` fans the per-layer packing over the shared process pool;
results are identical to a serial run), and one :class:`PackedModel` per
network is shared by every bit width, so the sweep re-quantizes but
never re-packs.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.combining import PackedModel, QuantizedPackedModel
from repro.experiments.common import (
    DATASET_FOR_MODEL,
    FAST_RUN,
    format_table,
    packing_pipeline,
    prepare_data,
    prepare_model,
    shared_packing_pool,
)
from repro.utils.config import RunConfig

#: Cell bit widths swept (the paper's arrays are 8-bit; 2-6 probe the floor).
BITS_SWEEP: tuple[int, ...] = (2, 3, 4, 6, 8)

NETWORKS: tuple[str, ...] = ("lenet5", "vgg", "resnet20")

#: Forward chunk size — bounds the (rows x groups x words) gather buffers
#: the tiled MX execution allocates per tile.
FORWARD_BATCH_SIZE = 32


def sparsified_model(network: str, run_config: RunConfig, density: float = 0.5,
                     seed: int = 0):
    """A scaled network whose packable weights are randomly sparsified.

    Stands in for a magnitude-pruned checkpoint: the packable filter
    matrices keep ``density`` of their weights (seeded mask), the regime
    where column combining + quantized packed execution is evaluated.
    """
    model = prepare_model(network, run_config)
    mask_rng = np.random.default_rng((seed, 17))
    for _, layer in model.packable_layers():
        weights = layer.weight.data
        weights *= mask_rng.random(weights.shape) < density
    return model


def sweep_packed(packed: PackedModel, calibration_images: np.ndarray,
                 eval_images: np.ndarray,
                 eval_labels: np.ndarray | None = None,
                 bits_values: Sequence[int] = BITS_SWEEP,
                 calibration: str = "max", percentile: float = 99.5,
                 batch_size: int = FORWARD_BATCH_SIZE,
                 exact_outputs: np.ndarray | None = None) -> dict[str, Any]:
    """Sweep bit widths over one packed model; the sweep's measurement core.

    Calibrates a fresh :class:`QuantizedPackedModel` per width on
    ``calibration_images`` (all widths share ``packed``, so packing work
    and the realized-matrix caches are reused) and evaluates it on
    ``eval_images`` against the exact packed forward — pass
    ``exact_outputs`` if the caller already ran it.
    """
    if exact_outputs is None:
        exact_outputs = packed.forward(eval_images, batch_size=batch_size)
    exact_predictions = np.argmax(exact_outputs, axis=1)
    result: dict[str, Any] = {"points": []}
    if eval_labels is not None:
        result["exact_accuracy"] = float(np.mean(exact_predictions == eval_labels))
    for bits in bits_values:
        quantized = QuantizedPackedModel(packed, bits=bits,
                                         calibration=calibration,
                                         percentile=percentile)
        quantized.calibrate(calibration_images)
        outputs = quantized.forward(eval_images, batch_size=batch_size)
        predictions = np.argmax(outputs, axis=1)
        summary = quantized.summary()
        reports = quantized.layer_report()
        point: dict[str, Any] = {
            "bits": bits,
            "agreement": float(np.mean(predictions == exact_predictions)),
            "output_rmse": float(np.sqrt(np.mean((outputs - exact_outputs) ** 2))),
            "quantized_cycles": summary["quantized_cycles"],
            "quantized_tiles": summary["quantized_tiles"],
            "divergence_rmse": summary["divergence_rmse"],
            "max_input_saturation": max(r.input_saturation for r in reports),
        }
        if eval_labels is not None:
            point["accuracy"] = float(np.mean(predictions == eval_labels))
        result["points"].append(point)
    return result


def run(networks: Sequence[str] = NETWORKS,
        bits_values: Sequence[int] = BITS_SWEEP,
        run_config: RunConfig | None = None, density: float = 0.5,
        calibration: str = "max", percentile: float = 99.5,
        calibration_samples: int = 64, eval_samples: int | None = None,
        alpha: int = 8, gamma: float = 0.5, workers: int = 1,
        seed: int = 0) -> dict[str, Any]:
    """Run the accuracy-vs-bits sweep for every requested network."""
    run_config = run_config if run_config is not None else FAST_RUN
    results: dict[str, Any] = {}
    with shared_packing_pool(workers) as pool:
        with packing_pipeline(alpha=alpha, gamma=gamma,
                              workers=workers, seed=seed,
                              pool=pool) as pipeline:
            for network in networks:
                model = sparsified_model(network, run_config,
                                         density=density, seed=seed)
                train, test = prepare_data(DATASET_FOR_MODEL[network],
                                           run_config)
                packed = PackedModel.from_model(model, pipeline=pipeline)
                eval_images, eval_labels = test.images, test.labels
                if eval_samples is not None:
                    eval_images = eval_images[:eval_samples]
                    eval_labels = eval_labels[:eval_samples]
                results[network] = sweep_packed(
                    packed,
                    calibration_images=train.images[:calibration_samples],
                    eval_images=eval_images, eval_labels=eval_labels,
                    bits_values=bits_values, calibration=calibration,
                    percentile=percentile)
    return {
        "experiment": "quant_sweep",
        "density": density,
        "calibration": calibration,
        "bits": list(bits_values),
        "results": results,
    }


def main(workers: int = 1, networks: Sequence[str] = NETWORKS,
         **kwargs: Any) -> dict[str, Any]:
    result = run(networks=networks, workers=workers, **kwargs)
    rows = []
    for network, sweep in result["results"].items():
        for point in sweep["points"]:
            rows.append((network, point["bits"],
                         f"{point['agreement']:.1%}",
                         f"{point.get('accuracy', float('nan')):.3f}",
                         f"{point['output_rmse']:.2e}",
                         point["quantized_cycles"]))
    print("Quantized packed inference — accuracy vs bits "
          f"(calibration={result['calibration']}, density={result['density']:.0%})")
    print(format_table(
        ["network", "bits", "agreement", "accuracy", "output rmse",
         "quantized cycles"], rows))
    return result


if __name__ == "__main__":
    main()
