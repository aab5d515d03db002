"""Figure 16 — throughput, tiles, energy, and accuracy for three CNNs.

For LeNet-5, VGG, and ResNet-20 under the three parameter settings of
Section 5.4 (baseline α=1/γ=0, column-combine α=8/γ=0, column-combine
pruning α=8/γ=0.5), report:

* throughput (samples per second on a 32 x 32 array at the ASIC clock),
* number of tiles across all layers,
* energy per input sample,
* classification accuracy.

The structural quantities use the full-size layer shapes at the paper's
sparsity; accuracy comes from running Algorithm 1 on the scaled training
substrate.  Expected shape: column-combine pruning reduces tiles and
energy by ~4-6x and raises throughput ~3-4x over both other settings, at
a small accuracy cost relative to the baseline.

Each setting's layers run through one :class:`PackingPipeline` (reused
across the three networks, so its persistent worker pool is forked once)
and are assembled into a :class:`~repro.combining.inference.PackedModel`,
whose :meth:`~repro.combining.inference.PackedModel.plan` provides the
model-level tile / cycle accounting.  ``workers`` fans the per-layer
packing out over processes.  Results are identical for any ``workers``
value.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Any

from repro.combining import PackedModel, PackingPipeline
from repro.experiments.common import (
    FAST_RUN,
    combine_config,
    format_table,
    packing_pipeline,
    run_column_combining,
    shared_packing_pool,
)
from repro.experiments.workloads import PAPER_DENSITY, sparse_network, spatial_sizes
from repro.hardware.asic import ASICDesign, evaluate_asic
from repro.systolic.array import ArrayConfig
from repro.utils.config import RunConfig

SETTINGS: tuple[tuple[str, int, float], ...] = (
    ("baseline", 1, 0.0),
    ("column-combine", 8, 0.0),
    ("column-combine-pruning", 8, 0.5),
)

NETWORKS: tuple[str, ...] = ("lenet5", "vgg", "resnet20")

#: Shape keyword arguments for the full-size workloads.
SHAPE_KWARGS: dict[str, dict[str, Any]] = {
    "lenet5": {"image_size": 32},
    "vgg": {"image_size": 32},
    "resnet20": {"width_multiplier": 6, "image_size": 32},
}


def plan_setting(network: str, alpha: int, gamma: float, array_rows: int = 32,
                 array_cols: int = 32, seed: int = 0,
                 pipeline: PackingPipeline | None = None,
                 workers: int = 1) -> dict[str, Any]:
    """Plan a full-size network execution under one parameter setting.

    Pass a ``pipeline`` (configured for the setting's α / γ) to reuse its
    persistent worker pool across networks; otherwise a temporary one is
    built from the keyword knobs and closed after the run.  A passed
    pipeline must agree with the keyword knobs — its frozen config is what
    actually packs, so a mismatch would report one setting's numbers under
    another setting's label.
    """
    density = PAPER_DENSITY[network]
    layers = sparse_network(network, density=density, seed=seed, **SHAPE_KWARGS[network])
    owns_pipeline = pipeline is None
    if pipeline is None:
        pipeline = packing_pipeline(alpha=alpha, gamma=gamma,
                                    array_rows=array_rows, array_cols=array_cols,
                                    workers=workers, seed=seed)
    else:
        config = pipeline.config
        mismatches = [
            f"{knob}={wanted!r} vs pipeline {getattr(config, knob)!r}"
            for knob, wanted in (("alpha", alpha), ("gamma", gamma),
                                 ("array_rows", array_rows),
                                 ("array_cols", array_cols),
                                 ("seed", seed),
                                 ("policy", "dense-first"))
            if getattr(config, knob) != wanted
        ]
        if mismatches:
            raise ValueError(
                "pipeline config disagrees with the requested setting: "
                + ", ".join(mismatches))
    try:
        packed_model = PackedModel.from_pipeline_result(pipeline.run(layers))
    finally:
        if owns_pipeline:
            pipeline.close()
    config = ArrayConfig(rows=array_rows, cols=array_cols, alpha=max(alpha, 1))
    plan = packed_model.plan(spatial_sizes(layers), array_config=config)
    return {"plan": plan, "tiles": plan.total_tiles, "cycles": plan.total_cycles,
            "utilization": plan.utilization, "packed_model": packed_model}


def run(run_config: RunConfig | None = None, include_accuracy: bool = True,
        frequency_hz: float = 4.0e8, seed: int = 0, workers: int = 1
        ) -> dict[str, Any]:
    """Run Figure 16 for all networks and settings."""
    run_config = run_config if run_config is not None else FAST_RUN
    results: dict[str, dict[str, Any]] = {}
    with ExitStack() as stack:
        # One worker pool lent to all three per-setting pipelines, each of
        # which is then reused across the three networks.
        pool = stack.enter_context(shared_packing_pool(workers))
        pipelines = {
            setting: stack.enter_context(packing_pipeline(
                alpha=alpha, gamma=gamma, workers=workers, seed=seed,
                pool=pool))
            for setting, alpha, gamma in SETTINGS
        }
        for network in NETWORKS:
            per_setting: dict[str, Any] = {}
            for setting, alpha, gamma in SETTINGS:
                planned = plan_setting(network, alpha, gamma, seed=seed,
                                       pipeline=pipelines[setting])
                design = ASICDesign(name=setting, frequency_hz=frequency_hz)
                accuracy = float("nan")
                if include_accuracy:
                    cc_config = combine_config(
                        run_config, alpha=alpha,
                        gamma=gamma if alpha > 1 else 0.0)
                    trained = run_column_combining(network, run_config, cc_config)
                    accuracy = trained["final_accuracy"]
                report = evaluate_asic(design, planned["plan"], network, accuracy)
                per_setting[setting] = {
                    "tiles": planned["tiles"],
                    "cycles": planned["cycles"],
                    "utilization": planned["utilization"],
                    "packing_efficiency": planned["packed_model"].packing_efficiency(),
                    "throughput_fps": report.throughput_fps,
                    "energy_per_sample_j": report.energy_per_sample_joules,
                    "accuracy": accuracy,
                }
            results[network] = per_setting
    # Relative factors of the full method vs the baseline (the paper's claims).
    factors: dict[str, dict[str, float]] = {}
    for network, per_setting in results.items():
        base = per_setting["baseline"]
        best = per_setting["column-combine-pruning"]
        factors[network] = {
            "tile_reduction": base["tiles"] / max(1, best["tiles"]),
            "energy_reduction": base["energy_per_sample_j"] / best["energy_per_sample_j"],
            "throughput_gain": best["throughput_fps"] / base["throughput_fps"],
        }
    return {"experiment": "fig16", "results": results, "factors": factors}


def main(include_accuracy: bool = True, workers: int = 1) -> dict[str, Any]:
    result = run(include_accuracy=include_accuracy, workers=workers)
    rows = []
    for network, per_setting in result["results"].items():
        for setting, values in per_setting.items():
            rows.append((network, setting, values["tiles"],
                         f"{values['throughput_fps']:.1f}",
                         f"{values['energy_per_sample_j'] * 1e6:.2f}",
                         f"{values['accuracy']:.3f}"))
    print("Figure 16 — ASIC comparison of the three parameter settings")
    print(format_table(["network", "setting", "tiles", "throughput (fps)",
                        "energy (uJ/sample)", "accuracy"], rows))
    factor_rows = [(network, f"{f['tile_reduction']:.1f}x", f"{f['energy_reduction']:.1f}x",
                    f"{f['throughput_gain']:.1f}x")
                   for network, f in result["factors"].items()]
    print(format_table(["network", "tile reduction", "energy reduction",
                        "throughput gain"], factor_rows))
    return result


if __name__ == "__main__":
    main()
