"""Figure 15a — number of tiles per ResNet-20 layer under three settings.

For every layer of the full-size ResNet-20 shift-convolution variant (at
the paper's sparsity), count the tiles a 32 x 32 systolic array needs under:

* *baseline* (α = 1, γ = 0) — standard pruning, no combining;
* *column-combine* (α = 8, γ = 0) — combining without conflict pruning;
* *column-combine pruning* (α = 8, γ = 0.5) — the paper's full method.

Expected shape: combining without pruning buys little (≤ ~10%), while
column-combine pruning cuts tiles by a large factor in every layer, about
5x in the largest layer.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.common import format_table, packing_pipeline, shared_packing_pool
from repro.experiments.workloads import PAPER_DENSITY, sparse_network

SETTINGS: tuple[tuple[str, int, float], ...] = (
    ("baseline", 1, 0.0),
    ("column-combine", 8, 0.0),
    ("column-combine-pruning", 8, 0.5),
)


def run(density: float | None = None, array_rows: int = 32, array_cols: int = 32,
        width_multiplier: int = 6, seed: int = 0, workers: int = 1
        ) -> dict[str, Any]:
    """Count per-layer tiles for the three parameter settings."""
    density = density if density is not None else PAPER_DENSITY["resnet20"]
    layers = sparse_network("resnet20", density=density, seed=seed,
                            width_multiplier=width_multiplier)
    per_setting: dict[str, list[int]] = {}
    layer_names: list[str] = [shape.name for shape, _ in layers]
    with shared_packing_pool(workers) as pool:
        for setting, alpha, gamma in SETTINGS:
            pipeline = packing_pipeline(alpha=alpha, gamma=gamma,
                                        array_rows=array_rows, array_cols=array_cols,
                                        workers=workers, pool=pool)
            per_setting[setting] = pipeline.run(layers).tiles_after()
    largest = max(range(len(layers)), key=lambda i: per_setting["baseline"][i])
    largest_reduction = (per_setting["baseline"][largest]
                         / max(1, per_setting["column-combine-pruning"][largest]))
    return {
        "experiment": "fig15a",
        "density": density,
        "layer_names": layer_names,
        "tiles": per_setting,
        "total_tiles": {name: sum(counts) for name, counts in per_setting.items()},
        "largest_layer_index": largest,
        "largest_layer_tile_reduction": largest_reduction,
    }


def main(workers: int = 1) -> dict[str, Any]:
    result = run(workers=workers)
    tiles = result["tiles"]
    rows = [
        (index + 1, name, tiles["baseline"][index], tiles["column-combine"][index],
         tiles["column-combine-pruning"][index])
        for index, name in enumerate(result["layer_names"])
    ]
    print("Figure 15a — tiles per ResNet-20 layer on a 32x32 systolic array")
    print(format_table(["layer", "name", "baseline", "combine (gamma=0)",
                        "combine-prune (gamma=0.5)"], rows))
    totals = result["total_tiles"]
    print(f"totals: baseline={totals['baseline']}, combine={totals['column-combine']}, "
          f"combine-prune={totals['column-combine-pruning']}")
    print(f"largest-layer tile reduction: {result['largest_layer_tile_reduction']:.1f}x "
          "(paper: ~5x)")
    return result


if __name__ == "__main__":
    main()
