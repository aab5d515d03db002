"""Figure 14b — tile reduction for one layer through column combining.

The paper's example: the third layer of its ResNet-20 variant is a
96 x 94 sparse filter matrix with 16% nonzeros; for a 32 x 32 systolic
array it needs 9 tiles unpacked, and column combining packs its 94 columns
into 17 combined columns (89% nonzeros), reducing the tile count to 3
(a 3x reduction).  This experiment reproduces the same quantities on a
sparse matrix of the same shape and density.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.experiments.common import format_table, packing_pipeline
from repro.experiments.workloads import sparse_filter_matrix


def run(rows: int = 96, cols: int = 94, density: float = 0.16, alpha: int = 8,
        gamma: float = 0.5, array_rows: int = 32, array_cols: int = 32,
        seed: int = 0, workers: int = 1) -> dict[str, Any]:
    """Pack one sparse layer and report columns / density / tiles before and after."""
    rng = np.random.default_rng(seed)
    matrix = sparse_filter_matrix(rows, cols, density, rng)
    pipeline = packing_pipeline(alpha=alpha, gamma=gamma,
                                array_rows=array_rows, array_cols=array_cols,
                                workers=workers)
    layer = pipeline.run([("fig14b-layer", matrix)]).layers[0]
    return {
        "experiment": "fig14b",
        "rows": rows,
        "columns_before": layer.columns_before,
        "columns_after": layer.columns_after,
        "density_before": layer.density_before,
        "density_after": layer.packing_efficiency,
        "tiles_before": layer.tiles_before,
        "tiles_after": layer.tiles_after,
        "tile_reduction": layer.tile_reduction,
        "alpha": alpha,
        "gamma": gamma,
    }


def main(workers: int = 1) -> dict[str, Any]:
    result = run(workers=workers)
    rows = [
        ("columns", result["columns_before"], result["columns_after"]),
        ("density", f"{result['density_before']:.0%}", f"{result['density_after']:.0%}"),
        ("tiles (32x32 array)", result["tiles_before"], result["tiles_after"]),
    ]
    print("Figure 14b — tile reduction through column combining (96x94 layer)")
    print(format_table(["quantity", "sparse filter matrix", "packed filter matrix"], rows))
    print(f"tile reduction: {result['tile_reduction']:.1f}x (paper: 3x)")
    return result


if __name__ == "__main__":
    main()
