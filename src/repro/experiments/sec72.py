"""Section 7.2 — optimality in energy efficiency.

Reproduces the paper's analysis that the ratio of achieved to optimal
energy efficiency is ``(1/c + r) / (1 + r)``, which approaches the packing
efficiency ``1/c`` when the memory-to-compute energy ratio ``r`` is small
(r = 0.06 for LeNet-5 and r = 0.1 for ResNet-20 in the paper), and checks
the paper's example: a 94.5% packing efficiency puts the design at ~94.5%
of the optimal energy efficiency.

Beyond the analytic grid, the runner *measures* ``1/c`` instead of only
tabulating assumed values: the full-size LeNet-5 and ResNet-20 workloads
run through the :class:`~repro.combining.pipeline.PackingPipeline` (α=8,
γ=0.5, the paper's setting) and are assembled into a
:class:`~repro.combining.inference.PackedModel`, whose cell-weighted
packing efficiency feeds the same ratio formula.  ``workers`` fans the
per-layer packing out over the pipeline's persistent process pool.
Results are identical for any ``workers`` value.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.combining import PackedModel
from repro.experiments.common import format_table, packing_pipeline
from repro.experiments.workloads import PAPER_DENSITY, sparse_network
from repro.hardware.optimality import energy_efficiency_ratio, ratio_from_packing_efficiency

DEFAULT_PACKING: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.945, 1.0)
DEFAULT_R: tuple[float, ...] = (0.0, 0.06, 0.1, 0.5, 1.0)

#: Memory-to-compute energy ratio the paper reports per measured network.
PAPER_MEMORY_RATIO: dict[str, float] = {
    "lenet5": 0.06,
    "resnet20": 0.1,
}


def measure_packed_networks(networks: Sequence[str] = ("lenet5", "resnet20"),
                            alpha: int = 8, gamma: float = 0.5, seed: int = 0,
                            workers: int = 1) -> dict[str, dict[str, float]]:
    """Measured packing efficiency -> efficiency ratio per network.

    Packs each network's full-size sparse workload through one (pool-
    reusing) pipeline and reads the model-level packing efficiency off the
    assembled :class:`PackedModel`.  Every requested network must have a
    paper-reported memory ratio in :data:`PAPER_MEMORY_RATIO` — the ratio
    is a measured quantity, not something to guess for other networks.
    """
    missing = [network for network in networks
               if network not in PAPER_MEMORY_RATIO]
    if missing:
        raise KeyError(
            f"no paper-reported memory ratio for {missing}; known networks: "
            f"{sorted(PAPER_MEMORY_RATIO)}")
    measured: dict[str, dict[str, float]] = {}
    with packing_pipeline(alpha=alpha, gamma=gamma, workers=workers,
                          seed=seed) as pipeline:
        for network in networks:
            layers = sparse_network(network, density=PAPER_DENSITY[network],
                                    seed=seed)
            packed_model = PackedModel.from_pipeline_result(pipeline.run(layers))
            efficiency = packed_model.packing_efficiency()
            r = PAPER_MEMORY_RATIO[network]
            measured[network] = {
                "packing_efficiency": efficiency,
                "r": r,
                "efficiency_ratio": ratio_from_packing_efficiency(efficiency, r),
                "total_nonzeros": packed_model.total_nonzeros(),
            }
    return measured


def run(packing_efficiencies: Sequence[float] = DEFAULT_PACKING,
        memory_ratios: Sequence[float] = DEFAULT_R,
        include_measured: bool = True, seed: int = 0, workers: int = 1
        ) -> dict[str, Any]:
    """Tabulate the efficiency ratio over packing efficiency and r."""
    grid: list[dict[str, float]] = []
    for packing in packing_efficiencies:
        for r in memory_ratios:
            grid.append({
                "packing_efficiency": packing,
                "r": r,
                "efficiency_ratio": ratio_from_packing_efficiency(packing, r),
            })
    paper_example = {
        "lenet5": energy_efficiency_ratio(1.0 / 0.945, 0.06),
        "resnet20": energy_efficiency_ratio(1.0 / 0.945, 0.1),
    }
    measured: dict[str, dict[str, float]] = {}
    if include_measured:
        measured = measure_packed_networks(seed=seed, workers=workers)
    return {
        "experiment": "sec7.2",
        "grid": grid,
        "paper_example": paper_example,
        "measured": measured,
    }


def main(workers: int = 1) -> dict[str, Any]:
    result = run(workers=workers)
    rows = [(f"{g['packing_efficiency']:.1%}", g["r"], f"{g['efficiency_ratio']:.1%}")
            for g in result["grid"]]
    print("Section 7.2 — achieved / optimal energy efficiency")
    print(format_table(["packing efficiency (1/c)", "r = Emem/Ecomp", "efficiency ratio"],
                       rows))
    example = result["paper_example"]
    print(f"paper example (94.5% packing): LeNet-5 r=0.06 -> {example['lenet5']:.1%}, "
          f"ResNet-20 r=0.1 -> {example['resnet20']:.1%} (paper: ~94.5% of optimal)")
    if result["measured"]:
        measured_rows = [(network, f"{m['packing_efficiency']:.1%}", m["r"],
                          f"{m['efficiency_ratio']:.1%}")
                         for network, m in result["measured"].items()]
        print("measured packed models (alpha=8, gamma=0.5 at paper density):")
        print(format_table(["network", "measured packing eff.", "r",
                            "efficiency ratio"], measured_rows))
    return result


if __name__ == "__main__":
    main()
