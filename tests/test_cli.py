"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def test_parser_knows_all_subcommands():
    parser = build_parser()
    args = parser.parse_args(["pack", "--rows", "10", "--cols", "8"])
    assert args.command == "pack"
    args = parser.parse_args(["train", "--model", "lenet5"])
    assert args.command == "train" and args.model == "lenet5"
    args = parser.parse_args(["experiment", "fig14b"])
    assert args.command == "experiment" and args.name == "fig14b"


def test_experiment_registry_covers_every_table_and_figure():
    expected = {"fig13a", "fig13b", "fig13c", "fig14b", "fig15a", "fig15b", "fig16",
                "table1", "table2", "table3", "sec72", "ablation-grouping",
                "quant-sweep"}
    assert set(EXPERIMENTS) == expected


def test_pack_command_prints_report(capsys):
    exit_code = main(["pack", "--rows", "64", "--cols", "60", "--density", "0.15"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "columns" in output
    assert "tiles" in output
    assert "multiplexing degree" in output


def test_pack_command_loads_matrix_from_npy(tmp_path, capsys, rng):
    matrix = rng.normal(size=(40, 30)) * (rng.random((40, 30)) < 0.2)
    path = tmp_path / "matrix.npy"
    np.save(path, matrix)
    exit_code = main(["pack", "--matrix", str(path)])
    assert exit_code == 0
    assert "columns" in capsys.readouterr().out


def test_pack_command_rejects_non_2d_matrix(tmp_path, capsys, rng):
    path = tmp_path / "bad.npy"
    np.save(path, rng.normal(size=(4,)))
    assert main(["pack", "--matrix", str(path)]) == 2


def test_pack_model_command_prints_packed_model_report(capsys):
    exit_code = main(["pack-model", "--network", "lenet5"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "packed model: lenet5" in output
    assert "combined cols" in output
    assert "model totals" in output
    assert "pruned by Algorithm 3" in output


def test_pack_model_command_workers_print_identical_reports(capsys):
    assert main(["pack-model", "--network", "lenet5"]) == 0
    serial_output = capsys.readouterr().out
    assert main(["pack-model", "--network", "lenet5", "--workers", "3"]) == 0
    parallel_output = capsys.readouterr().out
    assert parallel_output == serial_output


def test_pack_model_command_respects_density_and_alpha(capsys):
    assert main(["pack-model", "--network", "lenet5", "--density", "0.3",
                 "--alpha", "4", "--gamma", "0.25"]) == 0
    output = capsys.readouterr().out
    assert "at 30% density" in output
    assert "alpha=4" in output


def test_pack_model_command_rejects_unknown_network():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["pack-model", "--network", "alexnet"])


def test_quantize_model_command_prints_report_and_bits_sweep(capsys):
    exit_code = main(["quantize-model", "--model", "lenet5", "--bits", "8",
                      "--calibration-batches", "1", "--batch-size", "32"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "quantized packed model: lenet5 at 8 bits" in output
    assert "divergence rmse" in output
    assert "exact-prediction agreement" in output
    assert "accuracy vs bits:" in output
    for bits in (2, 4, 8):  # the sweep rows of BITS_SWEEP
        assert f"\n{bits} " in output


def test_quantize_model_command_rejects_out_of_range_bits(capsys):
    assert main(["quantize-model", "--bits", "1"]) == 2
    assert main(["quantize-model", "--bits", "9"]) == 2
    assert "--bits must be in [2, 8]" in capsys.readouterr().err


def test_quantize_model_command_rejects_out_of_range_percentile(capsys):
    assert main(["quantize-model", "--calibration", "percentile",
                 "--percentile", "150"]) == 2
    assert main(["quantize-model", "--percentile", "0"]) == 2
    assert "--percentile must be in (0, 100]" in capsys.readouterr().err


@pytest.mark.slow
def test_quantize_model_command_workers_print_identical_reports(capsys):
    arguments = ["quantize-model", "--batch-size", "32"]
    assert main(arguments) == 0
    serial_output = capsys.readouterr().out
    assert main(arguments + ["--workers", "3"]) == 0
    parallel_output = capsys.readouterr().out
    assert parallel_output == serial_output


def test_quantize_model_command_percentile_calibration_runs(capsys):
    assert main(["quantize-model", "--calibration", "percentile",
                 "--percentile", "99.0", "--batch-size", "32"]) == 0
    assert "calibration=percentile" in capsys.readouterr().out


def test_save_packed_round_trips_through_load_packed(tmp_path, capsys):
    path = tmp_path / "lenet5.npz"
    exit_code = main(["save-packed", "--model", "lenet5", "--out", str(path),
                      "--image-size", "8"])
    assert exit_code == 0
    assert path.exists()
    assert "saved packed artifact" in capsys.readouterr().out
    exit_code = main(["load-packed", "--path", str(path)])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "kind packed" in output
    assert "nn model embedded (lenet5)" in output
    assert "fingerprints verified" in output


def test_save_packed_quantized_artifact(tmp_path, capsys):
    path = tmp_path / "lenet5.int8.npz"
    exit_code = main(["save-packed", "--model", "lenet5", "--out", str(path),
                      "--image-size", "8", "--quantize", "--bits", "6",
                      "--no-compress"])
    assert exit_code == 0
    assert "saved quantized artifact" in capsys.readouterr().out
    assert main(["load-packed", "--path", str(path)]) == 0
    output = capsys.readouterr().out
    assert "kind quantized" in output
    assert "quantized at 6 bits" in output
    assert "frozen scales" in output


def test_save_packed_rejects_out_of_range_bits(tmp_path, capsys):
    assert main(["save-packed", "--out", str(tmp_path / "x.npz"),
                 "--quantize", "--bits", "12"]) == 2
    assert "--bits must be in [2, 8]" in capsys.readouterr().err


def test_load_packed_inspects_artifacts_saved_without_a_model_spec(tmp_path,
                                                                   capsys):
    """The inspection command must not demand an architecture it can show
    a report without."""
    from repro.combining import PackedModel, PipelineConfig, save_packed
    from repro.models import build_model

    model = build_model("lenet5", in_channels=1, num_classes=10, scale=1.0,
                        image_size=8, rng=np.random.default_rng(0))
    packed = PackedModel.from_model(model, PipelineConfig(alpha=8, gamma=0.5))
    path = save_packed(packed, tmp_path / "specless.npz")  # no model_spec
    assert main(["load-packed", "--path", str(path)]) == 0
    output = capsys.readouterr().out
    assert "nn model state only (load with model=...)" in output
    assert "fingerprints verified" in output


def test_load_packed_reports_missing_and_corrupt_artifacts(tmp_path, capsys):
    assert main(["load-packed", "--path", str(tmp_path / "ghost.npz")]) == 2
    assert "does not exist" in capsys.readouterr().err
    bad = tmp_path / "bad.npz"
    np.savez(bad, data=np.arange(3))
    assert main(["load-packed", "--path", str(bad)]) == 2
    assert "not a packed artifact" in capsys.readouterr().err


@pytest.mark.slow
def test_serve_bench_command_prints_benchmark(tmp_path, capsys):
    path = tmp_path / "lenet5.npz"
    assert main(["save-packed", "--model", "lenet5", "--out", str(path),
                 "--image-size", "8"]) == 0
    capsys.readouterr()
    exit_code = main(["serve-bench", "--path", str(path),
                      "--requests", "8", "--max-batch", "4",
                      "--max-wait", "0.001"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "cold start" in output
    assert "one-at-a-time" in output
    assert "bit-identical to direct forward: True" in output


def test_serve_bench_rejects_bad_inputs(tmp_path, capsys):
    assert main(["serve-bench", "--path", str(tmp_path / "ghost.npz")]) == 2
    assert "does not exist" in capsys.readouterr().err
    path = tmp_path / "lenet5.npz"
    assert main(["save-packed", "--model", "lenet5", "--out", str(path),
                 "--image-size", "8"]) == 0
    capsys.readouterr()
    assert main(["serve-bench", "--path", str(path),
                 "--max-wait", "5.0"]) == 2
    assert "--max-wait" in capsys.readouterr().err


def test_train_command_runs_tiny_configuration(capsys):
    exit_code = main([
        "train", "--model", "lenet5", "--train-samples", "96", "--image-size", "8",
        "--epochs-per-round", "1", "--final-epochs", "1", "--model-scale", "0.5",
    ])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "final accuracy" in output
    assert "packing eff." in output


def test_experiment_command_runs_structural_experiment(capsys):
    exit_code = main(["experiment", "fig14b"])
    assert exit_code == 0
    assert "tile reduction" in capsys.readouterr().out


def test_experiment_command_accepts_workers(capsys):
    """--workers fans the sweep out over a process pool; the printed report
    must match the serial run exactly (order-stable parallel results)."""
    assert main(["experiment", "fig14b"]) == 0
    serial_output = capsys.readouterr().out
    assert main(["experiment", "fig14b", "--workers", "2"]) == 0
    parallel_output = capsys.readouterr().out
    assert parallel_output == serial_output


def test_experiment_command_workers_on_serial_experiment_warns(capsys, monkeypatch):
    """An experiment without a parallel sweep still runs, with a stderr note."""
    import repro.cli as cli_module

    calls: list[int] = []
    monkeypatch.setitem(cli_module.EXPERIMENTS, "fig13a", lambda: calls.append(1))
    assert main(["experiment", "fig13a", "--workers", "4"]) == 0
    assert calls == [1]
    assert "no parallel sweep" in capsys.readouterr().err


def test_experiment_command_passes_workers_to_parallel_runner(monkeypatch):
    """--workers must reach runners that declare a workers parameter."""
    import repro.cli as cli_module

    received: dict[str, int] = {}

    def fake_runner(workers: int = 1):
        received["workers"] = workers

    monkeypatch.setitem(cli_module.EXPERIMENTS, "fig15a", fake_runner)
    assert main(["experiment", "fig15a", "--workers", "3"]) == 0
    assert received == {"workers": 3}


def test_experiment_command_rejects_non_positive_workers():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig14b", "--workers", "0"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig14b", "--workers", "-2"])


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])
