"""Command-line interface.

Three subcommands cover the library's main workflows:

``pack``
    Pack a single sparse filter matrix (random, or loaded from a ``.npy``
    file) and print the packing / tiling report — the quickest way to see
    what column combining does to a layer.
``pack-model``
    Pack every layer of a full-size network workload through the
    :class:`~repro.combining.pipeline.PackingPipeline`, assemble the
    :class:`~repro.combining.inference.PackedModel`, and print the
    packed-model report: per-layer columns / packing efficiency / pruned
    weights / tiles / cycles plus the model-level totals from the
    systolic timing plan.
``quantize-model``
    Pack a sparsified network, calibrate per-layer quantizers on
    synthetic training batches, run the quantized integer forward on the
    systolic system at ``--bits``, and print the per-layer quantization
    report plus the accuracy-vs-bits sweep table.
``save-packed``
    Pack a sparsified network (optionally quantize + calibrate it) and
    persist the result as a versioned packed artifact
    (:mod:`repro.combining.serialization`) that servers cold-start from
    without re-running the packing pipeline.
``load-packed``
    Load a packed artifact and print its report: format version, kind,
    pipeline config, per-layer packing summary with integrity
    fingerprints, and the frozen calibration scales of quantized
    artifacts.
``serve-bench``
    Run the serving benchmark on a packed artifact: artifact-load vs
    re-pack cold start, then dynamic batching vs one-request-at-a-time
    throughput through the :class:`~repro.serving.server.InferenceServer`
    (the accounting plan-cache hit/miss totals are reported alongside),
    with the batched run's queued / service latency p50/p90/p99 and
    flush-reason split.
    ``--profile`` adds per-layer wall-time accounting (top-3 slowest
    layers; responses stay bit-identical), ``--trace`` prints the last
    request traces.  ``--slo P99_MS`` evaluates the stock SLO rule set
    (p99 service latency / error rate / queue depth) over the rolling
    windows and prints the window quantiles and per-rule verdicts;
    ``--export-port`` attaches the live HTTP observability exporter for
    the batched run and scrapes ``/metrics`` + ``/health`` once.
    ``--swaps N`` additionally exercises live hot swap:
    the model is cut over between the artifact and a perturbed copy N
    times while requests are in flight, and every response must be
    bit-identical to one of the two artifacts' direct forwards.
``serve-export``
    Serve a short traced stream against a packed artifact and write the
    request traces as Chrome-trace-event JSON
    (:mod:`repro.obs.export`) — open the file in Perfetto / chrome
    tracing to see every request's enqueue → coalesce → forward →
    respond timeline on the wall clock.  ``pack-model --trace-out``
    writes the same format for the packing pipeline's per-layer
    group/prune/pack/tile stage spans.
``serve-stats``
    Serve a short profiled, traced stream against a packed artifact and
    print the observability report: request totals, queued / service
    latency digests, flush reasons, the slowest layers, and recent
    request traces — or the same state as a JSON metrics snapshot /
    Prometheus text exposition (``--format``).
``train``
    Run Algorithm 1 (iterative pruning + column combining + retraining) on
    one of the built-in shift + pointwise networks over the synthetic
    dataset, then print the training history and the per-layer packing
    report.
``experiment``
    Run one of the paper's experiment runners (fig13a ... table3, sec72,
    ablation-grouping, quant-sweep) and print the same rows / series the
    paper reports.

Examples::

    python -m repro pack --rows 96 --cols 94 --density 0.16
    python -m repro pack-model --network resnet20 --workers 4
    python -m repro quantize-model --bits 8 --calibration-batches 2
    python -m repro save-packed --model lenet5 --out lenet5.npz --quantize
    python -m repro load-packed --path lenet5.npz
    python -m repro serve-bench --path lenet5.npz --max-batch 16 \
        --backend process --workers 4 --slo 50 --export-port 0
    python -m repro serve-stats --path lenet5.npz --format text
    python -m repro serve-export --path lenet5.npz --out trace.json
    python -m repro train --model lenet5 --alpha 8 --gamma 0.5
    python -m repro experiment fig15a
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Sequence

import numpy as np

from repro.combining import (
    MAX_BITS,
    MIN_BITS,
    PackedArtifactError,
    PackedModel,
    QuantizedPackedModel,
    artifact_info,
    group_columns,
    pack_filter_matrix,
    packing_report,
    save_packed,
)
from repro.experiments import (
    ablation_grouping,
    fig13a,
    fig13b,
    fig13c,
    fig14b,
    fig15a,
    fig15b,
    fig16,
    quant_sweep,
    sec72,
    table1,
    table2,
    table3,
)
from repro.experiments.common import (
    DATASET_FOR_MODEL,
    FAST_RUN,
    combine_config,
    format_table,
    packing_pipeline,
    prepare_data,
    run_column_combining,
)
from repro.quant import CALIBRATIONS
from repro.experiments.workloads import (
    NETWORK_SHAPES,
    PAPER_DENSITY,
    sparse_filter_matrix,
    sparse_network,
    spatial_sizes,
)

EXPERIMENTS = {
    "fig13a": fig13a.main,
    "fig13b": fig13b.main,
    "fig13c": fig13c.main,
    "fig14b": fig14b.main,
    "fig15a": fig15a.main,
    "fig15b": fig15b.main,
    "fig16": fig16.main,
    "table1": table1.main,
    "table2": table2.main,
    "table3": table3.main,
    "sec72": sec72.main,
    "ablation-grouping": ablation_grouping.main,
    "quant-sweep": quant_sweep.main,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Column combining for sparse CNNs on systolic arrays "
                    "(ASPLOS 2019 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    pack = subparsers.add_parser("pack", help="pack one sparse filter matrix")
    pack.add_argument("--matrix", type=str, default=None,
                      help=".npy file holding the filter matrix (rows x cols)")
    pack.add_argument("--rows", type=int, default=96)
    pack.add_argument("--cols", type=int, default=94)
    pack.add_argument("--density", type=float, default=0.16)
    pack.add_argument("--alpha", type=int, default=8)
    pack.add_argument("--gamma", type=float, default=0.5)
    pack.add_argument("--array-rows", type=int, default=32)
    pack.add_argument("--array-cols", type=int, default=32)
    pack.add_argument("--seed", type=int, default=0)

    pack_model = subparsers.add_parser(
        "pack-model",
        help="pack a whole network workload and print the packed-model report")
    pack_model.add_argument("--network", choices=sorted(NETWORK_SHAPES),
                            default="lenet5")
    pack_model.add_argument("--density", type=float, default=None,
                            help="nonzero density of the sparse workload "
                                 "(default: the paper's density for the network)")
    pack_model.add_argument("--alpha", type=int, default=8)
    pack_model.add_argument("--gamma", type=float, default=0.5)
    pack_model.add_argument("--array-rows", type=int, default=32)
    pack_model.add_argument("--array-cols", type=int, default=32)
    pack_model.add_argument("--workers", type=_positive_int, default=1,
                            help="fan the per-layer packing out over N processes "
                                 "(results are identical to a serial run)")
    pack_model.add_argument("--trace-out", type=str, default=None,
                            help="write the pipeline's per-layer "
                                 "group/prune/pack/tile stage spans as "
                                 "Chrome-trace-event JSON to this path "
                                 "(open in Perfetto)")
    pack_model.add_argument("--seed", type=int, default=0)

    quantize = subparsers.add_parser(
        "quantize-model",
        help="run calibrated quantized packed inference and the "
             "accuracy-vs-bits sweep")
    quantize.add_argument("--model", choices=["lenet5", "vgg", "resnet20"],
                          default="lenet5")
    quantize.add_argument("--bits", type=int, default=8,
                          help=f"cell bit width for the per-layer report "
                               f"({MIN_BITS}-{MAX_BITS})")
    quantize.add_argument("--calibration-batches", type=_positive_int, default=1,
                          help="number of training batches the per-layer "
                               "quantizers are calibrated on (frozen afterwards)")
    quantize.add_argument("--batch-size", type=_positive_int, default=64)
    quantize.add_argument("--calibration", choices=list(CALIBRATIONS),
                          default="max",
                          help="activation-scale calibration strategy")
    quantize.add_argument("--percentile", type=float, default=99.5,
                          help="percentile for --calibration percentile")
    quantize.add_argument("--density", type=float, default=0.5,
                          help="fraction of packable weights kept when "
                               "sparsifying the synthetic checkpoint")
    quantize.add_argument("--alpha", type=int, default=8)
    quantize.add_argument("--gamma", type=float, default=0.5)
    quantize.add_argument("--image-size", type=int, default=FAST_RUN.image_size)
    quantize.add_argument("--model-scale", type=float, default=FAST_RUN.model_scale)
    quantize.add_argument("--workers", type=_positive_int, default=1,
                          help="fan the per-layer packing out over N processes "
                               "(results are identical to a serial run)")
    quantize.add_argument("--seed", type=int, default=0)

    save = subparsers.add_parser(
        "save-packed",
        help="pack a sparsified network and persist it as a packed artifact")
    save.add_argument("--model", choices=["lenet5", "vgg", "resnet20"],
                      default="lenet5")
    save.add_argument("--out", type=str, required=True,
                      help="path the .npz packed artifact is written to")
    save.add_argument("--quantize", action="store_true",
                      help="save a calibrated quantized artifact instead of "
                           "a float packed one")
    save.add_argument("--bits", type=int, default=8,
                      help=f"cell bit width for --quantize "
                           f"({MIN_BITS}-{MAX_BITS})")
    save.add_argument("--calibration", choices=list(CALIBRATIONS),
                      default="max",
                      help="activation-scale calibration strategy for "
                           "--quantize")
    save.add_argument("--percentile", type=float, default=99.5,
                      help="percentile for --calibration percentile")
    save.add_argument("--calibration-batches", type=_positive_int, default=1,
                      help="training batches the quantizers are calibrated on")
    save.add_argument("--batch-size", type=_positive_int, default=64)
    save.add_argument("--density", type=float, default=0.5,
                      help="fraction of packable weights kept when "
                           "sparsifying the synthetic checkpoint")
    save.add_argument("--alpha", type=int, default=8)
    save.add_argument("--gamma", type=float, default=0.5)
    save.add_argument("--image-size", type=int, default=FAST_RUN.image_size)
    save.add_argument("--model-scale", type=float, default=FAST_RUN.model_scale)
    save.add_argument("--workers", type=_positive_int, default=1,
                      help="fan the per-layer packing out over N processes")
    save.add_argument("--no-compress", action="store_true",
                      help="write the artifact uncompressed (faster loads, "
                           "bigger file)")
    save.add_argument("--seed", type=int, default=0)

    load = subparsers.add_parser(
        "load-packed", help="load a packed artifact and print its report")
    load.add_argument("--path", type=str, required=True,
                      help="the .npz packed artifact to inspect")

    serve = subparsers.add_parser(
        "serve-bench",
        help="benchmark dynamic-batching serving on a packed artifact")
    serve.add_argument("--path", type=str, required=True,
                       help="model-backed packed artifact to serve")
    serve.add_argument("--requests", type=_positive_int, default=96,
                       help="number of single-sample requests per serving run")
    serve.add_argument("--max-batch", type=_positive_int, default=16,
                       help="dynamic batcher's sample budget per batch")
    serve.add_argument("--max-wait", type=float, default=0.002,
                       help="dynamic batcher's coalescing window in seconds")
    serve.add_argument("--image-size", type=int, default=FAST_RUN.image_size,
                       help="request spatial size (overridden by the "
                            "artifact's model_spec when it records one)")
    serve.add_argument("--backend", choices=["thread", "process"],
                       default="thread",
                       help="where batch forwards run: in-process threads "
                            "or a persistent mmap-sharing worker-process pool")
    serve.add_argument("--workers", type=_positive_int, default=1,
                       help="batch-draining threads (and, with "
                            "--backend process, worker processes)")
    serve.add_argument("--swaps", type=int, default=0,
                       help="additionally exercise live hot swap: cut the "
                            "model over between the artifact and a perturbed "
                            "copy this many times while requests are in "
                            "flight (0 = skip; float artifacts only)")
    serve.add_argument("--profile", action="store_true",
                       help="per-layer wall-time accounting for the batched "
                            "run (reports the top-3 slowest layers; "
                            "responses stay bit-identical)")
    serve.add_argument("--trace", action="store_true",
                       help="retain request traces for the batched run and "
                            "print the last few span timelines")
    serve.add_argument("--slo", type=float, default=None, metavar="P99_MS",
                       help="evaluate the stock SLO rule set over the "
                            "batched run's rolling windows with this p99 "
                            "service-latency target in milliseconds; prints "
                            "window quantiles and per-rule verdicts")
    serve.add_argument("--export-port", type=int, default=None,
                       help="attach the live HTTP observability exporter on "
                            "this port for the batched run (0 = ephemeral) "
                            "and scrape /metrics + /health once")
    serve.add_argument("--seed", type=int, default=0)

    export = subparsers.add_parser(
        "serve-export",
        help="serve a short traced stream and write Chrome-trace-event JSON")
    export.add_argument("--path", type=str, required=True,
                        help="model-backed packed artifact to serve")
    export.add_argument("--out", type=str, required=True,
                        help="path the trace-event JSON is written to")
    export.add_argument("--requests", type=_positive_int, default=32,
                        help="number of single-sample requests to serve")
    export.add_argument("--traces", type=_positive_int, default=32,
                        help="how many recent request traces to export")
    export.add_argument("--max-batch", type=_positive_int, default=8,
                        help="dynamic batcher's sample budget per batch")
    export.add_argument("--max-wait", type=float, default=0.001,
                        help="dynamic batcher's coalescing window in seconds")
    export.add_argument("--image-size", type=int, default=FAST_RUN.image_size,
                        help="request spatial size (overridden by the "
                             "artifact's model_spec when it records one)")
    export.add_argument("--backend", choices=["thread", "process"],
                        default="thread",
                        help="where batch forwards run")
    export.add_argument("--workers", type=_positive_int, default=1,
                        help="batch-draining threads (and worker processes "
                             "with --backend process)")
    export.add_argument("--seed", type=int, default=0)

    stats = subparsers.add_parser(
        "serve-stats",
        help="serve a short profiled stream and print the observability "
             "report")
    stats.add_argument("--path", type=str, required=True,
                       help="model-backed packed artifact to serve")
    stats.add_argument("--requests", type=_positive_int, default=32,
                       help="number of single-sample requests to serve")
    stats.add_argument("--max-batch", type=_positive_int, default=8,
                       help="dynamic batcher's sample budget per batch")
    stats.add_argument("--max-wait", type=float, default=0.001,
                       help="dynamic batcher's coalescing window in seconds")
    stats.add_argument("--image-size", type=int, default=FAST_RUN.image_size,
                       help="request spatial size (overridden by the "
                            "artifact's model_spec when it records one)")
    stats.add_argument("--backend", choices=["thread", "process"],
                       default="thread",
                       help="where batch forwards run")
    stats.add_argument("--workers", type=_positive_int, default=1,
                       help="batch-draining threads (and worker processes "
                            "with --backend process)")
    stats.add_argument("--traces", type=_positive_int, default=5,
                       help="how many recent request traces to keep/print")
    stats.add_argument("--format", choices=["text", "json", "prometheus"],
                       default="text",
                       help="report rendering: human tables, the JSON "
                            "metrics snapshot, or Prometheus text "
                            "exposition")
    stats.add_argument("--seed", type=int, default=0)

    train = subparsers.add_parser("train", help="run Algorithm 1 on a built-in model")
    train.add_argument("--model", choices=["lenet5", "vgg", "resnet20"], default="resnet20")
    train.add_argument("--alpha", type=int, default=8)
    train.add_argument("--beta", type=float, default=0.20)
    train.add_argument("--gamma", type=float, default=0.5)
    train.add_argument("--target-fraction", type=float, default=0.2)
    train.add_argument("--epochs-per-round", type=int, default=FAST_RUN.epochs_per_round)
    train.add_argument("--final-epochs", type=int, default=FAST_RUN.final_epochs)
    train.add_argument("--train-samples", type=int, default=FAST_RUN.train_samples)
    train.add_argument("--image-size", type=int, default=FAST_RUN.image_size)
    train.add_argument("--model-scale", type=float, default=FAST_RUN.model_scale)
    train.add_argument("--lr", type=float, default=0.05)
    train.add_argument("--seed", type=int, default=0)

    experiment = subparsers.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--workers", type=_positive_int, default=1,
                            help="fan the experiment's per-layer / per-point "
                                 "sweeps out over N processes (results are "
                                 "identical to a serial run)")

    return parser


def _command_pack(args: argparse.Namespace) -> int:
    if args.matrix is not None:
        matrix = np.load(args.matrix)
        if matrix.ndim != 2:
            print(f"error: {args.matrix} does not contain a 2-D matrix", file=sys.stderr)
            return 2
    else:
        rng = np.random.default_rng(args.seed)
        matrix = sparse_filter_matrix(args.rows, args.cols, args.density, rng)
    grouping = group_columns(matrix, alpha=args.alpha, gamma=args.gamma)
    packed = pack_filter_matrix(matrix, grouping)
    report = packing_report([("matrix", packed)], array_rows=args.array_rows,
                            array_cols=args.array_cols)
    layer = report.layers[0]
    print(format_table(
        ["quantity", "before", "after"],
        [
            ("columns", layer.columns_before, layer.columns_after),
            ("density", f"{np.count_nonzero(matrix) / matrix.size:.1%}",
             f"{layer.packing_efficiency:.1%}"),
            ("tiles", layer.tiles_before, layer.tiles_after),
        ]))
    print(f"multiplexing degree (MX fan-in needed): {layer.multiplexing_degree}")
    return 0


def _command_pack_model(args: argparse.Namespace) -> int:
    density = args.density if args.density is not None else PAPER_DENSITY[args.network]
    layers = sparse_network(args.network, density=density, seed=args.seed)
    with packing_pipeline(alpha=args.alpha, gamma=args.gamma,
                          array_rows=args.array_rows, array_cols=args.array_cols,
                          workers=args.workers, seed=args.seed) as pipeline:
        result = pipeline.run(layers)
    model = PackedModel.from_pipeline_result(result)
    plan = model.plan(spatial_sizes(layers))
    rows = [
        (layer.name, f"{layer.rows}x{layer.columns_before}", layer.columns_after,
         f"{layer.packing_efficiency:.1%}", layer.pruned_weights,
         execution.num_tiles, execution.cycles)
        for layer, execution in zip(result.layers, plan.layers)
    ]
    print(f"packed model: {args.network} at {density:.0%} density, "
          f"alpha={args.alpha}, gamma={args.gamma}, "
          f"{args.array_rows}x{args.array_cols} array")
    print(format_table(
        ["layer", "shape", "combined cols", "packing eff.", "pruned weights",
         "tiles", "cycles"], rows))
    summary = model.summary(plan)
    pruned_total = sum(layer.pruned_weights for layer in result.layers)
    print(f"model totals: {summary['num_layers']} layers, "
          f"{summary['total_tiles']} tiles, {summary['total_cycles']} cycles, "
          f"utilization {summary['utilization']:.1%}, "
          f"packing efficiency {summary['packing_efficiency']:.1%}, "
          f"{summary['total_nonzeros']} nonzeros "
          f"({pruned_total} pruned by Algorithm 3), "
          f"MX fan-in {summary['multiplexing_degree']}")
    if args.trace_out is not None:
        from repro.obs.export import chrome_trace_from_pipeline, \
            write_chrome_trace

        events = chrome_trace_from_pipeline(result)
        written = write_chrome_trace(args.trace_out, events)
        print(f"pipeline trace: {len(events)} events -> {written} "
              "(open in Perfetto / chrome://tracing)")
    return 0


def _command_quantize_model(args: argparse.Namespace) -> int:
    if not MIN_BITS <= args.bits <= MAX_BITS:
        print(f"error: --bits must be in [{MIN_BITS}, {MAX_BITS}], "
              f"got {args.bits}", file=sys.stderr)
        return 2
    if not 0.0 < args.percentile <= 100.0:
        print(f"error: --percentile must be in (0, 100], got {args.percentile}",
              file=sys.stderr)
        return 2
    run_cfg = FAST_RUN.scaled(seed=args.seed, image_size=args.image_size,
                              model_scale=args.model_scale)
    model = quant_sweep.sparsified_model(args.model, run_cfg,
                                         density=args.density, seed=args.seed)
    train, test = prepare_data(DATASET_FOR_MODEL[args.model], run_cfg)
    calibration_images = train.images[:args.calibration_batches * args.batch_size]
    with packing_pipeline(alpha=args.alpha, gamma=args.gamma,
                          workers=args.workers, seed=args.seed) as pipeline:
        packed = PackedModel.from_model(model, pipeline=pipeline)

    quantized = QuantizedPackedModel(packed, bits=args.bits,
                                     calibration=args.calibration,
                                     percentile=args.percentile)
    quantized.calibrate(calibration_images)
    outputs = quantized.forward(test.images, batch_size=args.batch_size)
    predictions = np.argmax(outputs, axis=1)
    # One exact forward serves both the report and the bits sweep below.
    exact_outputs = packed.forward(test.images, batch_size=args.batch_size)
    exact_predictions = np.argmax(exact_outputs, axis=1)
    agreement = float(np.mean(predictions == exact_predictions))
    accuracy = float(np.mean(predictions == test.labels))

    print(f"quantized packed model: {args.model} at {args.bits} bits, "
          f"density {args.density:.0%}, alpha={args.alpha}, gamma={args.gamma}, "
          f"calibration={args.calibration} on "
          f"{len(calibration_images)} samples")
    print(format_table(
        ["layer", "weight rmse", "input rmse", "input saturation",
         "divergence rmse", "tiles", "cycles"],
        [(r.name, f"{r.weight_rmse:.2e}", f"{r.input_rmse:.2e}",
          f"{r.input_saturation:.2%}", f"{r.divergence_rmse:.2e}",
          r.num_tiles, r.cycles) for r in quantized.layer_report()]))
    summary = quantized.summary()
    print(f"model totals at {args.bits} bits: "
          f"{summary['quantized_tiles']} tiles, "
          f"{summary['quantized_cycles']} cycles, "
          f"output divergence rmse {summary['divergence_rmse']:.2e}, "
          f"exact-prediction agreement {agreement:.1%}, "
          f"test accuracy {accuracy:.3f}")

    # The requested width is already fully evaluated above — seed its sweep
    # row from those numbers instead of re-calibrating and re-forwarding.
    report_point = {
        "bits": args.bits,
        "agreement": agreement,
        "accuracy": accuracy,
        "output_rmse": float(np.sqrt(np.mean((outputs - exact_outputs) ** 2))),
        "quantized_cycles": summary["quantized_cycles"],
    }
    sweep = quant_sweep.sweep_packed(
        packed, calibration_images=calibration_images,
        eval_images=test.images, eval_labels=test.labels,
        bits_values=[bits for bits in quant_sweep.BITS_SWEEP
                     if bits != args.bits],
        calibration=args.calibration, percentile=args.percentile,
        batch_size=args.batch_size, exact_outputs=exact_outputs)
    points = sorted(sweep["points"] + [report_point],
                    key=lambda point: point["bits"])
    print("accuracy vs bits:")
    print(format_table(
        ["bits", "agreement", "accuracy", "output rmse", "quantized cycles"],
        [(point["bits"], f"{point['agreement']:.1%}",
          f"{point['accuracy']:.3f}", f"{point['output_rmse']:.2e}",
          point["quantized_cycles"]) for point in points]))
    return 0


def _model_spec_for(args: argparse.Namespace) -> dict:
    """The build_model spec a packed artifact embeds for self-contained loads."""
    kwargs = {
        "in_channels": 1 if DATASET_FOR_MODEL[args.model] == "mnist" else 3,
        "num_classes": 10,
        "scale": args.model_scale,
    }
    if args.model == "lenet5":
        kwargs["image_size"] = args.image_size
    return {"name": args.model, "kwargs": kwargs}


def _command_save_packed(args: argparse.Namespace) -> int:
    if args.quantize and not MIN_BITS <= args.bits <= MAX_BITS:
        print(f"error: --bits must be in [{MIN_BITS}, {MAX_BITS}], "
              f"got {args.bits}", file=sys.stderr)
        return 2
    run_cfg = FAST_RUN.scaled(seed=args.seed, image_size=args.image_size,
                              model_scale=args.model_scale)
    model = quant_sweep.sparsified_model(args.model, run_cfg,
                                         density=args.density, seed=args.seed)
    with packing_pipeline(alpha=args.alpha, gamma=args.gamma,
                          workers=args.workers, seed=args.seed) as pipeline:
        packed = PackedModel.from_model(model, pipeline=pipeline)
    artifact: PackedModel | QuantizedPackedModel = packed
    if args.quantize:
        train, _ = prepare_data(DATASET_FOR_MODEL[args.model], run_cfg)
        calibration_images = train.images[:args.calibration_batches
                                          * args.batch_size]
        artifact = QuantizedPackedModel(packed, bits=args.bits,
                                        calibration=args.calibration,
                                        percentile=args.percentile)
        artifact.calibrate(calibration_images)
    path = save_packed(artifact, args.out, model_spec=_model_spec_for(args),
                       compress=not args.no_compress)
    info = artifact_info(path)
    kind = info["kind"]
    print(f"saved {kind} artifact: {path} ({info['file_bytes'] / 1024:.0f} KiB, "
          f"format v{info['format_version']})")
    print(f"  {args.model} at density {args.density:.0%}, alpha={args.alpha}, "
          f"gamma={args.gamma}, {len(info['layers'])} packed layers"
          + (f", {args.bits}-bit calibrated ({args.calibration})"
         if args.quantize else ""))
    return 0


def _command_load_packed(args: argparse.Namespace) -> int:
    from repro.combining.serialization import verify_artifact

    try:
        verified = verify_artifact(args.path)
    except FileNotFoundError:
        print(f"error: {args.path} does not exist", file=sys.stderr)
        return 2
    except PackedArtifactError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    info = verified["info"]
    layers = verified["layers"]
    config = info["pipeline_config"]
    config_text = (f"alpha={config['alpha']}, gamma={config['gamma']}, "
                   f"engines {config['grouping_engine']}/"
                   f"{config['prune_engine']}" if config else "unrecorded")
    if not info["has_model_state"]:
        model_text = "absent (matrix-only)"
    elif info["model_spec"] is not None:
        model_text = f"embedded ({info['model_spec']['name']})"
    else:
        model_text = "state only (load with model=...)"
    print(f"packed artifact: {info['path']} "
          f"({info['file_bytes'] / 1024:.0f} KiB, format "
          f"v{info['format_version']}, kind {info['kind']})")
    print(f"  pipeline: {config_text}; array "
          f"{info['array_rows']}x{info['array_cols']}; nn model {model_text}")
    rows = [
        (meta["name"], f"{packed.num_rows}x{packed.original_shape[1]}",
         packed.num_groups, f"{packed.packing_efficiency():.1%}",
         meta["fingerprint"][:12])
        for meta, packed in zip(info["layers"], layers)
    ]
    print(format_table(
        ["layer", "shape", "combined cols", "packing eff.", "fingerprint"],
        rows))
    if info["kind"] == "quantized":
        quantized_meta = info["quantized"]
        print(f"  quantized at {quantized_meta['bits']} bits "
              f"({quantized_meta['calibration']} calibration); frozen scales:")
        print(format_table(
            ["layer", "input scale", "weight scale"],
            [(meta["name"], f"{input_scale:.3e}", f"{weight_scale:.3e}")
             for meta, input_scale, weight_scale
             in zip(quantized_meta["layers"], verified["input_scales"],
                    verified["weight_scales"])]))
    print(f"integrity: all {len(layers)} layer fingerprints verified")
    return 0


def _format_latency(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


def _latency_rows(label: str, digest: dict[str, float]) -> tuple:
    return (label, _format_latency(digest["p50"]),
            _format_latency(digest["p90"]), _format_latency(digest["p99"]),
            _format_latency(digest["mean"]), _format_latency(digest["max"]))


def _print_slowest_layers(slowest: list[dict]) -> None:
    if not slowest:
        print("no layer timings recorded")
        return
    print(format_table(
        ["slowest layers", "total", "batches", "mean/batch"],
        [(row["layer"], f"{row['total_seconds'] * 1e3:.3f}ms",
          f"{row['batches']}", _format_latency(row["mean_seconds"]))
         for row in slowest]))


def _print_traces(traces: list[dict]) -> None:
    for trace in traces:
        spans = " -> ".join(
            f"{span['name']} {_format_latency(span['seconds'])}"
            for span in trace["spans"])
        coalesce = next((span for span in trace["spans"]
                         if span["name"] == "coalesce"), None)
        flush = (coalesce["attributes"].get("flush_reason", "?")
                 if coalesce else "?")
        print(f"  {trace['trace_id']} model={trace['model']} "
              f"total={_format_latency(trace['seconds'])} "
              f"flush={flush}: {spans}")


def _print_operational(operational: dict) -> None:
    """Rolling-window quantiles, SLO verdicts, and exporter scrape results."""
    windows = operational["windows"]
    window_rows = [_latency_rows(kind, windows[kind])
                   for kind in ("queued", "service", "total")
                   if windows.get(kind, {}).get("count")]
    if window_rows:
        print(format_table(
            ["rolling window", "p50", "p90", "p99", "mean", "max"],
            window_rows))
    print(f"rolling window: {windows['requests']} requests, "
          f"{windows['failures']} failures")
    slo = operational["slo"]
    if slo["rules"]:
        print(format_table(
            ["slo rule", "kind", "value", "target", "verdict"],
            [(rule["name"], rule["kind"],
              (_format_latency(rule["value"])
               if rule["kind"] == "latency_quantile"
               else f"{rule['value']:.4g}"),
              (_format_latency(rule["target"])
               if rule["kind"] == "latency_quantile"
               else f"{rule['target']:.4g}"),
              rule["verdict"]) for rule in slo["rules"]]))
        print(f"slo verdict: {slo['overall']}")
    exporter = operational.get("exporter")
    if exporter is not None:
        print(f"exporter: {exporter['url']} — /health "
              f"{exporter['health_status']}, /metrics "
              f"{exporter['metrics_status']} "
              f"({exporter['metrics_lines']} lines)")
    events = operational.get("events", [])
    if events:
        kinds = {}
        for event in events:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        print("lifecycle events: " + ", ".join(
            f"{kind}={count}" for kind, count in sorted(kinds.items())))


def _command_serve_bench(args: argparse.Namespace) -> int:
    from repro.serving.bench import default_slo_rules, run_serving_benchmark

    if not 0.0 <= args.max_wait <= 1.0:
        print(f"error: --max-wait must be in [0, 1] seconds, "
              f"got {args.max_wait}", file=sys.stderr)
        return 2
    if args.slo is not None and args.slo <= 0.0:
        print(f"error: --slo must be a positive latency target in "
              f"milliseconds, got {args.slo}", file=sys.stderr)
        return 2
    slo_rules = (default_slo_rules(latency_target=args.slo / 1e3)
                 if args.slo is not None else None)
    try:
        results = run_serving_benchmark(
            args.path, requests=args.requests, max_batch=args.max_batch,
            max_wait=args.max_wait, image_size=args.image_size,
            seed=args.seed, workers=args.workers, backend=args.backend,
            profile=args.profile, trace=args.trace,
            slo_rules=slo_rules, export_port=args.export_port)
    except FileNotFoundError:
        print(f"error: {args.path} does not exist", file=sys.stderr)
        return 2
    except (PackedArtifactError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    cold = results["cold_start"]
    throughput = results["throughput"]
    shape = "x".join(str(side) for side in results["sample_shape"])
    print(f"serving benchmark: {args.path} ({results['kind']}, "
          f"requests of shape {shape}, backend={args.backend}, "
          f"workers={args.workers})")
    print(format_table(
        ["cold start", "seconds"],
        [("load artifact", f"{cold['load_seconds']:.4f}"),
         ("re-pack pipeline", f"{cold['repack_seconds']:.4f}"),
         ("load speedup", f"{cold['speedup']:.1f}x")]))
    print(format_table(
        ["serving", "requests/s", "seconds", "mean batch"],
        [("one-at-a-time", f"{throughput['sequential_throughput']:.0f}",
          f"{throughput['sequential_seconds']:.4f}",
          f"{throughput['sequential_mean_batch']:.1f}"),
         (f"batched (max {args.max_batch})",
          f"{throughput['batched_throughput']:.0f}",
          f"{throughput['batched_seconds']:.4f}",
          f"{throughput['batched_mean_batch']:.1f}")]))
    plan_cache = throughput["batched_plan_cache"]
    print(f"batching speedup {throughput['speedup']:.1f}x over "
          f"{throughput['requests']} single-sample requests; responses "
          f"bit-identical to direct forward: "
          f"{throughput['bit_identical_to_direct']}")
    print(f"accounting plan cache (batched run): {plan_cache['hits']} hits, "
          f"{plan_cache['misses']} misses"
          + (" (per-process caches each pay their own misses)"
             if args.backend == "process" else ""))
    print(format_table(
        ["latency (batched run)", "p50", "p90", "p99", "mean", "max"],
        [_latency_rows("queued", throughput["queued_seconds"]),
         _latency_rows("service", throughput["service_seconds"])]))
    flush = throughput["flush_reasons"]
    print("flush reasons: " + ", ".join(f"{reason}={flush[reason]}"
                                        for reason in sorted(flush)))
    if "operational" in throughput:
        _print_operational(throughput["operational"])
    if args.profile:
        _print_slowest_layers(throughput.get("slowest_layers", []))
    if args.trace:
        trace_stats = throughput["trace_stats"]
        print(f"traces: {trace_stats['recorded']} recorded, "
              f"{trace_stats['retained']} retained "
              f"(capacity {trace_stats['capacity']}); last 3:")
        _print_traces(throughput["traces"][-3:])
    if args.swaps > 0:
        from repro.serving.bench import hot_swap_benchmark

        try:
            swap = hot_swap_benchmark(
                args.path, swaps=args.swaps, max_batch=args.max_batch,
                max_wait=args.max_wait, workers=args.workers,
                backend=args.backend, image_size=args.image_size,
                seed=args.seed)
        except (PackedArtifactError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(format_table(
            ["hot swap", "value"],
            [("cutovers", f"{swap['swaps']}"),
             ("requests under swap", f"{swap['requests']}"),
             ("swap seconds (mean)", f"{swap['swap_seconds']['mean']:.4f}"),
             ("swap seconds (max)", f"{swap['swap_seconds']['max']:.4f}"),
             ("old-artifact responses", f"{swap['old_bits']}"),
             ("new-artifact responses", f"{swap['new_bits']}"),
             ("final generation", f"{swap['final_generation']}")]))
        print(f"hot swap under traffic: every response bit-identical to one "
              f"artifact's direct forward: {swap['bit_exact']} "
              f"({swap['failures']} failed, {swap['mismatched']} ambiguous)")
    return 0


def _command_serve_export(args: argparse.Namespace) -> int:
    from repro.obs.export import chrome_trace_from_traces, write_chrome_trace
    from repro.serving.bench import observability_report

    if not 0.0 <= args.max_wait <= 1.0:
        print(f"error: --max-wait must be in [0, 1] seconds, "
              f"got {args.max_wait}", file=sys.stderr)
        return 2
    try:
        report = observability_report(
            args.path, requests=args.requests, max_batch=args.max_batch,
            max_wait=args.max_wait, image_size=args.image_size,
            seed=args.seed, workers=args.workers, backend=args.backend,
            trace_limit=args.traces)
    except FileNotFoundError:
        print(f"error: {args.path} does not exist", file=sys.stderr)
        return 2
    except (PackedArtifactError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    events = chrome_trace_from_traces(report["traces"])
    written = write_chrome_trace(args.out, events)
    print(f"served {report['requests']} requests "
          f"({report['throughput']:.0f} req/s, backend={args.backend}, "
          f"workers={args.workers})")
    print(f"serving trace: {len(report['traces'])} traces, "
          f"{len(events)} events -> {written} "
          "(open in Perfetto / chrome://tracing)")
    return 0


def _command_serve_stats(args: argparse.Namespace) -> int:
    from repro.serving.bench import observability_report

    if not 0.0 <= args.max_wait <= 1.0:
        print(f"error: --max-wait must be in [0, 1] seconds, "
              f"got {args.max_wait}", file=sys.stderr)
        return 2
    try:
        report = observability_report(
            args.path, requests=args.requests, max_batch=args.max_batch,
            max_wait=args.max_wait, image_size=args.image_size,
            seed=args.seed, workers=args.workers, backend=args.backend,
            trace_limit=args.traces)
    except FileNotFoundError:
        print(f"error: {args.path} does not exist", file=sys.stderr)
        return 2
    except (PackedArtifactError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        print(json.dumps(report["metrics_snapshot"], indent=2))
        return 0
    if args.format == "prometheus":
        from repro.obs import prometheus_from_snapshot

        print(prometheus_from_snapshot(report["metrics_snapshot"]), end="")
        return 0
    stats = report["stats"]
    totals = stats["totals"]
    print(f"serving stats: {args.path} ({report['kind']}, "
          f"backend={args.backend}, workers={args.workers})")
    print(format_table(
        ["totals", "value"],
        [("requests", f"{totals['requests']}"),
         ("batches", f"{totals['batches']}"),
         ("failures", f"{totals['failures']}"),
         ("mean batch size", f"{totals['mean_batch_size']:.1f}"),
         ("throughput (req/s)", f"{report['throughput']:.0f}")]))
    print(format_table(
        ["latency", "p50", "p90", "p99", "mean", "max"],
        [_latency_rows("queued", totals["queued_seconds"]),
         _latency_rows("service", totals["service_seconds"])]))
    flush = totals["flush_reasons"]
    print("flush reasons: " + ", ".join(f"{reason}={flush[reason]}"
                                        for reason in sorted(flush)))
    _print_slowest_layers(report["slowest_layers"])
    print(f"recent traces (last {len(report['traces'])}):")
    _print_traces(report["traces"])
    return 0


def _command_train(args: argparse.Namespace) -> int:
    run = FAST_RUN.scaled(train_samples=args.train_samples, image_size=args.image_size,
                          epochs_per_round=args.epochs_per_round,
                          final_epochs=args.final_epochs, model_scale=args.model_scale,
                          seed=args.seed)
    config = combine_config(run, alpha=args.alpha, beta=args.beta, gamma=args.gamma,
                            target_fraction=args.target_fraction, lr=args.lr)
    result = run_column_combining(args.model, run, config)
    trainer = result["trainer"]
    history = result["history"]
    print(format_table(
        ["epoch", "phase", "test accuracy", "nonzeros"],
        [(r.epoch, r.phase, r.test_accuracy, r.nonzeros) for r in history.records]))
    report = packing_report(trainer.packed_layers())
    print(format_table(
        ["layer", "shape", "combined cols", "packing eff.", "mux", "tiles before",
         "tiles after"],
        report.to_rows()))
    print(f"final accuracy {history.final_accuracy:.3f}, "
          f"utilization {result['utilization']:.1%}, "
          f"nonzeros {trainer.initial_nonzeros} -> {history.final_nonzeros}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    runner = EXPERIMENTS[args.name]
    kwargs = {}
    if "workers" in inspect.signature(runner).parameters:
        kwargs["workers"] = args.workers
    elif args.workers != 1:
        print(f"note: experiment {args.name!r} has no parallel sweep; "
              "running serially", file=sys.stderr)
    runner(**kwargs)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pack":
        return _command_pack(args)
    if args.command == "pack-model":
        return _command_pack_model(args)
    if args.command == "quantize-model":
        return _command_quantize_model(args)
    if args.command == "save-packed":
        return _command_save_packed(args)
    if args.command == "load-packed":
        return _command_load_packed(args)
    if args.command == "serve-bench":
        return _command_serve_bench(args)
    if args.command == "serve-export":
        return _command_serve_export(args)
    if args.command == "serve-stats":
        return _command_serve_stats(args)
    if args.command == "train":
        return _command_train(args)
    if args.command == "experiment":
        return _command_experiment(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
