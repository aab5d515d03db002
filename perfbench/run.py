"""Benchmark runner: one workload per process, metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pack --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The run pins itself to one core.  ``--trace 0`` measures with tracing off
and prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` measures half the time untraced and half traced, and prints
the per-layer metrics plus the tracing overhead (traced minus untraced
median time per unit of work).  Per-layer metrics of layers a workload
does not run read 0.  ``--workload all`` runs every workload in a fresh
process, one after another.

Time and rate metrics that a workload lists in ``host_bound`` are quoted
for a nominal host, timed by the reference loop the workload names in
``host_reference`` (see ``harness.HostSpeed``); the report shows them as
measured too.  ``setup_s`` is the import time plus the median of five
complete set-ups (build or load, start, first checked result).  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; lines before it report the environment fingerprint, the
host reference and each metric with its unit.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the box has two cores and the serving workloads run a
# client thread beside the server's worker.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for _path in (str(ROOT), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

WORKLOADS = {
    "pack": ("perfbench.pack", "PackWorkload"),
    "train": ("perfbench.train", "TrainWorkload"),
    "serve-steady": ("perfbench.serve", "SteadyWorkload"),
    "serve-mixed": ("perfbench.serve", "MixedWorkload"),
}
SETUP_REPEATS = 5
#: Of a workload's ``host_bound`` metrics (see ``HostSpeed``), these are
#: rates, multiplied by the run's host factor; the others are times,
#: divided by it.
RATE_METRICS = ("throughput",)


def _declared() -> dict[str, dict[str, str]]:
    """Metric name -> unit of each metric kind, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the result object.

    A workload object takes the seed and offers ``setup()`` (timed, run
    several times), ``prepare()`` (untimed, e.g. reference outputs),
    ``measure(seconds, tracer, host)`` returning per-unit times in ms,
    ``end_to_end(units)``, ``layer_metrics(tracer, units)``,
    ``exact_metrics()``, ``close()``, an ``outcome`` counting checks,
    ``host_bound``, the end-to-end metrics quoted for the nominal host, and
    ``host_reference``, the reference loop that times the host.
    """
    module_name, class_name = WORKLOADS[name]
    workload_class = getattr(importlib.import_module(module_name), class_name)
    from perfbench.harness import (
        OUT_DIR, HostSpeed, Tracer, environment, peak_rss_mb, percentile)

    import_seconds = time.perf_counter() - _STARTED
    fingerprint = environment()
    # One core for the whole run: the host reference then times the core
    # the program's threads run on (the two cores of the box slow down
    # independently).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    host = HostSpeed(workload_class.host_reference)
    host.sample(repeats=9)
    workload = workload_class(seed)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        workload.prepare()
        values = {}
        raw = {}
        host.sample(repeats=9)
        if trace:
            untraced = workload.measure(seconds / 2, Tracer(False), host)
            tracer = Tracer(True)
            traced = workload.measure(seconds / 2, tracer, host)
            values.update(workload.layer_metrics(tracer, traced))
            values["tracing.overhead_ms"] = (percentile(traced, 50)
                                             - percentile(untraced, 50))
            tracer.write_chrome_trace(
                OUT_DIR / f"{name}-seed{seed}.trace.json")
        else:
            units = workload.measure(seconds, Tracer(False), host)
            raw.update(workload.end_to_end(units))
            raw["setup_s"] = import_seconds + percentile(setups, 50)
            values["ok_frac"] = workload.outcome.ok_frac
            values["peak_rss_mb"] = peak_rss_mb()
        values.update(workload.exact_metrics())
    finally:
        workload.close()
    host.sample(repeats=9)
    values["host.reference_ms"] = host.reference_ms
    for metric, value in raw.items():
        if metric not in workload.host_bound:
            values[metric] = value
        elif metric in RATE_METRICS:
            values[metric] = value * host.factor
        else:
            values[metric] = value / host.factor

    kinds = _declared()
    unknown = sorted(set(values) - set(kinds["end_to_end"])
                     - set(kinds["per_layer"]))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    declared = kinds["per_layer" if trace else "end_to_end"]
    if not trace:
        missing = sorted(set(declared) - set(values))
        if missing:
            raise KeyError(f"{name} did not measure {missing}")
    print(f"# {name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"import_s={import_seconds:.4f} setups_s="
          + ",".join(f"{duration:.4f}" for duration in setups))
    print("# env " + json.dumps(
        {**fingerprint, "host_reference_ms": {
            "loop": host.kind, "median": host.reference_ms,
            "samples": len(host.samples), "min": min(host.samples),
            "max": max(host.samples)}},
        sort_keys=True))
    metrics = {}
    for metric, unit in declared.items():
        value = float(values.get(metric, 0.0))
        metrics[metric] = {"value": value, "unit": unit}
        if metric in values:
            measured = (f"  (as measured {raw[metric]:.6g})"
                        if metric in workload.host_bound else "")
            print(f"# {metric:40s} {value:14.6g} {unit}{measured}")
    outcome = workload.outcome
    return {"correct": outcome.failed == 0 and outcome.attempted > 0,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": metrics}


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in its own process; metrics keyed ``workload/metric``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    from perfbench.harness import stop_children
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    finally:
        stop_children()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
