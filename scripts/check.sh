#!/usr/bin/env bash
# Quick local check: fast tier-1 signal plus the differential / golden suites.
#
#   scripts/check.sh            # fast tests only (benchmarks are marked slow)
#   scripts/check.sh -k metric  # extra pytest args are forwarded to the fast run
#
# The quick tier is budgeted: the `-m "not slow"` run must finish within
# QUICK_TIER_BUDGET_SECONDS (default 10) so the fast signal stays fast —
# new tests that blow the budget belong in the slow tier.
#
# The full tier-1 gate remains `PYTHONPATH=src python -m pytest -x -q`.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

QUICK_TIER_BUDGET_SECONDS="${QUICK_TIER_BUDGET_SECONDS:-10}"

echo "== engine differential suites (grouping + conflict pruning) =="
python -m pytest -x -q tests/test_combining_grouping_engines.py \
    tests/test_combining_pruning_engines.py

echo "== packed-model inference differential + golden regression suites =="
python -m pytest -x -q tests/test_combining_inference.py \
    tests/test_golden_regression.py

echo "== quantized inference differential + accuracy-vs-bits sweep suites =="
python -m pytest -x -q -m "not slow" tests/test_combining_quantized.py \
    tests/test_experiments_quant_sweep.py

echo "== serving suites (serialization round-trip + batcher/registry/server) =="
python -m pytest -x -q -m "not slow" tests/test_combining_serialization.py \
    tests/test_serving.py tests/test_serving_hotswap.py

echo "== execution-plan differential suite (plan vs dense oracle, V2/mmap loads) =="
python -m pytest -x -q -m "not slow" tests/test_combining_plan.py

echo "== batch-invariant kernel suite (blocked kernels vs einsum reference and per-sample loop) =="
python -m pytest -x -q tests/test_combining_kernels.py

echo "== observability suites (metrics/tracing/logging + serving obs) =="
python -m pytest -x -q -m "not slow" tests/test_obs.py \
    tests/test_serving_obs.py

echo "== operational observability suite (windows/SLO/events/exporter) =="
python -m pytest -x -q -m "not slow" tests/test_obs_operational.py

echo "== fast test suite (pytest -m 'not slow') =="
quick_start=$(date +%s)
# --durations names the slowest tests, so a budget breach shows its cause.
python -m pytest -x -q -m "not slow" --durations=5 \
    --ignore=tests/test_combining_grouping_engines.py \
    --ignore=tests/test_combining_pruning_engines.py \
    --ignore=tests/test_combining_inference.py \
    --ignore=tests/test_golden_regression.py \
    --ignore=tests/test_combining_quantized.py \
    --ignore=tests/test_experiments_quant_sweep.py \
    --ignore=tests/test_combining_serialization.py \
    --ignore=tests/test_serving.py \
    --ignore=tests/test_serving_hotswap.py \
    --ignore=tests/test_combining_plan.py \
    --ignore=tests/test_combining_kernels.py \
    --ignore=tests/test_obs.py \
    --ignore=tests/test_serving_obs.py \
    --ignore=tests/test_obs_operational.py "$@"
quick_elapsed=$(( $(date +%s) - quick_start ))
echo "quick tier took ${quick_elapsed}s (budget ${QUICK_TIER_BUDGET_SECONDS}s)"
if (( quick_elapsed > QUICK_TIER_BUDGET_SECONDS )); then
    echo "error: quick tier exceeded its ${QUICK_TIER_BUDGET_SECONDS}s budget;" \
         "mark heavyweight tests 'slow' or raise QUICK_TIER_BUDGET_SECONDS" >&2
    exit 1
fi
