"""Benchmarks of the two conflict-pruning engines on large synthetic layers.

Measures Algorithm 3 on 512x1024 filter matrices at several densities with
both the one-pass scatter engine (``engine="fast"``) and the per-group
Python loop (``engine="reference"``), pinning the fast path's speedup in
the perf trajectory.  The reference engine's cost grows with the number of
groups it dense-slices (hundreds at α = 8 on 1024 columns), which is what
every prune round of Algorithm 1 and every sweep's pack step pays.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.combining import group_columns
from repro.combining.pruning import conflict_mask

ROWS, COLS = 512, 1024
DENSITIES = (0.05, 0.16, 0.3)


def synthetic_layer(density: float, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(ROWS, COLS))
            * (rng.random((ROWS, COLS)) < density))


@pytest.fixture(scope="module", params=DENSITIES, ids=lambda d: f"density{d}")
def grouped_layer(request):
    matrix = synthetic_layer(request.param)
    grouping = group_columns(matrix, alpha=8, gamma=0.5)
    return request.param, matrix, grouping


def test_bench_prune_fast(benchmark, grouped_layer):
    density, matrix, grouping = grouped_layer
    keep = benchmark(conflict_mask, matrix, grouping, "fast")
    assert keep.shape == matrix.shape


def test_bench_prune_reference(benchmark, grouped_layer):
    density, matrix, grouping = grouped_layer
    keep = benchmark.pedantic(conflict_mask, args=(matrix, grouping, "reference"),
                              rounds=3, iterations=1)
    assert keep.shape == matrix.shape


#: Alternating rounds, and the back-to-back calls each engine times per round.
ROUNDS, CALLS = 5, 5


def _seconds(func, *args) -> float:
    start = time.perf_counter()
    func(*args)
    return time.perf_counter() - start


def test_fast_prune_engine_speedup_on_512x1024_layer():
    """The acceptance bar: >= 3x over the reference on a 512x1024 layer at
    the paper's 16% density (α = 8, γ = 0.5 keeps ~130+ groups for the
    reference loop to dense-slice; the scatter engine measures ~3.2-3.9x
    unloaded).  The speedup compares the engines' median times over
    ``ROUNDS`` alternating rounds.  Each round warms one engine with a call
    and then times ``CALLS`` calls back to back, as the ``test_bench_prune_*``
    benchmarks above do, so drifting machine load reaches both engines.
    Strict per-call interleaving would evict the scatter engine's
    array-sized temporaries between its calls, and that reads ~10% low
    (2.8-3.2x where back-to-back medians read 3.2-3.5x on a 2-core box)."""
    matrix = synthetic_layer(0.16)
    grouping = group_columns(matrix, alpha=8, gamma=0.5)
    runs: dict[str, list[float]] = {"fast": [], "reference": []}
    for _ in range(ROUNDS):
        for engine, seconds in runs.items():
            conflict_mask(matrix, grouping, engine)
            seconds.extend(_seconds(conflict_mask, matrix, grouping, engine)
                           for _ in range(CALLS))
    fast = float(np.median(runs["fast"]))
    reference = float(np.median(runs["reference"]))
    speedup = reference / fast
    assert speedup >= 3.0, (
        f"fast prune engine only {speedup:.1f}x faster (median {fast:.4f}s "
        f"vs {reference:.4f}s over {ROUNDS} rounds of {CALLS} calls)")
