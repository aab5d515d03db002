"""Shared plumbing of the benchmark: spans, exact percentiles, environment.

Every workload measures the program from outside, by timing calls into the
public functions of its layers.  Percentiles are computed from the exact
per-unit samples a workload collects (linear interpolation between order
statistics); the program's fixed-bucket histogram digests are never used,
because their bucket edges step by about 29% and would quantize every
reported latency.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import resource
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave artifacts and trace files; inside the checkout.
OUT_DIR = ROOT / ".perfbench_out"


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of exact samples (linear interpolation)."""
    samples = np.asarray(values, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("no samples to take a percentile of")
    return float(np.percentile(samples, q))


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (children excluded)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop_children() -> None:
    """Stop and wait for every process this run started.

    Worker pools are shut down where they are used; this catches any
    worker an error left behind, and the resource tracker that starting a
    ``spawn`` worker launches, which would otherwise outlive the run
    until it notices the closed pipe.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def seeded_int(*keys: int) -> int:
    """A 32-bit seed derived from ``keys`` (stable across runs and Pythons)."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


class Outcome:
    """Counts of checked operations: attempted, and failed a check or raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``(name, start_ns, end_ns, span_id, parent_id, trace_id)``;
    spans nested inside :meth:`span` blocks get the enclosing span as
    parent, and spans of one unit of work share a trace id.  A disabled
    tracer records nothing; its blocks enter and leave an empty context.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self._stack: list[int] = []
        self.trace_id = 0

    def new_trace(self) -> None:
        self.trace_id += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0, 0, span_id, parent, self.trace_id))
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (name, start, end, span_id, parent,
                                   self.trace_id)

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: int = -1) -> int:
        """Record an already-timed span; returns its id."""
        span_id = len(self.spans)
        if self.enabled:
            self.spans.append((name, start_ns, end_ns, span_id, parent,
                               self.trace_id))
        return span_id

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Shadow ``owner.attribute`` with a version that runs in a span."""
        inner: Callable = getattr(owner, attribute)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(owner, attribute, traced)

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) / 1e6 for span_name, start, end, *_
                in self.spans if span_name == name]

    def total_ms(self, name: str) -> float:
        return float(sum(self.durations_ms(name)))

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as a Chrome trace (``chrome://tracing``)."""
        events = [{"name": name, "ph": "X", "ts": start / 1e3,
                   "dur": (end - start) / 1e3, "pid": 1, "tid": 1,
                   "args": {"span": span_id, "parent": parent,
                            "trace": trace}}
                  for name, start, end, span_id, parent, trace in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def _git_sha() -> str | None:
    """HEAD's sha when the checkout is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def source_digest() -> str:
    """sha256 over the program's source files, to tell code versions apart."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


#: Host-normalized metrics are quoted for a host on which the chosen
#: reference loop of :class:`HostSpeed` takes this long.
NOMINAL_REFERENCE_MS = {"small": 1.0, "bulk": 10.0}

#: End-to-end metrics whose value moves with the host's speed, which a
#: workload quotes for the nominal host.
HOST_BOUND = ("setup_s", "throughput", "p50_ms", "p90_ms")


class HostSpeed:
    """How fast the host currently runs a fixed reference loop.

    The ``small`` loop mixes interpreter work and small BLAS calls, like
    small-batch serving; the ``bulk`` loop runs a matrix product and
    elementwise passes over arrays the size of a training batch's
    activations, like ``repro.nn``, grouping full-size weight matrices and
    full-batch serving.
    Neither runs any of the program's code, so its time moves only with
    the host.  On a shared box it swings by up to 2x over minutes as
    neighbours come and go; the program's times move with it.  Dividing a
    time by :attr:`factor` quotes it for a host whose loop takes
    :data:`NOMINAL_REFERENCE_MS`.  Samples are taken between units of
    work, never while the program runs.
    """

    def __init__(self, kind: str) -> None:
        rng = np.random.default_rng(0)
        if kind == "small":
            self._operands = (rng.random((64, 64)),)
        elif kind == "bulk":
            self._operands = tuple(
                rng.random(shape).astype(np.float32)
                for shape in ((2304, 288), (288, 32), (64, 32, 12, 12)))
        else:
            raise ValueError(f"unknown reference loop {kind!r}")
        self.kind = kind
        self.samples: list[float] = []

    def _loop(self) -> None:
        if self.kind == "small":
            matrix, = self._operands
            total = 0
            for value in range(20000):
                total += value
            for _ in range(20):
                matrix @ matrix
        else:
            columns, filters, maps = self._operands
            for _ in range(10):
                columns @ filters
                np.maximum(maps, 0.5)
                maps.sum(axis=(0, 2, 3))
                maps.transpose(0, 2, 3, 1).copy()

    def sample(self, repeats: int = 3) -> None:
        times = []
        for _ in range(repeats):
            started = time.perf_counter_ns()
            self._loop()
            times.append((time.perf_counter_ns() - started) / 1e6)
        self.samples.append(percentile(times, 50))

    @property
    def reference_ms(self) -> float:
        return percentile(self.samples, 50)

    @property
    def factor(self) -> float:
        """How much slower than nominal the host ran during this run."""
        return self.reference_ms / NOMINAL_REFERENCE_MS[self.kind]


def environment() -> dict[str, Any]:
    """The fingerprint recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": _git_sha(),
        "source_digest": source_digest(),
    }
