"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.combining import execplan
from repro.combining.kernels import reference_conv_pointwise, reference_matmul
from repro.data import synthetic_cifar10, synthetic_mnist

#: Frozen JSON fixtures the golden regression harness diffs against.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden", action="store_true", default=False,
        help="rewrite the golden JSON fixtures under tests/golden/ from the "
             "current engine outputs instead of comparing against them")


@pytest.fixture
def golden_check(request: pytest.FixtureRequest):
    """Compare a JSON-serializable payload against a frozen golden fixture.

    ``golden_check(name, payload)`` asserts ``payload`` equals the stored
    ``tests/golden/<name>.json`` exactly (floats survive the JSON round
    trip bit-for-bit via ``repr``-based shortest-round-trip encoding).
    ``max_ulp`` maps top-level keys holding float arrays whose bits are
    not platform-defined (BLAS output) to a bound in units in the last
    place; those keys are compared with ``np.testing.assert_array_max_ulp``
    and every other key stays exact.
    Running pytest with ``--regen-golden`` rewrites the fixture instead,
    so intentional engine changes are re-frozen in one command and show
    up as a reviewable diff.  When several tests (e.g. the engine-combo
    parametrizations) feed the same fixture name during one regen run,
    the first writes and the rest are compared against it — a divergence
    between engines fails the regen instead of being silently overwritten
    by whichever combo ran last.
    """
    regen = request.config.getoption("--regen-golden")
    session = request.session
    regenerated = getattr(session, "_golden_regenerated", None)
    if regenerated is None:
        regenerated = session._golden_regenerated = {}

    def check(name: str, payload, max_ulp: dict[str, int] | None = None
              ) -> None:
        path = GOLDEN_DIR / f"{name}.json"
        encoded = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if regen:
            if name in regenerated:
                assert encoded == regenerated[name], (
                    f"two tests produced different payloads for golden "
                    f"fixture {name!r} during --regen-golden; the engines "
                    "disagree — fix that before refreezing")
                return
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(encoded)
            regenerated[name] = encoded
            return
        assert path.exists(), (
            f"golden fixture {path} is missing; generate it with "
            f"`pytest {request.node.nodeid} --regen-golden`")
        stored = json.loads(path.read_text())
        # Round-trip the payload through JSON so the comparison sees exactly
        # what a regen would have written (e.g. tuples become lists).
        fresh = json.loads(encoded)
        for key, bound in (max_ulp or {}).items():
            np.testing.assert_array_max_ulp(
                np.asarray(fresh.pop(key), dtype=np.float64),
                np.asarray(stored.pop(key), dtype=np.float64), maxulp=bound)
        assert fresh == stored, (
            f"output diverged from frozen golden fixture {path.name}; if the "
            "change is intentional, refreeze with `pytest --regen-golden` "
            "and review the JSON diff")

    return check


@pytest.fixture
def use_kernel(monkeypatch: pytest.MonkeyPatch):
    """Point every plan's batch-invariant ops at one kernel family.

    ``use_kernel("blocked")`` keeps the production kernels;
    ``use_kernel("loops")`` swaps in the einsum reference of
    :mod:`repro.combining.kernels` until the test ends — in this process
    and in every worker process forked after the call (start servers
    afterwards).  The parametrized matrices use it to show that plans and
    serving are bit-transparent on either kernel, with no kernel option
    on any production signature.
    """
    def use(kernel: str) -> None:
        assert kernel in ("blocked", "loops"), kernel
        if kernel == "loops":
            monkeypatch.setattr(execplan, "invariant_conv_pointwise",
                                reference_conv_pointwise)
            monkeypatch.setattr(execplan, "invariant_matmul",
                                reference_matmul)
    return use


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def sparse_matrix(rng: np.random.Generator) -> np.ndarray:
    """A representative sparse filter matrix (24 filters x 40 channels, ~20% dense)."""
    values = rng.normal(size=(24, 40))
    mask = rng.random((24, 40)) < 0.2
    return values * mask


@pytest.fixture(scope="session")
def tiny_mnist():
    """Small synthetic MNIST-like train / test splits shared across tests."""
    train = synthetic_mnist(128, image_size=8, seed=0, split_seed=0)
    test = synthetic_mnist(64, image_size=8, seed=0, split_seed=1)
    return train, test


@pytest.fixture(scope="session")
def tiny_cifar():
    """Small synthetic CIFAR-like train / test splits shared across tests."""
    train = synthetic_cifar10(128, image_size=8, seed=0, split_seed=0)
    test = synthetic_cifar10(64, image_size=8, seed=0, split_seed=1)
    return train, test


def numerical_gradient(func, array: np.ndarray, epsilon: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function with respect to ``array``.

    ``func`` must return a float and must depend on ``array`` *in place*
    (the helper perturbs entries of the array it is given).
    """
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = func()
        flat[index] = original - epsilon
        lower = func()
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2.0 * epsilon)
    return grad


def rewrite_as_v1(path: Path, destination: Path | None = None,
                  compress: bool = True) -> Path:
    """Rewrite a V2 artifact from ``save_packed`` into the V1 layout.

    The library only writes V2 but still reads V1, the format of the
    checked-in golden artifacts.  This rebuilds that layout with plain
    numpy, independently of the library's writer: one ``state.<name>``
    entry per nn parameter (sliced out of the ``blob.<dtype>`` entries),
    no ``state`` / ``buffers`` / ``plan`` metadata, ``format_version: 1``.
    Like the files the old writer produced, the result carries no stored
    content fingerprint, so readers fall back to hashing the file.
    Writes to ``destination`` (default: in place) and returns it.
    """
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(str(arrays.pop("meta")[()]))
    assert meta["format_version"] == 2, meta["format_version"]
    blobs = {key[len("blob."):]: arrays.pop(key)
             for key in list(arrays) if key.startswith("blob.")}
    for name, ref in (meta.pop("state") or {}).items():
        start = int(ref["offset"])
        flat = blobs[ref["blob"]][start:start + int(ref["size"])]
        arrays[f"state.{name}"] = flat.reshape(ref["shape"])
    for key in ("buffers", "plan", "fingerprint"):
        meta.pop(key)
    meta["format_version"] = 1
    arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))
    destination = Path(path if destination is None else destination)
    writer = np.savez_compressed if compress else np.savez
    with open(destination, "wb") as handle:
        writer(handle, **arrays)
    return destination
