"""Scale-out benchmark: build-time and packing-memory curves.

``fttt bench`` (and ``benchmarks/test_scale.py``) drive this module to
regenerate ``BENCH_scale.json`` from one command:

* **build curves** — cold face-map construction time over n sensors for
  the serial builder and the tiled builder at each worker count, with a
  bit-identity cross-check against the serial arrays;
* **packing curves** — dense vs 2-bit packed signature residency.

Every record carries ``cpu_count``: parallel speedups are physical, so a
single-core runner legitimately reports ~1x there while the packing
numbers (which are core-independent) still hold.  The headline target
(3x build at n=100/4 workers) is expected on >= 4 free cores.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.geometry.faces import build_face_map
from repro.geometry.grid import Grid
from repro.network.deployment import random_deployment

__all__ = ["bench_build", "run_scale_bench", "DEFAULT_OUT"]

DEFAULT_OUT = "BENCH_scale.json"

_BENCH_C = 1.25  # representative mid-range uncertainty constant

_CHECK_FIELDS = ("signatures", "centroids", "cell_face", "cell_counts", "adj_indptr", "adj_indices")


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock of *repeats* runs — the standard noise filter."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _maps_identical(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in _CHECK_FIELDS)


def bench_build(
    n_sensors: int,
    workers_list: "tuple[int, ...]",
    *,
    field: float = 100.0,
    cell: float = 2.5,
    seed: int = 0,
    repeats: int = 1,
) -> dict:
    """Cold build-time curve at one deployment size, plus packing residency."""
    rng = np.random.default_rng(seed)
    nodes = random_deployment(n_sensors, field, rng, min_separation=2.0 * cell)
    grid = Grid.square(field, cell)

    serial_s = _best_of(lambda: build_face_map(nodes, grid, _BENCH_C), repeats)
    baseline = build_face_map(nodes, grid, _BENCH_C)
    packed_map = build_face_map(nodes, grid, _BENCH_C, packed=True)
    identical = _maps_identical(baseline, packed_map)

    builds: dict[str, float] = {}
    for w in workers_list:
        builds[str(w)] = _best_of(
            lambda w=w: build_face_map(nodes, grid, _BENCH_C, workers=w, packed=True), repeats
        )
        tiled = build_face_map(nodes, grid, _BENCH_C, workers=w, packed=True)
        identical = identical and _maps_identical(baseline, tiled)

    dense_bytes = int(baseline.signatures.nbytes)
    packed_bytes = packed_map.packed_store().nbytes
    return {
        "n_sensors": int(n_sensors),
        "n_pairs": int(baseline.n_pairs),
        "n_cells": int(grid.n_cells),
        "n_faces": int(baseline.n_faces),
        "serial_s": serial_s,
        "tiled_s": builds,
        "speedup": {w: serial_s / t if t > 0 else float("inf") for w, t in builds.items()},
        "dense_signature_bytes": dense_bytes,
        "packed_signature_bytes": packed_bytes,
        "memory_ratio": dense_bytes / packed_bytes if packed_bytes else float("inf"),
        "identical": bool(identical),
    }


def run_scale_bench(
    sizes: "tuple[int, ...]" = (20, 50, 100),
    workers: "tuple[int, ...]" = (1, 4),
    *,
    field: float = 100.0,
    cell: float = 2.5,
    seed: int = 0,
    repeats: int = 1,
    out: "str | os.PathLike | None" = DEFAULT_OUT,
) -> dict:
    """Full scale benchmark; writes/updates *out* (``BENCH_scale.json``).

    Returns the result dict: ``build`` is one record per deployment size
    (see :func:`bench_build`).  Existing keys in an old *out* file are
    replaced wholesale — the file is regenerated, not merged.
    """
    cpu = os.cpu_count() or 1
    result = {
        "benchmark": "scale-out layer (tiled build / packed signatures)",
        "cpu_count": cpu,
        "config": {
            "sizes": [int(n) for n in sizes],
            "workers": [int(w) for w in workers],
            "field_m": field,
            "cell_m": cell,
            "seed": seed,
            "repeats": repeats,
        },
        "build": [
            bench_build(n, tuple(workers), field=field, cell=cell, seed=seed, repeats=repeats)
            for n in sizes
        ],
        "note": (
            "parallel speedups are physical: expect ~1x on a single-core "
            "runner (see cpu_count); packing memory_ratio and bit-identity "
            "are core-independent"
        ),
    }
    if out is not None:
        path = Path(out)
        path.write_text(json.dumps(result, indent=2, sort_keys=False) + "\n")
        result["path"] = str(path)
    return result
