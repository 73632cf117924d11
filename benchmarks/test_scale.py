"""Scale-out benchmark: tiled build and packed signatures.

The perf-smoke run behind ``BENCH_scale.json``: a small (n=20) instance
of :mod:`repro.scalebench` that asserts the *correctness* half of the
scale-out claims unconditionally — bit-identity of tiled/packed builds,
the >= 3.5x packed-signature memory cut, no leaked tiling buffer — and
the *physical* half (parallel speedups) only where the hardware can
express it (``os.cpu_count() >= 2``; a single-core runner cannot speed
anything up, so there the numbers are recorded, not asserted).

Run:  pytest benchmarks/test_scale.py -s
"""

from __future__ import annotations

import json
import os

from conftest import emit

from repro.geometry.tiling import owned_segment_names
from repro.scalebench import bench_build, run_scale_bench

_MULTICORE = (os.cpu_count() or 1) >= 2


def _fmt_build(rec: dict) -> "list[str]":
    lines = [
        f"n={rec['n_sensors']}: {rec['n_faces']} faces over {rec['n_cells']} cells "
        f"({rec['n_pairs']} pairs)",
        f"  serial build     {rec['serial_s'] * 1e3:8.1f} ms",
    ]
    for w in sorted(rec["tiled_s"], key=int):
        lines.append(
            f"  tiled w={w:<2s}       {rec['tiled_s'][w] * 1e3:8.1f} ms "
            f"({rec['speedup'][w]:.2f}x)"
        )
    lines.append(
        f"  signatures: dense {rec['dense_signature_bytes']} B -> "
        f"packed {rec['packed_signature_bytes']} B "
        f"({rec['memory_ratio']:.2f}x smaller)"
    )
    return lines


def test_scale_build_and_packing(results_dir):
    """Tiled+packed builds are bit-identical and >= 3.5x smaller in memory."""
    rec = bench_build(20, (1, 2), cell=2.5, seed=0)
    emit("scale: build + packing (n=20)", _fmt_build(rec))

    assert rec["identical"], "tiled/packed build diverged from the serial builder"
    assert rec["memory_ratio"] >= 3.5, (
        f"packed signatures only {rec['memory_ratio']:.2f}x smaller than dense"
    )
    assert owned_segment_names() == [], "tiled build left its output buffer behind"
    if _MULTICORE:
        # physical claim, only meaningful with real parallel hardware; the
        # bound is loose because this smoke instance is small
        assert rec["speedup"]["2"] > 0.5


def test_scale_bench_json(results_dir):
    """One-command regeneration: run_scale_bench writes a complete BENCH_scale.json."""
    out = results_dir / "BENCH_scale.json"
    result = run_scale_bench((20,), (1, 2), seed=0, out=out)
    emit(
        "scale: BENCH_scale.json smoke",
        [
            f"cpu_count={result['cpu_count']}",
            f"build sizes: {[r['n_sensors'] for r in result['build']]}",
            f"wrote {out}",
        ],
    )
    on_disk = json.loads(out.read_text())
    assert on_disk["cpu_count"] == result["cpu_count"]
    assert [r["n_sensors"] for r in on_disk["build"]] == [20]
    assert all(r["identical"] for r in on_disk["build"])
    assert all(r["memory_ratio"] >= 3.5 for r in on_disk["build"])
