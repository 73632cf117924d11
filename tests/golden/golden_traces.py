"""Golden-trace scenarios and their bit-exact serialization.

A golden trace pins the *numbers* a fixed scenario produces — every
per-round estimate of every tracker, serialized with ``float.hex`` so the
comparison is bit-for-bit, not within-epsilon.  Any change to the
geometry kernels, the matchers, the fault fill, or the RNG plumbing that
perturbs a single ULP shows up as a diff against the committed fixture.

Regenerate (only after an *intentional* numerical change) with::

    PYTHONPATH=src python tools/make_golden_traces.py

and review the diff of ``tests/golden/*.json`` like any other code.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.config import GridConfig, SimulationConfig
from repro.network.faults import (
    ByzantineRSS,
    CompositeFaults,
    CrashFailures,
    IndependentDropout,
    Schedule,
)
from repro.sim.runner import run_all_trackers
from repro.sim.scenario import make_scenario

GOLDEN_DIR = Path(__file__).resolve().parent
FORMAT_VERSION = 1

_CONFIG = SimulationConfig(duration_s=8.0, n_sensors=8, grid=GridConfig(cell_size_m=4.0))
_TRACKERS = ["fttt", "fttt-exhaustive", "direct-mle"]
_SCENARIO_SEED = 11
_RNG_SEED = 42
_N_ROUNDS = 10

SCENARIOS: dict[str, dict[str, Any]] = {
    # fault-free world: pins the clean Algorithm 1 + matcher pipeline
    "baseline": {"faults": None},
    # transient dropouts + permanent crashes: pins the Eq. 6 fill, the
    # Eq. 7 masking, and the fault models' rng consumption order
    "faulty": {
        "faults": lambda: CompositeFaults(
            [
                IndependentDropout(p=0.25),
                CrashFailures(crash_fraction=0.25, horizon_rounds=_N_ROUNDS),
            ]
        )
    },
    # lying sensors + a scripted blackout: pins ByzantineRSS's per-sample
    # replacement stream and the degradation path of ``fttt-robust`` —
    # rounds 4-6 leave only two reporters, so the quorum check must hold
    # the previous face (sq_distance serializes as inf)
    "byzantine": {
        "faults": lambda: CompositeFaults(
            [
                ByzantineRSS(fraction=0.25),
                Schedule(outages=tuple((s, 4, 7) for s in range(6))),
            ]
        ),
        "trackers": ["fttt", "fttt-robust", "fttt-zero"],
    },
    # the fault-free world of ``baseline`` run through every tracker the
    # other fixtures leave out: pins PM's Viterbi, the extended-mode soft
    # signatures, and the range-based and filtering baselines
    "field": {
        "faults": None,
        "trackers": [
            "pm",
            "fttt-extended",
            "range-mle",
            "pknn",
            "weighted-centroid",
            "kalman",
            "particle",
            "nearest",
        ],
    },
}


def _hex(x: float) -> str:
    return float(x).hex()


def _hex_list(a: np.ndarray) -> list[str]:
    return [_hex(v) for v in np.asarray(a, dtype=float).ravel()]


def build_trace(name: str) -> dict[str, Any]:
    """Run the named golden scenario and serialize every estimate."""
    spec = SCENARIOS[name]
    scenario = make_scenario(_CONFIG, seed=_SCENARIO_SEED)
    faults = spec["faults"]() if spec["faults"] is not None else None
    results = run_all_trackers(
        scenario,
        spec.get("trackers", _TRACKERS),
        rng=_RNG_SEED,
        faults=faults,
        n_rounds=_N_ROUNDS,
    )
    trackers: dict[str, Any] = {}
    for tracker_name, result in results.items():
        rounds = []
        for est, true_pos in zip(result.estimates, result.true_positions):
            rounds.append(
                {
                    "t": _hex(est.t),
                    "position": _hex_list(est.position),
                    "face_ids": [int(f) for f in est.face_ids],
                    "sq_distance": _hex(est.sq_distance),
                    "n_reporting": int(est.n_reporting),
                    "true_position": _hex_list(true_pos),
                }
            )
        trackers[tracker_name] = {
            "rounds": rounds,
            "mean_error": _hex(result.mean_error),
        }
    return {
        "format_version": FORMAT_VERSION,
        "scenario": name,
        "config": {
            "n_sensors": _CONFIG.n_sensors,
            "field_size_m": _CONFIG.field_size_m,
            "cell_size_m": _CONFIG.grid.cell_size_m,
            "scenario_seed": _SCENARIO_SEED,
            "rng_seed": _RNG_SEED,
            "n_rounds": _N_ROUNDS,
        },
        "trackers": trackers,
    }


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"trace_{name}.json"


def write_golden(name: str) -> Path:
    path = golden_path(name)
    path.write_text(json.dumps(build_trace(name), indent=2, sort_keys=True) + "\n")
    return path


def load_golden(name: str) -> dict[str, Any]:
    return json.loads(golden_path(name).read_text())
