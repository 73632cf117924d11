"""Workload definitions: what one benchmark batch runs and how it is checked.

A *batch* is one call into a public sweep entry point with fresh worlds
drawn from a batch seed; an *operation* is one (sweep point, tracker)
record of that call.  A run repeats batches with seeds ``seed*1000 + i``
until its time is up, always completing the workload's first
``accuracy_batches`` batches, over which the mean errors are reported
(so they are a pure function of the run seed).

Imported only inside a worker interpreter, after the import timestamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.config import GridConfig, SimulationConfig
from repro.faultlab import campaign_config, run_campaign
from repro.sim.experiments import SweepRecord, sweep_n_sensors

#: Trackers of the Fig. 11 comparison.
FIG11_TRACKERS = ("fttt", "fttt-exhaustive", "pm", "direct-mle")
DENSE_TRACKERS = ("fttt", "fttt-extended", "fttt-exhaustive", "pm", "direct-mle")
CAMPAIGN_TRACKERS = ("fttt", "fttt-robust", "fttt-zero")
CAMPAIGN_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    config: SimulationConfig
    trackers: tuple[str, ...]
    n_points: int
    n_reps: int
    accuracy_batches: int
    #: ``run(batch_seed, n_workers)`` -> records; ``n_workers`` is None for
    #: single-process workloads.
    run: Callable[[int, "int | None"], "list[SweepRecord]"]
    n_workers: "int | None" = None

    @property
    def operations(self) -> int:
        """Records one batch must return: points x trackers."""
        return self.n_points * len(self.trackers)

    def rounds(self, records: "list[SweepRecord]") -> int:
        """Tracker-rounds localized by these records."""
        return sum(r.n_reps for r in records) * self.config.n_localizations


def _sweep(config: SimulationConfig, trackers, n_reps: int):
    def run(batch_seed: int, n_workers: "int | None") -> "list[SweepRecord]":
        return sweep_n_sensors(
            [config.n_sensors], list(trackers), base_config=config, n_reps=n_reps, seed=batch_seed
        )

    return run


def _campaign(config: "SimulationConfig | None", smoke: bool):
    def run(batch_seed: int, n_workers: "int | None") -> "list[SweepRecord]":
        if smoke:
            return run_campaign(
                families=("dropout", "byzantine"),
                intensities=(0.0, 0.2),
                config=config,
                n_reps=1,
                seed=batch_seed,
                n_workers=n_workers,
            ).records
        # the campaign's defaults, transport included (no share_maps)
        return run_campaign(seed=batch_seed, n_workers=n_workers).records

    return run


def make_workload(name: str, *, smoke: bool = False) -> Workload:
    """The named workload at full size, or at the smoke size the tests use."""
    if name == "dense-n40":
        cfg = SimulationConfig(n_sensors=40, grid=GridConfig(cell_size_m=1.0))
        if smoke:
            cfg = cfg.with_(n_sensors=12, duration_s=10.0, grid=GridConfig(cell_size_m=4.0))
        return Workload(name, cfg, DENSE_TRACKERS, 1, 1, 2 if smoke else 4, _sweep(cfg, DENSE_TRACKERS, 1))
    if name == "paper-n10":
        cfg = SimulationConfig(n_sensors=10)
        reps = 12
        if smoke:
            cfg = cfg.with_(duration_s=10.0, grid=GridConfig(cell_size_m=4.0))
            reps = 2
        return Workload(
            name, cfg, FIG11_TRACKERS, 1, reps, 2 if smoke else 12, _sweep(cfg, FIG11_TRACKERS, reps)
        )
    if name == "fault-campaign":
        cfg = campaign_config(quick=smoke)
        points, reps = (4, 1) if smoke else (20, 2)
        return Workload(
            name,
            cfg,
            CAMPAIGN_TRACKERS,
            points,
            reps,
            2 if smoke else 7,
            _campaign(cfg if smoke else None, smoke),
            n_workers=CAMPAIGN_WORKERS,
        )
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")


WORKLOAD_NAMES = ("dense-n40", "paper-n10", "fault-campaign")


def check_records(wl: Workload, records: "list[SweepRecord]") -> "list[str]":
    """Problems with one batch's records (empty when they are correct)."""
    problems = []
    if len(records) != wl.operations:
        problems.append(f"{len(records)} records, expected {wl.operations} (points x trackers)")
    diagonal = wl.config.field_size_m * math.sqrt(2.0)
    for r in records:
        if r.tracker not in wl.trackers:
            problems.append(f"unexpected tracker {r.tracker!r}")
        for field in ("mean_error", "p95_error"):
            value = getattr(r, field)
            if not (math.isfinite(value) and 0.0 <= value < diagonal):
                problems.append(f"{r.tracker} {r.params}: {field}={value!r} outside [0, {diagonal:.1f})")
        if r.n_reps != wl.n_reps:
            problems.append(f"{r.tracker} {r.params}: n_reps={r.n_reps}, expected {wl.n_reps}")
    return problems


def fingerprint(records: "list[SweepRecord]") -> "list[tuple]":
    """Bit-exact identity of a batch's records (floats by their hex form)."""

    def h(x: float) -> str:
        return float(x).hex()

    return [
        (
            r.tracker,
            tuple(sorted(r.params.items())),
            h(r.mean_error),
            h(r.std_error),
            h(r.mean_of_std),
            h(r.p95_error),
            h(r.lost_track_rate),
            tuple(h(m) for m in r.per_rep_means),
        )
        for r in records
    ]
