"""Fault-injection campaign driver: robustness curves per fault family.

A campaign sweeps fault type × intensity over a fixed set of trackers,
fanning the points out through :func:`repro.sim.parallel.parallel_sweep`
(so campaigns inherit its scoped environment handling and its serial /
parallel bit-identity), and emits robustness curves — mean error, p95
error, and lost-track rate vs fault intensity — as ``robustness.csv``
plus the sweep's merged ``metrics.json``.

Every point runs with the *same* base seed (``seed_stride=0``): all
(family, intensity) cells share identical worlds and noise, so a curve's
shape is the fault's doing, not replication luck, and trackers within a
cell see byte-identical batch streams.  It also means a pooled campaign
divides only ``n_reps`` worlds: ``parallel_sweep`` builds them once in the
parent and every forked worker inherits them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.config import GridConfig, SimulationConfig
from repro.network.faults import (
    ByzantineRSS,
    CalibrationDrift,
    IndependentDropout,
    RegionalOutage,
    StuckReading,
)
from repro.sim.experiments import SweepRecord
from repro.sim.io import records_to_csv
from repro.sim.parallel import parallel_sweep

__all__ = [
    "FAULT_FAMILIES",
    "VALUE_FAULT_FAMILIES",
    "DEFAULT_TRACKERS",
    "DEFAULT_INTENSITIES",
    "CampaignResult",
    "campaign_config",
    "build_fault",
    "run_campaign",
]

DEFAULT_TRACKERS = ("fttt", "fttt-robust", "fttt-zero")
DEFAULT_INTENSITIES = (0.0, 0.1, 0.2, 0.3)


def _dropout(intensity: float, config: SimulationConfig):
    return IndependentDropout(p=intensity)


def _byzantine(intensity: float, config: SimulationConfig):
    return ByzantineRSS(fraction=intensity)


def _stuck(intensity: float, config: SimulationConfig):
    # stick within the first third of the run, so the fault has time to bite
    return StuckReading(
        fraction=intensity, horizon_rounds=max(1, config.n_localizations // 3)
    )


def _drift(intensity: float, config: SimulationConfig):
    # intensity 0.3 -> 0.6 dB/round: a few dozen rounds in, biases rival
    # the RSS differences the pair orderings are built from
    return CalibrationDrift(drift_db_per_round=2.0 * intensity)


def _regional(intensity: float, config: SimulationConfig):
    return RegionalOutage(
        radius_m=0.2 * config.field_size_m, p_start=intensity, duration_rounds=4
    )


FAULT_FAMILIES: "dict[str, Callable[[float, SimulationConfig], object]]" = {
    "dropout": _dropout,
    "byzantine": _byzantine,
    "stuck": _stuck,
    "drift": _drift,
    "regional": _regional,
}

#: The families whose faults corrupt *values* (the sensors still report) —
#: the regime Eq. 6/7 alone cannot defend and the degradation policy targets.
VALUE_FAULT_FAMILIES = ("byzantine", "stuck", "drift")


def campaign_config(*, quick: bool = False) -> SimulationConfig:
    """The campaign's default world: every sensor hears the whole field.

    With the paper's 40 m sensing range, most pair values are already
    ``*`` from geometry and the curves mostly measure omission handling.
    Full coverage isolates what the campaign is after: faulty sensors
    that *keep reporting* plausible-looking values.
    """
    return SimulationConfig(
        n_sensors=12,
        duration_s=20.0 if quick else 40.0,
        sensing_range_m=150.0,
        grid=GridConfig(cell_size_m=4.0 if quick else 2.5),
    )


def build_fault(family: str, intensity: float, config: SimulationConfig):
    """Instantiate one family's model at the given intensity (None at 0 stays a model)."""
    try:
        builder = FAULT_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown fault family {family!r}; choose from {sorted(FAULT_FAMILIES)}"
        ) from None
    if not (0.0 <= intensity <= 1.0):
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")
    return builder(float(intensity), config)


@dataclass(frozen=True)
class CampaignResult:
    """A finished campaign: the records plus where the artifacts landed."""

    records: "list[SweepRecord]"
    csv_path: "Path | None" = None
    metrics_path: "Path | None" = None

    def curve(self, family: str, tracker: str) -> "list[SweepRecord]":
        """One robustness curve: records for (family, tracker), by intensity."""
        recs = [
            r
            for r in self.records
            if r.params.get("fault") == family and r.tracker == tracker
        ]
        return sorted(recs, key=lambda r: r.params["intensity"])


def run_campaign(
    families: "Sequence[str] | None" = None,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    trackers: Sequence[str] = DEFAULT_TRACKERS,
    *,
    config: "SimulationConfig | None" = None,
    n_reps: int = 2,
    seed: int = 0,
    deployment: str = "random",
    out_dir: "str | os.PathLike | None" = None,
    n_workers: "int | None" = None,
    cache_dir: "str | os.PathLike | None" = None,
) -> CampaignResult:
    """Sweep fault type × intensity and emit robustness curves.

    Parameters
    ----------
    families : fault families to inject (default: all of
        :data:`FAULT_FAMILIES`).  Intensity semantics per family:
        dropout/regional — per-round probability; byzantine/stuck —
        victim fraction; drift — 2·intensity dB/round bias growth.
    intensities : shared intensity grid (include 0.0 for the clean anchor).
    trackers : tracker names evaluated at every cell, over shared batches.
    config : campaign world (default :func:`campaign_config`).
    n_reps / seed / deployment / n_workers / cache_dir : forwarded to
        :func:`parallel_sweep`; all cells share the same base seed.
    out_dir : when given, writes ``robustness.csv`` and the sweep's
        ``metrics.json`` + ``trace.jsonl`` there.
    """
    if families is None:
        families = tuple(FAULT_FAMILIES)
    if not families or not intensities or not trackers:
        raise ValueError("need at least one family, intensity, and tracker")
    config = config or campaign_config()
    points = []
    faults = []
    for family in families:
        for intensity in intensities:
            points.append(
                (config, {"fault": family, "intensity": float(intensity)})
            )
            faults.append(build_fault(family, intensity, config))
    records = parallel_sweep(
        points,
        list(trackers),
        n_reps=n_reps,
        seed=seed,
        deployment=deployment,
        n_workers=n_workers,
        seed_stride=0,  # matched worlds across every cell
        cache_dir=cache_dir,
        faults=faults,
        obs_dir=out_dir,
    )
    csv_path = metrics_path = None
    if out_dir is not None:
        out = Path(out_dir)
        csv_path = records_to_csv(records, out / "robustness.csv")
        metrics_path = out / "metrics.json"  # written by parallel_sweep
    return CampaignResult(records=records, csv_path=csv_path, metrics_path=metrics_path)
