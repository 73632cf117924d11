"""Parallel execution of replicated sweeps.

Replications are embarrassingly parallel: each builds its own world from a
spawned seed and shares nothing.  This module fans sweep points out over a
``multiprocessing`` pool while keeping results **bit-identical** to the
serial path — every task carries its own explicitly-spawned seed, so the
schedule cannot affect the streams (the determinism rule the HPC guides
insist on).

Workers re-import ``repro`` (fork or spawn both work); tasks are coarse
(one full parameter point per task) so IPC overhead is negligible next to
the seconds-long tracking runs inside.

Before a pool starts, the parent builds every face map that more than one
task needs (the ``seed_stride=0`` campaign shape) into its in-memory
cache; forked workers inherit those entries copy-on-write and never
rebuild them.  Worlds only one task visits still build in their worker,
so distinct-world sweeps keep their parallel builds.

With ``obs_dir`` set, the sweep runs under :mod:`repro.obs`: workers
enable the metrics registry (via the ``REPRO_OBS`` environment variable,
which both fork and spawn children inherit), snapshot it per task, and
ship the snapshot back with the records; the parent merges every
snapshot and writes ``metrics.json`` + ``trace.jsonl`` into ``obs_dir``.
Pool workers do not write to the parent's trace file — inline runs
(``n_workers=1``) emit full per-round events, pooled runs emit
sweep-level events only.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

from repro.config import SimulationConfig
from repro.network.faults import FaultModel
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.io import write_metrics
from repro.obs.tracing import trace_event
from repro.sim.experiments import SweepRecord, replicate_mean_error

__all__ = ["parallel_sweep", "recommended_workers"]


def recommended_workers(n_tasks: int) -> int:
    """A sane pool size: no more workers than tasks or cores.

    The ``REPRO_WORKERS`` environment variable overrides the core count —
    CI and users can pin the pool size without threading a parameter
    through every call site (still clamped to the task count; there is
    never a reason to fork more workers than tasks).
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None and env != "":
        try:
            forced = int(env)
        except ValueError:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {env!r}") from None
        if forced < 1:
            raise ValueError(f"REPRO_WORKERS must be >= 1, got {forced}")
        return max(1, min(n_tasks, forced))
    cores = os.cpu_count() or 1
    return max(1, min(n_tasks, cores))


def _prewarm_shared_worlds(
    configs: "Sequence[SimulationConfig]",
    task_seeds: Sequence[int],
    *,
    n_reps: int,
    deployment: str,
) -> None:
    """Build, in this process, the face maps more than one task will need.

    A world is keyed by ``(config, task seed)`` (configs are frozen and
    hash by value).  Nothing is built when the cache could not keep it —
    caching disabled or a zero-size LRU — and never more maps than the
    LRU holds, so no prewarmed entry is evicted before a worker forks.
    """
    from repro.geometry.cache import default_face_map_cache, face_map_cache_enabled
    from repro.sim.scenario import replication_scenarios

    budget = default_face_map_cache().maxsize if face_map_cache_enabled() else 0
    visits = Counter(zip(configs, task_seeds))
    for (config, task_seed), n_tasks in visits.items():
        if n_tasks < 2:
            continue
        for scenario in replication_scenarios(
            config, n_reps=n_reps, seed=task_seed, deployment=deployment
        ):
            if budget <= 0:
                return
            scenario.face_map  # builds (or loads) into the process cache
            budget -= 1


def _run_point(args: tuple) -> "tuple[list[SweepRecord], dict | None]":
    config_dict, tracker_names, n_reps, seed, params, deployment, faults = args
    grid_cfg = config_dict.pop("grid")
    from repro.config import GridConfig

    # per-task metrics: reset before, snapshot after, so a reused worker
    # (or the inline path) reports each point exactly once
    observing = obs_metrics.enabled()
    if observing:
        obs_metrics.reset()
    config = SimulationConfig(**config_dict, grid=GridConfig(**grid_cfg))
    records = replicate_mean_error(
        config,
        tracker_names,
        n_reps=n_reps,
        seed=seed,
        deployment=deployment,
        params=params,
        faults=faults,
    )
    return records, obs_metrics.snapshot() if observing else None


@contextmanager
def _sweep_environment(cache_dir, obs_dir):
    """Scoped env/config for one sweep: disk cache dir + observability.

    Everything mutated here — ``REPRO_FACE_CACHE_DIR``, ``REPRO_OBS``,
    the process cache configuration, the active tracer — is restored on
    exit, so repeated sweeps (and tests using ``tmp_path``) cannot leak
    state into each other.
    """
    from repro.geometry.cache import configure_face_map_cache, default_face_map_cache

    prev_cache_env = os.environ.get("REPRO_FACE_CACHE_DIR")
    prev_obs_env = os.environ.get("REPRO_OBS")
    prev_disk_dir = default_face_map_cache().disk_dir
    prev_tracer = obs_tracing._tracer
    prev_tracer_checked = obs_tracing._env_tracer_checked
    out: "Path | None" = None
    try:
        if cache_dir is not None:
            # environment propagates to fork and spawn workers alike, and
            # reconfiguring the parent cache covers the inline path too
            os.environ["REPRO_FACE_CACHE_DIR"] = str(cache_dir)
            configure_face_map_cache(disk_dir=str(cache_dir))
        if obs_dir is not None:
            out = Path(obs_dir)
            out.mkdir(parents=True, exist_ok=True)
            os.environ["REPRO_OBS"] = "1"
            # install directly (not via set_tracer) so the previous tracer
            # stays open and can be restored on exit
            obs_tracing._tracer = obs_tracing.Tracer(out / "trace.jsonl")
            obs_tracing._env_tracer_checked = True
        yield out
    finally:
        if cache_dir is not None:
            if prev_cache_env is None:
                os.environ.pop("REPRO_FACE_CACHE_DIR", None)
            else:
                os.environ["REPRO_FACE_CACHE_DIR"] = prev_cache_env
            configure_face_map_cache(disk_dir=prev_disk_dir)
        if obs_dir is not None:
            if prev_obs_env is None:
                os.environ.pop("REPRO_OBS", None)
            else:
                os.environ["REPRO_OBS"] = prev_obs_env
            if obs_tracing._tracer is not None and obs_tracing._tracer is not prev_tracer:
                obs_tracing._tracer.close()
            obs_tracing._tracer = prev_tracer
            obs_tracing._env_tracer_checked = prev_tracer_checked


def parallel_sweep(
    points: "Sequence[tuple[SimulationConfig, dict]]",
    tracker_names: Sequence[str],
    *,
    n_reps: int = 3,
    seed: int = 0,
    deployment: str = "random",
    n_workers: "int | None" = None,
    seed_stride: int = 1000,
    cache_dir: "str | os.PathLike | None" = None,
    faults: "FaultModel | Sequence[FaultModel | None] | None" = None,
    obs_dir: "str | os.PathLike | None" = None,
) -> list[SweepRecord]:
    """Run ``replicate_mean_error`` for every (config, params) point in a pool.

    Parameters
    ----------
    points : list of (config, params-dict) pairs; params tag the records.
    tracker_names : trackers evaluated at every point.
    n_reps / deployment : as in :func:`replicate_mean_error`.
    seed : base seed; point *i* uses ``seed + i * seed_stride`` — identical
        to a serial loop, so parallel and serial runs agree exactly.
    n_workers : pool size (default: min(cores, points), overridable via
        ``REPRO_WORKERS``); 1 = run inline (no pool, handy under coverage
        tools and debuggers).
    cache_dir : when given, workers share an on-disk face-map cache at
        this directory (see :mod:`repro.geometry.cache`): a deployment
        divided by one task is loaded, not rebuilt, by every other task —
        across workers and across repeated ``parallel_sweep`` calls.
        Results are bit-identical either way.  The environment mutation
        is scoped to this call.
    faults : optional fault model applied to every replication's batch
        stream (forwarded to :func:`replicate_mean_error`); a list or
        tuple instead assigns one model (or None) per point — the
        fault-campaign case, where each point injects a different model.
    obs_dir : when given, the sweep runs with :mod:`repro.obs` enabled
        (in workers too) and writes ``metrics.json`` — the merged
        registries of every task — plus ``trace.jsonl`` into this
        directory.  Results are bit-identical with or without it.  After
        the call the process registry holds the merged sweep metrics.
    """
    if not points:
        raise ValueError("no sweep points given")
    if isinstance(faults, (list, tuple)):
        if len(faults) != len(points):
            raise ValueError(
                f"per-point faults need one entry per point: "
                f"{len(faults)} models for {len(points)} points"
            )
        per_point_faults = list(faults)
    else:
        per_point_faults = [faults] * len(points)
    task_seeds = [seed + i * seed_stride for i in range(len(points))]
    with _sweep_environment(cache_dir, obs_dir) as obs_out:
        tasks = [
            (
                {k: v for k, v in cfg.as_dict().items()},
                list(tracker_names),
                n_reps,
                task_seeds[i],
                dict(params),
                deployment,
                per_point_faults[i],
            )
            for i, (cfg, params) in enumerate(points)
        ]
        if n_workers is None:
            n_workers = recommended_workers(len(tasks))
        prewarm_snap = None
        if n_workers == 1:
            nested = [_run_point(t) for t in tasks]
        else:
            if obs_out is not None:
                obs_metrics.reset()
            _prewarm_shared_worlds(
                [cfg for cfg, _ in points], task_seeds, n_reps=n_reps, deployment=deployment
            )
            if obs_out is not None:
                # the prewarm builds count toward the sweep's cache totals
                prewarm_snap = obs_metrics.snapshot()
            ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
            with ctx.Pool(processes=n_workers) as pool:
                nested = pool.map(_run_point, tasks)
        records = [rec for group, _ in nested for rec in group]
        if obs_out is not None:
            merged = obs_metrics.MetricsRegistry()
            for snap in [prewarm_snap, *(snap for _, snap in nested)]:
                if snap:
                    merged.merge(snap)
            merged.counter("sweep.points").inc(len(tasks))
            merged.counter("sweep.records").inc(len(records))
            merged.counter("sweep.workers").inc(n_workers)
            # stable schema: cache counters always present, even at zero
            for name in (
                "geometry.cache.hits",
                "geometry.cache.misses",
                "geometry.cache.disk_hits",
                "geometry.cache.evictions",
            ):
                merged.counter(name)
            trace_event(
                "sweep",
                points=len(tasks),
                workers=n_workers,
                records=len(records),
                trackers=list(tracker_names),
            )
            write_metrics(
                obs_out / "metrics.json",
                merged,
                extra={
                    "sweep": {
                        "points": len(tasks),
                        "n_reps": n_reps,
                        "seed": seed,
                        "workers": n_workers,
                        "trackers": list(tracker_names),
                    }
                },
            )
            # leave the merged totals in the process registry for callers
            # (the CLI prints them after the sweep returns)
            obs_metrics.reset()
            obs_metrics.registry().merge(merged.snapshot())
    return records
