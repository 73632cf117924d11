"""Benchmark worker: one workload run inside a fresh interpreter.

Started by ``run.py``, never imported.  It imports the program's entry
points first and prints ``ready <time.monotonic()>`` so the parent can
time the interpreter's set-up, then runs batches of the workload until
``--seconds`` have passed (always at least the workload's accuracy
batches) and prints one ``result {json}`` line of raw figures.

``--trace 0`` runs the batches as they are.  ``--trace 1`` runs each
batch untraced and then traced (for the fault campaign: pooled, inline,
inline traced) and reports the layer figures of the traced copies.
"""

from __future__ import annotations

import time

import repro.cli  # noqa: F401  (the program's import surface is part of set-up)
from workloads import WORKLOAD_NAMES, check_records, fingerprint, make_workload

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402


class Batches:
    """Run bookkeeping: operations attempted/failed, problems, timings."""

    def __init__(self, wl, seed: int, seconds: float) -> None:
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def batch_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def more(self, i: int, minimum: int) -> bool:
        """Start batch *i*?  Always below *minimum*; after that, only if a
        typical batch still fits in the remaining time."""
        if i < minimum:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + statistics.median(self.walls) <= self.seconds

    def run(self, i: int, n_workers, inject: "str | None" = None):
        """One batch call; a raised exception fails all its operations."""
        from repro.geometry.cache import default_face_map_cache

        default_face_map_cache().clear()  # every batch builds its worlds cold
        self.attempted += self.wl.operations
        t0 = time.perf_counter()
        try:
            with _injected_failure(inject):
                records = self.wl.run(self.batch_seed(i), n_workers)
        except Exception:
            wall = time.perf_counter() - t0
            self.failed += self.wl.operations
            print(f"batch {i}: failed\n{traceback.format_exc()}", end="", flush=True)
            return None, wall
        wall = time.perf_counter() - t0
        problems = check_records(self.wl, records)
        if problems:
            self.failed += self.wl.operations
            self.problems += [f"batch {i}: {p}" for p in problems]
            return None, wall
        return records, wall


@contextmanager
def _injected_failure(tracker: "str | None"):
    """Test hook: make ``Scenario.make_tracker(tracker)`` raise inside the block."""
    if tracker is None:
        yield
        return
    from repro.sim.scenario import Scenario

    orig = Scenario.__dict__["make_tracker"]

    def make_tracker(scn, name, **overrides):
        if name == tracker:
            raise RuntimeError(f"injected failure in tracker {name!r}")
        return orig(scn, name, **overrides)

    Scenario.make_tracker = make_tracker
    try:
        yield
    finally:
        Scenario.make_tracker = orig


def mean_errors(wl, records) -> dict:
    """Per-tracker mean error (m) over the given records."""
    out = {}
    for name in wl.trackers:
        vals = [r.mean_error for r in records if r.tracker == name]
        if vals:
            out[name] = sum(vals) / len(vals)
    return out


def run_untraced(wl, b: Batches, inject: "str | None") -> dict:
    accuracy: list = []
    rounds: list[int] = []
    i = 0
    while b.more(i, wl.accuracy_batches):
        records, wall = b.run(i, wl.n_workers, inject if i == 1 else None)
        b.walls.append(wall)
        rounds.append(wl.rounds(records) if records is not None else 0)
        if records is not None and i < wl.accuracy_batches:
            accuracy += records
        i += 1
    errors = mean_errors(wl, accuracy)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "metrics": {
            "rounds_per_s": sum(rounds) / sum(b.walls),
            # ru_maxrss is KiB on Linux; children = the largest reaped child
            "peak_rss_mb": (usage_self + usage_children) / 1024.0,
            "mean_error_m.fttt": errors.get("fttt", 0.0),
            "mean_error_m.trackers": sum(errors.values()) / len(errors) if errors else 0.0,
        },
        "info": {
            "batches": i,
            "accuracy_batches": wl.accuracy_batches,
            "tracker_rounds": sum(rounds),
            "batch_walls_s": [round(w, 4) for w in b.walls],
            "batch_rounds": rounds,
            **{f"mean_error_m.{k}": v for k, v in errors.items()},
        },
        # a tracker the accuracy batches never produced leaves no error to check
        "complete": len(errors) == len(wl.trackers),
    }


def run_traced(wl, b: Batches) -> dict:
    from repro.geometry.cache import default_face_map_cache
    from tracer import LayerTracer, layer_metrics, traced

    tr = LayerTracer(wl.config.field_size_m)
    base_wall = pooled_wall = traced_wall = 0.0
    cache = {"lookups": 0, "hits": 0, "builds": 0}
    i = 0
    while b.more(i, 1):
        t_batch = time.perf_counter()
        reference, wall_u = b.run(i, wl.n_workers)
        if wl.n_workers:
            pooled_wall += wall_u
            inline, wall_u = b.run(i, 1)
            if reference is not None and inline is not None and fingerprint(inline) != fingerprint(reference):
                b.problems.append(f"batch {i}: inline records differ from pooled records")
        base_wall += wall_u
        before = default_face_map_cache().stats()
        with traced(tr):
            records, wall_t = b.run(i, 1 if wl.n_workers else None)
        traced_wall += wall_t
        after = default_face_map_cache().stats()
        hits = sum(after[k] - before[k] for k in ("hits", "disk_hits", "shm_hits"))
        cache["hits"] += hits
        cache["builds"] += after["misses"] - before["misses"]
        cache["lookups"] += hits + after["misses"] - before["misses"]
        if records is not None and reference is not None and fingerprint(records) != fingerprint(reference):
            b.problems.append(f"batch {i}: traced records differ from untraced records")
        b.walls.append(time.perf_counter() - t_batch)
        i += 1
    if tr.counts["bad_rounds"]:
        b.problems.append(f"{tr.counts['bad_rounds']} rounds without a finite estimate inside the field")
    m = layer_metrics(tr, traced_wall)
    m["geometry.cache.hit_ratio"] = cache["hits"] / cache["lookups"] if cache["lookups"] else 0.0
    m["geometry.cache.builds"] = cache["builds"]
    m["sim.parallel.pooled_s"] = pooled_wall
    m["sim.parallel.inline_s"] = base_wall if wl.n_workers else 0.0
    # efficiency only means something where a pool ran; 0 marks "no pool"
    m["sim.parallel.efficiency"] = base_wall / (wl.n_workers * pooled_wall) if wl.n_workers else 0.0
    m["trace.overhead"] = traced_wall / base_wall - 1.0
    return {"metrics": m, "info": {"batches": i}, "complete": True}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--inject-failure", metavar="TRACKER")
    args = ap.parse_args(argv)
    print(f"ready {READY!r}", flush=True)
    if args.import_only:
        return 0

    import numpy
    import scipy

    wl = make_workload(args.workload, smoke=args.smoke)
    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": args.seed,
        "workload": wl.name,
        "trace": args.trace,
    }
    b = Batches(wl, args.seed, args.seconds)
    if args.trace:
        out = run_traced(wl, b)
    else:
        out = run_untraced(wl, b, args.inject_failure)
    for p in b.problems:
        print(f"problem: {p}", flush=True)
    result = {
        "correct": not b.problems and out["complete"],
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": out["metrics"],
        "info": out["info"],
        "env": env,
    }
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
