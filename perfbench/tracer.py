"""Outside-in layer timing: wrap the public functions a batch calls.

The benchmark never edits the program.  For a traced batch it replaces
the public functions and methods it knows the sweep calls with timing
wrappers, runs the batch, and puts the originals back.  Spans nest, so
each layer's *self* time is its wall time minus the spans it called;
the self times of all layers add up to the time spent inside any span,
and ``coverage`` compares that with the batch's wall time.

A wrapper only reads arguments and results and returns the result it
got, so it cannot change what the program computes; the worker checks
that by comparing traced and untraced records bit for bit.
"""

from __future__ import annotations

import functools
import statistics
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

#: Layer name of a tracker's ``track`` call; FTTT variants share a class,
#: so their spans carry the name ``make_tracker`` was given.
_BASELINE_SPANS = {"pm": "baselines.pm.track", "direct-mle": "baselines.direct_mle.track"}


def track_span(tracker_name: str) -> str:
    return _BASELINE_SPANS.get(tracker_name, f"core.tracker.track.{tracker_name}")


class LayerTracer:
    """Span stack with per-layer self/total time, call counts and samples."""

    def __init__(self, field_size_m: float) -> None:
        self.field_size_m = field_size_m
        self._stack: list[list] = []  # [name, start, child seconds]
        self.self_s: "defaultdict[str, float]" = defaultdict(float)
        self.total_s: "defaultdict[str, float]" = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.match_s: list[float] = []  # per single-vector FaceMap.match call
        self.n_faces: list[int] = []  # per uncertain map built
        self.tracker_names: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    @contextmanager
    def span(self, name: str):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield frame
        finally:
            self._stack.pop()
            dur = time.perf_counter() - frame[1]
            frame.append(dur)  # frame[3]: the span's wall time
            self.self_s[name] += dur - frame[2]
            self.total_s[name] += dur
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += dur

    def covered_s(self) -> float:
        return sum(self.self_s.values())

    def check_track(self, result) -> None:
        """Every round: one finite estimate inside the field."""
        pos = np.asarray(result.positions, dtype=float).reshape(-1, 2)
        ok = np.isfinite(pos).all(axis=1) & (pos >= 0.0).all(axis=1) & (pos <= self.field_size_m).all(axis=1)
        self.counts["checked_rounds"] += len(pos)
        self.counts["bad_rounds"] += int((~ok).sum())


class _Patcher:
    """Install wrappers and restore every original on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def _timed(tr: LayerTracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tr.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def traced(tr: LayerTracer):
    """Wrap the program's layer entry points for the duration of the block."""
    import repro.core.extended as extended
    import repro.sim.experiments as experiments
    import repro.sim.runner as runner
    from repro.baselines.direct_mle import DirectMLETracker
    from repro.baselines.path_matching import PathMatchingTracker
    from repro.core.heuristic import HeuristicMatcher
    from repro.core.tracker import FTTTracker
    from repro.faultlab.strawmen import ZeroFillFTTT
    from repro.geometry.faces import FaceMap
    from repro.sim.scenario import Scenario

    p = _Patcher()

    # sim.scenario: world construction and tracker construction
    p.replace(experiments, "make_scenario", _timed(tr, "sim.scenario.make", experiments.make_scenario))
    orig_make_tracker = Scenario.make_tracker

    @functools.wraps(orig_make_tracker)
    def make_tracker(self, name, **overrides):
        with tr.span("sim.scenario.make_tracker"):
            tracker = orig_make_tracker(self, name, **overrides)
        tr.tracker_names[tracker] = name
        return tracker

    p.replace(Scenario, "make_tracker", make_tracker)

    # geometry: lazy map builds happen on the first property access
    def lazy_map(prop, slot: str, name: str, record_faces: bool):
        def fget(self):
            if getattr(self, slot) is not None:
                return prop.fget(self)
            with tr.span(name):
                fm = prop.fget(self)
            if record_faces:
                tr.n_faces.append(fm.n_faces)
            return fm

        return property(fget, doc=prop.__doc__)

    p.replace(Scenario, "face_map", lazy_map(Scenario.__dict__["face_map"], "_face_map", "geometry.build", True))
    p.replace(
        Scenario,
        "certain_map",
        lazy_map(Scenario.__dict__["certain_map"], "_certain_map", "geometry.build_certain", False),
    )
    orig_match = FaceMap.match

    @functools.wraps(orig_match)
    def match(self, vector, **kwargs):
        with tr.span("geometry.match") as frame:
            out = orig_match(self, vector, **kwargs)
        tr.match_s.append(frame[3])
        return out

    p.replace(FaceMap, "match", match)
    p.replace(FaceMap, "match_many", _timed(tr, "geometry.match_many", FaceMap.match_many))

    # core: soft signatures, Algorithm 1 vectors, the Algorithm 2 climb
    p.replace(
        extended,
        "attach_soft_signatures",
        _timed(tr, "core.extended.attach", extended.attach_soft_signatures),
    )
    for cls in (FTTTracker, ZeroFillFTTT):
        for attr in ("build_vector", "build_vectors"):
            p.replace(cls, attr, _timed(tr, "core.vectors", cls.__dict__[attr]))
    orig_climb = HeuristicMatcher.match

    @functools.wraps(orig_climb)
    def climb(self, vector, start_face=None):
        initial = start_face is None and self.last_face is None
        scans = tr.calls["geometry.match"]
        with tr.span("core.heuristic.climb"):
            result = orig_climb(self, vector, start_face)
        if not initial:
            # basic and soft (extended) signatures have different fallback gates
            kind = "soft" if self.soft else "basic"
            tr.counts[f"{kind}_rounds"] += 1
            tr.counts[f"{kind}_visited"] += int(result.visited)
            if tr.calls["geometry.match"] > scans:
                tr.counts[f"{kind}_fallbacks"] += 1
        return result

    p.replace(HeuristicMatcher, "match", climb)

    # trackers and baselines: whole-trace track() calls, checked per round
    def tracked(fn):
        @functools.wraps(fn)
        def track(self, batches):
            name = tr.tracker_names.get(self, type(self).__name__)
            with tr.span(track_span(name)):
                result = fn(self, batches)
            tr.check_track(result)
            return result

        return track

    for cls in (FTTTracker, PathMatchingTracker, DirectMLETracker):
        p.replace(cls, "track", tracked(cls.__dict__["track"]))

    # sim.runner: channel sampling plus the fault models, per replication
    p.replace(runner, "generate_batches", _timed(tr, "sim.runner.batches", runner.generate_batches))
    try:
        yield tr
    finally:
        p.restore()


def layer_metrics(tr: LayerTracer, wall_s: float) -> dict:
    """Per-layer figures of one or more traced batches totalling *wall_s*."""
    s = tr.self_s
    c = tr.counts
    m = {
        "sim.scenario.make_s": s["sim.scenario.make"],
        "sim.scenario.make_tracker_s": s["sim.scenario.make_tracker"],
        "geometry.build_s": tr.total_s["geometry.build"],
        "geometry.build_certain_s": tr.total_s["geometry.build_certain"],
        "geometry.n_faces": statistics.median(tr.n_faces) if tr.n_faces else 0.0,
        "geometry.match_calls": tr.calls["geometry.match"],
        "geometry.match_ms": 1e3 * statistics.median(tr.match_s) if tr.match_s else 0.0,
        "geometry.match_s": s["geometry.match"],
        "geometry.match_many_s": s["geometry.match_many"],
        "core.extended.attach_s": tr.total_s["core.extended.attach"],
        "core.vectors_s": s["core.vectors"],
        "core.heuristic.climb_s": s["core.heuristic.climb"],
        "sim.runner.batches_s": s["sim.runner.batches"],
    }
    for kind, prefix in (("basic", "core.heuristic"), ("soft", "core.heuristic.soft")):
        rounds = c[f"{kind}_rounds"]
        m[f"{prefix}.rounds"] = rounds
        m[f"{prefix}.fallbacks"] = c[f"{kind}_fallbacks"]
        m[f"{prefix}.fallback_ratio"] = c[f"{kind}_fallbacks"] / rounds if rounds else 0.0
        m[f"{prefix}.visited_per_round"] = c[f"{kind}_visited"] / rounds if rounds else 0.0
    for name in ("fttt", "fttt-extended", "fttt-exhaustive", "fttt-robust", "fttt-zero"):
        m[f"core.tracker.track_s.{name}"] = tr.total_s[track_span(name)]
    m["baselines.pm.track_s"] = tr.total_s[track_span("pm")]
    m["baselines.direct_mle.track_s"] = tr.total_s[track_span("direct-mle")]
    covered = tr.covered_s()
    m["geometry.build_share"] = (m["geometry.build_s"] + m["geometry.build_certain_s"]) / wall_s
    m["trace.wall_s"] = wall_s
    m["trace.coverage"] = covered / wall_s
    m["trace.uncovered_s"] = wall_s - covered
    m["trace.checked_rounds"] = c["checked_rounds"]
    return m
