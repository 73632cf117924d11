"""Trace-at-a-time Algorithm 2 is bit-identical to the per-round loop.

``FTTTracker.track`` hands a stateless trace to ``matcher.match_many``:
the heuristic matcher still climbs round by round, but its initial scan
and every fallback read their row of one exact ``distances_to_many``
GEMM instead of a fresh single-vector scan.  These tests pin that path
to the per-round ``localize`` loop bit for bit — estimates, matcher work,
the previous-estimate state and the obs counters — on a world whose map
spans several ``distances_to`` blocks, with ``*`` rounds and one all-``*``
round.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.config import GridConfig, SimulationConfig
from repro.core.heuristic import HeuristicMatcher
from repro.core.matching import ExhaustiveMatcher
from repro.core.vectors import sampling_vectors
from repro.geometry import faces
from repro.geometry.faces import FaceMap
from repro.network.faults import IndependentDropout
from repro.rf.channel import SampleBatch
from repro.sim.runner import generate_batches
from repro.sim.scenario import make_scenario

CFG = SimulationConfig(n_sensors=16, duration_s=20.0, grid=GridConfig(cell_size_m=2.0))
ALL_STAR_ROUND = 9
OBS_PREFIXES = ("core.heuristic.", "geometry.match.")


@pytest.fixture(scope="module")
def world():
    scenario = make_scenario(CFG, seed=11)
    batches = generate_batches(scenario, 12, faults=IndependentDropout(p=0.25), n_rounds=30)
    silent = batches[ALL_STAR_ROUND]
    batches[ALL_STAR_ROUND] = SampleBatch(
        rss=np.full_like(silent.rss, np.nan), times=silent.times, positions=silent.positions
    )
    return scenario, batches


def _key(est) -> tuple:
    return (
        [int(f) for f in est.face_ids],
        est.visited_faces,
        est.n_reporting,
        float(est.t).hex(),
        float(est.sq_distance).hex(),
        [float(x).hex() for x in est.position],
    )


def _loop(tracker, batches):
    return [tracker.localize_batch(b) for b in batches]


def _obs_view(snapshot: dict) -> dict:
    return {k: v for k, v in snapshot.items() if k.startswith(OBS_PREFIXES)}


def test_world_spans_several_scan_blocks(world):
    scenario, batches = world
    fm = scenario.face_map
    rows = faces._SCAN_BLOCK_BYTES // (4 * fm.n_pairs)
    assert fm.n_faces > rows
    assert np.isnan(batches[ALL_STAR_ROUND].rss).all()


@pytest.mark.parametrize("name", ["fttt", "fttt-extended", "fttt-zero", "fttt-robust"])
def test_track_identical_to_localize_loop(world, name):
    scenario, batches = world
    batched_tracker = scenario.make_tracker(name)
    loop_tracker = scenario.make_tracker(name)
    with obs.observe() as reg:
        batched = batched_tracker.track(batches)
        batched_obs = _obs_view(reg.snapshot())
    with obs.observe() as reg:
        looped = _loop(loop_tracker, batches)
        loop_obs = _obs_view(reg.snapshot())
    assert [_key(e) for e in batched.estimates] == [_key(e) for e in looped]
    assert batched_obs == loop_obs
    # soft (extended) climbs count under their own prefix
    prefix = "core.heuristic.soft" if batched_tracker.matcher.soft else "core.heuristic"
    assert batched_obs[f"{prefix}.fallbacks"]["value"] > 0
    assert batched_obs[f"{prefix}.init_scans"]["value"] == 1
    assert _key(batched_tracker._prev_estimate) == _key(looped[-1])
    assert batched_tracker.matcher.last_face == loop_tracker.matcher.last_face


def test_fallbacks_read_the_gemm(world, monkeypatch):
    """The basic trace resolves its initial scan and every fallback from
    ``distances_to_many``: no single-vector scan runs."""
    scenario, batches = world
    scans = []
    orig = FaceMap.distances_to

    def counted(self, vector, **kwargs):
        scans.append(1)
        return orig(self, vector, **kwargs)

    monkeypatch.setattr(FaceMap, "distances_to", counted)
    tracker = scenario.make_tracker("fttt")
    with obs.observe() as reg:
        tracker.track(batches)
        fallbacks = reg.snapshot()["core.heuristic.fallbacks"]["value"]
    assert fallbacks > 0
    assert scans == []


def test_heuristic_match_many_continues_from_last_face(world):
    scenario, batches = world
    fm = scenario.face_map
    vectors = sampling_vectors(np.stack([b.rss for b in batches]))
    # a zero gate falls back on every round the climb does not end exact
    a = HeuristicMatcher(fm, fallback_sq_distance=0.0)
    b = HeuristicMatcher(fm, fallback_sq_distance=0.0)
    a.match(vectors[0])
    b.match(vectors[0])
    many = a.match_many(vectors[1:])
    loop = [b.match(v) for v in vectors[1:]]
    assert len(many) == len(loop)
    for x, y in zip(many, loop):
        assert np.array_equal(x.face_ids, y.face_ids)
        assert float(x.sq_distance).hex() == float(y.sq_distance).hex()
        assert np.array_equal(x.position, y.position)
        assert x.visited == y.visited
    assert a.last_face == b.last_face


class TestAllStarRound:
    """An all-``*`` round (Eq. 7 masks every pair) carries no evidence:
    every face is at d² = 0.  The climb holds the previous face without
    falling back; the exhaustive matcher returns every face as a tie."""

    def test_heuristic_holds_previous_face(self, world):
        scenario, batches = world
        for result in (
            scenario.make_tracker("fttt").track(batches).estimates,
            _loop(scenario.make_tracker("fttt"), batches),
        ):
            held = result[ALL_STAR_ROUND]
            assert held.sq_distance == 0.0
            assert held.face_ids.tolist() == result[ALL_STAR_ROUND - 1].face_ids[:1].tolist()
            assert held.visited_faces < scenario.face_map.n_faces  # no fallback scan

    def test_exhaustive_ties_every_face(self, world):
        scenario, batches = world
        fm = scenario.face_map
        for result in (
            scenario.make_tracker("fttt-exhaustive").track(batches).estimates,
            _loop(scenario.make_tracker("fttt-exhaustive"), batches),
        ):
            every = result[ALL_STAR_ROUND]
            assert every.sq_distance == 0.0
            assert every.face_ids.tolist() == list(range(fm.n_faces))
            assert np.array_equal(every.position, fm.centroids.mean(axis=0))

    def test_matchers_directly(self, face_map):
        star = np.full(face_map.n_pairs, np.nan)
        heur = HeuristicMatcher(face_map)
        heur.match(face_map.signatures[3].astype(float))
        with obs.observe() as reg:
            res = heur.match(star)
            snap = reg.snapshot()
        assert res.face_ids.tolist() == [3]
        assert res.sq_distance == 0.0
        assert "core.heuristic.fallbacks" not in snap
        ex = ExhaustiveMatcher(face_map).match(star)
        assert ex.face_ids.tolist() == list(range(face_map.n_faces))


def _ragged(batches):
    """The trace with its second round one sample short."""
    short = batches[1]
    return [
        batches[0],
        SampleBatch(rss=short.rss[:-1], times=short.times[:-1], positions=short.positions[:-1]),
        *batches[2:],
    ]


def _extra_sensor(batches):
    """The trace with one more sensor column than the map was built for."""
    return [
        SampleBatch(
            rss=np.hstack([b.rss, np.full((len(b.rss), 1), -60.0)]),
            times=b.times,
            positions=b.positions,
        )
        for b in batches
    ]


class TestOneTracePath:
    """Every trace tracker stacks its trace through ``stack_trace``: one
    ``(T, k, n)`` path, no per-round fallback for odd traces."""

    @pytest.mark.parametrize("name", ["fttt", "fttt-robust", "direct-mle", "pm"])
    @pytest.mark.parametrize("bad", [_ragged, _extra_sensor])
    def test_odd_trace_rejected(self, world, name, bad):
        scenario, batches = world
        tracker = scenario.make_tracker(name)
        with pytest.raises(ValueError, match="shape|sensors"):
            tracker.track(bad(batches[:4]))

    @pytest.mark.parametrize("name", ["fttt", "fttt-robust", "direct-mle"])
    def test_single_round_trace_matches_localize(self, world, name):
        scenario, batches = world
        tracked = scenario.make_tracker(name).track(batches[:1]).estimates
        assert [_key(e) for e in tracked] == [
            _key(e) for e in _loop(scenario.make_tracker(name), batches[:1])
        ]

    @pytest.mark.parametrize("name", ["fttt", "fttt-robust"])
    def test_track_seconds_observed_once_per_track(self, world, name):
        scenario, batches = world
        tracker = scenario.make_tracker(name)
        with obs.observe() as reg:
            tracker.track(batches)
            tracker.track(batches[:3])
            snap = reg.snapshot()
        assert snap["tracker.track_seconds"]["count"] == 2
        assert snap["tracker.track_seconds"]["min"] > 0.0
        assert snap["tracker.rounds"]["value"] == len(batches) + 3
        assert "tracker.round_seconds" not in snap
