"""Every tracker keeps the ``RoundTracker`` contract.

``RoundTracker.track`` resets the tracker and then localizes the trace
round by round; for every baseline built on it that must equal a
``reset()`` followed by a ``localize_batch`` loop, bit for bit.  Every
tracker the scenario factory builds tracks a trace the same whether or
not it tracked another before, and rejects a round with the wrong
sensor count through the one shared check (which the cluster-head
vector assembly runs too).
"""

import numpy as np
import pytest

from repro.baselines import (
    KalmanTracker,
    NearestNodeTracker,
    ParticleFilterTracker,
    PkNNTracker,
    RangeMLETracker,
    WeightedCentroidTracker,
)
from repro.config import GridConfig, SimulationConfig
from repro.core.tracker import RoundTracker
from repro.network.aggregation import DistributedVectorAssembly, assign_clusters
from repro.rf.channel import RssChannel, SampleBatch
from repro.rf.pathloss import LogDistancePathLoss
from repro.sim.runner import generate_batches
from repro.sim.scenario import TRACKER_NAMES, make_scenario

PATHLOSS = LogDistancePathLoss(exponent=4.0, p0_dbm=-40.0)

BASELINES = {
    "nearest": lambda nodes: NearestNodeTracker(nodes),
    "weighted-centroid": lambda nodes: WeightedCentroidTracker(nodes, exponent=2.0),
    "range-mle": lambda nodes: RangeMLETracker(nodes, PATHLOSS),
    "pknn": lambda nodes: PkNNTracker(nodes, k_neighbors=3),
    "kalman": lambda nodes: KalmanTracker(RangeMLETracker(nodes, PATHLOSS)),
    "particle": lambda nodes: ParticleFilterTracker(nodes, PATHLOSS, n_particles=200, seed=7),
}


def _trace(nodes, n_rounds=8):
    channel = RssChannel(nodes, pathloss=PATHLOSS, sensing_range_m=45.0)
    rng = np.random.default_rng(5)
    batches = []
    for r in range(n_rounds):
        point = np.array([20.0 + 7.0 * r, 30.0 + 4.0 * r])
        batches.append(channel.observe_static(point, 4, rng, t0=0.5 * r))
    return batches


def _key(est):
    return (
        float(est.t).hex(),
        [float(x).hex() for x in est.position],
        [int(f) for f in est.face_ids],
        est.n_reporting,
        est.visited_faces,
    )


def _reset_then_loop(tracker, batches):
    tracker.reset()
    return [tracker.localize_batch(b) for b in batches]


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_track_is_reset_then_localize_batch_loop(four_nodes, name):
    batches = _trace(four_nodes)
    make = BASELINES[name]
    tracked, looped = make(four_nodes), make(four_nodes)
    assert isinstance(tracked, RoundTracker)
    # a first trace leaves filter state behind; the second track must
    # reset it away exactly as the explicit reset does
    stale = batches[::-1]
    tracked.track(stale)
    _reset_then_loop(looped, stale)
    result = tracked.track(batches)
    expected = _reset_then_loop(looped, batches)
    assert [_key(e) for e in result.estimates] == [_key(e) for e in expected]
    assert np.array_equal(result.truth, np.stack([b.mean_position for b in batches]))


@pytest.fixture(scope="module")
def reuse_world():
    cfg = SimulationConfig(n_sensors=10, duration_s=40.0, grid=GridConfig(cell_size_m=2.0))
    scenario = make_scenario(cfg, seed=2)
    return scenario, generate_batches(scenario, 9)


@pytest.mark.parametrize("name", TRACKER_NAMES)
def test_reused_tracker_tracks_like_a_fresh_one(reuse_world, name):
    """``track`` starts every trace afresh: a tracker that already tracked
    another trace gives a fresh tracker's result, bit for bit."""
    scenario, batches = reuse_world
    reused = scenario.make_tracker(name)
    reused.track(batches[::-1])
    result = reused.track(batches)
    fresh = scenario.make_tracker(name).track(batches)
    assert [_key(e) for e in result.estimates] == [_key(e) for e in fresh.estimates]


@pytest.fixture(scope="module")
def six_node_world():
    cfg = SimulationConfig(n_sensors=6, duration_s=4.0, grid=GridConfig(cell_size_m=5.0))
    scenario = make_scenario(cfg, seed=3)
    return scenario, generate_batches(scenario, 1, n_rounds=2)


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("name", TRACKER_NAMES)
def test_wrong_sensor_count_rejected(six_node_world, name, delta):
    scenario, batches = six_node_world
    n = len(scenario.nodes)
    bad = [
        SampleBatch(
            rss=np.hstack([b.rss, np.full((len(b.rss), 1), -60.0)])[:, : n + delta],
            times=b.times,
            positions=b.positions,
        )
        for b in batches
    ]
    tracker = scenario.make_tracker(name)
    assert isinstance(tracker, RoundTracker)
    with pytest.raises(ValueError, match="sensors"):
        tracker.track(bad)
    with pytest.raises(ValueError, match="sensors") as tracked:
        tracker.localize(bad[0].rss)
    # the cluster-head assembly runs the same check, with the same message
    assembly = DistributedVectorAssembly(assign_clusters(scenario.nodes, 2), n)
    with pytest.raises(ValueError, match="sensors") as assembled:
        assembly.assemble(bad[0].rss)
    assert str(assembled.value) == str(tracked.value)
