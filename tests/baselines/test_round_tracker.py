"""The round-by-round baselines share one ``track`` loop.

``RoundTracker.track`` resets the tracker and then localizes the trace
round by round; for every baseline built on it that must equal a
``reset()`` followed by a ``localize_batch`` loop, bit for bit.
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
from repro.core.tracker import RoundTracker
from repro.rf.channel import RssChannel
from repro.rf.pathloss import LogDistancePathLoss

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
