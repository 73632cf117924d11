"""Nearest-node baseline: snap to the loudest sensor.

The weakest meaningful tracker — its error floor is set entirely by the
deployment density, making it a useful yardstick in benchmark tables.
"""

from __future__ import annotations

import numpy as np

from repro.core.tracker import RoundTracker, TrackEstimate
from repro.rf.channel import group_mean, n_reporting

__all__ = ["NearestNodeTracker"]


class NearestNodeTracker(RoundTracker):
    """Estimate = position of the sensor with the highest mean RSS."""

    def __init__(self, nodes: np.ndarray) -> None:
        self.nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        self.n_sensors = len(self.nodes)

    def localize(self, rss: np.ndarray, t: float = 0.0) -> TrackEstimate:
        rss = self.check_round(rss)
        mean_rss = group_mean(rss)
        if np.isnan(mean_rss).all():
            position = self.nodes.mean(axis=0)  # nobody heard anything
            loudest = -1
        else:
            loudest = int(np.nanargmax(mean_rss))
            position = self.nodes[loudest].copy()
        return TrackEstimate.faceless(t, position, n_reporting(rss), face_id=loudest)
