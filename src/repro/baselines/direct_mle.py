"""Direct MLE baseline (paper's "[24]" comparator).

Sequence-based localization: the field is divided by perpendicular
bisectors only (every comparison assumed reliable), each face carries the
ideal detection sequence of its region, and each localization round is
matched *independently* — no use of uncertainty, no temporal coupling.
This is precisely the strategy §3.2 shows breaking down: near bisectors
the observed sequence flips, and the matched face jumps around.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.baselines.sequences import sign_vector_from_rss, sign_vectors_from_rss
from repro.core.matching import ExhaustiveMatcher
from repro.core.tracker import RoundTracker, TrackEstimate, TrackResult
from repro.geometry.faces import FaceMap
from repro.geometry.primitives import enumerate_pairs
from repro.obs import metrics as obs
from repro.rf.channel import SampleBatch, n_reporting

__all__ = ["DirectMLETracker"]


class DirectMLETracker(RoundTracker):
    """Independent per-round sequence matching over the certain face map.

    Parameters
    ----------
    face_map : a *certain* face map
        (:func:`repro.geometry.faces.build_certain_face_map`).
    reduce : how the grouping sampling collapses to one detection sequence;
        ``"mean"`` (default) averages the group — the strongest fair
        reading — while ``"last"`` replicates literal one-shot sensing.
    """

    #: obs counter of the rounds :meth:`localize` matches; ``None`` for a
    #: subclass that counts its rounds under its own name
    _localize_counter: "str | None" = "baselines.direct_mle.rounds"

    def __init__(self, face_map: FaceMap, *, reduce: str = "mean") -> None:
        if reduce not in ("mean", "last"):
            raise ValueError(f"unknown reduce {reduce!r}")
        self.face_map = face_map
        self.n_sensors = face_map.n_nodes
        self.reduce = reduce
        self._pairs = enumerate_pairs(face_map.n_nodes)
        self._matcher = ExhaustiveMatcher(face_map)

    def build_vector(self, rss: np.ndarray) -> np.ndarray:
        return sign_vector_from_rss(rss, self._pairs, reduce=self.reduce)

    def build_vectors(self, rss_stack: np.ndarray) -> np.ndarray:
        """``(T, k, n)`` round stack -> ``(T, P)`` sign vectors."""
        return sign_vectors_from_rss(rss_stack, self._pairs, reduce=self.reduce)

    def localize(self, rss: np.ndarray, t: float = 0.0) -> TrackEstimate:
        rss = self.check_round(rss)
        match = self._matcher.match(self.build_vector(rss))
        if self._localize_counter is not None and obs.enabled():
            obs.counter(self._localize_counter).inc()
        return TrackEstimate.from_match(t, match, n_reporting(rss))

    def track(self, batches: Iterable[SampleBatch]) -> TrackResult:
        """Localize the whole trace in one batched kernel call.

        Rounds are matched independently (that is the point of this
        baseline), so the trace is one batched sign-vector build plus one
        GEMM match — bit-identical to a :meth:`localize` loop.
        """
        batches = list(batches)
        rss = self.stack_trace(batches)
        matches = self._matcher.match_many(self.build_vectors(rss))
        if obs.enabled():
            obs.counter("baselines.direct_mle.rounds").inc(len(batches))
        estimates = [
            TrackEstimate.from_match(float(batch.times[0]), match, n_rep)
            for batch, match, n_rep in zip(batches, matches, n_reporting(rss))
        ]
        return TrackResult.from_rounds(estimates, batches)
