"""Model-coupled observation semantics (the paper's simulator model).

The paper's analysis (§5) generates pair flips *from the geometry*: a pair
whose uncertain area contains the target flips, and a k-sample grouping
captures that flip with probability ``1 - (1/2)^(k-1)``; outside the area
the ordering is read correctly.  Its evaluation figures are consistent
with this coupling — in particular the Fig. 12(a) sensitivity to the
sensing resolution epsilon, which a faithful physical-noise channel at
Table 1's sigma = 6 dB washes out (noise, not the comparator, dominates;
see EXPERIMENTS.md).

This module reproduces those semantics: observations are sampling vectors
drawn directly from the Eq. 3/4 uncertain-area model, with no separate
RSS noise process.  The physical RSS channel remains the default for all
other experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.sampling_times import miss_probability
from repro.core.tracker import TrackEstimate, TrackResult
from repro.geometry.apollonius import classify_points_pairwise
from repro.geometry.faces import FaceMap
from repro.geometry.primitives import enumerate_pairs
from repro.rng import ensure_rng

__all__ = ["ModelSampler", "run_model_tracking"]


@dataclass
class ModelSampler:
    """Draws sampling vectors from the paper's flip model.

    Parameters
    ----------
    nodes : (n, 2) sensor positions.
    c : uncertainty constant defining the pair bands (paper Eq. 3).
    k : grouping-sampling size; the flip-miss probability is (1/2)^(k-1).
    sensing_range : optional hearing radius (Eq. 6 semantics for silent pairs).
    """

    nodes: np.ndarray
    c: float
    k: int = 5
    sensing_range: "float | None" = None

    def __post_init__(self) -> None:
        self.nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        if self.c < 1.0:
            raise ValueError(f"uncertainty constant must be >= 1, got {self.c}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        self._pairs = enumerate_pairs(len(self.nodes))

    @property
    def miss_prob(self) -> float:
        return miss_probability(self.k)

    def true_signature(self, position: np.ndarray) -> np.ndarray:
        """Exact (non-rasterized) signature of the target position."""
        return classify_points_pairwise(
            np.asarray(position, dtype=float).reshape(1, 2),
            self.nodes,
            self.c,
            self._pairs,
            sensing_range=self.sensing_range,
        )[0].astype(float)

    def sample_group_vector(self, position: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """FTTT grouping-sampling vector under the model.

        Certain pairs read correctly; uncertain pairs are captured as
        flipped (0) with probability ``1 - f`` and otherwise appear ordinal
        in a uniformly random direction (§5.1's miss event).
        """
        sig = self.true_signature(position)
        out = sig.copy()
        uncertain = sig == 0.0
        n_unc = int(uncertain.sum())
        if n_unc:
            missed = rng.random(n_unc) < self.miss_prob
            directions = rng.choice([-1.0, 1.0], size=n_unc)
            out[uncertain] = np.where(missed, directions, 0.0)
        return out

    def sample_oneshot_vector(self, position: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One-shot detection-sequence vector (what the certain-sequence
        baselines observe): uncertain pairs are a fair coin every time."""
        sig = self.true_signature(position)
        out = sig.copy()
        uncertain = sig == 0.0
        n_unc = int(uncertain.sum())
        if n_unc:
            out[uncertain] = rng.choice([-1.0, 1.0], size=n_unc)
        return out


def run_model_tracking(
    face_map: FaceMap,
    sampler: ModelSampler,
    positions: np.ndarray,
    times: np.ndarray,
    rng: "np.random.Generator | int | None" = None,
    *,
    observation: str = "group",
    matcher: str = "exhaustive",
) -> TrackResult:
    """Track a position sequence under model-mode observations.

    Parameters
    ----------
    face_map : map whose signatures the vectors are matched against.
    sampler : the model-mode observation source.
    positions : (T, 2) true target positions per round.
    times : (T,) round times.
    observation : ``"group"`` (FTTT grouping vectors) or ``"oneshot"``
        (baseline detection-sequence vectors).
    matcher : ``"exhaustive"`` or ``"heuristic"``.
    """
    from repro.core.heuristic import HeuristicMatcher
    from repro.core.matching import ExhaustiveMatcher

    rng = ensure_rng(rng)
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    times = np.asarray(times, dtype=float)
    if len(positions) != len(times):
        raise ValueError("positions and times must have equal length")
    if observation not in ("group", "oneshot"):
        raise ValueError(f"unknown observation {observation!r}")
    if matcher == "heuristic":
        m = HeuristicMatcher(face_map)
    elif matcher == "exhaustive":
        m = ExhaustiveMatcher(face_map)
    else:
        raise ValueError(f"unknown matcher {matcher!r}")

    result = TrackResult()
    for t, p in zip(times, positions):
        if observation == "group":
            v = sampler.sample_group_vector(p, rng)
        else:
            v = sampler.sample_oneshot_vector(p, rng)
        result.append(TrackEstimate.from_match(float(t), m.match(v), len(sampler.nodes)), p)
    return result
