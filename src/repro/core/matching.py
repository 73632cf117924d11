"""Exhaustive maximum-likelihood matching (paper §4.4-1).

Scans every face signature and returns all faces tying at the maximum
similarity.  O(F · P) per localization with F = O(n^4) faces — correct but
slow; Algorithm 2's heuristic matcher exists to avoid this scan, and the
complexity benchmark measures the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.faces import FaceMap

__all__ = ["MatchResult", "ExhaustiveMatcher"]


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one sampling vector against the face map."""

    face_ids: np.ndarray  # all faces at the maximum similarity
    sq_distance: float  # squared vector distance at the optimum
    position: np.ndarray  # mean centroid of the tied faces
    visited: int  # how many face signatures were examined

    @property
    def face_id(self) -> int:
        """Lowest-id best face (deterministic tie representative)."""
        return int(self.face_ids[0])

    @property
    def similarity(self) -> float:
        if self.sq_distance == 0.0:
            return float("inf")
        return 1.0 / float(np.sqrt(self.sq_distance))

    @property
    def is_ambiguous(self) -> bool:
        """True when more than one face ties at the maximum similarity."""
        return len(self.face_ids) > 1


class ExhaustiveMatcher:
    """Stateless full-scan matcher over a face map.

    A soft-signature map (extended FTTT, §6) is matched against its
    quantitative signatures, any other against the qualitative ones.
    """

    def __init__(self, face_map: FaceMap) -> None:
        self.face_map = face_map

    def match(self, vector: np.ndarray, start_face: "int | None" = None) -> MatchResult:
        """Match *vector* against every face (``start_face`` is ignored;
        accepted so exhaustive and heuristic matchers are interchangeable)."""
        return self._result(*self.face_map.match(vector))

    def match_row(self, d2: np.ndarray, face_ids: "np.ndarray | None" = None) -> MatchResult:
        """Match from precomputed distances of every face, or of the
        ascending *face_ids* only (see
        :meth:`~repro.geometry.faces.FaceMap.best_faces`).

        Identical to ``match(vector)`` when ``(d2, face_ids)`` is a
        :meth:`~repro.geometry.faces.TraceScan.scan` of *vector*, or *d2*
        is bit-identical to ``face_map.distances_to(vector)``.
        """
        return self._result(*self.face_map.best_faces(d2, face_ids))

    def match_many(self, vectors: np.ndarray) -> list[MatchResult]:
        """Match a whole ``(B, P)`` batch of vectors in one kernel call.

        Row ``b`` of the result is bit-identical to ``match(vectors[b])``
        (see :meth:`repro.geometry.faces.FaceMap.match_many`); the batch
        trades the per-round scans for GEMMs over the signature matrix.
        """
        ties, bests = self.face_map.match_many(vectors)
        return [self._result(t, float(best)) for t, best in zip(ties, bests)]

    def _result(self, face_ids: np.ndarray, sq_distance: float) -> MatchResult:
        """The result for tie set *face_ids* at *sq_distance*: the mean
        centroid of the tied faces, every face visited."""
        return MatchResult(
            face_ids=face_ids,
            sq_distance=sq_distance,
            position=self.face_map.centroids[face_ids].mean(axis=0),
            visited=self.face_map.n_faces,
        )

    def reset(self) -> None:
        """No state to clear; present for interface parity."""
