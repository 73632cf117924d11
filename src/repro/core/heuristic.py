"""Heuristic matching over neighbor-face links (Algorithm 2, Theorem 1).

Faces divided by uncertain boundaries are not isolated: neighbors differ by
exactly one unit in one signature component (Theorem 1), so similarity is
locally smooth over the face adjacency graph and matching can hill-climb
from the previous localization's face instead of scanning all O(n^4)
signatures.  Consecutive tracking steps start where the last one ended,
which keeps searches to a handful of rounds (paper §4.4-2).

Hill climbing can stall in a local optimum if the target jumped far or the
sampling vector is badly corrupted; ``fallback`` optionally detects a poor
local optimum and re-runs the exhaustive scan, preserving Algorithm 2's
speed in the common case without sacrificing worst-case accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import ExhaustiveMatcher, MatchResult
from repro.geometry.faces import FaceMap, TraceScan
from repro.obs import metrics as obs

__all__ = ["HeuristicMatcher"]


class HeuristicMatcher:
    """Stateful neighbor-link matcher (Algorithm 2).

    Parameters
    ----------
    face_map : the divided monitor area; the climb and its scans match
        against its soft signatures when it has them (extended FTTT).
    hops : search ring per climb step; 1 is Algorithm 2 verbatim, 2
        (default) also examines neighbors-of-neighbors, which escapes the
        single-face local optima noisy sampling vectors create while still
        visiting a tiny fraction of the face set.
    fallback : when True (default), a local optimum whose squared distance
        exceeds ``fallback_sq_distance`` triggers one exhaustive re-match.
    fallback_sq_distance : quality gate for the fallback, in squared
        vector-distance units.  The default of 4.0 tolerates up to two
        single-step component errors before falling back.

    Obs counters: ``core.heuristic.{rounds,fallbacks,init_scans,steps,visited}``
    for climbs on qualitative signatures, the same names under
    ``core.heuristic.soft.`` on a soft-signature map, whose fallback gate
    differs.
    """

    def __init__(
        self,
        face_map: FaceMap,
        *,
        hops: int = 2,
        fallback: bool = True,
        fallback_sq_distance: float = 4.0,
    ) -> None:
        if hops not in (1, 2):
            raise ValueError(f"hops must be 1 or 2, got {hops}")
        if fallback_sq_distance < 0:
            raise ValueError(f"fallback gate must be non-negative, got {fallback_sq_distance}")
        self.face_map = face_map
        self.hops = hops
        self.fallback = fallback
        self.fallback_sq_distance = fallback_sq_distance
        self._exhaustive = ExhaustiveMatcher(face_map)
        self._last_face: int | None = None

    @property
    def soft(self) -> bool:
        """True when the map carries soft signatures (extended FTTT)."""
        return self.face_map.soft_signatures is not None

    @property
    def last_face(self) -> "int | None":
        """Face of the previous localization (Algorithm 2's f0)."""
        return self._last_face

    def reset(self) -> None:
        """Forget the previous face; the next match seeds exhaustively."""
        self._last_face = None

    def _sq_distance_to_faces(self, vector: np.ndarray, face_ids: np.ndarray) -> np.ndarray:
        sigs = self.face_map.signature_matrix()[face_ids].astype(np.float64)
        v = np.asarray(vector, dtype=float)
        diff = sigs - v[None, :]
        diff = np.where(np.isnan(diff), 0.0, diff)
        return np.einsum("fp,fp->f", diff, diff)

    def match(self, vector: np.ndarray, start_face: "int | None" = None) -> MatchResult:
        """Match *vector*, hill-climbing from ``start_face`` / the previous face.

        The very first localization (no previous face, no explicit start)
        falls back to one exhaustive scan — Algorithm 2's
        ``Initialization()``.
        """
        return self._match(vector, start_face)

    def match_many(self, vectors: np.ndarray) -> list[MatchResult]:
        """Match a ``(T, P)`` trace, row ``b`` identical to the ``b``-th
        call of a :meth:`match` loop.

        The climb runs round by round as in the loop, on the same vector
        rows.  Every exhaustive scan the loop would make — the initial scan
        and each fallback — is one :meth:`~repro.geometry.faces.TraceScan.scan`
        of the trace instead: a row of one exact GEMM block for
        Definition-4 vectors against qualitative signatures, or the bounded
        float64 GEMM filter plus exact rescoring on a soft-signature map and
        for fractional vectors.  Either is computed only once a row of its
        block needs it, and resolves to the same ties and best value as
        the loop's ``distances_to`` scan.
        """
        vectors = np.asarray(vectors)
        scan = TraceScan(self.face_map, vectors)
        return [self._match(v, None, scan, b) for b, v in enumerate(vectors)]

    def _match(
        self,
        vector: np.ndarray,
        start_face: "int | None",
        scan: "TraceScan | None" = None,
        row: int = 0,
    ) -> MatchResult:
        """One round of :meth:`match`; an exhaustive scan is row *row* of
        *scan* when given."""
        fm = self.face_map
        record = obs.enabled()
        prefix = "core.heuristic.soft" if self.soft else "core.heuristic"
        start = start_face if start_face is not None else self._last_face
        if start is None:
            if record:
                obs.counter(f"{prefix}.init_scans").inc()
            result = self._scan(vector, scan, row)
            self._last_face = result.face_id
            return result
        if not (0 <= start < fm.n_faces):
            raise IndexError(f"start face {start} out of range [0, {fm.n_faces})")

        current = int(start)
        current_d2 = float(self._sq_distance_to_faces(vector, np.array([current]))[0])
        visited = 1
        steps = 0
        # each move strictly lowers the distance, so the climb terminates
        while True:
            nbrs = fm.neighbors(current)
            if self.hops == 2 and len(nbrs):
                # widen the step to the 2-hop neighborhood: single-face
                # local optima under noisy vectors are common, and one
                # extra ring is enough to step over almost all of them
                ring = set(nbrs.tolist())
                for nb in nbrs:
                    ring.update(fm.neighbors(int(nb)).tolist())
                ring.discard(current)
                nbrs = np.fromiter(ring, dtype=np.int64)
            if len(nbrs) == 0:
                break
            d2_nbrs = self._sq_distance_to_faces(vector, nbrs)
            visited += len(nbrs)
            best = int(np.argmin(d2_nbrs))
            if d2_nbrs[best] < current_d2 - 1e-12:
                current = int(nbrs[best])
                current_d2 = float(d2_nbrs[best])
                steps += 1
            else:
                break

        if record:
            obs.counter(f"{prefix}.rounds").inc()
            obs.histogram(f"{prefix}.steps").observe(steps)
            obs.histogram(f"{prefix}.visited").observe(visited)

        if self.fallback and current_d2 > self.fallback_sq_distance:
            if record:
                obs.counter(f"{prefix}.fallbacks").inc()
            result = self._scan(vector, scan, row)
            self._last_face = result.face_id
            return MatchResult(
                face_ids=result.face_ids,
                sq_distance=result.sq_distance,
                position=result.position,
                visited=visited + result.visited,
            )

        self._last_face = current
        return MatchResult(
            face_ids=np.array([current]),
            sq_distance=current_d2,
            position=fm.centroids[current].copy(),
            visited=visited,
        )

    def _scan(self, vector: np.ndarray, scan: "TraceScan | None", row: int) -> MatchResult:
        if scan is None:
            return self._exhaustive.match(vector)
        return self._exhaustive.match_row(*scan.scan(row))
