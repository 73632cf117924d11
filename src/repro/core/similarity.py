"""Vector similarity (Definitions 7 & 8).

Similarity between a sampling vector and a signature vector is the
reciprocal Euclidean distance, with two refinements from the paper:

* components whose sampling value is ``*`` (NaN) contribute zero
  difference (Eq. 7 — the fault-tolerant masked difference);
* an exact match has infinite similarity (handled explicitly — the
  tracker compares squared distances, where 0 is a perfectly ordinary
  minimum).
"""

from __future__ import annotations

import numpy as np

__all__ = ["vector_difference", "sq_distance", "similarity"]


def vector_difference(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Masked component-wise difference of Eq. 7.

    Components where *either* vector holds ``*`` (NaN) difference to 0 —
    a silent pair neither supports nor contradicts any face.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.shape != v2.shape:
        raise ValueError(f"vector shapes differ: {v1.shape} vs {v2.shape}")
    diff = v1 - v2
    return np.where(np.isnan(diff), 0.0, diff)


def sq_distance(v1: np.ndarray, v2: np.ndarray) -> float:
    """Squared masked Euclidean distance."""
    d = vector_difference(v1, v2)
    return float(d @ d)


def similarity(v1: np.ndarray, v2: np.ndarray) -> float:
    """Definition 7: ``S = 1 / ||v1 - v2||``; ``inf`` on exact match."""
    d2 = sq_distance(v1, v2)
    if d2 == 0.0:
        return float("inf")
    return 1.0 / float(np.sqrt(d2))
