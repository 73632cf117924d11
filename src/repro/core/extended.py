"""Quantitative signature model for extended FTTT (paper §6).

§6 quantifies the pairwise uncertainty on the *sampling* side: the
extended pair value ``(N_ij - N_ji)/k`` lives in [-1, 1].  Matching those
against qualitative {-1, 0, +1} signatures leaves information on the
table: deep inside a pair's uncertain band the expected extended value is
near 0, but near the band edge it is near ±1 — a gradient the qualitative
signature cannot express.  This module computes the *expected* extended
value of every face under the channel model,

    E[v] = P(RSS_i - RSS_j > eps) - P(RSS_j - RSS_i > eps)
         = Phi((dmu - eps) / (sqrt(2) sigma)) - Phi((-dmu - eps) / (sqrt(2) sigma)),
    dmu  = 10 beta log10(d_j / d_i),

averaged over the face's cells, with the same sensing-range semantics as
the qualitative signatures (one silent node => ±1, both silent => 0).
Matching extended sampling vectors against these soft signatures is the
natural completion of §6 and is what eliminates similarity ties.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from repro.geometry.faces import FaceMap
from repro.geometry.primitives import enumerate_pairs, pairwise_distances

__all__ = ["expected_extended_signatures", "attach_soft_signatures"]


def expected_extended_signatures(
    face_map: FaceMap,
    *,
    path_loss_exponent: float,
    noise_sigma_dbm: float,
    resolution_dbm: float = 0.0,
    sensing_range: float | None = None,
    chunk_pairs: int = 128,
) -> np.ndarray:
    """Per-face expected extended pair values, shape ``(F, P)`` float32.

    Parameters mirror the channel: *path_loss_exponent* and
    *noise_sigma_dbm* set the per-sample win probability, and
    *resolution_dbm* is the comparator deadband (a sample within it counts
    for neither side).
    """
    if path_loss_exponent <= 0:
        raise ValueError(f"path-loss exponent must be positive, got {path_loss_exponent}")
    if noise_sigma_dbm < 0 or resolution_dbm < 0:
        raise ValueError("sigma and resolution must be non-negative")
    grid = face_map.grid
    nodes = face_map.nodes
    cell_face = face_map.cell_face
    n_faces = face_map.n_faces
    i_idx, j_idx = enumerate_pairs(len(nodes))
    n_pairs = len(i_idx)
    if n_pairs != face_map.n_pairs:
        raise AssertionError("pair count mismatch between nodes and signatures")

    dist = pairwise_distances(grid.cell_centers, nodes)  # (M, n)
    with np.errstate(divide="ignore"):
        log_dist = np.log10(dist)  # once per (cell, node), not per (cell, pair)
    hears = None if sensing_range is None else dist <= sensing_range
    counts = face_map.cell_counts.astype(np.float64)
    out = np.empty((n_faces, n_pairs), dtype=np.float32)
    denom = np.sqrt(2.0) * noise_sigma_dbm
    bins: dict[int, np.ndarray] = {}  # (face, column) bin of every chunk entry, per width
    for start in range(0, n_pairs, chunk_pairs):
        stop = min(start + chunk_pairs, n_pairs)
        i_chunk, j_chunk = i_idx[start:stop], j_idx[start:stop]
        if hears is None:
            vals = _expected_values(
                log_dist[:, j_chunk] - log_dist[:, i_chunk],
                path_loss_exponent, noise_sigma_dbm, resolution_dbm, denom,
            )
        else:
            # one silent node => +-1, both silent => 0: in_i - in_j; the
            # channel model is evaluated only where both nodes hear the cell
            in_i = hears[:, i_chunk]
            in_j = hears[:, j_chunk]
            vals = in_i.astype(np.float64) - in_j
            both = in_i & in_j
            cell, col = np.nonzero(both)
            vals[cell, col] = _expected_values(
                log_dist[cell, j_chunk[col]] - log_dist[cell, i_chunk[col]],
                path_loss_exponent, noise_sigma_dbm, resolution_dbm, denom,
            )
        # per-face sums: bin (face, column) adds its cells' values in cell
        # order, the same sequence ``np.add.at(acc, cell_face, vals)`` adds
        width = stop - start
        if width not in bins:
            bins[width] = (cell_face[:, None] * width + np.arange(width)).ravel()
        acc = np.bincount(
            bins[width], weights=vals.ravel(), minlength=n_faces * width
        ).reshape(n_faces, width)
        out[:, start:stop] = (acc / counts[:, None]).astype(np.float32)
    return out


def _expected_values(
    log_ratio: np.ndarray,
    path_loss_exponent: float,
    noise_sigma_dbm: float,
    resolution_dbm: float,
    denom: float,
) -> np.ndarray:
    """``E[v]`` of pair entries with ``log_ratio = log10(d_j) - log10(d_i)``."""
    dmu = 10.0 * path_loss_exponent * log_ratio
    if noise_sigma_dbm > 0:
        return ndtr((dmu - resolution_dbm) / denom) - ndtr((-dmu - resolution_dbm) / denom)
    return np.sign(dmu) * (np.abs(dmu) > resolution_dbm)  # noiseless: hard sign outside the deadband


def attach_soft_signatures(
    face_map: FaceMap,
    *,
    path_loss_exponent: float,
    noise_sigma_dbm: float,
    resolution_dbm: float = 0.0,
    sensing_range: float | None = None,
) -> FaceMap:
    """The soft-signature map of *face_map* under these channel parameters.

    A new :class:`~repro.geometry.faces.FaceMap` sharing every array of
    *face_map*, with its ``soft_signatures`` computed from the parameters
    given; *face_map* itself is left unchanged.  Every scan of the new map
    matches against the soft signatures.
    """
    return face_map.replace(
        soft_signatures=expected_extended_signatures(
            face_map,
            path_loss_exponent=path_loss_exponent,
            noise_sigma_dbm=noise_sigma_dbm,
            resolution_dbm=resolution_dbm,
            sensing_range=sensing_range,
        )
    )
