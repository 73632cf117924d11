"""Double-level adaptive grid division (paper ref [29]).

The flat grid of §4.3-2 pays the fine-cell cost everywhere; the paper's
companion work ("Target Localization Based on Double-level Grid Division")
observes that signatures are constant across the interior of a face, so
only cells straddling an uncertain boundary need refinement.  This module
implements that scheme:

1. classify the *corners* of a coarse grid;
2. coarse cells whose four corners agree are uniform — they take the
   corner signature at coarse resolution;
3. the remaining (boundary) cells are subdivided into fine cells, each
   classified at its own centre.

The result is returned as a standard :class:`~repro.geometry.faces.FaceMap`
over the fine grid (uniform blocks broadcast their signature), so every
consumer — matching, adjacency, centroids — works unchanged, while the
classification work drops by roughly the uniform-area fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.apollonius import classify_points_pairwise
from repro.geometry.faces import FaceMap, _assemble_face_map
from repro.geometry.grid import Grid
from repro.geometry.primitives import enumerate_pairs

__all__ = ["AdaptiveDivisionStats", "build_adaptive_face_map"]


@dataclass(frozen=True)
class AdaptiveDivisionStats:
    """Work accounting for one adaptive division."""

    coarse_cells: int
    uniform_cells: int
    refined_cells: int
    fine_cells_classified: int
    fine_cells_total: int

    @property
    def classification_savings(self) -> float:
        """Fraction of fine-cell classifications avoided vs a flat grid."""
        if self.fine_cells_total == 0:
            return 0.0
        return 1.0 - self.fine_cells_classified / self.fine_cells_total


def build_adaptive_face_map(
    nodes: np.ndarray,
    field_size: float,
    c: float,
    *,
    coarse_cell: float = 8.0,
    refine_factor: int = 4,
    sensing_range: float | None = None,
    split_components: bool = False,
    chunk_pairs: int = 256,
) -> tuple[FaceMap, AdaptiveDivisionStats]:
    """Adaptive double-level division of a square field.

    Parameters
    ----------
    nodes : (n, 2) sensor positions.
    field_size : side of the square field (metres).
    c : uncertainty constant (>= 1).
    coarse_cell : coarse-level cell size; must be ``refine_factor`` times
        the fine cell size implied by it.
    refine_factor : fine cells per coarse cell side (>= 2).
    sensing_range / split_components / chunk_pairs : as in
        :func:`~repro.geometry.faces.build_face_map`.

    Returns
    -------
    (face_map, stats) — the face map is over the *fine* grid and is
    interchangeable with a flat :func:`build_face_map` at that resolution;
    stats reports how much classification work the two-level scheme saved.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if len(nodes) < 2:
        raise ValueError(f"need at least two nodes, got {len(nodes)}")
    if refine_factor < 2:
        raise ValueError(f"refine_factor must be >= 2, got {refine_factor}")
    if coarse_cell <= 0:
        raise ValueError(f"coarse_cell must be positive, got {coarse_cell}")
    fine_cell = coarse_cell / refine_factor
    coarse = Grid.square(field_size, coarse_cell)
    fine = Grid.square(field_size, fine_cell)
    pairs = enumerate_pairs(len(nodes))
    n_pairs = len(pairs[0])

    # 1. classify the coarse-cell corner lattice
    nx, ny = coarse.nx, coarse.ny
    xs = np.arange(nx + 1) * coarse_cell
    ys = np.arange(ny + 1) * coarse_cell
    gx, gy = np.meshgrid(np.minimum(xs, field_size), np.minimum(ys, field_size))
    corners = np.column_stack([gx.ravel(), gy.ravel()])
    corner_sigs = classify_points_pairwise(
        corners, nodes, c, pairs, sensing_range=sensing_range, chunk_pairs=chunk_pairs
    ).reshape(ny + 1, nx + 1, n_pairs)

    # 2. uniform coarse cells: all four corners share a signature
    tl = corner_sigs[:-1, :-1]
    tr = corner_sigs[:-1, 1:]
    bl = corner_sigs[1:, :-1]
    br = corner_sigs[1:, 1:]
    uniform = (
        np.all(tl == tr, axis=2) & np.all(tl == bl, axis=2) & np.all(tl == br, axis=2)
    )  # (ny, nx)

    # 3. assemble the fine-grid signature matrix
    fine_sigs = np.empty((fine.ny, fine.nx, n_pairs), dtype=np.int8)
    # broadcast uniform blocks
    block_sig = tl  # (ny, nx, P) — representative corner signature
    expanded = np.repeat(np.repeat(block_sig, refine_factor, axis=0), refine_factor, axis=1)
    fine_sigs[...] = expanded[: fine.ny, : fine.nx]

    # refine boundary cells: classify their fine centres exactly
    boundary_cells = np.argwhere(~uniform)
    fine_classified = 0
    if len(boundary_cells):
        centres = []
        spans = []
        for cy, cx in boundary_cells:
            y0 = cy * refine_factor
            x0 = cx * refine_factor
            y1 = min(y0 + refine_factor, fine.ny)
            x1 = min(x0 + refine_factor, fine.nx)
            yy, xx = np.mgrid[y0:y1, x0:x1]
            centres.append(
                np.column_stack(
                    [(xx.ravel() + 0.5) * fine_cell, (yy.ravel() + 0.5) * fine_cell]
                )
            )
            spans.append((y0, y1, x0, x1))
        all_centres = np.vstack(centres)
        fine_classified = len(all_centres)
        sigs = classify_points_pairwise(
            all_centres, nodes, c, pairs, sensing_range=sensing_range, chunk_pairs=chunk_pairs
        )
        offset = 0
        for (y0, y1, x0, x1) in spans:
            count = (y1 - y0) * (x1 - x0)
            fine_sigs[y0:y1, x0:x1] = sigs[offset : offset + count].reshape(
                y1 - y0, x1 - x0, n_pairs
            )
            offset += count

    cell_sigs = fine_sigs.reshape(fine.n_cells, n_pairs)
    face_map = _assemble_face_map(nodes, fine, c, cell_sigs, split_components)
    stats = AdaptiveDivisionStats(
        coarse_cells=coarse.n_cells,
        uniform_cells=int(uniform.sum()),
        refined_cells=int((~uniform).sum()),
        fine_cells_classified=fine_classified,
        fine_cells_total=fine.n_cells,
    )
    return face_map, stats
