"""Face map: the divided monitor area with signature vectors (paper §4.3).

The uncertain boundaries of all node pairs divide the field into faces;
each face carries a unique signature vector (Definition 6, Lemma 1) and
links to its neighbor faces (Definition 8) so the tracker can hill-climb
instead of scanning all O(n^4) faces (Theorem 1, Algorithm 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.geometry.apollonius import classify_points_pairwise
from repro.geometry.bisector import certain_signatures
from repro.geometry.components import label_equal_regions
from repro.geometry.grid import Grid
from repro.geometry.primitives import enumerate_pairs
from repro.obs import metrics as obs

__all__ = ["Face", "FaceMap", "TraceScan", "build_face_map", "build_certain_face_map"]

#: Bound on the float32 ``(rows, F)`` temporaries one `distances_to_many`
#: GEMM block may allocate; it sets the trace-axis block size.
_GEMM_TEMP_BYTES = 256 * 1024 * 1024

#: Bound on the float32 ``(rows, P)`` difference block one `distances_to`
#: step allocates: small enough to stay cache-resident, so a single-vector
#: scan streams the signature matrix once instead of writing and re-reading
#: an ``(F, P)`` temporary.
_SCAN_BLOCK_BYTES = 256 * 1024

#: Trace rows one pass of the inexact-trace scan filter covers (see
#: :class:`TraceScan`).  Its float64 ``(rows, F)`` result is smaller than
#: the float32 ``(F, P)`` signature matrix once P > 128 (n >= 17).
_FILTER_TRACE_ROWS = 64

#: Bound on the float64 copy of one face block of signatures (and, again,
#: of its squares) the filter GEMMs read: the face axis is blocked so no
#: ``(F, P)`` float64 copy is ever made.
_FILTER_FACE_BYTES = 1024 * 1024

_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64


def _gamma(n: int, u: float) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)``: the relative error bound of an
    ``n``-term float sum or dot product in any summation order."""
    return n * u / (1.0 - n * u)


@dataclass(frozen=True)
class Face:
    """One face of the divided monitor area."""

    face_id: int
    signature: np.ndarray  # (P,) int8 in {-1, 0, +1}
    centroid: np.ndarray  # (2,) metres — centroid of member cell centres (Eq. 5)
    n_cells: int
    area_m2: float

    @property
    def n_uncertain_pairs(self) -> int:
        """How many pair boundaries this face sits inside (zeros in the signature)."""
        return int(np.count_nonzero(self.signature == 0))

    @property
    def is_certain(self) -> bool:
        """True when every pair ordering is certain inside the face (no zeros)."""
        return self.n_uncertain_pairs == 0


class FaceMap:
    """The complete division of the field plus matching accelerators.

    Attributes
    ----------
    nodes : (n, 2) sensor positions.
    grid : the raster used for the approximate division.
    c : uncertainty constant used for the boundaries (1.0 = certain/bisector map).
    signatures : (F, P) int8 — one signature vector per face.
    centroids : (F, 2) face centroids.
    cell_face : (M,) face id of every grid cell.
    cell_counts : (F,) number of cells per face.
    adjacency : CSR-style neighbor-face links (``adj_indptr``/``adj_indices``).
    soft_signatures : (F, P) float32 expected quantitative signatures (§6),
        or None.  A map that has them is the soft-signature map of extended
        FTTT (``repro.core.extended.attach_soft_signatures``) and every scan
        of it matches against them.

    No array of a map changes after construction; :meth:`replace` derives
    a new map that shares every array it does not change.
    """

    _FIELDS = (
        "nodes",
        "grid",
        "c",
        "signatures",
        "centroids",
        "cell_face",
        "cell_counts",
        "adj_indptr",
        "adj_indices",
        "soft_signatures",
    )

    def __init__(
        self,
        nodes: np.ndarray,
        grid: Grid,
        c: float,
        signatures: np.ndarray,
        centroids: np.ndarray,
        cell_face: np.ndarray,
        cell_counts: np.ndarray,
        adj_indptr: np.ndarray,
        adj_indices: np.ndarray,
        soft_signatures: np.ndarray | None = None,
    ) -> None:
        self.nodes = nodes
        self.grid = grid
        self.c = c
        self.signatures = signatures
        self.centroids = centroids
        self.cell_face = cell_face
        self.cell_counts = cell_counts
        self.adj_indptr = adj_indptr
        self.adj_indices = adj_indices
        self.soft_signatures = soft_signatures
        self._signatures_f32: np.ndarray | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaceMap(n_nodes={self.n_nodes}, n_faces={self.n_faces}, "
            f"n_pairs={self.n_pairs}, c={self.c})"
        )

    def replace(self, **changes: object) -> "FaceMap":
        """A new ``FaceMap`` with *changes* applied (dataclasses.replace spirit)."""
        kwargs = {name: getattr(self, name) for name in self._FIELDS}
        kwargs.update(changes)
        return FaceMap(**kwargs)

    # -- basic queries ----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_pairs(self) -> int:
        return self.signatures.shape[1]

    @property
    def n_faces(self) -> int:
        return self.signatures.shape[0]

    def face(self, face_id: int) -> Face:
        if not (0 <= face_id < self.n_faces):
            raise IndexError(f"face id {face_id} out of range [0, {self.n_faces})")
        n_cells = int(self.cell_counts[face_id])
        return Face(
            face_id=face_id,
            signature=self.signatures[face_id],
            centroid=self.centroids[face_id],
            n_cells=n_cells,
            area_m2=n_cells * self.grid.cell_size**2,
        )

    def faces(self) -> list[Face]:
        return [self.face(i) for i in range(self.n_faces)]

    def face_of_point(self, point: np.ndarray) -> int:
        """Face id containing *point* (via its grid cell)."""
        return int(self.cell_face[self.grid.cell_of(np.asarray(point))[0]])

    def signature_of_point(self, point: np.ndarray) -> np.ndarray:
        return self.signatures[self.face_of_point(point)]

    def neighbors(self, face_id: int) -> np.ndarray:
        """Neighbor face ids of *face_id* (Definition 8)."""
        if not (0 <= face_id < self.n_faces):
            raise IndexError(f"face id {face_id} out of range [0, {self.n_faces})")
        return self.adj_indices[self.adj_indptr[face_id] : self.adj_indptr[face_id + 1]]

    @property
    def n_certain_faces(self) -> int:
        """Faces with no uncertain pair (Fig. 3: these vanish as C or spacing grows)."""
        return int(np.count_nonzero(np.all(self.signatures != 0, axis=1)))

    # -- matching ---------------------------------------------------------

    def _sig_f32(self) -> np.ndarray:
        if self._signatures_f32 is None:
            self._signatures_f32 = self.signatures.astype(np.float32)
        return self._signatures_f32

    def signature_matrix(self) -> np.ndarray:
        """(F, P) float32 signatures every scan of this map matches against:
        the soft (expected quantitative) ones of a map returned by
        ``repro.core.extended.attach_soft_signatures``, the qualitative
        ones otherwise."""
        if self.soft_signatures is not None:
            return self.soft_signatures
        return self._sig_f32()

    def distances_to(self, vector: np.ndarray) -> np.ndarray:
        """Squared vector distance from *vector* to every face signature.

        NaN components of *vector* are the ``*`` fault values of Eq. 7 and
        contribute zero difference.

        The faces are scanned in row blocks of ``_SCAN_BLOCK_BYTES``.  Each
        face's distance is the same einsum reduction over its own ``P``
        differences whatever block it lands in, so the block size cannot
        change an output bit.
        """
        v = np.asarray(vector, dtype=np.float32)
        if v.shape != (self.n_pairs,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.n_pairs},)")
        return self._scan_faces(self.signature_matrix(), v)

    def _scan_faces(
        self, sigs: np.ndarray, v: np.ndarray, face_ids: "np.ndarray | None" = None
    ) -> np.ndarray:
        """The exact kernel of :meth:`distances_to` over every face, or over
        *face_ids* only: the same per-face einsum either way."""
        mask = np.isnan(v)
        masked = bool(mask.any())
        n = self.n_faces if face_ids is None else len(face_ids)
        rows = max(1, _SCAN_BLOCK_BYTES // (4 * self.n_pairs))
        out = np.empty(n, dtype=np.result_type(sigs, v))
        for start in range(0, n, rows):
            if face_ids is None:
                diff = sigs[start : start + rows] - v
            else:
                diff = sigs[face_ids[start : start + rows]] - v
            if masked:
                diff[:, mask] = 0.0
            out[start : start + rows] = np.einsum("fp,fp->f", diff, diff)
        return out

    def distances_to_many(self, vectors: np.ndarray) -> np.ndarray:
        """Squared vector distance from each of ``(B, P)`` *vectors* to every face.

        Bit-identical to calling :meth:`distances_to` per row.  When the
        map has only its qualitative ``{-1, 0, +1}`` signatures and every vector
        component is a small integer (the basic Definition-4 values), the
        batch is computed as one GEMM via the expansion
        ``|a - b|^2 = |a|^2 - 2 a.b + |b|^2`` — every product and partial
        sum is then a small exact integer in float32, so the result is
        exactly the per-row einsum regardless of BLAS summation order.  NaN
        fault components (Eq. 7) are handled by zeroing them and
        subtracting the masked signature energy, again exactly.  Other
        batches (extended vectors, soft signatures) have no exact GEMM, so
        their full rows are ``distances_to`` per row; matching such a batch
        needs only each row's near-best faces, which :meth:`match_many`
        finds with the bounded GEMM filter of :class:`TraceScan`.

        The batch is processed in row blocks (see :meth:`distance_blocks`)
        so peak temporary allocation stays under ``_GEMM_TEMP_BYTES``
        however large B grows; because both the GEMM expansion and the
        per-row path are exact per row, the block size cannot change a
        single output bit.
        """
        V = self._as_batch(vectors)
        if len(V) <= self._block_rows():
            return self._distances_block(V)
        out = np.empty((len(V), self.n_faces), dtype=np.float32)
        for start, d2 in self.distance_blocks(V):
            out[start : start + len(d2)] = d2
        return out

    def _block_rows(self) -> int:
        """Trace-axis block size: one block's ``(rows, F)`` float32
        temporaries stay under ``_GEMM_TEMP_BYTES``."""
        return max(1, _GEMM_TEMP_BYTES // (4 * max(1, self.n_faces)))

    def distance_blocks(self, vectors: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start, d2)`` row blocks of :meth:`distances_to_many`.

        ``d2`` holds the distances of rows ``start : start + len(d2)``;
        only one block is live at a time.
        """
        V = self._as_batch(vectors)
        step = self._block_rows()
        for start in range(0, len(V), step):
            yield start, self._distances_block(V[start : start + step])

    def gemm_exact(self, vectors: np.ndarray) -> bool:
        """True when the float32 GEMM expansion of :meth:`distances_to_many`
        is exact for *vectors*: a map without soft signatures and
        small-integer components (NaN = ``*``).  Otherwise
        :meth:`distances_to_many` computes one :meth:`distances_to` per row
        and :class:`TraceScan` matches through its bounded float64 filter
        instead."""
        if self.soft_signatures is not None:
            return False
        V = np.asarray(vectors, dtype=np.float32)
        v0 = np.where(np.isnan(V), np.float32(0.0), V)
        return bool(np.all(v0 == np.rint(v0))) and bool(np.all(np.abs(v0) <= 8.0))

    def _as_batch(self, vectors: np.ndarray) -> np.ndarray:
        V = np.asarray(vectors, dtype=np.float32)
        if V.ndim != 2 or V.shape[1] != self.n_pairs:
            raise ValueError(f"vectors have shape {V.shape}, expected (B, {self.n_pairs})")
        return V

    def _distances_block(self, V: np.ndarray) -> np.ndarray:
        if not self.gemm_exact(V):
            out = np.empty((len(V), self.n_faces), dtype=np.float32)
            for b in range(len(V)):
                out[b] = self.distances_to(V[b])
            return out
        mask = np.isnan(V)
        v0 = np.where(mask, np.float32(0.0), V)
        sigs = self._sig_f32()
        # squared per block, not kept: a cached map would otherwise hold an
        # (F, P) copy for as long as the cache keeps the map
        sq = np.square(sigs)
        v_sq = np.einsum("bp,bp->b", v0, v0)
        d2 = v_sq[:, None] - np.float32(2.0) * (v0 @ sigs.T) + sq.sum(axis=1)[None, :]
        if mask.any():
            # masked columns must contribute zero, not s^2: subtract their energy
            d2 -= mask.astype(np.float32) @ sq.T
        return d2

    def tie_tolerance(self, best: float) -> float:
        """Tie threshold for :meth:`match`, relative to the distance scale.

        Two faces tie when their squared distances agree to within float32
        accumulation error over P = C(n, 2) terms — ``eps32 * sqrt(P)``
        relative — floored at the legacy absolute ``1e-6``.

        An exact match (``best == 0``) is special: its Definition 7
        similarity is infinite, so no other face can tie with it.  The
        relative tolerance is naturally 0 there, and applying the
        absolute floor instead would admit soft-signature faces a genuine
        ``~1e-8`` away — two bit-equal faces must tie with each other and
        with nothing else.

        ``best + tie_tolerance(best)`` is nondecreasing in ``best``; the
        candidate bound of :meth:`TraceScan.limit` relies on it.
        """
        best = float(best)
        if best == 0.0:
            return 0.0
        eps32 = float(np.finfo(np.float32).eps)
        return max(1e-6, best * eps32 * math.sqrt(self.n_pairs))

    def best_faces(
        self, d2: np.ndarray, face_ids: "np.ndarray | None" = None
    ) -> tuple[np.ndarray, float]:
        """``(face_ids, best)`` of one distance row: every face within
        :meth:`tie_tolerance` of the minimum.

        *d2* holds the distances of every face, or of the ascending
        *face_ids* only — the same answer whenever those include every face
        within the tolerance of the row minimum (:class:`TraceScan`).  The
        one tie rule of :meth:`match`, :meth:`match_many` and any caller
        resolving a precomputed row, and the one place the
        ``geometry.match.*`` counters are recorded.
        """
        best = float(d2.min())
        ties = np.flatnonzero(d2 <= best + self.tie_tolerance(best))
        if face_ids is not None:
            ties = face_ids[ties]
        if obs.enabled():
            obs.counter("geometry.match.rounds").inc()
            obs.histogram("geometry.match.ties").observe(len(ties))
            obs.gauge("geometry.match.candidate_faces").set(self.n_faces)
        return ties, best

    def match(self, vector: np.ndarray) -> tuple[np.ndarray, float]:
        """Exhaustive maximum-likelihood matching (paper §4.4-1).

        Returns ``(face_ids, sq_distance)`` — all faces tying at the minimum
        squared vector distance.  Similarity of Definition 7 is
        ``1/sqrt(sq_distance)`` (infinite on exact match).
        """
        return self.best_faces(self.distances_to(vector))

    def match_many(self, vectors: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Batched :meth:`match` over ``(B, P)`` *vectors*.

        Returns ``(ties_per_row, best_sq_distances)`` — identical, row for
        row, to calling :meth:`match` in a loop: every row is one
        :meth:`TraceScan.scan`.
        """
        scan = TraceScan(self, vectors)
        ties: list[np.ndarray] = []
        bests = np.empty(len(scan), dtype=float)
        for b in range(len(scan)):
            t, bests[b] = self.best_faces(*scan.scan(b))
            ties.append(t)
        if obs.enabled():
            obs.counter("geometry.match.batched_rounds").inc(len(ties))
        return ties, bests


class TraceScan:
    """On-demand exhaustive scans of the rows of one ``(T, P)`` trace.

    :meth:`scan` returns ``(d2, face_ids)`` for row ``b`` such that
    ``face_map.best_faces(d2, face_ids)`` equals
    ``face_map.match(vectors[b])`` bit for bit, obs counters
    included.  A block of rows is computed only once one of its rows is
    scanned — a filter block (below) once a second one is, since a filter
    pass costs several single scans: the block's first scan runs alone as
    ``distances_to``.  Only the latest block is kept, so a trace whose rows
    rarely need a scan pays for few blocks, and one that never falls back
    for no filter pass.

    * **Exact traces** (:meth:`FaceMap.gemm_exact`): ``d2`` is the row's
      full float32 GEMM distance row, bit-identical to ``distances_to``;
      ``face_ids`` is None (every face).
    * **Other traces** (soft-signature maps, fractional vectors) have no exact
      GEMM.  A filter pass computes an approximate float64 d² of each of
      ``_FILTER_TRACE_ROWS`` rows to every face with the masked expansion
      ``sum m v^2 - 2 (m v) . s + m . s^2`` (``m`` zero on Eq. 7's ``*``
      components), in face blocks of ``_FILTER_FACE_BYTES`` so no
      ``(F, P)`` float64 copy exists.  :meth:`limit` bounds, rigorously,
      how far above the row's approximate minimum a face can lie and still
      be within the tie window of the exact minimum; the faces below it
      are rescored with the exact ``distances_to`` kernel.  Every face
      ``best_faces`` would report is among them, and so is the minimum, so
      the ties and the best value equal the full scan's.
    """

    def __init__(self, face_map: FaceMap, vectors: np.ndarray) -> None:
        self.face_map = face_map
        self.vectors = face_map._as_batch(vectors)
        self.exact = face_map.gemm_exact(self.vectors)
        self._rows = face_map._block_rows() if self.exact else _FILTER_TRACE_ROWS
        self._start = -1
        self._first = -1  # block whose first scan ran alone
        self._block: np.ndarray | None = None  # exact d2, or approximate float64 d2
        self._vsq: np.ndarray | None = None  # per row sum m v^2 of the filter block

    def __len__(self) -> int:
        return len(self.vectors)

    def scan(self, b: int) -> tuple[np.ndarray, "np.ndarray | None"]:
        """``(d2, face_ids)`` of row *b*: the exact distances of every face
        (``face_ids`` None) or of the ascending filter survivors."""
        fm = self.face_map
        start = b - b % self._rows
        if start != self._start:
            rows = self.vectors[start : start + self._rows]
            if self.exact:
                self._block = fm._distances_block(rows)
            elif start != self._first:
                self._first = start
                return fm.distances_to(self.vectors[b]), None
            else:
                self._block, self._vsq = self._filter(rows)
            self._start = start
        if self.exact:
            return self._block[b - start], None
        approx = self._block[b - start]
        limit = self.limit(float(approx.min()), float(self._vsq[b - start]))
        face_ids = np.flatnonzero(approx <= limit)
        return fm._scan_faces(fm.signature_matrix(), self.vectors[b], face_ids), face_ids

    def _filter(self, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Approximate float64 d² of *V*'s rows to every face, and each
        row's ``sum m v^2``."""
        fm = self.face_map
        sigs = fm.signature_matrix()
        mask = np.isnan(V)
        v0 = np.where(mask, 0.0, V.astype(np.float64))
        vsq = np.einsum("bp,bp->b", v0, v0)
        keep = (~mask).astype(np.float64) if mask.any() else None
        approx = np.empty((len(V), fm.n_faces))
        step = max(1, _FILTER_FACE_BYTES // (8 * fm.n_pairs))
        for start in range(0, fm.n_faces, step):
            s = sigs[start : start + step].astype(np.float64)
            block = v0 @ s.T
            block *= -2.0
            s *= s  # float32 squares are exact in float64
            block += s.sum(axis=1) if keep is None else keep @ s.T
            block += vsq[:, None]
            approx[:, start : start + step] = block
        return approx, vsq

    def limit(self, approx_min: float, vsq: float) -> float:
        """Largest approximate d² a face can have and still be a tie of the
        exact scan, for a row with approximate minimum *approx_min* and
        ``sum m v^2`` = *vsq*.

        With ``d`` a face's real distance (over the float32 operands),
        ``D`` its ``distances_to`` value and ``A`` its filter value:

        * ``|A - d| <= e + rho d`` with ``e = 8 g64 vsq``, ``rho = 4 g64``,
          ``g64 = gamma_{P+4}`` in float64: each GEMM term errs by at most
          ``g64`` times the sum of its absolute products, and those sums are
          at most ``6 vsq + 4 d`` (the squares and products of float32
          values are exact in float64).
        * ``|D - d| <= r32 d + a32`` with ``r32 = gamma_{P+4}`` in float32:
          a rounded subtraction, a rounded square and a P-term float32 sum
          in any order; ``a32`` covers underflow.

        So ``min D`` is at most ``U = (1 + r32)(approx_min + e)/(1 - rho) +
        a32``, and ``best_faces`` keeps faces with ``D <= best +
        tie_tolerance(best)``, compared in float32; that is below ``(U +
        tie_tolerance(U))(1 + 2^-23)`` because ``x + tie_tolerance(x)`` is
        nondecreasing.  A face whose lower bound ``(1 - r32)(A - e)/(1 +
        rho) - a32`` exceeds that cannot be reported.
        """
        n = self.face_map.n_pairs + 4
        g64 = _gamma(n, _U64)
        r32 = _gamma(n, _U32)
        a32 = n * float(np.finfo(np.float32).tiny)
        e = 8.0 * g64 * vsq
        rho = 4.0 * g64
        upper = (1.0 + r32) * (approx_min + e) / (1.0 - rho) + a32
        window = (upper + self.face_map.tie_tolerance(upper)) * (1.0 + 2.0 * _U32)
        return (window + a32) * (1.0 + rho) / (1.0 - r32) + e


def _build_adjacency(cell_face: np.ndarray, grid: Grid, n_faces: int) -> tuple[np.ndarray, np.ndarray]:
    a, b = grid.neighbor_pairs()
    fa, fb = cell_face[a], cell_face[b]
    diff = fa != fb
    fa, fb = fa[diff], fb[diff]
    lo = np.minimum(fa, fb)
    hi = np.maximum(fa, fb)
    edges = np.unique(lo.astype(np.int64) * n_faces + hi.astype(np.int64))
    lo = (edges // n_faces).astype(np.int64)
    hi = (edges % n_faces).astype(np.int64)
    # symmetric CSR
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    indptr = np.zeros(n_faces + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique rows + inverse indices via a void view (one memcmp per compare,
    ~10x faster than ``np.unique(axis=0)`` on wide int8 signature matrices)."""
    a = np.ascontiguousarray(a)
    void = a.view([("bytes", f"V{a.shape[1] * a.itemsize}")]).ravel()
    _, first_idx, inverse = np.unique(void, return_index=True, return_inverse=True)
    return a[first_idx], inverse.ravel()


def _faces_from_signatures(
    cell_sigs: np.ndarray, grid: Grid, split_components: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group cells into faces; returns (signatures, centroids, cell_face, counts)."""
    unique_rows, sig_ids = _unique_rows(cell_sigs)
    if split_components:
        a, b = grid.neighbor_pairs()
        face_ids = label_equal_regions(sig_ids, a, b)
        # labels are contiguous from 0: each face's first cell carries its signature
        first_cell = np.unique(face_ids, return_index=True)[1]
        n_faces = len(first_cell)
        face_rows = cell_sigs[first_cell]
    else:
        face_ids = sig_ids
        n_faces = len(unique_rows)
        face_rows = unique_rows
    counts = np.bincount(face_ids, minlength=n_faces).astype(np.int64)
    centers = grid.cell_centers
    cx = np.bincount(face_ids, weights=centers[:, 0], minlength=n_faces)
    cy = np.bincount(face_ids, weights=centers[:, 1], minlength=n_faces)
    centroids = np.column_stack([cx, cy]) / counts[:, None]
    return face_rows.astype(np.int8), centroids, face_ids.astype(np.int64), counts


def _assemble_face_map(
    nodes: np.ndarray,
    grid: Grid,
    c: float,
    cell_sigs: np.ndarray,
    split_components: bool,
) -> FaceMap:
    signatures, centroids, cell_face, counts = _faces_from_signatures(cell_sigs, grid, split_components)
    indptr, indices = _build_adjacency(cell_face, grid, len(signatures))
    return FaceMap(
        nodes=nodes,
        grid=grid,
        c=c,
        signatures=signatures,
        centroids=centroids,
        cell_face=cell_face,
        cell_counts=counts,
        adj_indptr=indptr,
        adj_indices=indices,
    )


def build_face_map(
    nodes: np.ndarray,
    grid: Grid,
    c: float,
    *,
    sensing_range: float | None = None,
    split_components: bool = False,
) -> FaceMap:
    """Divide the field by all pairwise uncertain boundaries (Definition 2).

    Parameters
    ----------
    nodes : (n, 2) sensor positions.
    grid : raster for the approximate division (paper §4.3-2).
    c : uncertainty constant from
        :func:`repro.geometry.apollonius.uncertainty_constant`.
    sensing_range : sensor hearing radius R; when given, signatures apply
        the Eq. 6 semantics for pairs whose nodes cannot hear a face
        (see :func:`~repro.geometry.apollonius.classify_points_pairwise`).
    split_components : also split equal-signature regions that are not
        connected (strict face semantics).  Off by default — matching
        semantics are identical and the paper's own evaluation groups by
        signature.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if len(nodes) < 2:
        raise ValueError(f"need at least two nodes, got {len(nodes)}")
    pairs = enumerate_pairs(len(nodes))
    cell_sigs = classify_points_pairwise(
        grid.cell_centers, nodes, c, pairs, sensing_range=sensing_range
    )
    return _assemble_face_map(nodes, grid, c, cell_sigs, split_components)


def build_certain_face_map(
    nodes: np.ndarray,
    grid: Grid,
    *,
    split_components: bool = False,
) -> FaceMap:
    """Face map of the certain-sequence baselines: bisector division only.

    This is the classic division of [22]/[24] — Fig. 3(a) of the paper —
    obtained in the ``C -> 1`` limit.  ``c`` is recorded as 1.0.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if len(nodes) < 2:
        raise ValueError(f"need at least two nodes, got {len(nodes)}")
    pairs = enumerate_pairs(len(nodes))
    cell_sigs = certain_signatures(grid.cell_centers, nodes, pairs)
    return _assemble_face_map(nodes, grid, 1.0, cell_sigs, split_components)
