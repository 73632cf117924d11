"""Tiled (and optionally multiprocess) grid-cell signature classification.

``build_face_map`` classifies every grid cell against all C(n, 2) pair
boundaries — an embarrassingly parallel ``cells x pairs`` volume that the
serial builder walks in one pass.  This module splits the cell axis into
tiles and classifies them either in-process (bounding peak memory to one
tile) or across worker processes that write their tiles directly into a
single preallocated ``multiprocessing.shared_memory`` buffer, so there is
no per-tile result pickling and no merge copy.  The buffer is unlinked in
a ``finally`` and, should the process die first, by an ``atexit`` guard.

Bit-identity: classification is elementwise per cell
(:func:`~repro.geometry.primitives.pairwise_distances` is pure
broadcasting, no reductions across cells), so any tiling of the cell axis
produces byte-for-byte the same signature volume as the serial pass.  With
``packed=True`` each tile is packed with the order-preserving 2-bit
encoding of :mod:`repro.geometry.packing`, which keeps the downstream
unique-row face grouping bit-identical too.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import uuid
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.geometry.apollonius import classify_points_pairwise
from repro.geometry.bisector import certain_signatures
from repro.geometry.grid import Grid
from repro.geometry.packing import PackedSignatures, pack_signatures, packed_row_bytes

__all__ = ["classify_cells_tiled", "default_tile_cells"]

_SEGMENT_PREFIX = "reprofm"

#: Segments created (and therefore owned) by this process, by name.
_owned_segments: dict[str, shared_memory.SharedMemory] = {}
_atexit_installed = False


def _cleanup_owned_segments() -> None:
    for name in list(_owned_segments):
        seg = _owned_segments.pop(name)
        try:
            seg.close()
        except OSError:  # pragma: no cover - defensive
            pass
        try:
            seg.unlink()
        except FileNotFoundError:
            pass


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create a leak-guarded shared-memory segment owned by this process."""
    global _atexit_installed
    if not _atexit_installed:
        atexit.register(_cleanup_owned_segments)
        _atexit_installed = True
    name = f"{_SEGMENT_PREFIX}_{os.getpid()}_{uuid.uuid4().hex[:10]}"
    seg = shared_memory.SharedMemory(name=name, create=True, size=max(1, int(nbytes)))
    _owned_segments[seg.name] = seg
    return seg


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering it for cleanup.

    The creator owns unlinking; an attaching worker must not let Python's
    per-process ``resource_tracker`` claim the segment, or worker exit
    triggers spurious leak warnings and double-unlinks.  Python 3.13 has
    ``track=False`` for this; on 3.11/3.12 we unregister by hand.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: suppress registration during attach
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


def _release_segment(seg: shared_memory.SharedMemory) -> None:
    """Close and unlink a segment created by :func:`_create_segment`."""
    _owned_segments.pop(seg.name, None)
    try:
        seg.close()
    except OSError:  # pragma: no cover - defensive
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        pass


def owned_segment_names() -> list[str]:
    """Names of live segments owned by this process (for leak tests)."""
    return sorted(_owned_segments)

#: Cap on one tile's dense int8 signature block (cells x pairs bytes).
_TILE_BYTES = 16 * 1024 * 1024


def default_tile_cells(n_cells: int, n_pairs: int, workers: int) -> int:
    """Tile size balancing scheduling granularity against per-tile overhead:
    ~4 tiles per worker, but never a dense tile block over ``_TILE_BYTES``."""
    by_workers = -(-n_cells // max(1, 4 * workers))  # ceil
    by_memory = max(1, _TILE_BYTES // max(1, n_pairs))
    return max(1, min(by_workers, by_memory))


def _classify_tile(
    centers: np.ndarray,
    nodes: np.ndarray,
    c: float,
    kind: str,
    sensing_range: float | None,
    chunk_pairs: int,
) -> np.ndarray:
    if kind == "uncertain":
        return classify_points_pairwise(
            centers, nodes, c, None, sensing_range=sensing_range, chunk_pairs=chunk_pairs
        )
    if kind == "certain":
        return certain_signatures(centers, nodes, None, chunk_pairs=chunk_pairs)
    raise ValueError(f"unknown signature kind {kind!r}")


# Worker state installed once per process by the pool initializer; tasks
# then carry only a (start, stop) cell span.
_WORKER: dict = {}


def _init_worker(
    shm_name: str,
    buf_shape: tuple[int, int],
    grid: Grid,
    nodes: np.ndarray,
    c: float,
    kind: str,
    sensing_range: float | None,
    chunk_pairs: int,
    packed: bool,
) -> None:
    segment = _attach_segment(shm_name)
    _WORKER.update(
        segment=segment,
        buf=np.ndarray(buf_shape, dtype=np.uint8 if packed else np.int8, buffer=segment.buf),
        grid=grid,
        nodes=nodes,
        c=c,
        kind=kind,
        sensing_range=sensing_range,
        chunk_pairs=chunk_pairs,
        packed=packed,
    )


def _run_tile(span: tuple[int, int]) -> int:
    start, stop = span
    st = _WORKER
    sigs = _classify_tile(
        st["grid"].cell_centers[start:stop],
        st["nodes"],
        st["c"],
        st["kind"],
        st["sensing_range"],
        st["chunk_pairs"],
    )
    st["buf"][start:stop] = pack_signatures(sigs) if st["packed"] else sigs
    return stop - start


def _pool_context() -> mp.context.BaseContext:
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return mp.get_context("spawn")


def classify_cells_tiled(
    grid: Grid,
    nodes: np.ndarray,
    *,
    c: float,
    kind: str,
    sensing_range: float | None,
    chunk_pairs: int | None,
    workers: int,
    tile_cells: int | None,
    packed: bool,
) -> np.ndarray | PackedSignatures:
    """Classify every grid cell, tile by tile.

    Returns the dense ``(M, P)`` int8 signature volume, or its
    :class:`PackedSignatures` form when ``packed=True`` — in either case
    bit-identical to the one-pass serial classification.
    """
    if chunk_pairs is None:
        chunk_pairs = 256  # the build_face_map default
    n = len(nodes)
    n_pairs = n * (n - 1) // 2
    n_cells = grid.n_cells
    if tile_cells is None:
        tile_cells = default_tile_cells(n_cells, n_pairs, workers)
    tile_cells = int(tile_cells)
    if tile_cells < 1:
        raise ValueError(f"tile_cells must be >= 1, got {tile_cells}")
    spans = [(start, min(start + tile_cells, n_cells)) for start in range(0, n_cells, tile_cells)]
    row_bytes = packed_row_bytes(n_pairs) if packed else n_pairs
    out_shape = (n_cells, row_bytes)
    out_dtype = np.uint8 if packed else np.int8

    if workers <= 1 or len(spans) < 2:
        out = np.empty(out_shape, dtype=out_dtype)
        for start, stop in spans:
            sigs = _classify_tile(
                grid.cell_centers[start:stop], nodes, c, kind, sensing_range, chunk_pairs
            )
            out[start:stop] = pack_signatures(sigs) if packed else sigs
        return PackedSignatures(out, n_pairs) if packed else out

    segment = _create_segment(int(np.prod(out_shape, dtype=np.int64)))
    try:
        ctx = _pool_context()
        with ctx.Pool(
            processes=min(workers, len(spans)),
            initializer=_init_worker,
            initargs=(
                segment.name,
                out_shape,
                grid,
                nodes,
                c,
                kind,
                sensing_range,
                chunk_pairs,
                packed,
            ),
        ) as pool:
            done = sum(pool.map(_run_tile, spans, chunksize=1))
        if done != n_cells:  # pragma: no cover - worker protocol violation
            raise RuntimeError(f"tiled classification covered {done}/{n_cells} cells")
        buf = np.ndarray(out_shape, dtype=out_dtype, buffer=segment.buf)
        out = buf.copy()
        del buf
    finally:
        _release_segment(segment)
    return PackedSignatures(out, n_pairs) if packed else out
