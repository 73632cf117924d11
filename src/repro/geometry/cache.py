"""Content-addressed face-map cache (in-process LRU + optional disk store).

Building a face map is the dominant cost of every sweep: ``M`` grid cells
classified against ``C(n, 2)`` pair boundaries, repeated for every
replication of every parameter point.  Many sweeps revisit the *same*
world — ``fig12b`` sweeps k over common-random-number deployments, the
ablations rebuild one deployment per arm, and ``parallel_sweep`` workers
each rebuild maps the sibling tasks already built.  The division depends
only on ``(nodes, grid, c, sensing_range, split_components)``, none of
which involve randomness once the deployment is drawn, so a cached copy
is *bit-identical* to a rebuild and reuse cannot perturb any result.

Two tiers:

* an in-process LRU keyed by a SHA-256 over the exact node bytes and the
  build parameters (content-addressed: two deployments match only if
  every coordinate matches bit for bit).  Under ``fork`` start methods
  the parent's warm entries are inherited copy-on-write by pool workers —
  :func:`repro.sim.parallel.parallel_sweep` prewarms the worlds several
  tasks share for exactly this reason.
* an optional on-disk ``.npz`` store (``REPRO_FACE_CACHE_DIR`` or
  :func:`configure_face_map_cache`) so repeated processes — sweep
  workers, CI shards, notebook restarts — share the build.  Writes are
  atomic (temp file + rename), so concurrent workers race benignly.

Every lookup returns a fresh :class:`~repro.geometry.faces.FaceMap`
wrapper sharing the (never-mutated) geometry arrays but with its own
``soft_signatures`` slot, so per-scenario soft attachments cannot leak
between cache users.  Disable entirely with ``REPRO_FACE_CACHE=0``.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.geometry.faces import FaceMap, build_certain_face_map, build_face_map
from repro.geometry.grid import Grid
from repro.geometry.packing import PackedSignatures
from repro.obs import metrics as obs

__all__ = [
    "FaceMapCache",
    "face_map_cache_key",
    "get_face_map",
    "default_face_map_cache",
    "configure_face_map_cache",
    "face_map_cache_enabled",
]

_KEY_VERSION = 1  # bump when FaceMap construction semantics change


def face_map_cache_key(
    nodes: np.ndarray,
    grid: Grid,
    c: float,
    *,
    sensing_range: "float | None" = None,
    split_components: bool = False,
    kind: str = "uncertain",
) -> str:
    """Content hash of everything the face-map build depends on.

    The node array is hashed by its exact float64 bytes, the scalars by
    their exact IEEE bit patterns — two builds share a key iff they would
    produce identical maps.
    """
    if kind not in ("uncertain", "certain"):
        raise ValueError(f"unknown face-map kind {kind!r}")
    nodes = np.ascontiguousarray(np.atleast_2d(np.asarray(nodes, dtype=np.float64)))
    h = hashlib.sha256()
    h.update(struct.pack("<iii", _KEY_VERSION, nodes.shape[0], nodes.shape[1]))
    h.update(nodes.tobytes())
    h.update(
        struct.pack(
            "<dddd d i",
            float(grid.width),
            float(grid.height),
            float(grid.cell_size),
            float(c),
            float("nan") if sensing_range is None else float(sensing_range),
            int(bool(split_components)),
        )
    )
    h.update(kind.encode())
    return h.hexdigest()


_ARRAY_FIELDS = (
    "nodes",
    "signatures",
    "centroids",
    "cell_face",
    "cell_counts",
    "adj_indptr",
    "adj_indices",
)

#: Arrays common to every on-disk format (signatures are format-specific).
_COMMON_FIELDS = tuple(name for name in _ARRAY_FIELDS if name != "signatures")

#: On-disk ``.npz`` layout version.  v1 (PR 1, no ``format`` key) stored the
#: dense int8 signature matrix; v2 stores the 2-bit packed form (~4x
#: smaller files).  v1 entries still load and are transparently rewritten
#: as v2 on first touch.
_DISK_FORMAT = 2


class FaceMapCache:
    """LRU of built face maps, optionally backed by an ``.npz`` directory.

    Parameters
    ----------
    maxsize : in-process entries kept (LRU eviction); 0 disables the
        memory tier (disk tier, if any, still works).
    disk_dir : directory for the on-disk ``.npz`` store; created on first
        write.  ``None`` disables the disk tier.
    """

    def __init__(self, maxsize: int = 64, disk_dir: "str | os.PathLike | None" = None) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be non-negative, got {maxsize}")
        self.maxsize = maxsize
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._entries: "OrderedDict[str, FaceMap]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        self.migrations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            # no shared-memory tier any more; the key stays because stored
            # benchmark harnesses (perfbench/worker.py) still read it
            "shm_hits": 0,
            "evictions": self.evictions,
            "migrations": self.migrations,
        }

    def clear(self) -> None:
        self._entries.clear()

    # -- views -------------------------------------------------------------

    @staticmethod
    def _view(fm: FaceMap) -> FaceMap:
        """Fresh FaceMap sharing arrays but owning its soft-signature slot."""
        fm._sig_f32()  # materialize the shared float32 matrix once
        return fm.view()

    # -- disk tier ---------------------------------------------------------

    def _disk_path(self, key: str) -> "Path | None":
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"facemap-{key}.npz"

    def _disk_store(self, key: str, fm: FaceMap) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        packed = fm.packed_store()
        arrays = {name: getattr(fm, name) for name in _COMMON_FIELDS}
        arrays["signatures_packed"] = packed.data
        arrays["n_pairs"] = np.array([packed.n_pairs], dtype=np.int64)
        arrays["format"] = np.array([_DISK_FORMAT], dtype=np.int64)
        arrays["grid_spec"] = np.array([fm.grid.width, fm.grid.height, fm.grid.cell_size])
        arrays["c"] = np.array([fm.c])
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez_compressed(fh, **arrays)
            os.replace(tmp, path)  # atomic: concurrent writers race benignly
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _disk_load(self, key: str) -> "FaceMap | None":
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with np.load(path) as data:
                grid_spec = data["grid_spec"]
                grid = Grid(float(grid_spec[0]), float(grid_spec[1]), float(grid_spec[2]))
                common = {name: data[name] for name in _COMMON_FIELDS}
                if "format" in data.files:
                    version = int(data["format"][0])
                    if version != _DISK_FORMAT:
                        return None  # future format: treat as a miss
                    fm = FaceMap(
                        grid=grid,
                        c=float(data["c"][0]),
                        signatures=None,
                        packed=PackedSignatures(data["signatures_packed"], int(data["n_pairs"][0])),
                        **common,
                    )
                    return fm
                # v1 (PR 1): dense signatures, no format marker
                fm = FaceMap(
                    grid=grid,
                    c=float(data["c"][0]),
                    signatures=data["signatures"],
                    **common,
                )
        except (OSError, KeyError, ValueError):
            return None  # truncated/foreign file: treat as a miss and rebuild
        # transparent migration: rewrite the legacy entry packed (atomic, so
        # a concurrent reader sees either the old or the new valid file)
        try:
            self._disk_store(key, fm)
            self.migrations += 1
        except OSError:  # pragma: no cover - read-only cache dir
            pass
        return fm

    # -- main entry --------------------------------------------------------

    def get_or_build(
        self,
        nodes: np.ndarray,
        grid: Grid,
        c: float,
        *,
        sensing_range: "float | None" = None,
        split_components: bool = False,
        kind: str = "uncertain",
        chunk_pairs: int = 256,
        workers: "int | None" = None,
        tile_cells: "int | None" = None,
        packed: bool = False,
    ) -> FaceMap:
        """Return the face map for these inputs, building at most once.

        ``kind="uncertain"`` routes to :func:`build_face_map`,
        ``kind="certain"`` to :func:`build_certain_face_map` (which takes
        no ``c`` / ``sensing_range``; pass ``c=1.0`` for a stable key).
        ``workers``/``tile_cells``/``packed`` only shape *how* a miss is
        built (bit-identically), so they are not part of the key.
        """
        key = face_map_cache_key(
            nodes, grid, c, sensing_range=sensing_range, split_components=split_components, kind=kind
        )
        record = obs.enabled()
        fm = self._entries.get(key)
        if fm is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            if record:
                obs.counter("geometry.cache.hits").inc()
            return self._view(fm)
        fm = self._disk_load(key)
        if fm is not None:
            self.disk_hits += 1
            if record:
                obs.counter("geometry.cache.disk_hits").inc()
        else:
            self.misses += 1
            if record:
                obs.counter("geometry.cache.misses").inc()
            if kind == "uncertain":
                fm = build_face_map(
                    nodes,
                    grid,
                    c,
                    sensing_range=sensing_range,
                    split_components=split_components,
                    chunk_pairs=chunk_pairs,
                    workers=workers,
                    tile_cells=tile_cells,
                    packed=packed,
                )
            else:
                fm = build_certain_face_map(
                    nodes,
                    grid,
                    split_components=split_components,
                    chunk_pairs=chunk_pairs,
                    workers=workers,
                    tile_cells=tile_cells,
                    packed=packed,
                )
            self._disk_store(key, fm)
        if self.maxsize > 0:
            self._entries[key] = fm
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
                if record:
                    obs.counter("geometry.cache.evictions").inc()
        return self._view(fm)


_default_cache: "FaceMapCache | None" = None
_enabled_override: "bool | None" = None


def face_map_cache_enabled() -> bool:
    """Caching is on unless ``REPRO_FACE_CACHE=0`` or configured off."""
    if _enabled_override is not None:
        return _enabled_override
    return os.environ.get("REPRO_FACE_CACHE", "1") != "0"


def default_face_map_cache() -> FaceMapCache:
    """The process-global cache (created lazily from the environment)."""
    global _default_cache
    if _default_cache is None:
        raw = os.environ.get("REPRO_FACE_CACHE_SIZE", "64")
        try:
            maxsize = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_FACE_CACHE_SIZE must be an integer, got {raw!r}"
            ) from None
        if maxsize < 0:
            raise ValueError(f"REPRO_FACE_CACHE_SIZE must be >= 0, got {maxsize}")
        _default_cache = FaceMapCache(
            maxsize=maxsize,
            disk_dir=os.environ.get("REPRO_FACE_CACHE_DIR") or None,
        )
    return _default_cache


_KEEP = object()  # sentinel: "leave this setting as it is"


def configure_face_map_cache(
    *,
    maxsize: "int | None" = None,
    disk_dir: "str | os.PathLike | None" = _KEEP,
    enabled: "bool | None" = None,
) -> FaceMapCache:
    """Replace the process-global cache; returns the new instance.

    ``enabled=False`` makes :func:`get_face_map` bypass the cache (builds
    are then exactly the uncached code path); ``enabled=None`` restores
    environment-variable control.  ``disk_dir=None`` removes the disk
    tier; omitting it keeps the current directory.
    """
    global _default_cache, _enabled_override
    _enabled_override = enabled
    current = default_face_map_cache()
    _default_cache = FaceMapCache(
        maxsize=current.maxsize if maxsize is None else maxsize,
        disk_dir=current.disk_dir if disk_dir is _KEEP else disk_dir,
    )
    return _default_cache


def get_face_map(
    nodes: np.ndarray,
    grid: Grid,
    c: float,
    *,
    sensing_range: "float | None" = None,
    split_components: bool = False,
    kind: str = "uncertain",
    workers: "int | None" = None,
    tile_cells: "int | None" = None,
    packed: bool = False,
) -> FaceMap:
    """Cache-aware face-map constructor (the :class:`Scenario` entry point).

    Bit-identical to calling :func:`build_face_map` /
    :func:`build_certain_face_map` directly; with the cache disabled it
    *is* that call.  ``workers``/``tile_cells``/``packed`` route a cache
    miss through the tiled builder (see :func:`build_face_map`).
    """
    if not face_map_cache_enabled():
        if kind == "uncertain":
            return build_face_map(
                nodes,
                grid,
                c,
                sensing_range=sensing_range,
                split_components=split_components,
                workers=workers,
                tile_cells=tile_cells,
                packed=packed,
            )
        if kind == "certain":
            return build_certain_face_map(
                nodes,
                grid,
                split_components=split_components,
                workers=workers,
                tile_cells=tile_cells,
                packed=packed,
            )
        raise ValueError(f"unknown face-map kind {kind!r}")
    return default_face_map_cache().get_or_build(
        nodes,
        grid,
        c,
        sensing_range=sensing_range,
        split_components=split_components,
        kind=kind,
        workers=workers,
        tile_cells=tile_cells,
        packed=packed,
    )
