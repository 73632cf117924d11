"""The bounded GEMM scan filter (``TraceScan``) equals the full scan.

Soft signatures and fractional vectors have no exact float32 GEMM, so a
trace scan computes an approximate float64 d², keeps the faces its error
bound cannot rule out, and rescores those with the exact ``distances_to``
kernel.  Every scan here is compared with ``best_faces(distances_to(v))``
— ties and best value, bit for bit — on rows that stress the bound:
``*`` (dropout) rows, sensing-range gating, an all-``*`` row where every
face is a candidate, and bit-equal duplicate soft-signature rows that
force ties.  The soft climb's obs counters, its memory and the isolation
of soft-signature maps derived from one base map are pinned too.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.obs as obs
from repro.config import GridConfig, SimulationConfig
from repro.core.extended import attach_soft_signatures
from repro.core.heuristic import HeuristicMatcher
from repro.core.vectors import extended_sampling_vectors
from repro.geometry import faces
from repro.geometry.faces import FaceMap, TraceScan, build_face_map
from repro.geometry.grid import Grid
from repro.network.faults import IndependentDropout
from repro.sim.runner import generate_batches
from repro.sim.scenario import make_scenario

CFG = SimulationConfig(n_sensors=12, duration_s=20.0, grid=GridConfig(cell_size_m=2.0))
CHANNEL = dict(
    path_loss_exponent=CFG.path_loss_exponent,
    noise_sigma_dbm=CFG.noise_sigma_dbm,
    resolution_dbm=CFG.resolution_dbm,
)


def _trace(scenario, seed: int) -> np.ndarray:
    batches = generate_batches(scenario, seed, faults=IndependentDropout(p=0.3), n_rounds=24)
    return extended_sampling_vectors(np.stack([b.rss for b in batches]), comparator_eps=1.0)


@pytest.fixture(scope="module")
def gated():
    """Sensing range on: out-of-range pairs are ``*`` or saturated."""
    scenario = make_scenario(CFG, seed=21)
    fm = attach_soft_signatures(scenario.face_map, sensing_range=CFG.sensing_range_m, **CHANNEL)
    return fm, _trace(scenario, 5)


@pytest.fixture(scope="module")
def ungated():
    """No sensing range: every pair's soft value comes from the channel model."""
    scenario = make_scenario(CFG, seed=22)
    fm = build_face_map(scenario.nodes, Grid.square(CFG.field_size_m, 2.0), scenario.face_map.c)
    return attach_soft_signatures(fm, **CHANNEL), _trace(scenario, 6)


def _key(res) -> tuple:
    return (
        [int(f) for f in res.face_ids],
        float(res.sq_distance).hex(),
        [float(x).hex() for x in res.position],
        res.visited,
    )


def _full_scan(fm, v):
    return fm.best_faces(fm.distances_to(v))


def _assert_scans_equal(fm, V):
    scan = TraceScan(fm, V)
    assert not scan.exact
    for b, v in enumerate(V):
        ties, best = fm.best_faces(*scan.scan(b))
        want_ties, want_best = _full_scan(fm, v)
        assert np.array_equal(ties, want_ties), b
        assert float(best).hex() == float(want_best).hex(), b
    ties, bests = fm.match_many(V)
    for b, v in enumerate(V):
        want_ties, want_best = _full_scan(fm, v)
        assert np.array_equal(ties[b], want_ties)
        assert float(bests[b]).hex() == float(want_best).hex()


@pytest.fixture(params=[False, True], ids=["one-block", "small-blocks"])
def blocks(request, monkeypatch):
    """Default block sizes, or blocks of a few rows and faces so every
    trace and face block boundary is crossed."""
    if request.param:
        monkeypatch.setattr(faces, "_FILTER_TRACE_ROWS", 5)
        n_pairs = CFG.n_sensors * (CFG.n_sensors - 1) // 2
        monkeypatch.setattr(faces, "_FILTER_FACE_BYTES", 7 * 8 * n_pairs)  # 7 faces


class TestFilterEqualsFullScan:
    @pytest.mark.parametrize("world", ["gated", "ungated"])
    def test_trace_with_dropout(self, request, world, blocks):
        fm, V = request.getfixturevalue(world)
        assert np.isnan(V).any(axis=1).mean() > 0.5
        _assert_scans_equal(fm, V)

    def test_fractional_vectors_on_qualitative_signatures(self, gated, blocks):
        fm, V = gated
        _assert_scans_equal(fm.replace(soft_signatures=None), V)

    def test_all_star_row_makes_every_face_a_candidate(self, gated, blocks):
        fm, V = gated
        V = V.copy()
        V[3] = np.nan
        scan = TraceScan(fm, V)
        scan.scan(2)  # the block's first scan runs alone; row 3 is filtered
        d2, face_ids = scan.scan(3)
        assert np.array_equal(face_ids, np.arange(fm.n_faces))
        assert not d2.any()
        _assert_scans_equal(fm, V)

    def test_duplicate_soft_rows_force_ties(self, gated, blocks):
        fm, V = gated
        soft = fm.soft_signatures.copy()
        half = fm.n_faces // 2
        soft[half : 2 * half] = soft[:half]  # face f + half duplicates face f
        dup = fm.replace(soft_signatures=soft)
        rng = np.random.default_rng(0)
        rows = rng.integers(0, half, size=12)
        probes = soft[rows] + rng.normal(0.0, 0.05, size=(12, fm.n_pairs)).astype(np.float32)
        probes[:, rng.random(fm.n_pairs) < 0.2] = np.nan
        exact = soft[rows[:4]].copy()  # d² = 0 at both copies, nowhere else
        W = np.vstack([V, probes, exact])
        _assert_scans_equal(dup, W)
        ties, _ = dup.match_many(W)
        assert all(len(t) >= 2 for t in ties[len(V) :])

    def test_midpoints_of_adjacent_faces_keep_their_ties(self, gated, blocks):
        fm, V = gated
        soft = fm.soft_signatures.astype(float)
        src = np.repeat(np.arange(fm.n_faces), np.diff(fm.adj_indptr))[::7]
        dst = fm.adj_indices[::7]
        mids = (soft[src] + soft[dst]) / 2.0
        _assert_scans_equal(fm, mids)

    def test_candidates_are_few(self, gated):
        fm, V = gated
        scan = TraceScan(fm, V)
        scan.scan(0)
        sizes = [len(scan.scan(b)[1]) for b in range(1, len(V))]
        assert np.median(sizes) <= 3

    def test_first_scan_of_a_block_runs_alone(self, gated, monkeypatch):
        fm, V = gated
        passes = []
        orig = TraceScan._filter

        def counted(self, rows):
            passes.append(len(rows))
            return orig(self, rows)

        monkeypatch.setattr(TraceScan, "_filter", counted)
        scan = TraceScan(fm, V)
        d2, face_ids = scan.scan(0)
        assert face_ids is None and len(d2) == fm.n_faces
        assert passes == []
        scan.scan(1)
        assert passes == [len(V)]


class TestSoftClimb:
    def test_match_many_equals_match_loop_with_obs(self, gated):
        fm, V = gated

        def run():
            many = HeuristicMatcher(fm, fallback_sq_distance=0.0).match_many(V)
            matcher = HeuristicMatcher(fm, fallback_sq_distance=0.0)
            return many, [matcher.match(v) for v in V]

        plain = run()
        with obs.observe() as reg:
            many = HeuristicMatcher(fm, fallback_sq_distance=0.0).match_many(V)
            many_obs = reg.snapshot()
        with obs.observe() as reg:
            matcher = HeuristicMatcher(fm, fallback_sq_distance=0.0)
            loop = [matcher.match(v) for v in V]
            loop_obs = reg.snapshot()
        assert many_obs == loop_obs
        for results in (plain[0], plain[1], many):
            assert [_key(r) for r in results] == [_key(r) for r in loop]
        assert many_obs["core.heuristic.soft.init_scans"]["value"] == 1
        assert many_obs["core.heuristic.soft.rounds"]["value"] == len(V) - 1
        assert many_obs["core.heuristic.soft.fallbacks"]["value"] > 0
        assert many_obs["core.heuristic.soft.steps"]["count"] == len(V) - 1
        assert many_obs["core.heuristic.soft.visited"]["count"] == len(V) - 1
        assert not any(
            k.startswith("core.heuristic.") and ".soft." not in k for k in many_obs
        )

    def test_basic_climb_keeps_its_names(self, gated):
        fm, V = gated
        with obs.observe() as reg:
            HeuristicMatcher(fm.replace(soft_signatures=None)).match_many(V)
            snap = reg.snapshot()
        assert snap["core.heuristic.rounds"]["value"] == len(V) - 1
        assert not any(k.startswith("core.heuristic.soft.") for k in snap)


def test_soft_maps_of_one_base_never_share_soft_state():
    """Each attach returns its own soft-signature map and leaves the base
    qualitative; the soft maps share every qualitative array of the base
    and nothing derived from one map's soft signatures reaches the other."""
    scenario = make_scenario(CFG, seed=23)
    base = scenario.face_map
    V = _trace(scenario, 7)
    a = attach_soft_signatures(base, sensing_range=CFG.sensing_range_m, **CHANNEL)
    b = attach_soft_signatures(
        base, path_loss_exponent=2.5, noise_sigma_dbm=3.0, resolution_dbm=0.0, sensing_range=None
    )
    assert base.soft_signatures is None
    assert not np.array_equal(a.soft_signatures, b.soft_signatures)
    for fm in (a, b, a, base):
        _assert_scans_equal(fm, V)
    assert np.array_equal(base.signature_matrix(), base.signatures)
    shared = [name for name in FaceMap._FIELDS if name != "soft_signatures"]
    assert all(getattr(a, k) is getattr(base, k) is getattr(b, k) for k in shared)


def test_soft_match_many_memory_stays_below_the_soft_matrix():
    """No ``(F, P)`` copy of the soft signatures, float64 or float32: the
    filter blocks the face axis, so its peak stays under the matrix."""
    cfg = SimulationConfig(n_sensors=40, duration_s=12.0, grid=GridConfig(cell_size_m=1.0))
    scenario = make_scenario(cfg, seed=3)
    fm = attach_soft_signatures(
        scenario.face_map,
        path_loss_exponent=cfg.path_loss_exponent,
        noise_sigma_dbm=cfg.noise_sigma_dbm,
        resolution_dbm=cfg.resolution_dbm,
        sensing_range=cfg.sensing_range_m,
    )
    batches = generate_batches(scenario, 4, n_rounds=24)
    V = extended_sampling_vectors(np.stack([b.rss for b in batches]))
    fm.match_many(V[:2])  # warm any lazy state outside the window
    tracemalloc.start()
    try:
        fm.match_many(V)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < fm.soft_signatures.nbytes
