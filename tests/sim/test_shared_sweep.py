"""Tests for sweeps whose tasks share worlds (the parent prewarm).

When several pooled tasks visit the same world (``seed_stride=0``, the
campaign shape), ``parallel_sweep`` builds that world's face map once in
the parent and forked workers inherit it.  The sweep contract still
holds: records are bit-identical to the inline run, every build is
counted in the merged metrics, and a worker exception still surfaces.
"""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.config import GridConfig, SimulationConfig
from repro.geometry.cache import (
    configure_face_map_cache,
    default_face_map_cache,
    face_map_cache_key,
)
from repro.sim.parallel import parallel_sweep
from repro.sim.scenario import replication_scenarios

TINY = SimulationConfig(duration_s=6.0, grid=GridConfig(cell_size_m=4.0))


@pytest.fixture(autouse=True)
def _fresh_cache(monkeypatch):
    for var in ("REPRO_FACE_CACHE", "REPRO_FACE_CACHE_DIR", "REPRO_FACE_CACHE_SIZE", "REPRO_OBS"):
        monkeypatch.delenv(var, raising=False)
    configure_face_map_cache(maxsize=64, disk_dir=None, enabled=None)
    obs.set_enabled(None)
    obs.reset()
    yield
    configure_face_map_cache(maxsize=64, disk_dir=None, enabled=None)
    obs.set_enabled(None)
    obs.reset()


@pytest.fixture
def parent_map_requests(monkeypatch):
    """Face-map requests made by this process (forked workers append to
    their own copy); a disabled cache bypasses its counters, so count here."""
    import repro.sim.scenario as scenario_mod

    requests = []
    real_get_face_map = scenario_mod.get_face_map

    def counting_get_face_map(*args, **kwargs):
        requests.append(1)
        return real_get_face_map(*args, **kwargs)

    monkeypatch.setattr(scenario_mod, "get_face_map", counting_get_face_map)
    return requests


def _campaign_points(n=3):
    # the campaign shape: same config at every point, seed_stride=0
    cfg = TINY.with_(n_sensors=6)
    return [(cfg, {"point": i}) for i in range(n)]


def _records_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.tracker == rb.tracker
        assert ra.params == rb.params
        assert ra.mean_error == rb.mean_error
        assert ra.std_error == rb.std_error
        assert ra.per_rep_means == rb.per_rep_means


class TestSharedSweep:
    def test_bit_identical_to_inline(self):
        kwargs = dict(n_reps=2, seed=2, seed_stride=0)
        inline = parallel_sweep(_campaign_points(), ["fttt"], n_workers=1, **kwargs)
        default_face_map_cache().clear()
        pooled = parallel_sweep(_campaign_points(), ["fttt"], n_workers=2, **kwargs)
        _records_equal(inline, pooled)

    def test_prewarm_counts_every_build(self, tmp_path):
        parallel_sweep(
            _campaign_points(),
            ["fttt"],
            n_reps=2,
            seed=5,
            seed_stride=0,
            n_workers=2,
            obs_dir=tmp_path,
        )
        # the parent built both worlds; workers only ever hit the cache
        stats = default_face_map_cache().stats()
        assert stats["misses"] == 2 and stats["entries"] == 2
        metrics = json.loads((tmp_path / "metrics.json").read_text())["metrics"]
        assert metrics["geometry.cache.misses"]["value"] == 2
        assert metrics["geometry.cache.hits"]["value"] == 3 * 2

    def test_distinct_worlds_leave_parent_cache_empty(self, parent_map_requests):
        parallel_sweep(
            _campaign_points(), ["fttt"], n_reps=1, seed=0, seed_stride=1000, n_workers=2
        )
        assert parent_map_requests == []
        assert len(default_face_map_cache()) == 0

    @pytest.mark.parametrize("cache", [{"enabled": False}, {"maxsize": 0}])
    def test_no_prewarm_when_cache_cannot_keep_it(self, parent_map_requests, cache):
        configure_face_map_cache(**cache)
        parallel_sweep(
            _campaign_points(), ["fttt"], n_reps=1, seed=4, seed_stride=0, n_workers=2
        )
        assert parent_map_requests == []

    def test_prewarm_never_exceeds_lru(self, parent_map_requests):
        configure_face_map_cache(maxsize=1)
        parallel_sweep(
            _campaign_points(), ["fttt"], n_reps=2, seed=4, seed_stride=0, n_workers=2
        )
        assert len(parent_map_requests) == 1
        assert default_face_map_cache().stats()["evictions"] == 0

    def test_worker_exception_propagates(self):
        # an unknown tracker makes every task raise inside the pool
        with pytest.raises(ValueError, match="unknown tracker"):
            parallel_sweep(
                _campaign_points(),
                ["no-such-tracker"],
                n_reps=1,
                seed=0,
                seed_stride=0,
                n_workers=2,
            )


class TestReplicationScenarios:
    def test_matches_replicate_worlds(self):
        # the prebuild must walk the exact worlds replicate_mean_error makes
        from repro.sim.experiments import replicate_mean_error

        cfg = TINY.with_(n_sensors=6)
        scenarios = replication_scenarios(cfg, n_reps=2, seed=11)
        assert len(scenarios) == 2
        keys = [
            face_map_cache_key(
                s.nodes, s.grid, s.uncertainty_c, sensing_range=cfg.sensing_range_m
            )
            for s in scenarios
        ]
        assert len(set(keys)) == len(keys)  # distinct deployments
        replicate_mean_error(cfg, ["fttt"], n_reps=2, seed=11)
        # replicate_mean_error built exactly these worlds' maps
        assert set(default_face_map_cache()._entries) == set(keys)

    def test_face_map_cached_under_cache_key(self):
        cfg = TINY.with_(n_sensors=6)
        (scenario,) = replication_scenarios(cfg, n_reps=1, seed=3)
        key = face_map_cache_key(
            scenario.nodes,
            scenario.grid,
            scenario.uncertainty_c,
            sensing_range=scenario.config.sensing_range_m,
            split_components=scenario.config.grid.split_components,
            kind="uncertain",
        )
        scenario.face_map
        assert list(default_face_map_cache()._entries) == [key]
