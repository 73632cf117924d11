"""Tests for repro.core.extended — soft (quantitative) signatures of §6."""

import numpy as np
import pytest
from scipy.special import ndtr

from repro.config import GridConfig, SimulationConfig
from repro.core.extended import attach_soft_signatures, expected_extended_signatures
from repro.core.tracker import FTTTracker
from repro.geometry.primitives import enumerate_pairs, pairwise_distances
from repro.sim.scenario import make_scenario


@pytest.fixture
def soft(face_map):
    return expected_extended_signatures(
        face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0, resolution_dbm=1.0
    )


class TestExpectedSignatures:
    def test_shape_and_range(self, face_map, soft):
        assert soft.shape == (face_map.n_faces, face_map.n_pairs)
        assert np.all(soft >= -1.0) and np.all(soft <= 1.0)

    def test_sign_agrees_with_qualitative(self, face_map, soft):
        # wherever the qualitative signature is +-1, the expected value
        # points the same way
        hard = face_map.signatures
        pos = hard == 1
        neg = hard == -1
        assert np.all(soft[pos] > 0)
        assert np.all(soft[neg] < 0)

    def test_uncertain_band_is_small_magnitude(self, face_map, soft):
        zero = face_map.signatures == 0
        if zero.any():
            # expected values inside the band are closer to 0 than outside
            assert np.abs(soft[zero]).mean() < np.abs(soft[~zero]).mean()

    def test_noiseless_collapses_to_hard_signs(self, face_map):
        soft = expected_extended_signatures(
            face_map, path_loss_exponent=4.0, noise_sigma_dbm=0.0, resolution_dbm=0.0
        )
        # without noise the expected value is exactly the distance-order sign
        assert set(np.unique(np.sign(soft))).issubset({-1.0, 0.0, 1.0})
        assert np.abs(soft).max() == pytest.approx(1.0)

    def test_sensing_range_forces_extremes(self, four_nodes, small_grid):
        from repro.geometry.faces import build_face_map

        fm = build_face_map(four_nodes, small_grid, c=1.5, sensing_range=30.0)
        soft = expected_extended_signatures(
            fm,
            path_loss_exponent=4.0,
            noise_sigma_dbm=6.0,
            sensing_range=30.0,
        )
        assert np.all(np.abs(soft) <= 1.0)

    def test_chunking_invariant(self, face_map):
        a = expected_extended_signatures(
            face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0, chunk_pairs=1
        )
        b = expected_extended_signatures(
            face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0, chunk_pairs=512
        )
        assert np.allclose(a, b)

    @pytest.mark.parametrize("sensing_range", [None, 45.0])
    def test_identical_to_cdf_add_at_formula(self, four_nodes, small_grid, sensing_range):
        """``ndtr`` + one ``np.bincount`` reproduce the ``norm.cdf`` +
        ``np.add.at`` reduction bit for bit (same values, same sequential
        per-face summation order)."""
        from scipy.stats import norm

        from repro.geometry.faces import build_face_map
        from repro.geometry.primitives import enumerate_pairs, pairwise_distances

        fm = build_face_map(four_nodes, small_grid, 1.5, sensing_range=sensing_range)
        beta, sigma, eps = 3.3, 5.0, 0.7
        dist = pairwise_distances(small_grid.cell_centers, four_nodes)
        i, j = enumerate_pairs(len(four_nodes))
        di, dj = dist[:, i], dist[:, j]
        dmu = 10.0 * beta * (np.log10(dj) - np.log10(di))
        denom = np.sqrt(2.0) * sigma
        vals = norm.cdf((dmu - eps) / denom) - norm.cdf((-dmu - eps) / denom)
        if sensing_range is not None:
            in_i, in_j = di <= sensing_range, dj <= sensing_range
            vals = np.where(in_i & ~in_j, 1.0, vals)
            vals = np.where(~in_i & in_j, -1.0, vals)
            vals = np.where(~in_i & ~in_j, 0.0, vals)
        acc = np.zeros((fm.n_faces, len(i)))
        np.add.at(acc, fm.cell_face, vals)
        want = (acc / fm.cell_counts[:, None]).astype(np.float32)
        got = expected_extended_signatures(
            fm,
            path_loss_exponent=beta,
            noise_sigma_dbm=sigma,
            resolution_dbm=eps,
            sensing_range=sensing_range,
            chunk_pairs=4,
        )
        assert np.array_equal(got, want)

    def test_validation(self, face_map):
        with pytest.raises(ValueError):
            expected_extended_signatures(face_map, path_loss_exponent=0.0, noise_sigma_dbm=6.0)
        with pytest.raises(ValueError):
            expected_extended_signatures(face_map, path_loss_exponent=4.0, noise_sigma_dbm=-1.0)


class TestAttach:
    def test_attach_returns_a_new_map(self, face_map):
        soft = attach_soft_signatures(face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0)
        assert soft is not face_map
        assert face_map.soft_signatures is None
        assert soft.signatures is face_map.signatures
        want = expected_extended_signatures(face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0)
        assert np.array_equal(soft.soft_signatures, want)

    def test_second_attach_uses_its_own_parameters(self, face_map):
        # re-attaching with other channel parameters must not keep the first
        # signatures
        first = attach_soft_signatures(face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0)
        second = attach_soft_signatures(first, path_loss_exponent=4.0, noise_sigma_dbm=1.0)
        want = expected_extended_signatures(face_map, path_loss_exponent=4.0, noise_sigma_dbm=1.0)
        assert np.array_equal(second.soft_signatures, want)
        assert not np.array_equal(first.soft_signatures, want)

    def test_enables_soft_tracker(self, face_map):
        soft = attach_soft_signatures(face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0)
        assert FTTTracker(soft, mode="extended").matcher.soft

    def test_mode_chooses_only_the_vectors(self, face_map):
        # a tracker matches against the map it is given, whatever its mode
        soft = attach_soft_signatures(face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0)
        assert FTTTracker(soft, mode="basic").matcher.soft
        assert not FTTTracker(face_map, mode="extended").matcher.soft


def _reference_signatures(
    face_map, *, path_loss_exponent, noise_sigma_dbm, resolution_dbm=0.0, sensing_range=None
):
    """The attach as it was before ``log10`` was taken once per (cell,
    node) and ``ndtr`` only where both nodes hear the cell, kept verbatim:
    both log distances and the channel model at every (cell, pair), then
    the sensing-range overrides."""
    dist = pairwise_distances(face_map.grid.cell_centers, face_map.nodes)
    i_idx, j_idx = enumerate_pairs(len(face_map.nodes))
    counts = face_map.cell_counts.astype(np.float64)
    out = np.empty((face_map.n_faces, len(i_idx)), dtype=np.float32)
    denom = np.sqrt(2.0) * noise_sigma_dbm
    for start in range(0, len(i_idx), 128):
        stop = min(start + 128, len(i_idx))
        di = dist[:, i_idx[start:stop]]
        dj = dist[:, j_idx[start:stop]]
        with np.errstate(divide="ignore"):
            dmu = 10.0 * path_loss_exponent * (np.log10(dj) - np.log10(di))
        if noise_sigma_dbm > 0:
            vals = ndtr((dmu - resolution_dbm) / denom) - ndtr((-dmu - resolution_dbm) / denom)
        else:
            vals = np.sign(dmu) * (np.abs(dmu) > resolution_dbm)
        if sensing_range is not None:
            in_i = di <= sensing_range
            in_j = dj <= sensing_range
            vals = np.where(in_i & ~in_j, 1.0, vals)
            vals = np.where(~in_i & in_j, -1.0, vals)
            vals = np.where(~in_i & ~in_j, 0.0, vals)
        width = stop - start
        acc = np.bincount(
            (face_map.cell_face[:, None] * width + np.arange(width)).ravel(),
            weights=vals.ravel(),
            minlength=face_map.n_faces * width,
        ).reshape(face_map.n_faces, width)
        out[:, start:stop] = (acc / counts[:, None]).astype(np.float32)
    return out


@pytest.fixture(scope="module", params=[10, 40], ids=["n10", "n40"])
def raster_map(request):
    cfg = SimulationConfig(n_sensors=request.param, grid=GridConfig(cell_size_m=2.0))
    return make_scenario(cfg, seed=31).face_map


class TestBitIdenticalToReference:
    """The attach's float32 bit patterns equal the reference's."""

    @pytest.mark.parametrize("sensing_range", [None, 40.0, 25.0])
    @pytest.mark.parametrize(
        "sigma,resolution", [(6.0, 1.0), (0.0, 1.0), (6.0, 0.0), (0.0, 0.0)]
    )
    def test_bits(self, raster_map, sensing_range, sigma, resolution):
        kw = dict(
            path_loss_exponent=4.0,
            noise_sigma_dbm=sigma,
            resolution_dbm=resolution,
            sensing_range=sensing_range,
        )
        got = expected_extended_signatures(raster_map, **kw)
        want = _reference_signatures(raster_map, **kw)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_node_on_a_cell_centre(self, face_map):
        """A zero distance (log10 = -inf) takes the same path as before."""
        fm = face_map.replace(nodes=np.vstack([face_map.grid.cell_centers[:1], face_map.nodes[1:]]))
        for sensing_range in (None, 30.0):
            kw = dict(path_loss_exponent=3.0, noise_sigma_dbm=4.0, sensing_range=sensing_range)
            with np.errstate(invalid="ignore"):
                got = expected_extended_signatures(fm, **kw)
                want = _reference_signatures(fm, **kw)
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
