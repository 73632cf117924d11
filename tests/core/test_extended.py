"""Tests for repro.core.extended — soft (quantitative) signatures of §6."""

import numpy as np
import pytest

from repro.core.extended import attach_soft_signatures, expected_extended_signatures
from repro.core.tracker import FTTTracker


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
    def test_attach_is_idempotent(self, face_map):
        attach_soft_signatures(face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0)
        first = face_map.soft_signatures
        attach_soft_signatures(face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0)
        assert face_map.soft_signatures is first

    def test_enables_soft_tracker(self, face_map):
        attach_soft_signatures(face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0)
        tracker = FTTTracker(face_map, mode="extended")
        assert tracker.soft_signatures

    def test_basic_mode_ignores_soft(self, face_map):
        attach_soft_signatures(face_map, path_loss_exponent=4.0, noise_sigma_dbm=6.0)
        tracker = FTTTracker(face_map, mode="basic")
        assert not tracker.soft_signatures
