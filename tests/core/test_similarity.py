"""Tests for repro.core.similarity (Definitions 7 & 8, Eq. 7)."""

import numpy as np
import pytest

from repro.core.similarity import (
    similarity,
    sq_distance,
    vector_difference,
)


class TestVectorDifference:
    def test_plain_difference(self):
        d = vector_difference(np.array([1.0, 0.0]), np.array([0.0, -1.0]))
        assert d.tolist() == [1.0, 1.0]

    def test_star_masks_to_zero(self):
        d = vector_difference(np.array([np.nan, 1.0]), np.array([1.0, 1.0]))
        assert d.tolist() == [0.0, 0.0]

    def test_star_in_either_argument(self):
        d = vector_difference(np.array([1.0]), np.array([np.nan]))
        assert d.tolist() == [0.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            vector_difference(np.zeros(3), np.zeros(4))


class TestSimilarity:
    def test_definition7_reciprocal_norm(self):
        v1 = np.array([1.0, 0.0, 0.0])
        v2 = np.array([0.0, 0.0, 0.0])
        assert similarity(v1, v2) == pytest.approx(1.0)

    def test_exact_match_is_infinite(self):
        v = np.array([1.0, -1.0, 0.0])
        assert similarity(v, v) == float("inf")

    def test_paper_fault_example_value(self):
        """§4.4-3 example: V_d = [1,1,1,-1,*,1] vs V_s(f8) = [1,1,1,0,0,0].

        The masked difference is [0,0,0,-1,masked,1], norm sqrt(2), so the
        Definition-7 similarity is 1/sqrt(2).  (The paper's prose quotes
        "1/2" for this example, which is 1/||.||^2 — inconsistent with its
        own Definition 7; we implement the definition.)
        """
        vd = np.array([1.0, 1.0, 1.0, -1.0, np.nan, 1.0])
        vs = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        assert similarity(vd, vs) == pytest.approx(1.0 / np.sqrt(2.0))

    def test_symmetry(self, rng):
        a = rng.choice([-1.0, 0.0, 1.0], size=10)
        b = rng.choice([-1.0, 0.0, 1.0], size=10)
        assert similarity(a, b) == similarity(b, a)

    def test_more_disagreement_less_similarity(self):
        base = np.zeros(6)
        one_off = np.array([1.0, 0, 0, 0, 0, 0])
        two_off = np.array([1.0, 1.0, 0, 0, 0, 0])
        assert similarity(base, one_off) > similarity(base, two_off)


class TestSqDistance:
    def test_masked(self):
        assert sq_distance(np.array([np.nan, 2.0]), np.array([5.0, 0.0])) == pytest.approx(4.0)

    def test_zero_for_equal(self):
        v = np.array([1.0, -1.0])
        assert sq_distance(v, v) == 0.0
