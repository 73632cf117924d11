"""Regression tests for the exact-match tie tolerance and the Def. 10 tie-break.

``FaceMap.tie_tolerance`` used to floor the tie threshold at an absolute
``1e-6`` even when the best squared distance was exactly 0.  For the
qualitative integer signatures that was harmless (the next distance up is
1), but soft signatures sit arbitrarily close together: a face a genuine
``~1e-8`` away would wrongly join the tie set of an *exact* match — whose
Definition 7 similarity is infinite and which nothing else can tie with.

These tests pin the fixed rule, the winner order among bit-equal faces,
and that the Definition 10 tie-break machinery is actually reached on a
quorum-weak multi-tie round (not silently skipped).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tracker import DegradationPolicy, FTTTracker
from repro.geometry.faces import FaceMap, build_face_map
from repro.geometry.grid import Grid


@pytest.fixture(scope="module")
def split_map() -> FaceMap:
    """The four-node square divided with connected-component splitting.

    Splitting disconnected equal-signature regions produces faces whose
    signatures are *bit-equal* — the tie-handling edge case under test.
    """
    nodes = np.array([[30.0, 30.0], [70.0, 30.0], [30.0, 70.0], [70.0, 70.0]])
    return build_face_map(nodes, Grid.square(100.0, 2.0), 1.5, split_components=True)


def _duplicate_groups(face_map: FaceMap) -> list[list[int]]:
    groups: dict[tuple, list[int]] = {}
    for f in range(face_map.n_faces):
        groups.setdefault(tuple(face_map.signatures[f].tolist()), []).append(f)
    return [ids for ids in groups.values() if len(ids) > 1]


def test_tie_tolerance_is_zero_at_exact_match(split_map):
    assert split_map.tie_tolerance(0.0) == 0.0


def test_tie_tolerance_keeps_relative_rule_away_from_zero(split_map):
    eps32 = float(np.finfo(np.float32).eps)
    assert split_map.tie_tolerance(1.0) == pytest.approx(1e-6)
    big = 1e3
    assert split_map.tie_tolerance(big) == pytest.approx(
        big * eps32 * np.sqrt(split_map.n_pairs)
    )


def test_bit_equal_faces_tie_exactly_and_winner_is_lowest_id(split_map):
    groups = _duplicate_groups(split_map)
    assert groups, "split components must produce bit-equal signature faces"
    for ids in groups:
        ties, best = split_map.match(split_map.signatures[ids[0]].astype(float))
        # every duplicate ties at exactly 0 -- and nothing else joins them
        assert best == 0.0
        assert ties.tolist() == ids
        assert int(ties[0]) == min(ids)  # the deterministic winner


def test_known_duplicate_pair_pinned(split_map):
    """Pin the concrete winner order of the first duplicate group.

    The four-node square at C=1.5 splits faces 12 and 16 into bit-equal
    twins; matching their shared signature must return exactly this pair,
    in ascending order, at distance 0.
    """
    ties, best = split_map.match(split_map.signatures[12].astype(float))
    assert ties.tolist() == [12, 16]
    assert best == 0.0


def _toy_soft_map() -> FaceMap:
    """Minimal hand-built map: two nodes, three faces, soft signatures."""
    grid = Grid.square(3.0, 1.0)
    cell_face = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2], dtype=np.int64)
    centers = grid.cell_centers
    centroids = np.stack(
        [centers[cell_face == f].mean(axis=0) for f in range(3)]
    )
    fm = FaceMap(
        nodes=np.array([[0.0, 1.5], [3.0, 1.5]]),
        grid=grid,
        c=1.2,
        signatures=np.array([[1], [1], [-1]], dtype=np.int8),
        centroids=centroids,
        cell_face=cell_face,
        cell_counts=np.array([3, 3, 3]),
        adj_indptr=np.array([0, 1, 3, 4]),
        adj_indices=np.array([1, 0, 2, 1]),
        soft_signatures=np.array([[1.0], [1.0 - 1e-4], [-1.0]], dtype=np.float32),
    )
    return fm


def test_soft_near_zero_face_does_not_tie_with_exact_match():
    """The regression: a soft face ~1e-8 away must not join an exact match.

    Face 1's soft signature differs from the query by 1e-4, giving a
    squared distance of 1e-8 -- under the old absolute 1e-6 floor it tied
    with face 0's exact (infinite-similarity) match.
    """
    fm = _toy_soft_map()
    ties, best = fm.match(np.array([1.0]))
    assert best == 0.0
    assert ties.tolist() == [0]


def test_soft_bit_equal_faces_still_tie():
    fm = _toy_soft_map().replace(
        soft_signatures=np.array([[1.0], [1.0], [-1.0]], dtype=np.float32)
    )
    ties, best = fm.match(np.array([1.0]))
    assert best == 0.0
    assert ties.tolist() == [0, 1]


def test_weak_round_reaches_definition10_tie_break(split_map, monkeypatch):
    """A quorum-weak multi-tie first round must enter the tie-break path.

    An all-silent round masks every pair, so every face matches at
    distance 0 (a maximal tie) and the reporting quorum fails; with no
    previous face to hold, the tracker must still match -- and run the
    Definition 10 tie-break on the tie set rather than skipping it.
    """
    calls: list[int] = []
    original = FTTTracker._tie_break

    def spy(self, match, rss, t):
        calls.append(len(match.face_ids))
        return original(self, match, rss, t)

    monkeypatch.setattr(FTTTracker, "_tie_break", spy)
    tracker = FTTTracker(
        split_map,
        matcher="exhaustive",
        degradation=DegradationPolicy(min_reporting=5, warmup_rounds=1),
    )
    rss = np.full((3, 4), np.nan)
    est = tracker.localize(rss, t=0.0)
    assert calls == [split_map.n_faces]
    # the quantitative vector of an all-silent round is all-* too, so the
    # tie-break keeps the full set; the deterministic winner is face 0
    assert est.face_ids.tolist() == list(range(split_map.n_faces))
    assert int(est.face_ids[0]) == 0
    assert est.n_reporting == 0
