"""Unit tests for the R5 z-relay lattice (Lee-sphere tiling)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import lee

from . import plan_oracle as P


class TestMembership:
    def test_origin_is_member(self):
        assert lee.is_lee_lattice_point(0, 0)

    def test_r5_generators(self):
        """Rule R5's offsets from a z-relay are themselves z-relays."""
        for u, v in [(-2, -1), (-1, 2), (1, -2), (2, 1)]:
            assert lee.is_lee_lattice_point(u, v)

    def test_unit_neighbours_are_not_members(self):
        for u, v in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            assert not lee.is_lee_lattice_point(u, v)

    def test_lattice_closed_under_addition(self):
        pts = [(2, 1), (-1, 2), (4, 2), (1, 3)]
        for (a, b) in pts:
            for (c, d) in pts:
                if lee.is_lee_lattice_point(a, b) and \
                        lee.is_lee_lattice_point(c, d):
                    assert lee.is_lee_lattice_point(a + c, b + d)

    def test_paper_example_points(self):
        """Section 3.4: from source (6,8), nodes (4,7), (5,10), (7,6),
        (8,9) are z-relays."""
        for x, y in [(4, 7), (5, 10), (7, 6), (8, 9)]:
            assert lee.is_lee_lattice_point(x - 6, y - 8)


class TestCounts:
    def test_density_is_one_fifth(self):
        count = lee.lee_count(50, 50, (1, 1))
        assert count == 2500 // 5

    def test_8x8_counts_are_12_or_13(self):
        counts = {lee.lee_count(8, 8, (x, y))
                  for x in range(1, 6) for y in range(1, 6)}
        assert counts == {12, 13}

    def test_mask_matches_points(self):
        mask = lee.lee_mask(7, 5, (3, 2))
        pts = P.lee_points(7, 5, (3, 2))
        assert int(mask.sum()) == len(pts)
        for (x, y) in pts:
            assert mask[y - 1, x - 1]

    def test_seed_always_in_points(self):
        assert (3, 2) in P.lee_points(7, 5, (3, 2))


class TestTiling:
    @given(st.integers(1, 12), st.integers(1, 12),
           st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_interior_perfectly_tiled(self, m, n, sx, sy):
        """Away from the border, every node is covered by exactly one
        Lee sphere — the property that gives 3D-6 its 5/6 optimal ETR."""
        m, n = m + 4, n + 4
        mask = lee.lee_mask(m, n, (sx, sy)).astype(int)
        cover = mask.copy()
        cover[1:, :] += mask[:-1, :]
        cover[:-1, :] += mask[1:, :]
        cover[:, 1:] += mask[:, :-1]
        cover[:, :-1] += mask[:, 1:]
        interior = cover[1:-1, 1:-1]
        assert (interior == 1).all()

    def test_gaps_only_on_border(self):
        gaps = P.lee_cover_gaps(8, 8, (4, 4))
        for (x, y) in gaps:
            assert x in (1, 8) or y in (1, 8)

    def test_gap_nodes_really_uncovered(self):
        seed = (4, 4)
        gaps = P.lee_cover_gaps(8, 8, seed)
        pts = set(P.lee_points(8, 8, seed))
        for (x, y) in gaps:
            sphere = [(x, y), (x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]
            assert not any(p in pts for p in sphere)

    def test_no_gaps_in_unbounded_sense(self):
        """On a torus-sized sample the tiling covers everything: gap count
        is a border effect, bounded by the perimeter."""
        gaps = P.lee_cover_gaps(20, 20, (7, 9))
        assert len(gaps) <= 2 * (20 + 20)
