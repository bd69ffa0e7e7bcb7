"""Boundary operators and the exact profile search, checked against oracles.py."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isoprof import (
    FreeGroup,
    HeisenbergGroup,
    ZdGroup,
    boundary_ratio,
    heisenberg_cuboid,
    inner_boundary,
    outer_boundary,
    profile_all_subsets,
    profile_exact,
    profile_upper,
    right_translate,
    zd_cube,
)
from isoprof.errors import (
    BudgetError,
    ConfigError,
    EmptySetError,
    MixedGroupError,
    ParameterError,
    WindowTooSmallError,
)
from isoprof.tilings import folner_tiles
from oracles import connected_profile_oracle, z2_profile_oracle, z_profile_oracle


def random_z2_subset(seed, size):
    rng = random.Random(seed)
    pts = {(0, 0)}
    while len(pts) < size:
        x, y = rng.choice(sorted(pts))
        pts.add(rng.choice([(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]))
    return ZdGroup(2).subset(pts)


class TestBoundaryOperators:
    def test_interval_inner_boundary_is_endpoints(self):
        g = ZdGroup(1)
        F = g.subset([(i,) for i in range(5)])
        assert sorted(inner_boundary(F)) == [(0,), (4,)]

    def test_cube_inner_boundary_counts(self):
        F = zd_cube(ZdGroup(2), 4)
        assert len(inner_boundary(F)) == 16 - 4

    def test_full_singleton_is_boundary(self):
        g = ZdGroup(2)
        F = g.subset([(0, 0)])
        assert set(inner_boundary(F).elements) == {(0, 0)}

    def test_outer_boundary_of_interval(self):
        g = ZdGroup(1)
        F = g.subset([(i,) for i in range(3)])
        window = g.ball(5)
        assert sorted(outer_boundary(F, window)) == [(-1,), (3,)]

    def test_outer_boundary_window_guard(self):
        g = ZdGroup(1)
        F = g.subset([(i,) for i in range(-2, 3)])
        with pytest.raises(WindowTooSmallError):
            outer_boundary(F, g.ball(2))
        with pytest.raises(ParameterError):
            outer_boundary(g.subset([(9,)]), g.ball(3))

    def test_outer_boundary_mixed_groups_rejected(self):
        with pytest.raises(MixedGroupError):
            outer_boundary(ZdGroup(1).subset([(0,)]), ZdGroup(2).ball(1))

    def test_boundary_ratio_of_empty_rejected(self):
        with pytest.raises(EmptySetError):
            boundary_ratio(ZdGroup(1).subset([]))

    @pytest.mark.parametrize("seed,size", [(1, 5), (2, 9), (3, 14), (4, 20)])
    def test_translation_equivariance(self, seed, size):
        F = random_z2_subset(seed, size)
        for c in [(3, -2), (-5, 0), (1, 7)]:
            Fc = right_translate(F, c)
            assert len(Fc) == len(F)
            assert inner_boundary(Fc) == right_translate(inner_boundary(F), c)
            assert boundary_ratio(Fc) == boundary_ratio(F)

    def test_heisenberg_translation_equivariance(self):
        # the left-multiplication boundary convention is what makes right
        # translates exactly boundary-preserving in the nonabelian case
        g = HeisenbergGroup()
        F = g.ball(2)
        for c in [(1, 2, -1), (0, -1, 3)]:
            Fc = right_translate(F, c)
            assert inner_boundary(Fc) == right_translate(inner_boundary(F), c)
            assert boundary_ratio(Fc) == boundary_ratio(F)


class TestShapes:
    def test_zd_cube_size_and_ratio(self):
        g = ZdGroup(3)
        F = zd_cube(g, 3)
        assert len(F) == 27
        assert boundary_ratio(F) == Fraction(26, 27)

    def test_cube_requires_zd(self):
        with pytest.raises(ConfigError):
            zd_cube(HeisenbergGroup(), 2)

    def test_heisenberg_cuboid_size(self):
        g = HeisenbergGroup()
        for m in range(1, 5):
            assert len(heisenberg_cuboid(g, m)) == (m + 1) ** 2 * (m * m + 1)

    def test_cuboid_requires_heisenberg(self):
        with pytest.raises(ConfigError):
            heisenberg_cuboid(ZdGroup(3), 2)


class TestProfileExact:
    def test_z_profile_matches_oracle(self):
        values = [pt.value for pt in profile_exact(ZdGroup(1), 10)]
        assert values == z_profile_oracle(10)

    def test_z2_profile_matches_oracle(self):
        values = [pt.value for pt in profile_exact(ZdGroup(2), 8)]
        assert values == z2_profile_oracle(8)

    def test_witnesses_achieve_their_value(self):
        for pt in profile_exact(ZdGroup(2), 7):
            assert boundary_ratio(pt.witness) == pt.value
            assert len(pt.witness) <= pt.n

    @pytest.mark.parametrize("group, n", [
        (ZdGroup(1), 6),
        (ZdGroup(2), 4),
        (ZdGroup(2, generators=[(1, 0), (-1, 0), (1, 1), (-1, -1)]), 4),
        (ZdGroup(3), 4),
        (HeisenbergGroup(), 4),
        (HeisenbergGroup(generators=[(0, 1, 0), (-1, 0, 0), (0, -1, 0), (1, 0, 0)]), 4),
        (FreeGroup(2), 4),
    ])
    def test_values_and_witnesses_match_brute_force(self, group, n):
        points = [(pt.value, tuple(sorted(pt.witness.elements))) for pt in profile_exact(group, n)]
        assert points == connected_profile_oracle(group, n)

    def test_node_counts(self):
        # Z^d and H3 visit each translation class of connected sets once, as the
        # set whose least element is the identity; F_2 visits every connected
        # set that contains the identity; the identity alone is no node
        assert profile_exact(ZdGroup(1), 10).nodes == 9  # the intervals that start at 0
        assert profile_exact(ZdGroup(2), 10).nodes == 50_147
        assert profile_exact(ZdGroup(3), 8).nodes == 190_534
        assert profile_exact(HeisenbergGroup(), 8).nodes == 12_053
        assert profile_exact(FreeGroup(2), 8).nodes == 93_491

    def test_profile_is_monotone_nonincreasing(self):
        values = [pt.value for pt in profile_exact(HeisenbergGroup(), 8)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_free_group_profile_floor(self):
        values = [pt.value for pt in profile_exact(FreeGroup(2), 8)]
        assert values[:4] == [Fraction(1)] * 4
        assert values[4] == Fraction(4, 5)
        assert values[7] == Fraction(3, 4)
        assert all(v >= Fraction(1, 2) for v in values)

    def test_deterministic_witness_choice(self):
        a = profile_exact(ZdGroup(2), 6)
        b = profile_exact(ZdGroup(2), 6)
        assert [tuple(sorted(pt.witness)) for pt in a] == [tuple(sorted(pt.witness)) for pt in b]

    def test_completeness_flag_and_cap(self):
        r = profile_exact(ZdGroup(1), 12)
        assert not r.complete
        assert len(r.points) == 10
        assert profile_exact(ZdGroup(1), 9).complete

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            profile_exact(ZdGroup(2), 8, node_budget=50)

    def test_bad_n_rejected(self):
        with pytest.raises(ParameterError):
            profile_exact(ZdGroup(1), 0)


class TestProfileAllSubsets:
    def test_agrees_with_connected_search_on_z(self):
        r = profile_all_subsets(ZdGroup(1), 8)
        assert list(r.values) == [pt.value for pt in profile_exact(ZdGroup(1), 8)]
        assert r.complete

    def test_agrees_with_connected_search_on_z2(self):
        r = profile_all_subsets(ZdGroup(2), 6)
        assert list(r.values) == [pt.value for pt in profile_exact(ZdGroup(2), 6)]

    def test_budget_reports_incomplete(self):
        r = profile_all_subsets(ZdGroup(2), 6, node_budget=100)
        assert not r.complete

    def test_value_accessor_bounds(self):
        r = profile_all_subsets(ZdGroup(1), 4)
        assert r.value(4) == Fraction(1, 2)
        with pytest.raises(ParameterError):
            r.value(5)


class TestProfileUpper:
    def test_cube_family_values(self):
        g = ZdGroup(2)
        assert profile_upper(g, 9, "cubes") == Fraction(8, 9)
        assert profile_upper(g, 16, "cubes") == Fraction(12, 16)
        # size bound cuts between cubes: at n=15 the best cube is still 3x3
        assert profile_upper(g, 15, "cubes") == Fraction(8, 9)

    def test_intervals_alias_on_z1(self):
        g = ZdGroup(1)
        assert profile_upper(g, 7, "intervals") == Fraction(2, 7)
        with pytest.raises(ConfigError):
            profile_upper(ZdGroup(2), 4, "intervals")

    def test_upper_bounds_the_exact_profile(self):
        g = ZdGroup(2)
        exact = profile_exact(g, 9)
        for n in range(1, 10):
            assert profile_upper(g, n, "cubes") >= exact.value(n)

    @pytest.mark.parametrize("gens", [
        [(1,), (-1,)],
        [(1,), (-1,), (3,), (-3,)],
        [(1, 0), (-1, 0), (0, 1), (0, -1)],
        [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)],
        [(1, 0), (-1, 0), (0, 1), (0, -1), (3, 0), (-3, 0)],
        [(1, 0), (-1, 0), (0, 1), (0, -1), (2, 5), (-2, -5)],
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 1), (-1, -1, -1), (0, 0, 2),
         (0, 0, -2)],
    ])
    def test_zd_reads_the_largest_cube(self, gens):
        # the largest cube's ratio is the least over every cube of at most n points
        g = ZdGroup(len(gens[0]), generators=gens)
        ratios = [boundary_ratio(tile.shape()) for tile in folner_tiles(g, 200)]
        for n in range(1, 201):
            cubes = len(list(folner_tiles(g, n)))
            assert profile_upper(g, n, "cubes") == min(ratios[:cubes])

    def test_unknown_family_rejected(self):
        for group in (ZdGroup(2), HeisenbergGroup(), FreeGroup(2)):
            with pytest.raises(ConfigError):
                profile_upper(group, 4, "diamonds")

    def test_cuboid_family_values(self):
        # the cuboid [0,m]^2 x [0,m^2] has (m+1)^2 (m^2+1) points: 1, 8, 45, 160, 425
        g = HeisenbergGroup()
        values = [(1, Fraction(1)), (8, Fraction(1)), (45, Fraction(14, 15)),
                  (160, Fraction(33, 40)), (425, Fraction(308, 425))]
        for m, (n, value) in enumerate(values):
            assert boundary_ratio(heisenberg_cuboid(g, m)) == value
            for name in ("cuboids", "cuboids_n_n_n2"):
                assert profile_upper(g, n, name) == value


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 18))
def test_random_subsets_never_beat_the_profile(seed, size):
    F = random_z2_subset(seed, size)
    profile = profile_exact(ZdGroup(2), 8)
    if len(F) <= 8:
        assert boundary_ratio(F) >= profile.value(len(F))
