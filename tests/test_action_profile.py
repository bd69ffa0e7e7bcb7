"""Bounded partitions, boundary mass, and the action isoperimetric profile."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isoprof import (
    BoundedPartition,
    ZdGroup,
    boundary_mass,
    build_torus_action,
    build_weighted_cycle,
    connected_refinement,
    cube_tile,
    disintegration_identity,
    iterated_boundary,
    profile_action_exact,
    profile_action_tiling,
)
from isoprof.errors import (
    CoverageError,
    NotApplicableError,
    ParameterError,
    WindowExceededError,
)
from oracles import action_profile_oracle, random_graphing, random_partition


def two_arcs(g):
    half = g.n_vertices // 2
    return BoundedPartition(g, [range(half), range(half, g.n_vertices)], half)


class TestBoundedPartition:
    def test_cells_are_canonicalized(self):
        g = build_torus_action(1, 4)
        p = BoundedPartition(g, [[3, 1], [2, 0]], 2)
        assert p.cells == ((0, 2), (1, 3))
        assert p.cell(3) == (1, 3)
        assert p.cell_of == (0, 1, 0, 1)

    def test_from_cell_ids_matches_explicit(self):
        g = build_torus_action(1, 4)
        assert BoundedPartition.from_cell_ids(g, [0, 1, 0, 1], 2) == BoundedPartition(
            g, [[0, 2], [1, 3]], 2
        )

    def test_singletons(self):
        g = build_torus_action(1, 5)
        p = BoundedPartition.singletons(g)
        assert len(p.cells) == 5 and p.n_bound == 1

    def test_equal_partitions_hash_equal(self):
        g = build_torus_action(1, 4)
        a = BoundedPartition(g, [[0, 1], [2, 3]], 2)
        b = BoundedPartition(g, [[2, 3], [1, 0]], 2)
        assert a == b and hash(a) == hash(b)

    def test_validation(self):
        g = build_torus_action(1, 4)
        with pytest.raises(ParameterError):
            BoundedPartition(g, [[0, 1, 2], [3]], 2)  # oversize cell
        with pytest.raises(ParameterError):
            BoundedPartition(g, [[0, 1], [1, 2, 3]], 3)  # vertex in two cells
        with pytest.raises(ParameterError):
            BoundedPartition(g, [[0, 1], [2]], 2)  # vertex 3 uncovered
        with pytest.raises(ParameterError):
            BoundedPartition(g, [[0, 1], [2, 7]], 2)  # out of range
        with pytest.raises(ParameterError):
            BoundedPartition(g, [[0], [1], [2], [3]], 0)
        with pytest.raises(ParameterError):
            BoundedPartition("nope", [[0]], 1)


class TestBoundaryMass:
    def test_two_arcs_on_a_cycle(self):
        g = build_torus_action(1, 6)
        p = BoundedPartition(g, [[0, 1, 2], [3, 4, 5]], 3)
        rep = boundary_mass(g, p)
        assert rep.boundary_set == (0, 2, 3, 5)
        assert rep.mass == Fraction(2, 3)
        assert rep.per_generator["1"] == (2, 5)
        assert rep.per_generator["-1"] == (0, 3)

    def test_full_cell_has_no_boundary(self):
        g = build_torus_action(1, 5)
        p = BoundedPartition(g, [range(5)], 5)
        assert boundary_mass(g, p).mass == 0

    def test_holes_count_as_boundary(self):
        g = ZdGroup(1)
        from isoprof import MeasuredGraphing

        mg = MeasuredGraphing(
            g,
            [Fraction(1, 3)] * 3,
            {"1": [1, 2, None], "-1": [None, 0, 1]},
            0,
        )
        p = BoundedPartition(mg, [range(3)], 3)
        rep = boundary_mass(mg, p)
        # 2 has no forward image, 0 no backward image; 1 is interior
        assert rep.boundary_set == (0, 2)
        assert rep.mass == Fraction(2, 3)

    def test_partition_must_belong_to_the_graphing(self):
        g = build_torus_action(1, 6)
        other = build_torus_action(1, 6)
        p = two_arcs(other)
        with pytest.raises(ParameterError):
            boundary_mass(g, p)

    def test_matches_the_partition_oracle(self):
        from oracles import partition_mass_oracle

        rng = random.Random(77)
        for _ in range(20):
            mg = random_graphing(rng, rng.randint(4, 9), d=rng.choice([1, 2]))
            cells = random_partition(rng, mg.n_vertices, 4)
            part = BoundedPartition(mg, cells, 4)
            labels = [0] * mg.n_vertices
            for cid, cell in enumerate(cells):
                for v in cell:
                    labels[v] = cid
            expect = partition_mass_oracle(mg.weights, list(mg.maps.values()), labels)
            assert boundary_mass(mg, part).mass == expect


class TestConnectedRefinement:
    def test_disconnected_cell_splits_without_mass_change(self):
        g = build_torus_action(1, 8)
        p = BoundedPartition(g, [[0, 1, 4, 5], [2, 3, 6, 7]], 4)
        q = connected_refinement(g, p)
        assert len(q.cells) == 4
        assert all(len(c) == 2 for c in q.cells)
        assert boundary_mass(g, q).mass == boundary_mass(g, p).mass

    def test_connected_partition_is_fixed(self):
        g = build_torus_action(1, 8)
        p = two_arcs(g)
        assert connected_refinement(g, p) == p

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_refinement_preserves_mass_on_random_inputs(self, seed):
        rng = random.Random(seed)
        mg = random_graphing(rng, rng.randint(4, 10), d=rng.choice([1, 2]))
        p = BoundedPartition(mg, random_partition(rng, mg.n_vertices, 5), 5)
        q = connected_refinement(mg, p)
        assert boundary_mass(mg, q).mass == boundary_mass(mg, p).mass
        assert len(q.cells) >= len(p.cells)


class TestProfileExact:
    def test_cycle_profile_matches_oracle(self):
        g = build_torus_action(1, 8)
        oracle = action_profile_oracle(g)
        assert oracle == [
            Fraction(1),
            Fraction(1),
            Fraction(3, 4),
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(3, 8),
            Fraction(0),
        ]
        for n in range(1, 9):
            res = profile_action_exact(g, n)
            assert res.method == "exhaustive" and res.optimal
            assert res.value == oracle[n - 1]

    def test_bnb_agrees_with_exhaustive(self):
        g = build_torus_action(1, 8)
        for n in range(1, 9):
            a = profile_action_exact(g, n, method="exhaustive")
            b = profile_action_exact(g, n, method="bnb")
            assert b.method == "bnb" and b.optimal
            assert a.value == b.value

    def test_witness_partition_achieves_the_value(self):
        g = build_torus_action(2, 3)
        for n in (1, 2, 3, 4, 9):
            value, partition = profile_action_exact(g, n)
            assert boundary_mass(g, partition).mass == value
            assert all(len(c) <= n for c in partition.cells)

    def test_small_cells_cannot_have_interior_on_a_2d_torus(self):
        # a closed neighborhood needs 5 vertices, so n=4 forces everything
        # onto the boundary
        g = build_torus_action(2, 3)
        assert profile_action_exact(g, 4).value == 1
        assert profile_action_exact(g, 4, method="bnb").value == 1

    def test_full_partition_on_quotient_is_free(self):
        g = build_torus_action(1, 6)
        assert profile_action_exact(g, 6).value == 0
        assert profile_action_exact(g, 8).value == 0  # n above V is fine

    def test_exhaustive_falls_back_above_the_limit(self):
        g = build_torus_action(2, 4)  # 16 vertices
        res = profile_action_exact(g, 2, method="exhaustive")
        assert res.method == "bnb" and res.fallback and res.optimal

    def test_node_budget_yields_upper_bound(self):
        g = build_torus_action(2, 4)
        full = profile_action_exact(g, 5, method="bnb")
        assert full.optimal
        capped = profile_action_exact(g, 5, method="bnb", node_budget=1)
        assert not capped.optimal
        assert capped.value >= full.value
        assert boundary_mass(g, capped.partition).mass == capped.value

    def test_parameter_guards(self):
        g = build_torus_action(1, 4)
        with pytest.raises(ParameterError):
            profile_action_exact(g, 0)
        with pytest.raises(ParameterError):
            profile_action_exact(g, 2, method="magic")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_both_routes_match_the_bell_oracle(self, seed, n):
        rng = random.Random(seed)
        mg = random_graphing(rng, rng.randint(3, 7), d=rng.choice([1, 2]),
                             hole_prob=Fraction(1, 3))
        n = min(n, mg.n_vertices)
        oracle = action_profile_oracle(mg)
        a = profile_action_exact(mg, n, method="exhaustive")
        b = profile_action_exact(mg, n, method="bnb")
        assert a.value == oracle[n - 1]
        assert b.value == oracle[n - 1]
        assert a.optimal and b.optimal


class TestIteratedBoundary:
    def test_k1_matches_boundary_mass(self):
        g = build_torus_action(1, 8)
        p = two_arcs(g)
        rep = iterated_boundary(g, p, 1)
        assert rep.boundary_set == boundary_mass(g, p).boundary_set
        assert rep.mass == Fraction(1, 2)
        # words of length <= 1: empty, +1, -1, each moving mass 1/2
        assert rep.telescoping_bound == Fraction(3, 2)

    def test_k2_engulfs_narrow_cells(self):
        g = build_torus_action(1, 8)
        p = two_arcs(g)
        rep = iterated_boundary(g, p, 2)
        assert rep.boundary_set == tuple(range(8))
        assert rep.mass == 1
        assert rep.telescoping_bound >= rep.mass

    def test_boundaries_are_nested(self):
        g = build_torus_action(1, 9)
        p = BoundedPartition(g, [[0, 1, 2], [3, 4, 5], [6, 7, 8]], 3)
        b1 = set(iterated_boundary(g, p, 1).boundary_set)
        b2 = set(iterated_boundary(g, p, 2).boundary_set)
        assert b1 <= b2

    def test_window_guard(self):
        g = build_torus_action(1, 8)  # free_window 3
        p = two_arcs(g)
        with pytest.raises(WindowExceededError):
            iterated_boundary(g, p, 4)
        with pytest.raises(ParameterError):
            iterated_boundary(g, p, 0)
        with pytest.raises(ParameterError):
            iterated_boundary(build_torus_action(1, 8), p, 2)


class TestDisintegration:
    def test_identity_on_arcs(self):
        g = build_torus_action(1, 8)
        rep = disintegration_identity(g, two_arcs(g))
        assert rep.passed and rep.mass == rep.integral == Fraction(1, 2)

    def test_identity_on_rows(self):
        g = build_torus_action(2, 4)
        rows = [[x + 4 * y for x in range(4)] for y in range(4)]
        rep = disintegration_identity(g, BoundedPartition(g, rows, 4))
        assert rep.passed and rep.mass == 1

    def test_rejects_non_pmp(self):
        g = build_weighted_cycle(3, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        p = BoundedPartition.singletons(g)
        with pytest.raises(NotApplicableError):
            disintegration_identity(g, p)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_identity_on_random_pmp_partitions(self, seed):
        rng = random.Random(seed)
        g = build_torus_action(2, 3)
        cells = random_partition(rng, g.n_vertices, 4)
        rep = disintegration_identity(g, BoundedPartition(g, cells, 4))
        assert rep.passed


class TestTilingProfile:
    def test_exact_tiling_of_a_cycle(self):
        g = build_torus_action(1, 9)
        res = profile_action_tiling(g, cube_tile(g.group, 3), Fraction(1, 10))
        assert res.coverage == 1
        assert res.value == Fraction(2, 3)
        assert res.shape_bound == Fraction(2, 3)
        assert res.adjusted_bound == Fraction(2, 3)
        assert len(res.partition.cells) == 3

    def test_leftover_vertices_become_singletons(self):
        g = build_torus_action(1, 8)
        res = profile_action_tiling(g, cube_tile(g.group, 3), Fraction(1, 4))
        assert res.coverage == Fraction(3, 4)
        assert res.value == Fraction(3, 4)
        # eps' = 1/4: bound = (2/3)(3/4) + 1/4
        assert res.adjusted_bound == Fraction(3, 4)
        sizes = sorted(len(c) for c in res.partition.cells)
        assert sizes == [1, 1, 3, 3]

    def test_tiling_value_dominates_the_exact_profile(self):
        g = build_torus_action(1, 9)
        res = profile_action_tiling(g, cube_tile(g.group, 3), Fraction(1, 10))
        assert res.value >= profile_action_exact(g, 3).value

    def test_insufficient_coverage_raises(self):
        g = build_torus_action(1, 8)
        with pytest.raises(CoverageError):
            profile_action_tiling(g, cube_tile(g.group, 3), Fraction(1, 5))
