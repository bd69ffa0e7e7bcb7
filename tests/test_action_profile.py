"""Bounded partitions, boundary mass, and the action isoperimetric profile."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from isoprof import _kernels
from isoprof._kernels import _pure
from isoprof import (
    BoundedPartition,
    MeasuredGraphing,
    ZdGroup,
    boundary_mass,
    build_heisenberg_quotient,
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
from isoprof.action_profile import packing_items
from oracles import (
    action_profile_oracle,
    cell_components_oracle,
    iterated_boundary_oracle,
    punctured,
    random_graphing,
    random_partition,
    relabelled,
    two_cycles,
    violation_depth_oracle,
)


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

    def test_cell_order_does_not_matter(self):
        g = build_torus_action(1, 4)
        assert BoundedPartition(g, [[3, 1], [2, 0]], 2) == BoundedPartition(
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

    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", True])
    def test_n_bound_must_be_an_integer(self, bad):
        # int() would truncate 2.5 to 2 and read True as 1
        g = build_torus_action(1, 4)
        with pytest.raises(ParameterError, match="n_bound must be an integer"):
            BoundedPartition(g, [[0, 1], [2, 3]], bad)


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

    @pytest.mark.parametrize("seed", range(20))
    def test_cells_are_the_components_inside_each_cell(self, seed):
        rng = random.Random(seed)
        mg = random_graphing(rng, rng.randint(4, 12), d=rng.choice([1, 2]),
                             hole_prob=Fraction(1, 3))
        cells = random_partition(rng, mg.n_vertices, 6)
        q = connected_refinement(mg, BoundedPartition(mg, cells, 6))
        assert set(map(frozenset, q.cells)) == \
            cell_components_oracle(list(mg.maps.values()), cells)


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

    def test_exhaustive_nodes_count_the_connected_cells(self):
        # on the 8-cycle every arc of 2..7 vertices is grown once, from its first vertex
        g = build_torus_action(1, 8)
        assert [profile_action_exact(g, n).nodes for n in range(1, 8)] == \
            [8 * (n - 1) for n in range(1, 8)]

    def test_exhaustive_route_is_backend_independent(self, monkeypatch):
        rng = random.Random(17)
        graphings = [build_torus_action(2, 3), build_torus_action(1, 12),
                     build_weighted_cycle(14, [Fraction(1 + i % 4, 33) for i in range(14)])]
        graphings += [random_graphing(rng, rng.randint(2, 12), d=rng.choice([1, 2]),
                                      hole_prob=Fraction(1, 4)) for _ in range(10)]

        def results():
            return [(r.value, r.partition, r.nodes) for g in graphings for n in range(1, 6)
                    for r in [profile_action_exact(g, n, method="exhaustive")]]

        default = results()
        monkeypatch.setattr(_kernels, "_core", None)
        assert results() == default

    def test_weights_beyond_int64_take_the_pure_dp(self):
        # the lcm of the denominators exceeds 2**62, so the scaled weights do
        # not fit the compiled DP
        p, q = (1 << 40) + 15, (1 << 41) + 21
        weights = [Fraction(1, p), Fraction(1, q), Fraction(1, 3)]
        weights += [1 - sum(weights)]
        g = MeasuredGraphing(ZdGroup(1), weights, {"1": [1, 2, 3, 0], "-1": [3, 0, 1, 2]}, 0)
        assert lcm(p, q, 3) > 1 << 62
        oracle = action_profile_oracle(g)
        for n in range(1, 5):
            a = profile_action_exact(g, n, method="exhaustive")
            b = profile_action_exact(g, n, method="bnb")
            assert a.method == "exhaustive" and a.value == b.value == oracle[n - 1]
            assert boundary_mass(g, a.partition).mass == a.value

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

    def test_exhaustive_runs_when_named_above_the_auto_limit(self):
        g = build_torus_action(2, 4)  # 16 vertices: auto takes the packing
        for n in (2, 5):
            a = profile_action_exact(g, n, method="exhaustive")
            b = profile_action_exact(g, n)
            assert (a.method, b.method) == ("exhaustive", "bnb") and b.optimal
            assert a.value == b.value and boundary_mass(g, a.partition).mass == a.value

    def test_exhaustive_refuses_more_vertices_than_the_dp_takes(self, monkeypatch):
        def no_dp(*args):
            raise AssertionError("the DP ran")

        monkeypatch.setattr(_kernels, "partition_dp", no_dp)
        g = build_torus_action(1, _pure.DP_MAX_VERTICES + 1)
        with pytest.raises(ParameterError, match=f"at most {_pure.DP_MAX_VERTICES} vertices"):
            profile_action_exact(g, 2, method="exhaustive")
        assert profile_action_exact(g, 2).method == "bnb"

    def test_a_bridging_item_merges_two_cells(self, monkeypatch):
        # on the 8-cycle, items are closed neighbourhoods {x-1, x, x+1}; the
        # third pick, x=2, meets both {0,1,2} and {3,4,5}
        g = build_torus_action(1, 8)
        monkeypatch.setattr(_kernels, "pack_max_weight",
                            lambda masks, weights, n, budget, fix_root: (4, (1, 4, 2), 3, True))
        res = profile_action_exact(g, 6, method="bnb")
        assert res.partition.cells == ((0, 1, 2, 3, 4, 5), (6,), (7,))
        assert res.value == Fraction(1, 2)

    @pytest.mark.parametrize("kernel, method", [("partition_dp", "exhaustive"),
                                                ("pack_max_weight", "bnb")])
    def test_a_wrong_claimed_optimum_is_caught(self, kernel, method, monkeypatch):
        # both routes' values are rechecked against the witness partition
        honest = getattr(_kernels, kernel)

        def lying(*args):
            value, *rest = honest(*args)
            return (value + 1, *rest)

        monkeypatch.setattr(_kernels, kernel, lying)
        with pytest.raises(RuntimeError, match="disagrees with the recomputed boundary mass"):
            profile_action_exact(build_torus_action(1, 8), 3, method=method)

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

    def test_the_exhaustive_route_refuses_a_node_budget(self):
        # the DP has no budget to honour; auto takes one, which its DP ignores
        g = build_torus_action(2, 3)
        with pytest.raises(ParameterError, match="no node budget"):
            profile_action_exact(g, 5, method="exhaustive", node_budget=1)
        res = profile_action_exact(g, 5, node_budget=1)
        assert res.method == "exhaustive" and res.optimal
        assert res.value == profile_action_exact(g, 5, method="exhaustive").value

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


class TestFixedRoot:
    """The packing fixes its root pick exactly when the graphing certifies
    transitive symmetries, and that changes nothing but the node count."""

    @pytest.mark.parametrize("make, n", [
        (lambda: build_torus_action(1, 10), 3),
        (lambda: build_torus_action(2, 6), 5),
        (lambda: build_torus_action(2, 8), 5),
        (lambda: build_torus_action(3, 4), 7),
        (lambda: build_heisenberg_quotient(4), 5),
        (lambda: build_heisenberg_quotient(5), 5),
        (lambda: relabelled(build_torus_action(2, 8), 1), 5),
        (lambda: relabelled(build_torus_action(2, 9), 3), 5),
        (lambda: relabelled(build_heisenberg_quotient(4), 2), 5),
    ])
    def test_symmetric_graphings_keep_value_and_witness(self, make, n):
        g = make()
        masks, weights, _ = packing_items(g, n)
        full = _kernels.pack_max_weight(masks, weights, n, 1 << 62, False)
        fixed = _kernels.pack_max_weight(masks, weights, n, 1 << 62, True)
        assert g.transitive_symmetries() is not None
        assert fixed[:2] == full[:2] and fixed[3]
        assert fixed[2] < full[2]
        assert profile_action_exact(g, n, method="bnb").nodes == fixed[2]

    @pytest.mark.parametrize("make, n", [
        (lambda: punctured(build_torus_action(2, 6), random.Random(5), Fraction(1, 10)), 5),
        (lambda: build_weighted_cycle(12, [Fraction(1 + v % 4, 30) for v in range(12)]), 3),
        (lambda: two_cycles(7), 4),
    ])
    def test_a_refused_certificate_keeps_the_full_search(self, make, n):
        g = make()
        masks, weights, _ = packing_items(g, n)
        full = _kernels.pack_max_weight(masks, weights, n, 1 << 62, False)
        res = profile_action_exact(g, n, method="bnb")
        assert g.transitive_symmetries() is None and not g.symmetric
        assert res.nodes == full[2]

    def test_the_packing_reads_the_constructor_certificate(self, monkeypatch):
        calls = []
        derive = MeasuredGraphing.transitive_symmetries
        monkeypatch.setattr(MeasuredGraphing, "transitive_symmetries",
                            lambda self: calls.append(self) or derive(self))
        g = build_torus_action(2, 6)
        fixed = profile_action_exact(g, 5, method="bnb")
        assert calls == [g] and g.symmetric
        masks, weights, _ = packing_items(g, 5)
        assert fixed.nodes < _kernels.pack_max_weight(masks, weights, 5, 1 << 62, False)[2]


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

    def assert_matches_the_word_oracle(self, g, rng, n_bound):
        p = BoundedPartition(g, random_partition(rng, g.n_vertices, n_bound), n_bound)
        for k in range(1, min(g.free_window, 5) + 1):
            rep = iterated_boundary(g, p, k)
            assert (rep.boundary_set, rep.mass, rep.telescoping_bound) == (
                iterated_boundary_oracle(g, p.cells, k))

    def test_random_graphings_with_holes(self):
        deepest = 0
        for seed in range(60):
            rng = random.Random(seed)
            g = random_graphing(rng, rng.randint(4, 12), d=rng.choice([1, 2]),
                                hole_prob=Fraction(1, 3))
            depth = violation_depth_oracle(g.group, g.maps, g.n_vertices, 5)
            window = 5 if depth is None else depth - 1
            g = MeasuredGraphing(g.group, g.weights, g.maps, window)
            self.assert_matches_the_word_oracle(g, rng, rng.randint(1, 4))
            deepest = max(deepest, window)
        assert deepest == 5

    @pytest.mark.parametrize("m", range(3, 8))
    def test_heisenberg_quotients(self, m):
        self.assert_matches_the_word_oracle(build_heisenberg_quotient(m), random.Random(m), 4)

    @pytest.mark.parametrize("d, m, gens", [
        (1, 12, [(1,), (-1,), (2,), (-2,)]),
        (2, 5, [(1, 0), (-1, 0), (1, 1), (-1, -1)]),
    ])
    def test_tori_with_other_generators(self, d, m, gens):
        g = build_torus_action(d, m, generators=gens)
        self.assert_matches_the_word_oracle(g, random.Random(m), 3)

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
