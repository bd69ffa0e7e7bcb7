"""Rokhlin tower construction and from-scratch verification."""

from fractions import Fraction

import pytest

from isoprof import (
    GroupSubset,
    LatticeCenters,
    MeasuredGraphing,
    MultiTile,
    TowerFamily,
    ZdGroup,
    build_torus_action,
    build_towers,
    tower_family_from_json,
    tower_family_to_json,
    verify_tower_family,
)
from isoprof.errors import (
    ConfigError,
    MixedGroupError,
    ParameterError,
    WindowExceededError,
)


def interval_tile(*lengths):
    group = ZdGroup(1)
    shapes = [GroupSubset(group, [(i,) for i in range(k)]) for k in lengths]
    return MultiTile(shapes, [LatticeCenters([(max(lengths),)])] * len(shapes))


def path_graphing(V):
    """Z shifting a finite path; the last vertex has no forward image."""
    group = ZdGroup(1)
    maps = {
        "1": [v + 1 if v + 1 < V else None for v in range(V)],
        "-1": [v - 1 if v >= 1 else None for v in range(V)],
    }
    return MeasuredGraphing(group, [Fraction(1, V)] * V, maps, V - 1)


class TestBuildTowers:
    def test_exact_cover_of_a_cycle(self):
        g = build_torus_action(1, 9)
        tf = build_towers(g, interval_tile(3), Fraction(1, 10))
        assert tf.success and tf.coverage == 1
        assert tf.bases == ((0, 3, 6),)
        assert tf.fibers == (((0, 1, 2), (3, 4, 5), (6, 7, 8)),)
        assert tf.leftover == ()

    def test_partial_cover_leaves_epsilon(self):
        g = build_torus_action(1, 10)
        tf = build_towers(g, interval_tile(4), Fraction(1, 5))
        assert tf.coverage == Fraction(4, 5)
        assert tf.success and tf.meets(Fraction(1, 5))
        assert tf.leftover == (8, 9)

    def test_success_flag_tracks_the_target(self):
        g = build_torus_action(1, 10)
        tf = build_towers(g, interval_tile(4), Fraction(1, 10))
        assert tf.coverage == Fraction(4, 5)
        assert not tf.success and not tf.meets(Fraction(1, 10))

    def test_second_shape_plugs_the_gap(self):
        g = build_torus_action(1, 10)
        tf = build_towers(g, interval_tile(4, 2), Fraction(1, 10))
        assert tf.success and tf.coverage == 1
        assert tf.bases == ((0, 4), (8,))
        assert tf.fibers[1] == ((8, 9),)

    def test_broken_fibers_are_skipped(self):
        g = path_graphing(5)
        tf = build_towers(g, interval_tile(2), Fraction(1, 5))
        assert tf.bases == ((0, 2),)
        assert tf.coverage == Fraction(4, 5)
        assert tf.leftover == (4,)

    def test_epsilon_range_enforced(self):
        g = build_torus_action(1, 9)
        for eps in (0, 1, Fraction(3, 2)):
            with pytest.raises(ParameterError):
                build_towers(g, interval_tile(3), eps)

    def test_shape_diameter_must_fit_the_free_window(self):
        g = build_torus_action(1, 6)  # free_window 2
        with pytest.raises(WindowExceededError):
            build_towers(g, interval_tile(4), Fraction(1, 10))

    def test_group_mismatch(self):
        g = build_torus_action(1, 9)
        group2 = ZdGroup(2)
        square = GroupSubset(group2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        mt = MultiTile([square], [LatticeCenters([(2, 0), (0, 2)])])
        with pytest.raises(MixedGroupError):
            build_towers(g, mt, Fraction(1, 10))


class TestVerifyTowerFamily:
    def test_built_families_verify(self):
        g = build_torus_action(1, 10)
        mt = interval_tile(4, 2)
        tf = build_towers(g, mt, Fraction(1, 10))
        rep = verify_tower_family(g, mt, tf)
        assert rep.passed and rep.disjoint and rep.coverage_matches
        assert rep.coverage == 1

    def test_overlapping_bases_are_caught(self):
        g = build_torus_action(1, 9)
        claim = TowerFamily(
            bases=((0, 2),),
            coverage=Fraction(5, 9),
            epsilon_target=Fraction(1, 2),
            success=True,
        )
        rep = verify_tower_family(g, interval_tile(3), claim)
        assert not rep.passed and not rep.disjoint
        # vertex 2 lies in the fibers over both bases
        assert rep.collisions[0][0] == 2

    def test_collision_witnesses_name_the_first_owner(self):
        # eight collisions; the first five name the base that came first
        g = build_torus_action(1, 12)
        claim = TowerFamily(bases=((0, 1, 2, 3, 4),), coverage=Fraction(7, 12),
                            epsilon_target=Fraction(1, 2), success=True)
        rep = verify_tower_family(g, interval_tile(3), claim)
        assert rep.coverage_matches and rep.collisions == (
            (1, (0, 0), (0, 1)), (2, (0, 0), (0, 1)), (2, (0, 0), (0, 2)),
            (3, (0, 1), (0, 2)), (3, (0, 1), (0, 3)))

    def test_broken_fibers_are_reported(self):
        g = path_graphing(5)
        claim = TowerFamily(
            bases=((0, 4),),
            coverage=Fraction(3, 5),
            epsilon_target=Fraction(1, 2),
            success=True,
        )
        rep = verify_tower_family(g, interval_tile(2), claim)
        assert not rep.passed
        assert rep.broken == ((0, 4),)

    def test_coverage_claim_is_checked(self):
        g = build_torus_action(1, 9)
        claim = TowerFamily(
            bases=((0, 3, 6),),
            coverage=Fraction(1, 2),
            epsilon_target=Fraction(1, 10),
            success=True,
        )
        rep = verify_tower_family(g, interval_tile(3), claim)
        assert rep.disjoint and not rep.coverage_matches and not rep.passed
        assert rep.coverage == 1

    def test_base_set_count_must_match_shapes(self):
        g = build_torus_action(1, 9)
        tf = build_towers(g, interval_tile(3), Fraction(1, 10))
        with pytest.raises(ParameterError):
            verify_tower_family(g, interval_tile(3, 2), tf)

    def test_verification_ignores_the_free_window(self):
        # verification audits a claim as-is, even when construction would
        # refuse the shape diameter
        g = build_torus_action(1, 6)
        claim = TowerFamily(
            bases=((0,),),
            coverage=Fraction(2, 3),
            epsilon_target=Fraction(1, 2),
            success=True,
        )
        rep = verify_tower_family(g, interval_tile(4), claim)
        assert rep.disjoint and rep.coverage == Fraction(2, 3)


class TestTowerJson:
    def test_roundtrip_then_verify(self):
        g = build_torus_action(1, 10)
        mt = interval_tile(4, 2)
        tf = build_towers(g, mt, Fraction(1, 10))
        loaded = tower_family_from_json(tower_family_to_json(tf))
        assert loaded.bases == tf.bases
        assert loaded.coverage == tf.coverage
        assert verify_tower_family(g, mt, loaded).passed

    def test_malformed_objects_rejected(self):
        for obj in (
            [],
            {},
            {"bases": [[0]]},
            {"bases": [[0]], "coverage": "1/2", "extra": 1},
        ):
            with pytest.raises(ConfigError):
                tower_family_from_json(obj)
