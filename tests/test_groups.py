"""Marked groups: products, norms, spheres, serialization."""

import pytest
from hypothesis import given, strategies as st

from isoprof import FreeGroup, HeisenbergGroup, ZdGroup, group_from_json, group_to_json
from isoprof.errors import (
    ConfigError,
    MixedGroupError,
    ParameterError,
    RadiusExceededError,
    UnsupportedError,
)


def z2_elements():
    return st.tuples(st.integers(-8, 8), st.integers(-8, 8))


def heis_elements():
    return st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-6, 6))


def free_words(rank=2, max_len=6):
    def reduce_word(raw):
        out = []
        for x in raw:
            if out and out[-1] == x ^ 1:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    return st.lists(
        st.integers(0, 2 * rank - 1), max_size=max_len
    ).map(reduce_word)


class TestZd:
    def test_default_generators_are_signed_units(self):
        g = ZdGroup(2)
        assert set(g.generators) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        assert g.labels == ("1,0", "-1,0", "0,1", "0,-1")

    def test_identity_and_inverse(self):
        g = ZdGroup(3)
        assert g.identity == (0, 0, 0)
        assert g.inverse((2, -1, 5)) == (-2, 1, -5)

    @given(z2_elements(), z2_elements())
    def test_multiply_is_addition(self, a, b):
        g = ZdGroup(2)
        assert g.multiply(a, b) == (a[0] + b[0], a[1] + b[1])

    @given(z2_elements())
    def test_norm_is_l1_for_standard_marking(self, a):
        assert ZdGroup(2).word_norm(a) == abs(a[0]) + abs(a[1])

    def test_sphere_sizes_d2(self):
        g = ZdGroup(2)
        assert [len(g.sphere(r)) for r in range(4)] == [1, 4, 8, 12]

    def test_ball_order_is_norm_then_tuple(self):
        ball = ZdGroup(1).ball(2)
        assert list(ball) == [(0,), (-1,), (1,), (-2,), (2,)]

    def test_custom_generators_change_the_metric(self):
        g = ZdGroup(1, generators=[(2,), (-2,), (3,), (-3,)])
        assert g.word_norm((1,)) == 2  # 3 - 2
        assert g.word_norm((6,)) == 2  # 3 + 3
        assert g.labels == ("2", "-2", "3", "-3")

    def test_asymmetric_generating_set_rejected(self):
        with pytest.raises(ConfigError):
            ZdGroup(1, generators=[(1,), (2,), (-2,)])

    def test_identity_generator_rejected(self):
        with pytest.raises(ConfigError):
            ZdGroup(1, generators=[(0,), (1,), (-1,)])

    def test_foreign_element_rejected(self):
        with pytest.raises(MixedGroupError):
            ZdGroup(2).word_norm((1, 2, 3))
        with pytest.raises(MixedGroupError):
            ZdGroup(2).validate_element([1, 2])

    def test_max_radius_guard(self):
        g = ZdGroup(1, max_radius=3)
        with pytest.raises(RadiusExceededError):
            g.ball(4)
        # the closed-form norm needs no BFS, so only non-standard markings hit the cap
        h = ZdGroup(1, generators=[(2,), (-2,), (3,), (-3,)], max_radius=3)
        with pytest.raises(RadiusExceededError):
            h.word_norm((17,))


class TestHeisenberg:
    def test_product_rule(self):
        g = HeisenbergGroup()
        assert g.multiply((1, 2, 3), (4, 5, 6)) == (5, 7, 3 + 6 + 1 * 5)

    @given(heis_elements(), heis_elements(), heis_elements())
    def test_associativity(self, a, b, c):
        g = HeisenbergGroup()
        assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))

    @given(heis_elements())
    def test_inverse_cancels(self, a):
        g = HeisenbergGroup()
        assert g.multiply(a, g.inverse(a)) == (0, 0, 0)
        assert g.multiply(g.inverse(a), a) == (0, 0, 0)

    def test_commutator_of_x_and_y_is_central_z(self):
        g = HeisenbergGroup()
        x, y = (1, 0, 0), (0, 1, 0)
        comm = g.multiply(g.multiply(x, y), g.inverse(g.multiply(y, x)))
        assert comm == (0, 0, 1)
        assert g.word_norm((0, 0, 1)) == 4  # xyXY is geodesic for the commutator

    def test_sphere_sizes_match_bfs(self):
        g = HeisenbergGroup()
        assert [len(g.sphere(r)) for r in range(4)] == [1, 4, 12, 36]

    def test_act_matches_left_multiplication(self):
        g = HeisenbergGroup()
        a = (2, -1, 3)
        assert g.act("x", a) == g.multiply((1, 0, 0), a)
        assert g.act("Y", a) == g.multiply((0, -1, 0), a)

    def test_geodesic_word_reconstructs_element(self):
        g = HeisenbergGroup()
        for a in [(0, 0, 1), (2, 1, -1), (-1, 3, 2)]:
            word = g.geodesic_word(a)
            assert len(word) == g.word_norm(a)
            cur = g.identity
            for lab in word:
                cur = g.multiply(cur, g.generator(lab))
            assert cur == a


class TestFree:
    @given(free_words(), free_words())
    def test_product_is_reduced_concatenation(self, u, v):
        g = FreeGroup(2)
        w = g.multiply(u, v)
        g.validate_element(w)
        assert len(w) <= len(u) + len(v)
        assert (len(u) + len(v) - len(w)) % 2 == 0

    @given(free_words())
    def test_norm_is_word_length(self, w):
        assert FreeGroup(2).word_norm(w) == len(w)

    def test_sphere_sizes_rank2(self):
        g = FreeGroup(2)
        assert [len(g.sphere(r)) for r in range(4)] == [1, 4, 12, 36]

    def test_unreduced_word_rejected(self):
        # letters 0,1 are a and its inverse, so the word starts with a cancellation
        with pytest.raises(MixedGroupError):
            FreeGroup(2).validate_element((0, 1, 2))

    def test_element_str_uses_letters(self):
        g = FreeGroup(2)
        assert g.element_str(()) == "1"
        assert g.element_str((0, 2, 1)) == "abA"

    def test_custom_basis_rejected(self):
        with pytest.raises(UnsupportedError):
            FreeGroup(2, generators=[(0,)])


class TestSerialization:
    @pytest.mark.parametrize(
        "group",
        [
            ZdGroup(1),
            ZdGroup(3),
            ZdGroup(1, generators=[(1,), (-1,), (2,), (-2,)]),
            HeisenbergGroup(),
            FreeGroup(2),
        ],
    )
    def test_group_json_roundtrip(self, group):
        assert group_from_json(group_to_json(group)) == group

    def test_element_json_roundtrip(self):
        z = ZdGroup(2)
        assert z.element_from_json(z.element_to_json((3, -4))) == (3, -4)
        f = FreeGroup(2)
        assert f.element_from_json(f.element_to_json((0, 2))) == (0, 2)
        assert f.element_from_json("1") == ()

    def test_bad_group_json_rejected(self):
        for obj in ({"kind": "Braid"}, {"d": 2}, {"kind": "Zd"},
                    {"kind": ["Zd"], "d": 2}, {"kind": "Zd", "d": "x"},
                    {"kind": "Zd", "d": True}, {"kind": "Free", "rank": 1.5},
                    {"kind": "Zd", "d": 1, "generators": [["1"], [-1]]},
                    {"kind": "Heisenberg", "generators": 5}):
            with pytest.raises(ConfigError):
                group_from_json(obj)

    def test_groups_compare_by_descriptor(self):
        assert ZdGroup(2) == ZdGroup(2)
        assert ZdGroup(2) != ZdGroup(3)
        assert ZdGroup(1) != ZdGroup(1, generators=[(2,), (-2,), (1,), (-1,)])


class TestGroupSubset:
    def test_subset_deduplicates_and_sorts(self):
        g = ZdGroup(1)
        F = g.subset([(3,), (1,), (3,), (0,)])
        assert len(F) == 3
        assert list(F) == [(0,), (1,), (3,)]

    def test_subset_validates_members(self):
        with pytest.raises(MixedGroupError):
            ZdGroup(2).subset([(1,)])

    def test_ordered_view_must_match(self):
        g = ZdGroup(1)
        with pytest.raises(ParameterError):
            from isoprof import GroupSubset

            GroupSubset(g, [(0,), (1,)], ordered=[(0,)])
