"""Measured graphings: validation, builders, RN profiles, Holder and stationary bounds."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isoprof import (
    MeasuredGraphing,
    SqrtSum,
    ZdGroup,
    build_heisenberg_quotient,
    build_torus_action,
    build_weighted_cycle,
    holder_pushforward_bound,
    stationary_rn_bounds,
)
from isoprof.errors import (
    ConfigError,
    NormalizationError,
    NotApplicableError,
    ParameterError,
    StationarityError,
    UnsupportedError,
)
from oracles import random_graphing


def tiny_graphing(maps, weights=None, fw=0):
    g = ZdGroup(1)
    V = len(next(iter(maps.values())))
    if weights is None:
        weights = [Fraction(1, V)] * V
    return MeasuredGraphing(g, weights, maps, fw)


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(NormalizationError):
            tiny_graphing({"1": [1, 0], "-1": [1, 0]}, weights=[Fraction(1, 2)] * 3)

    def test_weights_must_be_positive(self):
        with pytest.raises(NormalizationError):
            tiny_graphing(
                {"1": [1, 0], "-1": [1, 0]},
                weights=[Fraction(3, 2), Fraction(-1, 2)],
            )

    def test_maps_must_cover_labels(self):
        with pytest.raises(ConfigError):
            tiny_graphing({"1": [1, 0]})

    def test_injectivity_enforced(self):
        with pytest.raises(ConfigError):
            tiny_graphing({"1": [1, 1, None], "-1": [None, 0, None]})

    def test_inverse_pairing_enforced(self):
        with pytest.raises(ConfigError):
            tiny_graphing({"1": [1, 2, 0], "-1": [1, 2, 0]})

    def test_target_range_checked(self):
        with pytest.raises(ConfigError):
            tiny_graphing({"1": [5, None], "-1": [None, 0]})

    def test_free_window_claim_is_verified(self):
        g = build_torus_action(1, 6)
        with pytest.raises(ConfigError):
            MeasuredGraphing(g.group, g.weights, dict(g.maps), 6)
        # one below the first violating word length is accepted
        MeasuredGraphing(g.group, g.weights, dict(g.maps), 5)

    def test_identity_element_words_do_not_break_freeness(self):
        # on a torus the commutator 1,0 0,1 -1,0 0,-1 fixes every vertex but
        # multiplies to the identity, so it must not shrink the free window
        g = build_torus_action(2, 5)
        assert g.free_window == 2
        MeasuredGraphing(g.group, g.weights, dict(g.maps), 4)


class TestBuilders:
    def test_torus_shapes(self):
        g = build_torus_action(2, 4)
        assert g.n_vertices == 16
        assert g.is_pmp() and g.is_transitive()
        assert g.free_window == 1

    def test_torus_shift_wraps(self):
        g = build_torus_action(1, 5)
        assert g.phi("1", 4) == 0
        assert g.phi("-1", 0) == 4

    def test_heisenberg_quotient_action(self):
        g = build_heisenberg_quotient(3)
        assert g.n_vertices == 27
        assert g.is_pmp() and g.is_transitive()
        # x sends (a,b,c) to (a+1, b, c+b)
        v = 1 + 3 * 1 + 9 * 0  # (1,1,0)
        assert g.phi("x", v) == (2 % 3) + 3 * 1 + 9 * 1

    def test_weighted_cycle_weights(self):
        w = [Fraction(4, 10), Fraction(3, 10), Fraction(2, 10), Fraction(1, 10)]
        g = build_weighted_cycle(4, w)
        assert not g.is_pmp()
        assert g.is_transitive()
        assert g.mu([0, 1]) == Fraction(7, 10)

    def test_builder_parameter_guards(self):
        with pytest.raises(ParameterError):
            build_torus_action(1, 2)
        with pytest.raises(NormalizationError):
            build_weighted_cycle(3, [Fraction(1, 2), Fraction(1, 2)])


class TestWordsAndMeasure:
    def test_apply_word_composes_left_to_right_as_element(self):
        g = build_torus_action(1, 7)
        # word (1, 1, -1) is the element +1; applied rightmost first
        assert g.apply_word(["1", "1", "-1"], 0) == 1
        assert g.apply_word([], 3) == 3

    def test_apply_word_breaks_on_hole(self):
        rng = random.Random(3)
        g = random_graphing(rng, 8, hole_prob=Fraction(1, 2))
        hole = next(v for v in range(8) if g.phi("1", v) is None)
        assert g.apply_word(["1"], hole) is None
        assert g.apply_word(["1", "1"], g.phi("-1", hole)) is None

    def test_mu_deduplicates(self):
        g = build_torus_action(1, 4)
        assert g.mu([0, 0, 1]) == Fraction(2, 4)

    def test_json_roundtrip_preserves_everything(self):
        rng = random.Random(11)
        g = random_graphing(rng, 9, d=2, hole_prob=Fraction(1, 4))
        h = MeasuredGraphing.from_json(g.to_json())
        assert h.weights == g.weights
        assert h.maps == g.maps
        assert h.group == g.group
        assert h.free_window == g.free_window

    def test_json_without_free_window_derives_one(self):
        g = build_torus_action(1, 8)
        obj = g.to_json()
        del obj["free_window"]
        h = MeasuredGraphing.from_json(obj)
        # +-6 never fixes a vertex mod 8, so the walk reaches its cap
        assert h.free_window == 6

    @pytest.mark.parametrize("field, value", [
        ("vertices", "4"),
        ("weights", 5),
        ("maps", {"1": 5, "-1": [3, 0, 1, 2]}),
        ("maps", {"1": ["a", "b", "c", "d"], "-1": [3, 0, 1, 2]}),
        ("free_window", "1"),
    ])
    def test_json_rejects_mistyped_fields(self, field, value):
        obj = build_torus_action(1, 4).to_json()
        del obj["free_window"]
        obj[field] = value
        with pytest.raises(ConfigError):
            MeasuredGraphing.from_json(obj)

    def test_json_rejects_unknown_fields(self):
        obj = build_torus_action(1, 4).to_json()
        obj["color"] = "blue"
        with pytest.raises(ConfigError):
            MeasuredGraphing.from_json(obj)


class TestRNProfile:
    def test_pmp_profile_is_identically_one(self):
        g = build_torus_action(2, 4)
        for lab in g.group.labels:
            assert set(g.rn_profile(lab).values) == {Fraction(1)}

    def test_weighted_cycle_profile_values(self):
        g = build_weighted_cycle(3, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        # rn_value(s, v) = mu(s^-1 v)/mu(v)
        assert g.rn_value("1", 1) == Fraction(1, 2) / Fraction(1, 3)
        assert g.rn_value("-1", 0) == Fraction(1, 3) / Fraction(1, 2)

    def test_rn_value_zero_at_holes(self):
        g = tiny_graphing(
            {"1": [1, None, None], "-1": [None, 0, None]},
            weights=[Fraction(1, 3)] * 3,
        )
        assert g.rn_value("1", 0) == 0  # no preimage under phi_{-1}
        assert g.rn_value("1", 1) == 1

    def test_p_norm_power_sum_forms(self):
        g = build_weighted_cycle(4, [Fraction(4, 10), Fraction(3, 10), Fraction(2, 10), Fraction(1, 10)])
        prof = g.rn_profile("1")
        s2 = prof.p_norm_power_sum(2)
        assert s2.is_rational()
        s32 = prof.p_norm_power_sum(Fraction(3, 2))
        assert not s32.is_rational()
        with pytest.raises(UnsupportedError):
            prof.p_norm_power_sum(Fraction(4, 3))
        with pytest.raises(ParameterError):
            prof.p_norm_power_sum(0)

    def test_linf_is_max(self):
        g = build_weighted_cycle(3, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        assert g.rn_profile("1").linf() == Fraction(2)  # (1/3)/(1/6)


class TestHolderBound:
    @pytest.mark.parametrize("p", [Fraction(3, 2), Fraction(2), Fraction(3)])
    def test_bound_holds_on_weighted_cycles(self, p):
        rng = random.Random(int(p * 6))
        for _ in range(25):
            m = rng.randint(3, 8)
            raw = [rng.randint(1, 9) for _ in range(m)]
            g = build_weighted_cycle(m, [Fraction(r, sum(raw)) for r in raw])
            A = [v for v in range(m) if rng.random() < 0.5] or [0]
            label = rng.choice(["1", "-1"])
            hb = holder_pushforward_bound(g, label, A, p)
            assert hb.passed
            assert hb.identity_holds

    def test_pushforward_identity_is_exact(self):
        g = build_weighted_cycle(4, [Fraction(4, 10), Fraction(3, 10), Fraction(2, 10), Fraction(1, 10)])
        hb = holder_pushforward_bound(g, "1", [3], 2)
        assert hb.mu_A == Fraction(1, 10)
        assert hb.mu_sA == Fraction(4, 10)
        assert hb.identity_holds and hb.passed

    def test_inverse_density_orientation_is_necessary(self):
        # mu(sA) integrates RN_{s^-1} over A, so the bound must use the
        # inverse label's profile; the same-label norm is too small here:
        # rhs^2 = 169/120 * 1/10 = 169/1200 < lhs^2 = (4/10)^2 = 192/1200
        g = build_weighted_cycle(4, [Fraction(4, 10), Fraction(3, 10), Fraction(2, 10), Fraction(1, 10)])
        A = [3]
        mu_A = g.mu(A)
        mu_sA = g.mu([g.phi("1", 3)])
        assert (mu_A, mu_sA) == (Fraction(1, 10), Fraction(4, 10))
        misoriented = g.rn_profile("1").p_norm_power_sum(2) * SqrtSum.from_rational(mu_A)
        assert (misoriented - SqrtSum.from_rational(mu_sA**2)).sign() < 0
        # the oriented bound passes on the same data
        assert holder_pushforward_bound(g, "1", A, 2).passed

    def test_undefined_map_on_A_rejected(self):
        g = tiny_graphing(
            {"1": [1, None, None], "-1": [None, 0, None]},
            weights=[Fraction(1, 3)] * 3,
        )
        with pytest.raises(NotApplicableError):
            holder_pushforward_bound(g, "1", [1], 2)

    def test_p_guards(self):
        g = build_torus_action(1, 4)
        with pytest.raises(ParameterError):
            holder_pushforward_bound(g, "1", [0], 1)
        with pytest.raises(UnsupportedError):
            holder_pushforward_bound(g, "1", [0], Fraction(4, 3))
        with pytest.raises(ConfigError):
            holder_pushforward_bound(g, "up", [0], 2)


class TestStationaryBounds:
    def test_uniform_measure_passes_any_step_law(self):
        g = build_torus_action(1, 6)
        rep = stationary_rn_bounds(g, {"1": Fraction(1, 3), "-1": Fraction(2, 3)})
        assert rep.passed and not rep.violations

    def test_non_stationary_weights_rejected(self):
        g = build_weighted_cycle(4, [Fraction(4, 10), Fraction(3, 10), Fraction(2, 10), Fraction(1, 10)])
        with pytest.raises(StationarityError):
            stationary_rn_bounds(g, {"1": Fraction(1, 2), "-1": Fraction(1, 2)})

    def test_partial_maps_leak_mass(self):
        # any hole breaks exact stationarity: the pushforward loses weight
        g = tiny_graphing({"1": [1, None, None], "-1": [None, 0, None]})
        with pytest.raises(StationarityError):
            stationary_rn_bounds(g, {"1": Fraction(1, 2), "-1": Fraction(1, 2)})

    def test_step_law_validation(self):
        g = build_torus_action(1, 4)
        with pytest.raises(ParameterError):
            stationary_rn_bounds(g, {"1": Fraction(1)})
        with pytest.raises(NormalizationError):
            stationary_rn_bounds(g, {"1": Fraction(1, 2), "-1": Fraction(1, 3)})
        with pytest.raises(ParameterError):
            stationary_rn_bounds(g, {"1": Fraction(3, 2), "-1": Fraction(-1, 2)})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 12))
def test_random_graphings_serialize_and_validate(seed, V):
    rng = random.Random(seed)
    g = random_graphing(rng, V, d=rng.choice([1, 2]), hole_prob=Fraction(1, 4))
    h = MeasuredGraphing.from_json(g.to_json())
    assert h.maps == g.maps and h.weights == g.weights
