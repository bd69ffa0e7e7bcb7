"""Exact inequality checks linking group profiles, tilings, and markings."""

from fractions import Fraction

import pytest

from isoprof import (
    BoundedPartition,
    MeasuredGraphing,
    ZdGroup,
    build_torus_action,
    build_weighted_cycle,
    check_generating_set_comparison,
    check_lower_bound,
    check_tiling_upper_bound,
    cube_tile,
    generating_set_containment,
    positivity_check,
    profile_exact,
)
from isoprof import _kernels, bounds
from isoprof.bounds import SUITES, cycle_with_marking, suite_lower_bound
from isoprof.errors import (
    NotApplicableError,
    ParameterError,
    UnsupportedError,
    WindowExceededError,
)


class TestLowerBound:
    def test_cycle_meets_the_interval_profile_exactly(self):
        g = build_torus_action(1, 12)
        chk = check_lower_bound(g, g.group, 3)
        assert chk.passed and chk.relation == ">="
        assert chk.lhs == chk.rhs == Fraction(2, 3)

    def test_strict_at_the_window_edge(self):
        g = build_torus_action(1, 12)  # free_window 5
        chk = check_lower_bound(g, g.group, 5)
        # 12 splits into arcs of <= 5 with at least six boundary vertices
        assert chk.lhs == Fraction(1, 2) and chk.rhs == Fraction(2, 5)
        assert chk.passed

    def test_guards(self):
        g = build_torus_action(1, 12)
        with pytest.raises(WindowExceededError):
            check_lower_bound(g, g.group, 6)
        with pytest.raises(ParameterError):
            check_lower_bound(g, g.group, 0)
        with pytest.raises(ParameterError):
            check_lower_bound(g, ZdGroup(2), 2)
        w = build_weighted_cycle(4, [Fraction(4, 10), Fraction(3, 10),
                                     Fraction(2, 10), Fraction(1, 10)])
        with pytest.raises(NotApplicableError):
            check_lower_bound(w, w.group, 1)


class TestTilingUpperBound:
    def test_exact_cover_meets_the_shape_ratio(self):
        g = build_torus_action(1, 12)
        chk = check_tiling_upper_bound(g, cube_tile(g.group, 3), 3,
                                       Fraction(1, 4))
        assert chk.passed
        assert chk.lhs == chk.rhs == Fraction(2, 3)
        assert chk.context["coverage"] == 1

    def test_shape_must_fit_the_cell_bound(self):
        g = build_torus_action(1, 12)
        with pytest.raises(ParameterError):
            check_tiling_upper_bound(g, cube_tile(g.group, 3), 2,
                                     Fraction(1, 4))


class TestContainment:
    def test_double_step_marking_is_contained(self):
        g1 = build_torus_action(1, 12)
        g2 = cycle_with_marking(12, g1.weights, [1, -1, 2, -2])
        p = BoundedPartition(g1, [range(6), range(6, 12)], 6)
        rep = generating_set_containment(g1, g2, p)
        assert rep.contained and rep.k == 2
        assert rep.boundary_coarse == (0, 1, 4, 5, 6, 7, 10, 11)
        assert rep.missing == ()

    def test_mismodeled_marking_is_caught(self):
        # a graphing whose "+1" really shifts by five: the coarse boundary
        # escapes the k=1 translate union and the check says so
        g1 = build_torus_action(1, 12)
        g2 = MeasuredGraphing(ZdGroup(1), g1.weights, {
            "1": [(v + 5) % 12 for v in range(12)],
            "-1": [(v - 5) % 12 for v in range(12)],
        }, 0)
        p = BoundedPartition(g1, [range(6), range(6, 12)], 6)
        rep = generating_set_containment(g1, g2, p)
        assert not rep.contained and rep.k == 1
        assert rep.union_size == 4
        assert len(rep.missing) == 5  # witness list is truncated

    def test_partition_ownership(self):
        g1 = build_torus_action(1, 12)
        g2 = cycle_with_marking(12, g1.weights, [1, -1, 2, -2])
        p = BoundedPartition(g2, [range(6), range(6, 12)], 6)
        with pytest.raises(ParameterError):
            generating_set_containment(g1, g2, p)

    def test_spaces_must_match(self):
        g1 = build_torus_action(1, 12)
        g2 = build_torus_action(1, 10)
        p = BoundedPartition(g1, [range(6), range(6, 12)], 6)
        with pytest.raises(ParameterError):
            generating_set_containment(g1, g2, p)


class TestGeneratingSetComparison:
    def test_sup_form_on_the_pmp_cycle(self):
        g1 = build_torus_action(1, 12)
        g2 = cycle_with_marking(12, g1.weights, [1, -1, 2, -2])
        chk = check_generating_set_comparison(g1, g2, 3)
        assert chk.passed
        assert chk.context["method"] == "sup"
        assert chk.context["M"] == 1  # pmp densities
        assert chk.context["C"] == 3  # words e, +1, -1
        assert chk.context["containment"] and chk.context["links"]

    def test_each_boundary_is_computed_once(self, monkeypatch):
        computed = []
        mass = bounds.boundary_mass
        monkeypatch.setattr(bounds, "boundary_mass",
                            lambda g, p: computed.append(g) or mass(g, p))
        g1 = build_torus_action(1, 12)
        g2 = cycle_with_marking(12, g1.weights, [1, -1, 2, -2])
        assert check_generating_set_comparison(g1, g2, 3).passed
        assert computed == [g1, g2]

    def test_marking_compared_with_itself_is_tight(self):
        g1 = build_torus_action(1, 12)
        chk = check_generating_set_comparison(g1, g1, 3)
        assert chk.passed and chk.context["k"] == 1
        assert chk.lhs == chk.rhs

    def test_holder_form_on_a_weighted_cycle(self):
        raw = [Fraction(2 + (i % 3)) for i in range(8)]
        weights = [w / sum(raw) for w in raw]
        w1 = build_weighted_cycle(8, weights)
        w2 = cycle_with_marking(8, w1.weights, [1, -1, 2, -2])
        chk = check_generating_set_comparison(w1, w2, 2, p=Fraction(2))
        assert chk.passed
        assert chk.context["method"] == "holder"
        assert chk.context["links"]

    def test_holder_form_is_capped_at_one_ball_step(self):
        g1 = build_torus_action(1, 12)
        g2 = cycle_with_marking(12, g1.weights, [1, -1, 3, -3])
        assert check_generating_set_comparison(g1, g2, 2).passed  # sup form is fine
        with pytest.raises(UnsupportedError):
            check_generating_set_comparison(g1, g2, 2, p=Fraction(2))

    def test_holder_cap_is_refused_before_any_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a search kernel ran before the marking was checked")

        for name in ("subset_min_ratio", "pack_max_weight", "min_boundary_sets", "partition_dp",
                     "ball_table"):
            monkeypatch.setattr(_kernels, name, refuse)
        g1 = build_torus_action(1, 12)
        g2 = cycle_with_marking(12, g1.weights, [1, -1, 3, -3])
        message = "the L^p comparison is implemented for markings within one ball step (k <= 2)"
        with pytest.raises(UnsupportedError) as err:
            check_generating_set_comparison(g1, g2, 2, p=2)
        assert str(err.value) == message

    def test_unbounded_marking_power_rejected(self):
        # 1 = 2 * 8 - 3 * 5 is a word of length 5 in the steps +-5, +-8
        fine_group = ZdGroup(1, generators=[(5,), (-5,), (8,), (-8,)], max_radius=3)
        g1 = MeasuredGraphing(fine_group, [Fraction(1, 9)] * 9, {
            f"{s}": [(v + s) % 9 for v in range(9)] for s in (5, -5, 8, -8)}, 0)
        g2 = build_torus_action(1, 9)
        with pytest.raises(UnsupportedError):
            check_generating_set_comparison(g1, g2, 2)

    def test_parameter_guards(self):
        g1 = build_torus_action(1, 12)
        with pytest.raises(ParameterError):
            check_generating_set_comparison(g1, g1, 0)
        with pytest.raises(ParameterError):
            check_generating_set_comparison(g1, g1, 2, p=Fraction(1, 2))


class TestPositivity:
    def test_positive_inside_the_window(self):
        g = build_torus_action(1, 12)
        for n in (1, 3, 5):
            chk = positivity_check(g, n)
            assert chk.passed and chk.relation == ">" and chk.lhs > 0
            assert not chk.context["out_of_window"]

    def test_degenerate_row_is_informational(self):
        g = build_torus_action(1, 12)
        chk = positivity_check(g, 12)
        assert chk.passed and chk.relation == "out-of-window"
        assert chk.lhs == 0 and chk.context["out_of_window"]

    def test_guards(self):
        g = build_torus_action(1, 12)
        with pytest.raises(ParameterError):
            positivity_check(g, 0)


class TestSuites:
    def test_registry_names(self):
        assert set(SUITES) == {"lower-bound", "tiling-upper", "generating-sets",
                               "positivity"}

    @pytest.mark.parametrize("name,count", [
        ("tiling-upper", 3),
        ("generating-sets", 4),
        ("positivity", 3),
    ])
    def test_fast_suites_pass(self, name, count):
        checks = SUITES[name]()
        assert len(checks) == count
        assert all(c.passed for c in checks)

    def test_lower_bound_entry_is_the_suite(self):
        # test_acceptance.py::test_lower_bound_suite runs it: 24 checks, all passed
        assert SUITES["lower-bound"] is suite_lower_bound
