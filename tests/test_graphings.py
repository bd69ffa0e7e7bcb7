"""Measured graphings: validation, builders, RN profiles, Holder and stationary bounds."""

import random
import signal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from isoprof import (
    BoundedPartition,
    FreeGroup,
    HeisenbergGroup,
    MeasuredGraphing,
    SqrtSum,
    ZdGroup,
    boundary_mass,
    build_heisenberg_quotient,
    build_torus_action,
    build_towers,
    build_weighted_cycle,
    holder_pushforward_bound,
    iterated_boundary,
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
from isoprof import _kernels, graphings
from isoprof._kernels import _pure
from isoprof.bounds import cycle_with_marking
from isoprof.graphings import _min_violation_depth, quotient_action
from isoprof.tilings import folner_tiles
from oracles import (
    boundary_mass_oracle,
    inline_law,
    iterated_boundary_oracle,
    mu_oracle,
    punctured,
    quotient_maps_oracle,
    random_graphing,
    random_partition,
    reduced_words,
    regenerated,
    relabelled,
    swapped,
    symmetries_oracle,
    towers_oracle,
    tree_sigmas,
    two_cycles,
    violation_depth_oracle,
)


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

    @pytest.mark.parametrize("bad", [1.7, 1.0, "1", True])
    def test_free_window_must_be_an_integer(self, bad):
        # int() would read each of them as 1
        with pytest.raises(ParameterError, match="free_window must be an integer"):
            MeasuredGraphing(ZdGroup(1), [Fraction(1, 3)] * 3,
                             {"1": [1, 2, 0], "-1": [2, 0, 1]}, bad)

    @pytest.mark.parametrize("make, window", [
        (lambda: build_heisenberg_quotient(8), 6),
        (lambda: build_heisenberg_quotient(3), 2),
        (lambda: build_torus_action(2, 6, generators=[(1, 0), (-1, 0), (1, 1), (-1, -1)]), 5),
        (lambda: build_torus_action(1, 12, generators=[(1,), (-1,), (2,), (-2,)]), 5),
    ])
    def test_omitted_free_window_is_derived(self, make, window):
        # a builder with no declared window, the constructor given none and a
        # read without the field derive one window: the largest clean radius
        # up to min(V - 1, 6)
        g = make()
        obj = g.to_json()
        del obj["free_window"]
        derived = [g.free_window, MeasuredGraphing(g.group, g.weights, g.maps).free_window,
                   MeasuredGraphing.from_json(obj).free_window]
        assert derived == [window] * 3

    def test_weight_sum_is_reported_exactly(self):
        weights = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(1, 10)]
        with pytest.raises(NormalizationError, match=r"must sum to 1, got 11/10$"):
            tiny_graphing({"1": [1, 2, 3, 0], "-1": [3, 0, 1, 2]}, weights=weights)

    def test_weights_are_read_as_fractions(self):
        g = MeasuredGraphing(ZdGroup(1), ["1/2", 0.25, Fraction(1, 4)],
                             {"1": [1, 2, 0], "-1": [2, 0, 1]}, 0)
        assert g.weights == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        assert all(type(w) is Fraction for w in g.weights)

    @pytest.mark.parametrize("target", [True, False, 1.0])
    def test_targets_must_be_integers(self, target):
        # True and False would pass for vertices 1 and 0
        with pytest.raises(ConfigError, match="out of range"):
            tiny_graphing({"1": [target, None, None], "-1": [None, 0, None]})

    @pytest.mark.parametrize("maps, weights, error, message", [
        ({"1": [1, 2], "-1": [2, 0, 1]}, None, ConfigError, "map '1' has the wrong length"),
        ({"1": [1.0, 2, 7], "-1": [2, 0, 1]}, None, ConfigError,
         "map '1' has target 1.0 out of range"),
        ({"1": [True, 2, 0], "-1": [2, 0, 1]}, None, ConfigError,
         "map '1' has target True out of range"),
        ({"1": [1, -1, 0], "-1": [2, 0, 1]}, None, ConfigError,
         "map '1' has target -1 out of range"),
        ({"1": [1, 3, 0], "-1": [2, 0, 1]}, None, ConfigError,
         "map '1' has target 3 out of range"),
        ({"1": [1, 1, 0], "-1": [2, 0, 1]}, None, ConfigError, "map '1' is not injective"),
        # the first map in order is named, whatever the fault of a later one
        ({"1": [1, 1, 0], "-1": [2, 0]}, None, ConfigError, "map '1' is not injective"),
        ({"1": [1, 2, 0], "-1": [2, 0, None]}, None, ConfigError,
         "map '-1' does not invert '1' at vertex 1"),
        ({"1": [1, 2, 0], "-1": [1, 2, 0]}, None, ConfigError,
         "map '-1' does not invert '1' at vertex 0"),
        ({"1": [1, 2, 0], "-1": [2, 0, 1]}, ["1/2", "0", "1/2"], NormalizationError,
         "vertex weights must be positive"),
        ({"1": [1, 2, 0], "-1": [2, 0, 1]}, ["1/2", "1/3", "1/4"], NormalizationError,
         "vertex weights must sum to 1, got 13/12"),
    ])
    def test_the_first_fault_is_named(self, maps, weights, error, message):
        # through the constructor and through from_json alike
        weights = weights or ["1/3"] * 3
        with pytest.raises(error) as direct:
            MeasuredGraphing(ZdGroup(1), [Fraction(w) for w in weights], maps, 0)
        obj = build_torus_action(1, 3).to_json()
        obj.update(weights=weights, maps=maps, free_window=0)
        with pytest.raises(error) as read:
            MeasuredGraphing.from_json(obj)
        assert str(direct.value) == str(read.value) == message

    def test_identity_element_words_do_not_break_freeness(self):
        # on a torus the commutator 1,0 0,1 -1,0 0,-1 fixes every vertex but
        # multiplies to the identity, so it must not shrink the free window
        g = build_torus_action(2, 5)
        assert g.free_window == 2
        MeasuredGraphing(g.group, g.weights, dict(g.maps), 4)


class TestFreeWindow:
    """The state walk against every reduced word, radius by radius."""

    def oracle_window(self, g, cap):
        """Compare the walk radius by radius up to 8; return the clean window up to cap."""
        depth = violation_depth_oracle(g.group, g.maps, g.n_vertices, 8)
        for radius in range(9):
            want = depth if depth is not None and depth <= radius else None
            assert _min_violation_depth(g.group, g._rows, g.n_vertices, radius,
                                        range(g.n_vertices)) == want
        return cap if depth is None or depth > cap else depth - 1

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphings_with_holes(self, seed):
        rng = random.Random(seed)
        V = rng.randint(3, 12)
        g = random_graphing(rng, V, d=rng.choice([1, 2]), hole_prob=Fraction(1, 5))
        obj = g.to_json()
        del obj["free_window"]
        assert MeasuredGraphing.from_json(obj).free_window == self.oracle_window(g, min(V - 1, 6))

    @pytest.mark.parametrize("seed", range(10))
    def test_punctured_tori_and_quotients(self, seed):
        rng = random.Random(seed)
        for g in (build_torus_action(2, 4), build_torus_action(2, 5), build_heisenberg_quotient(3),
                  build_heisenberg_quotient(4),
                  build_torus_action(2, 5, generators=[(1, 0), (-1, 0), (1, 1), (-1, -1)]),
                  # no parity: 2 and 1 + 1 reach one vertex with one element
                  # at two depths, which is no violation
                  build_torus_action(1, 12, generators=[(1,), (-1,), (2,), (-2,)])):
            self.oracle_window(punctured(g, rng, Fraction(1, 4)), 6)

    @pytest.mark.parametrize("m", range(3, 8))
    def test_heisenberg_quotients(self, m):
        g = build_heisenberg_quotient(m)
        assert g.free_window == self.oracle_window(g, min(m - 1, 6))

    @pytest.mark.parametrize("d, m, gens", [
        (1, 12, [(1,), (-1,), (2,), (-2,)]),
        (1, 9, [(2,), (-2,), (3,), (-3,)]),
        (2, 5, [(1, 0), (-1, 0), (1, 1), (-1, -1)]),
        (2, 5, [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]),
    ])
    def test_tori_with_other_generators(self, d, m, gens):
        g = build_torus_action(d, m, generators=gens)
        assert g.free_window == self.oracle_window(g, min(m - 1, 6))

    @pytest.mark.parametrize("m, generators, depth", [
        (4, None, 4), (5, None, 5), (7, None, 7), (8, None, 8), (9, None, None),
        (4, [(1,), (-1,), (2,), (-2,)], 2),  # 2 + 2
        (5, [(1,), (-1,), (2,), (-2,)], 3),  # 2 + 2 + 1
    ])
    def test_rings_to_radius_8(self, m, generators, depth):
        # odd depths meet one step apart, even depths at one depth
        g = build_torus_action(1, m, generators=generators)
        self.oracle_window(g, 0)
        assert _min_violation_depth(g.group, g._rows, m, 8, range(m)) == depth

    def test_heisenberg_identity_words_do_not_count(self):
        # H3 under left multiplication, on the points that its reduced words
        # of length 8 with the identity element (figure eights of zero signed
        # area: xyXYXyxY and the like) pass through from the identity.  The
        # action is free, so no word fixes a vertex, though those words lead
        # the identity back to itself.
        group = HeisenbergGroup()
        mul, _ = inline_law(group)
        inverse = {lab: group.inverse_label(lab) for lab in group.labels}
        loops, points = [], {group.identity}
        for word in reduced_words(group.labels, inverse, 8):
            path = [group.identity]
            for lab in word:
                path.append(mul(group.generator(lab), path[-1]))
            if path[-1] == group.identity:
                loops.append(word)
                points.update(path)
        points = sorted(points)
        index = {p: i for i, p in enumerate(points)}
        maps = {lab: [index.get(mul(group.generator(lab), p)) for p in points]
                for lab in group.labels}
        g = MeasuredGraphing(group, [Fraction(1, len(points))] * len(points), maps, 8)
        assert len(loops) == 64 and len(points) == 71
        start = index[group.identity]
        assert all(g.apply_word(word[::-1], start) == start for word in loops)
        assert self.oracle_window(g, 8) == 8

    def test_walk_meets_in_the_middle(self, monkeypatch):
        g = build_heisenberg_quotient(8)
        mul, calls = g.group._mul_raw, []
        monkeypatch.setattr(g.group, "_mul_raw", lambda a, b: calls.append(1) or mul(a, b))
        assert _min_violation_depth(g.group, g._rows, g.n_vertices, 6, range(g.n_vertices)) is None
        # 416: 8 blocks of 64 starts, 4 + 12 + 36 states to depth 3 each; a
        # walk to depth 6 makes 7,184
        assert len(calls) <= 500

    def test_large_window_builds(self):
        # a walk over words would take 4 * 3**15 words of length 16
        assert build_torus_action(2, 34).free_window == 16

    def test_huge_declared_window_stops_when_no_state_is_left(self):
        # on a path every word runs off the end within 3 steps; the walk must
        # stop there, not count depths up to the declared window
        path = {"vertices": 3, "weights": ["1/3"] * 3, "maps": {"1": [1, 2, None], "-1": [None, 0, 1]},
                "group": {"kind": "Zd", "d": 1}, "free_window": 10**12}

        def too_slow(signum, frame):
            raise TimeoutError("the free-window walk did not stop")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(10)
        try:
            assert MeasuredGraphing.from_json(path).free_window == 10**12
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        torus = build_torus_action(1, 5).to_json()
        torus["free_window"] = 10**12
        with pytest.raises(ConfigError, match="a word of length 5 fixes a vertex"):
            MeasuredGraphing.from_json(torus)


class TestBuilders:
    def test_torus_shapes(self):
        g = build_torus_action(2, 4)
        assert g.n_vertices == 16
        assert g.is_pmp() and g.symmetric
        assert len(g.within({0}, g.n_vertices - 1)) == g.n_vertices
        assert g.free_window == 1

    def test_torus_shift_wraps(self):
        g = build_torus_action(1, 5)
        assert g.phi("1", 4) == 0
        assert g.phi("-1", 0) == 4

    def test_heisenberg_quotient_action(self):
        g = build_heisenberg_quotient(3)
        assert g.n_vertices == 27
        assert g.is_pmp() and g.symmetric
        assert len(g.within({0}, g.n_vertices - 1)) == g.n_vertices
        # x sends (a,b,c) to (a+1, b, c+b)
        v = 1 + 3 * 1 + 9 * 0  # (1,1,0)
        assert g.phi("x", v) == (2 % 3) + 3 * 1 + 9 * 1

    @pytest.mark.parametrize("make, m", [
        (lambda m: build_torus_action(1, m), 7),
        (lambda m: build_torus_action(2, m), 5),
        (lambda m: build_torus_action(3, m), 3),
        (lambda m: build_torus_action(1, m, [(2,), (-2,), (3,), (-3,)]), 9),
        (lambda m: build_torus_action(2, m, [(1, 0), (-1, 0), (1, 1), (-1, -1)]), 6),
        (lambda m: build_torus_action(3, m, [(1, 0, 0), (-1, 0, 0), (1, 1, 0), (-1, -1, 0),
                                             (0, 1, 1), (0, -1, -1)]), 4),
        *[(build_heisenberg_quotient, m) for m in range(3, 7)],
        (lambda m: build_weighted_cycle(m, [Fraction(2 * v + 1, m * m) for v in range(m)]), 5),
        (lambda m: cycle_with_marking(m, [Fraction(1, m)] * m, [1, -1, 3, -3]), 8),
    ])
    def test_builders_follow_the_group_law(self, make, m):
        # vertex c_0 + c_1 m + .. is the point (c_0, c_1, ..), and the generator
        # s sends it to the vertex of s * point reduced mod m
        g = make(m)
        group = g.group
        d = len(group.identity)
        assert g.n_vertices == m**d
        assert list(g.maps) == list(group.labels)
        for v in range(g.n_vertices):
            point = tuple(v // m**i % m for i in range(d))
            for lab in group.labels:
                image = group.multiply(group.generator(lab), point)
                assert g.maps[lab][v] == sum(c % m * m**i for i, c in enumerate(image))

    def test_weighted_cycle_weights(self):
        w = [Fraction(4, 10), Fraction(3, 10), Fraction(2, 10), Fraction(1, 10)]
        g = build_weighted_cycle(4, w)
        assert not g.is_pmp()
        # one orbit, though the uneven weights refuse the certificate
        assert len(g.within({0}, g.n_vertices - 1)) == g.n_vertices
        assert g.transitive_symmetries() is None and not g.symmetric
        assert g.mu([0, 1]) == Fraction(7, 10)

    def test_each_graphing_walks_its_window_once(self, monkeypatch):
        walk = graphings._min_violation_depth
        walks = []

        def recording(group, rows, n_vertices, radius, starts):
            walks.append(tuple(starts))
            return walk(group, rows, n_vertices, radius, starts)

        monkeypatch.setattr(graphings, "_min_violation_depth", recording)
        g = build_heisenberg_quotient(8)  # 512 vertices, certified: vertex 0 alone
        assert walks == [(0,)]
        obj = g.to_json()
        walks.clear()
        assert MeasuredGraphing.from_json(obj).free_window == g.free_window
        assert walks == [(0,)]  # a window the caller supplies is still checked
        del obj["free_window"]
        walks.clear()
        assert MeasuredGraphing.from_json(obj).free_window == g.free_window
        assert walks == [(0,)]
        walks.clear()
        build_torus_action(2, 12, generators=[(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert walks == [(0,)]
        # a hole, uneven weights or two orbits refuse the certificate, and the
        # walk starts from every vertex: 150 of them make 3 blocks
        for make in (lambda: path_graphing(150),
                     lambda: build_weighted_cycle(150, [Fraction(2 * v + 1, 150**2)
                                                        for v in range(150)]),
                     lambda: two_cycles(75)):
            walks.clear()
            assert not make().symmetric
            assert walks == [tuple(range(150))]

    def test_builder_parameter_guards(self):
        with pytest.raises(ParameterError):
            build_torus_action(1, 2)
        with pytest.raises(NormalizationError):
            build_weighted_cycle(3, [Fraction(1, 2), Fraction(1, 2)])

    def test_oversized_quotients_are_refused_before_any_list(self, monkeypatch):
        # m**d past the kernels' vertex ids is refused in one line, before the
        # m**d weights are built, which would run out of memory first
        for build, size in ((lambda: build_torus_action(2, 100_000), "100000^2"),
                            (lambda: build_torus_action(1, 1 << 31), f"{1 << 31}^1"),
                            (lambda: build_heisenberg_quotient(2000), "2000^3"),
                            (lambda: build_heisenberg_quotient(1291), "1291^3")):
            with pytest.raises(ParameterError) as err:
                build()
            assert str(err.value) == (f"a quotient model of {size} vertices exceeds the "
                                      "2147483647 vertex ids the kernels take")
        assert graphings.MAX_VERTICES == _pure.MAX_VERTICES == (1 << 31) - 1
        # a model of exactly MAX_VERTICES vertices is built
        monkeypatch.setattr(graphings, "MAX_VERTICES", 27)
        assert build_torus_action(3, 3).n_vertices == build_heisenberg_quotient(3).n_vertices == 27
        for build in (lambda: build_torus_action(1, 28), lambda: build_heisenberg_quotient(4)):
            with pytest.raises(ParameterError, match="exceeds the 27 vertex ids"):
                build()

    @pytest.mark.parametrize("m", [-3, 0, 2.0, True, "3", None])
    def test_quotient_modulus_is_a_positive_integer(self, m):
        with pytest.raises(ParameterError, match=rf"^m must be an integer >= 1, got {m!r}$"):
            quotient_action(ZdGroup(1), m, [Fraction(1, 3)] * 3)

    def test_quotient_needs_an_integer_form(self):
        # a free group has no column form to reduce mod m
        with pytest.raises(ConfigError) as err:
            quotient_action(FreeGroup(2), 3, [Fraction(1, 9)] * 9)
        assert str(err.value) == \
            "a quotient model needs Z^d or a Heisenberg group, not FreeGroup(2)"

    def test_a_one_point_quotient(self):
        g = quotient_action(HeisenbergGroup(), 1, [Fraction(1)])
        assert g.maps == {lab: (0,) for lab in g.group.labels} and g.free_window == 0


def _unimodular(draw, n):
    """An n x n integer matrix of determinant 1 with entries up to about 2^70:
    random row additions applied to the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-2**70, 2**70))
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


@st.composite
def quotient_cases(draw):
    """(group, m) over Z^1 to Z^4 and H3, with the standard generators or a
    random generating set whose coordinates reach about 2^70, m from 2 to 9.
    On Z^1 a random set is 1 and a few other steps: the model that
    bounds.cycle_with_marking builds."""
    kind = draw(st.sampled_from(["Zd", "Heisenberg"]))
    d = draw(st.integers(1, 4)) if kind == "Zd" else 3
    m = draw(st.integers(2, 9))
    if draw(st.booleans()):
        return (ZdGroup(d) if kind == "Zd" else HeisenbergGroup()), m
    if kind == "Zd":
        gens = [tuple(row) for row in _unimodular(draw, d)]
        gens += [tuple(draw(st.integers(-2**70, 2**70)) for _ in range(d))
                 for _ in range(draw(st.integers(0, 2)))]
        # one of each pair g, -g, as the group takes each generator once
        gens = {min(g, tuple(-c for c in g)): None for g in gens if any(g)}
        return ZdGroup(d, generators=[v for g in gens for v in (g, tuple(-c for c in g))]), m
    # H3 is generated by any set whose (a, b) parts generate Z^2; c is free
    gens = [(*row, draw(st.integers(-2**70, 2**70))) for row in _unimodular(draw, 2)]
    inverse = HeisenbergGroup().inverse
    return HeisenbergGroup(generators=[v for g in gens for v in (g, inverse(g))]), m


@settings(max_examples=80, deadline=None)
@given(quotient_cases())
@example((HeisenbergGroup(generators=[(1, 1, 2), (-1, -1, -1), (0, 1, 0), (0, -1, 0)]), 8))
@example((HeisenbergGroup(generators=[(1, 0, 5), (-1, 0, -5), (1, 1, 2**70),
                                      (-1, -1, 1 - 2**70)]), 5))
@example((ZdGroup(3, generators=[(1, 0, 0), (-1, 0, 0), (2**70, 1, 0), (-2**70, -1, 0),
                                 (3, 5, 1), (-3, -5, -1)]), 9))
def test_quotient_rows_match_the_point_by_point_oracle(case):
    group, m = case
    V = m ** len(group.identity)
    g = quotient_action(group, m, [Fraction(1, V)] * V)
    assert list(g.maps) == list(group.labels)
    assert g.maps == {lab: tuple(row) for lab, row in quotient_maps_oracle(group, m).items()}


def path_graphing(V):
    """Z on a path of V points: both ends have a hole."""
    return tiny_graphing({"1": [*range(1, V), None], "-1": [None, *range(V - 1)]})


class TestOneStart:
    """A certified graphing walks its free window from vertex 0 alone."""

    @pytest.mark.parametrize("make", [
        lambda: build_torus_action(1, 9),
        lambda: build_torus_action(2, 5),
        lambda: build_torus_action(3, 3),
        lambda: build_torus_action(1, 12, [(1,), (-1,), (2,), (-2,)]),
        lambda: build_torus_action(2, 6, [(1, 0), (-1, 0), (1, 1), (-1, -1)]),
        *[lambda m=m: build_heisenberg_quotient(m) for m in range(3, 6)],
        lambda: build_weighted_cycle(11, [Fraction(1, 11)] * 11),
        lambda: quotient_action(ZdGroup(2), 4, [Fraction(1, 16)] * 16),
        lambda: cycle_with_marking(10, [Fraction(1, 10)] * 10, [1, -1, 3, -3]),
        lambda: relabelled(build_torus_action(2, 7), 3),
        lambda: relabelled(build_heisenberg_quotient(4), 5),
        lambda: relabelled(cycle_with_marking(12, [Fraction(1, 12)] * 12, [1, -1, 2, -2]), 8),
    ])
    def test_vertex_0_finds_the_shortest_violation(self, make):
        g = make()
        assert g.symmetric
        V = g.n_vertices
        for radius in (1, 3, 6, min(V - 1, 12)):
            everywhere = _min_violation_depth(g.group, g._rows, V, radius, range(V))
            for start in (0, V // 2, V - 1):
                assert _min_violation_depth(g.group, g._rows, V, radius, (start,)) == everywhere

    @pytest.mark.parametrize("make", [
        lambda: build_torus_action(1, 6),
        lambda: build_torus_action(2, 5),
        lambda: build_torus_action(2, 6, [(1, 0), (-1, 0), (1, 1), (-1, -1)]),
        lambda: relabelled(build_torus_action(2, 7), 2),
    ])
    def test_a_wrong_declared_window_is_refused_as_before(self, make):
        # the refusal names the shortest violation over every start vertex
        g = make()
        assert g.symmetric
        V = g.n_vertices
        depth = _min_violation_depth(g.group, g._rows, V, V, range(V))
        assert depth > g.free_window
        for declared in (depth, depth + 3):
            with pytest.raises(ConfigError) as info:
                MeasuredGraphing(g.group, g.weights, g.maps, declared)
            assert str(info.value) == (
                f"free_window={declared} is wrong: a word of length {depth} fixes a vertex")


@pytest.fixture(params=["compiled", "pure"])
def graphing_backend(request, monkeypatch):
    """Build and certify graphings on one kernel backend."""
    if request.param == "pure":
        monkeypatch.setattr(_kernels, "_core", None)
    elif _kernels._core is None:
        pytest.skip("compiled kernel unavailable")


def two_involutions():
    """Three vertices and two involutions, one fixing vertex 0 and one moving
    it: the maps are connected and paired, but the sigmas of the second
    involution's labels, filled along the tree, send two vertices to one."""
    a, b = [0, 2, 1], [1, 0, 2]
    return MeasuredGraphing(ZdGroup(2), [Fraction(1, 3)] * 3,
                            {"1,0": a, "-1,0": a, "0,1": b, "0,-1": b})


class TestTransitiveSymmetries:
    @pytest.mark.parametrize("make", [
        lambda: build_torus_action(1, 8),
        lambda: build_torus_action(2, 6),
        lambda: build_torus_action(3, 4),
        lambda: build_torus_action(2, 6, [(1, 0), (-1, 0), (1, 1), (-1, -1)]),
        lambda: build_heisenberg_quotient(4),
        lambda: build_heisenberg_quotient(5),
        lambda: cycle_with_marking(12, [Fraction(1, 12)] * 12, [1, -1, 2, -2]),
        lambda: relabelled(build_torus_action(2, 7), 3),
        lambda: relabelled(build_heisenberg_quotient(4), 5),
    ])
    def test_quotient_models_certify_transitive_automorphisms(self, make):
        g = make()
        sigmas = g.transitive_symmetries()
        assert sigmas is not None and len(sigmas) == len(g.group.labels)
        V = g.n_vertices
        for sigma in sigmas:
            assert sorted(sigma) == list(range(V))
            assert all(g.weights[sigma[v]] == g.weights[v] for v in range(V))
            for row in g.maps.values():
                assert all(row[sigma[v]] == sigma[row[v]] for v in range(V))
        orbit = {0}
        for _ in range(V):
            orbit |= {sigma[v] for sigma in sigmas for v in orbit}
        assert orbit == set(range(V))

    @pytest.mark.parametrize("make", [
        lambda: path_graphing(8),
        lambda: punctured(build_torus_action(2, 6), random.Random(5), Fraction(1, 10)),
        lambda: build_weighted_cycle(12, [Fraction(1 + v % 4, 30) for v in range(12)]),
        lambda: two_cycles(6),
    ])
    def test_holes_uneven_weights_and_disconnected_maps_are_refused(self, make):
        assert make().transitive_symmetries() is None

    @pytest.mark.parametrize("make", [
        lambda: swapped(build_torus_action(2, 5), 5, 20),
        lambda: swapped(build_heisenberg_quotient(3), 13, 25),
    ])
    def test_a_swap_off_the_tree_fails_only_the_commute_check(self, make):
        # two targets swapped on an edge outside the tree: the maps stay paired
        # bijections and the sigmas filled along the tree stay permutations of
        # equal weights, so only sigma o row != row o sigma refuses them
        g = make()
        V = g.n_vertices
        assert g.is_pmp()
        assert all(sorted(sigma.values()) == list(range(V)) for sigma in tree_sigmas(g))
        assert g.transitive_symmetries() is None and not g.symmetric
        assert symmetries_oracle(g) is None

    def test_nothing_is_kept_on_the_graphing(self):
        g = build_torus_action(2, 5)
        before = dict(vars(g))
        assert g.transitive_symmetries() is not None
        assert vars(g) == before


@pytest.mark.usefixtures("graphing_backend")
class TestCertificateBackends:
    """The certificate and the pairing check on both kernel backends, against
    the entry-by-entry oracle and the first-fault messages."""


    @pytest.mark.parametrize("make", [
        lambda: build_torus_action(1, 9),
        lambda: build_torus_action(2, 5),
        lambda: build_torus_action(2, 8),
        lambda: build_torus_action(3, 3),
        lambda: build_torus_action(3, 4),
        lambda: build_torus_action(2, 6, [(1, 0), (-1, 0), (1, 1), (-1, -1)]),
        lambda: build_heisenberg_quotient(3),
        lambda: build_heisenberg_quotient(4),
        lambda: build_weighted_cycle(9, [Fraction(1, 9)] * 9),
        lambda: build_weighted_cycle(9, [Fraction(1 + v % 3, 18) for v in range(9)]),
        lambda: cycle_with_marking(10, [Fraction(1, 10)] * 10, [1, -1, 3, -3]),
    ])
    @pytest.mark.parametrize("relabel, seed", [
        (None, None), *[(relabel, seed) for relabel in (relabelled, regenerated)
                        for seed in (1, 2, 3)]])
    def test_the_certificate_matches_the_oracle(self, make, relabel, seed):
        g = make() if relabel is None else relabel(make(), seed)
        sigmas = symmetries_oracle(g)
        assert g.transitive_symmetries() == sigmas and g.symmetric == (sigmas is not None)

    @pytest.mark.parametrize("make", [
        lambda: two_cycles(6),  # disconnected maps
        lambda: path_graphing(8),  # holes that break the symmetry
        lambda: punctured(build_torus_action(2, 6), random.Random(5), Fraction(1, 10)),
        lambda: build_weighted_cycle(12, [Fraction(1 + v % 4, 30) for v in range(12)]),
        two_involutions,  # sigmas that are no permutation
        lambda: swapped(build_torus_action(2, 5), 5, 20),  # sigmas that do not commute
    ])
    def test_each_failed_check_refuses_the_certificate(self, make):
        g = make()
        assert g.transitive_symmetries() is None and not g.symmetric
        assert symmetries_oracle(g) is None

    def test_a_sigma_that_is_no_permutation_is_refused(self):
        g = two_involutions()
        filled = tree_sigmas(g)
        assert [sorted(sigma.values()) == [0, 1, 2] for sigma in filled] == \
            [True, True, False, False]
        assert g.transitive_symmetries() is None

    def test_unequal_weights_refuse_sigmas_that_hold_for_the_maps(self):
        # the rotations commute with the maps; the weights alone refuse them
        g = build_weighted_cycle(12, [Fraction(1 + v % 4, 30) for v in range(12)])
        paired, sigmas = _kernels.graphing_certificate(g._table, 12, [1, 0])
        assert paired and sigmas == tuple(tuple((v + s) % 12 for v in range(12))
                                          for s in (1, -1))
        assert g.transitive_symmetries() is None

    @pytest.mark.parametrize("make, message", [
        (lambda: build_torus_action(2, 5), "map '-1,0' does not invert '1,0' at vertex 0"),
        (lambda: build_heisenberg_quotient(3), "map 'X' does not invert 'x' at vertex 0"),
        (lambda: build_weighted_cycle(5, [Fraction(1, 5)] * 5),
         "map '-1' does not invert '1' at vertex 0"),
    ])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_a_swapped_entry_names_the_first_fault(self, make, message, reverse):
        # the targets of vertices 0 and 1 swapped in the first label's map, and
        # those of 2 and 3 in the second's: the fault is named in label
        # order, whatever the order of the maps
        g = make()
        first, second = g.group.labels[:2]
        maps = {lab: list(row) for lab, row in g.maps.items()}
        maps[first][0], maps[first][1] = maps[first][1], maps[first][0]
        maps[second][2], maps[second][3] = maps[second][3], maps[second][2]
        if reverse:
            maps = dict(reversed(maps.items()))
        with pytest.raises(ConfigError) as direct:
            MeasuredGraphing(g.group, g.weights, maps)
        obj = dict(g.to_json(), maps=maps)
        with pytest.raises(ConfigError) as read:
            MeasuredGraphing.from_json(obj)
        assert str(direct.value) == str(read.value) == message

    def test_the_table_is_the_maps(self):
        g = punctured(build_heisenberg_quotient(4), random.Random(2), Fraction(1, 8))
        L = len(g.maps)
        assert g._table.typecode == "i"
        assert [[-1 if t is None else t for t in row] for row in g.maps.values()] == \
            [list(g._table[s::L]) for s in range(L)]


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

    def test_mu_sums_mixed_denominators_exactly(self):
        w = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 10), Fraction(1, 15)]
        g = build_weighted_cycle(4, w)
        assert g.mu([]) == 0 and type(g.mu([])) is Fraction
        assert g.mu([1, 3, 2, 3]) == Fraction(1, 2)
        assert g.mu(range(4)) == 1
        with pytest.raises(ParameterError, match="vertex 4 out of range"):
            g.mu([0, 4, -1])

    def test_json_roundtrip_preserves_everything(self):
        rng = random.Random(11)
        g = random_graphing(rng, 9, d=2, hole_prob=Fraction(1, 4))
        h = MeasuredGraphing.from_json(g.to_json())
        assert h.weights == g.weights
        assert h.maps == g.maps
        assert h.group == g.group
        assert h.free_window == g.free_window

    def test_json_writes_each_weight_in_place(self):
        # each distinct weight is formatted once and written at every vertex
        g = build_weighted_cycle(5, [Fraction(1, 6), Fraction(1, 3), Fraction(1, 6),
                                     Fraction(1, 6), Fraction(1, 6)])
        assert g.to_json()["weights"] == ["1/6", "1/3", "1/6", "1/6", "1/6"]

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


def rows_agree_with_entries(g, rng):
    """Every graphing pass that reads the integer rows and units gives what the
    entry-by-entry oracles give: symmetries, boundary mass, mu, towers and the
    iterated boundary."""
    V = g.n_vertices
    sigmas = symmetries_oracle(g)
    assert g.transitive_symmetries() == sigmas and g.symmetric == (sigmas is not None)
    cells = random_partition(rng, V, 3)
    partition = BoundedPartition(g, cells, 3)
    report = boundary_mass(g, partition)
    assert (report.boundary_set, report.per_generator, report.mass) == \
        boundary_mass_oracle(g, cells)
    some = [rng.randrange(V) for _ in range(rng.randint(0, 2 * V))]
    assert g.mu(some) == mu_oracle(g, some)
    # the largest built-in tile of at most 8 points that fits the free window
    fits = [t.multitile() for t in folner_tiles(g.group, 8)]
    fits = [mt for mt in fits if max(len(g.group.geodesic_word(t)) for shape in mt.shapes
                                     for t in shape) <= g.free_window]
    towers = build_towers(g, fits[-1], Fraction(1, 2))
    assert (towers.bases, towers.fibers, towers.leftover, towers.coverage) == \
        towers_oracle(g, fits[-1])
    for k in range(1, min(g.free_window, 3) + 1):
        r = iterated_boundary(g, partition, k)
        assert (r.boundary_set, r.mass, r.telescoping_bound) == \
            iterated_boundary_oracle(g, cells, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12), st.sampled_from([1, 2]),
       st.sampled_from([0, Fraction(1, 4)]), st.sampled_from(["shared", "distinct", "uneven"]))
def test_rows_agree_with_entries_on_random_graphings(seed, V, d, holes, weights):
    # random paired injections: holes, maps that fall apart into cycles, and
    # equal weights shared, equal weights held as distinct objects, or uneven
    rng = random.Random(seed)
    g = random_graphing(rng, V, d=d, hole_prob=holes, uniform=True)
    if weights == "distinct":
        g = MeasuredGraphing(g.group, [Fraction(1, V) for _ in range(V)], g.maps)
    elif weights == "uneven":
        raw = [rng.randint(1, 4) for _ in range(V)]
        g = MeasuredGraphing(g.group, [Fraction(r, sum(raw)) for r in raw], g.maps)
    else:
        g = MeasuredGraphing(g.group, g.weights, g.maps)
    rows_agree_with_entries(g, rng)


ROW_BUILDERS = [
    lambda: build_torus_action(1, 9),
    lambda: build_torus_action(2, 5),
    lambda: build_torus_action(3, 3),
    lambda: build_torus_action(2, 6, [(1, 0), (-1, 0), (1, 1), (-1, -1)]),
    lambda: build_heisenberg_quotient(3),
    lambda: build_weighted_cycle(9, [Fraction(1 + v % 3, 18) for v in range(9)]),
    lambda: cycle_with_marking(10, [Fraction(1, 10)] * 10, [1, -1, 3, -3]),
    lambda: quotient_action(ZdGroup(1), 7, [Fraction(1, 7)] * 7),
    lambda: two_cycles(5),
    lambda: swapped(build_torus_action(2, 5), 5, 20),
    lambda: swapped(build_heisenberg_quotient(3), 13, 25),
]


@pytest.mark.parametrize("make", ROW_BUILDERS)
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_rows_agree_with_entries_on_builders(make, seed):
    g = make()
    rows_agree_with_entries(g if seed is None else relabelled(g, seed), random.Random(seed))


@pytest.mark.parametrize("make", ROW_BUILDERS)
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_rows_agree_with_entries_on_builders_pure(make, seed, monkeypatch):
    # the same graphings, built and certified by the pure kernel twins
    monkeypatch.setattr(_kernels, "_core", None)
    test_rows_agree_with_entries_on_builders(make, seed)
