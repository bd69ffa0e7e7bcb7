"""Multi-tile windowed verification, center-set handling, invariance."""

import random
from array import array
from collections import Counter
from fractions import Fraction
from itertools import count, product, takewhile
from math import lcm
from types import SimpleNamespace

import pytest

from isoprof import tilings
from hypothesis import given, settings, strategies as st
from oracles import (ball_columns, determinant, inline_law, lattice_member_oracle,
                     residue_counts_oracle, tile_window_oracle, union_columns)

from isoprof import (
    ExplicitCenters,
    FreeGroup,
    GroupSubset,
    HeisenbergGroup,
    LatticeCenters,
    MultiTile,
    ZdGroup,
    boundary_ratio,
    folner_multitile_sequence,
    heisenberg_cuboid,
    invariance,
    multitile_from_json,
    multitile_to_json,
    profile_upper,
    verify_multitile_window,
    zd_cube,
)
from isoprof.errors import (
    BudgetError,
    ConfigError,
    MixedGroupError,
    ParameterError,
    RadiusExceededError,
    UnsupportedError,
    WindowTooSmallError,
)


def interval_tile(k, step=None):
    g = ZdGroup(1)
    shape = g.subset([(i,) for i in range(k)])
    return MultiTile([shape], [LatticeCenters([(step or k,)])])


class TestCenterSets:
    def test_explicit_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            ExplicitCenters([(0,), (1,), (0,)])

    def test_lattice_rejects_zero_generator(self):
        with pytest.raises(ConfigError):
            LatticeCenters([(2, 0), (0, 0)])

    def test_lattice_rejects_empty(self):
        with pytest.raises(ConfigError):
            LatticeCenters([])


class TestMultiTileValidation:
    def test_shape_must_contain_identity(self):
        g = ZdGroup(1)
        with pytest.raises(ParameterError):
            MultiTile([g.subset([(1,), (2,)])], [LatticeCenters([(2,)])])

    def test_center_count_must_match(self):
        g = ZdGroup(1)
        s = g.subset([(0,)])
        with pytest.raises(ParameterError):
            MultiTile([s, s], [LatticeCenters([(2,)])])

    def test_mixed_groups_rejected(self):
        with pytest.raises(MixedGroupError):
            MultiTile(
                [ZdGroup(1).subset([(0,)]), ZdGroup(2).subset([(0, 0)])],
                [LatticeCenters([(1,)]), LatticeCenters([(1, 0), (0, 1)])],
            )

    @pytest.mark.parametrize("centers", [
        LatticeCenters([(2, 0, 7), (0, 2, 9)]),
        LatticeCenters([(2,), (2,)]),
        ExplicitCenters([(0, 0), (1,)]),
    ])
    def test_centers_of_the_wrong_dimension_rejected(self, centers):
        with pytest.raises(MixedGroupError):
            MultiTile([zd_cube(ZdGroup(2), 2)], [centers])

    @pytest.mark.parametrize("group, bad", [(ZdGroup(2), (1, 0, 0)), (HeisenbergGroup(), (1, 2)),
                                            (FreeGroup(2), (0, 1))])
    def test_shape_elements_outside_the_group_rejected(self, group, bad):
        # a GroupSubset built directly skips group.subset's checks; the tile makes
        # them, so the window scan can read shape norms without them
        with pytest.raises(MixedGroupError):
            MultiTile([GroupSubset(group, [group.identity, bad])], [ExplicitCenters([group.identity])])


class TestZdVerification:
    def test_interval_tile_passes(self):
        v = verify_multitile_window(interval_tile(3), 10)
        assert v.passed and v.disjoint and v.covered
        assert v.margin == 2
        assert v.density == 1

    def test_square_tile_passes(self):
        g = ZdGroup(2)
        mt = MultiTile([zd_cube(g, 3)], [LatticeCenters([(3, 0), (0, 3)])])
        v = verify_multitile_window(mt, 9)
        assert v.passed
        assert v.margin == 4  # corner (2,2) of the 3x3 cube
        assert v.density == 1

    def test_sheared_lattice_tile(self):
        # {0,1}^2 tiles Z^2 by the index-4 lattice spanned by (2,0) and (1,2)
        g = ZdGroup(2)
        mt = MultiTile(
            [g.subset([(0, 0), (1, 0), (0, 1), (1, 1)])],
            [LatticeCenters([(2, 0), (1, 2)])],
        )
        assert verify_multitile_window(mt, 8).passed

    def test_gap_reports_uncovered_witnesses(self):
        v = verify_multitile_window(interval_tile(2, step=3), 8)
        assert not v.passed and v.disjoint and not v.covered
        assert v.uncovered and len(v.uncovered) <= 5
        assert v.covered_count < v.region_size

    def test_overlap_reports_collision_witnesses(self):
        v = verify_multitile_window(interval_tile(3, step=2), 8)
        assert not v.passed and not v.disjoint
        assert v.collisions
        point, hits = v.collisions[0]
        assert len(hits) >= 2
        # every reported hit really covers the point
        g = ZdGroup(1)
        for idx, c in hits:
            assert idx == 0
            t = (point[0] - c[0],)
            assert t in {(0,), (1,), (2,)}

    def test_lattice_solver_is_built_once_per_shape(self, monkeypatch):
        # a 2x2 square over the (1,0),(0,2) lattice overlaps its translates:
        # the five reported collisions reuse the residue index the scan built
        built = []
        index = tilings._residue_index
        monkeypatch.setattr(tilings, "_residue_index", lambda group, shape, centers:
                            built.append(centers) or index(group, shape, centers))
        g = ZdGroup(2)
        mt = MultiTile([g.subset([(0, 0), (1, 0), (0, 1), (1, 1)])],
                       [LatticeCenters([(1, 0), (0, 2)])])
        v = verify_multitile_window(mt, 6)
        assert len(v.collisions) == 5
        assert len(built) == 1

    def test_lattice_is_solved_once_for_scan_period_and_collisions(self, monkeypatch):
        solved = []
        solve = tilings._zd_lattice
        monkeypatch.setattr(tilings, "_zd_lattice",
                            lambda group, gens: solved.append(gens) or solve(group, gens))
        g = ZdGroup(2)
        mt = MultiTile([g.subset([(0, 0), (1, 0), (0, 1), (1, 1)])],
                       [LatticeCenters([(1, 0), (0, 2)])])
        assert len(verify_multitile_window(mt, 6).collisions) == 5
        assert solved == [((1, 0), (0, 2))]

    def test_multi_shape_tile_with_explicit_centers(self):
        # {0} on 3Z and {0,1} on 3Z+1 partition Z into blocks 0|12|3|45|...
        g = ZdGroup(1)
        R = 6
        singles = g.subset([(0,)])
        pair = g.subset([(0,), (1,)])
        span = range(-(R + 3), R + 4)
        mt = MultiTile(
            [singles, pair],
            [
                ExplicitCenters([(3 * i,) for i in span]),
                ExplicitCenters([(3 * i + 1,) for i in span]),
            ],
        )
        v = verify_multitile_window(mt, R)
        assert v.passed
        assert v.density == 1

    def test_window_too_small_rejected(self):
        with pytest.raises(WindowTooSmallError):
            verify_multitile_window(interval_tile(5), 3)

    def test_wrong_generator_count_unsupported(self):
        g = ZdGroup(2)
        mt = MultiTile([zd_cube(g, 2)], [LatticeCenters([(2, 0)])])
        with pytest.raises(UnsupportedError):
            verify_multitile_window(mt, 6)

    def test_dependent_lattice_rejected(self):
        g = ZdGroup(2)
        mt = MultiTile([zd_cube(g, 2)], [LatticeCenters([(2, 0), (4, 0)])])
        with pytest.raises(ConfigError):
            verify_multitile_window(mt, 6)


class TestScanPaths:
    @pytest.mark.parametrize("seed", range(20))
    def test_integer_lattice_test_matches_brute_force(self, seed):
        # L contains |det L| * Z^d, so membership is decided mod |det L|, where
        # every integer vector k can be tried up to that modulus; the index lists
        # the shape points t with w - t in L, in shape order
        rng = random.Random(seed)
        d = 2 + seed % 2
        while True:
            gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)]
            det = determinant([[g[i] for g in gens] for i in range(d)])
            if det and (seed < 10) == (det < 0):
                break
        m = abs(det)
        residues = {tuple(sum(g[i] * k for g, k in zip(gens, ks)) % m for i in range(d))
                    for ks in product(range(m), repeat=d)}
        g = ZdGroup(d)
        shape = _random_shape(rng, g, rng.randint(1, 8))
        over, _, lookups, _ = tilings._residue_index(g, shape, LatticeCenters(gens))
        assert lookups == 1
        for w in product(range(-7, 8), repeat=d):
            expected = [t for t in shape
                        if tuple((x - y) % m for x, y in zip(w, t)) in residues]
            assert list(over(w)) == expected, (gens, w)

    @pytest.mark.parametrize("seed", range(20))
    def test_heisenberg_box_count_matches_the_gather(self, seed):
        # box shapes on even seeds, scattered ones on odd seeds, against the
        # membership of every t^-1 w
        rng = random.Random(seed)
        g = HeisenbergGroup()
        if seed % 2:
            shape = _random_shape(rng, g, rng.randint(1, 12))
        else:
            lo = [-rng.randint(0, 2) for _ in range(3)]
            hi = [rng.randint(0, 2) for _ in range(3)]
            shape = g.subset(list(product(*(range(a, b + 1) for a, b in zip(lo, hi)))))
        gens = [(rng.randint(1, 4), 0, 0), (0, -rng.randint(1, 4), 0), (0, 0, rng.randint(1, 6))]
        mul, inv = inline_law(g)
        member = lattice_member_oracle(g, gens)
        points = {tuple(rng.randint(-12, 12) for _ in range(3)) for _ in range(300)}
        over, period, lookups, _ = tilings._residue_index(g, shape, LatticeCenters(gens))
        assert period == gens[2][2]
        assert lookups == max(len({t[0] % gens[2][2] for t in shape
                                   if (t[0] - s[0]) % gens[0][0] == (t[1] - s[1]) % gens[1][1] == 0})
                              for s in shape)
        for w in points:
            assert list(over(w)) == [t for t in shape if member(mul(inv(t), w))], w

    def test_cuboid_tiles_cost_one_lookup(self):
        for n in (8, 45, 425):
            mt = folner_multitile_sequence(HeisenbergGroup(), n, verify=False)
            assert tilings._residue_index(mt.group, mt.shapes[0], mt.centers[0])[2] == 1


def _random_lattice(rng, d, negative):
    while True:
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)]
        det = determinant([[g[i] for g in gens] for i in range(d)])
        if det and (det < 0) == negative:
            return gens


def _random_shape(rng, group, size, spread=2):
    n = len(group.identity)
    return group.subset([group.identity] + [
        tuple(rng.randint(-spread, spread) for _ in range(n)) for _ in range(size - 1)])


def _heisenberg_box(rng, g):
    lo = [-rng.randint(0, 1) for _ in range(3)]
    hi = [rng.randint(0, 2) for _ in range(3)]
    return g.subset(list(product(*(range(a, b + 1) for a, b in zip(lo, hi))))), lo, hi


class TestColumnScan:
    """Every field of the column scan against a per-point oracle over the point ball."""

    @staticmethod
    def check(mt, radius):
        v = verify_multitile_window(mt, radius)
        expected = tile_window_oracle(mt, radius)
        assert {k: getattr(v, k) for k in expected} == expected
        return v

    @pytest.mark.parametrize("seed", range(16))
    def test_random_zd_lattices(self, seed):
        rng = random.Random(seed)
        d = 2 + seed % 2
        g = ZdGroup(d)
        shape = _random_shape(rng, g, rng.randint(1, 6))
        centers = LatticeCenters(_random_lattice(rng, d, negative=seed < 8))
        self.check(MultiTile([shape], [centers]), 8 if d == 2 else 6)

    @pytest.mark.parametrize("seed", range(12))
    def test_heisenberg_boxes_with_right_and_wrong_moduli(self, seed):
        rng = random.Random(seed)
        g = HeisenbergGroup()
        shape, lo, hi = _heisenberg_box(rng, g)
        mods = [b - a + 1 + (rng.randint(-1, 1) if seed % 2 else 0) or 1 for a, b in zip(lo, hi)]
        centers = LatticeCenters([(mods[0], 0, 0), (0, -mods[1], 0), (0, 0, mods[2])])
        v = self.check(MultiTile([shape], [centers]), 7)
        if not seed % 2:
            assert v.passed

    @pytest.mark.parametrize("seed", range(8))
    def test_heisenberg_non_box_shapes(self, seed):
        rng = random.Random(seed)
        g = HeisenbergGroup(generators=[(1, 0, 0), (-1, 0, 0), (1, 1, 0), (-1, -1, 1)]
                            if seed % 2 else None)
        shape = _random_shape(rng, g, rng.randint(2, 6), spread=1)
        centers = LatticeCenters([(rng.randint(1, 3), 0, 0), (0, rng.randint(1, 3), 0),
                                  (0, 0, rng.randint(1, 4))])
        self.check(MultiTile([shape], [centers]), 6)

    @pytest.mark.parametrize("seed", range(8))
    def test_explicit_and_mixed_multi_tiles(self, seed):
        rng = random.Random(seed)
        g = [ZdGroup(1), ZdGroup(2), HeisenbergGroup()][seed % 3]
        n = len(g.identity)
        shapes = [_random_shape(rng, g, rng.randint(1, 3), spread=1) for _ in range(2)]
        explicit = ExplicitCenters({tuple(rng.randint(-4, 4) for _ in range(n))
                                    for _ in range(rng.randint(1, 30))})
        lattice = LatticeCenters([tuple(rng.randint(1, 3) if i == j else 0 for j in range(n))
                                  for i in range(n)])
        second = lattice if seed < 4 else explicit
        self.check(MultiTile(shapes, [explicit, second]), 6 if n < 3 else 5)

    def test_bad_residues_deep_inside_long_intervals(self):
        # with generators +-1..+-50, sphere 1 of Z is the intervals [-50, -1] and
        # [1, 50]; over 50Z the shape {0..48, 75} covers 25 twice and 49 never,
        # so the first witnesses sit 25 and 49 steps into the first interval
        g = ZdGroup(1, generators=[(s * k,) for k in range(1, 51) for s in (1, -1)])
        shape = g.subset([(t,) for t in range(49)] + [(75,)])
        v = self.check(MultiTile([shape], [LatticeCenters([(50,)])]), 3)
        assert v.uncovered[0] == (-1,)
        assert v.collisions[0][0] == (-25,)

    def test_free_group_explicit_tile(self):
        # {1, a} over the centers of even a-exponent on the a-axis: a partial
        # cover, so the walk reports uncovered words of every branch
        g = FreeGroup(2)
        shape = g.subset([(), (0,)])
        centers = ExplicitCenters([(0,) * k for k in range(0, 5, 2)] + [(1,) * k for k in (2, 4)])
        self.check(MultiTile([shape], [centers]), 5)

    def test_budget_counts_evaluations_not_points(self, monkeypatch):
        # 345,149 window points are past a budget of 100,000, but with period
        # m3 = 2 each column needs at most 2 evaluations of one lookup
        monkeypatch.setattr(tilings, "SCAN_BUDGET", 100_000)
        g = HeisenbergGroup()
        shape = g.subset([(0, 0, 0)] + [(1, 0, c) for c in range(19)])
        v = verify_multitile_window(
            MultiTile([shape], [LatticeCenters([(2, 0, 0), (0, 1, 0), (0, 0, 2)])]), 30)
        assert v.window_size == 345149

    def test_a_scan_without_a_short_period_still_refuses(self, monkeypatch):
        # 41 points, not a box; with no period inside the window every one of the
        # 141,225 points is an evaluation, and each costs 4 lookups, since the
        # columns a = -3, -1, 1, 3 share a bucket mod 2 but not mod 10^6
        monkeypatch.setattr(tilings, "SCAN_BUDGET", 500_000)
        g = HeisenbergGroup()
        shape = g.subset([(a, b, 0) for a in range(-3, 4) for b in range(-3, 3)][:-1])
        mt = MultiTile([shape], [LatticeCenters([(2, 0, 0), (0, 1, 0), (0, 0, 10 ** 6)])])
        with pytest.raises(BudgetError, match="^lattice window scan too large$"):
            verify_multitile_window(mt, 24)

    def test_a_refused_scan_gathers_nothing_first(self, monkeypatch):
        # the interval {0..N-1} over NZ at window N - 1 needs N evaluations, one
        # past the budget; the period N is read off the lattice, so the kernel
        # refuses before it builds any support
        histograms = self.recorded(monkeypatch)
        N = 10 ** 4
        monkeypatch.setattr(tilings, "SCAN_BUDGET", N - 1)
        g = ZdGroup(1, max_radius=N)
        mt = MultiTile([g.subset([(t,) for t in range(N)])], [LatticeCenters([(N,)])])
        with pytest.raises(BudgetError, match="^lattice window scan too large$"):
            verify_multitile_window(mt, N - 1)
        assert histograms == [None]

    def test_budget_refusals_come_in_shape_order(self, monkeypatch):
        monkeypatch.setattr(tilings, "SCAN_BUDGET", 2999)
        g = ZdGroup(1, max_radius=2999)
        wide = g.subset([(t,) for t in range(3000)])  # 3,000 evaluations
        short = g.subset([(t,) for t in range(100)])
        lattice = LatticeCenters([(3000,)])
        scatter = ExplicitCenters([(c,) for c in range(30)])  # 3,000 scatter steps
        with pytest.raises(BudgetError, match="^lattice window scan too large$"):
            verify_multitile_window(MultiTile([wide, short], [lattice, scatter]), 2999)
        with pytest.raises(BudgetError, match="^explicit center scatter too large$"):
            verify_multitile_window(MultiTile([short, wide], [scatter, lattice]), 2999)

    @pytest.mark.parametrize("seed", range(12))
    def test_period_is_the_least_center_on_the_last_axis(self, seed):
        # over the one-point shape {0}, the index finds a point exactly when it is
        # a center
        rng = random.Random(seed)
        d = 1 + seed % 3
        gens = _random_lattice(rng, d, negative=seed < 6)
        g = ZdGroup(d)
        over, p, _, _ = tilings._residue_index(g, g.subset([g.identity]), LatticeCenters(gens))
        on_axis = [bool(over((0,) * (d - 1) + (q,))) for q in range(1, p + 1)]
        assert on_axis == [False] * (p - 1) + [True], gens

    @staticmethod
    def recorded(monkeypatch):
        """The histograms that the scan's residue_histogram calls return, None
        for a call past its limit."""
        from isoprof import _kernels

        histograms, kernel = [], _kernels.residue_histogram

        def recording(*args):
            evaluations, histogram = kernel(*args)
            histograms.append(histogram)
            return evaluations, histogram

        monkeypatch.setattr(_kernels, "residue_histogram", recording)
        return histograms

    @staticmethod
    def evaluated(histogram):
        """(class, residue) for every support residue of a histogram, each class's
        residues checked to be strictly increasing."""
        ends, residues = histogram.ends, histogram.residues
        for lo, hi in zip(ends, ends[1:]):
            assert all(x < y for x, y in zip(residues[lo:hi], residues[lo + 1:hi]))
        return [(k, residues[i]) for k in range(len(ends) - 1) for i in range(ends[k], ends[k + 1])]

    @staticmethod
    def window_classes(mt, radius):
        """The class tuple of every window column under the oracle's class rule,
        by key."""
        g = mt.group
        rules = [residue_counts_oracle(g, shape, centers.generators)[0]
                 for shape, centers in zip(mt.shapes, mt.centers)
                 if isinstance(centers, LatticeCenters)]
        window = union_columns(row for r in range(radius + 1) for row in g._sphere_rows(r))
        return {key: tuple(rule(key) for rule in rules) for key in window}

    @pytest.mark.parametrize("kind", ["Z2", "H3"])
    def test_lattice_shapes_with_different_periods(self, kind, monkeypatch):
        # periods 3 and 4 (Z^2) or 2 and 3 (H3): a column's class is the pair of
        # its classes under the two lattices, and its support runs over the lcm
        histograms = self.recorded(monkeypatch)
        if kind == "Z2":
            g, radius, period = ZdGroup(2), 8, 12
            shapes = [g.subset([(0, 0), (1, 0), (0, 1)]), g.subset([(0, 0), (0, 1), (-1, 2)])]
            lattices = [[(2, 1), (0, 3)], [(1, 1), (0, 4)]]
        else:
            g, radius, period = HeisenbergGroup(), 7, 6
            shapes = [g.subset([(0, 0, 0), (1, 0, 0), (0, 0, 1)]),
                      g.subset([(0, 0, 0), (0, 1, 0), (1, 1, 2)])]
            lattices = [[(2, 0, 0), (0, 1, 0), (0, 0, 2)], [(1, 0, 0), (0, 2, 0), (0, 0, 3)]]
        mt = MultiTile(shapes, [LatticeCenters(gens) for gens in lattices])
        assert [tilings._residue_index(g, s, c)[1] for s, c in zip(mt.shapes, mt.centers)] \
            == ([3, 4] if kind == "Z2" else [2, 3])
        self.check(mt, radius)
        (histogram,) = histograms
        classes = set(self.window_classes(mt, radius).values())
        assert len({cls[0] for cls in classes}) < len(classes)  # the pair is finer
        assert len(histogram.ends) - 1 == len(classes)
        assert len(self.evaluated(histogram)) <= len(classes) * period

    @pytest.mark.parametrize("seed", range(6))
    def test_short_columns_share_a_class_with_long_ones(self, seed, monkeypatch):
        # Z^2 marked by +-(1,0), +-(0,4), +-(1,1) splits the radius-6 ball columns
        # a = 0, +-1, +-2 into several intervals; over the lattice of (2,0), (1,6)
        # (period 12) the columns of one parity of a share a class, and the
        # columns a = +-5, +-6 are shorter than 12; on H3 marked by x, (1,1,0) the
        # columns of one class have lengths on both sides of the period 5
        histograms = self.recorded(monkeypatch)
        rng = random.Random(seed)
        if seed % 2:
            g = HeisenbergGroup(generators=[(1, 0, 0), (-1, 0, 0), (1, 1, 0), (-1, -1, 1)])
            centers, radius, period = LatticeCenters([(2, 0, 0), (0, 1, 0), (0, 0, 5)]), 7, 5
        else:
            g = ZdGroup(2, generators=[(1, 0), (-1, 0), (0, 4), (0, -4), (1, 1), (-1, -1)])
            centers, radius, period = LatticeCenters([(2, 0), (1, 6)]), 6, 12
        mt = MultiTile([_random_shape(rng, g, rng.randint(2, 8), spread=1)], [centers])
        self.check(mt, radius)
        window = union_columns(row for r in range(radius + 1) for row in g._sphere_rows(r))
        lengths = {}
        for key, cls in self.window_classes(mt, radius).items():
            lengths.setdefault(cls, []).append(max(hi - lo + 1 for lo, hi in window[key]))
        assert any(min(ls) < period <= max(ls) for ls in lengths.values())
        if not seed % 2:
            assert any(len(ivs) > 1 for ivs in window.values())
        assert len(self.evaluated(histograms[0])) <= len(lengths) * period

    def test_evaluations_are_one_per_class_and_residue(self, monkeypatch):
        histograms = self.recorded(monkeypatch)
        mt = folner_multitile_sequence(ZdGroup(3), 27, verify=False)
        assert verify_multitile_window(mt, 12).passed
        assert len(self.evaluated(histograms[-1])) == 27  # 9 classes (a, b mod 3) times 3
        mt = folner_multitile_sequence(HeisenbergGroup(), 425, verify=False)
        assert verify_multitile_window(mt, 36).passed
        classes = set(self.window_classes(mt, 36).values())
        assert len(histograms[-1].ends) - 1 == len(classes)
        assert len(self.evaluated(histograms[-1])) == 5937  # 45,177 at one pattern per column
        assert 5937 <= len(classes) * 17

    def test_a_long_period_window_keeps_its_evaluations(self, monkeypatch):
        # 1,092,681 points in columns far shorter than the period 10^6: a class
        # is evaluated at the union of its columns' residues, each residue once
        histograms = self.recorded(monkeypatch)
        g = HeisenbergGroup()
        mt = MultiTile([g.subset([(0, 0, 0), (1, 0, 0)])],
                       [LatticeCenters([(2, 0, 0), (0, 1, 0), (0, 0, 10 ** 6)])])
        v = verify_multitile_window(mt, 40)
        assert (v.window_size, v.covered_count, v.density) == (1092681, 3045,
                                                               Fraction(3203, 1092681))
        assert len(self.evaluated(histograms[0])) == 89172

    @pytest.mark.parametrize("kind", ["Z2", "H3"])
    def test_a_long_period_fills_only_the_residues_used(self, kind, monkeypatch):
        # the last-axis period 10^6 is far longer than any column, so every
        # column is short and columns of one parity of a (and one b on H3) share
        # a class; the supports hold only the residues the window uses
        import tracemalloc

        histograms = self.recorded(monkeypatch)
        if kind == "Z2":
            g, radius = ZdGroup(2), 8
            mt = MultiTile([g.subset([(0, 0), (1, 0), (0, 1), (1, 2)])],
                           [LatticeCenters([(2, 0), (0, 10 ** 6)])])
        else:
            g, radius = HeisenbergGroup(), 7
            mt = MultiTile([g.subset([(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, -1, 2)])],
                           [LatticeCenters([(2, 0, 0), (0, 1, 0), (0, 0, 10 ** 6)])])
        g._grow(radius)
        tracemalloc.start()
        try:
            self.check(mt, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # a list of 10^6 counts alone takes 8 MB
        assert len(self.evaluated(histograms[0])) < len(g.ball(radius))


class TestBatchCounts:
    """The oracle's batch reader counts and the class counts of _WindowCounts,
    against the length of over's list at each point, one point at a time."""

    @staticmethod
    def lattice(rng, g):
        if isinstance(g, HeisenbergGroup):
            return LatticeCenters([(rng.randint(1, 4), 0, 0), (0, -rng.randint(1, 4), 0),
                                   (0, 0, rng.randint(1, 9))])
        return LatticeCenters(_random_lattice(rng, g.d, negative=rng.random() < 0.5))

    @pytest.mark.parametrize("seed", range(24))
    def test_batch_counts_match_the_index_point_by_point(self, seed):
        # Z^1-Z^3 and H3 with box and scattered shapes; residues below 0, past
        # the period, repeated and out of order, and a whole period
        rng = random.Random(seed)
        g = HeisenbergGroup() if seed % 4 == 3 else ZdGroup(1 + seed % 4)
        shape = _random_shape(rng, g, rng.randint(1, 12))
        centers = self.lattice(rng, g)
        over, period, _, _ = tilings._residue_index(g, shape, centers)
        _, counts, oracle_period = residue_counts_oracle(g, shape, centers.generators)
        assert oracle_period == period
        for _ in range(20):
            key = tuple(rng.randint(-9, 9) for _ in g.identity[:-1])
            for residues in (range(period), [rng.randint(-3 * period, 3 * period)
                                             for _ in range(2 * period)]):
                assert counts(key, residues) == [len(over(g._point(key, c)))
                                                 for c in residues], (key, residues)

    def test_heisenberg_counts_sum_several_ta_classes(self):
        # (0,0,0) and (2,0,1) share the bucket (0, 0) mod (2, 1) but not ta mod 4
        g = HeisenbergGroup()
        shape, gens = g.subset([(0, 0, 0), (2, 0, 1)]), [(2, 0, 0), (0, 1, 0), (0, 0, 4)]
        over, period, lookups, _ = tilings._residue_index(g, shape, LatticeCenters(gens))
        assert lookups == 2
        counts = residue_counts_oracle(g, shape, gens)[1]
        for key in product(range(-3, 4), repeat=2):
            assert counts(key, range(-8, 9)) == [len(over(key + (c,))) for c in range(-8, 9)]

    @pytest.mark.parametrize("seed", range(8))
    def test_class_patterns_match_the_indexes_point_by_point(self, seed):
        # two lattice shapes of different last-axis periods (the class counts run
        # over their lcm) and an explicit one; the window has columns shorter
        # than the lcm and columns at least as long
        rng = random.Random(seed)
        g = HeisenbergGroup() if seed % 2 else ZdGroup(2)
        n = len(g.identity)
        shapes = [_random_shape(rng, g, rng.randint(1, 4), spread=1) for _ in range(3)]
        last = [rng.choice([1, 2]), rng.choice([2, 3])] if seed % 2 else \
            [rng.choice([2, 3]), rng.choice([2, 4])]
        lattices = [LatticeCenters([tuple(rng.randint(1, 2) if i == j else 0 for j in range(n))
                                    for i in range(n - 1)] + [(0,) * (n - 1) + (p,)])
                    for p in last]
        explicit = ExplicitCenters({tuple(rng.randint(-4, 4) for _ in range(n))
                                    for _ in range(rng.randint(1, 30))})
        mt = MultiTile(shapes, lattices + [explicit])
        radius = 7 if seed % 2 else 6
        indexes = [tilings._residue_index(g, s, c) for s, c in zip(shapes, lattices)] + [None]
        window = ball_columns(g, radius)
        rows = g._rows(radius)
        scan = tilings._WindowCounts(g, mt, indexes, rows, rows)
        class_of = scan.column_classes()
        period = lcm(*last)
        lengths = [hi - lo + 1 for ivs in window.values() for lo, hi in ivs]
        assert min(lengths) < period <= max(lengths)
        mul = g._mul_raw
        scattered = Counter(mul(t, c) for c in explicit.elements for t in shapes[2])
        for key, ivs in window.items():
            for lo, hi in ivs:
                for c in range(lo, hi + 1):
                    w = g._point(key, c)
                    expected = sum(len(index[0](w)) for index in indexes[:2]) + scattered[w]
                    assert scan.at(class_of[key], c) + scan.extra.get(key, {}).get(c, 0) \
                        == expected, w



def _echelon_lattice(rng, d, last):
    """Generators, some negative, of a random lattice of Z^d whose least center
    on the last axis is last: an echelon basis with that last pivot, mixed by
    random unimodular row steps."""
    pivots = [rng.randint(1, 3) for _ in range(d - 1)] + [last]
    rows = [[pivots[i] if j == i else rng.randint(-3, 3) if j > i else 0 for j in range(d)]
            for i in range(d)]
    for _ in range(3 * d):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i != j:
            q = rng.randint(-2, 2)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        if rng.random() < 0.5:
            rows[i] = [-x for x in rows[i]]
    return [tuple(row) for row in rows]


@st.composite
def window_tiles(draw):
    """A group, a window radius and a multi-tile of one or two lattice shapes and
    maybe an explicit one: Z^1-Z^3 lattices with negative generators, H3 axis
    lattices whose buckets hold several ta classes, last-axis periods among 1,
    2, 17 and 10^6."""
    kind = draw(st.sampled_from(["Z1", "Z2", "Z3", "H3"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    periods = st.sampled_from([1, 2, 17, 10 ** 6])
    if kind == "H3":
        g, radius = HeisenbergGroup(), 4
        lattices = [[(rng.choice([1, 2, -2]), 0, 0), (0, rng.choice([1, 3, -1]), 0),
                     (0, 0, draw(periods) * rng.choice([1, -1]))]
                    for _ in range(draw(st.integers(1, 2)))]
    else:
        d = int(kind[1])
        g, radius = ZdGroup(d), {1: 12, 2: 5, 3: 3}[d]
        lattices = [_echelon_lattice(rng, d, draw(periods)) for _ in range(draw(st.integers(1, 2)))]
    n = len(g.identity)
    shapes = [_random_shape(rng, g, rng.randint(1, 6), spread=2) for _ in lattices]
    centers = [LatticeCenters(gens) for gens in lattices]
    if draw(st.booleans()):
        shapes.append(_random_shape(rng, g, rng.randint(1, 3), spread=1))
        centers.append(ExplicitCenters({tuple(rng.randint(-3, 3) for _ in range(n))
                                        for _ in range(rng.randint(1, 8))}))
    return MultiTile(shapes, centers), radius


class TestWindowCounts:
    """The class counts both kernel twins give a window, against the per-column
    oracle residue_counts_oracle and the length of over's list, point by point."""

    @settings(max_examples=60, deadline=None)
    @given(window_tiles())
    def test_both_twins_count_every_point_as_the_oracle(self, case):
        from isoprof import _kernels

        mt, radius = case
        g = mt.group
        indexes = [tilings._residue_index(g, s, c) if isinstance(c, LatticeCenters) else None
                   for s, c in zip(mt.shapes, mt.centers)]
        oracles = [residue_counts_oracle(g, s, c.generators)[1]
                   for s, c in zip(mt.shapes, mt.centers) if isinstance(c, LatticeCenters)]
        g._grow(radius)
        window, region = g._rows(radius), g._rows(radius - 1)
        scans = [tilings._WindowCounts(g, mt, indexes, window, region)]
        core = _kernels._core
        try:
            _kernels._core = None
            scans.append(tilings._WindowCounts(g, mt, indexes, window, region))
        finally:
            _kernels._core = core
        fields = ("ids", "ends", "residues", "counts", "window", "region", "total", "covered")
        compiled, pure = ([list(x) if isinstance(x, array) else x
                           for x in (getattr(scan, f) for f in fields)] for scan in scans)
        assert compiled == pure
        mul = g._mul_raw
        scattered = Counter(mul(t, c) for s, cs in zip(mt.shapes, mt.centers)
                            if isinstance(cs, ExplicitCenters) for c in cs.elements for t in s)
        in_region = {w for r in range(radius) for w in g._sphere_points(r)}
        for scan in scans:
            class_of, total, covered = scan.column_classes(), 0, 0
            for key, ivs in ball_columns(g, radius).items():
                for lo, hi in ivs:
                    for c in range(lo, hi + 1):
                        w = g._point(key, c)
                        lattice = sum(len(index[0](w)) for index in indexes if index)
                        assert lattice == sum(counts(key, [c])[0] for counts in oracles)
                        assert scan.at(class_of[key], c) == lattice, w
                        assert scan.extra.get(key, {}).get(c, 0) == scattered[w]
                        total += lattice
                        covered += w in in_region and lattice > 0
            assert (scan.total, scan.covered) == (total, covered)


def record_cuts(monkeypatch, g):
    """The radii of the spheres cut from g's store from now on, in call order."""
    cuts, sphere_rows = [], g._sphere_rows
    monkeypatch.setattr(g, "_sphere_rows", lambda r: cuts.append(r) or sphere_rows(r))
    return cuts


class TestLazySpheres:
    """The scan reads the window and the region as balls from the group's row
    store, and cuts spheres from it only to list bad points."""

    def test_a_passing_scan_cuts_no_sphere(self, monkeypatch):
        g = HeisenbergGroup()
        cuts = record_cuts(monkeypatch, g)
        mt = folner_multitile_sequence(g, 425, verify=False)
        v = verify_multitile_window(mt, 36)
        assert v.passed and v.window_size == 716455
        assert not cuts and not g._norms  # the margin reads the store's rows too
        assert len(g._ends) == 38  # the rows are grown through ball 36
        assert v.margin == max(g.word_norm(t) for t in mt.shapes[0])

    @pytest.mark.parametrize("make, points", [
        (lambda: ZdGroup(2), [(0, 0), (2, -3), (-1, 1)]),
        (lambda: ZdGroup(2, generators=[(1, 0), (-1, 0), (1, 1), (-1, -1)]),
         [(0, 0), (2, -3), (-1, 1), (0, 4)]),
        (lambda: HeisenbergGroup(), [(a, b, c) for a in range(3) for b in range(3)
                                     for c in range(5)]),
        (lambda: HeisenbergGroup(generators=[(1, 0, 0), (-1, 0, 0), (1, 1, 3), (-1, -1, -2)]),
         [(0, 0, 0), (1, 1, 0), (2, -1, 5), (0, 0, -4), (3, 3, 3)]),
        (lambda: FreeGroup(2), [(), (0, 2, 2), (3,), (1, 1, 3, 3)]),
    ])
    def test_margin_is_the_largest_word_norm_of_the_shapes(self, make, points):
        g = make()
        shapes = [g.subset(points), g.subset([g.identity, points[-1]])]
        mt = MultiTile(shapes, [ExplicitCenters([g.identity])] * 2)
        margin = max(make().word_norm(t) for t in points)
        v = verify_multitile_window(mt, margin)
        assert v.margin == margin and v.region_radius == 0
        with pytest.raises(WindowTooSmallError):
            verify_multitile_window(mt, margin - 1)

    @pytest.mark.parametrize("make", [
        lambda: ZdGroup(2, generators=[(1, 0), (-1, 0), (1, 1), (-1, -1)], max_radius=4),
        lambda: HeisenbergGroup(max_radius=4)])
    def test_a_shape_out_of_reach_exceeds_the_radius(self, make):
        # (0, .., 0, 50) lies far outside ball(4): the margin grows the balls to
        # max_radius, never past it, and raises
        g = make()
        far = (0,) * (len(g.identity) - 1) + (50,)
        mt = MultiTile([g.subset([g.identity, far])], [ExplicitCenters([g.identity])])
        with pytest.raises(RadiusExceededError):
            verify_multitile_window(mt, 4)
        assert len(g._ends) == 6

    @pytest.mark.parametrize("moduli", [(2, 2, 3), (2, 3, 1), (3, 2, 2)])
    def test_a_failing_scan_reports_its_first_points_in_norm_order(self, moduli,
                                                                   monkeypatch):
        # gaps, collisions or both from the unit cuboid over wrong moduli
        g = HeisenbergGroup()
        cuts = record_cuts(monkeypatch, g)
        centers = LatticeCenters([(moduli[0], 0, 0), (0, moduli[1], 0), (0, 0, moduli[2])])
        mt = MultiTile([heisenberg_cuboid(g, 1)], [centers])
        v = TestColumnScan.check(mt, 9)
        assert not v.passed and len(v.uncovered) + len(v.collisions) >= 5
        walked = cuts[:]
        expected = []
        for points, radius in ((v.uncovered, v.region_radius),
                               ([w for w, _ in v.collisions], 9)):
            keys = [(g.word_norm(w), w) for w in points]
            assert keys == sorted(keys)
            # each walk cuts the spheres outwards, as far as its fifth point
            if points:
                expected += range((keys[-1][0] if len(keys) == 5 else radius) + 1)
        assert walked == expected


class TestHeisenbergVerification:
    def test_unit_cuboid_tile_passes(self):
        g = HeisenbergGroup()
        mt = MultiTile(
            [heisenberg_cuboid(g, 1)],
            [LatticeCenters([(2, 0, 0), (0, 2, 0), (0, 0, 2)])],
        )
        v = verify_multitile_window(mt, 6)
        assert v.passed
        assert v.density == 1

    def test_m2_cuboid_tile_passes(self):
        g = HeisenbergGroup()
        mt = MultiTile(
            [heisenberg_cuboid(g, 2)],
            [LatticeCenters([(3, 0, 0), (0, 3, 0), (0, 0, 5)])],
        )
        v = verify_multitile_window(mt, 12)
        assert v.passed
        assert v.density == 1

    def test_wrong_moduli_fail_with_witnesses(self):
        # z-modulus 3 leaves the planes c = 2 mod 3 uncovered; the smallest
        # such point, (1,1,2) = xxyX, has norm 4, so the region must reach it
        g = HeisenbergGroup()
        mt = MultiTile(
            [heisenberg_cuboid(g, 1)],
            [LatticeCenters([(2, 0, 0), (0, 2, 0), (0, 0, 3)])],
        )
        v = verify_multitile_window(mt, 10)
        assert not v.passed
        assert not v.covered
        assert (1, 1, 2) in v.uncovered or v.uncovered

    def test_non_axis_lattice_unsupported(self):
        g = HeisenbergGroup()
        mt = MultiTile(
            [heisenberg_cuboid(g, 1)],
            [LatticeCenters([(2, 1, 0), (0, 2, 0), (0, 0, 2)])],
        )
        with pytest.raises(UnsupportedError):
            verify_multitile_window(mt, 6)

    def test_non_box_shape_falls_back_to_products(self):
        # remove a corner and patch it elsewhere: same size, no longer a box
        g = HeisenbergGroup()
        box = list(heisenberg_cuboid(g, 1))
        shape = g.subset([p for p in box if p != (1, 1, 1)] + [(0, 0, -1)])
        mt = MultiTile([shape], [LatticeCenters([(2, 0, 0), (0, 2, 0), (0, 0, 2)])])
        v = verify_multitile_window(mt, 5)
        assert not v.passed  # that patched shape does not tile
        assert isinstance(v.density, Fraction)


class TestTileJson:
    def test_single_tile_roundtrip(self):
        g = ZdGroup(1)
        mt = interval_tile(3)
        obj = multitile_to_json(mt)
        assert obj["shapes"] == [[[0], [1], [2]]]
        assert obj["centers"] == {"kind": "lattice", "generators": [[3]]}
        back = multitile_from_json(g, obj)
        assert verify_multitile_window(back, 8).passed

    def test_broadcast_single_center_dict(self):
        g = ZdGroup(1)
        obj = {
            "shapes": [[[0], [1]], [[0]]],
            "centers": {"kind": "explicit", "list": [[0]]},
        }
        mt = multitile_from_json(g, obj)
        assert len(mt.centers) == 2

    def test_multi_shape_json_roundtrip(self):
        g = ZdGroup(1)
        mt = MultiTile(
            [g.subset([(0,)]), g.subset([(0,), (1,)])],
            [ExplicitCenters([(0,), (3,)]), ExplicitCenters([(1,)])],
        )
        obj = multitile_to_json(mt)
        assert isinstance(obj["centers"], list) and len(obj["centers"]) == 2
        back = multitile_from_json(g, obj)
        assert [len(s) for s in back.shapes] == [1, 2]

    def test_free_group_roundtrip(self):
        g = FreeGroup(2)
        mt = MultiTile([g.subset([(), (0,)])], [ExplicitCenters([(), (2,), (0, 2), (1,)])])
        obj = multitile_to_json(mt)
        assert obj["centers"] == {"kind": "explicit", "list": ["1", "b", "ab", "A"]}
        back = multitile_from_json(g, obj)
        assert back.shapes == mt.shapes and back.centers[0].elements == mt.centers[0].elements

    @pytest.mark.parametrize("bad", [1.7, 1.0, "1", True])
    @pytest.mark.parametrize("where", ["shape", "explicit", "lattice"])
    def test_non_integer_coordinates_rejected(self, where, bad):
        shapes = [[[0, 0], [bad, 0]] if where == "shape" else [[0, 0]]]
        centers = ({"kind": "explicit", "list": [[0, 0], [bad, 0]]} if where == "explicit" else
                   {"kind": "lattice",
                    "generators": [[2, 0], [0, bad if where == "lattice" else 1]]})
        with pytest.raises(ConfigError):
            multitile_from_json(ZdGroup(2), {"shapes": shapes, "centers": centers})

    @pytest.mark.parametrize("bad", [1.7, 1.0, "1", True])
    @pytest.mark.parametrize("make", [ExplicitCenters, LatticeCenters])
    def test_center_constructors_reject_non_integer_coordinates(self, make, bad):
        # int() would read 1.7 and True as 1
        with pytest.raises(ConfigError, match="expected integer coordinates"):
            make([(0, 1), (bad, 2)])

    @pytest.mark.parametrize(
        "obj",
        [
            {"shapes": [[[0]]]},
            {"shapes": [[[0]]], "centers": {"kind": "lattice"}, "extra": 1},
            {"shapes": [], "centers": {"kind": "lattice", "generators": [[1]]}},
            {"shapes": [[[0]]], "centers": {"kind": "grid", "generators": [[1]]}},
            {"shapes": [[[0]]], "centers": {"kind": "lattice", "generators": [[1]], "x": 0}},
            {"shapes": [[[0]], [[0]]], "centers": [{"kind": "explicit", "list": [[0]]}]},
        ],
    )
    def test_malformed_tile_json_rejected(self, obj):
        with pytest.raises(ConfigError):
            multitile_from_json(ZdGroup(1), obj)


class TestInvariance:
    def test_cube_invariance_shrinks_with_size(self):
        g = ZdGroup(2)
        K = g.subset(list(g.generators) + [g.identity])
        vals = [invariance(zd_cube(g, k), K, Fraction(1)).achieved for k in (2, 4, 8)]
        assert vals == [Fraction(8, 4), Fraction(16, 16), Fraction(32, 64)]
        assert vals[0] > vals[1] > vals[2]

    def test_invariance_pass_flag(self):
        g = ZdGroup(1)
        T = g.subset([(i,) for i in range(10)])
        K = g.subset([(1,), (-1,), (0,)])
        rep = invariance(T, K, Fraction(1, 5))
        assert rep.achieved == Fraction(2, 10)
        assert rep.passed

    def test_folner_sequence_invariance_decays(self):
        g = ZdGroup(2)
        K = g.subset(list(g.generators) + [g.identity])
        prev = None
        for n in (9, 36, 144):
            mt = folner_multitile_sequence(g, n, verify=False)
            rep = invariance(mt.shapes[0], K, Fraction(1))
            if prev is not None:
                assert rep.achieved < prev
            prev = rep.achieved


def cube_formulas(d):
    """Size, lattice generators and window of the side-k cube of Z^d."""
    return lambda k: (k ** d, tuple(tuple(k if j == i else 0 for j in range(d))
                                    for i in range(d)), 4 * k)


def cuboid_formulas(m):
    """Size, lattice generators and window of the cuboid [0,m]^2 x [0,m^2] of H3."""
    return ((m + 1) ** 2 * (m * m + 1),
            ((m + 1, 0, 0), (0, m + 1, 0), (0, 0, m * m + 1)), 2 * (m * m + 2))


class TestFolnerSequence:
    def test_zd_picks_largest_cube(self):
        g = ZdGroup(2)
        mt = folner_multitile_sequence(g, 10, verify=False)
        assert len(mt.shapes[0]) == 9

    def test_zd_verified_by_default(self):
        mt = folner_multitile_sequence(ZdGroup(1), 4)
        assert verify_multitile_window(mt, 10).passed

    def test_heisenberg_picks_cuboid(self):
        g = HeisenbergGroup()
        mt = folner_multitile_sequence(g, 45, verify=False)
        assert len(mt.shapes[0]) == 45  # m=2: 3*3*5

    def test_heisenberg_verified_windows(self):
        mt = folner_multitile_sequence(HeisenbergGroup(), 8)
        assert len(mt.shapes[0]) == 8

    def test_unsupported_group(self):
        from isoprof import FreeGroup

        with pytest.raises(UnsupportedError):
            folner_multitile_sequence(FreeGroup(2), 4)

    @pytest.mark.parametrize("group, name, first, formulas, shape, n_max", [
        (ZdGroup(1), "intervals", 1, cube_formulas(1), zd_cube, 40),
        (ZdGroup(2), "cubes", 1, cube_formulas(2), zd_cube, 40),
        (ZdGroup(3), "cubes", 1, cube_formulas(3), zd_cube, 70),
        (HeisenbergGroup(), "cuboids", 0, cuboid_formulas, heisenberg_cuboid, 170),
    ])
    def test_the_largest_tile_and_the_upper_profile_follow_the_formulas(
            self, monkeypatch, group, name, first, formulas, shape, n_max):
        radii = []
        monkeypatch.setattr(tilings, "verify_multitile_window",
                            lambda mt, R: radii.append(R) or SimpleNamespace(passed=True))
        for n in range(1, n_max + 1):
            fits = list(takewhile(lambda p: formulas(p)[0] <= n, count(first)))
            size, gens, window = formulas(fits[-1])
            mt = folner_multitile_sequence(group, n)
            assert len(mt.shapes[0]) == size
            assert mt.shapes[0] == shape(group, fits[-1])
            assert mt.centers[0].generators == gens
            assert radii == [window]
            radii.clear()
            assert profile_upper(group, n, name) == min(boundary_ratio(shape(group, p))
                                                        for p in fits)

    def test_one_tile_is_built(self, monkeypatch):
        built = []
        for name in ("zd_cube", "heisenberg_cuboid"):
            real = getattr(tilings, name)
            monkeypatch.setattr(tilings, name, lambda group, side, real=real:
                                built.append(side) or real(group, side))
        folner_multitile_sequence(ZdGroup(1), 1000, verify=False)
        folner_multitile_sequence(HeisenbergGroup(), 424, verify=False)
        assert built == [1000, 3]
