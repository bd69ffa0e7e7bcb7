"""Multi-tile windowed verification, center-set handling, invariance."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from isoprof import tilings

from isoprof import (
    ExplicitCenters,
    HeisenbergGroup,
    LatticeCenters,
    MultiTile,
    ZdGroup,
    folner_multitile_sequence,
    heisenberg_cuboid,
    invariance,
    multitile_from_json,
    multitile_to_json,
    verify_multitile_window,
    zd_cube,
)
from isoprof.errors import (
    ConfigError,
    MixedGroupError,
    ParameterError,
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
        # the five reported collisions reuse the solver the scan built
        built = []
        solver = tilings._zd_lattice_solver
        monkeypatch.setattr(tilings, "_zd_lattice_solver",
                            lambda group, gens: built.append(gens) or solver(group, gens))
        g = ZdGroup(2)
        mt = MultiTile([g.subset([(0, 0), (1, 0), (0, 1), (1, 1)])],
                       [LatticeCenters([(1, 0), (0, 2)])])
        v = verify_multitile_window(mt, 6)
        assert len(v.collisions) == 5
        assert len(built) == 1

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


def _det(rows):
    """Leibniz determinant of a small integer matrix."""
    total = 0
    for perm in permutations(range(len(rows))):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i))
        term = sign
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


class TestScanPaths:
    @pytest.mark.parametrize("seed", range(20))
    def test_integer_lattice_test_matches_brute_force(self, seed):
        # L contains |det L| * Z^d, so membership is decided mod |det L|, where
        # every integer vector k can be tried up to that modulus
        rng = random.Random(seed)
        d = 2 + seed % 2
        while True:
            gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)]
            det = _det([[g[i] for g in gens] for i in range(d)])
            if det and (seed < 10) == (det < 0):
                break
        m = abs(det)
        residues = {tuple(sum(g[i] * k for g, k in zip(gens, ks)) % m for i in range(d))
                    for ks in product(range(m), repeat=d)}
        contains = tilings._zd_lattice_solver(ZdGroup(d), gens)
        for c in product(range(-7, 8), repeat=d):
            assert contains(c) == (tuple(x % m for x in c) in residues), (gens, c)

    @pytest.mark.parametrize("seed", range(20))
    def test_heisenberg_box_count_matches_the_gather(self, seed):
        rng = random.Random(seed)
        g = HeisenbergGroup()
        lo = [-rng.randint(0, 2) for _ in range(3)]
        hi = [rng.randint(0, 2) for _ in range(3)]
        shape = g.subset(list(product(*(range(a, b + 1) for a, b in zip(lo, hi)))))
        centers = LatticeCenters([(rng.randint(1, 4), 0, 0), (0, -rng.randint(1, 4), 0),
                                  (0, 0, rng.randint(1, 6))])
        points = {tuple(rng.randint(-12, 12) for _ in range(3)) for _ in range(300)}
        counts = dict.fromkeys(points, 0)
        gather = tilings._gatherer(g, shape, centers)
        tilings._scan_shape(g, shape, centers, gather, counts)
        for w in points:
            assert counts[w] == len(gather(w)), w


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
