"""Marked groups: products, norms, spheres, serialization."""

import gc
import random
import sys
import weakref
from array import array
from math import gcd, prod
from operator import add, mul

import pytest
from hypothesis import given, strategies as st

from isoprof import (
    FreeGroup,
    HeisenbergGroup,
    ZdGroup,
    _kernels,
    group_from_json,
    group_to_json,
)
from isoprof import groups
from isoprof.groups import lattice_basis, lattice_residue
from isoprof.isoperimetry import neighbor_table
from oracles import (ball_columns, column_size, neighbor_table_oracle, sphere_oracle,
                     union_columns)
from isoprof.errors import (
    BudgetError,
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

    @pytest.mark.parametrize("make", [
        lambda: ZdGroup(2, generators=[(2, 0), (-2, 0), (0, 1), (0, -1)]),
        lambda: ZdGroup(1, generators=[(6,), (-6,), (10,), (-10,)]),
        lambda: ZdGroup(2, generators=[(1, 1), (-1, -1), (1, -1), (-1, 1)]),
        lambda: HeisenbergGroup(generators=[(3, 0, 0), (-3, 0, 0), (0, 3, 0), (0, -3, 0),
                                            (1, 1, 1), (-1, -1, 0)]),
        lambda: HeisenbergGroup(generators=[(1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)]),
    ])
    def test_a_set_that_does_not_generate_is_rejected(self, make):
        with pytest.raises(ConfigError, match="do not generate"):
            make()

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", True])
    @pytest.mark.parametrize("make", [
        lambda c: ZdGroup(2, generators=[(c, 0), (-1, 0), (0, 1), (0, -1)]),
        lambda c: HeisenbergGroup(generators=[(c, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]),
    ])
    def test_non_integer_generator_coordinates_rejected(self, make, bad):
        # int() would read each of them as 1 and build the standard marking
        with pytest.raises(ConfigError, match="expected integer coordinates"):
            make(bad)

    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", True])
    @pytest.mark.parametrize("make", [
        ZdGroup, FreeGroup, lambda r: ZdGroup(1, max_radius=r),
        lambda r: HeisenbergGroup(max_radius=r), lambda r: FreeGroup(2, max_radius=r),
    ])
    def test_non_integer_scalars_rejected(self, make, bad):
        # int() would truncate 2.5 to 2 and read True as 1
        with pytest.raises(ParameterError, match="must be an integer"):
            make(bad)

    @pytest.mark.parametrize("make", [
        lambda: ZdGroup(2), lambda: ZdGroup(2, generators=[(1, 0), (-1, 0), (1, 1), (-1, -1)]),
        HeisenbergGroup, lambda: FreeGroup(2),
    ])
    def test_a_dropped_group_is_freed_without_the_cycle_collector(self, make):
        # a cycle through the group would hold its sphere cache until the
        # collector runs, and a loop over fresh groups would peak higher
        gc.disable()
        try:
            g = make()
            g.ball(3)
            ref = weakref.ref(g)
            del g
            assert ref() is None
        finally:
            gc.enable()

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=4))
    def test_generation_matches_the_minors(self, vectors):
        # integer vectors span Z^2 exactly when their 2x2 minors have gcd 1,
        # that is when their echelon basis has every pivot 1
        minors = [a[0] * b[1] - a[1] * b[0] for a in vectors for b in vectors]
        basis = lattice_basis(vectors, 2)
        spans = basis is not None and all(row[i] == 1 for i, row in enumerate(basis))
        assert spans == (gcd(*minors) == 1)

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


def determinant(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * determinant([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def full_rank_lattices():
    """d = 2 or 3 integer vectors of length d with a nonzero determinant."""
    return st.integers(2, 3).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(-5, 5)] * d), min_size=d, max_size=d)).filter(determinant)


class TestLattice:
    @given(full_rank_lattices())
    def test_pivots_multiply_to_the_determinant(self, gens):
        d = len(gens)
        basis = lattice_basis(gens, d)
        assert all(row[:i] == (0,) * i and row[i] > 0 for i, row in enumerate(basis))
        assert prod(row[i] for i, row in enumerate(basis)) == abs(determinant(gens))
        # the generators lie in the lattice of the basis, which has their index
        assert all(lattice_residue(basis, g) == (0,) * d for g in gens)

    @given(full_rank_lattices(), st.data())
    def test_residue_is_one_point_per_coset(self, gens, data):
        d = len(gens)
        basis = lattice_basis(gens, d)
        w = data.draw(st.tuples(*[st.integers(-30, 30)] * d))
        ks = data.draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
        shifted = tuple(x + sum(k * g[i] for k, g in zip(ks, gens)) for i, x in enumerate(w))
        r = lattice_residue(basis, w)
        assert lattice_residue(basis, shifted) == r
        assert all(0 <= r[i] < row[i] for i, row in enumerate(basis))

    def test_below_full_rank_there_is_no_basis(self):
        assert lattice_basis([(1, 2), (2, 4), (-3, -6)], 2) is None
        assert lattice_basis([(0, 0, 1), (0, 1, 0)], 3) is None


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


COLUMN_GROUPS = {
    "Z": lambda: ZdGroup(1),
    "Z^2": lambda: ZdGroup(2),
    "Z^3": lambda: ZdGroup(3),
    "H3": HeisenbergGroup,
    "Z^2 shuffled": lambda: ZdGroup(2, generators=[(0, -1), (1, 0), (-1, 0), (0, 1)]),
    "Z^3 shuffled": lambda: ZdGroup(3, generators=[(0, 0, 1), (-1, 0, 0), (0, 1, 0),
                                                   (1, 0, 0), (0, -1, 0), (0, 0, -1)]),
    "H3 shuffled": lambda: HeisenbergGroup(generators=[(0, -1, 0), (1, 0, 0), (0, 1, 0),
                                                       (-1, 0, 0)]),
    "Z {2, 3}": lambda: ZdGroup(1, generators=[(2,), (-2,), (3,), (-3,)]),
    "Z^2 diagonal": lambda: ZdGroup(2, generators=[(1, 0), (-1, 0), (1, 1), (-1, -1),
                                                   (1, -1), (-1, 1)]),
    "Z^3 {e1, e2, e1+e2+e3}": lambda: ZdGroup(3, generators=[(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                                              (0, -1, 0), (1, 1, 1),
                                                              (-1, -1, -1)]),
    "H3 sheared": lambda: HeisenbergGroup(generators=[(1, 0, 0), (-1, 0, 0), (1, 1, 0),
                                                      (-1, -1, 1)]),
    "H3 with z": lambda: HeisenbergGroup(generators=[(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                                     (0, -1, 0), (0, 0, 2), (0, 0, -2)]),
}

# groups whose balls leave the compiled kernels' range: coordinates of 2**61
# reach 2**62 within two steps and leave int64 within four, which turns the
# row store into a list; those of 2**80 leave int64 at once.  Their balls
# grow fast, so a small max_radius stops a runaway search early
_UNITS2 = [(1, 0), (-1, 0), (0, 1), (0, -1)]
_H3_UNITS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
HUGE_GROUPS = {
    f"{name} 2**{bits}": make
    for bits in (61, 80)
    for name, make in (
        ("Z^2", lambda x=1 << bits: ZdGroup(2, generators=_UNITS2 + [(x, 1), (-x, -1)],
                                            max_radius=8)),
        ("H3", lambda x=1 << bits: HeisenbergGroup(
            generators=_H3_UNITS + [(x, 1, 0), (-x, -1, x)], max_radius=8)))
}


@pytest.fixture(params=["compiled", "pure"])
def sphere_backend(request, monkeypatch):
    """Grow column spheres on one kernel backend."""
    if request.param == "pure":
        monkeypatch.setattr(_kernels, "_core", None)
    elif _kernels._core is None:
        pytest.skip("compiled kernel unavailable")


def deep_size(obj):
    """Bytes of obj and of every distinct object that its lists, tuples and
    dicts hold, each counted once."""
    seen = {}
    stack = [obj]
    while stack:
        o = stack.pop()
        if id(o) not in seen:
            seen[id(o)] = o
            if isinstance(o, dict):
                stack += [*o.keys(), *o.values()]
            elif isinstance(o, (list, tuple)):
                stack += o
    return sum(map(sys.getsizeof, seen.values()))


@pytest.mark.usefixtures("sphere_backend")
class TestColumnSpheres:
    """The column search against a plain point BFS, on both kernel backends."""

    @pytest.mark.parametrize("name", sorted(COLUMN_GROUPS))
    def test_spheres_ball_order_and_norms_match_a_point_bfs(self, name):
        expected = sphere_oracle(COLUMN_GROUPS[name](), 8)
        g = COLUMN_GROUPS[name]()
        assert [g.sphere(r) for r in range(9)] == expected
        assert list(g.ball(8)) == [w for sphere in expected for w in sphere]
        fresh = COLUMN_GROUPS[name]()  # norms on a cache that grows on demand
        for r, sphere in enumerate(expected):
            assert [fresh.word_norm(w) for w in sphere] == [r] * len(sphere)

    def test_sphere_rows_are_the_sphere(self):
        g = COLUMN_GROUPS["Z^2 diagonal"]()
        for r, sphere in enumerate(sphere_oracle(g, 6)):
            rows = g._sphere_rows(r)
            assert [key + (c,) for key, lo, hi in rows for c in range(lo, hi + 1)] == sphere
            # sorted by (key, lo), and the rows of one column apart by a gap
            assert rows == sorted(rows)
            assert all(hi + 1 < lo2 for (key, _, hi), (key2, lo2, _) in zip(rows, rows[1:])
                       if key == key2)
        # column (6,) of sphere 6 is one long interval: every (6, c), |c| <= 6
        assert [row for row in g._sphere_rows(6) if row[0] == (6,)] == [((6,), -6, 6)]

    def test_heisenberg_ball_36_totals(self):
        g = HeisenbergGroup()
        ball = union_columns(row for r in range(37) for row in g._sphere_rows(r))
        assert len(ball) == 2665
        assert column_size(ball) == 716455
        assert ball_columns(HeisenbergGroup(), 36) == ball  # one row per column
        assert g._ends[37] - g._ends[36] == 2665 and g._ends[37] == 33781

    def test_heisenberg_norm_index_36_stays_small(self):
        g = HeisenbergGroup()
        assert g.word_norm((36, 0, 0)) == 36 and g._indexed == 37
        # one entry per column key of the ball, one piece per sphere row
        assert len(g._norms) == 2665
        assert sum(len(los) for los, _, _ in g._norms.values()) == 32483
        assert all(isinstance(x, array) for pieces in g._norms.values() for x in pieces)
        assert deep_size(g._norms) <= 2_500_000

    @pytest.mark.parametrize("name", sorted(COLUMN_GROUPS) + sorted(HUGE_GROUPS))
    def test_word_norms_on_a_fresh_group_match_a_point_bfs(self, name):
        make, radius = (COLUMN_GROUPS[name], 8) if name in COLUMN_GROUPS else \
            (HUGE_GROUPS[name], 4)
        spheres = sphere_oracle(make(), radius)
        points = [(w, r) for r, sphere in enumerate(spheres) for w in sphere]
        random.Random(5).shuffle(points)  # the index grows out of norm order
        g = make()
        assert [g.word_norm(w) for w, _ in points] == [r for _, r in points]
        if isinstance(g, ZdGroup) and g._standard:
            assert not g._norms  # the closed form needs no index
            return
        assert g._indexed == radius + 1
        # the index holds every sphere's rows once, and follows the store's
        # switch from array('q') to a list past int64
        pieces = sorted((key, lo, hi, r) for key, (los, his, norms) in g._norms.items()
                        for lo, hi, r in zip(los, his, norms))
        assert pieces == sorted((*row, r) for r in range(radius + 1)
                                for row in g._sphere_rows(r))
        assert {type(x) for los, his, _ in g._norms.values() for x in (los, his)} == \
            {type(g._store)}
        assert all(list(los) == sorted(los) for los, _, _ in g._norms.values())

    def test_free_group_keeps_point_lists(self):
        for rank, radius in ((1, 6), (2, 5), (3, 3)):
            g = FreeGroup(rank)
            assert [g.sphere(r) for r in range(radius + 1)] == sphere_oracle(g, radius)
            assert g._spheres[1] == g.sphere(1)


# groups and the largest radius up to which their ball tables are checked
TABLE_GROUPS = {
    "Z": (lambda: ZdGroup(1), 8),
    "Z^2": (lambda: ZdGroup(2), 8),
    "Z^3": (lambda: ZdGroup(3), 8),
    "Z^4": (lambda: ZdGroup(4), 8),
    "Z^2 (1,0),(0,1),(1,1)": (lambda: ZdGroup(2, generators=[(1, 0), (-1, 0), (0, 1), (0, -1),
                                                             (1, 1), (-1, -1)]), 8),
    "H3": (HeisenbergGroup, 8),
    "H3 shuffled": (COLUMN_GROUPS["H3 shuffled"], 8),
    "H3 sheared": (COLUMN_GROUPS["H3 sheared"], 8),
    "H3 with z": (COLUMN_GROUPS["H3 with z"], 6),
    "F1": (lambda: FreeGroup(1), 8),
    "F2": (lambda: FreeGroup(2), 8),
    "F3": (lambda: FreeGroup(3), 5),
    "F4": (lambda: FreeGroup(4), 4),
}


@pytest.mark.usefixtures("sphere_backend")
class TestBallTables:
    """Each group's table hook against the dict path, on both kernel backends."""

    @pytest.mark.parametrize("name", list(TABLE_GROUPS))
    def test_tables_match_the_dict_path(self, name):
        make, top = TABLE_GROUPS[name]
        for radius in range(top + 1):
            order, flat, inverse, ranks = neighbor_table_oracle(make(), radius, True)
            for inv in (False, True):
                got = neighbor_table(make(), radius, inv)
                assert [type(x) for x in got[1:]] == [array, array if inv else type(None), array]
                assert all(x.typecode == "i" for x in got[1:] if x is not None)
                assert got[0] == order and list(got[1]) == flat and list(got[3]) == ranks
                assert (got[2] is None) if not inv else list(got[2]) == inverse

    def test_a_warm_group_gives_the_same_table_from_any_radius(self):
        g = HeisenbergGroup()
        grown = neighbor_table(g, 7, True)
        assert list(map(list, neighbor_table(g, 4, True)[1:])) == \
            list(map(list, neighbor_table(HeisenbergGroup(), 4, True)[1:]))
        assert list(map(list, neighbor_table(g, 7, True)[1:])) == list(map(list, grown[1:]))
        assert not g._norms  # and no sphere is cut for the norm index

    @pytest.mark.parametrize("make", [lambda: ZdGroup(1), lambda: ZdGroup(3), HeisenbergGroup,
                                      COLUMN_GROUPS["H3 sheared"]])
    def test_the_law_form_gives_products_inverses_and_column_steps(self, make):
        g = make()
        rng = random.Random(11)

        def twist(key, other):
            return sum(a * m * b for a, row in zip(key, g._form) for m, b in zip(row, other))

        for _ in range(60):
            x, y = (tuple(rng.randint(-9, 9) for _ in range(g._length)) for _ in range(2))
            key_x, key_y = x[:-1], y[:-1]
            assert g._mul_raw(x, y) == (*map(add, key_x, key_y),
                                        x[-1] + y[-1] + twist(key_x, key_y))
            assert g.inverse(x) == (*(-a for a in key_x), -x[-1] + twist(key_x, key_x))
        for s in g.generators:
            head, dc, coef = g._column_step(s)
            key = tuple(rng.randint(-9, 9) for _ in range(g._length - 1))
            assert g._mul_raw(s, (*key, 0)) == (*map(add, head, key),
                                                dc + sum(map(mul, coef, key)))


class TestStoreBudget:
    """The row store of a column group stops before a step could take it past
    STORE_BUDGET rows, counting the step's largest output."""

    @pytest.mark.parametrize("make", [HeisenbergGroup, lambda: ZdGroup(3),
                                      COLUMN_GROUPS["H3 sheared"]])
    def test_a_step_past_the_budget_is_refused_before_it_runs(self, make, monkeypatch):
        monkeypatch.setattr(groups, "STORE_BUDGET", 2000)
        g = make()
        steps = []
        grow = _kernels.next_ball
        monkeypatch.setattr(_kernels, "next_ball",
                            lambda *args: steps.append(args) or grow(*args))
        with pytest.raises(BudgetError, match="^growing ball [0-9]+ could take the row store "
                                              "past 2000 rows$"):
            g.ball(40)
        # every ball grown fits, and the refused step was never called
        ends = g._ends
        assert len(steps) == len(ends) - 2 and ends[-1] <= 2000
        assert ends[-1] + (len(g.generators) + 1) * (ends[-1] - ends[-2]) > 2000
        assert g.ball(len(ends) - 2) == make().ball(len(ends) - 2)

    def test_wide_generators_stop_early(self, monkeypatch):
        # +-(2**61, 1, 0) makes every ball of H3 about twice as many rows as the
        # last; the budget stops the store long before max_radius
        monkeypatch.setattr(groups, "STORE_BUDGET", 10_000)
        g = HeisenbergGroup(generators=[(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                                        (1 << 61, 1, 0), (-(1 << 61), -1, 1 << 61)])
        with pytest.raises(BudgetError):
            g.ball(22)
        assert g._ends[-1] <= 10_000


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
                    {"kind": "Zd", "d": True}, {"kind": "Zd", "d": 100000},
                    {"kind": "Free", "rank": 1.5},
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
