"""Search kernels: pure/compiled parity, dispatch, budgets, and brute-force checks."""

import gc
import inspect
import itertools
import os
import random
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from array import array
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import isoprof
from isoprof import (
    HeisenbergGroup,
    ZdGroup,
    _kernels,
    build_heisenberg_quotient,
    build_torus_action,
    build_weighted_cycle,
)
from isoprof._kernels import (
    _pure,
    min_boundary_sets,
    pack_max_weight,
    partition_dp,
    subset_min_ratio,
)
from isoprof import LatticeCenters, tilings
from isoprof.action_profile import packing_items, partition_tables
from isoprof.isoperimetry import neighbor_table
from oracles import (
    ball_columns,
    neighbor_table_oracle,
    regenerated,
    relabelled,
    residue_histogram_oracle,
    sphere_oracle,
    union_columns,
)

try:
    from isoprof._kernels import _core
except ImportError:
    _core = None

needs_core = pytest.mark.skipif(_core is None, reason="compiled kernel unavailable")
# the compiler that _core builds with, looked up on PATH as the build does
needs_compiler = pytest.mark.skipif(
    shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0]) is None,
    reason="no C compiler on PATH")
BACKENDS = [_pure] + ([] if _core is None else [_core])

BIG = 1 << 40
SRC = os.path.dirname(os.path.dirname(os.path.abspath(isoprof.__file__)))


def path_neighbors(V):
    """Row-major neighbor table of a path graph, -1 off the ends."""
    flat = []
    for v in range(V):
        flat.append(v - 1 if v >= 1 else -1)
        flat.append(v + 1 if v + 1 < V else -1)
    return flat


def random_symmetric_neighbors(rng, V, s_count):
    """Random table obeying the kernel contract: u appears in v's row as often
    as v in u's (generator/inverse pairing), -1 pads missing edges."""
    rows = [[] for _ in range(V)]
    for _ in range(V * s_count):
        v, u = rng.randrange(V), rng.randrange(V)
        if v != u and len(rows[v]) < s_count and len(rows[u]) < s_count:
            rows[v].append(u)
            rows[u].append(v)
    flat = []
    for row in rows:
        flat.extend(row + [-1] * (s_count - len(row)))
    return flat


def brute_subset_min(flat, universe, s_count, n_max):
    """All subsets containing vertex 0, no pruning."""
    nbr = [flat[v * s_count : (v + 1) * s_count] for v in range(universe)]
    num = [0] * (n_max + 1)
    den = [0] * (n_max + 1)
    for r in range(n_max):
        for rest in itertools.combinations(range(1, universe), r):
            F = {0, *rest}
            bd = sum(1 for v in F if any(u < 0 or u not in F for u in nbr[v]))
            k = len(F)
            if den[k] == 0 or bd * den[k] < num[k] * k:
                num[k], den[k] = bd, k
    return num, den


def rows_of(flat, s_count):
    return [flat[v * s_count : (v + 1) * s_count] for v in range(len(flat) // s_count)]


def brute_connected_sets(rows, root, limit):
    """Every set with root and other members above root, at most limit members,
    that the rows connect from root."""
    found = set()
    for r in range(min(limit, len(rows))):
        for rest in itertools.combinations(range(root + 1, len(rows)), r):
            F = {root, *rest}
            reached, todo = {root}, [root]
            while todo:
                for u in rows[todo.pop()]:
                    if u in F and u not in reached:
                        reached.add(u)
                        todo.append(u)
            if reached == F:
                found.add(frozenset(F))
    return found


def brute_boundary(rows, F, weights=None):
    return sum(1 if weights is None else weights[v]
               for v in F if any(u < 0 or u not in F for u in rows[v]))


def brute_min_boundary(rows, ranks, limit):
    """Per size, (boundary, sorted ranks, set) of the least connected set containing 0."""
    best = [None] * (limit + 1)
    for F in brute_connected_sets(rows, 0, limit):
        cand = (brute_boundary(rows, F), sorted(ranks[v] for v in F), F)
        if best[len(F)] is None or cand[:2] < best[len(F)][:2]:
            best[len(F)] = cand
    return best


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def brute_partition_cost(rows, weights, limit):
    """Least cost over all partitions into cells of at most limit vertices."""
    return min(sum(brute_boundary(rows, set(cell), weights) for cell in part)
               for part in set_partitions(list(range(len(rows))))
               if all(len(cell) <= limit for cell in part))


def brute_pack(masks, weights, n_bound):
    """Best interior packing by checking every item subset."""
    best = 0
    for r in range(len(masks) + 1):
        for items in itertools.combinations(range(len(masks)), r):
            merged = [masks[i] for i in items]
            changed = True
            while changed:
                changed = False
                for i in range(len(merged)):
                    for j in range(i + 1, len(merged)):
                        if merged[i] & merged[j]:
                            merged[i] |= merged[j]
                            del merged[j]
                            changed = True
                            break
                    if changed:
                        break
            if all(m.bit_count() <= n_bound for m in merged):
                best = max(best, sum(weights[i] for i in items))
    return best


def random_pack_instance(rng, V, count, n_bound):
    masks = []
    while len(masks) < count:
        bits = rng.randint(1, n_bound)
        mask = 0
        for v in rng.sample(range(V), bits):
            mask |= 1 << v
        masks.append(mask)
    weights = [rng.randint(1, 50) for _ in masks]
    return masks, weights


class TestSubsetKernel:
    def test_path_graph_values(self):
        num, den, nodes, complete = subset_min_ratio(path_neighbors(5), 5, 2, 5, BIG)
        assert complete and nodes > 0
        assert num == [0, 1, 2, 2, 2, 2]
        assert den == [0, 1, 2, 3, 4, 5]

    def test_matches_brute_force(self):
        rng = random.Random(9)
        for _ in range(15):
            V = rng.randint(2, 9)
            s = rng.randint(1, 3)
            flat = random_symmetric_neighbors(rng, V, s)
            n_max = rng.randint(1, V)
            num, den, _, complete = subset_min_ratio(flat, V, s, n_max, BIG)
            assert complete
            assert (num, den) == brute_subset_min(flat, V, s, n_max)

    def test_budget_truncates(self):
        num, den, nodes, complete = subset_min_ratio(path_neighbors(16), 16, 2, 8, 10)
        assert not complete
        assert nodes == 11  # stops on the first node past the budget
        assert (num[1], den[1]) == (1, 1)  # the seeded singleton survives

    def test_input_validation(self):
        with pytest.raises(ValueError):
            subset_min_ratio([0, 1], 2, 2, 1, BIG)  # wrong flat length
        with pytest.raises(ValueError):
            subset_min_ratio([], 0, 1, 1, BIG)
        with pytest.raises(ValueError):
            subset_min_ratio([1, 2], 2, 1, 1, BIG)  # neighbor id 2 is not a vertex


class TestPackKernel:
    def test_disjoint_items_all_fit(self):
        masks = [0b11, 0b1100, 0b110000]
        best, items, nodes, complete = pack_max_weight(masks, [5, 7, 9], 2, BIG, False)
        assert complete and best == 21 and items == (0, 1, 2)

    def test_overlap_merges_against_the_bound(self):
        # items 0 and 1 overlap; their union has 3 > 2 vertices
        masks = [0b011, 0b110]
        best, items, _, complete = pack_max_weight(masks, [5, 7], 2, BIG, False)
        assert complete and best == 7 and items == (1,)

    def test_transitive_merge_is_enforced(self):
        # pairwise unions fit in 4 but the triple union has 5 vertices
        masks = [0b00111, 0b01110, 0b11100]
        best, _, _, _ = pack_max_weight(masks, [10, 10, 10], 4, BIG, False)
        assert best == 20

    def test_matches_brute_force(self):
        rng = random.Random(21)
        for _ in range(15):
            V = rng.randint(4, 9)
            n_bound = rng.randint(1, 4)
            masks, weights = random_pack_instance(rng, V, rng.randint(1, 8), n_bound)
            best, items, _, complete = pack_max_weight(masks, weights, n_bound, BIG, False)
            assert complete
            assert best == brute_pack(masks, weights, n_bound)
            assert best == sum(weights[i] for i in items) or items == ()

    def test_budget_truncates(self):
        masks, weights = random_pack_instance(random.Random(4), 12, 12, 3)
        best, _, nodes, complete = pack_max_weight(masks, weights, 3, 1, False)
        assert not complete and best == 0 and nodes == 2

    def test_empty_instance(self):
        assert pack_max_weight([], [], 3, BIG, False) == (0, (), 0, True)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pack_max_weight([0b1], [1, 2], 1, BIG, False)
        with pytest.raises(ValueError):
            pack_max_weight([0b111], [1], 2, BIG, False)
        with pytest.raises(ValueError):
            pack_max_weight([0b1], [1], 0, BIG, False)


class TestConnectedSets:
    def test_each_connected_set_comes_once_with_its_boundary(self):
        rng = random.Random(41)
        for _ in range(40):
            V = rng.randint(1, 9)
            s = rng.randint(1, 3)
            rows = rows_of(random_symmetric_neighbors(rng, V, s), s)
            weights = [rng.randint(0, 9) for _ in range(V)]
            root, limit = rng.randrange(V), rng.randint(1, V)
            seen = []

            def visit(members, boundary):
                F = frozenset(members)
                assert boundary == brute_boundary(rows, F, weights)
                seen.append(F)

            nodes, complete = _pure.grow_sets(rows, rows, weights, root, limit, BIG, visit)
            assert complete and nodes == len(seen) - 1
            assert seen[0] == {root}
            assert len(set(seen)) == len(seen)
            assert set(seen) == brute_connected_sets(rows, root, limit)

    def test_min_boundary_sets_match_brute_force(self):
        rng = random.Random(42)
        for _ in range(25):
            V = rng.randint(1, 9)
            s = rng.randint(1, 3)
            flat = random_symmetric_neighbors(rng, V, s)
            ranks = rng.sample(range(V), V)
            limit = rng.randint(1, V + 1)
            best, sets, nodes, complete = min_boundary_sets(flat, V, s, limit, ranks, BIG)
            assert complete
            want = brute_min_boundary(rows_of(flat, s), ranks, limit)
            for k in range(1, limit + 1):
                if want[k] is None:
                    assert best[k] == -1 and sets[k] == ()
                else:
                    assert (best[k], set(sets[k])) == (want[k][0], want[k][2])
            assert nodes == len(brute_connected_sets(rows_of(flat, s), 0, limit)) - 1

    def test_min_boundary_sets_budget_truncates(self):
        best, sets, nodes, complete = min_boundary_sets(path_neighbors(16), 16, 2, 8,
                                                        list(range(16)), 3)
        assert not complete and nodes == 4  # stops on the first node past the budget
        assert best[:4] == [-1, 1, 2, 2] and sets[3] == (0, 1, 2)

    def test_partition_dp_matches_brute_force(self):
        rng = random.Random(43)
        for _ in range(25):
            V = rng.randint(1, 7)
            s = rng.randint(1, 3)
            flat = random_symmetric_neighbors(rng, V, s)
            weights = [rng.randint(1, 9) for _ in range(V)]
            limit = rng.randint(1, V)
            value, cells, nodes = partition_dp(flat, V, s, weights, limit)
            rows = rows_of(flat, s)
            assert value == brute_partition_cost(rows, weights, limit)
            members = [[v for v in range(V) if c >> v & 1] for c in cells]
            assert sorted(v for cell in members for v in cell) == list(range(V))
            assert all(1 <= len(cell) <= limit for cell in members)
            assert value == sum(brute_boundary(rows, set(cell), weights) for cell in members)
            grow = [[u for u in row if u >= 0] for row in rows]
            assert nodes == sum(len(brute_connected_sets(grow, root, limit)) - 1
                                for root in range(V))

    def test_partition_dp_beyond_int64_runs_pure(self):
        flat = path_neighbors(5)
        weights = [1 << 62, 3, 1 << 62, 5, 1 << 61]
        out = partition_dp(flat, 5, 2, weights, 2)
        assert out == _pure.partition_dp(flat, 5, 2, weights, 2)
        assert out[0] == brute_partition_cost(rows_of(flat, 2), weights, 2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            min_boundary_sets(path_neighbors(3), 3, 2, 2, [0, 1], BIG)  # one rank short
        with pytest.raises(ValueError):
            partition_dp(path_neighbors(3), 3, 2, [1, -1, 1], 2)  # negative weight
        V = _pure.DP_MAX_VERTICES + 1
        with pytest.raises(ValueError):
            partition_dp(path_neighbors(V), V, 2, [1] * V, 2)


def shuffled(gens, seed):
    gens = list(gens)
    random.Random(seed).shuffle(gens)
    return gens


# right-ordered groups with standard, shuffled and non-standard generating
# sets, each with a size limit that keeps the pure kernel quick
UNITS2 = [(1, 0), (-1, 0), (0, 1), (0, -1)]
UNITS3 = [tuple(s if j == i else 0 for j in range(3)) for i in range(3) for s in (1, -1)]
H3_UNITS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
ORDERED_GROUPS = {
    "Z^1": (lambda: ZdGroup(1), 10),
    "Z^2": (lambda: ZdGroup(2), 7),
    "Z^3": (lambda: ZdGroup(3), 5),
    "H3": (lambda: HeisenbergGroup(), 6),
    "Z^1 shuffled": (lambda: ZdGroup(1, generators=[(-1,), (1,)]), 10),
    "Z^2 shuffled": (lambda: ZdGroup(2, generators=shuffled(UNITS2, 1)), 7),
    "Z^3 shuffled": (lambda: ZdGroup(3, generators=shuffled(UNITS3, 2)), 5),
    "H3 shuffled": (lambda: HeisenbergGroup(generators=shuffled(H3_UNITS, 3)), 6),
    "Z^2 (1,0),(1,1)": (lambda: ZdGroup(2, generators=[(1, 0), (-1, 0), (1, 1), (-1, -1)]),
                        7),
    "Z^2 (2,1),(1,1)": (lambda: ZdGroup(2, generators=[(2, 1), (-2, -1), (1, 1), (-1, -1)]),
                        7),
    "H3 (1,1,0)": (lambda: HeisenbergGroup(generators=H3_UNITS + [(1, 1, 0), (-1, -1, 1)]), 5),
}


def ordered_inputs(name):
    """min_boundary_sets arguments over the ball a profile search of this group
    uses, its inverse ids and the ball's elements."""
    make, limit = ORDERED_GROUPS[name]
    group = make()
    assert group.right_ordered
    order, flat, inverse, ranks = neighbor_table(group, limit - 1, inverse=True)
    args = (flat, len(order), len(group.labels), limit, ranks, BIG)
    return args, inverse, order


class TestTranslationClasses:
    @pytest.mark.parametrize("name", list(ORDERED_GROUPS))
    @pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.__name__.split(".")[-1])
    def test_one_visit_per_class_keeps_values_and_witnesses(self, name, kernels):
        args, inverse, order = ordered_inputs(name)
        full = kernels.min_boundary_sets(*args)
        ordered = kernels.min_boundary_sets(*args, inverse)
        assert ordered[0] == full[0]
        assert [sorted(order[i] for i in s) for s in ordered[1]] == \
            [sorted(order[i] for i in s) for s in full[1]]
        assert ordered[3] and ordered[2] < full[2]

    @pytest.mark.parametrize("name", ["Z^2", "H3", "Z^2 (2,1),(1,1)"])
    def test_each_class_of_k_sets_comes_once(self, name):
        # a class of connected k-sets has k translates that contain the identity
        (flat, universe, s, limit, ranks, _), _, _ = ordered_inputs(name)
        rows = rows_of(flat, s)
        counts = []
        for rank in (None, ranks):
            sizes = [0] * (limit + 1)

            def visit(members, boundary):
                sizes[len(members)] += 1

            _pure.grow_sets(rows, rows, None, 0, limit, BIG, visit, rank)
            counts.append(sizes)
        full, ordered = counts
        assert full == [k * c for k, c in enumerate(ordered)]

    @pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.__name__.split(".")[-1])
    def test_input_validation(self, kernels):
        flat, V = path_neighbors(3), 3
        for inverse in ([0, 2], [0, 2, 1, 0], [0, 2, 3], [0, 2, -1], [0, 1, 1], [1, 0, 2]):
            with pytest.raises(ValueError):
                kernels.min_boundary_sets(flat, V, 2, 2, [0, 1, 2], BIG, inverse)

    @pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.__name__.split(".")[-1])
    def test_truncated_table_raises(self, kernels):
        # sets of 3 need ball(2) for their translates; ball(1) misses (-1, 1)
        order, flat, inverse, ranks = neighbor_table(ZdGroup(2), 1, inverse=True)
        with pytest.raises(ValueError, match="translate"):
            kernels.min_boundary_sets(flat, len(order), 4, 3, ranks, BIG, inverse)


def realistic_inputs(name):
    """Kernel arguments built by the package's own table builders, for one
    named search of the profile and action-profile routes."""
    kind, what, n = name.split()
    n = int(n)
    if kind in ("subset", "connected", "ordered"):
        group = HeisenbergGroup() if what == "H3" else ZdGroup(int(what))
        order, flat, inverse, ranks = neighbor_table(group, n - 1, inverse=kind == "ordered")
        head = (flat, len(order), len(group.labels), n)
        if kind == "subset":
            return "subset_min_ratio", (*head, BIG)
        return "min_boundary_sets", (*head, ranks, BIG, inverse)
    if what == "C14":
        graphing = build_weighted_cycle(14, [Fraction(1 + i % 4, 33) for i in range(14)])
    else:
        graphing = build_torus_action(2, int(what))
    if kind == "partition":
        *tables, _ = partition_tables(graphing)
        return "partition_dp", (*tables, n)
    masks, weights, _ = packing_items(graphing, n)
    return "pack_max_weight", (masks, weights, n, BIG,
                               graphing.transitive_symmetries() is not None)


# column groups with standard, shuffled and non-standard generating sets, each
# with a radius that keeps the pure kernel quick
COLUMN_GROUPS = {
    "Z^1": (lambda: ZdGroup(1), 20),
    "Z^2": (lambda: ZdGroup(2), 14),
    "Z^3": (lambda: ZdGroup(3), 9),
    "Z^4": (lambda: ZdGroup(4), 6),
    "H3": (lambda: HeisenbergGroup(), 16),
    "Z^3 shuffled": (lambda: ZdGroup(3, generators=shuffled(UNITS3, 4)), 9),
    "H3 shuffled": (lambda: HeisenbergGroup(generators=shuffled(H3_UNITS, 5)), 16),
    "H3 (0,0,5)": (lambda: HeisenbergGroup(generators=H3_UNITS + [(0, 0, 5), (0, 0, -5)]), 10),
    "H3 (1,1,3)": (lambda: HeisenbergGroup(generators=[(1, 0, 0), (-1, 0, 0), (1, 1, 3),
                                                       (-1, -1, -2)]), 14),
}


def ball_rows(kernels, group, radius):
    """The rows of balls 0..radius of a column group, grown by one backend."""
    rows = [[0] * (group._length + 1)]
    for _ in range(radius):
        rows.append(list(kernels.next_ball(group._length - 1, group._steps, rows[-1])))
    return rows


def random_runs(rng, key_len, n_runs):
    """(rows, ends) of n_runs runs, each sorted by (key, lo) with disjoint
    intervals per key; the runs overlap, touch and nest one another."""
    rows, ends = [], []
    for _ in range(n_runs):
        cols = {}
        for _ in range(rng.randint(0, 6)):
            key = tuple(rng.randint(-2, 2) for _ in range(key_len))
            lo = rng.randint(-12, 12)
            cols.setdefault(key, []).append((lo, lo + rng.randint(0, 4)))
        for key in sorted(cols):
            end = None
            for lo, hi in sorted(cols[key]):
                if end is None or lo > end:  # keep a run's intervals disjoint
                    rows += (*key, lo, hi)
                    end = hi
        ends.append(len(rows) // (key_len + 2))
    return rows, ends


def run_rows(rows, key_len):
    """Flat rows as (key, lo, hi) tuples."""
    return [(tuple(rows[i:i + key_len]), *rows[i + key_len:i + key_len + 2])
            for i in range(0, len(rows), key_len + 2)]


def column_rows(cols):
    """Column form as flat rows, sorted by (key, lo)."""
    return [x for key in sorted(cols) for lo, hi in cols[key] for x in (*key, lo, hi)]


def random_steps(rng, key_len):
    return [(tuple(rng.randint(-1, 1) for _ in range(key_len)), rng.randint(-3, 3),
             tuple(rng.randint(-1, 1) for _ in range(key_len)))
            for _ in range(rng.randint(1, 4))]


def point_columns(points):
    """Points of a column group in column form, {key: sorted maximal
    intervals} with sorted keys, by the union oracle."""
    return union_columns((p[:-1], p[-1], p[-1]) for p in points)


class TestBallStep:
    @pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.__name__.split(".")[-1])
    def test_input_validation(self, kernels):
        step = ((1,), 0, (0,))
        one = [0, 0, 0]
        for key_len, steps, prev in (
            (1, [step], [0, 0]),  # ragged
            (1, [step], [0, 0, 0, 0, 1]),
            (1, [], one),  # no steps
            (1, [((1, 0), 0, (0,))], one),  # head of the wrong length
            (1, [((1,), 0, ())], one),  # coef of the wrong length
            (-1, [((), 0, ())], [0]),
            (1, [step], [0, 1, 0]),  # lo > hi
            (1, [step], [1, 0, 0, 0, 0, 0]),  # keys out of order
            (1, [step], [0, 2, 3, 0, 0, 1]),  # intervals out of order
            (1, [step], [0, 0, 2, 0, 2, 3]),  # overlapping intervals
            (1, [step], [0, 5, 5, 0, 1, 1]),
        ):
            with pytest.raises(ValueError):
                kernels.next_ball(key_len, steps, prev)
        assert list(kernels.next_ball(1, [step], one)) == [0, 0, 0, 1, 0, 0]
        # images may overlap, touch or miss the ball and each other, in any order
        assert list(kernels.next_ball(0, [((), 8, ()), ((), 3, ()), ((), 1, ())], [0, 2])) == \
            [0, 5, 8, 10]
        # a step shifts a column by dc + coef.key
        assert list(kernels.next_ball(1, [((0,), 0, (1,))], [2, 0, 1, 3, 5, 5])) == \
            [2, 0, 3, 3, 5, 5, 3, 8, 8]
        assert list(kernels.next_ball(1, [step], [])) == []

    @needs_core
    @pytest.mark.parametrize("seed", range(8))
    def test_backends_agree_on_random_rows(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            key_len = rng.randint(0, 3)
            rows, _ = random_runs(rng, key_len, 1)
            steps = random_steps(rng, key_len)
            assert list(_core.next_ball(key_len, steps, rows)) == \
                _pure.next_ball(key_len, steps, rows)


# column groups and the radius through which the store's balls are checked
# against a point BFS
STORE_GROUPS = {
    "Z^1": (lambda: ZdGroup(1), 20),
    "Z^2": (lambda: ZdGroup(2), 12),
    "Z^3": (lambda: ZdGroup(3), 7),
    "Z^4": (lambda: ZdGroup(4), 5),
    "Z^2 (1,1)": (lambda: ZdGroup(2, generators=UNITS2 + [(1, 1), (-1, -1)]), 10),
    "H3": (lambda: HeisenbergGroup(), 10),
    "H3 shuffled": (lambda: HeisenbergGroup(generators=shuffled(H3_UNITS, 5)), 10),
    "H3 sheared": (lambda: HeisenbergGroup(generators=[(1, 0, 0), (-1, 0, 0), (1, 1, 0),
                                                       (-1, -1, 1)]), 10),
    "H3 (0,0,2)": (lambda: HeisenbergGroup(generators=H3_UNITS + [(0, 0, 2), (0, 0, -2)]), 7),
}


class TestStoreBalls:
    @pytest.mark.parametrize("backend", ["compiled", "pure"])
    @pytest.mark.parametrize("name", list(STORE_GROUPS))
    def test_store_balls_match_a_point_bfs(self, name, backend, monkeypatch):
        if backend == "pure":
            monkeypatch.setattr(_kernels, "_core", None)
        elif _core is None:
            pytest.skip("compiled kernel unavailable")
        make, radius = STORE_GROUPS[name]
        spheres = sphere_oracle(make(), radius)
        group = make()
        # the store grows through ball(radius) first; every smaller ball is a slice
        for r in (radius, *range(radius)):
            assert list(ball_columns(group, r).items()) == \
                list(point_columns(itertools.chain(*spheres[:r + 1])).items())
        assert not group._norms  # and the norm index cuts no sphere
        assert [group.sphere(r) for r in range(radius + 1)] == spheres

    @pytest.mark.parametrize("coordinate", [BIG, 1 << 61, 1 << 80])
    def test_store_balls_past_int64_run_pure(self, coordinate, monkeypatch):
        # coordinates of 2**40 fit the compiled kernels throughout; those of
        # 2**61 reach 2**62 within two steps, which the compiled step refuses,
        # and leave int64 within four; those of 2**80 leave it at once.  Past
        # int64 the store turns into a list and its balls grow pure
        makes = [lambda: ZdGroup(2, generators=UNITS2 + [(coordinate, 1), (-coordinate, -1)]),
                 lambda: HeisenbergGroup(generators=H3_UNITS + [(coordinate, 1, 0),
                                                                (-coordinate, -1, coordinate)])]
        for make, radius in itertools.product(makes, (3, 4)):
            spheres = sphere_oracle(make(), radius)
            top = max(abs(x) for sphere in spheres for p in sphere for x in p)
            for backend in ("compiled", "pure"):
                if backend == "pure":
                    monkeypatch.setattr(_kernels, "_core", None)
                group = make()
                for r in (radius, *range(radius)):
                    assert list(ball_columns(group, r).items()) == \
                        list(point_columns(itertools.chain(*spheres[:r + 1])).items())
                assert isinstance(group._store, list) == (top >= 1 << 63)
                assert [group.sphere(r) for r in range(radius + 1)] == spheres
            monkeypatch.undo()


def table_args(group, radius, inverse):
    """ball_table arguments for ball(radius) of a column group, with the rows
    copied out of the store, which can then grow again."""
    rows, ends = group._ball_rows(radius)
    return group._length - 1, group._steps, group._form, list(rows), ends, inverse


class TestBallTable:
    @pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.__name__.split(".")[-1])
    def test_input_validation(self, kernels):
        step = ((1,), 0, (0,))
        one, form = [0, 0, 0], ((0,),)
        for key_len, steps, form_, rows, ends in (
            (1, [step], form, [0, 0], [1]),  # ragged
            (-1, [((), 0, ())], (), [0], [1]),
            (1, [], form, one, [1]),  # no steps
            (1, [((1, 0), 0, (0,))], form, one, [1]),  # head of the wrong length
            (1, [step], (), one, [1]),  # form of the wrong size
            (1, [step], ((0, 0),), one, [1]),
            (1, [step], form, one, []),  # a row past the last run
            (1, [step], form, one, [2]),  # a run past the rows
            (1, [step], form, one + one, [2, 1]),  # ends fall
            (1, [step], form, [0, 1, 0], [1]),  # lo > hi
            (1, [step], form, [1, 0, 0, 0, 0, 0], [2]),  # keys out of order
            (1, [step], form, [0, 2, 3, 0, 0, 1], [2]),  # intervals out of order
            (1, [step], form, [0, 0, 2, 0, 2, 3], [2]),  # overlapping intervals
            (1, [step], form, [0, 5, 5, 0, 5, 5, 0, 0, 0], [1, 3]),  # the second run unsorted
            # a ball that misses a point of the one before
            (1, [step], form, [0, 0, 2, 0, 2, 3], [1, 2]),
            (1, [step], form, [0, 0, 0, 0, 1, 1], [1, 2]),
            (1, [step], form, [0, 0, 0, 0, 0, 1, 0, 1, 1], [1, 2, 3]),
            (1, [step], form, [0, 0, 0, 1, 0, 0], [1, 1, 2]),
            (0, [((), 1, ())], (), [0, (1 << 31) - 1], [1]),  # 2**31 points
        ):
            with pytest.raises(ValueError):
                kernels.ball_table(key_len, steps, form_, rows, ends, True)
        # ids follow the spheres; ranks follow (key, c); a ball's rows may
        # touch, and a ball may equal the one before
        for rows, ends in (([0, 0, -1, 1], [1, 2]), ([0, 0, -1, -1, 0, 0, 1, 1], [1, 4]),
                           ([0, 0, 0, 0, -1, 1], [1, 2, 3])):
            flat, inverse, ranks = kernels.ball_table(0, [((), 1, ()), ((), -1, ())], (),
                                                      rows, ends, True)
            assert list(flat) == [2, 1, 0, -1, -1, 0] and list(inverse) == [0, 2, 1]
            assert list(ranks) == [1, 0, 2]
        assert kernels.ball_table(1, [step], form, [], [], False) == \
            (array("i"), None, array("i"))
        assert kernels.ball_table(1, [step], form, [], [0, 0], True) == \
            (array("i"), array("i"), array("i"))

    @needs_core
    @pytest.mark.parametrize("name", list(COLUMN_GROUPS))
    def test_backends_agree_on_whole_balls(self, name):
        make, radius = COLUMN_GROUPS[name]
        args = table_args(make(), radius, True)
        assert _core.ball_table(*args) == _pure.ball_table(*args)

    @needs_core
    @pytest.mark.parametrize("seed", range(8))
    def test_backends_agree_on_random_balls(self, seed):
        # each run the union of the runs before, its rows split at random
        # where they may touch; a third of the cases keep the raw runs,
        # which both backends refuse unless each run holds the one before
        rng = random.Random(seed)
        refused = 0
        for _ in range(40):
            key_len = rng.randint(0, 2)
            rows, ends = random_runs(rng, key_len, rng.randint(1, 5))
            if rng.random() < 2 / 3:
                runs = [run_rows(rows[a * (key_len + 2):b * (key_len + 2)], key_len)
                        for a, b in zip((0, *ends), ends)]
                rows, ends = [], []
                for r in range(len(runs)):
                    cols = union_columns(itertools.chain(*runs[:r + 1]))
                    for ivs in cols.values():
                        for i in reversed(range(len(ivs))):
                            lo, hi = ivs[i]
                            if lo < hi and rng.random() < 0.3:
                                cut = rng.randint(lo, hi - 1)
                                ivs[i:i + 1] = [(lo, cut), (cut + 1, hi)]
                    rows += column_rows(cols)
                    ends.append(len(rows) // (key_len + 2))
            steps = random_steps(rng, key_len)
            form = [[rng.randint(-1, 1) for _ in range(key_len)] for _ in range(key_len)]
            outs = []
            for kernels in (_pure, _core):
                try:
                    outs.append(kernels.ball_table(key_len, steps, form, rows, ends, True))
                except ValueError:
                    outs.append("refused")
            assert outs[0] == outs[1]
            refused += outs[0] == "refused"
        assert 0 < refused < 40


def certificate_args(graphing):
    """graphing_certificate's arguments for a graphing: its table, its vertex
    count and the slot of each label's inverse."""
    labels = list(graphing.maps)
    inverse = [labels.index(graphing.group.inverse_label(lab)) for lab in labels]
    return graphing._table, graphing.n_vertices, inverse


def random_paired_table(rng, V, n_pairs, hole_prob):
    """A random table of n_pairs maps and their inverses, slots 2i and 2i + 1,
    each map a random permutation with holes, so the maps may fall apart."""
    L = 2 * n_pairs
    table = [-1] * (V * L)
    for i in range(n_pairs):
        perm = rng.sample(range(V), V)
        for v, t in enumerate(perm):
            if rng.random() >= hole_prob:
                table[v * L + 2 * i] = t
                table[t * L + 2 * i + 1] = v
    return table, V, [s ^ 1 for s in range(L)]


# graphings whose maps have transitive symmetries; the weighted cycle's
# weights differ, which the graphing, not the kernel, reads
CERTIFIED_GRAPHINGS = [
    lambda: build_torus_action(1, 7),
    lambda: build_torus_action(2, 6),
    lambda: build_torus_action(3, 3),
    lambda: build_heisenberg_quotient(4),
    lambda: build_weighted_cycle(6, [Fraction(1 + v % 2, 9) for v in range(6)]),
]


class TestGraphingCertificate:
    @pytest.mark.parametrize("kernels", BACKENDS)
    def test_small_tables(self, kernels):
        assert kernels.graphing_certificate([], 1, []) == (True, ())
        assert kernels.graphing_certificate([], 2, []) == (True, None)
        assert kernels.graphing_certificate([0, 0], 1, [1, 0]) == (True, ((0,), (0,)))
        # the 3-cycle: the rotations by +1 and -1
        assert kernels.graphing_certificate([1, 2, 2, 0, 0, 1], 3, [1, 0]) == \
            (True, ((1, 2, 0), (2, 0, 1)))
        # an undefined shift of the 3-cycle on one side only, and a map that
        # sends two vertices to one
        assert kernels.graphing_certificate([1, 2, 2, 0, 0, -1], 3, [1, 0]) == (False, None)
        assert kernels.graphing_certificate([1, 2, 1, 0, 0, 1], 3, [1, 0]) == (False, None)
        # one map inverted where it is defined by a map defined at one more vertex
        assert kernels.graphing_certificate([1, -1, -1, 0, -1, 2], 3, [1, 0]) == (False, None)
        # two self-inverse labels that swap two vertices, and one defined nowhere
        assert kernels.graphing_certificate([1, 1, 0, 0], 2, [0, 1]) == \
            (True, ((1, 0), (1, 0)))
        assert kernels.graphing_certificate([-1, -1], 2, [0]) == (True, None)

    @pytest.mark.parametrize("kernels", BACKENDS)
    @pytest.mark.parametrize("args", [
        ([1, 2, 2, 0, 0, 3], 3, [1, 0]),  # an entry past the vertices
        ([1, 2, 2, 0, 0, -2], 3, [1, 0]),
        ([1, 2, 2, 0, 0], 3, [1, 0]),  # one entry short
        ([1, 2, 2, 0, 0, 1], 3, [1, 2]),  # an inverse slot past the labels
        ([1, 2, 2, 0, 0, 1], 3, [-1, 0]),
        ([0, 0, 0], 1, [1, 2, 0]),  # inverse slots that are no involution
        ([], 0, []),
    ])
    def test_refuses_what_is_no_table(self, kernels, args):
        with pytest.raises(ValueError):
            kernels.graphing_certificate(*args)

    @pytest.mark.parametrize("kernels", BACKENDS)
    @pytest.mark.parametrize("make", CERTIFIED_GRAPHINGS)
    def test_a_swap_in_one_map_is_unpaired(self, kernels, make):
        table, V, inverse = certificate_args(make())
        table = list(table)
        L = len(inverse)
        assert kernels.graphing_certificate(table, V, inverse)[0]
        table[0], table[L] = table[L], table[0]
        assert kernels.graphing_certificate(table, V, inverse) == (False, None)


def line(period, *entries):
    """A residue_histogram lattice of key_len 0: the period and (residue, twist,
    count) entries."""
    return (), (period,), list(entries)


def listed(result):
    """A residue_histogram result with its arrays as lists, as the pure twin
    and the oracle give them."""
    evaluations, histogram = result
    return evaluations, None if histogram is None else tuple(
        x.tolist() if isinstance(x, array) else x for x in histogram)


@st.composite
def histogram_inputs(draw):
    """residue_histogram arguments: up to five columns of one to three rows with
    gaps between them, negative coordinates, rows longer than the small
    periods, and region rows that are sub-intervals of window rows; and up to
    two lattices of random forms, echelon bases of last pivot 1, 2, 17 or
    10^6, and entries of residues in and out of range and counts of either
    sign."""
    key_len = draw(st.integers(0, 2))
    n = key_len + 1
    lattices = []
    for _ in range(draw(st.integers(0, 2))):
        form = draw(st.lists(st.integers(-2, 2), min_size=n * key_len, max_size=n * key_len))
        pivots = [draw(st.integers(1, 3)) for _ in range(key_len)]
        pivots.append(draw(st.sampled_from([1, 2, 17, 10 ** 6])))
        basis = [pivots[i] if j == i else draw(st.integers(-3, 3)) if j > i else 0
                 for i in range(n) for j in range(n)]
        entries = []
        for _ in range(draw(st.integers(0, 8))):
            entries += [*(draw(st.integers(0, p - 1)) for p in pivots[:-1]),
                        draw(st.integers(-1, min(pivots[-1], 40))), draw(st.integers(-20, 20)),
                        draw(st.integers(-1, 3))]
        lattices.append((form, basis, entries))
    keys = sorted(draw(st.sets(st.tuples(*[st.integers(-3, 3)] * key_len), max_size=5)))
    window, region = [], []
    for key in keys:
        lo = draw(st.integers(-60, 60))
        for _ in range(draw(st.integers(1, 3))):
            hi = lo + draw(st.integers(0, 40))
            window += [*key, lo, hi]
            if draw(st.booleans()):
                a = draw(st.integers(lo, hi))
                region += [*key, a, draw(st.integers(a, hi))]
            lo = hi + draw(st.integers(2, 30))
    limit = draw(st.one_of(st.just(BIG), st.integers(0, 80)))
    return key_len, window, region, lattices, limit


def window_histogram_args(group, radius, margin, shape, gens):
    """residue_histogram arguments for ball(radius) of a column group over
    ball(radius - margin), with the lattice that _residue_index makes of the
    generators over the shape."""
    group._grow(radius)
    lattice = tilings._residue_index(group, group.subset(shape), LatticeCenters(gens))[3]
    return (group._length - 1, group._rows(radius), group._rows(radius - margin), [lattice],
            BIG)


class TestResidueHistogram:
    @settings(max_examples=300, deadline=None)
    @given(histogram_inputs())
    def test_both_twins_match_a_point_histogram(self, args):
        expected = residue_histogram_oracle(*args)
        for kernels in BACKENDS:
            assert listed(kernels.residue_histogram(*args)) == expected

    @pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.__name__.split(".")[-1])
    @pytest.mark.parametrize("seed", range(4))
    def test_residue_count_matches_a_point_set(self, kernels, seed):
        # one column of short, disjoint rows around multiples of the period, so
        # that arcs wrap past residue 0; the support lists the residues in
        # order, and a row of a whole period or more takes every residue
        rng = random.Random(seed)
        for _ in range(300):
            period = rng.choice([1, 2, 3, 5, 12, 97, 10 ** 6])
            lo = rng.randint(-3, 3) * period - rng.randint(0, 30)
            rows = []
            for _ in range(rng.randint(1, 5)):
                hi = lo + rng.randint(0, min(period + 1, 40))
                rows += [lo, hi]
                lo = hi + rng.randint(2, 2 * period + 2)
            residues = {c % period for lo, hi in zip(rows[::2], rows[1::2])
                        for c in range(lo, hi + 1)}
            evaluations, histogram = kernels.residue_histogram(0, rows, [], [line(period)], BIG)
            assert evaluations == len(residues)
            if any(hi - lo + 1 >= period for lo, hi in zip(rows[::2], rows[1::2])):
                assert list(histogram.residues) == list(range(period))
            else:
                assert list(histogram.residues) == sorted(residues)
            assert list(histogram.ends) == [0, len(histogram.residues)]
        # past the limit only the count comes back
        assert kernels.residue_histogram(0, [5, 10 ** 6 + 4], [], [line(10 ** 6)], 0) == \
            (10 ** 6, None)
        assert kernels.residue_histogram(0, [-3, 2, 10 ** 6 - 1, 10 ** 6 + 3], [],
                                         [line(10 ** 6)], 6) == (7, None)

    @pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.__name__.split(".")[-1])
    def test_a_refused_histogram_builds_nothing_of_its_size(self, kernels):
        # one row of 10^7 residues, one past the limit: four lists of 10^7
        # entries would take 320 MB, and only the count comes back
        tracemalloc.start()
        try:
            assert kernels.residue_histogram(0, [0, 10 ** 7 - 1], [0, 5], [line(10 ** 7, 0, 1, 1)],
                                             10 ** 7 - 1) == (10 ** 7, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.__name__.split(".")[-1])
    def test_small_windows(self, kernels):
        # two columns of one class (the form sends every key to 0) over period
        # 3: column (0,) takes residues 2, 0 (arcs that wrap) and column (1,)
        # takes 1; the region is point 3, and one point covers residue 0
        lattice = ((0, 0), (1, 0, 0, 3), [0, 0, 1, 1])
        args = (1, [0, 2, 3, 1, 1, 1], [0, 3, 3], [lattice], BIG)
        assert listed(kernels.residue_histogram(*args)) == \
            (3, ([0, 0], [0, 3], [0, 1, 2], [1, 0, 0], [1, 1, 1], [1, 0, 0], 1, 1))
        assert kernels.residue_histogram(*args[:-1], 2) == (3, None)
        # with the form (key, 0) and pivot 2 the two keys fall in two classes
        lattice = ((1, 0), (2, 0, 0, 3), [0, 0, 1, 1])
        assert listed(kernels.residue_histogram(1, *args[1:3], [lattice], BIG)) == \
            (3, ([0, 1], [0, 2, 3], [0, 2, 1], [1, 0, 0], [1, 1, 1], [1, 0, 0], 1, 1))
        # a column of a period and more: every residue, the whole periods at
        # each; the twist k shifts the residue an entry counts by k times the
        # class vector's last entry, here 0
        assert listed(kernels.residue_histogram(0, [-4, 3], [-1, 0], [line(3, 2, 5, 2)], BIG)) \
            == (3, ([0], [0, 3], [0, 1, 2], [0, 0, 2], [3, 2, 3], [1, 0, 1], 6, 1))
        # two lattices count over the lcm of their periods, and no lattice is
        # one class over period 1
        assert listed(kernels.residue_histogram(0, [0, 5], [1, 1], [line(2, 0, 0, 1),
                                                                    line(3, 1, 0, 1)], BIG)) \
            == (6, ([0], [0, 6], list(range(6)), [1, 1, 1, 0, 2, 0], [1] * 6,
                    [0, 1, 0, 0, 0, 0], 5, 1))
        assert listed(kernels.residue_histogram(0, [0, 5], [1, 1], [], BIG)) == \
            (1, ([0], [0, 1], [0], [0], [6], [1], 0, 0))
        assert listed(kernels.residue_histogram(0, [], [], [line(5)], BIG)) == \
            (0, ([], [0], [], [], [], [], 0, 0))

    @pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.__name__.split(".")[-1])
    def test_the_twist_reads_the_class_vector(self, kernels):
        # H3's class map: (a, b, b) reduced by diag(1, 1, 5); an entry of twist
        # -2 at residue 0 counts at c where (c - 2 b) mod 5 = 0
        lattice = ((1, 0, 0, 1, 0, 1), (1, 0, 0, 0, 1, 0, 0, 0, 5), [0, 0, 0, -2, 1])
        rows = [0, 0, 0, 4, 0, 1, 0, 4, 0, 3, 0, 4]
        _, histogram = kernels.residue_histogram(2, rows, [], [lattice], BIG)
        assert list(histogram.ids) == [0, 1, 2]
        assert [list(histogram.counts[lo:hi])
                for lo, hi in zip(histogram.ends, histogram.ends[1:])] == \
            [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0]]

    @pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.__name__.split(".")[-1])
    @pytest.mark.parametrize("args", [
        (0, [0, 1, 2], [], [], BIG),  # ragged
        (-1, [], [], [], BIG),
        (1, [0, 0, 1], [], [((1,), (1, 0, 0, 3), [])], BIG),  # a form row short
        (1, [0, 0, 1], [], [((1, 0), (1, 0, 3), [])], BIG),  # a basis row short
        (0, [0, 1], [], [((), (3,), [0, 1])], BIG),  # a ragged entry
        (1, [0, 0, 1], [], [((1, 0), (1, 0, 1, 3), [])], BIG),  # no echelon basis
        (0, [0, 1], [], [line(0)], BIG),  # no period
        (0, [0, 1], [], [line(-3)], BIG),
        (0, [3, 4, 0, 1], [], [], BIG),  # rows out of order
        (0, [0, 4, 3, 5], [], [], BIG),  # overlapping rows
        (0, [2, 1], [], [], BIG),  # lo past hi
        (0, [0, 4], [3, 5], [], BIG),  # a region row past the window
        (1, [0, 0, 4], [1, 0, 0], [], BIG),  # a region column not in the window
        (0, [0, 4, 8, 9], [4, 8], [], BIG),  # a region row across a gap
    ])
    def test_refuses_what_is_no_window(self, kernels, args):
        with pytest.raises(ValueError):
            kernels.residue_histogram(*args)


@needs_core
class TestBackendParity:
    @pytest.mark.parametrize("name, radius, margin, shape, gens", [
        ("Z^1", 20, 3, [(0,), (1,), (3,)], [(-5,)]),
        ("Z^2", 12, 4, [(0, 0), (1, 0), (0, 1), (2, 3)], [(3, 1), (0, -6)]),
        ("Z^3", 7, 2, [(0, 0, 0), (1, 0, 0), (1, 1, 1)], [(3, 0, 1), (0, 3, -1), (1, 1, 4)]),
        ("H3", 10, 4, [(0, 0, 0), (1, 0, 0), (6, 1, 2), (1, 1, -1)],
         [(5, 0, 0), (0, -5, 0), (0, 0, 17)]),
        ("H3 sheared", 10, 3, [(0, 0, 0), (2, 0, 1), (1, 1, 0)], [(2, 0, 0), (0, 3, 0), (0, 0, 4)]),
        ("Z^2 (1,1)", 10, 5, [(0, 0), (1, 1), (0, 2)], [(2, 0), (0, 10 ** 6)])])
    def test_window_histograms_identical(self, name, radius, margin, shape, gens):
        # the window and region balls of a store, with the class map and the
        # entries of a lattice over a shape
        args = window_histogram_args(STORE_GROUPS[name][0](), radius, margin, shape, gens)
        assert listed(_core.residue_histogram(*args)) == _pure.residue_histogram(*args)

    @pytest.mark.parametrize("make", CERTIFIED_GRAPHINGS)
    @pytest.mark.parametrize("relabel, seed", [
        (None, None), *[(relabel, seed) for relabel in (relabelled, regenerated)
                        for seed in (1, 2, 3)]])
    def test_graphing_certificates_identical(self, make, relabel, seed):
        g = make() if relabel is None else relabel(make(), seed)
        args = certificate_args(g)
        assert _core.graphing_certificate(*args) == _pure.graphing_certificate(*args)

    def test_random_graphing_certificates_identical(self):
        # random paired tables, some with holes and some with one entry moved
        rng = random.Random(38)
        seen = set()
        for _ in range(300):
            table, V, inverse = random_paired_table(rng, rng.randint(1, 12), rng.randint(1, 3),
                                                    rng.choice([0, 0, 0.1]))
            if rng.random() < 0.3:
                i = rng.randrange(len(table))
                table[i] = rng.randrange(-1, V)
            got = _core.graphing_certificate(table, V, inverse)
            assert got == _pure.graphing_certificate(table, V, inverse)
            seen.add((got[0], got[1] is not None))
        assert seen == {(False, False), (True, False), (True, True)}

    @pytest.mark.parametrize("name", list(COLUMN_GROUPS))
    def test_ball_rows_identical(self, name):
        make, radius = COLUMN_GROUPS[name]
        assert ball_rows(_core, make(), radius) == ball_rows(_pure, make(), radius)

    @pytest.mark.parametrize("name", list(COLUMN_GROUPS))
    def test_ball_tables_identical(self, name):
        make, radius = COLUMN_GROUPS[name]
        group = make()
        for r in (0, 1, min(radius, 8)):
            for inverse in (False, True):
                args = table_args(group, r, inverse)
                assert _core.ball_table(*args) == _pure.ball_table(*args)

    @pytest.mark.parametrize("name", [
        "subset 1 9", "subset 2 5", "connected 2 8", "connected 3 6", "ordered 1 10",
        "ordered 2 9", "ordered 3 7", "ordered H3 7",
        "partition C14 5", "partition 3 5", "pack 6 5", "pack 8 5", "pack 9 5",
        "pack C14 3",
    ])
    def test_realistic_searches_identical_including_nodes(self, name):
        kernel, args = realistic_inputs(name)
        assert getattr(_pure, kernel)(*args) == getattr(_core, kernel)(*args)

    def test_subset_kernel_identical_including_nodes(self):
        rng = random.Random(33)
        cases = [(path_neighbors(12), 12, 2, 8)]
        for _ in range(20):
            V = rng.randint(2, 10)
            s = rng.randint(1, 4)
            cases.append((random_symmetric_neighbors(rng, V, s), V, s,
                          rng.randint(1, V)))
        for flat, V, s, n_max in cases:
            for budget in (BIG, 40):
                assert _pure.subset_min_ratio(flat, V, s, n_max, budget) == \
                    _core.subset_min_ratio(flat, V, s, n_max, budget)

    def test_pack_kernel_identical_including_nodes(self):
        rng = random.Random(34)
        for _ in range(20):
            V = rng.randint(4, 14)
            n_bound = rng.randint(1, 5)
            masks, weights = random_pack_instance(rng, V, rng.randint(1, 10), n_bound)
            for budget, fix_root in itertools.product((BIG, 25), (False, True)):
                assert _pure.pack_max_weight(masks, weights, n_bound, budget, fix_root) == \
                    _core.pack_max_weight(masks, weights, n_bound, budget, fix_root)

    def test_min_boundary_sets_identical_including_nodes(self):
        rng = random.Random(35)
        for _ in range(30):
            V = rng.randint(1, 40)
            s = rng.randint(1, 4)
            flat = random_symmetric_neighbors(rng, V, s)
            ranks = rng.sample(range(V), V)
            limit = rng.randint(1, 8)
            for budget in (BIG, 30):
                assert _pure.min_boundary_sets(flat, V, s, limit, ranks, budget) == \
                    _core.min_boundary_sets(flat, V, s, limit, ranks, budget)

    def test_ordered_min_boundary_sets_identical_or_both_refuse(self):
        # random tables with a random involution: the translates may leave the
        # table, and then both backends refuse
        rng = random.Random(37)
        refused = 0
        for _ in range(60):
            V = rng.randint(1, 30)
            s = rng.randint(1, 4)
            flat = random_symmetric_neighbors(rng, V, s)
            ranks = rng.sample(range(V), V)
            rest = rng.sample(range(1, V), V - 1)
            inverse = list(range(V))
            for a, b in zip(rest[::2], rest[1::2]):
                inverse[a], inverse[b] = b, a
            limit = rng.randint(1, 7)
            for budget in (BIG, 30):
                outs = []
                for kernels in (_pure, _core):
                    try:
                        outs.append(kernels.min_boundary_sets(flat, V, s, limit, ranks, budget,
                                                              inverse))
                    except ValueError:
                        outs.append("refused")
                assert outs[0] == outs[1]
                refused += outs[0] == "refused"
        assert 0 < refused < 120

    def test_partition_dp_identical_including_nodes(self):
        rng = random.Random(36)
        for _ in range(20):
            V = rng.randint(1, 12)
            s = rng.randint(1, 4)
            flat = random_symmetric_neighbors(rng, V, s)
            weights = [rng.randint(0, 1 << 40) for _ in range(V)]
            limit = rng.randint(1, V + 2)
            assert _pure.partition_dp(flat, V, s, weights, limit) == \
                _core.partition_dp(flat, V, s, weights, limit)

    def test_partition_dp_refuses_sums_beyond_int64(self):
        args = path_neighbors(2), 2, 2, [1 << 62, 1 << 62], 2
        with pytest.raises(OverflowError):
            _core.partition_dp(*args)
        assert partition_dp(*args) == _pure.partition_dp(*args)

    @pytest.mark.parametrize("weights", [[1 << 62, 1 << 62], [1 << 61, 1 << 61], [3, -1]])
    def test_pack_max_weight_refuses_weights_beyond_int64(self, weights):
        args = [0b1, 0b10], weights, 1, BIG, False
        with pytest.raises(OverflowError):
            _core.pack_max_weight(*args)
        assert pack_max_weight(*args) == _pure.pack_max_weight(*args)


class TestLargeInstances:
    """Sizes past the recursion limit, compared through the dispatcher, which
    runs the compiled kernel when there is one."""

    def test_large_universe_runs_without_recursion_limit(self):
        # 1,159 vertices, one search depth each
        order, flat, _, _ = neighbor_table(ZdGroup(3), 9)
        args = (flat, len(order), len(flat) // len(order), 10, 200_000)
        assert _pure.subset_min_ratio(*args) == subset_min_ratio(*args)

    def test_many_items_identical_including_nodes(self):
        # 1,200 disjoint singletons: 19 limbs of items and of vertices, and a
        # branch depth of 1,200
        masks = [1 << v for v in range(1200)]
        weights = [1] * 1200
        pure = _pure.pack_max_weight(masks, weights, 1, BIG, False)
        assert pure[0] == 1200 and pure[3]
        assert pure == pack_max_weight(masks, weights, 1, BIG, False)


# each dual kernel once, with a small call that both twins accept
DUAL_KERNELS = {
    "subset_min_ratio": (path_neighbors(6), 6, 2, 4, BIG),
    "pack_max_weight": ([0b11, 0b110, 0b1000], [3, 2, 5], 2, BIG, False),
    "min_boundary_sets": (path_neighbors(6), 6, 2, 3, list(range(6)), BIG),
    "partition_dp": (path_neighbors(4), 4, 2, [1, 2, 3, 4], 2),
    "next_ball": (1, [((1,), 0, (0,))], [0, 0, 0]),
    "ball_table": (1, [((1,), 0, (0,))], ((0,),), [0, 0, 0], [1], True),
    "graphing_certificate": ([1, 2, 2, 0, 0, 1], 3, [1, 0]),
    "residue_histogram": (0, [0, 4], [1, 2], [line(3, 0, 1, 1)], BIG),
}


class TestDispatch:
    def test_the_list_holds_every_dual_kernel(self):
        # each dispatcher wraps the pure twin of its own name
        dual = {name for name, kernel in vars(_kernels).items()
                if getattr(kernel, "__wrapped__", None) is not None
                and kernel.__wrapped__ is getattr(_pure, name, None)}
        assert dual == set(DUAL_KERNELS)

    @needs_core
    @pytest.mark.parametrize("name", DUAL_KERNELS)
    def test_twins_share_one_signature(self, name):
        signature = inspect.signature(getattr(_pure, name))
        assert inspect.signature(getattr(_core, name)) == signature
        assert inspect.signature(getattr(_kernels, name)) == signature

    @pytest.mark.parametrize("name", DUAL_KERNELS)
    def test_overflow_in_the_compiled_twin_runs_pure(self, name, monkeypatch):
        calls = []

        def refuse(*args, **kwargs):
            calls.append((args, kwargs))
            raise OverflowError("stub")

        args = DUAL_KERNELS[name]
        # the last argument goes by keyword, which the dispatcher passes on
        last = list(inspect.signature(getattr(_pure, name)).parameters)[len(args) - 1]
        kwargs = {last: args[-1]}
        monkeypatch.setattr(_kernels, "_core", SimpleNamespace(**{name: refuse}))
        assert getattr(_kernels, name)(*args[:-1], **kwargs) == getattr(_pure, name)(*args)
        assert calls == [(args[:-1], kwargs)]

    def test_oversize_instances_fall_back_transparently(self):
        # 200 singleton masks take four 64-bit limbs of items and of vertices;
        # the compiled kernel sizes its sets to the instance
        masks = [1 << v for v in range(200)]
        weights = [1] * 200
        best, items, _, complete = pack_max_weight(masks, weights, 1, BIG, False)
        assert complete and best == 200 and len(items) == 200

    def test_huge_weights_fall_back_transparently(self):
        masks = [0b1, 0b10]
        weights = [1 << 62, 1 << 62]
        best, _, _, complete = pack_max_weight(masks, weights, 1, BIG, False)
        assert complete and best == 1 << 63

    @pytest.mark.parametrize("make", [
        lambda: HeisenbergGroup(generators=H3_UNITS + [(BIG, BIG, 0), (-BIG, -BIG, BIG * BIG)]),
        lambda: HeisenbergGroup(generators=H3_UNITS + [(BIG + 1, 3, 0),
                                                       (-BIG - 1, -3, 3 * BIG + 3)]),
        lambda: ZdGroup(2, generators=UNITS2 + [(1 << 61, 1), (-(1 << 61), -1)]),
    ])
    def test_huge_balls_fall_back_transparently(self, make, monkeypatch):
        spheres = list(map(make()._sphere_rows, range(5)))
        if _core is not None:
            with pytest.raises(OverflowError):
                ball_rows(_core, make(), 4)
        monkeypatch.setattr(_kernels, "_core", None)
        assert list(map(make()._sphere_rows, range(5))) == spheres

    def test_rows_past_int64_run_pure_before_any_large_buffer(self):
        # a store that has turned into a list: 10**5 rows, the last reaching
        # 2**70.  The compiled twin refuses them before it allocates its
        # (steps + 1) x rows output, so it never holds more than the rows
        # as int64 on the way
        rows = [x for v in range(10**5 - 1) for x in (2 * v, 2 * v)] + [1 << 69, 1 << 70]
        steps = [((), 1, ()), ((), -1, ())]
        if _core is not None:
            tracemalloc.start()
            try:
                with pytest.raises(OverflowError):
                    _core.next_ball(0, steps, rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * len(rows) * (len(steps) + 1) / 2
        assert _kernels.next_ball(0, steps, rows) == _pure.next_ball(0, steps, rows) == \
            [-1, 2 * 10**5 - 3, (1 << 69) - 1, (1 << 70) + 1]

    @needs_core
    def test_compiled_ball_refuses_coordinates_near_2_62(self):
        step = ((), 1, ())
        assert list(_core.next_ball(0, [step], [0, (1 << 62) - 2])) == [0, (1 << 62) - 1]
        for prev, steps in (([0, (1 << 62) - 1], [step]), ([0, 1 << 62], [step]),
                            ([0, 1 << 63], [step]), ([0, 0], [((), 1 << 62, ())]),
                            ([2, 0, 0], [((1,), 0, (1 << 61,))])):
            with pytest.raises(OverflowError):
                _core.next_ball(len(steps[0][0]), steps, prev)
            key_len = len(steps[0][0])
            assert _kernels.next_ball(key_len, steps, prev) == \
                _pure.next_ball(key_len, steps, prev)

    @needs_core
    def test_compiled_table_refuses_coordinates_near_2_62(self):
        up = ((), 1, ())
        top = (1 << 62) - 2
        assert _core.ball_table(0, [up], (), [top, top], [1], False)[0] == array("i", [-1])
        for args in ((0, [up], (), [top + 1, top + 1], [1], False),  # an image at 2**62
                     (0, [((), 1 << 62, ())], (), [0, 0], [1], False),
                     (0, [up], (), [1 << 63, 1 << 63], [1], False),  # past int64
                     (1, [((1,), 0, (0,))], ((1,),), [1 << 31, 0, 0], [1], True),  # key.M.key
                     (1, [((1,), 0, (0,))], ((1 << 62,),), [1, 0, 0], [1], True)):
            with pytest.raises(OverflowError):
                _core.ball_table(*args)
            assert _kernels.ball_table(*args) == _pure.ball_table(*args)
        # the twist is bounded only when the inverse is asked for
        assert _core.ball_table(1, [((1,), 0, (0,))], ((1,),), [1 << 31, 0, 0], [1], False) \
            == (array("i", [-1]), None, array("i", [0]))

    @pytest.mark.parametrize("coordinate", [1 << 61, 1 << 80])
    def test_huge_tables_fall_back_transparently(self, coordinate, monkeypatch):
        # coordinates of 2**61 fit the store, but their images reach 2**62;
        # those of 2**80 turn the store into a list
        make = lambda: ZdGroup(2, generators=UNITS2 + [(coordinate, 1), (-coordinate, -1)])
        for radius in (1, 2):
            group = make()
            expected = neighbor_table_oracle(group, radius, True)
            args = table_args(group, radius, True)
            assert isinstance(group._store, list) == (coordinate > 1 << 63)
            if _core is not None:
                with pytest.raises(OverflowError):
                    _core.ball_table(*args)
            assert _kernels.ball_table(*args) == _pure.ball_table(*args)
            got = neighbor_table(make(), radius, True)
            assert (got[0], *map(list, got[1:])) == expected

    @pytest.mark.parametrize("args", [
        (0, [0, 1 << 62], [], [line(5)], 0),  # an entry at 2**62
        (0, [0, 1 << 70], [], [line(5)], BIG),  # past int64
        (0, [0, 3], [1, 2], [line(1 << 62)], BIG),  # a period at 2**62
        (0, [0, 3], [1, 2], [line(1 << 61), line((1 << 61) - 1)], BIG),  # an lcm past it
        (0, [-(1 << 61), (1 << 61) - 1], [0, 0], [], BIG),  # 2**62 window points
        (1, [0, 0, 1 << 61, 1, 0, 1 << 61], [1, 5, 9], [], BIG),  # in two columns
        (0, [0, 4], [1, 2], [line(3, 0, 1, 1 << 62)], BIG),  # a lattice entry at 2**62
        (0, [0, 4], [1, 2], [line(3, 0, 1 << 70, 1)], BIG),  # past int64
        (0, [0, 4], [1, 2], [line(3, 0, 1, 1 << 61, 1, 1, 1 << 61)], BIG),  # counts summed
        (1, [5, 0, 1], [], [((1 << 62, 0), (1, 0, 0, 3), [])], BIG),  # a form entry
        (1, [1 << 61, 0, 1], [], [((2, 0), (1, 0, 0, 3), [])], BIG),  # a class vector
        (1, [0, 0, 1], [], [((1, 0), (1, 1 << 62, 0, 3), [])], BIG),  # a basis entry
        (0, [0, (1 << 61) - 1], [], [line(1, 0, 0, 4)], BIG),  # the sum of counts
    ])
    def test_huge_windows_fall_back_transparently(self, args):
        if _core is not None:
            with pytest.raises(OverflowError):
                _core.residue_histogram(*args)
        assert _kernels.residue_histogram(*args) == _pure.residue_histogram(*args)

    @needs_core
    def test_compiled_histogram_takes_numbers_below_2_61(self):
        # keys of 2**60 under a form of 1, a twist and a count far past int32,
        # and a period of 2**61 - 1, whose twisted residues need the doubling
        # product
        p = (1 << 61) - 1
        for args in ((1, [1 << 60, 0, 2], [], [((1, 0), (1, 0, 0, 3), [0, 2, 1, 5])], BIG),
                     (0, [0, 3], [1, 2], [line(p, 2, 1 << 40, 1 << 50)], BIG),
                     (1, [3, 0, 2], [], [((0, 1), (1, 0, 0, p), [0, 3, p - 5, 7])], BIG)):
            assert listed(_core.residue_histogram(*args)) == _pure.residue_histogram(*args)

    @needs_core
    def test_compiled_calls_leave_no_cyclic_garbage(self):
        # a ctypes array type made per call would be a cycle of about 16 objects
        calls = [(name, args) for name, args in DUAL_KERNELS.items()]
        calls.append(("ball_table", table_args(HeisenbergGroup(), 4, True)))
        group = HeisenbergGroup()
        calls.append(("next_ball", (2, group._steps, ball_rows(_core, group, 4)[-1])))
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for name, args in calls:
                getattr(_core, name)(*args)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_default_backend_is_stable_across_processes(self):
        code = "import isoprof._kernels as k; print(k.BACKEND)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == _kernels.BACKEND


def test_import_leaves_the_kernels_out():
    # the kernels load, and may compile, on the first search, on growing a
    # column ball past radius 0 or on building a graphing, not on import, on
    # building a group or on refusing an oversized quotient model
    code = ("import sys, isoprof\n"
            "loaded = lambda: print('isoprof._kernels' in sys.modules)\n"
            "loaded()\n"
            "h = isoprof.HeisenbergGroup(); z = isoprof.ZdGroup(3)\n"
            "h.sphere(0), z.sphere(0), z.word_norm((1, 2, 3)), h.word_norm((0, 0, 0))\n"
            "try:\n"
            "    isoprof.build_heisenberg_quotient(2000)\n"
            "except isoprof.errors.ParameterError:\n"
            "    loaded()\n"
            "h.sphere(1)\n"
            "loaded()\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False", "True"]


def import_backend(home, path):
    """[BACKEND, BACKEND_REASON] as a fresh interpreter with this HOME and PATH sees them."""
    code = "import isoprof._kernels as k; print(k.BACKEND); print(k.BACKEND_REASON)"
    env = dict(os.environ, HOME=str(home), PATH=str(path), PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.splitlines()


class TestBuild:
    def test_no_compiler_selects_pure_and_records_why(self, tmp_path):
        no_tools = tmp_path / "bin"
        no_tools.mkdir()
        backend, reason = import_backend(tmp_path / "home", no_tools)
        assert backend == "pure"
        assert "kernels.c" in reason

    @needs_compiler
    def test_the_kernels_compile_without_warnings(self, tmp_path):
        # the build's compiler and flags, with warnings as errors; the struct
        # initializers that name only their first fields (the rest zero) are
        # meant, so that one warning is off
        command = [*(sysconfig.get_config_var("CC") or "cc").split(),
                   *(sysconfig.get_config_var("CCSHARED") or "").split(), "-O2", "-shared",
                   "-Wall", "-Wextra", "-Wno-missing-field-initializers", "-Werror"]
        source = os.path.join(os.path.dirname(_pure.__file__), "kernels.c")
        proc = subprocess.run([*command, "-o", str(tmp_path / "kernels.so"), source],
                              capture_output=True, text=True, stdin=subprocess.DEVNULL)
        assert proc.returncode == 0, proc.stderr

    @needs_core
    @needs_compiler
    def test_cached_library_loads_without_a_compiler(self, tmp_path):
        # the library is built afresh in a new HOME, so this needs the compiler
        no_tools = tmp_path / "bin"
        no_tools.mkdir()
        home = tmp_path / "home"
        assert import_backend(home, os.environ["PATH"]) == ["compiled", "None"]
        assert import_backend(home, no_tools) == ["compiled", "None"]
