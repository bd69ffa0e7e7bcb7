"""Tiles and multi-tiles: shapes whose right translates partition the group.

A multi-tile is a list of shapes T_i (each containing the identity) with
per-shape center sets C_i; the claim is that {T_i * c : c in C_i} partitions
the group.  The full claim is not finitely checkable, so verification runs on
a window: disjointness of translates is checked on all of ball(R), and
coverage on ball(R - margin) where margin is the largest shape diameter,
which removes edge effects near the window boundary.  On Z^d and Heisenberg
the window and the region are read as balls in column form (groups.py): the
flat (key, lo, hi) rows the group's store keeps for each ball, per column key
the intervals of the last coordinate; no sphere is cut from the store unless
a count is bad.

The scan never enumerates lattice center sets.  A window point w lies in
T * c exactly when c = t^{-1} w for some t in T, and one integer rule per
lattice shape says which t those are (_lattice_rule).  An echelon basis
(groups.lattice_basis) has row i zero before its positive pivot p_i at i,
and each coset of its lattice has exactly one point with 0 <= v_i < p_i,
reached by reducing coordinate i by row i in order.  On Z^d, w - t is a
center exactly when w and t reduce to the same point under the lattice's
own basis.  On Heisenberg with axis moduli (m1, m2, m3), t^{-1} w is a
center exactly when a = ta (m1), b = tb (m2) and c - ta b = tc - ta tb
(m3), coordinatewise reductions under diag(m1, m2, m3).  So a column key
has a class vector, reduced by the basis: (key, 0) on Z^d, (a, b, b) on
Heisenberg; a shape point t has a reduced point (bucket, r), t itself on Z^d
and (ta, tb, tc - ta tb) on Heisenberg, and a twist k, 1 on Z^d and -(ta
mod m3) on Heisenberg.  The point (key, c) of class vector (bucket, u) is
covered by the t of its bucket with (c + k u) mod p = r, where p is the
last pivot.  The shape's reduced points, counted per (bucket, r, k), are
the entries the kernel reads, and a point costs one lookup per twist in its
bucket.  The collision report lists the lattice centers over a point as
t^{-1} w in shape order; the explicit centers over w are the c with w
c^{-1} in T.

Along a column the lattice counts are periodic in the last coordinate: if
z = (0, .., 0, p) is a center (on Z^d p is the last pivot, since a lattice
vector that is zero but for its last coordinate is a multiple of the last
basis row; on Heisenberg p = m3), z is central and the centers are closed
under multiplying by it, so w and w z are covered equally often.  The counts
depend on the column key only through its class vector, for a multi-tile
the tuple of its lattice shapes' vectors, over the lcm of their periods.
So the scan needs, per class, only the residues mod period that its window
points take, its count at each, and how many window and region points take
each.  All of it comes from one pass of the kernel _kernels.residue_histogram
over the window's and the region's rows, with each lattice shape's form,
basis and entries: it numbers each row's class as classes first come, takes
for a class every residue once one of its rows is a period long, else the
union of its rows' arcs on the circle of residues, kept sorted, reads each
class's counts at those residues from the entries, and sums the window's
count (count times points) and the region's covered points (at residues of
nonzero count).  SCAN_BUDGET charges each column its own residues mod
period (at most min(length, period)), which the kernel counts first, times
the lookups per point, a bound on the evaluations; the kernel builds no
support past it.  Explicit centers are scattered onto the window as sparse
additions, column by column.  The first five uncovered and colliding points
come from walking the spheres, cut from the store as (key, lo, hi) rows
(ball r minus ball r - 1), in (norm, tuple) order through the columns that
can hold a bad count: those with explicit additions, or of a class with a
bad count at a residue the walked ball's points take.  The radius-36
Heisenberg window of the 425-point cuboid tile, 716,455 points in 2,665
columns of 353 classes, needs 5,937 evaluations (45,177 at one batch per
column).

Free groups have no columns and no lattice center sets, so their scan keeps
one count per window point, in (norm, tuple) order.

The built-in Folner tiles, with their center lattices and windows, are
defined once here, by folner_tiles.
"""

import operator
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from fractions import Fraction
from functools import partial
from itertools import chain, compress, count, islice, repeat, takewhile
from math import lcm

from ._record import Record
from .errors import (
    BudgetError,
    ConfigError,
    EmptySetError,
    MixedGroupError,
    ParameterError,
    UnsupportedError,
    WindowTooSmallError,
    integer_parameter,
)
from .groups import (GroupSubset, HeisenbergGroup, ZdGroup, integer_vector, lattice_basis,
                     lattice_residue)
from .isoperimetry import heisenberg_cuboid, zd_cube

# lattice evaluations times index lookups per point, and explicit center
# counts times shape size, beyond this refuse; the balls a scan reads are
# bounded by the rows their group's store may hold, groups.STORE_BUDGET
SCAN_BUDGET = 5_000_000


class ExplicitCenters:
    """A finite explicit list of translation centers."""

    def __init__(self, elements):
        elements = [integer_vector(e) for e in elements]
        if len(set(elements)) != len(elements):
            raise ConfigError("explicit center list contains duplicates")
        self.elements = tuple(elements)

    def to_json(self, group):
        return {"kind": "explicit", "list": [group.element_to_json(c) for c in self.elements]}

    def __repr__(self):
        return f"ExplicitCenters({len(self.elements)} centers)"


class LatticeCenters:
    """Centers given by all integer combinations of translation generators.

    For Z^d the combinations are genuine subgroup elements.  For Heisenberg
    the generators must be coordinate-axis multiples; the resulting center
    set, taken coordinatewise, coincides with the set of products of axis
    powers because the cross terms vanish on axis-aligned factors.
    """

    def __init__(self, generators):
        gens = [integer_vector(g) for g in generators]
        if not gens:
            raise ConfigError("lattice needs at least one generator")
        if any(all(c == 0 for c in g) for g in gens):
            raise ConfigError("lattice generators must be nonzero")
        self.generators = tuple(gens)

    def to_json(self, group):
        return {
            "kind": "lattice",
            "generators": [group.element_to_json(g) for g in self.generators],
        }

    def __repr__(self):
        return f"LatticeCenters({list(self.generators)})"


def _elements_from_json(group, obj, what):
    if not isinstance(obj, list):
        raise ConfigError(f"{what} must be a list of elements")
    return [group.element_from_json(e) for e in obj]


def _centers_from_json(group, obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("center set must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "lattice":
        if set(obj) != {"kind", "generators"}:
            raise ConfigError("lattice centers need exactly the fields kind, generators")
        return LatticeCenters(_elements_from_json(group, obj["generators"], "lattice generators"))
    if kind == "explicit":
        if set(obj) != {"kind", "list"}:
            raise ConfigError("explicit centers need exactly the fields kind, list")
        return ExplicitCenters(_elements_from_json(group, obj["list"], "explicit centers"))
    raise ConfigError(f"unknown center kind {kind!r}")


class MultiTile:
    """Shapes T_1..T_N with per-shape center sets; N=1 is a plain tile."""

    def __init__(self, shapes, centers):
        shapes = tuple(shapes)
        centers = tuple(centers)
        if not shapes:
            raise ParameterError("a multi-tile needs at least one shape")
        if len(centers) != len(shapes):
            raise ParameterError(
                f"{len(shapes)} shapes but {len(centers)} center sets"
            )
        group = shapes[0].group
        for shape in shapes:
            if not isinstance(shape, GroupSubset):
                raise ParameterError("shapes must be GroupSubset instances")
            if shape.group != group:
                raise MixedGroupError("all shapes must live in the same group")
            if not len(shape):
                raise EmptySetError("shapes must be nonempty")
            if group.identity not in shape:
                raise ParameterError("every shape must contain the identity")
            for t in shape:
                group.validate_element(t)
        for cs in centers:
            if not isinstance(cs, (ExplicitCenters, LatticeCenters)):
                raise ParameterError("centers must be ExplicitCenters or LatticeCenters")
            for c in cs.elements if isinstance(cs, ExplicitCenters) else cs.generators:
                group.validate_element(c)
        self.group = group
        self.shapes = shapes
        self.centers = centers

    def __repr__(self):
        sizes = [len(s) for s in self.shapes]
        return f"MultiTile(sizes={sizes})"


def multitile_to_json(mt):
    """Tile JSON: a single center object for plain tiles, a list per shape otherwise."""
    shapes = [[mt.group.element_to_json(g) for g in shape] for shape in mt.shapes]
    centers = [cs.to_json(mt.group) for cs in mt.centers]
    return {"shapes": shapes, "centers": centers[0] if len(centers) == 1 else centers}


def multitile_from_json(group, obj):
    if not isinstance(obj, dict) or set(obj) != {"shapes", "centers"}:
        raise ConfigError("tile JSON needs exactly the fields shapes, centers")
    raw_shapes = obj["shapes"]
    if not isinstance(raw_shapes, list) or not raw_shapes:
        raise ConfigError("shapes must be a nonempty list")
    shapes = [group.subset(_elements_from_json(group, raw, "each shape")) for raw in raw_shapes]
    raw_centers = obj["centers"]
    if isinstance(raw_centers, dict):
        raw_centers = [raw_centers] * len(shapes)
    if not isinstance(raw_centers, list) or len(raw_centers) != len(shapes):
        raise ConfigError("need one center set per shape")
    centers = [_centers_from_json(group, c) for c in raw_centers]
    return MultiTile(shapes, centers)


def _zd_lattice(group, gens):
    """The echelon basis (groups.lattice_basis) of the lattice that d integer
    vectors span in Z^d."""
    d = group.d
    if len(gens) != d:
        raise UnsupportedError(
            f"Z^{d} lattice verification needs exactly {d} generators, got {len(gens)}"
        )
    basis = lattice_basis(gens, d)
    if basis is None:
        raise ConfigError("lattice generators are linearly dependent")
    return basis


def _heis_axis_moduli(gens):
    """Extract (m1, m2, m3) from axis-aligned Heisenberg lattice generators."""
    mods = [None, None, None]
    if len(gens) != 3:
        raise UnsupportedError(
            "Heisenberg lattice verification needs one generator per coordinate axis"
        )
    for g in gens:
        hot = [i for i, c in enumerate(g) if c != 0]
        if len(hot) != 1 or mods[hot[0]] is not None:
            raise UnsupportedError(
                "Heisenberg lattice verification supports coordinate-axis generators only"
            )
        mods[hot[0]] = abs(g[hot[0]])
    return tuple(mods)


def _lattice_rule(group, centers):
    """(basis, form, places) of a lattice center set, the lattice validated
    first: the echelon basis that reduces class vectors, the form (flat, row
    major) that maps a column key to its class vector, and places(shape),
    which lists (bucket..., residue, twist) for each shape point, its reduced
    point and its twist (module docstring)."""
    if isinstance(group, ZdGroup):
        basis = _zd_lattice(group, centers.generators)
        d = group.d
        form = tuple(int(i == j) for i in range(d) for j in range(d - 1))
        return basis, form, lambda shape: map(operator.add, map(partial(lattice_residue, basis),
                                                                shape), repeat((1,)))
    if not isinstance(group, HeisenbergGroup):
        raise UnsupportedError("lattice center sets are supported on Z^d and Heisenberg only")
    m1, m2, m3 = _heis_axis_moduli(centers.generators)

    def places(shape):
        # a diagonal basis reduces coordinate by coordinate
        a, b, c = zip(*shape)
        return zip(map(operator.mod, a, repeat(m1)), map(operator.mod, b, repeat(m2)),
                   map(operator.mod, map(operator.sub, c, map(operator.mul, a, b)), repeat(m3)),
                   map(operator.neg, map(operator.mod, a, repeat(m3))))

    return ((m1, 0, 0), (0, m2, 0), (0, 0, m3)), (1, 0, 0, 1, 0, 1), places


def _residue_index(group, shape, centers):
    """(over, period, lookups, lattice) of a lattice center set over a shape.

    over(w) lists, in shape order, the t in the shape with t^-1 * w a center;
    period is the least p with (0, .., 0, p) a center, the last pivot of the
    basis of _lattice_rule; lookups is the most twists a bucket holds, the
    table lookups one point costs; and lattice is (form, basis, entries) as
    _kernels.residue_histogram reads them, flat: an entry (bucket, residue,
    twist, count) for each place (_lattice_rule) the shape's points take.
    A point (key, c) whose column has the class vector (bucket, u) is
    covered by the shape points of its bucket whose residue is (c + twist
    u) mod period."""
    basis, form, places = _lattice_rule(group, centers)
    period = basis[-1][-1]
    placed = list(places(shape))
    width = len(basis) - 1  # the key's

    def over(w):
        key, c = group._column_of(w)
        *bucket, u = lattice_residue(basis, [sum(map(operator.mul, form[i * width:], key))
                                             for i in range(len(basis))])
        return [t for t, (*b, r, k) in zip(shape, placed)
                if b == bucket and (c + k * u) % period == r]

    tally = Counter(placed)
    entries = list(chain.from_iterable(map(operator.add, tally, zip(tally.values()))))
    buckets = set(map(operator.itemgetter(slice(-2), -1), tally))  # (bucket, twist)
    twists = Counter(map(operator.itemgetter(0), buckets))
    return over, period, max(twists.values()), (form, [x for row in basis for x in row], entries)


def _gatherer(group, shape, centers, index):
    """The function listing, for a point w, the centers c with w in shape * c: the
    explicit c with w * c^-1 in the shape, or t^-1 * w for the t the residue index
    finds over w."""
    mul, inverse = group._mul_raw, group.inverse
    if index is None:
        pairs = [(c, inverse(c)) for c in centers.elements]
        return lambda w: [c for c, ci in pairs if mul(w, ci) in shape]
    over = index[0]
    return lambda w: [mul(inverse(t), w) for t in over(w)]


def _scatter(group, shape, centers):
    """The points t * c, t in the shape and c an explicit center: one per translate
    covering the point."""
    if len(centers.elements) * len(shape) > SCAN_BUDGET:
        raise BudgetError("explicit center scatter too large")
    mul = group._mul_raw
    return (mul(t, c) for c in centers.elements for t in shape)


def _row_finder(group, rows):
    """The test whether flat rows hold the point of column key at c: one
    bisection over the rows' (key, lo)."""
    width = group._length + 1
    starts = list(zip(group._row_keys(rows), rows[width - 2::width]))
    his = rows[width - 1::width]

    def holds(key, c):
        i = bisect_right(starts, (key, c)) - 1
        return i >= 0 and starts[i][0] == key and c <= his[i]

    return holds


class _WindowCounts:
    """The cover counts of a window in column form, class by class.

    The fields of the window's _kernels.Histogram: ids, the class of each
    window row, the classes numbered as they first come; class k's support
    residues residues[ends[k]:ends[k + 1]], and counts, window and region,
    its lattice count and the window's and the region's points at each;
    total and covered, the window's sum of counts and the region's covered
    count; and largest, the largest count.  extra maps a window column key
    to its explicit additions {c: count}.  Budgets are checked shape by
    shape, before each shape's work; each column is charged its residues
    mod period, a bound on its share of the lattice evaluations, and a
    refused scan evaluates nothing."""

    def __init__(self, group, mt, indexes, window, region):
        from . import _kernels  # loaded, and maybe compiled, when the balls grew

        self.group, self.rows = group, window
        self.period = lcm(*(index[1] for index in indexes if index))
        lookups = max((index[2] for index in indexes if index), default=0)
        evaluations, histogram = _kernels.residue_histogram(
            group._length - 1, window, region, [index[3] for index in indexes if index],
            SCAN_BUDGET // lookups if lookups else len(window) // (group._length + 1))

        self.extra, holds = {}, None
        for shape, centers, index in zip(mt.shapes, mt.centers, indexes):
            if index is None:
                holds = holds or _row_finder(group, window)
                for p in _scatter(group, shape, centers):
                    key, x = group._column_of(p)
                    if holds(key, x):
                        col = self.extra.setdefault(key, {})
                        col[x] = col.get(x, 0) + 1
            elif evaluations * index[2] > SCAN_BUDGET:
                raise BudgetError("lattice window scan too large")
        (self.ids, self.ends, self.residues, self.counts, self.window, self.region, self.total,
         self.covered, self.largest) = histogram

    def at(self, k, c):
        """The lattice count at last coordinate c of a column of class k: at
        residue r when the class holds every residue, else a bisection."""
        lo, hi, r = self.ends[k], self.ends[k + 1], c % self.period
        return self.counts[lo + r if hi - lo == self.period
                           else bisect_left(self.residues, r, lo, hi)]

    def column_classes(self):
        """{window column key: its class}."""
        return dict(zip(self.group._row_keys(self.rows), self.ids))


def _first_bad(group, radius, scan, points, bad, clean):
    """The first five points of ball(radius), in (norm, tuple) order, whose count
    passes bad; points holds the ball's points at each support residue, and
    clean tells that no lattice count there passes bad.  Only columns with
    explicit additions, or of a class with a bad count where the ball has
    points, are walked, through the sphere rows, which are cut only when
    there is such a column."""
    if clean and not scan.extra:
        return []
    ends = scan.ends  # the class of each support residue, then of each bad one
    owners = chain.from_iterable(map(repeat, range(len(ends) - 1),
                                     map(operator.sub, ends[1:], ends)))
    bad_classes = set(compress(compress(owners, points), map(bad, compress(scan.counts, points))))
    class_of = scan.column_classes()
    suspects = {key for key, k in class_of.items() if k in bad_classes}.union(scan.extra)
    if not suspects:
        return []
    found = []
    for key, lo, hi in chain.from_iterable(map(group._sphere_rows, range(radius + 1))):
        if key not in suspects:
            continue
        k, col = class_of[key], scan.extra.get(key, {})
        for c in range(lo, hi + 1):
            if bad(scan.at(k, c) + col.get(c, 0)):
                found.append(group._point(key, c))
                if len(found) == 5:
                    return found
    return found


def _column_scan(group, mt, indexes, window_radius, region_radius):
    """(window size, region size, sum of counts, covered count, first uncovered,
    first collisions) on Z^d and Heisenberg, class by class: the sums are dot
    products of each class's counts with its points per residue, and an
    explicit addition e at a point of lattice count h adds e to the sum, and
    one to the covered count when h = 0 and the point is in the region."""
    group._grow(group._check_radius(window_radius))
    region = group._rows(region_radius)
    scan = _WindowCounts(group, mt, indexes, group._rows(window_radius), region)
    total, covered_count = scan.total, scan.covered
    if scan.extra:
        holds, class_of = _row_finder(group, region), scan.column_classes()
        for key, col in scan.extra.items():
            total += sum(col.values())
            covered_count += sum(1 for c in col
                                 if holds(key, c) and not scan.at(class_of[key], c))
    # the lattice counts leave no region point uncovered when they cover as
    # many points as the region has, and make no collision when none passes 1
    region_size = sum(scan.region)
    uncovered = _first_bad(group, region_radius, scan, scan.region, operator.not_,
                           scan.covered == region_size)
    collision_points = _first_bad(group, window_radius, scan, scan.window,
                                  partial(operator.lt, 1), scan.largest <= 1)
    return (sum(scan.window), region_size, total, covered_count, uncovered, collision_points)


def _point_scan(group, mt, spheres, region_radius):
    """The same on a free group, whose center sets are all explicit: one count per
    window point, kept in (norm, tuple) order."""
    counts = {w: 0 for sphere in spheres for w in sphere}
    for shape, centers in zip(mt.shapes, mt.centers):
        for p in _scatter(group, shape, centers):
            if p in counts:
                counts[p] += 1
    region_size = sum(map(len, spheres[:region_radius + 1]))
    covered_count, uncovered = 0, []
    for w, hits in islice(counts.items(), region_size):
        if hits:
            covered_count += 1
        elif len(uncovered) < 5:
            uncovered.append(w)
    collision_points = list(islice((w for w, hits in counts.items() if hits > 1), 5))
    return (len(counts), region_size, sum(counts.values()), covered_count,
            uncovered, collision_points)


class TileVerification(Record):
    """Windowed partition certificate: disjoint on ball(R), covered on ball(R - margin)."""

    passed: bool
    disjoint: bool
    covered: bool
    window_radius: int
    margin: int
    region_radius: int
    window_size: int
    region_size: int
    covered_count: int
    density: Fraction
    collisions: tuple
    uncovered: tuple


def verify_multitile_window(mt, window_radius):
    """Exhaustively check the partition property of a multi-tile on a ball window."""
    R = integer_parameter("window_radius", window_radius, 0)
    group = mt.group
    margin = group._max_norm([t for shape in mt.shapes for t in shape])
    if margin > R:
        raise WindowTooSmallError(
            f"window radius {R} is smaller than the largest shape diameter {margin}"
        )
    region_radius = R - margin
    # every lattice's residue index is built once, which also validates the
    # lattice, before any scan work or budget refusal
    indexes = [_residue_index(group, shape, centers) if isinstance(centers, LatticeCenters)
               else None for shape, centers in zip(mt.shapes, mt.centers)]
    if isinstance(group, (ZdGroup, HeisenbergGroup)):
        scan = _column_scan(group, mt, indexes, R, region_radius)
    else:
        spheres = list(map(group._sphere_points, range(group._check_radius(R) + 1)))
        scan = _point_scan(group, mt, spheres, region_radius)
    window_size, region_size, total, covered_count, uncovered, collision_points = scan
    gathers = [_gatherer(group, shape, centers, index)
               for shape, centers, index in zip(mt.shapes, mt.centers, indexes)]
    collisions = tuple(
        (w, tuple((i, c) for i, gather in enumerate(gathers) for c in gather(w)))
        for w in collision_points
    )

    disjoint = not collision_points
    covered = not uncovered
    return TileVerification(
        passed=disjoint and covered,
        disjoint=disjoint,
        covered=covered,
        window_radius=R,
        margin=margin,
        region_radius=region_radius,
        window_size=window_size,
        region_size=region_size,
        covered_count=covered_count,
        density=Fraction(total, window_size),
        collisions=collisions,
        uncovered=tuple(uncovered),
    )


class InvarianceReport(Record):
    """|KT delta T| / |T| against a target epsilon."""

    K: GroupSubset
    epsilon: Fraction
    achieved: Fraction
    passed: bool


def invariance(T, K, epsilon):
    """Exact (K, epsilon)-invariance check: |KT delta T| / |T| <= epsilon."""
    if T.group != K.group:
        raise MixedGroupError("T and K belong to different groups")
    if not len(T):
        raise EmptySetError("invariance of the empty set is undefined")
    epsilon = Fraction(epsilon)
    mul = T.group._mul_raw
    KT = {mul(k, t) for k in K for t in T}
    achieved = Fraction(len(KT ^ T.elements), len(T))
    return InvarianceReport(K=K, epsilon=epsilon, achieved=achieved, passed=achieved <= epsilon)


def _axis_tile(shape, moduli):
    """shape with the center lattice of the axis steps moduli[i] * e_i."""
    d = len(moduli)
    gens = [tuple(q if j == i else 0 for j in range(d)) for i, q in enumerate(moduli)]
    return MultiTile([shape], [LatticeCenters(gens)])


def cube_tile(group, k):
    """The cube {0..k-1}^d of Z^d with the (k e_i) center lattice; an interval for d = 1."""
    return _axis_tile(zd_cube(group, k), (k,) * group.d)


class FolnerTile(namedtuple("FolnerTile", "size window shape moduli")):
    """A built-in tile of size points, verified at radius window: shape() builds
    the shape, and its centers are the lattice of the axis steps moduli[i] * e_i."""

    __slots__ = ()

    def multitile(self):
        return _axis_tile(self.shape(), self.moduli)


def folner_tiles(group, n):
    """The built-in Folner tiles of at most n points, smallest first, built when read.

    Z^d has the cubes {0..k-1}^d with the (k e_i) lattice, verified at 4k;
    Heisenberg the cuboids [0,m]^2 x [0,m^2] with moduli (m+1, m+1, m^2+1),
    verified at 2(m^2+2)."""
    integer_parameter("n", n, 1)
    if isinstance(group, ZdGroup):
        d = group.d
        tiles = (FolnerTile(k ** d, 4 * k, partial(zd_cube, group, k), (k,) * d)
                 for k in count(1))
    elif isinstance(group, HeisenbergGroup):
        tiles = (FolnerTile((m + 1) ** 2 * (m * m + 1), 2 * (m * m + 2),
                            partial(heisenberg_cuboid, group, m), (m + 1, m + 1, m * m + 1))
                 for m in count())
    else:
        raise UnsupportedError("no built-in tiling family for this group")
    return takewhile(lambda tile: tile.size <= n, tiles)


def folner_multitile_sequence(group, n, verify=True):
    """The largest built-in tile of size <= n (folner_tiles), window-verified by default."""
    tile = max(folner_tiles(group, n))
    mt = tile.multitile()
    if verify:
        report = verify_multitile_window(mt, tile.window)
        if not report.passed:
            raise RuntimeError(f"built-in tile failed window verification at radius "
                               f"{tile.window}: {report}")
    return mt
