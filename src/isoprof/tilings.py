"""Tiles and multi-tiles: shapes whose right translates partition the group.

A multi-tile is a list of shapes T_i (each containing the identity) with
per-shape center sets C_i; the claim is that {T_i * c : c in C_i} partitions
the group.  The full claim is not finitely checkable, so verification runs on
a window: disjointness of translates is checked on all of ball(R), and
coverage on ball(R - margin) where margin is the largest shape diameter,
which removes edge effects near the window boundary.

The scan never enumerates center sets globally.  A window point w lies in
T * c exactly when w * c^{-1} lands in T, so the candidate centers for w are
{t^{-1} w : t in T} intersected with the center set; for box-shaped
Heisenberg shapes with axis-aligned lattice moduli the candidates come out
of three one-dimensional interval counts, which keeps radius-36 windows
(716,455 ball points) cheap.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetError,
    ConfigError,
    EmptySetError,
    MixedGroupError,
    ParameterError,
    UnsupportedError,
    WindowTooSmallError,
)
from .groups import GroupSubset, HeisenbergGroup, ZdGroup
from .isoperimetry import heisenberg_cuboid, zd_cube

# generic (non-box) lattice scans and explicit scatters beyond this refuse
SCAN_BUDGET = 5_000_000


class ExplicitCenters:
    """A finite explicit list of translation centers."""

    def __init__(self, elements):
        elements = [tuple(int(c) for c in e) for e in elements]
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
        gens = [tuple(int(c) for c in g) for g in generators]
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


def _centers_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("center set must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "lattice":
        if set(obj) != {"kind", "generators"}:
            raise ConfigError("lattice centers need exactly the fields kind, generators")
        return LatticeCenters(obj["generators"])
    if kind == "explicit":
        if set(obj) != {"kind", "list"}:
            raise ConfigError("explicit centers need exactly the fields kind, list")
        return ExplicitCenters(obj["list"])
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
        for cs in centers:
            if not isinstance(cs, (ExplicitCenters, LatticeCenters)):
                raise ParameterError("centers must be ExplicitCenters or LatticeCenters")
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
    shapes = []
    for raw in raw_shapes:
        elems = [group.element_from_json(e) for e in raw]
        shapes.append(group.subset(elems))
    raw_centers = obj["centers"]
    if isinstance(raw_centers, dict):
        raw_centers = [raw_centers] * len(shapes)
    if len(raw_centers) != len(shapes):
        raise ConfigError("need one center set per shape")
    centers = [_centers_from_json(c) for c in raw_centers]
    return MultiTile(shapes, centers)


def _zd_lattice_solver(group, gens):
    """Membership test for the lattice spanned by d integer vectors in Z^d."""
    d = group.d
    if len(gens) != d:
        raise UnsupportedError(
            f"Z^{d} lattice verification needs exactly {d} generators, got {len(gens)}"
        )
    inv = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    mat = [[Fraction(gens[j][i]) for j in range(d)] for i in range(d)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if mat[r][col]), None)
        if pivot is None:
            raise ConfigError("lattice generators are linearly dependent")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = mat[col][col]
        mat[col] = [x / scale for x in mat[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(d):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]

    def contains(vec):
        for row in inv:
            if sum(f * c for f, c in zip(row, vec)).denominator != 1:
                return False
        return True

    return contains


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


def _shape_box(shape):
    """The coordinate box of a Heisenberg shape, or None if the shape is not a full box."""
    pts = list(shape)
    lo = [min(p[i] for p in pts) for i in range(3)]
    hi = [max(p[i] for p in pts) for i in range(3)]
    volume = 1
    for a, b in zip(lo, hi):
        volume *= b - a + 1
    if volume != len(pts):
        return None
    return lo, hi


def _count_multiples(lo, hi, m):
    """How many multiples of m lie in [lo, hi]."""
    if hi < lo:
        return 0
    return hi // m - (lo - 1) // m


def _multiples(lo, hi, m):
    first = -((-lo) // m) * m
    return range(first, hi + 1, m)


def _scan_lattice_zd(group, shape, contains, counts):
    if len(counts) * len(shape) > SCAN_BUDGET:
        raise BudgetError("lattice window scan too large")
    pts = list(shape)
    for w in counts:
        hits = 0
        for t in pts:
            if contains(tuple(a - b for a, b in zip(w, t))):
                hits += 1
        if hits:
            counts[w] += hits


def _scan_lattice_heis(group, shape, moduli, counts):
    m1, m2, m3 = moduli
    box = _shape_box(shape)
    if box is not None:
        (lo1, lo2, lo3), (hi1, hi2, hi3) = box
        for w in counts:
            a, b, c = w
            hits = 0
            for g1 in _multiples(a - hi1, a - lo1, m1):
                for g2 in _multiples(b - hi2, b - lo2, m2):
                    base = c + g1 * g2 - a * g2
                    hits += _count_multiples(base - hi3, base - lo3, m3)
            if hits:
                counts[w] += hits
        return
    if len(counts) * len(shape) > SCAN_BUDGET:
        raise BudgetError("non-box Heisenberg shape: window scan too large")
    invs = [group.inverse(t) for t in shape]
    mul = group._mul_raw
    for w in counts:
        hits = 0
        for ti in invs:
            c = mul(ti, w)
            if c[0] % m1 == 0 and c[1] % m2 == 0 and c[2] % m3 == 0:
                hits += 1
        if hits:
            counts[w] += hits


def _scan_explicit(group, shape, centers, counts):
    if len(centers.elements) * len(shape) > SCAN_BUDGET:
        raise BudgetError("explicit center scatter too large")
    mul = group._mul_raw
    for c in centers.elements:
        group.validate_element(c)
        for t in shape:
            p = mul(t, c)
            if p in counts:
                counts[p] += 1


def _scan_shape(group, shape, centers, counts):
    if isinstance(centers, ExplicitCenters):
        _scan_explicit(group, shape, centers, counts)
    elif isinstance(group, ZdGroup):
        contains = _zd_lattice_solver(group, centers.generators)
        _scan_lattice_zd(group, shape, contains, counts)
    elif isinstance(group, HeisenbergGroup):
        moduli = _heis_axis_moduli(centers.generators)
        _scan_lattice_heis(group, shape, moduli, counts)
    else:
        raise UnsupportedError("lattice center sets are supported on Z^d and Heisenberg only")


def _hits_at_point(mt, w):
    """All (shape index, center) pairs whose translate contains the point w."""
    group = mt.group
    mul = group._mul_raw
    hits = []
    for i, (shape, centers) in enumerate(zip(mt.shapes, mt.centers)):
        if isinstance(centers, ExplicitCenters):
            for c in centers.elements:
                if mul(w, group.inverse(c)) in shape:
                    hits.append((i, c))
        elif isinstance(group, ZdGroup):
            contains = _zd_lattice_solver(group, centers.generators)
            for t in shape:
                c = tuple(a - b for a, b in zip(w, t))
                if contains(c):
                    hits.append((i, c))
        else:
            moduli = _heis_axis_moduli(centers.generators)
            m1, m2, m3 = moduli
            for t in shape:
                c = mul(group.inverse(t), w)
                if c[0] % m1 == 0 and c[1] % m2 == 0 and c[2] % m3 == 0:
                    hits.append((i, c))
    return hits


@dataclass(frozen=True)
class TileVerification:
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
    group = mt.group
    R = int(window_radius)
    if R < 0:
        raise ParameterError("window radius must be nonnegative")
    margin = max(group.word_norm(t) for shape in mt.shapes for t in shape)
    if margin > R:
        raise WindowTooSmallError(
            f"window radius {R} is smaller than the largest shape diameter {margin}"
        )
    window = group.ball(R)
    counts = dict.fromkeys(window, 0)
    for shape, centers in zip(mt.shapes, mt.centers):
        _scan_shape(group, shape, centers, counts)

    region_radius = R - margin
    region_size = 0
    covered_count = 0
    uncovered = []
    for w in window:
        if group.word_norm(w) <= region_radius:
            region_size += 1
            if counts[w] > 0:
                covered_count += 1
            elif len(uncovered) < 5:
                uncovered.append(w)

    collision_points = []
    for w in window:
        if counts[w] > 1:
            collision_points.append(w)
            if len(collision_points) == 5:
                break
    collisions = tuple((w, tuple(_hits_at_point(mt, w))) for w in collision_points)

    disjoint = not collision_points
    covered = not uncovered
    return TileVerification(
        passed=disjoint and covered,
        disjoint=disjoint,
        covered=covered,
        window_radius=R,
        margin=margin,
        region_radius=region_radius,
        window_size=len(window),
        region_size=region_size,
        covered_count=covered_count,
        density=Fraction(sum(counts.values()), len(window)),
        collisions=collisions,
        uncovered=tuple(uncovered),
    )


@dataclass(frozen=True)
class InvarianceReport:
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


def cube_tile(group, k):
    """The cube {0..k-1}^d of Z^d with the (k e_i) center lattice; an interval for d = 1."""
    shape = zd_cube(group, k)
    d = group.d
    gens = [tuple(k if j == i else 0 for j in range(d)) for i in range(d)]
    return MultiTile([shape], [LatticeCenters(gens)])


def folner_multitile_sequence(group, n, verify=True, window_radius=None):
    """The largest built-in tile of size <= n, window-verified by default.

    Z^d gets the k x .. x k cube with the (k e_i) lattice; Heisenberg gets
    the cuboid [0,m]^2 x [0,m^2] with moduli (m+1, m+1, m^2+1).
    """
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if isinstance(group, ZdGroup):
        d = group.d
        k = 1
        while (k + 1) ** d <= n:
            k += 1
        mt = cube_tile(group, k)
        window = 4 * k if window_radius is None else window_radius
    elif isinstance(group, HeisenbergGroup):
        m = 0
        while (m + 2) ** 2 * ((m + 1) ** 2 + 1) <= n:
            m += 1
        shape = heisenberg_cuboid(group, m)
        centers = LatticeCenters([(m + 1, 0, 0), (0, m + 1, 0), (0, 0, m * m + 1)])
        mt = MultiTile([shape], [centers])
        window = 2 * (m * m + 2) if window_radius is None else window_radius
    else:
        raise UnsupportedError("no built-in tiling family for this group")
    if verify:
        report = verify_multitile_window(mt, window)
        if not report.passed:
            raise RuntimeError(
                f"built-in tile failed window verification at radius {window}: {report}"
            )
    return mt
