"""Boundary operators on finite group subsets and the isoperimetric profile I_G(n).

The boundary convention is left multiplication: g lies on the inner boundary
of F when sg leaves F for some generator s.  Boundaries are then invariant
under right translation F -> F*c, which is what makes "F contains the
identity" a harmless normalization in the profile search.  The cube and
cuboid families are defined once, by tilings.folner_tiles.
"""

from fractions import Fraction
from itertools import product

from ._record import Record
from .errors import (
    BudgetError,
    ConfigError,
    EmptySetError,
    MixedGroupError,
    ParameterError,
    WindowTooSmallError,
    integer_parameter,
)
from .groups import GroupSubset, HeisenbergGroup, ZdGroup


def inner_boundary(F):
    """Elements of F pushed out of F by some generator: {g in F : sg not in F}."""
    group = F.group
    members = F.elements
    acts = [group._left[lab] for lab in group.labels]
    bdry = [g for g in F if any(act(g) not in members for act in acts)]
    return GroupSubset(group, bdry)


def outer_boundary(F, window):
    """Inner boundary of the complement of F, computed inside a window containing S*F."""
    if F.group != window.group:
        raise MixedGroupError("F and window belong to different groups")
    group = F.group
    if not F.elements <= window.elements:
        raise ParameterError("F must be contained in the window")
    moved = set()
    for lab in group.labels:
        act = group._left[lab]
        moved.update(act(g) for g in F)
    if not moved <= window.elements:
        raise WindowTooSmallError(
            "window does not contain S*F; outer boundary would be clipped"
        )
    return GroupSubset(group, moved - F.elements)


def boundary_ratio(F):
    """Exact |inner_boundary(F)| / |F|."""
    if not len(F):
        raise EmptySetError("boundary ratio of the empty set is undefined")
    return Fraction(len(inner_boundary(F)), len(F))


def right_translate(F, c):
    """The right translate F*c; boundaries commute with this operation."""
    group = F.group
    group.validate_element(c)
    return GroupSubset(group, [group._mul_raw(g, c) for g in F])


class ProfilePoint(Record):
    """One profile value: the minimum ratio over subsets of size <= n, with a witness."""

    n: int
    value: Fraction
    witness: GroupSubset


class ProfileResult:
    """Profile points for n = 1..n_max, a completeness flag and the search's node count."""

    def __init__(self, points, complete, nodes):
        self.points = tuple(points)
        self.complete = bool(complete)
        self.nodes = nodes

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def value(self, n):
        integer_parameter("n", n, 1)
        for pt in self.points:
            if pt.n == n:
                return pt.value
        raise ParameterError(f"no profile point for n={n}")

    def values(self):
        return [pt.value for pt in self.points]

    def __repr__(self):
        vals = ", ".join(str(pt.value) for pt in self.points)
        tail = "" if self.complete else ", incomplete"
        return f"ProfileResult([{vals}]{tail})"


def search_cap(group):
    """Default exact-search size budget: 10 for Z^d with d <= 2, 8 otherwise."""
    if isinstance(group, ZdGroup) and group.d <= 2:
        return 10
    return 8


def neighbor_table(group, radius, inverse=False):
    """ball(radius) in canonical order; the row-major table of s*g per element g and
    generator s, an array('i') of vertex ids with -1 outside the ball; when
    inverse is set, the id of g^-1 per element g (the ball holds it, as the
    generators are symmetric), else None; and each element's place in tuple
    order, an array('i').  The group builds it (MarkedGroup._table)."""
    return group._table(radius, inverse)


def profile_exact(group, n_max, node_budget=None):
    """Exact I_G(n) for n <= n_max over connected subsets containing the identity.

    Connectivity and the identity normalization lose nothing: boundaries are
    right-translation equivariant, and a disconnected set has a component
    whose ratio is no larger.  The connected-set kernel keeps, per size, the
    fewest boundary members, ties to the least sorted element tuple (compared
    as sorted ranks in tuple order) over the connected sets that contain the
    identity.  Where tuple order is right-invariant (group.right_ordered) all
    right translates of a set are one candidate, so the kernel visits each
    translation class once, as the translate whose least element is the
    identity, and keys it by its least translate that contains the identity:
    the one whose least element is the least inverse of a member.  Elsewhere
    it visits every connected set that contains the identity.
    """
    from ._kernels import min_boundary_sets

    integer_parameter("n_max", n_max, 1)
    budget = 1 << 62 if node_budget is None else integer_parameter("node_budget", node_budget, 1)
    cap = search_cap(group)
    limit = min(n_max, cap)

    order, flat, inverse, ranks = neighbor_table(group, limit - 1, group.right_ordered)
    best, sets, nodes, complete = min_boundary_sets(
        flat, len(order), len(group.labels), limit, ranks, budget, inverse)
    if not complete:
        raise BudgetError("profile_exact exceeded its node budget")

    points = []
    running = None
    for n in range(1, limit + 1):
        if best[n] >= 0:
            key = tuple(sorted(order[i] for i in sets[n]))
            if running is None or (Fraction(best[n], n), key) < running[:2]:
                running = (Fraction(best[n], n), key, sets[n])
        witness = GroupSubset(group, [order[i] for i in running[2]])
        points.append(ProfilePoint(n, running[0], witness))
    return ProfileResult(points, complete=(n_max <= cap), nodes=nodes)


class SubsetSearchProfile(Record):
    """Profile values from the unrestricted all-subsets search, no witnesses."""

    values: tuple
    nodes: int
    complete: bool

    def value(self, n):
        if integer_parameter("n", n, 1) > len(self.values):
            raise ParameterError(f"no value for n={n}")
        return self.values[n - 1]


def profile_all_subsets(group, n_max, radius=None, node_budget=None):
    """I_G(n) over ALL subsets of ball(radius) containing e, connected or not.

    This is the second, independent route behind profile_exact: a plain
    include/exclude branch-and-bound over the whole ball, run by the search
    kernel.  With radius >= n_max - 1 it provably agrees with profile_exact.
    """
    from ._kernels import subset_min_ratio

    integer_parameter("n_max", n_max, 1)
    radius = n_max - 1 if radius is None else integer_parameter("radius", radius, 0)
    budget = 1 << 62 if node_budget is None else integer_parameter("node_budget", node_budget, 1)
    order, flat, _, _ = neighbor_table(group, radius)
    num, den, nodes, complete = subset_min_ratio(
        flat, len(order), len(group.labels), n_max, budget)
    values = []
    running = None
    for n in range(1, n_max + 1):
        if den[n]:
            cand = Fraction(num[n], den[n])
            if running is None or cand < running:
                running = cand
        values.append(running)
    return SubsetSearchProfile(values=tuple(values), nodes=nodes, complete=complete)


def zd_cube(group, k):
    """The cube {0..k-1}^d as a GroupSubset of Z^d."""
    if not isinstance(group, ZdGroup):
        raise ConfigError("cubes are a Z^d shape family")
    integer_parameter("k", k, 1)
    return GroupSubset(group, [tuple(p) for p in product(range(k), repeat=group.d)])


def heisenberg_cuboid(group, m):
    """The shape [0,m] x [0,m] x [0,m^2] in Heisenberg coordinates, size (m+1)^2(m^2+1)."""
    if not isinstance(group, HeisenbergGroup):
        raise ConfigError("cuboids are a Heisenberg shape family")
    integer_parameter("m", m, 0)
    cells = [
        (a, b, c)
        for a in range(m + 1)
        for b in range(m + 1)
        for c in range(m * m + 1)
    ]
    return GroupSubset(group, cells)


def profile_upper(group, n, family):
    """Best boundary ratio over the named shape family (tilings.folner_tiles) of size <= n.

    On Z^d it is the ratio of the largest cube, the only one built.  Let M_i
    be the largest |s_i| over the generators s.  A point g of the cube
    {0..k-1}^d stays inside under every s exactly when M_i <= g_i <= k - 1 - M_i
    for each i (the generating set is symmetric), so the cube's interior is a
    box with sides (k - 2 M_i)^+ and its ratio is 1 - prod_i (1 - 2 M_i / k)^+.
    Each factor is nonnegative and does not decrease with k, so the ratio does
    not increase with k.  The Heisenberg cuboids, O(n^(1/4)) of them, are all
    read."""
    from .tilings import folner_tiles

    integer_parameter("n", n, 1)
    if isinstance(group, ZdGroup):
        if family == "intervals" and group.d != 1:
            raise ConfigError("the intervals family lives on Z^1")
        if family not in ("intervals", "cubes"):
            raise ConfigError(f"unknown Z^d shape family {family!r}")
    elif isinstance(group, HeisenbergGroup):
        if family not in ("cuboids", "cuboids_n_n_n2"):
            raise ConfigError(f"unknown Heisenberg shape family {family!r}")
    else:
        raise ConfigError(f"no built-in shape family for {group!r}")
    if isinstance(group, ZdGroup):
        return boundary_ratio(max(folner_tiles(group, n)).shape())
    return min(boundary_ratio(tile.shape()) for tile in folner_tiles(group, n))
