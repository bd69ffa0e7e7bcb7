"""Boundary operators on finite group subsets and the isoperimetric profile I_G(n).

The boundary convention is left multiplication: g lies on the inner boundary
of F when sg leaves F for some generator s.  Boundaries are then invariant
under right translation F -> F*c, which is what makes "F contains the
identity" a harmless normalization in the profile search.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (
    BudgetError,
    ConfigError,
    EmptySetError,
    MixedGroupError,
    ParameterError,
    WindowTooSmallError,
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


@dataclass(frozen=True)
class ProfilePoint:
    """One profile value: the minimum ratio over subsets of size <= n, with a witness."""

    n: int
    value: Fraction
    witness: GroupSubset


class ProfileResult:
    """Profile points for n = 1..n_max plus a completeness flag."""

    def __init__(self, points, complete):
        self.points = tuple(points)
        self.complete = bool(complete)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def value(self, n):
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


def neighbor_table(group, radius):
    """ball(radius) in canonical order, with the index of s*g per generator s (-1 outside)."""
    order = list(group.ball(radius))
    index = {g: i for i, g in enumerate(order)}
    acts = [group._left[lab] for lab in group.labels]
    return order, [[index.get(act(g), -1) for act in acts] for g in order]


def profile_exact(group, n_max, node_budget=None):
    """Exact I_G(n) for n <= n_max over connected subsets containing the identity.

    Connectivity and the identity normalization lose nothing: boundaries are
    right-translation equivariant, and a disconnected set has a component
    whose ratio is no larger.  Each connected subset is enumerated exactly
    once by extending with unseen neighbors of the newest member.
    """
    if n_max < 1:
        raise ParameterError(f"n_max must be positive, got {n_max}")
    cap = search_cap(group)
    limit = min(n_max, cap)

    order, nbr = neighbor_table(group, limit - 1)
    U = len(order)

    # per size: [num, den, sort key, member indices]; den 0 = unseen
    best = [[0, 0, None, None] for _ in range(limit + 1)]
    in_set = bytearray(U)
    out_cnt = [0] * U
    members = []
    state = {"B": 0, "nodes": 0}

    def record():
        size = len(members)
        num, den = state["B"], size
        slot = best[size]
        if slot[1] and num * slot[1] > slot[0] * den:
            return
        key = tuple(sorted(order[i] for i in members))
        if slot[1] and num * slot[1] == slot[0] * den and key >= slot[2]:
            return
        best[size] = [num, den, key, tuple(members)]

    def add(w):
        in_set[w] = 1
        members.append(w)
        out = 0
        for u in nbr[w]:
            if u < 0 or not in_set[u]:
                out += 1
            else:
                out_cnt[u] -= 1
                if out_cnt[u] == 0:
                    state["B"] -= 1
        out_cnt[w] = out
        if out:
            state["B"] += 1

    def remove(w):
        if out_cnt[w]:
            state["B"] -= 1
        for u in nbr[w]:
            if u >= 0 and in_set[u] and u != w:
                if out_cnt[u] == 0:
                    state["B"] += 1
                out_cnt[u] += 1
        in_set[w] = 0
        members.pop()

    seen = bytearray(U)

    def grow(candidates):
        for i, w in enumerate(candidates):
            state["nodes"] += 1
            if node_budget is not None and state["nodes"] > node_budget:
                raise BudgetError("profile_exact exceeded its node budget")
            add(w)
            record()
            if len(members) < limit:
                fresh = [u for u in nbr[w] if u >= 0 and not seen[u]]
                for u in fresh:
                    seen[u] = 1
                grow(candidates[i + 1 :] + fresh)
                for u in fresh:
                    seen[u] = 0
            remove(w)

    seen[0] = 1
    add(0)
    record()
    fresh = [u for u in nbr[0] if u >= 0 and not seen[u]]
    for u in fresh:
        seen[u] = 1
    if limit > 1:
        grow(fresh)
    remove(0)

    points = []
    running = None
    for n in range(1, limit + 1):
        num, den, key, idxs = best[n]
        if den:
            cand = (Fraction(num, den), key, idxs)
            if running is None or (cand[0], cand[1]) < (running[0], running[1]):
                running = cand
        witness = GroupSubset(group, [order[i] for i in running[2]])
        points.append(ProfilePoint(n, running[0], witness))
    return ProfileResult(points, complete=(n_max <= cap))


@dataclass(frozen=True)
class SubsetSearchProfile:
    """Profile values from the unrestricted all-subsets search, no witnesses."""

    values: tuple
    nodes: int
    complete: bool

    def value(self, n):
        if not 1 <= n <= len(self.values):
            raise ParameterError(f"no value for n={n}")
        return self.values[n - 1]


def profile_all_subsets(group, n_max, radius=None, node_budget=None):
    """I_G(n) over ALL subsets of ball(radius) containing e, connected or not.

    This is the second, independent route behind profile_exact: a plain
    include/exclude branch-and-bound over the whole ball, run by the search
    kernel.  With radius >= n_max - 1 it provably agrees with profile_exact.
    """
    from ._kernels import subset_min_ratio

    if n_max < 1:
        raise ParameterError(f"n_max must be positive, got {n_max}")
    if radius is None:
        radius = n_max - 1
    order, nbr = neighbor_table(group, radius)
    flat = [u for row in nbr for u in row]
    budget = node_budget if node_budget is not None else 1 << 62
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
    if k < 1:
        raise ParameterError(f"cube side must be positive, got {k}")
    return GroupSubset(group, [tuple(p) for p in product(range(k), repeat=group.d)])


def heisenberg_cuboid(group, m):
    """The shape [0,m] x [0,m] x [0,m^2] in Heisenberg coordinates, size (m+1)^2(m^2+1)."""
    if not isinstance(group, HeisenbergGroup):
        raise ConfigError("cuboids are a Heisenberg shape family")
    if m < 0:
        raise ParameterError(f"cuboid parameter must be nonnegative, got {m}")
    cells = [
        (a, b, c)
        for a in range(m + 1)
        for b in range(m + 1)
        for c in range(m * m + 1)
    ]
    return GroupSubset(group, cells)


def profile_upper(group, n, family):
    """Best boundary ratio over the named shape family restricted to size <= n."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if isinstance(group, ZdGroup):
        if family == "intervals":
            if group.d != 1:
                raise ConfigError("the intervals family lives on Z^1")
            family = "cubes"
        if family != "cubes":
            raise ConfigError(f"unknown Z^d shape family {family!r}")
        best = None
        k = 1
        while k**group.d <= n:
            r = boundary_ratio(zd_cube(group, k))
            if best is None or r < best:
                best = r
            k += 1
        return best
    if isinstance(group, HeisenbergGroup):
        if family not in ("cuboids", "cuboids_n_n_n2"):
            raise ConfigError(f"unknown Heisenberg shape family {family!r}")
        best = None
        m = 0
        while (m + 1) ** 2 * (m * m + 1) <= n:
            r = boundary_ratio(heisenberg_cuboid(group, m))
            if best is None or r < best:
                best = r
            m += 1
        return best
    raise ConfigError(f"no built-in shape family for {group!r}")
