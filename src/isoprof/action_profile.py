"""Bounded partitions of a graphing and the action isoperimetric profile.

A BoundedPartition is the finite stand-in for a subequivalence relation with
classes of size at most n.  Its boundary is the set of vertices some
generator moves out of their cell; vertices with an undefined shift count as
boundary for that generator, which keeps the profile an upper-bound-safe
quantity on partial-map graphings.

The exact profile search runs two independent routes: a dynamic program over
vertex subsets (connected cells suffice, since splitting cells into
components never changes the boundary) and a branch-and-bound packing of
"interior" vertices.  The packing view: a vertex is interior exactly when its
closed generator neighborhood fits inside its cell, so minimizing boundary
mass is the same as packing a maximum-weight set of closed neighborhoods
whose transitive-overlap unions stay within the size bound.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    CoverageError,
    NotApplicableError,
    ParameterError,
    WindowExceededError,
)
from .graphings import MeasuredGraphing

EXHAUSTIVE_LIMIT = 14


class BoundedPartition:
    """A partition of the vertices into cells of size <= n_bound, canonically ordered."""

    def __init__(self, graphing, cells, n_bound):
        if not isinstance(graphing, MeasuredGraphing):
            raise ParameterError("expected a MeasuredGraphing")
        n_bound = int(n_bound)
        if n_bound < 1:
            raise ParameterError("n_bound must be positive")
        self.graphing = graphing
        self.n_bound = n_bound
        V = graphing.n_vertices
        seen = [False] * V
        norm = []
        for cell in cells:
            cell = sorted(set(cell))
            if not cell:
                continue
            if len(cell) > n_bound:
                raise ParameterError(
                    f"cell {cell} has size {len(cell)} > n_bound={n_bound}"
                )
            for v in cell:
                if not 0 <= v < V:
                    raise ParameterError(f"vertex {v} out of range")
                if seen[v]:
                    raise ParameterError(f"vertex {v} appears in two cells")
                seen[v] = True
            norm.append(tuple(cell))
        if not all(seen):
            missing = [v for v in range(V) if not seen[v]]
            raise ParameterError(f"vertices {missing} are not covered by any cell")
        norm.sort(key=lambda c: c[0])
        self.cells = tuple(norm)
        cell_of = [0] * V
        for cid, cell in enumerate(self.cells):
            for v in cell:
                cell_of[v] = cid
        self.cell_of = tuple(cell_of)

    @classmethod
    def from_cell_ids(cls, graphing, cell_of, n_bound):
        groups = {}
        for v, cid in enumerate(cell_of):
            groups.setdefault(cid, []).append(v)
        return cls(graphing, groups.values(), n_bound)

    @classmethod
    def singletons(cls, graphing, n_bound=1):
        return cls(graphing, [[v] for v in range(graphing.n_vertices)], n_bound)

    def cell(self, v):
        return self.cells[self.cell_of[v]]

    def __eq__(self, other):
        if not isinstance(other, BoundedPartition):
            return NotImplemented
        return self.cells == other.cells and self.n_bound == other.n_bound

    def __hash__(self):
        return hash((self.cells, self.n_bound))

    def __repr__(self):
        return f"BoundedPartition({len(self.cells)} cells, n_bound={self.n_bound})"


@dataclass(frozen=True)
class BoundaryMassReport:
    """Boundary vertices of a partition with their measure and per-generator split."""

    boundary_set: tuple
    mass: Fraction
    per_generator: dict


def boundary_mass(graphing, partition):
    """mu of the vertices some generator moves out of their cell (or cannot move)."""
    if partition.graphing is not graphing:
        raise ParameterError("partition belongs to a different graphing")
    per_generator = {}
    boundary = set()
    cell_of = partition.cell_of
    for lab, row in graphing.maps.items():
        moved = []
        for v in range(graphing.n_vertices):
            t = row[v]
            if t is None or cell_of[t] != cell_of[v]:
                moved.append(v)
                boundary.add(v)
        per_generator[lab] = tuple(moved)
    boundary = tuple(sorted(boundary))
    return BoundaryMassReport(
        boundary_set=boundary,
        mass=graphing.mu(boundary),
        per_generator=per_generator,
    )


def _adjacency_masks(graphing):
    V = graphing.n_vertices
    adj = [0] * V
    for row in graphing.maps.values():
        for v, t in enumerate(row):
            if t is not None:
                adj[v] |= 1 << t
                adj[t] |= 1 << v
    return adj


def connected_refinement(graphing, partition):
    """Split every cell into its connected components under generator edges.

    Two cellmates joined by a generator edge stay together, so no vertex
    gains a new way to leave its cell: boundary mass is exactly preserved,
    and cell sizes can only shrink.
    """
    adj = _adjacency_masks(graphing)
    cells = []
    for cell in partition.cells:
        cell_set = set(cell)
        left = set(cell)
        while left:
            start = min(left)
            comp = {start}
            queue = [start]
            while queue:
                v = queue.pop()
                rest = adj[v]
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    u = bit.bit_length() - 1
                    if u in cell_set and u not in comp:
                        comp.add(u)
                        queue.append(u)
            cells.append(sorted(comp))
            left -= comp
    return BoundedPartition(graphing, cells, partition.n_bound)


@dataclass(frozen=True)
class ActionProfileResult:
    """Minimum boundary mass over bounded partitions, with the witness partition."""

    value: Fraction
    partition: BoundedPartition
    method: str
    optimal: bool
    nodes: int
    fallback: bool

    def __iter__(self):
        yield self.value
        yield self.partition


def _connected_cells_by_root(graphing, n):
    """Per root vertex, all connected subsets C with min(C) == root and |C| <= n."""
    V = graphing.n_vertices
    adj = _adjacency_masks(graphing)
    weights = graphing.weights
    rows = list(graphing.maps.values())

    def cell_cost(mask):
        cost = Fraction(0)
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            for row in rows:
                t = row[v]
                if t is None or not (mask >> t) & 1:
                    cost += weights[v]
                    break
        return cost

    per_root = [[] for _ in range(V)]

    for root in range(V):
        out = per_root[root]
        base = 1 << root
        out.append((base, cell_cost(base)))
        if n == 1:
            continue

        # Redelmeier-style growth: 'seen' marks every vertex ever offered as a
        # candidate on the current path, so each connected set appears once
        seen = base

        def grow(mask, size, cand):
            nonlocal seen
            for i, w in enumerate(cand):
                m2 = mask | (1 << w)
                out.append((m2, cell_cost(m2)))
                if size + 1 < n:
                    fresh = []
                    rest = adj[w]
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        u = bit.bit_length() - 1
                        if u > root and not (seen >> u) & 1:
                            fresh.append(u)
                            seen |= 1 << u
                    grow(m2, size + 1, cand[i + 1 :] + fresh)
                    for u in fresh:
                        seen ^= 1 << u

        first = []
        rest = adj[root]
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            if u > root:
                first.append(u)
                seen |= 1 << u
        grow(base, 1, first)
        seen = base
    return per_root


def _exhaustive_exact(graphing, n):
    """Bitmask DP over vertex sets; cells restricted to connected subsets."""
    V = graphing.n_vertices
    per_root = _connected_cells_by_root(graphing, n)
    full = (1 << V) - 1
    INF = Fraction(2)
    value = [INF] * (full + 1)
    choice = [0] * (full + 1)
    value[0] = Fraction(0)
    for mask in range(1, full + 1):
        root = (mask & -mask).bit_length() - 1
        best = INF
        best_cell = 0
        for cmask, cost in per_root[root]:
            if cmask & mask != cmask:
                continue
            cand = cost + value[mask ^ cmask]
            if cand < best or (cand == best and cmask < best_cell):
                best = cand
                best_cell = cmask
        value[mask] = best
        choice[mask] = best_cell
    cells = []
    mask = full
    while mask:
        cmask = choice[mask]
        cells.append([i for i in range(V) if (cmask >> i) & 1])
        mask ^= cmask
    partition = BoundedPartition(graphing, cells, n)
    return value[full], partition


def packing_items(graphing, n):
    """Interior-packing items as (closed-neighborhood masks, scaled integer weights, scale)."""
    rows = list(graphing.maps.values())
    masks = []
    weights = []
    for x in range(graphing.n_vertices):
        nb = 1 << x
        for row in rows:
            t = row[x]
            if t is None:
                break
            nb |= 1 << t
        else:
            if nb.bit_count() <= n:
                masks.append(nb)
                weights.append(graphing.weights[x])
    scale = lcm(*[w.denominator for w in graphing.weights], 1)
    return masks, [int(w * scale) for w in weights], scale


def _bnb_exact(graphing, n, node_budget):
    """Kernel-backed interior packing; returns (value, partition, nodes, complete)."""
    from ._kernels import pack_max_weight

    V = graphing.n_vertices
    masks, int_weights, scale = packing_items(graphing, n)
    best, chosen, nodes, complete = pack_max_weight(masks, int_weights, n, node_budget)
    merged = [masks[i] for i in chosen]
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
    covered = 0
    cells = []
    for m in merged:
        cells.append([v for v in range(V) if (m >> v) & 1])
        covered |= m
    for v in range(V):
        if not (covered >> v) & 1:
            cells.append([v])
    partition = BoundedPartition(graphing, cells, n)
    mass = boundary_mass(graphing, partition).mass
    if complete and mass != 1 - Fraction(best, scale):
        raise RuntimeError(
            "internal: packing optimum disagrees with the recomputed boundary mass"
        )
    return mass, partition, nodes, complete


def profile_action_exact(graphing, n, method="auto", node_budget=None,
                         exhaustive_limit=EXHAUSTIVE_LIMIT):
    """Exact minimum boundary mass over partitions into cells of size <= n."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    budget = node_budget if node_budget is not None else 1 << 62
    V = graphing.n_vertices
    fallback = False
    if method == "auto":
        chosen = "exhaustive" if V <= exhaustive_limit else "bnb"
    elif method == "exhaustive":
        if V <= exhaustive_limit:
            chosen = "exhaustive"
        else:
            chosen = "bnb"
            fallback = True
    elif method == "bnb":
        chosen = "bnb"
    else:
        raise ParameterError(f"unknown method {method!r}")
    if chosen == "exhaustive":
        value, partition = _exhaustive_exact(graphing, n)
        return ActionProfileResult(
            value=value, partition=partition, method="exhaustive",
            optimal=True, nodes=0, fallback=fallback,
        )
    value, partition, nodes, complete = _bnb_exact(graphing, n, budget)
    return ActionProfileResult(
        value=value, partition=partition, method="bnb",
        optimal=complete, nodes=nodes, fallback=fallback,
    )


@dataclass(frozen=True)
class TilingProfileResult:
    """Upper-bound partition built from Rokhlin tower fibers plus leftover singletons."""

    value: Fraction
    partition: BoundedPartition
    coverage: Fraction
    shape_bound: Fraction
    adjusted_bound: Fraction
    towers: object

    def __iter__(self):
        yield self.value
        yield self.partition


def profile_action_tiling(graphing, multitile, epsilon):
    """Partition by tower fibers; its mass is the tiling upper bound on the profile."""
    from .isoperimetry import boundary_ratio
    from .rokhlin import build_towers

    towers = build_towers(graphing, multitile, epsilon)
    if not towers.success:
        raise CoverageError(
            f"tower coverage {towers.coverage} below target 1 - {epsilon}",
            achieved=towers.coverage,
        )
    cells = []
    for shape_fibers in towers.fibers:
        for fiber in shape_fibers:
            cells.append(list(fiber))
    for v in towers.leftover:
        cells.append([v])
    n_bound = max(len(shape) for shape in multitile.shapes)
    partition = BoundedPartition(graphing, cells, n_bound)
    mass = boundary_mass(graphing, partition).mass
    shape_bound = max(boundary_ratio(shape) for shape in multitile.shapes)
    eps_prime = 1 - towers.coverage
    adjusted = shape_bound * (1 - eps_prime) + eps_prime
    return TilingProfileResult(
        value=mass,
        partition=partition,
        coverage=towers.coverage,
        shape_bound=shape_bound,
        adjusted_bound=adjusted,
        towers=towers,
    )


@dataclass(frozen=True)
class IteratedBoundaryReport:
    """Vertices escaping their cell within k generator steps, plus the word-sum bound."""

    k: int
    boundary_set: tuple
    mass: Fraction
    telescoping_bound: Fraction


def iterated_boundary(graphing, partition, k):
    """The k-th boundary: x such that some word of length <= k moves x out of its cell.

    A broken shift chain counts as escaping (same convention as boundary_mass)
    and the reported bound is the sum of mu(w * boundary) over all reduced
    words w of length at most k, which dominates the true mass: the first
    escape or break along the walk happens at a translated boundary point.
    """
    if partition.graphing is not graphing:
        raise ParameterError("partition belongs to a different graphing")
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if k > graphing.free_window:
        raise WindowExceededError(
            f"k={k} exceeds the free window {graphing.free_window}; "
            "wraparound would corrupt the boundary semantics"
        )
    V = graphing.n_vertices
    cell_of = partition.cell_of
    labels = graphing.group.labels
    inv = graphing.group._inv_label
    flagged = [False] * V

    def walk(positions, depth, first_label):
        for lab in labels:
            if first_label is not None and lab == inv[first_label]:
                continue
            row = graphing.maps[lab]
            pos = []
            for v in range(V):
                p = positions[v]
                t = None if p is None else row[p]
                pos.append(t)
                if positions[v] is not None:
                    if t is None or cell_of[t] != cell_of[v]:
                        flagged[v] = True
            if depth + 1 < k:
                walk(pos, depth + 1, lab)

    walk(list(range(V)), 0, None)
    boundary = tuple(v for v in range(V) if flagged[v])
    mass = graphing.mu(boundary)

    base = boundary_mass(graphing, partition).boundary_set
    bound = Fraction(0)

    def word_sum(prefix_positions, depth, first_label):
        nonlocal bound
        image = [p for p in prefix_positions if p is not None]
        bound += graphing.mu(image)
        if depth == k:
            return
        for lab in labels:
            if first_label is not None and lab == inv[first_label]:
                continue
            row = graphing.maps[lab]
            nxt = [None if p is None else row[p] for p in prefix_positions]
            word_sum(nxt, depth + 1, lab)

    word_sum(list(base), 0, None)
    return IteratedBoundaryReport(
        k=k, boundary_set=boundary, mass=mass, telescoping_bound=bound
    )


@dataclass(frozen=True)
class DisintegrationReport:
    """Boundary mass against the cellwise boundary-ratio integral; equal on pmp models."""

    mass: Fraction
    integral: Fraction
    passed: bool


def disintegration_identity(graphing, partition):
    """mu(boundary) == sum over cells of (|boundary of cell| / |cell|) * mu(cell)."""
    if partition.graphing is not graphing:
        raise ParameterError("partition belongs to a different graphing")
    if not graphing.is_pmp():
        raise NotApplicableError(
            "the disintegration identity is a statement about pmp models"
        )
    mass = boundary_mass(graphing, partition).mass
    integral = Fraction(0)
    for cell in partition.cells:
        cell_set = set(cell)
        bdry = 0
        for v in cell:
            for row in graphing.maps.values():
                if row[v] not in cell_set:
                    bdry += 1
                    break
        integral += Fraction(bdry, len(cell)) * graphing.mu(cell)
    return DisintegrationReport(mass=mass, integral=integral, passed=mass == integral)
