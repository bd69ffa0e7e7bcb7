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

from fractions import Fraction
from itertools import chain, compress
from operator import mul, ne, sub

from ._record import Record
from .errors import (
    CoverageError,
    NotApplicableError,
    ParameterError,
    WindowExceededError,
    integer_parameter,
)
from .graphings import MeasuredGraphing

EXHAUSTIVE_LIMIT = 14


class BoundedPartition:
    """A partition of the vertices into cells of size <= n_bound, canonically ordered."""

    def __init__(self, graphing, cells, n_bound):
        if not isinstance(graphing, MeasuredGraphing):
            raise ParameterError("expected a MeasuredGraphing")
        self.graphing = graphing
        self.n_bound = integer_parameter("n_bound", n_bound, 1)
        V = graphing.n_vertices
        cells = [list(cell) for cell in cells]
        graphing._vertices(chain.from_iterable(cells))
        norm = [sorted(set(cell)) for cell in cells if cell]
        covered = set(chain.from_iterable(norm))
        if max(map(len, norm), default=0) > n_bound or len(covered) != sum(map(len, norm)):
            seen = set()
            for cell in norm:
                if len(cell) > n_bound:
                    raise ParameterError(
                        f"cell {cell} has size {len(cell)} > n_bound={n_bound}"
                    )
                v = next((v for v in cell if v in seen), None)
                if v is not None:
                    raise ParameterError(f"vertex {v} appears in two cells")
                seen.update(cell)
        if len(covered) < V:
            missing = sorted(set(range(V)) - covered)
            raise ParameterError(f"vertices {missing} are not covered by any cell")
        self.cells = tuple(sorted(map(tuple, norm)))
        cell_of = [0] * V
        for cid, cell in enumerate(self.cells):
            for v in cell:
                cell_of[v] = cid
        self.cell_of = tuple(cell_of)

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


class BoundaryMassReport(Record):
    """Boundary vertices of a partition with their measure and per-generator split."""

    boundary_set: tuple
    mass: Fraction
    per_generator: dict


def boundary_mass(graphing, partition):
    """mu of the vertices some generator moves out of their cell (or cannot move)."""
    if partition.graphing is not graphing:
        raise ParameterError("partition belongs to a different graphing")
    vertices = range(graphing.n_vertices)
    # index V, an undefined shift, lies in no cell
    cell_of = partition.cell_of + (-1,)
    per_generator = {
        lab: tuple(compress(vertices, map(ne, map(cell_of.__getitem__, row), cell_of)))
        for lab, row in graphing._rows.items()
    }
    boundary = tuple(sorted(set().union(*per_generator.values())))
    return BoundaryMassReport(
        boundary_set=boundary,
        mass=graphing.mu(boundary),
        per_generator=per_generator,
    )


def connected_refinement(graphing, partition):
    """Split every cell into its connected components under generator edges.

    Two cellmates joined by a generator edge stay together, so no vertex
    gains a new way to leave its cell: boundary mass is exactly preserved,
    and cell sizes can only shrink.  The maps hold each generator's inverse,
    so following them forward reaches every neighbour.
    """
    rows = graphing.maps.values()
    cells = []
    for cell in partition.cells:
        left = set(cell)
        while left:
            comp = frontier = {min(left)}
            while frontier:
                frontier = {row[v] for row in rows for v in frontier} & left - comp
                comp |= frontier
            cells.append(comp)
            left -= comp
    return BoundedPartition(graphing, cells, partition.n_bound)


class ActionProfileResult(Record):
    """Minimum boundary mass over bounded partitions, with the witness partition."""

    value: Fraction
    partition: BoundedPartition
    method: str
    optimal: bool
    nodes: int

    def __iter__(self):
        yield self.value
        yield self.partition


def _partition_of_masks(graphing, masks, n):
    """The partition whose cells are the disjoint vertex masks, every other vertex alone."""
    V = graphing.n_vertices
    covered = 0
    cells = []
    for mask in masks:
        covered |= mask
        cell = []
        while mask:
            low = mask & -mask
            cell.append(low.bit_length() - 1)
            mask ^= low
        cells.append(cell)
    # the uncovered vertices are the zero bits, read from the lowest
    alone = map("0".__eq__, reversed(f"{covered:0{V}b}"))
    cells += [[v] for v in compress(range(V), alone)]
    return BoundedPartition(graphing, cells, n)


def _exhaustive_exact(graphing, n, node_budget):
    """Bitmask DP over vertex sets, run by the connected-set kernel; cells are
    connected subsets.  It has no budget and always completes."""
    from ._kernels import _pure, partition_dp

    if graphing.n_vertices > _pure.DP_MAX_VERTICES:
        raise ParameterError(
            f"the exhaustive route takes at most {_pure.DP_MAX_VERTICES} vertices, "
            f"got {graphing.n_vertices}"
        )
    *tables, scale = partition_tables(graphing)
    value, cells, nodes = partition_dp(*tables, n)
    return cells, Fraction(value, scale), nodes, True


def partition_tables(graphing):
    """Partition-DP inputs as (flat neighbour table, vertex count, generator count,
    scaled integer weights, scale); the table is the graphing's own, with -1
    for an undefined shift."""
    return (graphing._table, graphing.n_vertices, len(graphing.maps), list(graphing._units),
            graphing._scale)


def packing_items(graphing, n):
    """Interior-packing items as (closed-neighborhood masks, scaled integer weights, scale)."""
    rows = list(graphing.maps.values())
    scaled = graphing._units
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
                weights.append(scaled[x])
    return masks, weights, graphing._scale


def _bnb_exact(graphing, n, node_budget):
    """Kernel-backed interior packing; the cells are the chosen closed
    neighbourhoods, each merged with the cells it meets.  When the graphing
    is symmetric (its constructor certified transitive symmetries), the
    search fixes its root pick."""
    from ._kernels import pack_max_weight

    masks, int_weights, scale = packing_items(graphing, n)
    best, chosen, nodes, complete = pack_max_weight(masks, int_weights, n, node_budget,
                                                    graphing.symmetric)
    # each chosen mask absorbs the cells it meets, so the cells stay disjoint
    cells = []
    for i in chosen:
        cell, apart = masks[i], []
        for c in cells:
            if c & cell:
                cell |= c
            else:
                apart.append(c)
        cells = apart + [cell]
    return cells, 1 - Fraction(best, scale), nodes, complete


# method -> route; each returns (cell masks, claimed mass, nodes, complete)
_ROUTES = {"exhaustive": _exhaustive_exact, "bnb": _bnb_exact}


def profile_action_exact(graphing, n, method="auto", node_budget=None):
    """Exact minimum boundary mass over partitions into cells of size <= n.

    "exhaustive" runs the DP over vertex sets, "bnb" the interior packing, and
    "auto" the DP up to EXHAUSTIVE_LIMIT vertices and the packing above.  The
    result's method names the route that ran; it is the one named, never a
    substitute.  The value is the recomputed boundary mass of the witness
    partition, and a complete route whose claimed optimum differs from it is
    an internal error.

    node_budget bounds the packing's nodes.  The DP has no budget, so naming
    "exhaustive" with one is refused; "auto" takes one and its DP ignores it,
    since the DP's table is capped at EXHAUSTIVE_LIMIT vertices.
    """
    integer_parameter("n", n, 1)
    budget = 1 << 62 if node_budget is None else integer_parameter("node_budget", node_budget, 1)
    if method == "exhaustive" and node_budget is not None:
        raise ParameterError("the exhaustive route has no node budget; use method='bnb' or 'auto'")
    if method == "auto":
        method = "exhaustive" if graphing.n_vertices <= EXHAUSTIVE_LIMIT else "bnb"
    if not (isinstance(method, str) and method in _ROUTES):
        raise ParameterError(f"unknown method {method!r}")
    cells, claimed, nodes, complete = _ROUTES[method](graphing, n, budget)
    partition = _partition_of_masks(graphing, cells, n)
    mass = boundary_mass(graphing, partition).mass
    if complete and mass != claimed:
        raise RuntimeError(
            f"internal: the {method} optimum disagrees with the recomputed boundary mass"
        )
    return ActionProfileResult(
        value=mass, partition=partition, method=method, optimal=complete, nodes=nodes
    )


class TilingProfileResult(Record):
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


class IteratedBoundaryReport(Record):
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

    Neither is computed word by word.  A shortest path to a boundary vertex
    never steps back, so the escaping set is everything within k - 1 steps of
    the boundary; every word is injective, so the bound counts (word, boundary
    vertex) pairs by their image, in a dynamic program over (last label, vertex).
    """
    if partition.graphing is not graphing:
        raise ParameterError("partition belongs to a different graphing")
    if integer_parameter("k", k, 1) > graphing.free_window:
        raise WindowExceededError(
            f"k={k} exceeds the free window {graphing.free_window}; "
            "wraparound would corrupt the boundary semantics"
        )
    base = boundary_mass(graphing, partition).boundary_set
    boundary = tuple(sorted(graphing.within(base, k - 1)))
    rows, inv = graphing._rows, graphing.group.inverse_label

    def step(counts, lab):
        # both maps are injective, so the row of lab^-1 moves counts along lab
        return list(map(counts.__getitem__, rows[inv(lab)]))

    # ends[lab][u] counts the reduced words whose last letter is lab and that
    # carry a boundary vertex to u, with index V (a broken chain) held at 0
    counts = [0] * (graphing.n_vertices + 1)
    for v in base:
        counts[v] = 1
    ends = {lab: step(counts, lab) for lab in rows}
    images = list(map(sum, zip(counts, *ends.values())))
    for _ in range(k - 1):
        total = list(map(sum, zip(*ends.values())))
        # a reduced word never puts lab right after lab^-1
        ends = {lab: step(list(map(sub, total, ends[inv(lab)])), lab) for lab in rows}
        images = list(map(sum, zip(images, *ends.values())))
    bound = Fraction(sum(map(mul, images, graphing._units)), graphing._scale)
    return IteratedBoundaryReport(
        k=k, boundary_set=boundary, mass=graphing.mu(boundary), telescoping_bound=bound
    )


class DisintegrationReport(Record):
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
    report = boundary_mass(graphing, partition)
    mass, boundary = report.mass, set(report.boundary_set)
    integral = sum((Fraction(len(boundary.intersection(cell)), len(cell)) * graphing.mu(cell)
                    for cell in partition.cells), Fraction(0))
    return DisintegrationReport(mass=mass, integral=integral, passed=mass == integral)
