"""Independent oracle computations the test suite compares the library against.

Everything here recomputes values from first principles with its own inline
group law / boundary logic, sharing no search code with the package.  Library
types only appear as input containers (graphings hand over their weight and
map tables; the evaluation logic is local).
"""

from fractions import Fraction
from itertools import combinations


def z_profile_oracle(n_max):
    """I_Z(n) for n = 1..n_max by exhausting all subsets of [-(n_max-1), n_max-1] containing 0.

    Plain bitmask enumeration, one bit per integer point; a member is boundary
    when either neighbor is absent.  Sets reaching outside the interval can
    be ignored: any F translates to contain 0, and a minimizing F of size
    <= n_max is an interval (checked implicitly by agreement).
    """
    offset = n_max - 1
    width = 2 * offset + 1
    best = [None] * (n_max + 1)
    zero_bit = 1 << offset
    for mask in range(1 << width):
        if not mask & zero_bit:
            continue
        size = mask.bit_count()
        if size > n_max:
            continue
        boundary = 0
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            i = bit.bit_length() - 1
            left = i > 0 and (mask >> (i - 1)) & 1
            right = i + 1 < width and (mask >> (i + 1)) & 1
            if not (left and right):
                boundary += 1
        r = Fraction(boundary, size)
        if best[size] is None or r < best[size]:
            best[size] = r
    out = []
    running = None
    for n in range(1, n_max + 1):
        if best[n] is not None and (running is None or best[n] < running):
            running = best[n]
        out.append(running)
    return out


def _z2_closed_nbhd(p):
    x, y = p
    return {(x, y), (x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)}


def _z2_ratio(F):
    members = set(F)
    boundary = sum(1 for p in members if not _z2_closed_nbhd(p) <= members)
    return Fraction(boundary, len(members))


def z2_profile_oracle(n_max):
    """I_{Z^2}(n) for n = 1..n_max (n_max <= 8) via interior-candidate enumeration.

    Reduction replacing the 2^|ball(6)| brute force, exact for n <= 8:

    - a set with empty interior has ratio 1, achieved by {e};
    - otherwise translate F so the lexicographically least interior point is
      the origin.  Two interior points at graph distance >= 3 have disjoint
      closed neighborhoods, forcing |F| >= 10 > 8, so the interior J sits in
      ball(2) and has at most 2 points (three interior points already need
      10 elements: bit enough neighborhoods);
    - F'' = union of closed neighborhoods of J satisfies F'' subset of F,
      interior(F'') contains J, so ratio(F'') <= ratio(F) with |F''| <= |F|.

    Minimizing over all J containing the origin inside ball(4) with |J| <= 3
    (a strict superset of the needed range) therefore yields I(n), and every
    witness lies inside ball(6) and contains the identity, matching the
    constrained brute force the value is defined by.
    """
    if n_max > 8:
        raise ValueError("the interior-candidate reduction is only argued for n <= 8")
    ball4 = [
        (x, y)
        for x in range(-4, 5)
        for y in range(-4, 5)
        if abs(x) + abs(y) <= 4 and (x, y) != (0, 0)
    ]
    candidates = []
    for extra in range(3):
        for rest in combinations(ball4, extra):
            J = [(0, 0), *rest]
            F = set()
            for p in J:
                F |= _z2_closed_nbhd(p)
            if len(F) <= n_max:
                candidates.append((len(F), _z2_ratio(F)))
    out = []
    for n in range(1, n_max + 1):
        vals = [r for size, r in candidates if size <= n]
        # the singleton {e} always achieves ratio 1; candidate ratios never exceed it
        out.append(min(vals, default=Fraction(1)))
    return out


def heisenberg_cuboid_boundary(n):
    """(|F_n|, |boundary F_n|) for F_n = [0,n] x [0,n] x [0,n^2], inline group law.

    Left multiplication: (1,0,0)(a,b,c) = (a+1, b, c+b), (0,1,0)(a,b,c) =
    (a, b+1, c); inverses negate.  Membership is a coordinate-range test.
    """
    top = n * n

    def inside(a, b, c):
        return 0 <= a <= n and 0 <= b <= n and 0 <= c <= top

    size = 0
    boundary = 0
    for a in range(n + 1):
        for b in range(n + 1):
            for c in range(top + 1):
                size += 1
                if not (
                    inside(a + 1, b, c + b)
                    and inside(a - 1, b, c - b)
                    and inside(a, b + 1, c)
                    and inside(a, b - 1, c)
                ):
                    boundary += 1
    return size, boundary


def bell_partitions(n):
    """All set partitions of range(n) as restricted-growth label arrays."""
    labels = [0] * n

    def rec(i, top):
        if i == n:
            yield labels
            return
        for b in range(top + 2):
            labels[i] = b
            yield from rec(i + 1, max(top, b))

    if n:
        yield from rec(1, 0)
    else:
        yield labels


def partition_mass_oracle(weights, rows, labels):
    """Boundary mass of a labeled partition: weight of vertices with an
    undefined shift or a shift landing in another block."""
    total = Fraction(0)
    for x, w in enumerate(weights):
        for row in rows:
            t = row[x]
            if t is None or labels[t] != labels[x]:
                total += w
                break
    return total


def action_profile_oracle(graphing, n_max=None):
    """min boundary mass over ALL set partitions with blocks of size <= n, each n.

    One pass over every partition of the vertex set (restricted growth), no
    connectivity assumption, no search pruning; the per-n minima come from
    filtering by the partition's largest block afterwards.
    """
    V = graphing.n_vertices
    if n_max is None:
        n_max = V
    rows = list(graphing.maps.values())
    weights = graphing.weights
    best = [None] * (n_max + 1)
    for labels in bell_partitions(V):
        counts = {}
        for b in labels:
            counts[b] = counts.get(b, 0) + 1
        big = max(counts.values())
        if big > n_max:
            continue
        mass = partition_mass_oracle(weights, rows, labels)
        if best[big] is None or mass < best[big]:
            best[big] = mass
    out = []
    running = None
    for n in range(1, n_max + 1):
        if best[n] is not None and (running is None or best[n] < running):
            running = best[n]
        out.append(running)
    return out


def cycle_marking(m, weights, steps, group=None):
    """The same m points shifted by each step, marked by the step set."""
    from isoprof import MeasuredGraphing, ZdGroup

    group = group or ZdGroup(1, generators=[(s,) for s in steps])
    maps = {group.labels[i]: [(v + steps[i]) % m for v in range(m)]
            for i in range(len(steps))}
    return MeasuredGraphing(group, weights, maps, 0)


def random_graphing(rng, n_vertices, d=1, hole_prob=Fraction(1, 5), uniform=False):
    """Seeded random measured graphing: paired partial injections over Z^d labels.

    Each generator pair gets a random defined-set and a random injection;
    the inverse row is the transpose, so the constructor's pairing check
    passes by construction.  free_window 0 keeps arbitrary maps legal.
    """
    from isoprof import MeasuredGraphing, ZdGroup

    group = ZdGroup(d)
    if uniform:
        weights = [Fraction(1, n_vertices)] * n_vertices
    else:
        raw = [rng.randint(1, 6) for _ in range(n_vertices)]
        total = sum(raw)
        weights = [Fraction(r, total) for r in raw]
    maps = {}
    done = set()
    for lab in group.labels:
        inv = group.inverse_label(lab)
        if lab in done:
            continue
        done.update({lab, inv})
        sources = [v for v in range(n_vertices) if rng.random() >= hole_prob]
        targets = rng.sample(range(n_vertices), len(sources))
        fwd = [None] * n_vertices
        back = [None] * n_vertices
        for s, t in zip(sources, targets):
            fwd[s] = t
            back[t] = s
        maps[lab] = fwd
        maps[inv] = back
    return MeasuredGraphing(group, weights, maps, 0)


def random_partition(rng, n_vertices, n_bound):
    """Random vertex partition with block sizes <= n_bound, as a cell list."""
    cells = []
    for v in range(n_vertices):
        open_cells = [c for c in cells if len(c) < n_bound]
        if open_cells and rng.random() < 0.75:
            rng.choice(open_cells).append(v)
        else:
            cells.append([v])
    return cells
