"""Independent oracle computations the test suite compares the library against.

Everything here recomputes values from first principles with its own inline
group law / boundary logic, sharing no search code with the package.  Library
types only appear as input containers (graphings hand over their weight and
map tables; the evaluation logic is local).
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm


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


def connected_profile_oracle(group, n_max):
    """Per n <= n_max, the least (|inner boundary| / |F|, sorted F) over connected F
    containing the identity with |F| <= n, by checking every subset of ball(n - 1)."""
    gens = [group.generator(lab) for lab in group.labels]
    identity = group.identity
    others = [g for g in group.ball(n_max - 1) if g != identity]
    best = [None] * (n_max + 1)
    for r in range(n_max):
        for rest in combinations(others, r):
            F = {identity, *rest}
            reached, todo = {identity}, [identity]
            while todo:
                g = todo.pop()
                for s in gens:
                    h = group.multiply(s, g)
                    if h in F and h not in reached:
                        reached.add(h)
                        todo.append(h)
            if reached != F:
                continue
            bdry = sum(1 for g in F if any(group.multiply(s, g) not in F for s in gens))
            cand = (Fraction(bdry, len(F)), tuple(sorted(F)))
            if best[len(F)] is None or cand < best[len(F)]:
                best[len(F)] = cand
    out = []
    for n in range(1, n_max + 1):
        if best[n] is not None and (not out or best[n] < out[-1]):
            out.append(best[n])
        else:
            out.append(out[-1])
    return out


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


def cell_components_oracle(rows, cells):
    """Components of each cell under the edges v - row[v] inside it, by union-find,
    as a set of frozensets."""
    parent = {v: v for cell in cells for v in cell}
    cell_of = {v: i for i, cell in enumerate(cells) for v in cell}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for row in rows:
        for v, t in enumerate(row):
            if t is not None and cell_of[t] == cell_of[v]:
                parent[find(v)] = find(t)
    comps = {}
    for v in parent:
        comps.setdefault(find(v), set()).add(v)
    return {frozenset(c) for c in comps.values()}


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


def inline_law(group):
    """(product, inverse) written out for the group's kind: vector addition on
    Z^d, (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a b') on the Heisenberg
    group, and free reduction of letter tuples (letter x ^ 1 inverts x) on F_k."""
    if group.kind == "Heisenberg":
        return (lambda g, h: (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1]),
                lambda g: (-g[0], -g[1], g[0] * g[1] - g[2]))
    if group.kind == "Free":
        def mul(g, h):
            g, h = list(g), list(h)
            while g and h and g[-1] == h[0] ^ 1:
                g.pop()
                h.pop(0)
            return tuple(g + h)
        return mul, lambda g: tuple(x ^ 1 for x in reversed(g))
    return lambda g, h: tuple(x + y for x, y in zip(g, h)), lambda g: tuple(-x for x in g)


def quotient_maps_oracle(group, m):
    """The maps of quotient_action point by point: vertex v = c_0 + c_1 m + ..
    is the point (c_0, c_1, ..), and its image under a generator is generator *
    point by the inline law, with each coordinate reduced mod m and looked up."""
    mul = inline_law(group)[0]
    points = [p[::-1] for p in product(range(m), repeat=len(group.identity))]
    vertex = {p: v for v, p in enumerate(points)}
    return {lab: [vertex[tuple(x % m for x in mul(group.generator(lab), p))] for p in points]
            for lab in group.labels}


def sphere_oracle(group, radius):
    """Spheres 0..radius of the Cayley graph, each sorted, by a breadth-first
    search over single points with the inline group law."""
    mul, _ = inline_law(group)
    gens = [group.generator(lab) for lab in group.labels]
    seen = {group.identity}
    spheres = [[group.identity]]
    for _ in range(radius):
        fresh = {mul(s, g) for g in spheres[-1] for s in gens} - seen
        seen |= fresh
        spheres.append(sorted(fresh))
    return spheres


def neighbor_table_oracle(group, radius, inverse):
    """(order, flat, inverse, ranks) of ball(radius) as the group's table hook
    gives them, by the dict path: the ball from sphere_oracle in (norm, tuple)
    order, a {element: id} index, one inline product per (element,
    generator), one inline inverse per element, and ranks from one sort."""
    mul, inv = inline_law(group)
    order = [g for sphere in sphere_oracle(group, radius) for g in sphere]
    index = {g: i for i, g in enumerate(order)}
    gens = [group.generator(lab) for lab in group.labels]
    flat = [index.get(mul(s, g), -1) for g in order for s in gens]
    inverse_ids = [index[inv(g)] for g in order] if inverse else None
    return order, flat, inverse_ids, canonical_ranks(order)


def canonical_ranks(order):
    """Each element's place in sorted(order), indexed like order."""
    ranks = [0] * len(order)
    for r, i in enumerate(sorted(range(len(order)), key=order.__getitem__)):
        ranks[i] = r
    return ranks


def union_columns(rows):
    """The union of the intervals of (key, lo, hi) rows, e.g. the sphere rows of
    a ball, in column form with sorted keys: each key's intervals pooled,
    sorted and swept, adjacent ones joined."""
    cols = {}
    for key, lo, hi in rows:
        cols.setdefault(key, []).append((lo, hi))
    out = {}
    for key in sorted(cols):
        ordered = iter(sorted(cols[key]))
        start, end = next(ordered)
        joined = []
        for lo, hi in ordered:
            if lo > end + 1:
                joined.append((start, end))
                start, end = lo, hi
            elif hi > end:
                end = hi
        joined.append((start, end))
        out[key] = joined
    return out


def ball_columns(group, radius):
    """ball(radius) of a Z^d or Heisenberg group in column form, {key: sorted
    maximal intervals} with sorted keys, read row by row from the group's
    store."""
    group._grow(group._check_radius(radius))
    rows, width = group._rows(radius), group._length + 1
    columns = {}
    for i in range(0, len(rows), width):
        columns.setdefault(tuple(rows[i:i + width - 2]), []).append(
            (rows[i + width - 2], rows[i + width - 1]))
    return columns


def column_size(columns):
    """Number of points of a column-form set."""
    return sum(hi - lo + 1 for ivs in columns.values() for lo, hi in ivs)


def _reduced(basis, v):
    """v reduced by a flat echelon basis of len(v) rows: coordinate i by row i
    into [0, pivot i), in order."""
    n, v = len(v), list(v)
    for i in range(n):
        q = v[i] // basis[i * n + i]
        v = [x - q * basis[i * n + j] if j >= i else x for j, x in enumerate(v)]
    return tuple(v)


def residue_histogram_oracle(key_len, window, region, lattices, limit):
    """What _kernels.residue_histogram returns, as lists, point by point: each
    column's residues as a set; each key's class vectors reduced one at a
    time and numbered in a dict; each class's support from a dict of the
    residues its window points take (every residue once a row is a period
    long); its count at each support residue summed over every entry of
    every lattice; and the sum of counts and the covered count summed point
    by point."""
    width, n = key_len + 2, key_len + 1
    periods = [basis[-1] for _, basis, _ in lattices]
    period = lcm(*periods)
    rows = [tuple(window[i:i + width]) for i in range(0, len(window), width)]
    columns, vectors, numbers = {}, {}, {}
    for row in rows:
        key, lo, hi = row[:key_len], row[-2], row[-1]
        columns.setdefault(key, set()).update(x % period for x in range(lo, hi + 1))
        vectors[key] = tuple(
            _reduced(basis, [sum(form[i * key_len + j] * key[j] for j in range(key_len))
                             for i in range(n)]) for form, basis, _ in lattices)
        numbers.setdefault(vectors[key], len(numbers))
    evaluations = sum(map(len, columns.values()))
    if evaluations > limit:
        return evaluations, None

    def count(vector, c):
        total = 0
        for (_, basis, entries), p, v in zip(lattices, periods, vector):
            for i in range(0, len(entries), n + 2):
                *bucket, r, k, m = entries[i:i + n + 2]
                if tuple(bucket) == v[:-1] and (c + k * v[-1]) % p == r:
                    total += m
        return total

    ids = [numbers[vectors[row[:key_len]]] for row in rows]
    window_points = [{} for _ in numbers]
    region_points = [{} for _ in numbers]
    full = set()
    total = covered = 0
    for row, c in zip(rows, ids):
        if row[-1] - row[-2] + 1 >= period:
            full.add(c)
        for x in range(row[-2], row[-1] + 1):
            window_points[c][x % period] = window_points[c].get(x % period, 0) + 1
            total += count(vectors[row[:key_len]], x)
    for i in range(0, len(region), width):
        row = tuple(region[i:i + width])
        vector = vectors[row[:key_len]]
        points = region_points[numbers[vector]]
        for x in range(row[-2], row[-1] + 1):
            points[x % period] = points.get(x % period, 0) + 1
            covered += count(vector, x) != 0
    ends, residues, counts, window_out, region_out = [0], [], [], [], []
    for vector, c in numbers.items():
        for r in range(period) if c in full else sorted(window_points[c]):
            residues.append(r)
            counts.append(count(vector, r))
            window_out.append(window_points[c].get(r, 0))
            region_out.append(region_points[c].get(r, 0))
        ends.append(len(residues))
    return evaluations, (ids, ends, residues, counts, window_out, region_out, total, covered)


def residue_counts_oracle(group, shape, gens):
    """(column_class, counts, period) of a lattice center set over a shape, per
    column and residue dicts: column_class(key) is the class of a window
    column, on which the number of t in the shape with t^-1 (key, c) a
    center depends, for each c mod period; counts(key, residues) lists that
    number at each c in residues.  On Z^d the class is the residue of (key,
    0) under the lattice's echelon basis, and key + (c,) reduces to head +
    ((s + c) mod period,); on Heisenberg with axis moduli (m1, m2, m3) it is
    (a mod m1, b mod m2, b mod m3), and the shape is bucketed by (ta mod m1,
    tb mod m2), then by ta mod m3, then by (tc - ta tb) mod m3."""
    from isoprof.groups import lattice_basis, lattice_residue

    if group.kind == "Zd":
        basis = lattice_basis(gens, group.d)
        period = basis[-1][-1]
        sizes = {}
        for t in shape:
            *head, s = lattice_residue(basis, t)
            table = sizes.setdefault(tuple(head), {})
            table[s] = table.get(s, 0) + 1

        def counts(key, residues):
            *head, s = lattice_residue(basis, key + (0,))
            table = sizes.get(tuple(head), {})
            return [table.get((s + c) % period, 0) for c in residues]

        return lambda key: lattice_residue(basis, key + (0,)), counts, period
    m1, m2, m3 = (sum(abs(g[i]) for g in gens) for i in range(3))
    sizes = {}
    for ta, tb, tc in shape:
        table = sizes.setdefault((ta % m1, tb % m2), {}).setdefault(ta % m3, {})
        table[(tc - ta * tb) % m3] = table.get((tc - ta * tb) % m3, 0) + 1

    def counts(key, residues):
        a, b = key
        found = [0] * len(residues)
        for u, table in sizes.get((a % m1, b % m2), {}).items():
            found = [h + table.get((c - u * b) % m3, 0) for h, c in zip(found, residues)]
        return found

    return lambda key: (key[0] % m1, key[1] % m2, key[1] % m3), counts, m3


def determinant(rows):
    """Leibniz determinant of a small integer matrix."""
    total = 0
    for perm in permutations(range(len(rows))):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i))
        for i, j in enumerate(perm):
            sign *= rows[i][j]
        total += sign
    return total


def lattice_member_oracle(group, gens):
    """Membership in a lattice center set: Cramer's rule on Z^d (every coefficient
    det(L with column i replaced by c) / det(L) an integer), the per-axis
    moduli on the Heisenberg group."""
    d = len(gens)
    if group.kind == "Heisenberg":
        mods = [sum(abs(g[i]) for g in gens) for i in range(3)]
        return lambda c: all(x % m == 0 for x, m in zip(c, mods))
    det = determinant([[g[r] for g in gens] for r in range(d)])
    return lambda c: all(
        determinant([[c[r] if j == i else gens[j][r] for j in range(d)] for r in range(d)]) % det == 0
        for i in range(d))


def tile_window_oracle(mt, radius):
    """Every TileVerification field, by listing the centers over each point of the
    point-BFS ball: the explicit c with w c^-1 in the shape (list order) and the
    lattice members t^-1 w (shape order), counted in a dict over the window."""
    from isoprof import ExplicitCenters

    group = mt.group
    mul, inv = inline_law(group)
    spheres = sphere_oracle(group, radius)
    norms = {g: r for r, sphere in enumerate(spheres) for g in sphere}
    margin = max(norms[t] for shape in mt.shapes for t in shape)
    members = [None if isinstance(cs, ExplicitCenters) else lattice_member_oracle(group, cs.generators)
               for cs in mt.centers]

    def centers_over(w):
        out = []
        for i, (shape, cs, member) in enumerate(zip(mt.shapes, mt.centers, members)):
            if member is None:
                out += [(i, c) for c in cs.elements if mul(w, inv(c)) in shape]
            else:
                out += [(i, c) for c in (mul(inv(t), w) for t in shape) if member(c)]
        return out

    counts = {w: len(centers_over(w)) for sphere in spheres for w in sphere}
    region = [w for sphere in spheres[:radius - margin + 1] for w in sphere]
    uncovered = tuple(w for w in region if not counts[w])[:5]
    collisions = tuple((w, tuple(centers_over(w))) for w in counts if counts[w] > 1)[:5]
    return {
        "passed": not uncovered and not collisions,
        "disjoint": not collisions,
        "covered": not uncovered,
        "window_radius": radius,
        "margin": margin,
        "region_radius": radius - margin,
        "window_size": len(counts),
        "region_size": len(region),
        "covered_count": sum(1 for w in region if counts[w]),
        "density": Fraction(sum(counts.values()), len(counts)),
        "collisions": collisions,
        "uncovered": uncovered,
    }


def reduced_words(labels, inverse, max_len):
    """Every reduced label word of length 1..max_len, in the order it is applied."""
    words = []
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (lab,) for w in frontier for lab in labels
                    if not w or lab != inverse[w[-1]]]
        words.extend(frontier)
    return words


def _walk(rows, word, v):
    """The vertex the word carries v to, or None where the chain breaks."""
    for lab in word:
        v = rows[lab][v]
        if v is None:
            return None
    return v


def violation_depth_oracle(group, maps, n_vertices, radius):
    """Shortest reduced word of length <= radius with a nonidentity element that fixes a vertex.

    Walks every reduced word from every vertex.  Elements use an inline group
    law: vector addition on Z^d, and on the Heisenberg group
    (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a b').
    """
    gens = {lab: group.generator(lab) for lab in group.labels}
    zero = (0,) * len(next(iter(gens.values())))
    mul, _ = inline_law(group)
    inverse = {lab: group.inverse_label(lab) for lab in group.labels}
    for word in reduced_words(group.labels, inverse, radius):
        element = zero
        for lab in word:
            element = mul(gens[lab], element)
        if element != zero and any(_walk(maps, word, v) == v for v in range(n_vertices)):
            return len(word)
    return None


def iterated_boundary_oracle(graphing, cells, k):
    """(escaping vertices, their mass, sum of mu(w * boundary) over reduced |w| <= k).

    A vertex escapes when the walk of some reduced word of length <= k breaks
    or leaves its cell; the boundary is the set escaping in one step.
    """
    cell_of = {v: i for i, cell in enumerate(cells) for v in cell}
    rows = graphing.maps
    inverse = {lab: graphing.group.inverse_label(lab) for lab in graphing.group.labels}
    words = reduced_words(graphing.group.labels, inverse, k)

    def escapes(v, word):
        for lab in word:
            v2 = rows[lab][v]
            if v2 is None or cell_of[v2] != cell_of[v]:
                return True
            v = v2
        return False

    V = graphing.n_vertices
    escaping = tuple(v for v in range(V) if any(escapes(v, w) for w in words))
    boundary = [v for v in range(V) if any(escapes(v, (lab,)) for lab in rows)]
    bound = Fraction(0)
    for word in [()] + words:
        images = {_walk(rows, word, b) for b in boundary} - {None}
        bound += sum(graphing.weights[t] for t in images)
    mass = sum((graphing.weights[v] for v in escaping), Fraction(0))
    return escaping, mass, bound


def punctured(graphing, rng, hole_prob):
    """The same graphing with shift edges removed at random, each with its inverse."""
    from isoprof import MeasuredGraphing

    maps = {lab: list(row) for lab, row in graphing.maps.items()}
    for lab in graphing.group.labels:
        inv = graphing.group.inverse_label(lab)
        for v, t in enumerate(maps[lab]):
            if t is not None and rng.random() < hole_prob:
                maps[lab][v] = maps[inv][t] = None
    return MeasuredGraphing(graphing.group, graphing.weights, maps, 0)


def relabelled(graphing, seed):
    """The same graphing with its vertices renumbered by a seeded permutation."""
    from isoprof import MeasuredGraphing

    V = graphing.n_vertices
    perm = list(range(V))
    random.Random(seed).shuffle(perm)
    weights = [None] * V
    maps = {lab: [None] * V for lab in graphing.maps}
    for v in range(V):
        weights[perm[v]] = graphing.weights[v]
        for lab, row in graphing.maps.items():
            maps[lab][perm[v]] = None if row[v] is None else perm[row[v]]
    return MeasuredGraphing(graphing.group, weights, maps, graphing.free_window)


def regenerated(graphing, seed):
    """The same graphing with its generators listed in a seeded order, and so
    labelled by their coordinates, and its vertices renumbered, as the
    benchmark workloads relabel a graphing's JSON."""
    from isoprof import MeasuredGraphing
    from isoprof.groups import group_from_json, group_to_json

    rng = random.Random(seed)
    group = graphing.group
    gens = [group.generator(lab) for lab in group.labels]
    old_label = dict(zip(gens, group.labels))
    rng.shuffle(gens)
    moved = group_from_json(dict(group_to_json(group), generators=[list(g) for g in gens]))
    V = graphing.n_vertices
    perm = list(range(V))
    rng.shuffle(perm)
    weights = [None] * V
    maps = {lab: [None] * V for lab in moved.labels}
    for lab, g in zip(moved.labels, gens):
        row = graphing.maps[old_label[g]]
        for v, t in enumerate(row):
            weights[perm[v]] = graphing.weights[v]
            maps[lab][perm[v]] = None if t is None else perm[t]
    return MeasuredGraphing(moved, weights, maps, graphing.free_window)


def two_cycles(m):
    """Z rotating two disjoint m-cycles with uniform weights: a disconnected graphing."""
    from isoprof import MeasuredGraphing, ZdGroup

    step = [(v + 1) % m + v // m * m for v in range(2 * m)]
    back = [(v - 1) % m + v // m * m for v in range(2 * m)]
    return MeasuredGraphing(ZdGroup(1), [Fraction(1, 2 * m)] * (2 * m),
                            {"1": step, "-1": back}, (m - 1) // 2)


def mu_oracle(graphing, vertices):
    """Total weight of the distinct vertices, summed as Fractions one by one."""
    total = Fraction(0)
    for v in set(vertices):
        if not 0 <= v < graphing.n_vertices:
            raise ValueError(f"vertex {v} out of range")
        total += graphing.weights[v]
    return total


def boundary_mass_oracle(graphing, cells):
    """(boundary set, per-generator moved vertices, mass) of a partition, vertex
    by vertex: v is moved by a map that is undefined at v or leaves its cell."""
    cell_of = {v: i for i, cell in enumerate(cells) for v in cell}
    per_generator, boundary = {}, set()
    for lab, row in graphing.maps.items():
        moved = []
        for v in range(graphing.n_vertices):
            t = row[v]
            if t is None or cell_of[t] != cell_of[v]:
                moved.append(v)
                boundary.add(v)
        per_generator[lab] = tuple(moved)
    boundary = tuple(sorted(boundary))
    return boundary, per_generator, mu_oracle(graphing, boundary)


def tree_sigmas(graphing):
    """For each label s, the map sigma_s with sigma_s(0) = phi_s(0) filled along
    a breadth-first tree by sigma(phi_t(v)) = phi_t(sigma(v)), as a dict, with
    no check on it; None when the tree misses a vertex or meets a hole."""
    V = graphing.n_vertices
    rows = [list(row) for row in graphing.maps.values()]
    parent = {0: None}
    order = [0]
    for v in order:
        for row in rows:
            u = row[v]
            if u is not None and u not in parent:
                parent[u] = (v, row)
                order.append(u)
    if len(order) < V:
        return None
    sigmas = []
    for start in rows:
        if start[0] is None:
            return None
        sigma = {0: start[0]}
        for u in order[1:]:
            v, row = parent[u]
            t = row[sigma[v]]
            if t is None:
                return None
            sigma[u] = t
        sigmas.append(sigma)
    return sigmas


def symmetries_oracle(graphing):
    """Label-preserving, weight-preserving automorphisms sigma_s with sigma_s(0) =
    phi_s(0), built along a breadth-first tree, or None; kept only when each
    commutes with every map, holes included, and the sigmas together move 0
    to every vertex, which an orbit search checks."""
    V = graphing.n_vertices
    rows = [list(row) for row in graphing.maps.values()]
    filled = tree_sigmas(graphing)
    if filled is None:
        return None
    sigmas = []
    for sigma in filled:
        if sorted(sigma.values()) != list(range(V)):
            return None
        for v in range(V):
            if graphing.weights[sigma[v]] != graphing.weights[v]:
                return None
            for row in rows:
                image = row[v]
                if (None if image is None else sigma[image]) != row[sigma[v]]:
                    return None
        sigmas.append(tuple(sigma[v] for v in range(V)))
    orbit, frontier = {0}, [0]
    while frontier:
        frontier = [sigma[v] for sigma in sigmas for v in frontier if sigma[v] not in orbit]
        orbit.update(frontier)
    return tuple(sigmas) if len(orbit) == V else None


def swapped(graphing, v1, v2):
    """The same graphing with the first label's targets at v1 and v2 swapped,
    and its inverse label's entries at those two targets swapped to match, so
    the maps stay paired bijections; the free window is derived."""
    from isoprof import MeasuredGraphing

    group = graphing.group
    lab = group.labels[0]
    inv = group.inverse_label(lab)
    maps = {key: list(row) for key, row in graphing.maps.items()}
    t1, t2 = maps[lab][v1], maps[lab][v2]
    maps[lab][v1], maps[lab][v2] = t2, t1
    maps[inv][t1], maps[inv][t2] = v2, v1
    return MeasuredGraphing(group, graphing.weights, maps)


def towers_oracle(graphing, mt):
    """(bases, fibers, leftover, coverage) of the greedy tower family, walking
    each shape element's geodesic word from each base letter by letter."""
    words = [[mt.group.geodesic_word(t) for t in shape] for shape in mt.shapes]
    order = sorted(range(len(mt.shapes)), key=lambda i: (-len(mt.shapes[i]), i))
    V = graphing.n_vertices
    used = [False] * V
    bases = [[] for _ in mt.shapes]
    fibers = [[] for _ in mt.shapes]
    for v in range(V):
        if used[v]:
            continue
        for i in order:
            fiber = []
            for word in words[i]:
                x = v
                for lab in reversed(word):
                    x = None if x is None else graphing.maps[lab][x]
                fiber.append(x)
            if None in fiber or len(set(fiber)) != len(fiber) or any(used[x] for x in fiber):
                continue
            for x in fiber:
                used[x] = True
            bases[i].append(v)
            fibers[i].append(tuple(fiber))
            break
    leftover = tuple(v for v in range(V) if not used[v])
    coverage = mu_oracle(graphing, [v for v in range(V) if used[v]])
    return (tuple(map(tuple, bases)), tuple(map(tuple, fibers)), leftover, coverage)
