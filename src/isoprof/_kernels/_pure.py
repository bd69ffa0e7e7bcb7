"""Pure-Python twins of the compiled kernels.

Same algorithms, same node counts, same results as kernels.c; only the data
layout differs (Python ints as bitmasks instead of uint64 limbs).  Every
search runs on an explicit stack in the same node order, so no input size
hits the recursion limit.  The connected-set kernels, min_boundary_sets and
partition_dp, share one enumerator, grow_sets.  Four kernels do not
search: next_ball grows the column balls of Z^d and the Heisenberg group,
and ball_table builds a ball's neighbour table from the rows of the balls
inside it, each with one sweep along sorted rows; graphing_certificate
checks a graphing's paired maps and its transitive symmetries from its
neighbour table; and residue_histogram numbers the column classes of a tile
window by one integer rule, a form and an echelon basis per lattice, and
lists for each class the residues its rows take, its cover count at each
from the lattices' entries, and how many window and region points take
each.  The dispatcher in __init__ runs these twins when the
compiled kernels do not build, and for each call whose compiled twin raises
OverflowError: Python ints have no cap, so the calls whose numbers leave
int64 run here.
"""

from array import array
from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate, chain, compress, islice, repeat
from math import lcm
from operator import add, and_, eq, floordiv, ge, gt, itemgetter, le, mod, mul, not_, sub

# partition_dp keeps a table of 2**universe values
DP_MAX_VERTICES = 20
# vertex ids are C ints
MAX_VERTICES = (1 << 31) - 1


def check_subset_inputs(flat_neighbors, universe, s_count, n_max):
    """Raise ValueError unless the arguments fit the subset_min_ratio contract."""
    if universe < 1 or s_count < 1 or n_max < 1:
        raise ValueError("universe, s_count and n_max must be positive")
    if len(flat_neighbors) != universe * s_count:
        raise ValueError("flat_neighbors has the wrong length")
    if min(flat_neighbors) < -1 or max(flat_neighbors) >= universe:
        raise ValueError("neighbor ids must be -1 or vertices of the universe")


def check_connected_inputs(flat_neighbors, universe, s_count, limit, per_vertex, inverse=None):
    """Raise ValueError unless the arguments fit min_boundary_sets or partition_dp."""
    check_subset_inputs(flat_neighbors, universe, s_count, limit)
    if len(per_vertex) != universe:
        raise ValueError("need one rank or weight per vertex")
    if inverse is not None:
        if len(inverse) != universe:
            raise ValueError("need one inverse id per vertex")
        if inverse[0] != 0 or any(not 0 <= u < universe or inverse[u] != v
                                  for v, u in enumerate(inverse)):
            raise ValueError("inverse must be an involution of the universe fixing vertex 0")


def check_pack_inputs(masks, weights, n_bound):
    """Raise ValueError unless the arguments fit the pack_max_weight contract."""
    if len(masks) != len(weights):
        raise ValueError("masks and weights must have equal length")
    if n_bound < 1:
        raise ValueError("n_bound must be positive")
    for mask in masks:
        if mask < 0:
            raise ValueError("item masks must be nonnegative")
        if mask.bit_count() > n_bound:
            raise ValueError("item mask larger than n_bound; filter items first")


def subset_min_ratio(flat_neighbors, universe, s_count, n_max, node_budget):
    """Per-size minimum boundary count over all subsets of the universe containing vertex 0.

    flat_neighbors: row-major universe x s_count vertex ids, -1 = outside the
    universe (always counts as outside the subset).  Returns (num, den, nodes,
    complete) with num/den indexed by size 1..n_max; den[k] == 0 means size k
    produced no completed subset.  Values are exact minima of |boundary|/|F|;
    the branch bound B/m is admissible because the count of members with a
    definitively-outside neighbor only grows along a branch.
    """
    check_subset_inputs(flat_neighbors, universe, s_count, n_max)
    nbr = _rows(flat_neighbors, universe, s_count)
    # status: 0 undecided, 1 in, 2 out
    status = bytearray(universe)
    out_cnt = [0] * universe
    members = []
    num = [0] * (n_max + 1)
    den = [0] * (n_max + 1)
    num[1], den[1] = 1, 1  # {0} is always reachable with ratio 1
    B = 0

    def include(v):
        nonlocal B
        status[v] = 1
        members.append(v)
        out = 0
        for u in nbr[v]:
            if u < 0 or status[u] == 2:
                out += 1
        out_cnt[v] = out
        if out:
            B += 1

    def undo_include(v):
        nonlocal B
        if out_cnt[v]:
            B -= 1
        status[v] = 0
        members.pop()

    def exclude(v):
        nonlocal B
        status[v] = 2
        for u in nbr[v]:
            if u >= 0 and status[u] == 1:
                if out_cnt[u] == 0:
                    B += 1
                out_cnt[u] += 1

    def undo_exclude(v):
        nonlocal B
        for u in nbr[v]:
            if u >= 0 and status[u] == 1:
                out_cnt[u] -= 1
                if out_cnt[u] == 0:
                    B -= 1
        status[v] = 0

    def leaf():
        size = len(members)
        boundary = B
        for v in members:
            if out_cnt[v] == 0:
                for u in nbr[v]:
                    if u >= 0 and status[u] == 0:
                        boundary += 1
                        break
        if den[size] == 0 or boundary * den[size] < num[size] * size:
            num[size], den[size] = boundary, size

    include(0)
    nodes, complete = 0, True
    # the node at depth k decides vertex k; phase[k] is 0 on entering it,
    # 1 once k is in and 2 once k is out
    phase = bytearray(universe + 1)
    k = 1
    while k:
        go = 0  # 0 returns to the parent, 1 or 2 descends with k in or out
        if phase[k] == 0:
            nodes += 1
            if nodes > node_budget:
                complete = False
            elif len(members) == n_max or k == universe:
                leaf()
            else:
                for m in range(len(members), n_max + 1):
                    if m and (den[m] == 0 or B * den[m] < num[m] * m):
                        include(k)  # some size can still improve
                        go = 1
                        break
        elif phase[k] == 1:
            undo_include(k)
            if complete:
                exclude(k)
                go = 2
        else:
            undo_exclude(k)
        if go:
            phase[k] = go
            k += 1
            phase[k] = 0
        else:
            k -= 1
    return num, den, nodes, complete


def pack_max_weight(masks, weights, n_bound, node_budget, fix_root):
    """Maximum total weight of a feasible interior-item set.

    Items carry vertex bitmasks (closed generator neighborhoods) and integer
    weights.  A chosen set is feasible when every group of transitively
    overlapping masks unions to at most n_bound vertices; those unions are
    exactly the non-singleton cells of the partition the caller rebuilds.
    Returns (best_weight, best_items, nodes, complete).

    fix_root skips the exclude branch of the root pick.  The caller sets it
    only when label-preserving automorphisms act transitively on the
    vertices; they map items to items and keep weights and exclusivity, so
    some optimum contains the root pick.  The include branch runs first and
    only a strict improvement replaces best, so the first optimum found,
    which is the one returned, lies in that branch: value and witness are
    those of the full search.
    """
    check_pack_inputs(masks, weights, n_bound)
    count = len(masks)
    if count == 0:
        return 0, (), 0, True

    exq = [0] * count  # pairs that can never share a solution
    ov = [0] * count  # overlapping pairs that force a cluster merge
    for i in range(count):
        for j in range(i + 1, count):
            if masks[i] & masks[j]:
                if (masks[i] | masks[j]).bit_count() > n_bound:
                    exq[i] |= 1 << j
                    exq[j] |= 1 << i
                else:
                    ov[i] |= 1 << j
                    ov[j] |= 1 << i

    by_weight = sorted(range(count), key=lambda i: (-weights[i], i))

    def cover_bound(pool):
        # greedy clique cover of the exclusivity graph; any feasible subset of
        # the pool is an independent set, so one item per clique is admissible
        ub = 0
        rem = pool
        for i in by_weight:
            bit = 1 << i
            if not rem & bit:
                continue
            ub += weights[i]
            rem ^= bit
            common = rem & exq[i]
            while common:
                jb = common & -common
                rem ^= jb
                common = (common ^ jb) & exq[jb.bit_length() - 1]
        return ub

    cluster_mask = []
    parent = []
    item_cluster = [0] * count

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    best, best_set, cur, chosen = -1, 0, 0, 0

    def try_include(i):
        nonlocal chosen, cur
        roots = set()
        rest = chosen & ov[i]
        while rest:
            jb = rest & -rest
            rest ^= jb
            roots.add(find(item_cluster[jb.bit_length() - 1]))
        merged = masks[i]
        for r in roots:
            merged |= cluster_mask[r]
        if merged.bit_count() > n_bound:
            return None
        cid = len(cluster_mask)
        cluster_mask.append(merged)
        parent.append(cid)
        for r in roots:
            parent[r] = cid
        item_cluster[i] = cid
        chosen |= 1 << i
        cur += weights[i]
        return roots

    def undo_include(i, roots):
        nonlocal chosen, cur
        cur -= weights[i]
        chosen ^= 1 << i
        cluster_mask.pop()
        parent.pop()
        for r in roots:
            parent[r] = r

    nodes, complete = 0, True
    # one frame per depth: [pool, branched item, its merged roots, phase], the
    # phase 0 on entry, 1 with the item in and 2 with it out
    stack = [[(1 << count) - 1, -1, None, 0]]
    while stack:
        frame = stack[-1]
        pool, pick, roots, phase = frame
        go = 0  # 0 returns to the parent, 1 or 2 descends with the pick in or out
        if phase == 0:
            nodes += 1
            if nodes > node_budget:
                complete = False
            else:
                if cur > best:
                    best, best_set = cur, chosen
                if pool and cur + cover_bound(pool) > best:
                    # branch on the pool item with the most exclusivity conflicts
                    pick_deg = -1
                    rest = pool
                    while rest:
                        ib = rest & -rest
                        rest ^= ib
                        i = ib.bit_length() - 1
                        d = (exq[i] & pool).bit_count()
                        if d > pick_deg:
                            pick, pick_deg = i, d
                    roots = try_include(pick)
                    frame[1], frame[2] = pick, roots
                    go = 1 if roots is not None else 2
        elif phase == 1:
            undo_include(pick, roots)
            go = 2 if complete and not (fix_root and len(stack) == 1) else 0
        if not go:
            stack.pop()
            continue
        frame[3] = go
        drop = (1 << pick) | exq[pick] if go == 1 else 1 << pick
        stack.append([pool & ~drop, -1, None, 0])
    best_items = tuple(i for i in range(count) if best_set >> i & 1)
    return best, best_items, nodes, complete


def _rows(flat_neighbors, universe, s_count):
    return [flat_neighbors[v * s_count : (v + 1) * s_count] for v in range(universe)]


def grow_sets(grow, bnd, weights, root, limit, node_budget, visit, rank=None, via=None):
    """Visit every connected set that contains root, has its other members above root
    and at most limit members; twin of kernels.c's grow_sets.

    grow and bnd hold one row of vertex ids per vertex (-1 for none): a set
    grows along grow, and its boundary is the weight (weights[v], or 1 when
    weights is None) of the members with a bnd id outside it.  "Above" is
    rank[u] > rank[root] when a rank order is given, u > root otherwise.
    visit(members, boundary) sees root alone first, then each set grown by
    one candidate, members in the order they were added.  A vertex becomes a
    candidate once, when it first neighbours the set, so every set comes once
    (Redelmeier 1981); via, when given, receives per candidate the pair
    (index of the member that offered it, slot of its grow row).  Nodes count
    the sets past the root; returns (nodes, complete).
    """
    universe = len(bnd)
    weights = weights or [1] * universe
    if rank is None:
        rank = range(universe)
    top = rank[root]
    in_set = bytearray(universe)
    seen = bytearray(universe)
    out_cnt = [0] * universe
    members = []
    B = 0

    def add(w):
        nonlocal B
        in_set[w] = 1
        members.append(w)
        out = 0
        for u in bnd[w]:
            if u < 0 or not in_set[u]:
                out += 1
            elif u != w:
                out_cnt[u] -= 1
                if out_cnt[u] == 0:
                    B -= weights[u]
        out_cnt[w] = out
        if out:
            B += weights[w]

    def remove(w):
        nonlocal B
        if out_cnt[w]:
            B -= weights[w]
        for u in bnd[w]:
            if u >= 0 and u != w and in_set[u]:
                if out_cnt[u] == 0:
                    B += weights[u]
                out_cnt[u] += 1
        in_set[w] = 0
        members.pop()

    def offer(w):
        # candidates fresh at w go at the end of cand
        for j, u in enumerate(grow[w]):
            if u >= 0 and rank[u] > top and not seen[u]:
                seen[u] = 1
                if via is not None:
                    via[u] = (len(members) - 1, j)
                cand.append(u)

    # level d tries cand[pos[d]:end[d]] as member d + 1; the candidates fresh
    # at level d sit at cand[end[d - 1]:end[d]], end[0] = 0
    cand = []
    pos = [0] * (limit + 2)
    end = [0] * (limit + 2)
    seen[root] = 1
    add(root)
    visit(members, B)
    if limit > 1:
        offer(root)
    end[1] = len(cand)
    d, nodes = 1, 0
    while True:
        if pos[d] < end[d]:
            nodes += 1
            if nodes > node_budget:
                return nodes, False
            w = cand[pos[d]]
            add(w)
            visit(members, B)
            if len(members) < limit:
                del cand[end[d] :]
                offer(w)
                pos[d + 1] = pos[d] + 1
                d += 1
                end[d] = len(cand)
            else:
                remove(w)
                pos[d] += 1
        else:
            for u in cand[end[d - 1] : end[d]]:
                seen[u] = 0
            d -= 1
            if d == 0:
                break
            remove(cand[pos[d]])
            pos[d] += 1
    remove(root)
    return nodes, True


def min_boundary_sets(flat_neighbors, universe, s_count, limit, ranks, node_budget,
                      inverse=None):
    """Per size k <= limit, a connected set containing vertex 0 with the fewest boundary members.

    flat_neighbors: row-major universe x s_count vertex ids, -1 = outside the
    universe, used for growth and boundary alike.  Among sets with equal
    boundary the one whose sorted ranks (ranks[v] per vertex) are least
    wins.  Returns (best, sets, nodes, complete): best[k] is the boundary
    count of the winner of size k, or -1 when no connected set has k
    members, and sets[k] its members in the order they were added (with
    inverse, those of the translate its key comes from).

    inverse, the id of each vertex's inverse, asks for one visit per
    translation class.  The ranks must then order the group right-invariantly
    (g < h exactly when g*x < h*x) and the table must count the boundary with
    left generators, so every right translate S*x of a set has the boundary
    of S.  Growth goes only into ranks above vertex 0, the identity, so each
    class comes once, as the translate whose least member is the identity.
    Its key is that of its least translate containing the identity, S*h^-1
    for the member h whose inverse ranks least (min(S*h^-1) = h^-1, and
    right-invariance keeps the sorted order of S); the ids of that translate
    follow the growth tree, the identity going to inverse[h] and a member
    offered by member p along slot j to slot j of p's translate.  Every such
    translate lies within limit - 1 steps of the identity; a table that
    misses one raises ValueError.
    """
    check_connected_inputs(flat_neighbors, universe, s_count, limit, ranks, inverse)
    rows = _rows(flat_neighbors, universe, s_count)
    best = [-1] * (limit + 1)
    keys = [None] * (limit + 1)
    sets = [()] * (limit + 1)
    via = None if inverse is None else [None] * universe

    def visit(members, boundary):
        k = len(members)
        if best[k] >= 0 and boundary > best[k]:
            return
        if inverse is not None:
            moved = [inverse[min(members, key=lambda v: ranks[inverse[v]])]]
            for v in members[1:]:
                p, j = via[v]
                moved.append(rows[moved[p]][j])
                if moved[-1] < 0:
                    raise ValueError("the neighbor table misses a translate of a visited set")
            members = moved
        key = sorted([ranks[v] for v in members])
        if boundary == best[k] and key >= keys[k]:
            return
        best[k], keys[k], sets[k] = boundary, key, tuple(members)

    nodes, complete = grow_sets(rows, rows, None, 0, limit, node_budget, visit,
                                None if inverse is None else ranks, via)
    return best, sets, nodes, complete


def check_partition_inputs(flat_neighbors, universe, s_count, weights, limit):
    """Raise ValueError unless the arguments fit the partition_dp contract."""
    check_connected_inputs(flat_neighbors, universe, s_count, limit, weights)
    if universe > DP_MAX_VERTICES:
        raise ValueError(f"partition_dp takes at most {DP_MAX_VERTICES} vertices")
    if min(weights) < 0:
        raise ValueError("weights must be nonnegative")


def partition_dp(flat_neighbors, universe, s_count, weights, limit):
    """Minimum cost of a partition into connected cells of at most limit vertices.

    A cell costs the weight of its members with a neighbour id outside it
    (-1 counts as outside).  Cells grow along each row's distinct ids in
    ascending order; a dynamic program over the 2**universe vertex sets
    splits off the cell of the lowest uncovered vertex, ties to the smaller
    cell mask, and finds the chosen cells again on the way back from the
    full set.  Returns (value, cells, nodes): cells are vertex bitmasks,
    nodes sums the enumerator's nodes over all roots.
    """
    check_partition_inputs(flat_neighbors, universe, s_count, weights, limit)
    limit = min(limit, universe)
    bnd = _rows(flat_neighbors, universe, s_count)
    grow = [sorted({u for u in row if u >= 0}) for row in bnd]
    by_root = []
    nodes = 0
    for root in range(universe):
        cells = []
        by_root.append(cells)

        def visit(members, cost):
            cells.append((sum(1 << v for v in members), cost))

        nodes += grow_sets(grow, bnd, weights, root, limit, 1 << 63, visit)[0]
    full = (1 << universe) - 1
    value = [0] * (full + 1)

    def best_split(mask):
        # the cheapest cell of the lowest vertex plus the best value of the rest
        best, pick = None, 0
        for cmask, cost in by_root[(mask & -mask).bit_length() - 1]:
            if cmask & mask == cmask:
                cand = cost + value[mask ^ cmask]
                if best is None or cand < best or (cand == best and cmask < pick):
                    best, pick = cand, cmask
        return best, pick

    for mask in range(1, full + 1):
        value[mask] = best_split(mask)[0]
    cells = []
    mask = full
    while mask:
        cells.append(best_split(mask)[1])
        mask ^= cells[-1]
    return value[full], tuple(cells), nodes


def _check_steps(key_len, steps):
    if key_len < 0 or not steps:
        raise ValueError("key_len must be nonnegative and steps nonempty")
    for head, _, coef in steps:
        if len(head) != key_len or len(coef) != key_len:
            raise ValueError("each step needs a head and a coef of key_len entries")


def check_ball_inputs(key_len, steps, prev_rows):
    """Raise ValueError unless the arguments fit the next_ball contract; the
    order of the rows is checked by each backend's own sweep."""
    _check_steps(key_len, steps)
    if len(prev_rows) % (key_len + 2):
        raise ValueError("rows must have key_len + 2 entries each")


def _split_rows(rows, key_len):
    """The key columns, keys, lo and hi of flat rows, refusing rows that are not
    sorted by (key, lo) with disjoint intervals per key."""
    width = key_len + 2
    cols = [rows[t::width] for t in range(key_len)]
    los, his = rows[key_len::width], rows[key_len + 1::width]
    keys = list(zip(*cols)) or [()] * len(los)
    if not (all(map(le, los, his))
            and all(map(gt, islice(zip(keys, los), 1, None), zip(keys, his)))):
        raise ValueError("rows must be sorted by (key, lo), disjoint per key")
    return cols, keys, los, his


def next_ball(key_len, steps, prev_rows):
    """Rows of ball(r) of a column group, from the rows of ball(r - 1).

    A row is one interval of a column: key_len key coordinates, then lo and
    hi, the least and largest last coordinate.  Rows are flat and sorted by
    (key, lo), with disjoint intervals per key.  A step (head, dc, coef) is a
    left generator acting on columns: it sends column key to key + head and
    shifts the last coordinate by dc + coef.key.  ball(r) is ball(r - 1) and
    its images under the steps.  A step translates keys and shifts each
    column as a whole, so its image of prev_rows is sorted again: ball(r - 1)
    and its images are merged as sorted runs, and overlapping or adjacent
    intervals joined, so each column comes out as the maximal intervals of
    its points.  Python ints have no cap, so this twin also runs the calls
    whose coordinates could reach 2**62.
    """
    check_ball_inputs(key_len, steps, prev_rows)
    cols, keys, los, his = _split_rows(prev_rows, key_len)
    moved = list(zip(keys, los, his))
    for head, dc, coef in steps:
        shifts = repeat(dc, len(los))
        for c, col in zip(coef, cols):
            if c:
                shifts = map(add, shifts, map(mul, col, repeat(c)))
        shifts = list(shifts)
        moved_keys = list(zip(*(map(add, col, repeat(h)) for col, h in zip(cols, head)))) or keys
        moved += zip(moved_keys, map(add, los, shifts), map(add, his, shifts))
    moved.sort()  # timsort merges the sorted runs
    out = []
    if not moved:
        return out
    rest = iter(moved)
    cur, start, end = next(rest)
    for key, lo, hi in rest:
        if key == cur and lo <= end + 1:
            if hi > end:
                end = hi
            continue
        out += (*cur, start, end)
        cur, start, end = key, lo, hi
    out += (*cur, start, end)
    return out


def cut_rows(rows, holes):
    """The parts of sorted disjoint (key, lo, hi) rows that no hole holds, as
    (key, lo, hi) rows in order; the holes are sorted and disjoint too."""
    out = []
    n, j = len(holes), 0  # j: the first hole that can meet the current row
    for key, lo, hi in rows:
        while j < n and holes[j][:3:2] < (key, lo):
            j += 1
        for k in range(j, n):
            hole_key, hole_lo, hole_hi = holes[k]
            if hole_key != key or hole_lo > hi:
                break
            if hole_lo > lo:
                out.append((key, lo, hole_lo - 1))
            if hole_hi >= lo:
                lo = hole_hi + 1
        if lo <= hi:
            out.append((key, lo, hi))
    return out


def check_table_inputs(key_len, steps, form, rows, ends):
    """Raise ValueError unless the arguments fit the ball_table contract, and
    return the number of points of the last ball; the order of the rows is
    checked by each backend."""
    _check_steps(key_len, steps)
    width = key_len + 2
    if len(rows) % width:
        raise ValueError("rows need key_len + 2 entries each")
    bounds = [0, *ends]
    if any(map(gt, bounds, bounds[1:])) or bounds[-1] != len(rows) // width:
        raise ValueError("run ends must rise from 0 to the number of rows")
    if len(form) != key_len or any(len(row) != key_len for row in form):
        raise ValueError("form must be a key_len x key_len matrix")
    los, his = rows[key_len::width], rows[key_len + 1::width]
    if not all(map(le, los, his)):
        raise ValueError("rows must have lo <= hi")
    last = bounds[-2] if ends else 0
    size = sum(his[last:]) - sum(los[last:]) + len(los) - last
    if size > MAX_VERTICES:
        raise ValueError(f"a ball table takes at most {MAX_VERTICES} points")
    return size


def _column_ids(columns, ids, outside, key, a, b, image):
    """Extend image by the ids of the points a..b of column key, in order: a
    slice of ids per interval of the column, a slice of outside (all -1) for
    points outside the ball.  columns maps a key to its (lo, hi, rank)
    intervals."""
    t = a
    for lo, hi, rank in columns.get(key, ()):
        if hi < t:
            continue
        if lo > b:
            break
        if lo > t:
            image += outside[:lo - t]
            t = lo
        end = hi if hi < b else b
        image += ids[rank + t - lo:rank + end - lo + 1]
        t = end + 1
    if t <= b:
        image += outside[:b - t + 1]


def ball_table(key_len, steps, form, rows, ends, inverse):
    """The neighbour table of a ball of a column group, from the rows of the
    balls inside it.

    Run r of rows is rows ends[r - 1] up to ends[r] (from row 0 for r = 0),
    the rows of ball(r), a row as in next_ball, sorted by (key, lo) with
    disjoint intervals per key; each ball must hold the one before.  Sphere r
    is ball(r) minus ball(r - 1), cut out in one sweep, and its points take
    the next vertex ids, row after row, so sphere 0, the identity, is vertex
    0.  Returns (flat, inverse, ranks) as arrays('i'): flat[v * len(steps) +
    s] is the id of step s (as in next_ball) applied to vertex v, inverse
    (None unless asked for) the id of v's inverse, and ranks[v] v's place in
    (key, c) order, which is tuple order.  Ids outside the ball are -1.  form
    is the key_len x key_len matrix M of the law's twist, c(gh) = c(g) + c(h)
    + key(g).M.key(h), so (key, c) has the inverse (-key, -c + key.M.key).
    The rows of the last ball are the table's columns, whose ranks are
    consecutive, so each (row, step) image is one column lookup and a few
    slices of ids; this twin builds each table column in rank order and
    gathers it into id order at once.  Python ints have no cap, so this twin
    also runs the calls whose coordinates could reach 2**62.
    """
    size = check_table_inputs(key_len, steps, form, rows, ends)
    width = key_len + 2
    spheres, inner, held = [], [], 0  # the rows of the spheres, back to back
    for start, end in zip((0, *ends), ends):
        _, *cols = _split_rows(rows[start * width:end * width], key_len)
        ball, outer = list(zip(*cols)), sum(cols[2]) - sum(cols[1]) + len(cols[1])
        sphere = cut_rows(ball, inner)
        # the cut keeps |ball(r)| - |ball(r - 1)| points exactly when ball(r)
        # holds ball(r - 1)
        if sum(hi - lo + 1 for _, lo, hi in sphere) != outer - held:
            raise ValueError("each ball must hold the one before")
        spheres += sphere
        inner, held = ball, outer
    if not size:
        return array("i"), array("i") if inverse else None, array("i")
    keys, los, his = zip(*spheres)
    sizes = list(map(sub, map(add, his, repeat(1)), los))
    starts = list(accumulate(sizes, initial=0))  # each row's first id
    stops = starts[1:]
    by_tuple = sorted(range(len(los)), key=list(zip(keys, los)).__getitem__)
    ids = array("i", chain.from_iterable(map(range, map(starts.__getitem__, by_tuple),
                                             map(stops.__getitem__, by_tuple))))  # by rank
    first = [0] * len(los)
    for i, rank in zip(by_tuple, accumulate(map(sizes.__getitem__, by_tuple), initial=0)):
        first[i] = rank
    ranks = array("i", chain.from_iterable(map(range, first, map(add, first, sizes))))
    span_keys, span_los, span_his = zip(*inner)
    span_ranks = accumulate(map(sub, map(add, span_his, repeat(1)), span_los), initial=0)
    columns = {}
    for key, lo, hi, rank in zip(span_keys, span_los, span_his, span_ranks):
        columns.setdefault(key, []).append((lo, hi, rank))
    gather = itemgetter(*ranks, 0)  # the 0 makes a tuple of one point too; [:-1] drops it
    outside = array("i", [-1]) * size

    count = len(steps)
    flat = array("i", bytes(4 * size * count))
    key_cols = list(zip(*span_keys))
    for s, (head, dc, coef) in enumerate(steps):
        shifts = repeat(dc, len(span_los))  # as in next_ball, per interval
        for c, col in zip(coef, key_cols):
            if c:
                shifts = map(add, shifts, map(mul, col, repeat(c)))
        shifts = list(shifts)
        moved = zip(*(map(add, col, repeat(h)) for col, h in zip(key_cols, head))) if key_len \
            else repeat(())
        image = array("i")
        for key, a, b in zip(moved, map(add, span_los, shifts), map(add, span_his, shifts)):
            _column_ids(columns, ids, outside, key, a, b, image)
        flat[s::count] = array("i", gather(image)[:-1])
    if not inverse:
        return flat, None, ranks
    twist = [(t, u, m) for t, row in enumerate(form) for u, m in enumerate(row) if m]
    image = array("i")
    for key, lo, hi in inner:  # point lo + i goes to q - lo - i
        q = sum(key[t] * m * key[u] for t, u, m in twist)
        run = array("i")
        _column_ids(columns, ids, outside, tuple(-x for x in key), q - hi, q - lo, run)
        run.reverse()
        image += run
    return flat, array("i", gather(image)[:-1]), ranks


def check_certificate_inputs(table, n_vertices, inverse):
    """Raise ValueError unless the arguments fit the graphing_certificate
    contract; the range of the entries is checked by each backend."""
    if not 1 <= n_vertices <= MAX_VERTICES:
        raise ValueError(f"a graphing has 1 to {MAX_VERTICES} vertices")
    if len(table) != n_vertices * len(inverse):
        raise ValueError("the table needs one entry per vertex and label")
    if inverse and (min(inverse) < 0 or max(inverse) >= len(inverse)
                    or any(inverse[t] != s for s, t in enumerate(inverse))):
        raise ValueError("inverse must be an involution of the label slots")


def graphing_certificate(table, n_vertices, inverse):
    """A graphing's paired maps and the label-preserving automorphisms of its
    maps that carry vertex 0 to each of its images, from its neighbour table.

    table[v * L + s] is the image of vertex v under map s of L, or -1 where
    the map is undefined, and inverse[s] the slot of s's inverse label, an
    involution.  Returns (paired, sigmas).  paired is False, and sigmas
    None, unless each map's inverse map inverts it wherever it is defined:
    the maps of a label and of its inverse are then inverse partial
    bijections.  Otherwise sigmas holds, for each label s, sigma_s: it sends
    0 to map s's image of 0 and follows a breadth-first tree of the maps
    from vertex 0 by sigma(phi_t(v)) = phi_t(sigma(v)), and it is kept only
    as a permutation of the vertices that commutes with every map, undefined
    shifts included.  sigmas is None when a check fails: the maps are
    disconnected, or a hole breaks the symmetry.

    This twin reads one label t of each inverse pair (t, t') for each
    check.  phi_t' after phi_t is the identity on the domain of phi_t, so
    phi_t is injective and phi_t' holds its inverse; with as many holes as
    phi_t, phi_t' is that inverse.  A permutation sigma with sigma phi_t =
    phi_t sigma as partial maps has sigma phi_t' = phi_t' sigma too,
    inverting both sides.  And when sigma_t is kept, its inverse
    permutation commutes with every map and sends 0 to phi_t'(0), as
    sigma_t(phi_t'(0)) = phi_t'(phi_t(0)) = 0, so it is sigma_t': the
    automorphism of connected maps that sends 0 to a given vertex is the
    one the tree fills, if any.
    """
    check_certificate_inputs(table, n_vertices, inverse)
    V, L = n_vertices, len(inverse)
    flat = table.tolist() if isinstance(table, array) else list(table)
    values = sorted(set(flat))
    if values and (values[0] < -1 or values[-1] >= V):
        raise ValueError("table entries must be -1 or vertices")
    # each map as a list with a trailing -1, so that it sends -1, an
    # undefined shift, to -1
    rows = [flat[s::L] + [-1] for s in range(L)]
    halves = [t for t in range(L) if t <= inverse[t]]
    ident = (*range(V), -1)
    for t in halves:
        row, back = rows[t], rows[inverse[t]]
        # back after row is the identity where row is defined, and -1 elsewhere
        after, holes = itemgetter(*row)(back), row.count(-1)
        if holes != back.count(-1) or (
                after != ident and sum(map(eq, after, ident)) != V + 2 - holes):
            return False, None
    # the breadth-first tree: u = row[v] is reached first from v
    order, tree = [0], []
    seen = [True] + [False] * (V - 1) + [True]
    for v in order:
        for row in rows:
            u = row[v]
            if not seen[u]:
                seen[u] = True
                order.append(u)
                tree.append((u, v, row))
    if len(order) < V:
        return True, None
    befores = [(rows[t], itemgetter(*rows[t])) for t in halves]
    sigmas = [None] * L
    for t in halves:
        sigma = [-1] * (V + 1)
        sigma[0] = rows[t][0]
        for u, v, row in tree:
            sigma[u] = row[sigma[v]]
        if len(set(sigma)) <= V:  # not a permutation of 0..V - 1 with -1 after it
            return True, None
        # sigma commutes with a row when row o sigma and sigma o row agree
        after = itemgetter(*sigma)
        if any(after(row) != before(sigma) for row, before in befores):
            return True, None
        del sigma[V]
        sigmas[t] = tuple(sigma)
        back = [0] * V
        for v, u in enumerate(sigma):
            back[u] = v
        sigmas[inverse[t]] = tuple(back)
    return True, tuple(sigmas)


Histogram = namedtuple("Histogram", "ids ends residues counts window region total covered")


def check_histogram_inputs(key_len, window, region, lattices):
    """Raise ValueError unless the arguments fit the residue_histogram contract,
    and return the period, the lcm of the lattices' last pivots; the order of
    the rows and the region's place in the window are checked by each
    backend."""
    width, n = key_len + 2, key_len + 1
    if key_len < 0 or len(window) % width or len(region) % width:
        raise ValueError("key_len must be nonnegative and rows need key_len + 2 entries each")
    for form, basis, entries in lattices:
        if len(form) != n * key_len or len(basis) != n * n or len(entries) % (n + 2):
            raise ValueError("a lattice needs a form of key_len + 1 rows of key_len entries, "
                             "a basis of key_len + 1 rows of key_len + 1 and entries of "
                             "key_len + 3 numbers each")
        if any(basis[i * n + j] for i in range(n) for j in range(i)) \
                or min(basis[::n + 1]) < 1:
            raise ValueError("a lattice basis must be echelon with positive pivots")
    return lcm(*(basis[-1] for _, basis, _ in lattices))


def _row_arcs(lo, length, period):
    """The residues mod period of the length points from lo on, 0 < length <
    period, as one or two arcs (start, end) of the circle of residues cut at 0."""
    start = lo % period
    end = start + length - 1
    return [(start, end)] if end < period else [(start, period - 1), (0, end - period)]


def _merged(arcs):
    """Arcs sorted by start, the overlapping ones merged."""
    merged = []
    for start, end in sorted(arcs):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def _class_vectors(cols, size, form, basis):
    """The class vector of each of size keys whose coordinates cols lists, under
    one lattice: form . key, coordinate i then reduced by basis row i into
    [0, pivot i), in order, one coordinate across all keys at a time."""
    key_len, n = len(cols), len(cols) + 1
    v = []
    for row in range(n):
        x = [0] * size
        for f, col in zip(form[row * key_len:(row + 1) * key_len], cols):
            if f:
                x = list(map(add, x, map(mul, col, repeat(f))))
        v.append(x)
    for i in range(n):
        q = list(map(floordiv, v[i], repeat(basis[i * n + i])))
        for j in range(i, n):
            if basis[i * n + j]:
                v[j] = list(map(sub, v[j], map(mul, q, repeat(basis[i * n + j]))))
    return list(zip(*v))


def residue_histogram(key_len, window, region, lattices, limit):
    """The cover counts of a tile window by column class.

    window and region are flat rows as in next_ball, sorted by (key, lo)
    with disjoint intervals per key, each region row inside a window row of
    its key.  Each lattice is (form, basis, entries), all flat and row
    major: form has key_len + 1 rows of key_len entries; basis is echelon
    with positive pivots, key_len + 1 rows of key_len + 1, and its last
    pivot P is the lattice's period; entries holds key_len + 3 numbers per
    entry, a bucket (key_len), a residue r, a twist k and a count n.  A
    column's key has under each lattice the class vector v, form . key
    reduced by the basis (coordinate i by row i into [0, pivot i), in
    order), and its class is the tuple of its vectors.  At last coordinate
    c a class has the count: the sum over the lattices, and over the
    entries whose bucket is v without its last entry u, of n [(c + k u) mod
    P = r].  The period is the lcm of the lattices' periods, 1 with none.

    Returns (evaluations, histogram).  evaluations is the sum over the
    window's columns of the residues mod period their points take: period
    once a row is a period long, else the size of the union of the rows'
    arcs on the circle of residues.  histogram is None when evaluations is
    past limit, and nothing in proportion to it is built; otherwise it is
    Histogram(ids, ends, residues, counts, window, region, total, covered):
    ids[i] is the class of window row i, the classes numbered as they first
    come; class c's support is residues[ends[c]:ends[c + 1]], sorted (every
    residue once a row of the class is a period long, else the union of its
    rows' arcs), and counts, window and region hold its count and how many
    points of its window and region rows take each of them; total is the
    sum of counts times window points, and covered the region's points at
    residues of nonzero count.  A row adds its whole periods to every
    residue of its class, and one to each residue of the arc of the rest,
    which starts at lo mod period and may wrap past period - 1 to the
    class's least residues: differences at four positions, summed once.
    Python ints have no cap, so this twin also runs the calls whose numbers
    could reach 2**62.
    """
    period = check_histogram_inputs(key_len, window, region, lattices)
    cols, keys, los, his = _split_rows(window, key_len)
    _, region_keys, region_los, region_his = _split_rows(region, key_len)
    n = len(keys)
    same = list(map(eq, keys, islice(keys, 1, None)))  # row i + 1 in row i's column
    lengths = list(map(sub, map(add, his, repeat(1)), los))
    # each column's residues: min(length, period) for a column of one row;
    # the period once a row is a period long, else the union of its rows'
    # arcs, for a column of more
    firsts = [True, *map(not_, same)]
    lone = map(and_, firsts, [*firsts[1:], True])
    evaluations = sum(map(min, compress(lengths, lone), repeat(period)))
    starts = list(compress(range(n), firsts))
    for a, b in zip(starts, [*starts[1:], n]):
        if b - a == 1:
            continue
        if max(lengths[a:b]) >= period:
            evaluations += period
        else:
            evaluations += sum(end - start + 1 for start, end in _merged(
                arc for i in range(a, b) for arc in _row_arcs(los[i], lengths[i], period)))
    if evaluations > limit:
        return evaluations, None
    vectors = zip(*(_class_vectors(cols, n, form, basis) for form, basis, _ in lattices))
    numbers = {}
    classes = [numbers.setdefault(v, len(numbers)) for v in vectors] if lattices else [0] * n
    n_classes = len(numbers) if lattices else min(n, 1)
    full = set(compress(classes, map(ge, lengths, repeat(period))))
    arcs = [[] for _ in range(n_classes)]
    for c, lo, length in zip(classes, los, lengths):
        if c not in full:
            arcs[c] += _row_arcs(lo, length, period)
    ends, residues = [0], []
    for c in range(n_classes):
        if c in full:
            residues += range(period)
        else:
            for start, end in _merged(arcs[c]):
                residues += range(start, end + 1)
        ends.append(len(residues))

    def points(row_classes, row_los, row_lengths):
        begins = list(map(ends.__getitem__, row_classes))
        stops = list(map(ends.__getitem__, map(add, row_classes, repeat(1))))
        starts = list(map(mod, row_los, repeat(period)))
        # each arc's first position: its start's place in the class's support
        places = map(bisect_left, repeat(residues), starts, begins, stops)
        diff = [0] * (len(residues) + 1)
        for begin, stop, place, start, length in zip(begins, stops, places, starts,
                                                     row_lengths):
            whole, rest = divmod(length, period)
            if start + rest > period:  # the rest wraps to the class's least residues
                whole += 1
                diff[place + rest - (stop - begin)] -= 1
            else:
                diff[place + rest] -= 1
            diff[place] += 1
            diff[begin] += whole
            diff[stop] -= whole
        return list(accumulate(diff[:-1]))

    # each region row in the window row of its key that holds it
    region_classes, j = [], 0
    for key, lo, hi in zip(region_keys, region_los, region_his):
        while j < n and (keys[j], his[j]) < (key, lo):
            j += 1
        if j == n or keys[j] != key or los[j] > lo or his[j] < hi:
            raise ValueError("region rows must lie in window rows")
        region_classes.append(classes[j])
    region_lengths = list(map(sub, map(add, region_his, repeat(1)), region_los))
    counts = [0] * len(residues)
    # each lattice's entries by bucket, then by twist mod its period: {r: n}
    tables = []
    for form, basis, entries in lattices:
        p, table = basis[-1], {}
        for i in range(0, len(entries), key_len + 3):
            *bucket, r, k, m = entries[i:i + key_len + 3]
            if 0 <= r < p:
                found = table.setdefault(tuple(bucket), {}).setdefault(k % p, {})
                found[r] = found.get(r, 0) + m
        tables.append((p, table))
    for c, vector in enumerate(numbers):
        lo, hi = ends[c], ends[c + 1]
        for (p, table), (*bucket, u) in zip(tables, vector):
            for k, found in table.get(tuple(bucket), {}).items():
                shift = k * u
                counts[lo:hi] = map(add, counts[lo:hi], (found.get((x + shift) % p, 0)
                                                          for x in residues[lo:hi]))
    window_points = points(classes, los, lengths)
    region_points = points(region_classes, region_los, region_lengths)
    return evaluations, Histogram(classes, ends, residues, counts, window_points,
                                  region_points, sum(map(mul, counts, window_points)),
                                  sum(compress(region_points, counts)))
