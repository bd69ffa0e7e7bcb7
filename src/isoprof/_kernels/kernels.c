/* Compiled kernels of isoprof: exact algorithmic twins of _pure.py.

   Plain C99 behind a flat C ABI; _core.py builds this file and calls it
   through ctypes after checking every input.  Branch order, pruning rules
   and tie handling are kept in lockstep with the pure versions, so results
   and node counts are bit-identical.  Every search runs on an explicit
   stack, and vertex and item sets are arrays of ceil(n/64) 64-bit limbs, so
   neither size has a cap.  Three kernels search: all subsets containing
   vertex 0 (subset_min_ratio), interior packings (pack_max_weight) and
   connected sets (one enumerator behind min_boundary_sets and
   partition_dp).  Each entry point returns 1 when the search finished, 0
   when it stopped on the node budget and -1 when an allocation failed;
   min_boundary_sets returns -2 when its table misses a translate.  Four
   kernels do not search: next_ball grows the column balls of Z^d and the
   Heisenberg group, one interval sweep over sorted runs of rows;
   ball_table cuts each sphere out of its ball and reads the neighbour
   table from the largest ball's rows; graphing_certificate checks a
   graphing's paired maps and its transitive symmetries in one pass over
   its neighbour table; and residue_histogram numbers the column classes of
   a tile window, each key's form reduced by an echelon basis per lattice,
   and lists for each class the residues its rows take (from the arcs of
   the rows on the circle of residues), its cover count at each (from the
   lattices' entries) and how many window and region points take each. */

#include <limits.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned long long u64;

static int popcount64(u64 x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}

static int ctz64(u64 x)
{
    /* x != 0; count of trailing zeros via the isolated low bit */
    return popcount64((x & (~x + 1)) - 1);
}

/* ---- kernel 1: minimum boundary ratio over all subsets containing vertex 0 ---- */

typedef struct {
    const int *nbr;
    int S, msize;
    int *status; /* 0 undecided, 1 in, 2 out */
    int *out_cnt, *members;
    long long B;
} Smr;

static void smr_leaf(Smr *st, long long *num, long long *den)
{
    int size = st->msize, i, j, v, u;
    long long boundary = st->B;
    for (i = 0; i < size; i++) {
        v = st->members[i];
        if (st->out_cnt[v] == 0) {
            for (j = 0; j < st->S; j++) {
                u = st->nbr[v * st->S + j];
                if (u >= 0 && st->status[u] == 0) {
                    boundary++;
                    break;
                }
            }
        }
    }
    if (den[size] == 0 || boundary * den[size] < num[size] * size) {
        num[size] = boundary;
        den[size] = size;
    }
}

static void smr_include(Smr *st, int v)
{
    int out = 0, j, u;
    st->status[v] = 1;
    st->members[st->msize++] = v;
    for (j = 0; j < st->S; j++) {
        u = st->nbr[v * st->S + j];
        if (u < 0 || st->status[u] == 2)
            out++;
    }
    st->out_cnt[v] = out;
    if (out)
        st->B++;
}

static void smr_undo_include(Smr *st, int v)
{
    if (st->out_cnt[v])
        st->B--;
    st->status[v] = 0;
    st->msize--;
}

static void smr_exclude(Smr *st, int v)
{
    int j, u;
    st->status[v] = 2;
    for (j = 0; j < st->S; j++) {
        u = st->nbr[v * st->S + j];
        if (u >= 0 && st->status[u] == 1) {
            if (st->out_cnt[u] == 0)
                st->B++;
            st->out_cnt[u]++;
        }
    }
}

static void smr_undo_exclude(Smr *st, int v)
{
    int j, u;
    for (j = 0; j < st->S; j++) {
        u = st->nbr[v * st->S + j];
        if (u >= 0 && st->status[u] == 1 && --st->out_cnt[u] == 0)
            st->B--;
    }
    st->status[v] = 0;
}

/* nbr: universe x s_count vertex ids, -1 outside the universe; num and den
   arrive zeroed with n_max + 1 entries. */
int subset_min_ratio(const int *nbr, int universe, int s_count, int n_max,
                     long long budget, long long *num, long long *den,
                     long long *nodes_out)
{
    /* status, out_cnt, then phase[k] for the node at depth k (0 on entry,
       1 with vertex k in, 2 with it out), then the members */
    int *block = calloc(3 * (size_t)universe + n_max + 2, sizeof(int));
    int *phase, complete = 1, k = 1, m, go;
    long long nodes = 0;
    Smr st = {nbr, s_count, 0};
    if (!block)
        return -1;
    st.status = block;
    st.out_cnt = block + universe;
    phase = block + 2 * (size_t)universe;
    st.members = phase + universe + 1;
    num[1] = den[1] = 1; /* {0} is always reachable with ratio 1 */
    smr_include(&st, 0);
    while (k > 0) {
        go = 0; /* 0 returns to the parent, 1 or 2 descends with k in or out */
        if (phase[k] == 0) {
            if (++nodes > budget)
                complete = 0;
            else if (st.msize == n_max || k == universe)
                smr_leaf(&st, num, den);
            else {
                for (m = st.msize; m <= n_max; m++)
                    if (m && (den[m] == 0 || st.B * den[m] < num[m] * m))
                        break;
                if (m <= n_max) { /* some size can still improve */
                    smr_include(&st, k);
                    go = 1;
                }
            }
        } else if (phase[k] == 1) {
            smr_undo_include(&st, k);
            if (complete) {
                smr_exclude(&st, k);
                go = 2;
            }
        } else
            smr_undo_exclude(&st, k);
        if (go) {
            phase[k++] = go;
            phase[k] = 0;
        } else
            k--;
    }
    *nodes_out = nodes;
    free(block);
    return complete;
}

/* ---- kernel 2: maximum-weight feasible interior packing ---- */

typedef struct {
    size_t il, vl;           /* item limbs, vertex limbs */
    int n_bound, ccount, undo_top;
    const u64 *vmask;        /* count x vl */
    const long long *w;
    u64 *exq;                /* count x il: pairs that can never share a solution */
    u64 *ov;                 /* count x il: overlapping pairs that force a merge */
    u64 *cmask, *chosen;     /* cluster vertex masks, (count + 1) x vl; il */
    int *parent, *item_cluster, *undo_roots;
    long long cur;
} Pmw;

static int pmw_find(const Pmw *st, int c)
{
    while (st->parent[c] != c)
        c = st->parent[c];
    return c;
}

/* greedy clique cover of the exclusivity graph; any feasible subset of the
   pool is an independent set, so one item per clique is admissible */
static long long pmw_cover_bound(const Pmw *st, const u64 *pool, const int *by_weight,
                                 int count, u64 *rem, u64 *common)
{
    long long ub = 0;
    size_t il = st->il, t, k;
    int oi, i, j;
    u64 bit, jb;
    memcpy(rem, pool, il * sizeof(u64));
    for (oi = 0; oi < count; oi++) {
        i = by_weight[oi];
        bit = (u64)1 << (i & 63);
        if (!(rem[i >> 6] & bit))
            continue;
        ub += st->w[i];
        rem[i >> 6] ^= bit;
        for (t = 0; t < il; t++)
            common[t] = rem[t] & st->exq[i * il + t];
        /* the masks only lose bits, so the limbs below t stay empty */
        for (t = 0; t < il;) {
            if (!common[t]) {
                t++;
                continue;
            }
            jb = common[t] & (~common[t] + 1);
            j = (int)(t << 6) + ctz64(jb);
            rem[t] ^= jb;
            common[t] ^= jb;
            for (k = t; k < il; k++)
                common[k] &= st->exq[j * il + k];
        }
    }
    return ub;
}

/* Returns the number of merged roots pushed onto the undo stack, or -1 when
   the merged cluster would exceed n_bound. */
static int pmw_try_include(Pmw *st, int i)
{
    size_t t;
    int j, r, k, base = st->undo_top, pc = 0, cid = st->ccount;
    u64 rest, jb, m;
    u64 *merged = st->cmask + cid * st->vl;
    for (t = 0; t < st->il; t++) {
        rest = st->chosen[t] & st->ov[i * st->il + t];
        while (rest) {
            jb = rest & (~rest + 1);
            rest ^= jb;
            j = (int)(t << 6) + ctz64(jb);
            r = pmw_find(st, st->item_cluster[j]);
            for (k = base; k < st->undo_top && st->undo_roots[k] != r; k++)
                ;
            if (k == st->undo_top)
                st->undo_roots[st->undo_top++] = r;
        }
    }
    for (t = 0; t < st->vl; t++) {
        m = st->vmask[i * st->vl + t];
        for (k = base; k < st->undo_top; k++)
            m |= st->cmask[st->undo_roots[k] * st->vl + t];
        merged[t] = m;
        pc += popcount64(m);
    }
    if (pc > st->n_bound) {
        st->undo_top = base;
        return -1;
    }
    st->parent[cid] = cid;
    st->ccount++;
    for (k = base; k < st->undo_top; k++)
        st->parent[st->undo_roots[k]] = cid;
    st->item_cluster[i] = cid;
    st->chosen[i >> 6] |= (u64)1 << (i & 63);
    st->cur += st->w[i];
    return st->undo_top - base;
}

static void pmw_undo_include(Pmw *st, int i, int n_roots)
{
    int r;
    st->cur -= st->w[i];
    st->chosen[i >> 6] ^= (u64)1 << (i & 63);
    st->ccount--;
    while (n_roots--) {
        r = st->undo_roots[--st->undo_top];
        st->parent[r] = r;
    }
}

/* vmask: count x vl vertex limbs per item; by_weight: items by descending
   weight, ties by index; best_set receives the best item set, il limbs.

   fix_root skips the exclude branch of the root pick.  The caller sets it
   only when label-preserving automorphisms act transitively on the
   vertices, so some optimum contains the root pick; the include branch
   runs first and only a strict improvement replaces best, so the optimum
   returned, the first one found, is that of the full search
   (_pure.pack_max_weight gives the argument in full). */
int pack_max_weight(int count, int vl, const u64 *vmask, const long long *w,
                    const int *by_weight, int n_bound, long long budget, int fix_root,
                    long long *best_out, u64 *best_set, long long *nodes_out)
{
    size_t il = ((size_t)count + 63) / 64, cap = (size_t)count + 1, t, k;
    /* exq, ov, cluster masks, chosen, two scratch sets, then one pool per depth */
    u64 *limbs = calloc((2 * (size_t)count + 3) * il + cap * (vl + il), sizeof(u64));
    /* parent, item_cluster, undo_roots, then per depth the branched item, its
       merged-root count and the phase (0 on entry, 1 with the item in, 2 out) */
    int *ints = calloc(6 * cap, sizeof(int));
    int complete = 1, d = 0, i, j, p, deg, pick_deg, go, *pick, *roots, *phase;
    long long nodes = 0, best = -1;
    u64 both, ib, *scratch, *pools, *pool, *next;
    Pmw st = {il, (size_t)vl, n_bound, 0, 0, vmask, w};
    if (!limbs || !ints) {
        free(limbs);
        free(ints);
        return -1;
    }
    st.exq = limbs;
    st.ov = st.exq + count * il;
    st.cmask = st.ov + count * il;
    st.chosen = st.cmask + cap * vl;
    scratch = st.chosen + il;
    pools = scratch + 2 * il;
    st.parent = ints;
    st.item_cluster = ints + cap;
    st.undo_roots = ints + 2 * cap;
    pick = ints + 3 * cap;
    roots = ints + 4 * cap;
    phase = ints + 5 * cap;
    for (i = 0; i < count; i++) {
        for (j = i + 1; j < count; j++) {
            int meet = 0, pc = 0;
            for (t = 0; t < st.vl; t++) {
                meet |= (vmask[i * st.vl + t] & vmask[j * st.vl + t]) != 0;
                pc += popcount64(vmask[i * st.vl + t] | vmask[j * st.vl + t]);
            }
            if (meet) {
                u64 *pairs = pc > n_bound ? st.exq : st.ov;
                pairs[i * il + (j >> 6)] |= (u64)1 << (j & 63);
                pairs[j * il + (i >> 6)] |= (u64)1 << (i & 63);
            }
        }
        pools[i >> 6] |= (u64)1 << (i & 63);
    }
    while (d >= 0) {
        pool = pools + d * il;
        next = pool + il;
        go = 0; /* 0 returns to the parent, 1 or 2 descends with the pick in or out */
        if (phase[d] == 0) {
            if (++nodes > budget)
                complete = 0;
            else {
                if (st.cur > best) {
                    best = st.cur;
                    memcpy(best_set, st.chosen, il * sizeof(u64));
                }
                for (t = 0, both = 0; t < il; t++)
                    both |= pool[t];
                if (both && st.cur + pmw_cover_bound(&st, pool, by_weight, count, scratch,
                                                     scratch + il) > best) {
                    /* branch on the pool item with the most exclusivity conflicts */
                    pick_deg = -1;
                    for (t = 0; t < il; t++)
                        for (both = pool[t]; both; both ^= ib) {
                            ib = both & (~both + 1);
                            i = (int)(t << 6) + ctz64(ib);
                            for (k = 0, deg = 0; k < il; k++)
                                deg += popcount64(st.exq[i * il + k] & pool[k]);
                            if (deg > pick_deg) {
                                pick[d] = i;
                                pick_deg = deg;
                            }
                        }
                    roots[d] = pmw_try_include(&st, pick[d]);
                    go = roots[d] >= 0 ? 1 : 2;
                }
            }
        } else if (phase[d] == 1) {
            pmw_undo_include(&st, pick[d], roots[d]);
            go = complete && !(fix_root && d == 0) ? 2 : 0;
        }
        if (!go) {
            d--;
            continue;
        }
        p = pick[d];
        for (t = 0; t < il; t++)
            next[t] = go == 1 ? pool[t] & ~st.exq[p * il + t] : pool[t];
        next[p >> 6] &= ~((u64)1 << (p & 63));
        phase[d++] = go;
        phase[d] = 0;
    }
    *best_out = best;
    *nodes_out = nodes;
    free(limbs);
    free(ints);
    return complete;
}

/* ---- kernel 3: connected sets grown from a root (Redelmeier 1981) ---- */

typedef struct {
    const int *grow, *bnd; /* universe x gw growth ids, universe x bw boundary ids, -1 pads */
    int gw, bw;
    const long long *weight; /* NULL weighs every vertex 1 */
    const int *rank; /* NULL grows into ids above the root, else into ranks above it */
    int *in_set, *seen, *out_cnt, *members, *via, *cand, *pos, *end;
    int size;
    long long B; /* weight of the members with a boundary id outside the set */
} Grow;

#define GROW_WEIGHT(g, v) ((g)->weight ? (g)->weight[v] : 1)

/* the ints Grow needs for a universe of n vertices and sets of size <= limit */
#define GROW_INTS(n, limit) (6 * (size_t)(n) + 2 * ((size_t)(limit) + 2))

static void grow_init(Grow *g, int *block, int universe, int limit)
{
    g->in_set = block;
    g->seen = block + universe;
    g->out_cnt = block + 2 * (size_t)universe;
    g->members = block + 3 * (size_t)universe;
    g->via = block + 4 * (size_t)universe;
    g->cand = block + 5 * (size_t)universe;
    g->pos = block + 6 * (size_t)universe;
    g->end = g->pos + limit + 2;
}

static void grow_add(Grow *g, int w)
{
    int j, u, out = 0;
    g->in_set[w] = 1;
    g->members[g->size++] = w;
    for (j = 0; j < g->bw; j++) {
        u = g->bnd[(size_t)w * g->bw + j];
        if (u < 0 || !g->in_set[u])
            out++;
        else if (u != w && --g->out_cnt[u] == 0)
            g->B -= GROW_WEIGHT(g, u);
    }
    g->out_cnt[w] = out;
    if (out)
        g->B += GROW_WEIGHT(g, w);
}

static void grow_remove(Grow *g, int w)
{
    int j, u;
    if (g->out_cnt[w])
        g->B -= GROW_WEIGHT(g, w);
    for (j = 0; j < g->bw; j++) {
        u = g->bnd[(size_t)w * g->bw + j];
        if (u >= 0 && u != w && g->in_set[u] && g->out_cnt[u]++ == 0)
            g->B += GROW_WEIGHT(g, u);
    }
    g->in_set[w] = 0;
    g->size--;
}

/* Offers the growth ids of w, the newest member, that lie above root and are
   not yet candidates; via records which member offered each, and along which
   slot.  Returns the new end of cand. */
static int grow_offer(Grow *g, int root, int w, int e)
{
    int j, u;
    for (j = 0; j < g->gw; j++) {
        u = g->grow[(size_t)w * g->gw + j];
        if (u >= 0 && (g->rank ? g->rank[u] > g->rank[root] : u > root) && !g->seen[u]) {
            g->seen[u] = 1;
            g->via[u] = (g->size - 1) * g->gw + j;
            g->cand[e++] = u;
        }
    }
    return e;
}

/* Calls visit on every connected set that contains root, has its other
   members above root (by rank when there is one, else by id) and at most
   limit members: root alone first, then each set grown by one candidate,
   where a vertex becomes a candidate once, when it first neighbours the set.
   Nodes count the sets past the root.  Returns 1, or 0 when the node budget
   stopped it, leaving the state dirty. */
static int grow_sets(Grow *g, int root, int limit, long long budget, long long *nodes,
                     void (*visit)(const Grow *, void *), void *ctx)
{
    /* level d tries cand[pos[d]..end[d]) as member d + 1; the candidates
       fresh at level d sit at cand[end[d - 1]..end[d]), end[0] = 0 */
    int d = 1, j, w;
    int *cand = g->cand, *pos = g->pos, *end = g->end;
    g->seen[root] = 1;
    grow_add(g, root);
    visit(g, ctx);
    end[0] = pos[1] = 0;
    end[1] = limit > 1 ? grow_offer(g, root, root, 0) : 0;
    for (;;) {
        if (pos[d] < end[d]) {
            if (++*nodes > budget)
                return 0;
            w = cand[pos[d]];
            grow_add(g, w);
            visit(g, ctx);
            if (g->size < limit) {
                pos[d + 1] = pos[d] + 1;
                end[d + 1] = grow_offer(g, root, w, end[d]);
                d++;
            } else {
                grow_remove(g, w);
                pos[d]++;
            }
        } else {
            for (j = end[d - 1]; j < end[d]; j++)
                g->seen[cand[j]] = 0;
            if (--d == 0)
                break;
            grow_remove(g, cand[pos[d]]);
            pos[d]++;
        }
    }
    grow_remove(g, root);
    g->seen[root] = 0;
    return 1;
}

/* Per size, the fewest boundary members, ties to the least sorted rank array.

   With inv (the id of each vertex's inverse) the rank order is taken to be
   right-invariant, g < h exactly when g*x < h*x, and the boundary to be
   counted with left generators, so every right translate S*x of a set has
   the boundary of S.  The enumerator then grows only into ranks above the
   identity (vertex 0) and visits each translation class once, as the
   translate whose least member is the identity.  The key of a visited S is
   that of its least translate among those containing the identity, S*h^-1
   for a member h: min(S*h^-1) = h^-1, so it is the one whose h^-1 ranks
   least, and right-invariance keeps its sorted order that of S.  Its ids
   follow the growth tree: member 0 (the identity) goes to inv[h], and a
   member offered by member p along slot j goes to slot j of p's translate.
   Every translate lies within limit - 1 steps of the identity, so a table of
   that ball holds it; a table that does not sets bad. */
typedef struct {
    const int *rank, *inv, *nbr;
    int limit, bad;
    long long *best; /* limit + 1 entries, -1 while no set of that size was seen */
    int *sets, *keys, *key, *moved; /* (limit + 1) x limit ids and sorted ranks; scratch */
} MinBoundary;

static void min_boundary_visit(const Grow *g, void *ctx)
{
    MinBoundary *mb = ctx;
    int k = g->size, i, j, r, h = 0;
    const int *ids = g->members;
    int *key = mb->key, *slot = mb->keys + (size_t)k * mb->limit;
    long long old = mb->best[k];
    if (old >= 0 && g->B > old)
        return;
    if (mb->inv) {
        for (i = 1; i < k; i++)
            if (mb->rank[mb->inv[ids[i]]] < mb->rank[mb->inv[ids[h]]])
                h = i;
        mb->moved[0] = mb->inv[ids[h]];
        for (i = 1; i < k; i++) {
            j = g->via[ids[i]];
            r = mb->nbr[(size_t)mb->moved[j / g->gw] * g->gw + j % g->gw];
            if (r < 0) {
                mb->bad = 1;
                return;
            }
            mb->moved[i] = r;
        }
        ids = mb->moved;
    }
    for (i = 0; i < k; i++) {
        r = mb->rank[ids[i]];
        for (j = i; j > 0 && key[j - 1] > r; j--)
            key[j] = key[j - 1];
        key[j] = r;
    }
    if (old == g->B) {
        for (i = 0; i < k && key[i] == slot[i]; i++)
            ;
        if (i == k || key[i] > slot[i])
            return;
    }
    mb->best[k] = g->B;
    memcpy(slot, key, k * sizeof(int));
    memcpy(mb->sets + (size_t)k * mb->limit, ids, k * sizeof(int));
}

/* nbr: universe x s_count vertex ids, -1 outside the universe, for growth
   and boundary alike; rank: each vertex's place in the canonical element
   order; inv: NULL, or each vertex's inverse for the translation classes
   above; best: limit + 1 entries; sets: (limit + 1) x limit vertex ids, row
   k holding the winning set of size k in the order it grew.  Returns -2 when
   a translate left the table. */
int min_boundary_sets(const int *nbr, int universe, int s_count, int limit,
                      const int *rank, const int *inv, long long budget, long long *best,
                      int *sets, long long *nodes_out)
{
    size_t keys = ((size_t)limit + 1) * limit;
    int *block = calloc(GROW_INTS(universe, limit) + keys + 2 * (size_t)limit, sizeof(int));
    int k, complete;
    long long nodes = 0;
    Grow g = {nbr, nbr, s_count, s_count, NULL, inv ? rank : NULL};
    MinBoundary mb = {rank, inv, nbr, limit, 0, best, sets};
    if (!block)
        return -1;
    grow_init(&g, block, universe, limit);
    mb.keys = block + GROW_INTS(universe, limit);
    mb.key = mb.keys + keys;
    mb.moved = mb.key + limit;
    for (k = 0; k <= limit; k++)
        best[k] = -1;
    complete = grow_sets(&g, 0, limit, budget, &nodes, min_boundary_visit, &mb);
    *nodes_out = nodes;
    free(block);
    return mb.bad ? -2 : complete;
}

typedef struct {
    u64 *mask; /* NULL while only counting */
    long long *cost;
    size_t count;
} CellList;

static void cell_list_visit(const Grow *g, void *ctx)
{
    CellList *cl = ctx;
    u64 m = 0;
    int i;
    if (cl->mask) {
        for (i = 0; i < g->size; i++)
            m |= (u64)1 << g->members[i];
        cl->mask[cl->count] = m;
        cl->cost[cl->count] = g->B;
    }
    cl->count++;
}

/* the best split of mask: its cheapest cell of the lowest vertex plus the
   best value of the rest, ties to the smaller cell mask */
static long long dp_best(const CellList *cl, const int *start, const long long *value,
                         u64 mask, u64 *pick)
{
    int v = ctz64(mask);
    size_t c;
    long long best = -1, cand;
    u64 cm;
    for (c = start[v]; c < (size_t)start[v + 1]; c++) {
        cm = cl->mask[c];
        if ((cm & mask) != cm)
            continue;
        cand = cl->cost[c] + value[mask ^ cm];
        if (best < 0 || cand < best || (cand == best && cm < *pick)) {
            best = cand;
            *pick = cm;
        }
    }
    return best;
}

/* Minimum total cost of a partition of the universe into connected cells of
   at most limit vertices, a cell costing the weight of its members with a
   neighbour id outside it.  nbr: universe x s_count ids, -1 for none; cells
   grow along each row's distinct ids in ascending order.  Ties go to the
   numerically smaller cell mask of the lowest uncovered vertex.  cells_out
   receives up to universe cell masks, *n_cells_out their number.  Only the
   2**universe values are kept; the chosen cells are found again on the way
   back from the full set. */
int partition_dp(const int *nbr, int universe, int s_count, const long long *weight,
                 int limit, long long *value_out, u64 *cells_out, int *n_cells_out,
                 long long *nodes_out)
{
    size_t full = ((size_t)1 << universe) - 1, mask;
    int *block = calloc(GROW_INTS(universe, limit) + (size_t)universe * s_count + universe + 1,
                        sizeof(int));
    int v, j, k, u, i, pass, n_cells = 0, *grow, *start;
    long long nodes = 0, *value = malloc((full + 1) * sizeof(long long));
    u64 pick;
    Grow g = {NULL, nbr, s_count, s_count, weight};
    CellList cl = {NULL, NULL, 0};
    if (!block || !value) {
        free(block);
        free(value);
        return -1;
    }
    grow_init(&g, block, universe, limit);
    grow = block + GROW_INTS(universe, limit);
    start = grow + (size_t)universe * s_count;
    /* growth rows: each row's distinct ids, ascending */
    for (v = 0; v < universe; v++) {
        int *row = grow + (size_t)v * s_count;
        for (j = 0, k = 0; j < s_count; j++) {
            u = nbr[(size_t)v * s_count + j];
            if (u < 0)
                continue;
            for (i = k; i > 0 && row[i - 1] > u; i--)
                ;
            if (i > 0 && row[i - 1] == u)
                continue;
            memmove(row + i + 1, row + i, (k - i) * sizeof(int));
            row[i] = u;
            k++;
        }
        for (; k < s_count; k++)
            row[k] = -1;
    }
    g.grow = grow;
    /* count the cells, then list them grouped by their lowest vertex */
    for (pass = 0; pass < 2; pass++) {
        if (pass) {
            cl.mask = malloc(cl.count * sizeof(u64));
            cl.cost = malloc(cl.count * sizeof(long long));
            if (!cl.mask || !cl.cost) {
                free(cl.mask);
                free(cl.cost);
                free(block);
                free(value);
                return -1;
            }
            cl.count = 0;
            nodes = 0;
        }
        for (v = 0; v < universe; v++) {
            start[v] = (int)cl.count;
            grow_sets(&g, v, limit, LLONG_MAX, &nodes, cell_list_visit, &cl);
        }
        start[universe] = (int)cl.count;
    }
    value[0] = 0;
    for (mask = 1; mask <= full; mask++)
        value[mask] = dp_best(&cl, start, value, mask, &pick);
    *value_out = value[full];
    for (mask = full; mask; mask ^= pick) {
        dp_best(&cl, start, value, mask, &pick);
        cells_out[n_cells++] = pick;
    }
    *n_cells_out = n_cells;
    *nodes_out = nodes;
    free(cl.mask);
    free(cl.cost);
    free(block);
    free(value);
    return 1;
}

/* ---- kernel 4: the next column ball of Z^d or the Heisenberg group ---- */

/* lexicographic comparison of the first n entries of two rows */
static int row_cmp(const long long *a, const long long *b, int n)
{
    int i;
    for (i = 0; i < n; i++)
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    return 0;
}

#define COORD_CAP (1LL << 62)

/* |x|, or COORD_CAP when that is smaller */
static long long abs_capped(long long x)
{
    return x <= -COORD_CAP || x >= COORD_CAP ? COORD_CAP : x < 0 ? -x : x;
}

/* 0 when rows of k key entries, lo and hi are sorted by (key, lo), with
   disjoint intervals per key, and every entry is below COORD_CAP in absolute
   value; -2 when unsorted, -3 when too large.  top[0] and top[1] grow to
   bound the key entries and all entries */
static int rows_check(const long long *rows, long long n, int k, long long *top)
{
    long long i, a;
    const long long *r;
    int c, t;
    for (i = 0; i < n; i++) {
        r = rows + i * (k + 2);
        for (t = 0; t < k + 2; t++) {
            if ((a = abs_capped(r[t])) == COORD_CAP)
                return -3;
            if (t < k && a > top[0])
                top[0] = a;
            if (a > top[1])
                top[1] = a;
        }
        if (r[k] > r[k + 1])
            return -2;
        if (i && ((c = row_cmp(r - (k + 2), r, k)) > 0 || (c == 0 && r[-1] >= r[k])))
            return -2;
    }
    return 0;
}

/* a + b * c for a, b, c in [0, COORD_CAP], or COORD_CAP when that is smaller */
static long long capped_madd(long long a, long long b, long long c)
{
    if (b && c > (COORD_CAP - a) / b)
        return COORD_CAP;
    return a + b * c;
}

/* 0 when no step (2k + 1 entries: head, dc, coef) moves a coordinate of rows
   bounded by top, as rows_check leaves it, to 2**62 or past it; -3 when one
   could: a step moves a coordinate by at most |head| or |dc| + |coef|.|key| */
static int steps_check(int k, int n_steps, const long long *steps, const long long *top)
{
    int s, t;
    long long reach;
    const long long *step;
    for (s = 0; s < n_steps; s++) {
        step = steps + (size_t)s * (2 * k + 1);
        reach = abs_capped(step[k]);
        for (t = 0; t < k; t++)
            reach = capped_madd(reach, abs_capped(step[k + 1 + t]), top[0]);
        for (t = 0; t < k; t++)
            if (abs_capped(step[t]) > reach)
                reach = abs_capped(step[t]);
        if (top[1] + reach >= COORD_CAP)
            return -3;
    }
    return 0;
}

typedef struct {
    int k;
    const long long *holes; /* rows to cut out, sorted by (key, lo) */
    long long n_holes, j;   /* j: the first hole that can meet the next interval */
    long long *out, n_out;  /* out NULL: only count the rows */
} Sweep;

static void sweep_put(Sweep *s, const long long *key, long long lo, long long hi)
{
    long long *r;
    if (s->out) {
        r = s->out + s->n_out * (s->k + 2);
        memcpy(r, key, s->k * sizeof(long long));
        r[s->k] = lo;
        r[s->k + 1] = hi;
    }
    s->n_out++;
}

/* write the points of key's interval lo..hi that no hole holds */
static void sweep_cut(Sweep *s, const long long *key, long long lo, long long hi)
{
    int k = s->k, c;
    long long i;
    const long long *h;
    for (; s->j < s->n_holes; s->j++) {
        h = s->holes + s->j * (k + 2);
        c = row_cmp(h, key, k);
        if (c > 0 || (c == 0 && h[k + 1] >= lo))
            break;
    }
    for (i = s->j; i < s->n_holes; i++) {
        h = s->holes + i * (k + 2);
        if (row_cmp(h, key, k) != 0 || h[k] > hi)
            break;
        if (h[k] > lo)
            sweep_put(s, key, lo, h[k] - 1);
        if (h[k + 1] + 1 > lo)
            lo = h[k + 1] + 1;
    }
    if (lo <= hi)
        sweep_put(s, key, lo, hi);
}

/* whether run a's next row comes before run b's: by (key, lo), then by run */
static int run_before(const long long **at, int a, int b, int k)
{
    int c = row_cmp(at[a], at[b], k + 1);
    return c < 0 || (c == 0 && a < b);
}

/* restore the heap order of the n runs in heap below position i */
static void heap_down(const long long **at, int *heap, int n, int i, int k)
{
    int c, t;
    while ((c = 2 * i + 1) < n) {
        if (c + 1 < n && run_before(at, heap[c + 1], heap[c], k))
            c++;
        if (!run_before(at, heap[c], heap[i], k))
            break;
        t = heap[i];
        heap[i] = heap[c];
        heap[c] = t;
        i = c;
    }
}

/* Put the nonempty runs of n_runs, run s from at[s] up to end[s], in a
   binary heap (room for n_runs ints) ordered by their next rows; returns
   their count. */
static int heap_init(const long long **at, const long long **end, int n_runs, int *heap, int k)
{
    int s, n = 0;
    for (s = 0; s < n_runs; s++)
        if (at[s] != end[s])
            heap[n++] = s;
    for (s = n / 2 - 1; s >= 0; s--)
        heap_down(at, heap, n, s, k);
    return n;
}

/* The next row of the *n runs in the heap, by (key, lo) then by run; its
   run advances, and leaves the heap at its end. */
static const long long *heap_next(const long long **at, const long long **end, int *heap,
                                  int *n, int k)
{
    int s = heap[0];
    const long long *pick = at[s];
    at[s] += k + 2;
    if (at[s] == end[s])
        heap[0] = heap[--*n];
    heap_down(at, heap, *n, 0, k);
    return pick;
}

/* Merge n_runs runs of rows sorted by (key, lo), run s from at[s] up to
   end[s], joining the overlapping or adjacent intervals of each key, and
   pass each joined interval through sweep_cut.  The runs wait in a heap
   (room for n_runs ints); at[] advances to end[]. */
static void sweep_runs(Sweep *sw, const long long **at, const long long **end, int n_runs,
                       int *heap)
{
    int k = sw->k, n = heap_init(at, end, n_runs, heap, sw->k);
    long long hi = 0;
    const long long *pick, *cur = NULL;
    while (n) {
        pick = heap_next(at, end, heap, &n, k);
        if (cur && row_cmp(cur, pick, k) == 0 && pick[k] <= hi + 1) {
            if (pick[k + 1] > hi)
                hi = pick[k + 1];
            continue;
        }
        if (cur)
            sweep_cut(sw, cur, cur[k], hi);
        cur = pick;
        hi = pick[k + 1];
    }
    if (cur)
        sweep_cut(sw, cur, cur[k], hi);
}

/* room for the cursors of n runs: at and end, then a heap of run indices */
static const long long **runs_alloc(int n)
{
    return malloc((size_t)(n > 0 ? n : 1) * (2 * sizeof(long long *) + sizeof(int)));
}

/* Rows of ball(r) from the rows of ball(r - 1) (prev).  A row is k key
   entries, then lo and hi; rows are sorted by (key, lo) with disjoint
   intervals per key.  Step s is 2k + 1 entries: head, dc, coef; it sends
   column key to key + head and shifts lo and hi by dc + coef.key, so its
   image of prev is sorted again.  ball(r) is ball(r - 1) and its images: the
   n_steps images and prev itself are merged as sorted runs, and overlapping
   or adjacent intervals joined, so each column comes out as the maximal
   intervals of its points.  out needs room for (n_steps + 1) * n_prev rows.
   Returns the number of rows written, -1 when an allocation failed, -2 when
   prev is not sorted and -3 when a number could reach 2**62 (steps_check),
   so no sum below overflows. */
long long next_ball(int k, int n_steps, const long long *steps, const long long *prev,
                    long long n_prev, long long *out)
{
    int w = k + 2, s, t, bad;
    long long i, shift, top[2] = {0, 0}, *moved, *dst;
    const long long *step, *src, **at, **end;
    Sweep sw = {k, NULL, 0, 0, out, 0};
    if ((bad = rows_check(prev, n_prev, k, top)) || (bad = steps_check(k, n_steps, steps, top)))
        return bad;
    moved = malloc(((size_t)n_steps * n_prev * w + 1) * sizeof(long long));
    at = runs_alloc(n_steps + 1);
    if (!moved || !at) {
        free(moved);
        free(at);
        return -1;
    }
    end = at + n_steps + 1;
    for (s = 0; s < n_steps; s++) {
        step = steps + (size_t)s * (2 * k + 1);
        at[s] = moved + (size_t)s * n_prev * w;
        end[s] = at[s] + (size_t)n_prev * w;
        for (i = 0; i < n_prev; i++) {
            src = prev + i * w;
            dst = moved + ((size_t)s * n_prev + i) * w;
            shift = step[k];
            for (t = 0; t < k; t++) {
                shift += step[k + 1 + t] * src[t];
                dst[t] = src[t] + step[t];
            }
            dst[k] = src[k] + shift;
            dst[k + 1] = src[k + 1] + shift;
        }
    }
    at[n_steps] = prev;
    end[n_steps] = prev + (size_t)n_prev * w;
    sweep_runs(&sw, at, end, n_steps + 1, (int *)(end + n_steps + 1));
    free(moved);
    free(at);
    return sw.n_out;
}

/* ---- kernel 5: the neighbour table of a column ball ---- */

/* A ball's columns as the intervals of its rows, sorted by (key, lo):
   interval j is lo[j]..hi[j] of column key[j] (k entries of a row), and its
   points hold the ranks rank[j] on, in order; id[] maps a rank to its
   vertex id. */
typedef struct {
    int k;
    long long n;
    const long long **key;
    long long *lo, *hi, *rank;
    const int *id;
} Columns;

/* The ids of the points a..b of column key into img, in order, -1 for a
   point outside the ball: one binary search, then a walk along the
   column's intervals. */
static void column_ids(const Columns *c, const long long *key, long long a, long long b,
                       int *img)
{
    long long lo = 0, hi = c->n, mid, j, t = a;
    int cmp;
    while (lo < hi) { /* the first interval that does not end before (key, a) */
        mid = lo + (hi - lo) / 2;
        cmp = row_cmp(c->key[mid], key, c->k);
        if (cmp < 0 || (cmp == 0 && c->hi[mid] < a))
            lo = mid + 1;
        else
            hi = mid;
    }
    for (j = lo; j < c->n && t <= b && row_cmp(c->key[j], key, c->k) == 0; j++) {
        for (; t <= b && t < c->lo[j]; t++)
            *img++ = -1;
        for (; t <= b && t <= c->hi[j]; t++)
            *img++ = c->id[c->rank[j] + (t - c->lo[j])];
    }
    for (; t <= b; t++)
        *img++ = -1;
}

/* The neighbour table of ball(R) of a column group, from the rows of balls
   0..R: n_runs runs, run r rows ends[r - 1] up to ends[r] (from row 0 for
   r = 0), the rows of ball(r), each sorted by (key, lo) with disjoint
   intervals per key.  Sphere r is ball(r) minus ball(r - 1), cut out with
   sweep_cut, and its points take the next vertex ids, row after row, so
   sphere 0, the identity, is vertex 0.  ranks[v] receives v's place in
   (key, c) order, which is tuple order; flat[v * n_steps + s] the id of
   step s (as in next_ball) applied to v; and inv, unless NULL, the id of v's
   inverse.  The k x k form M gives the law's twist, c(gh) = c(g) + c(h) +
   key(g).M.key(h), so (key, c) has the inverse (-key, -c + key.M.key).  Ids
   outside the ball are -1.  The rows of ball(R) are the table's columns,
   whose ranks are consecutive, so each (row, step) image is one column
   lookup and a walk.  Returns 0, -1 when an allocation failed, -2 when a run
   is not sorted or a ball misses a point of the one before, and -3 when an
   image coordinate could reach 2**62. */
int ball_table(int k, int n_steps, const long long *steps, const long long *form,
               const long long *rows, int n_runs, const long long *ends, int *flat,
               int *inv, int *ranks)
{
    int w = k + 2, s, t, u, r, cmp = 0, bad = 0;
    long long top[2] = {0, 0}, from = 0, prev, i, j, p, v = 0, x, last, len, size = 0, most = 0;
    long long inner = 0, outer, count, rank, twist = 0, shift, q, *base, *key, *pieces;
    const long long *piece, *step;
    int *id, *img;
    Columns c = {k, 0};
    Sweep sw;
    for (r = 0, prev = 0; r < n_runs; prev = from, r++) {
        from = r ? ends[r - 1] : 0;
        if ((bad = rows_check(rows + from * w, ends[r] - from, k, top)))
            return bad;
        if (ends[r] - prev > most) /* the rows of balls r - 1 and r */
            most = ends[r] - prev;
    }
    if ((bad = steps_check(k, n_steps, steps, top)))
        return bad;
    if (inv) { /* |key.M.key| <= sum |M| * top[0]**2 */
        for (t = 0; t < k * k; t++)
            twist = capped_madd(twist, 1, abs_capped(form[t]));
        twist = capped_madd(0, capped_madd(0, twist, top[0]), top[0]);
        if (twist + top[1] >= COORD_CAP)
            return -3;
    }
    if (!n_runs)
        return 0;
    c.n = ends[n_runs - 1] - from; /* from: the first row of ball(R) */
    for (i = from; i < ends[n_runs - 1]; i++)
        size += rows[i * w + k + 1] - rows[i * w + k] + 1;
    /* per interval its lo, hi and rank; an image key; one sphere's rows; per
       rank its id, then the ids of one image */
    base = malloc(((size_t)3 * c.n + k + (size_t)most * w + 1) * sizeof(long long));
    c.key = malloc(((size_t)c.n + 1) * sizeof(long long *));
    id = malloc(((size_t)2 * size + 1) * sizeof(int));
    if (!base || !c.key || !id) {
        free(base);
        free(c.key);
        free(id);
        return -1;
    }
    c.lo = base;
    c.hi = c.lo + c.n;
    c.rank = c.hi + c.n;
    key = c.rank + c.n;
    pieces = key + k;
    c.id = id;
    img = id + size;
    for (j = 0, rank = 0; j < c.n; j++) {
        c.key[j] = rows + (from + j) * w;
        c.lo[j] = c.key[j][k];
        c.hi[j] = c.key[j][k + 1];
        c.rank[j] = rank;
        rank += c.hi[j] - c.lo[j] + 1;
    }
    for (r = 0, prev = 0; !bad && r < n_runs; prev = from, r++) {
        from = r ? ends[r - 1] : 0;
        sw = (Sweep){k, rows + prev * w, from - prev, 0, pieces, 0};
        for (i = from, outer = 0; i < ends[r]; i++) {
            sweep_cut(&sw, rows + i * w, rows[i * w + k], rows[i * w + k + 1]);
            outer += rows[i * w + k + 1] - rows[i * w + k] + 1;
        }
        for (p = count = 0; p < sw.n_out; p++)
            count += pieces[p * w + k + 1] - pieces[p * w + k] + 1;
        if (count != outer - inner) { /* ball(r - 1) has a point outside ball(r) */
            bad = -2;
            break;
        }
        inner = outer;
        /* each point's rank from the interval of ball(R) that holds it */
        for (p = j = 0; !bad && p < sw.n_out; p++) {
            piece = pieces + p * w;
            for (x = piece[k]; !bad && x <= piece[k + 1];) {
                while (j < c.n && ((cmp = row_cmp(c.key[j], piece, k)) < 0
                                   || (cmp == 0 && c.hi[j] < x)))
                    j++;
                if (j == c.n || cmp > 0 || c.lo[j] > x) {
                    bad = -2;
                    break;
                }
                last = c.hi[j] < piece[k + 1] ? c.hi[j] : piece[k + 1];
                for (rank = c.rank[j] + (x - c.lo[j]); x <= last; x++, v++, rank++) {
                    ranks[v] = (int)rank;
                    id[rank] = (int)v;
                }
            }
        }
    }
    for (j = 0; !bad && j < c.n; j++) {
        len = c.hi[j] - c.lo[j] + 1;
        for (s = 0; s < n_steps; s++) {
            step = steps + (size_t)s * (2 * k + 1);
            shift = step[k];
            for (t = 0; t < k; t++) {
                key[t] = c.key[j][t] + step[t];
                shift += step[k + 1 + t] * c.key[j][t];
            }
            column_ids(&c, key, c.lo[j] + shift, c.hi[j] + shift, img);
            for (i = 0; i < len; i++)
                flat[(size_t)id[c.rank[j] + i] * n_steps + s] = img[i];
        }
        if (inv) { /* point lo + i goes to q - lo - i, image len - 1 - i */
            for (q = 0, t = 0; t < k; t++) {
                key[t] = -c.key[j][t];
                for (u = 0; u < k; u++)
                    q += c.key[j][t] * form[t * k + u] * c.key[j][u];
            }
            column_ids(&c, key, q - c.hi[j], q - c.lo[j], img);
            for (i = 0; i < len; i++)
                inv[id[c.rank[j] + i]] = img[len - 1 - i];
        }
    }
    free(base);
    free(c.key);
    free(id);
    return bad;
}

/* ---- kernel 6: a graphing's paired maps and transitive symmetries ---- */

/* The neighbour table of a graphing of V vertices and L labels, table[v * L
   + s] the image of v under map s or -1 where it is undefined, read in one
   pass.  First each map must be inverted by its inverse label's map,
   inverse[s] (an involution), wherever it is defined.  Then sigma_s, for
   each label s, sends 0 to table[s] and follows the breadth-first tree of
   the maps from vertex 0, labels in table order, by sigma(phi_t(v)) =
   phi_t(sigma(v)); it is kept only as a permutation that commutes with
   every map, undefined shifts included.  A permutation that commutes with
   phi_t commutes with its inverse map too, so only the labels t <=
   inverse[t] are read.  sigmas receives sigma_s at s * V.  Returns 1 when
   every sigma is kept, 0 when one is not (the maps are disconnected, or a
   hole breaks the symmetry), 2 when a map's inverse map does not invert it,
   -1 when an allocation failed and -2 when an entry is not -1 or a
   vertex. */
int graphing_certificate(const int *table, int V, int L, const int *inverse, int *sigmas)
{
    size_t n = (size_t)V * L, i;
    int s, t, u, v, a, head, tail = 1, ok = 1, *order, *parent, *via, *sig;
    unsigned char *mark;
    for (i = 0; i < n; i++)
        if (table[i] < -1 || table[i] >= V)
            return -2;
    for (v = 0; v < V; v++)
        for (s = 0; s < L; s++) {
            u = table[(size_t)v * L + s];
            if (u >= 0 && table[(size_t)u * L + inverse[s]] != v)
                return 2;
        }
    /* order lists the tree's vertices as they are reached; the tree edge
       into u is label via[u] from parent[u] */
    order = malloc(3 * (size_t)V * sizeof(int));
    mark = calloc((size_t)V, 1);
    if (!order || !mark) {
        free(order);
        free(mark);
        return -1;
    }
    parent = order + V;
    via = parent + V;
    order[0] = 0;
    mark[0] = 1;
    for (head = 0; head < tail; head++)
        for (v = order[head], s = 0; s < L; s++) {
            u = table[(size_t)v * L + s];
            if (u >= 0 && !mark[u]) {
                mark[u] = 1;
                parent[u] = v;
                via[u] = s;
                order[tail++] = u;
            }
        }
    if (tail < V)
        ok = 0;
    for (s = 0; ok && s < L; s++) {
        sig = sigmas + (size_t)s * V;
        memset(mark, 0, (size_t)V);
        /* a hole on the way, or an image met twice, is no permutation */
        for (i = 0; ok && i < (size_t)V; i++) {
            u = order[i];
            a = i ? table[(size_t)sig[parent[u]] * L + via[u]] : table[s];
            if (a < 0 || mark[a])
                ok = 0;
            else {
                mark[a] = 1;
                sig[u] = a;
            }
        }
        /* sigma o phi_t and phi_t o sigma agree, -1 where undefined */
        for (v = 0; ok && v < V; v++)
            for (t = 0; ok && t < L; t++) {
                if (inverse[t] < t)
                    continue;
                a = table[(size_t)v * L + t];
                if ((a < 0 ? -1 : sig[a]) != table[(size_t)sig[v] * L + t])
                    ok = 0;
            }
    }
    free(order);
    free(mark);
    return ok;
}

/* ---- kernel 8: the cover counts of a tile window, class by class ---- */

/* an arc start..end of the circle of residues cut at 0, start <= end */
typedef struct {
    long long start, end;
} Arc;

static int arc_cmp(const void *a, const void *b)
{
    long long x = ((const Arc *)a)->start, y = ((const Arc *)b)->start;
    return x < y ? -1 : x > y;
}

/* The residues mod period of the len points from lo on, 0 < len < period,
   as one arc or, when they pass period - 1, two; returns how many.  period
   lies below COORD_CAP, so no sum overflows. */
static int row_arcs(long long lo, long long len, long long period, Arc *arc)
{
    long long s = lo % period;
    if (s < 0)
        s += period;
    arc[0].start = s;
    if (s + len <= period) {
        arc[0].end = s + len - 1;
        return 1;
    }
    arc[0].end = period - 1;
    arc[1].start = 0;
    arc[1].end = s + len - 1 - period;
    return 2;
}

/* Sort n arcs by start and merge the overlapping ones in place; returns the
   merged count, and adds the residues they hold to *size. */
static long long arcs_merge(Arc *arcs, long long n, long long *size)
{
    long long i, m = 0;
    if (n > 1)
        qsort(arcs, (size_t)n, sizeof(Arc), arc_cmp);
    for (i = 0; i < n; i++) {
        if (m && arcs[i].start <= arcs[m - 1].end) {
            if (arcs[i].end > arcs[m - 1].end)
                arcs[m - 1].end = arcs[i].end;
        } else
            arcs[m++] = arcs[i];
    }
    for (i = 0; i < m; i++)
        *size += arcs[i].end - arcs[i].start + 1;
    return m;
}

/* The support of every class: class c's residues are at positions ends[c]
   up to ends[c + 1], of size in all; a full class holds every residue in
   order, any other the merged arcs first[c] up to first[c + 1], arc j from
   position place[j]. */
typedef struct {
    long long period, size;
    const long long *ends, *first, *place;
    const unsigned char *full;
    const Arc *arcs;
} Support;

/* Count the len > 0 points from lo on, residue by residue, into the
   difference array diff over the positions of class c's support, which
   holds all their residues: q whole periods add q at every residue, and
   the rest adds one along its arcs.  A difference at position size would
   change no sum below it, and is left out. */
static void support_add(const Support *s, long long c, long long lo, long long len,
                        long long *diff)
{
    long long q = len / s->period, pos, end, lo_j, hi_j, mid;
    Arc arc[2];
    int a, n;
    if (q) {
        diff[s->ends[c]] += q;
        if (s->ends[c + 1] < s->size)
            diff[s->ends[c + 1]] -= q;
    }
    if (!(len %= s->period))
        return;
    n = row_arcs(lo, len, s->period, arc);
    for (a = 0; a < n; a++) {
        if (s->full[c])
            pos = s->ends[c] + arc[a].start;
        else {
            lo_j = s->first[c];
            hi_j = s->first[c + 1];
            while (hi_j - lo_j > 1) { /* the last arc that starts at or before it */
                mid = lo_j + (hi_j - lo_j) / 2;
                if (s->arcs[mid].start <= arc[a].start)
                    lo_j = mid;
                else
                    hi_j = mid;
            }
            pos = s->place[lo_j] + arc[a].start - s->arcs[lo_j].start;
        }
        diff[pos]++;
        if ((end = pos + arc[a].end - arc[a].start + 1) < s->size)
            diff[end]--;
    }
}

/* *acc + a * b into *acc, where |*acc| < COORD_CAP: 0 when the product
   lies below 2**61 and the sum below COORD_CAP in absolute value, -3
   otherwise.  The product is bounded in double, whose rounding is far
   below the margin, and not by a division. */
static int madd_checked(long long *acc, long long a, long long b)
{
    double p = (double)a * (double)b;
    if (p >= 0x1p61 || p <= -0x1p61)
        return -3;
    *acc += a * b;
    return abs_capped(*acc) == COORD_CAP ? -3 : 0;
}

/* a * b mod m for 0 <= a, b < m < COORD_CAP, by doubling when the product
   could leave int64 */
static long long mulmod(long long a, long long b, long long m)
{
    long long r = 0;
    if (m <= 1LL << 31)
        return a * b % m;
    for (; b; b >>= 1) {
        if ((b & 1) && (r += a) >= m)
            r -= m;
        if ((a += a) >= m)
            a -= m;
    }
    return r;
}

static u64 mix64(u64 x)
{
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* Vectors of width entries numbered in the order they first come: each
   vector's copy in store at id * width, and an open-addressing table of
   ids, grown to keep it at most half full. */
typedef struct {
    int width;
    long long n, mask, *slot, *store; /* slot: -1 when empty, else an id */
} Intern;

/* the vector of width entries at v, hashed */
static u64 vector_hash(const long long *v, int width)
{
    u64 h = 0x9E3779B97F4A7C15ULL;
    int j;
    for (j = 0; j < width; j++)
        h = mix64(h ^ (u64)v[j]);
    return h;
}

/* The id of vector v; when v is new, the next id if insert is set, else
   -1; -2 when an allocation failed. */
static long long intern(Intern *t, const long long *v, int insert)
{
    long long i, j, size = t->mask + 1, *slot, *store;
    for (i = (long long)(vector_hash(v, t->width) & (u64)t->mask); t->slot && t->slot[i] >= 0;
         i = (i + 1) & t->mask)
        if (row_cmp(t->store + t->slot[i] * t->width, v, t->width) == 0)
            return t->slot[i];
    if (!insert)
        return -1;
    if (2 * (t->n + 1) > size) { /* double the table, and the store with it */
        size = size < 8 ? 8 : 2 * size;
        slot = malloc((size_t)size * sizeof(long long));
        store = realloc(t->store, ((size_t)size / 2 * t->width + 1) * sizeof(long long));
        if (store)
            t->store = store;
        if (!slot || !store) {
            free(slot);
            return -2;
        }
        for (i = 0; i < size; i++)
            slot[i] = -1;
        for (j = 0; j < t->n; j++) {
            for (i = (long long)(vector_hash(t->store + j * t->width, t->width) & (u64)(size - 1));
                 slot[i] >= 0; i = (i + 1) & (size - 1))
                ;
            slot[i] = j;
        }
        free(t->slot);
        t->slot = slot;
        t->mask = size - 1;
        return intern(t, v, insert);
    }
    memcpy(t->store + t->n * t->width, v, (size_t)t->width * sizeof(long long));
    t->slot[i] = t->n;
    return t->n++;
}

static void intern_free(Intern *t)
{
    free(t->slot);
    free(t->store);
}

/* -3 when a number of the lattices, or the sum of their entries' |count|,
   reaches COORD_CAP in absolute value; 0 otherwise */
static int lattices_check(int k, int n_lattices, const long long *forms, const long long *bases,
                          const long long *entries, const long long *entry_ends)
{
    long long i, mass = 0, n_entries = entry_ends[n_lattices];
    for (i = 0; i < (long long)n_lattices * (k + 1) * k; i++)
        if (abs_capped(forms[i]) == COORD_CAP)
            return -3;
    for (i = 0; i < (long long)n_lattices * (k + 1) * (k + 1); i++)
        if (abs_capped(bases[i]) == COORD_CAP)
            return -3;
    for (i = 0; i < n_entries * (k + 3); i++)
        if (abs_capped(entries[i]) == COORD_CAP)
            return -3;
    for (i = 0; i < n_entries; i++)
        if ((mass += abs_capped(entries[i * (k + 3) + k + 2])) >= COORD_CAP)
            return -3;
    return 0;
}

/* The class vector of column key under one lattice, into v (k + 1
   entries): form . key, coordinate i then reduced by basis row i into [0,
   pivot i), in order; -3 when an entry could reach COORD_CAP */
static int class_vector(int k, const long long *form, const long long *basis,
                        const long long *key, long long *v)
{
    int n = k + 1, i, j;
    long long q;
    for (i = 0; i < n; i++) {
        v[i] = 0;
        for (j = 0; j < k; j++)
            if (form[i * k + j] && madd_checked(v + i, form[i * k + j], key[j]))
                return -3;
    }
    for (i = 0; i < n; i++) {
        q = v[i] / basis[i * n + i];
        q -= v[i] % basis[i * n + i] < 0; /* the floor */
        for (j = i; q && j < n; j++)
            if (basis[i * n + j] && madd_checked(v + j, -q, basis[i * n + j]))
                return -3;
    }
    return 0;
}

/* The class of each window row into ids, the classes numbered as they
   first come: the vectors of its column's key under every lattice, one
   after another, interned in classes.  Returns 0, -1 when an allocation
   failed and -3 when an entry could reach COORD_CAP. */
static int window_classes(int k, const long long *window, long long n_window, int n_lattices,
                          const long long *forms, const long long *bases, long long *ids,
                          Intern *classes)
{
    int n = k + 1, s, bad = 0;
    long long i, c = 0, *v = malloc(((size_t)n_lattices * n + 1) * sizeof(long long));
    const long long *key;
    if (!v)
        return -1;
    for (i = 0; !bad && i < n_window; i++) {
        key = window + i * (k + 2);
        if (!i || row_cmp(key - (k + 2), key, k)) { /* a new column */
            for (s = 0; !bad && s < n_lattices; s++)
                bad = class_vector(k, forms + (size_t)s * n * k, bases + (size_t)s * n * n, key,
                                   v + s * n);
            if (!bad && (c = intern(classes, v, 1)) < 0)
                bad = -1;
        }
        ids[i] = c;
    }
    free(v);
    return bad;
}

/* a lattice entry: n points at residue r, with twist k (mod the lattice's
   period), in the bucket of this id */
typedef struct {
    long long bucket, k, r, n;
} Entry;

static int entry_cmp(const void *a, const void *b)
{
    const Entry *x = a, *y = b;
    if (x->bucket != y->bucket)
        return x->bucket < y->bucket ? -1 : 1;
    if (x->k != y->k)
        return x->k < y->k ? -1 : 1;
    return x->r < y->r ? -1 : x->r > y->r;
}

/* Add each class's counts at its support residues into count.  The
   entries are bucketed by (lattice, bucket) and sorted by (bucket, twist,
   residue); class c then reads, per lattice, each twist k of the bucket of
   its vector v, at support residue x the entry of residue (x + k v_last)
   mod P, found by halving.  -1 when an allocation failed. */
static int class_counts(int k, int n_lattices, const long long *bases, const long long *entries,
                        const long long *entry_ends, const Intern *classes, const long long *ends,
                        const long long *residues, long long *count)
{
    int n = k + 1, s, bad = 0;
    long long n_entries = entry_ends[n_lattices], i, m = 0, b, c, e, g, lo, len, half, x, t, P;
    long long shift, *start = NULL, *key = malloc(((size_t)n + 1) * sizeof(long long));
    const long long *entry, *v;
    Entry *sorted = malloc(((size_t)n_entries + 1) * sizeof(Entry));
    Intern buckets = {0};
    buckets.width = n;
    if (!key || !sorted) {
        bad = -1;
        goto done;
    }
    for (s = 0; s < n_lattices; s++) {
        P = bases[(size_t)(s + 1) * n * n - 1];
        key[0] = s;
        for (i = entry_ends[s]; i < entry_ends[s + 1]; i++) {
            entry = entries + i * (k + 3);
            if (entry[k] < 0 || entry[k] >= P) /* a residue no point takes */
                continue;
            memcpy(key + 1, entry, (size_t)k * sizeof(long long));
            if ((sorted[m].bucket = intern(&buckets, key, 1)) < 0) {
                bad = -1;
                goto done;
            }
            sorted[m].r = entry[k];
            sorted[m].k = entry[k + 1] % P + (entry[k + 1] % P < 0 ? P : 0);
            sorted[m++].n = entry[k + 2];
        }
    }
    if (m > 1)
        qsort(sorted, (size_t)m, sizeof(Entry), entry_cmp);
    for (e = 0, i = 0; i < m; i++) /* one entry per (bucket, twist, residue) */
        if (e && !entry_cmp(sorted + e - 1, sorted + i))
            sorted[e - 1].n += sorted[i].n;
        else
            sorted[e++] = sorted[i];
    if (!(start = malloc(((size_t)buckets.n + 1) * sizeof(long long)))) {
        bad = -1;
        goto done;
    }
    for (b = 0, i = 0; b <= buckets.n; b++) {
        while (i < e && sorted[i].bucket < b)
            i++;
        start[b] = i;
    }
    for (c = 0; c < classes->n; c++)
        for (s = 0; s < n_lattices; s++) {
            v = classes->store + (c * n_lattices + s) * n;
            P = bases[(size_t)(s + 1) * n * n - 1];
            key[0] = s;
            memcpy(key + 1, v, (size_t)k * sizeof(long long));
            if ((b = intern(&buckets, key, 0)) < 0)
                continue;
            for (i = start[b]; i < start[b + 1]; i = g) {
                for (g = i + 1; g < start[b + 1] && sorted[g].k == sorted[i].k; g++)
                    ;
                shift = mulmod(sorted[i].k, v[k], P);
                for (x = ends[c]; x < ends[c + 1]; x++) {
                    t = (residues[x] < P ? residues[x] : residues[x] % P) + shift;
                    t -= t >= P ? P : 0;
                    /* the last entry of the run whose residue is at most t:
                       halving without a branch on the data */
                    for (lo = i, len = g - i; len > 1; len -= half) {
                        half = len / 2;
                        lo = sorted[lo + half].r <= t ? lo + half : lo;
                    }
                    if (sorted[lo].r == t)
                        count[x] += sorted[lo].n;
                }
            }
        }
done:
    free(key);
    free(start);
    free(sorted);
    intern_free(&buckets);
    return bad;
}

/* The cover counts of a tile window by column class.  window holds n_window
   rows (k key entries, lo, hi) sorted by (key, lo), disjoint per key;
   region holds n_region rows likewise, each inside a window row of its
   key.  Lattice s of n_lattices has a form, k + 1 rows of k entries at
   forms + s(k + 1)k; an echelon basis with positive pivots, k + 1 rows of
   k + 1 at bases + s(k + 1)^2, whose last pivot P_s is its period; and the
   entries entry_ends[s] up to entry_ends[s + 1] of entries, k + 3 numbers
   each: a bucket (k), a residue, a twist and a count.  A column's key has
   under lattice s the class vector v_s, form . key reduced by the basis
   (class_vector); its class is the tuple of its v_s.  At last coordinate
   c, class (v_s) has the count: the sum over s, and over the entries of
   lattice s whose bucket is v_s without its last entry u, of count [(c +
   twist u) mod P_s = residue].  period is the lcm of the P_s.

   Returns evaluations, the sum over the window's columns of the residues
   mod period their points take.  When that is at most limit, ids[i]
   receives the class of window row i, the classes numbered as they first
   come; ends[c] the position of class c's first support residue
   (ends[n_classes] their number S); sums the number of classes, the sum of
   counts (count times window points, summed) and the covered count (the
   region's points at residues of nonzero count); and *out a malloc'd block
   of 4S entries, for release to free: the support residues of each class
   in order (every residue once a row of the class is a period long, else
   the union of its rows' arcs), then the count, the window's points and
   the region's points at each.  Otherwise *out is NULL, and nothing in
   proportion to evaluations was allocated.  Returns -1 when an allocation
   failed, -2 when rows are not sorted or a region row lies outside the
   window, and -3 when an entry, the period, the number of window points, a
   class vector's entry, the sum of counts or the entries' counts summed
   in absolute value reach 2**62. */
long long residue_histogram(int k, const long long *window, long long n_window,
                            const long long *region, long long n_region, int n_lattices,
                            const long long *forms, const long long *bases,
                            const long long *entries, const long long *entry_ends,
                            long long period, long long limit, long long *ids, long long *ends,
                            long long *sums, long long **out)
{
    int w = k + 2, bad;
    long long top[2] = {0, 0}, i, j, a, b, c, m, x, len, points = 0, evaluations = 0, S = 0;
    long long n_classes, total = 0, covered = 0, *first = NULL, *fill, *place, *block = NULL;
    const long long *r, *v;
    unsigned char *full = NULL;
    Arc *arcs, pair[2];
    Intern classes = {0};
    Support sup;
    *out = NULL;
    classes.width = n_lattices * (k + 1);
    if ((bad = rows_check(window, n_window, k, top))
        || (bad = rows_check(region, n_region, k, top))
        || (bad = lattices_check(k, n_lattices, forms, bases, entries, entry_ends)))
        return bad;
    if (period >= COORD_CAP)
        return -3;
    for (i = 0; i < n_window; i++) {
        r = window + i * w;
        len = r[k + 1] - r[k] + 1;
        if (len >= COORD_CAP - points)
            return -3;
        points += len;
    }
    arcs = malloc((2 * (size_t)n_window + 1) * sizeof(Arc));
    if (!arcs)
        return -1;
    /* each column's residues: the period once a row is a period long, else
       the union of its rows' arcs */
    for (a = 0; a < n_window; a = b) {
        for (b = a + 1; b < n_window && row_cmp(window + a * w, window + b * w, k) == 0; b++)
            ;
        for (m = 0, i = a; i < b; i++) {
            r = window + i * w;
            if ((len = r[k + 1] - r[k] + 1) >= period)
                break;
            m += row_arcs(r[k], len, period, arcs + m);
        }
        if (i < b)
            evaluations += period;
        else
            arcs_merge(arcs, m, &evaluations);
    }
    if (evaluations > limit)
        goto done;
    if ((bad = window_classes(k, window, n_window, n_lattices, forms, bases, ids, &classes)))
        goto done;
    n_classes = classes.n;
    full = calloc((size_t)n_classes + 1, 1);
    first = calloc(2 * (size_t)n_classes + 2 * (size_t)n_window + 2, sizeof(long long));
    if (!full || !first) {
        bad = -1;
        goto done;
    }
    for (i = 0; i < n_window; i++)
        if (window[i * w + k + 1] - window[i * w + k] + 1 >= period)
            full[ids[i]] = 1;
    fill = first + n_classes + 1;
    place = fill + n_classes;
    /* the arcs of the classes no row makes full, bucketed by class, then
       sorted, merged and packed class after class */
    for (i = 0; i < n_window; i++) {
        r = window + i * w;
        if (!full[ids[i]])
            first[ids[i] + 1] += row_arcs(r[k], r[k + 1] - r[k] + 1, period, pair);
    }
    for (c = 0; c < n_classes; c++)
        first[c + 1] += first[c];
    for (i = 0; i < n_window; i++) {
        r = window + i * w;
        c = ids[i];
        if (!full[c])
            fill[c] += row_arcs(r[k], r[k + 1] - r[k] + 1, period, arcs + first[c] + fill[c]);
    }
    for (m = 0, c = 0; c < n_classes; c++) {
        a = first[c];
        first[c] = m;
        ends[c] = S;
        if (full[c]) {
            S += period;
            continue;
        }
        memmove(arcs + m, arcs + a, (size_t)fill[c] * sizeof(Arc));
        x = 0;
        for (b = m + arcs_merge(arcs + m, fill[c], &x); m < b; m++) {
            place[m] = S;
            S += arcs[m].end - arcs[m].start + 1;
        }
    }
    first[n_classes] = m;
    ends[n_classes] = S;
    /* the counts, then the window's and the region's points, summed from
       their differences in place */
    if (!(block = calloc(4 * (size_t)S + 1, sizeof(long long)))) {
        bad = -1;
        goto done;
    }
    for (c = 0; c < n_classes; c++) {
        if (full[c])
            for (x = 0; x < period; x++)
                block[ends[c] + x] = x;
        else
            for (j = first[c]; j < first[c + 1]; j++)
                for (x = arcs[j].start; x <= arcs[j].end; x++)
                    block[place[j] + x - arcs[j].start] = x;
    }
    sup.period = period;
    sup.size = S;
    sup.ends = ends;
    sup.first = first;
    sup.place = place;
    sup.full = full;
    sup.arcs = arcs;
    for (i = 0; i < n_window; i++) {
        r = window + i * w;
        support_add(&sup, ids[i], r[k], r[k + 1] - r[k] + 1, block + 2 * S);
    }
    /* each region row in the window row of its key that holds it */
    for (i = 0, j = 0; i < n_region; i++) {
        v = region + i * w;
        for (; j < n_window; j++) {
            r = window + j * w;
            c = row_cmp(r, v, k);
            if (c > 0 || (c == 0 && r[k + 1] >= v[k]))
                break;
        }
        r = window + j * w;
        if (j == n_window || row_cmp(r, v, k) != 0 || r[k] > v[k] || r[k + 1] < v[k + 1]) {
            bad = -2;
            goto done;
        }
        support_add(&sup, ids[j], v[k], v[k + 1] - v[k] + 1, block + 3 * S);
    }
    for (x = 1; x < S; x++) {
        block[2 * S + x] += block[2 * S + x - 1];
        block[3 * S + x] += block[3 * S + x - 1];
    }
    if ((bad = class_counts(k, n_lattices, bases, entries, entry_ends, &classes, ends, block,
                            block + S)))
        goto done;
    for (x = 0; x < S; x++)
        if (block[S + x]) {
            covered += block[3 * S + x];
            if ((bad = madd_checked(&total, block[S + x], block[2 * S + x])))
                goto done;
        }
    sums[0] = n_classes;
    sums[1] = total;
    sums[2] = covered;
    *out = block;
    block = NULL;
done:
    free(arcs);
    intern_free(&classes);
    free(full);
    free(first);
    free(block);
    return bad ? bad : evaluations;
}

void release(void *block)
{
    free(block);
}
