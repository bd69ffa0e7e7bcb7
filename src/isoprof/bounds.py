"""Exact certification of the inequalities tying together profiles, tilings, and markings.

Every check recomputes both sides through public operations and compares
exact rationals; a BoundCheck never carries a tolerance.  The generating-set
comparison is decomposed into its exactly checkable links: the setwise
containment of the coarse boundary in translated fine boundaries, the union
bound over translating words, and the per-word mass-growth bound (sup-norm
factors in the bounded case, a power-trick Hoelder comparison in the L^p
case).  The final constant is the sum of per-word factors; a single factor
M^(k-1) undercounts the translates and fails on round trips, see the
decision ledger.
"""

from dataclasses import dataclass
from fractions import Fraction

from .action_profile import BoundedPartition, boundary_mass, profile_action_exact, profile_action_tiling
from .errors import (
    NotApplicableError,
    ParameterError,
    RadiusExceededError,
    UnsupportedError,
    WindowExceededError,
)
from .exact import SqrtSum
from .graphings import MeasuredGraphing, RNProfile, build_torus_action, build_weighted_cycle
from .groups import ZdGroup
from .isoperimetry import profile_exact
from .tilings import cube_tile


@dataclass(frozen=True)
class BoundCheck:
    """One exact inequality: passed iff 'lhs relation rhs' holds (informational rows excepted)."""

    name: str
    lhs: Fraction
    rhs: Fraction
    relation: str
    passed: bool
    context: dict


def _relation_holds(lhs, relation, rhs):
    if relation == "<=":
        return lhs <= rhs
    if relation == ">=":
        return lhs >= rhs
    if relation == ">":
        return lhs > rhs
    raise ParameterError(f"unknown relation {relation!r}")


def check_lower_bound(graphing, group, n):
    """Action profile >= group profile at n, both exact (pmp models, inside the window)."""
    if graphing.group != group:
        raise ParameterError("the graphing does not model the given group")
    if not graphing.is_pmp():
        raise NotApplicableError("the lower bound is proved for pmp actions")
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if n > graphing.free_window:
        raise WindowExceededError(
            f"n={n} exceeds the free window {graphing.free_window}: beyond it the "
            "finite model admits wraparound partitions the infinite group lacks"
        )
    lhs = profile_action_exact(graphing, n).value
    rhs = profile_exact(group, n).value(n)
    return BoundCheck(
        name="lower-bound",
        lhs=lhs,
        rhs=rhs,
        relation=">=",
        passed=lhs >= rhs,
        context={"n": n, "vertices": graphing.n_vertices,
                 "free_window": graphing.free_window},
    )


def check_tiling_upper_bound(graphing, multitile, n, epsilon):
    """Tower-partition mass <= max shape ratio adjusted by the uncovered mass."""
    sizes = [len(s) for s in multitile.shapes]
    if max(sizes) > n:
        raise ParameterError(f"shape sizes {sizes} exceed n={n}")
    result = profile_action_tiling(graphing, multitile, epsilon)
    lhs = result.value
    rhs = result.adjusted_bound
    return BoundCheck(
        name="tiling-upper",
        lhs=lhs,
        rhs=rhs,
        relation="<=",
        passed=lhs <= rhs,
        context={
            "n": n,
            "epsilon": epsilon,
            "coverage": result.coverage,
            "shape_bound": result.shape_bound,
        },
    )


def _reduced_words(labels, inv, max_len):
    """All reduced label words of length <= max_len, shortest first, label order."""
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for lab in labels:
                if w and lab == inv[w[-1]]:
                    continue
                nxt.append(w + (lab,))
        words.extend(nxt)
        frontier = nxt
    return words


def _word_image(graphing, word, vertices):
    """Forward image of a vertex set under the word, dropping broken chains."""
    out = []
    for v in vertices:
        t = graphing.apply_word(word, v)
        if t is not None:
            out.append(t)
    return sorted(set(out))


def _marking_power(g1, g2):
    """Smallest k with every S2 generator a word of length <= k in S1."""
    group1, group2 = g1.group, g2.group
    k = 0
    for lab in group2.labels:
        try:
            k = max(k, group1.word_norm(group2.generator(lab)))
        except RadiusExceededError:
            raise UnsupportedError(
                f"generator {lab!r} of the coarse marking is not a bounded "
                "word in the fine marking"
            ) from None
    if k == 0:
        raise ParameterError("the coarse marking has no generators")
    return k


def _shared_space(g1, g2):
    if g1.n_vertices != g2.n_vertices or g1.weights != g2.weights:
        raise ParameterError("the two graphings must share vertices and weights")


@dataclass(frozen=True)
class ContainmentReport:
    """Is the coarse boundary inside the union of word-translated fine boundaries?"""

    contained: bool
    k: int
    boundary_coarse: tuple
    union_size: int
    missing: tuple


def generating_set_containment(g1, g2, partition):
    """Setwise check: boundary under S2 sits inside ball(k-1) translates of the S1 boundary."""
    _shared_space(g1, g2)
    if partition.graphing is not g1:
        raise ParameterError("the partition must be built on the fine-marking graphing")
    k = _marking_power(g1, g2)
    p2 = BoundedPartition(g2, partition.cells, partition.n_bound)
    bdry2 = boundary_mass(g2, p2).boundary_set
    bdry1 = boundary_mass(g1, partition).boundary_set
    union = set()
    for word in _reduced_words(g1.group.labels, g1.group._inv_label, k - 1):
        union.update(_word_image(g1, word, bdry1))
    missing = tuple(v for v in bdry2 if v not in union)
    return ContainmentReport(
        contained=not missing,
        k=k,
        boundary_coarse=bdry2,
        union_size=len(union),
        missing=missing[:5],
    )


def check_generating_set_comparison(g1, g2, n, p=None):
    """Coarse-marking boundary mass against the fine one, through exact links.

    The chain: boundary(S2) sits in the union of w * boundary(S1) over reduced
    S1-words w of length < k, so mu(bdry2) <= sum_w mu(w bdry1); each term is
    bounded by a per-word factor times mu(bdry1).  With p=None the factors are
    sup-norms of the step densities (bounded case); with rational p > 1 each
    term satisfies the Hoelder bound mu(wA) <= ||density_w||_p mu(A)^{1/q},
    verified exactly by the power trick.
    """
    _shared_space(g1, g2)
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    partition = profile_action_exact(g1, n).partition
    containment = generating_set_containment(g1, g2, partition)
    k = containment.k
    bdry1 = boundary_mass(g1, partition).boundary_set
    mu1 = g1.mu(bdry1)
    mu2 = g1.mu(containment.boundary_coarse)
    words = _reduced_words(g1.group.labels, g1.group._inv_label, k - 1)
    union_sum = Fraction(0)
    for word in words:
        union_sum += g1.mu(_word_image(g1, word, bdry1))
    union_ok = mu2 <= union_sum
    context = {
        "n": n,
        "k": k,
        "containment": containment.contained,
        "union_bound": union_ok,
        "words": len(words),
    }
    if p is None:
        M = max(g1.rn_profile(lab).linf() for lab in g1.group.labels)
        links_ok = True
        C = Fraction(0)
        for word in words:
            factor = M ** len(word)
            C += factor
            if g1.mu(_word_image(g1, word, bdry1)) > factor * mu1:
                links_ok = False
        rhs = C * mu1
        context.update({"method": "sup", "M": M, "C": C, "links": links_ok})
        passed = containment.contained and union_ok and links_ok and mu2 <= rhs
        return BoundCheck(
            name="generating-sets",
            lhs=mu2,
            rhs=rhs,
            relation="<=",
            passed=passed,
            context=context,
        )
    p = Fraction(p)
    if p <= 1:
        raise ParameterError(f"p must exceed 1, got {p}")
    if k > 2:
        raise UnsupportedError(
            "the L^p comparison is implemented for markings within one ball step (k <= 2)"
        )
    a, b = p.numerator, p.denominator
    links_ok = True
    for word in words:
        values = []
        for v in range(g1.n_vertices):
            t = g1.apply_word(word, v)
            values.append(Fraction(0) if t is None else g1.weights[t] / g1.weights[v])
        profile = RNProfile(label=",".join(word) or "e", values=tuple(values),
                            weights=g1.weights)
        s_pow = profile.p_norm_power_sum(p)
        lhs_w = g1.mu(_word_image(g1, word, bdry1))
        # mu(wA)^a <= S^b * mu(A)^(a-b) certifies mu(wA) <= ||density||_p mu(A)^{1/q}
        lhs_pow = SqrtSum.from_rational(lhs_w) ** a
        rhs_pow = s_pow**b * SqrtSum.from_rational(mu1) ** (a - b)
        if (rhs_pow - lhs_pow).sign() < 0:
            links_ok = False
    context.update({"method": "holder", "p": p, "links": links_ok})
    passed = containment.contained and union_ok and links_ok and mu2 <= union_sum
    return BoundCheck(
        name="generating-sets",
        lhs=mu2,
        rhs=union_sum,
        relation="<=",
        passed=passed,
        context=context,
    )


def positivity_check(graphing, n):
    """Profile positivity inside the free window; informational beyond it."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    value = profile_action_exact(graphing, n).value
    if n > graphing.free_window:
        # the finite model degenerates to 0 here by design; the infinite
        # statement needs n generator steps to stay faithful
        return BoundCheck(
            name="positivity",
            lhs=value,
            rhs=Fraction(0),
            relation="out-of-window",
            passed=True,
            context={"n": n, "free_window": graphing.free_window,
                     "out_of_window": True},
        )
    return BoundCheck(
        name="positivity",
        lhs=value,
        rhs=Fraction(0),
        relation=">",
        passed=value > 0,
        context={"n": n, "free_window": graphing.free_window,
                 "out_of_window": False},
    )


def suite_lower_bound():
    """Torus family m in {8,10,12}, d in {1,2}, all n inside the free window."""
    checks = []
    for d in (1, 2):
        for m in (8, 10, 12):
            g = build_torus_action(d, m)
            for n in range(1, g.free_window + 1):
                checks.append(check_lower_bound(g, g.group, n))
    return checks


def suite_tiling_upper(epsilon=Fraction(1, 4)):
    """Tower upper bounds on the cyclic and grid quotients."""
    cases = [
        (build_torus_action(1, 12), 3, 3),
        (build_torus_action(1, 5), 2, 2),
        (build_torus_action(2, 6), 2, 4),
    ]
    checks = []
    for g, k, n in cases:
        mt = cube_tile(g.group, k)
        checks.append(check_tiling_upper_bound(g, mt, n, epsilon))
    return checks


def _cycle_with_marking(m, weights, steps):
    """A cycle graphing over Z marked with the given step set."""
    gens = [(s,) for s in steps]
    group = ZdGroup(1, generators=gens)
    maps = {group.labels[i]: [(v + steps[i]) % m for v in range(m)]
            for i in range(len(steps))}
    return MeasuredGraphing.from_json({
        "vertices": m,
        "weights": [f"{w.numerator}/{w.denominator}" for w in weights],
        "maps": maps,
        "group": {"kind": "Zd", "d": 1, "generators": [list(g) for g in gens]},
    })


def suite_generating_sets():
    """Marking comparisons on shared cyclic models: pmp sup-form and weighted Hoelder form."""
    checks = []
    g1 = build_torus_action(1, 12)
    g2 = _cycle_with_marking(12, g1.weights, [1, -1, 2, -2])
    for n in (2, 3):
        checks.append(check_generating_set_comparison(g1, g2, n))
    checks.append(check_generating_set_comparison(g1, g1, 3))
    raw = [Fraction(2 + (i % 3)) for i in range(8)]
    total = sum(raw)
    weights = [w / total for w in raw]
    w1 = build_weighted_cycle(8, weights)
    w2 = _cycle_with_marking(8, w1.weights, [1, -1, 2, -2])
    checks.append(check_generating_set_comparison(w1, w2, 2, p=Fraction(2)))
    return checks


def suite_positivity():
    """Positivity inside the window plus the out-of-window degeneracy row."""
    g = build_torus_action(1, 12)
    return [positivity_check(g, 1), positivity_check(g, 3), positivity_check(g, 12)]


SUITES = {
    "lower-bound": suite_lower_bound,
    "tiling-upper": suite_tiling_upper,
    "generating-sets": suite_generating_sets,
    "positivity": suite_positivity,
}
