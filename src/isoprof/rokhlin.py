"""Rokhlin towers: disjoint tile translates covering all but epsilon of a graphing.

A tower with shape T and base vertex a is the fiber {t.a : t in T}, computed
by walking geodesic words of the shape elements through the generator maps.
A family places towers greedily in canonical vertex order (largest shape
first) and reports the exact covered mass; disjointness is never trusted
from construction, verify_tower_family recomputes everything from the bases.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, MixedGroupError, ParameterError, WindowExceededError
from .exact import format_fraction, parse_fraction


@dataclass(frozen=True)
class TowerFamily:
    """Per-shape base sets with the exact covered mass."""

    bases: tuple
    coverage: Fraction
    epsilon_target: Fraction
    success: bool
    leftover: tuple = ()
    fibers: tuple = ()

    def meets(self, epsilon):
        return self.coverage >= 1 - Fraction(epsilon)


def tower_family_to_json(tf):
    return {
        "bases": [list(b) for b in tf.bases],
        "coverage": format_fraction(tf.coverage),
    }


def tower_family_from_json(obj):
    """Load a tower-family claim; fibers and targets are recomputed by verification."""
    if not isinstance(obj, dict) or set(obj) != {"bases", "coverage"}:
        raise ConfigError("tower JSON needs exactly the fields bases, coverage")
    bases = tuple(tuple(int(v) for v in b) for b in obj["bases"])
    coverage = parse_fraction(obj["coverage"])
    return TowerFamily(
        bases=bases,
        coverage=coverage,
        epsilon_target=Fraction(1, 1),
        success=coverage >= 0,
    )


def _shape_words(graphing, mt, enforce_window=True):
    """Geodesic words for every shape element, shape order preserved."""
    group = mt.group
    if group != graphing.group:
        raise MixedGroupError("multi-tile and graphing use different groups")
    words = []
    diameter = 0
    for shape in mt.shapes:
        ws = [group.geodesic_word(t) for t in shape]
        diameter = max([diameter] + [len(w) for w in ws])
        words.append(ws)
    if enforce_window and diameter > graphing.free_window:
        raise WindowExceededError(
            f"shape diameter {diameter} exceeds the free window "
            f"{graphing.free_window}; fibers could wrap onto themselves"
        )
    return words


def _fiber(graphing, words, base):
    """The tower fiber over a base vertex, or None if broken or self-colliding."""
    fiber = []
    for w in words:
        v = graphing.apply_word(w, base)
        if v is None:
            return None
        fiber.append(v)
    if len(set(fiber)) != len(fiber):
        return None
    return fiber


def build_towers(graphing, mt, epsilon):
    """Greedy tower family: coverage >= 1 - epsilon on tidy quotients, exact always."""
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon must lie in (0,1), got {epsilon}")
    words = _shape_words(graphing, mt)
    order = sorted(range(len(mt.shapes)), key=lambda i: (-len(mt.shapes[i]), i))
    V = graphing.n_vertices
    used = [False] * V
    bases = [[] for _ in mt.shapes]
    fibers = [[] for _ in mt.shapes]
    for v in range(V):
        if used[v]:
            continue
        for i in order:
            fib = _fiber(graphing, words[i], v)
            if fib is None or any(used[x] for x in fib):
                continue
            for x in fib:
                used[x] = True
            bases[i].append(v)
            fibers[i].append(tuple(fib))
            break
    covered = [v for v in range(V) if used[v]]
    coverage = graphing.mu(covered)
    return TowerFamily(
        bases=tuple(tuple(b) for b in bases),
        coverage=coverage,
        epsilon_target=epsilon,
        success=coverage >= 1 - epsilon,
        leftover=tuple(v for v in range(V) if not used[v]),
        fibers=tuple(tuple(f) for f in fibers),
    )


@dataclass(frozen=True)
class TowerVerification:
    """From-scratch disjointness and coverage recheck of a claimed family."""

    passed: bool
    disjoint: bool
    coverage: Fraction
    coverage_matches: bool
    collisions: tuple
    broken: tuple


def verify_tower_family(graphing, mt, tf):
    """Recompute all fibers from the bases; pass iff disjoint and coverage as claimed."""
    if len(tf.bases) != len(mt.shapes):
        raise ParameterError(
            f"family has {len(tf.bases)} base sets but the multi-tile has "
            f"{len(mt.shapes)} shapes"
        )
    words = _shape_words(graphing, mt, enforce_window=False)
    seen = {}
    collisions = []
    broken = []
    covered = set()
    for i, base_set in enumerate(tf.bases):
        for a in base_set:
            fib = _fiber(graphing, words[i], a)
            if fib is None:
                if len(broken) < 5:
                    broken.append((i, a))
                continue
            for x in fib:
                if x not in seen:
                    seen[x] = (i, a)
                elif len(collisions) < 5:
                    collisions.append((x, seen[x], (i, a)))
                covered.add(x)
    coverage = graphing.mu(sorted(covered))
    disjoint = not collisions and not broken
    matches = coverage == tf.coverage
    return TowerVerification(
        passed=disjoint and matches,
        disjoint=disjoint,
        coverage=coverage,
        coverage_matches=matches,
        collisions=tuple(collisions),
        broken=tuple(broken),
    )
