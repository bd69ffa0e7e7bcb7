"""Rokhlin towers: disjoint tile translates covering all but epsilon of a graphing.

A tower with shape T and base vertex a is the fiber {t.a : t in T}, read
from the image of every vertex under the geodesic word of each shape
element, composed once from the graphing's rows.
A family places towers greedily in canonical vertex order (largest shape
first) and reports the exact covered mass; disjointness is never trusted
from construction, verify_tower_family recomputes everything from the bases.
"""

from fractions import Fraction
from itertools import chain, compress
from operator import not_

from ._record import Record
from .errors import ConfigError, MixedGroupError, ParameterError, WindowExceededError
from .exact import format_fraction, parse_fraction


class TowerFamily(Record):
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
    bases = obj["bases"]
    if not (isinstance(bases, list) and all(
            isinstance(b, list) and all(type(v) is int and v >= 0 for v in b) for b in bases)):
        raise ConfigError(f"bases must be lists of vertex numbers, got {bases!r}")
    coverage = parse_fraction(obj["coverage"])
    if not 0 <= coverage <= 1:
        raise ConfigError(f"coverage must lie in [0, 1], got {obj['coverage']!r}")
    # the claim is held to the trivial target epsilon = 1, which any coverage meets
    return TowerFamily(
        bases=tuple(map(tuple, bases)),
        coverage=coverage,
        epsilon_target=Fraction(1, 1),
        success=True,
    )


def _shape_images(graphing, mt, enforce_window=True):
    """Per shape, per shape element in shape order, the image of every vertex
    under its geodesic word, as one list; index V (a broken chain) maps to V."""
    group = mt.group
    if group != graphing.group:
        raise MixedGroupError("multi-tile and graphing use different groups")
    words = [[group.geodesic_word(t) for t in shape] for shape in mt.shapes]
    diameter = max((len(w) for ws in words for w in ws), default=0)
    if enforce_window and diameter > graphing.free_window:
        raise WindowExceededError(
            f"shape diameter {diameter} exceeds the free window "
            f"{graphing.free_window}; fibers could wrap onto themselves"
        )
    images = []
    for ws in words:
        images.append([])
        for w in ws:
            image = range(graphing.n_vertices + 1)
            for lab in reversed(w):  # the word is applied rightmost letter first
                image = list(map(graphing._rows[lab].__getitem__, image))
            images[-1].append(image)
    return images


def _fiber(images, base, gone):
    """The tower fiber over a base vertex, or None if broken or self-colliding."""
    fiber = [image[base] for image in images]
    if gone in fiber or len(set(fiber)) != len(fiber):
        return None
    return fiber


def build_towers(graphing, mt, epsilon):
    """Greedy tower family: coverage >= 1 - epsilon on tidy quotients, exact always."""
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon must lie in (0,1), got {epsilon}")
    images = _shape_images(graphing, mt)
    order = sorted(range(len(mt.shapes)), key=lambda i: (-len(mt.shapes[i]), i))
    V = graphing.n_vertices
    used = [False] * V
    bases = [[] for _ in mt.shapes]
    fibers = [[] for _ in mt.shapes]
    for v in range(V):
        if used[v]:
            continue
        for i in order:
            fib = _fiber(images[i], v, V)
            if fib is None or any(used[x] for x in fib):
                continue
            for x in fib:
                used[x] = True
            bases[i].append(v)
            fibers[i].append(tuple(fib))
            break
    coverage = graphing.mu(compress(range(V), used))
    return TowerFamily(
        bases=tuple(tuple(b) for b in bases),
        coverage=coverage,
        epsilon_target=epsilon,
        success=coverage >= 1 - epsilon,
        leftover=tuple(compress(range(V), map(not_, used))),
        fibers=tuple(tuple(f) for f in fibers),
    )


class TowerVerification(Record):
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
    images = _shape_images(graphing, mt, enforce_window=False)
    graphing._vertices(chain.from_iterable(tf.bases))
    seen = {}
    collisions = []
    broken = []
    covered = set()
    for i, base_set in enumerate(tf.bases):
        for a in base_set:
            fib = _fiber(images[i], a, graphing.n_vertices)
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
    coverage = graphing.mu(covered)
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
