"""Finite measured graphings: weighted vertices with generator-labeled partial bijections.

A graphing is the desk-scale model of a group action on a measure space.
Maps act on the left (phi_s then phi_t models the element ts), weights are
exact rationals summing to one, and the free_window radius is the range of n
for which theorem checks are meaningful on the finite model: below it, no
nonidentity group element of that word norm fixes any vertex where defined.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConfigError,
    NormalizationError,
    NotApplicableError,
    ParameterError,
    StationarityError,
    UnsupportedError,
)
from .exact import SqrtSum, format_fraction, parse_fraction
from .groups import ZdGroup, HeisenbergGroup, group_from_json, group_to_json


def _min_violation_depth(group, maps, n_vertices, radius):
    """Smallest length <= radius of a reduced, nonidentity-element word fixing a vertex.

    Words that reduce to the identity element of the group (commutators and
    the like) fix vertices for free and are skipped; they say nothing about
    freeness of the modeled action.
    """
    labels = group.labels
    inv = group._inv_label
    gens = {lab: group.generator(lab) for lab in labels}
    hit = [None]

    def walk(element, positions, depth, first_label):
        if hit[0] is not None and depth >= hit[0]:
            return
        for lab in labels:
            if first_label is not None and lab == inv[first_label]:
                continue
            el = group._mul_raw(gens[lab], element)
            row = maps[lab]
            pos = [None if p is None else row[p] for p in positions]
            if el != group.identity:
                for v in range(n_vertices):
                    if pos[v] == v:
                        if hit[0] is None or depth + 1 < hit[0]:
                            hit[0] = depth + 1
                        break
            if depth + 1 < radius:
                walk(el, pos, depth + 1, lab)

    if radius >= 1:
        walk(group.identity, list(range(n_vertices)), 0, None)
    return hit[0]


def _clean_window(group, maps, n_vertices, cap):
    """The largest radius <= cap up to which no nonidentity word fixes a vertex."""
    bad = _min_violation_depth(group, maps, n_vertices, cap)
    return cap if bad is None else bad - 1


class MeasuredGraphing:
    """Vertices 0..V-1 with positive rational weights and partial shift bijections."""

    def __init__(self, group, weights, maps, free_window):
        self.group = group
        self.weights = tuple(Fraction(w) for w in weights)
        self.n_vertices = len(self.weights)
        if self.n_vertices < 1:
            raise ConfigError("a graphing needs at least one vertex")
        if any(w <= 0 for w in self.weights):
            raise NormalizationError("vertex weights must be positive")
        if sum(self.weights) != 1:
            raise NormalizationError(
                f"vertex weights must sum to 1, got {sum(self.weights)}"
            )
        if set(maps) != set(group.labels):
            raise ConfigError("graphing maps must cover exactly the generator labels")
        self.maps = {}
        for lab, row in maps.items():
            row = list(row)
            if len(row) != self.n_vertices:
                raise ConfigError(f"map {lab!r} has the wrong length")
            for t in row:
                if t is not None and not (isinstance(t, int) and 0 <= t < self.n_vertices):
                    raise ConfigError(f"map {lab!r} has target {t!r} out of range")
            defined = [t for t in row if t is not None]
            if len(set(defined)) != len(defined):
                raise ConfigError(f"map {lab!r} is not injective")
            self.maps[lab] = tuple(row)
        for lab in group.labels:
            back = self.maps[group.inverse_label(lab)]
            for v, t in enumerate(self.maps[lab]):
                if t is not None and back[t] != v:
                    raise ConfigError(
                        f"map {group.inverse_label(lab)!r} does not invert {lab!r} at vertex {v}"
                    )
        free_window = int(free_window)
        if free_window < 0:
            raise ParameterError("free_window must be nonnegative")
        bad = _min_violation_depth(group, self.maps, self.n_vertices, free_window)
        if bad is not None:
            raise ConfigError(
                f"free_window={free_window} is wrong: a word of length {bad} fixes a vertex"
            )
        self.free_window = free_window

    def phi(self, label, v):
        """Image of vertex v under the labeled shift, or None where undefined."""
        if label not in self.maps:
            raise ConfigError(f"unknown generator label {label!r}")
        if not 0 <= v < self.n_vertices:
            raise ParameterError(f"vertex {v} out of range")
        return self.maps[label][v]

    def apply_word(self, word, v):
        """Apply the word l1..lk as phi_{l1}(...phi_{lk}(v)...); None if the chain breaks."""
        for lab in reversed(word):
            if v is None:
                return None
            v = self.phi(lab, v)
        return v

    def mu(self, vertices):
        """Total weight of a vertex collection."""
        seen = set()
        total = Fraction(0)
        for v in vertices:
            if not 0 <= v < self.n_vertices:
                raise ParameterError(f"vertex {v} out of range")
            if v not in seen:
                seen.add(v)
                total += self.weights[v]
        return total

    def is_pmp(self):
        """True for the measure-preserving models: uniform weights, total maps."""
        uniform = len(set(self.weights)) == 1
        total = all(t is not None for row in self.maps.values() for t in row)
        return uniform and total

    def is_transitive(self):
        """Single orbit under all labeled shifts (the finite stand-in for ergodicity)."""
        seen = {0}
        queue = [0]
        while queue:
            v = queue.pop()
            for row in self.maps.values():
                t = row[v]
                if t is not None and t not in seen:
                    seen.add(t)
                    queue.append(t)
        return len(seen) == self.n_vertices

    def rn_value(self, label, v):
        """ds_*mu/dmu at v: weight(phi_{s^-1}(v))/weight(v), 0 where the density vanishes."""
        src = self.phi(self.group.inverse_label(label), v)
        if src is None:
            return Fraction(0)
        return self.weights[src] / self.weights[v]

    def rn_profile(self, label):
        values = tuple(self.rn_value(label, v) for v in range(self.n_vertices))
        return RNProfile(label=label, values=values, weights=self.weights)

    def to_json(self):
        return {
            "vertices": self.n_vertices,
            "weights": [format_fraction(w) for w in self.weights],
            "maps": {lab: list(row) for lab, row in self.maps.items()},
            "group": group_to_json(self.group),
            "free_window": self.free_window,
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ConfigError("graphing description must be an object")
        required = {"vertices", "weights", "maps", "group"}
        missing = required - set(obj)
        if missing:
            raise ConfigError(f"graphing description missing fields {sorted(missing)}")
        extra = set(obj) - (required | {"free_window"})
        if extra:
            raise ConfigError(f"unexpected graphing fields {sorted(extra)}")
        V = obj["vertices"]
        if type(V) is not int:
            raise ConfigError(f"vertices must be an integer, got {V!r}")
        if not isinstance(obj["weights"], list):
            raise ConfigError("weights must be a list of rationals")
        maps = obj["maps"]
        if not (isinstance(maps, dict) and all(isinstance(r, list) for r in maps.values())):
            raise ConfigError("maps must be an object of target lists keyed by generator label")
        fw = obj.get("free_window")
        if fw is not None and type(fw) is not int:
            raise ConfigError(f"free_window must be an integer, got {fw!r}")
        group = group_from_json(obj["group"])
        weights = [parse_fraction(w) for w in obj["weights"]]
        if len(weights) != V:
            raise ConfigError("weights length does not match the vertex count")
        if fw is None:
            # not serialized in the minimal format: derive the largest clean
            # radius up to the builders' walk cap, on maps checked by a
            # window-0 construction
            checked = cls(group, weights, maps, 0).maps
            fw = _clean_window(group, checked, V, min(V - 1, 6))
        return cls(group, weights, maps, fw)

    def __repr__(self):
        return (
            f"MeasuredGraphing({self.group!r}, {self.n_vertices} vertices, "
            f"free_window={self.free_window})"
        )


@dataclass(frozen=True)
class RNProfile:
    """Radon-Nikodym values of one labeled shift, with exact p-norm power sums."""

    label: str
    values: tuple
    weights: tuple

    def linf(self):
        return max(self.values)

    def p_norm_power_sum(self, p):
        """Sum over x of weight(x) * rn(x)^p as an exact SqrtSum; this is ||RN||_p^p."""
        p = Fraction(p)
        if p <= 0:
            raise ParameterError(f"p must be positive, got {p}")
        a, b = p.numerator, p.denominator
        if b not in (1, 2):
            raise UnsupportedError(
                f"exact p-norms support denominators 1 and 2 only, got p={p}"
            )
        total = SqrtSum()
        for w, r in zip(self.weights, self.values):
            if b == 1:
                total = total + SqrtSum.from_rational(w * r**a)
            else:
                total = total + SqrtSum.from_rational(w) * SqrtSum.sqrt(r**a)
        return total

    def p_norm_float(self, p):
        """Floating-point ||RN||_p, for human-readable reports only."""
        p = Fraction(p)
        return float(self.p_norm_power_sum(p)) ** (1 / float(p))


def build_torus_action(d, m, generators=None):
    """(Z/m)^d with uniform weights and coordinate shifts; a pmp quotient model."""
    if m < 3:
        raise ParameterError(f"torus modulus must be at least 3, got {m}")
    group = ZdGroup(d, generators=generators)
    n_vertices = m**d
    weights = [Fraction(1, n_vertices)] * n_vertices

    def idx(coords):
        v = 0
        for i in range(d):
            v += (coords[i] % m) * m**i
        return v

    def coords(v):
        return tuple((v // m**i) % m for i in range(d))

    maps = {}
    for lab in group.labels:
        gen = group.generator(lab)
        maps[lab] = [idx([c + g for c, g in zip(coords(v), gen)]) for v in range(n_vertices)]
    if generators is None:
        free_window = (m - 1) // 2
    else:
        free_window = _clean_window(group, maps, n_vertices, min(m - 1, 6))
    return MeasuredGraphing(group, weights, maps, free_window)


def build_heisenberg_quotient(m):
    """Heisenberg triples mod m under left multiplication by x, y and inverses."""
    if m < 3:
        raise ParameterError(f"quotient modulus must be at least 3, got {m}")
    group = HeisenbergGroup()
    n_vertices = m**3
    weights = [Fraction(1, n_vertices)] * n_vertices

    def idx(a, b, c):
        return (a % m) + (b % m) * m + (c % m) * m * m

    maps = {"x": [], "X": [], "y": [], "Y": []}
    for v in range(n_vertices):
        a, b, c = v % m, (v // m) % m, v // (m * m)
        maps["x"].append(idx(a + 1, b, c + b))
        maps["X"].append(idx(a - 1, b, c - b))
        maps["y"].append(idx(a, b + 1, c))
        maps["Y"].append(idx(a, b - 1, c))
    free_window = _clean_window(group, maps, n_vertices, min(m - 1, 6))
    return MeasuredGraphing(group, weights, maps, free_window)


def build_weighted_cycle(m, weights):
    """Z rotating m weighted points; the nonsingular, generally non-pmp model."""
    if m < 3:
        raise ParameterError(f"cycle length must be at least 3, got {m}")
    weights = [Fraction(w) for w in weights]
    if len(weights) != m:
        raise NormalizationError(f"expected {m} weights, got {len(weights)}")
    group = ZdGroup(1)
    maps = {
        "1": [(v + 1) % m for v in range(m)],
        "-1": [(v - 1) % m for v in range(m)],
    }
    return MeasuredGraphing(group, weights, maps, (m - 1) // 2)


@dataclass(frozen=True)
class HolderBound:
    """mu(sA) against the Holder bound, compared exactly through integer powers."""

    label: str
    p: Fraction
    q: Fraction
    mu_A: Fraction
    mu_sA: Fraction
    norm_power_sum: SqrtSum  # ||RN_{s^-1}||_p^p
    lhs_power: Fraction  # mu(sA)^a
    rhs_power: SqrtSum  # (norm_power_sum)^b * mu(A)^(a-b)
    passed: bool
    identity_holds: bool


def holder_pushforward_bound(graphing, label, A, p):
    """Certify mu(sA) <= ||RN_{s^-1}||_p * mu(A)^{1/q} with 1/p + 1/q = 1.

    The pushforward identity mu(sA) = integral over A of RN_{s^-1} d(mu) pins
    which derivative the bound involves: the density of s_* arrives at sA, so
    Holder on A sees the profile of the inverse label.  Raised to the power
    a = numerator(p), both sides become elements of Q with square roots and
    the comparison is exact.
    """
    p = Fraction(p)
    if p <= 1:
        raise ParameterError(f"Holder exponent must exceed 1, got {p}")
    a, b = p.numerator, p.denominator
    if b not in (1, 2):
        raise UnsupportedError(
            f"exact comparison supports p with denominator 1 or 2, got {p}"
        )
    q = p / (p - 1)
    A = sorted(set(A))
    row = graphing.maps[label] if label in graphing.maps else None
    if row is None:
        raise ConfigError(f"unknown generator label {label!r}")
    for v in A:
        if not 0 <= v < graphing.n_vertices:
            raise ParameterError(f"vertex {v} out of range")
        if row[v] is None:
            raise NotApplicableError(
                f"phi_{label} is undefined at vertex {v}; the bound needs a total map on A"
            )
    mu_A = graphing.mu(A)
    image = [row[v] for v in A]
    mu_sA = graphing.mu(image)
    inv = graphing.group.inverse_label(label)
    profile = graphing.rn_profile(inv)
    integral = sum(
        (graphing.weights[v] * profile.values[v] for v in A), Fraction(0)
    )
    identity_holds = integral == mu_sA
    s_pow = profile.p_norm_power_sum(p)
    lhs_power = mu_sA**a
    rhs_power = s_pow**b * SqrtSum.from_rational(mu_A ** (a - b))
    passed = (rhs_power - SqrtSum.from_rational(lhs_power)).sign() >= 0
    return HolderBound(
        label=label,
        p=p,
        q=q,
        mu_A=mu_A,
        mu_sA=mu_sA,
        norm_power_sum=s_pow,
        lhs_power=lhs_power,
        rhs_power=rhs_power,
        passed=passed,
        identity_holds=identity_holds,
    )


@dataclass(frozen=True)
class StationaryReport:
    """Vertexwise RN bounds under a stationary measure, with violation witnesses."""

    passed: bool
    violations: tuple  # (label, vertex, rn value, lower, upper)


def stationary_rn_bounds(graphing, m):
    """Certify the stationary density bounds m(s) <= mu(sA)/mu(A) <= 1/m(s^-1).

    Verifies m-stationarity of the weights first, then the bounds vertexwise.
    In the pullback profile stored on the graphing the singleton inequality
    reads m(s^-1) <= RN_s(x) <= 1/m(s): RN_s(x) = mu(s^-1 x)/mu(x) is the
    reciprocal of the pushforward ratio at s^-1 x.
    """
    labels = graphing.group.labels
    if set(m) != set(labels):
        raise ParameterError("step distribution must be keyed by the generator labels")
    m = {lab: Fraction(v) for lab, v in m.items()}
    if any(v <= 0 for v in m.values()):
        raise ParameterError("step probabilities must be positive")
    if sum(m.values()) != 1:
        raise NormalizationError(f"step probabilities must sum to 1, got {sum(m.values())}")
    inv = graphing.group.inverse_label
    for v in range(graphing.n_vertices):
        total = Fraction(0)
        for lab in labels:
            src = graphing.phi(inv(lab), v)
            if src is not None:
                total += m[lab] * graphing.weights[src]
        if total != graphing.weights[v]:
            raise StationarityError(
                f"measure is not stationary at vertex {v}: "
                f"sum m(s) mu(s^-1 x) = {total} != {graphing.weights[v]}"
            )
    violations = []
    for lab in labels:
        lo = m[inv(lab)]
        hi = 1 / m[lab]
        for v in range(graphing.n_vertices):
            if graphing.phi(inv(lab), v) is None:
                continue
            rn = graphing.rn_value(lab, v)
            if not lo <= rn <= hi:
                violations.append((lab, v, rn, lo, hi))
    return StationaryReport(passed=not violations, violations=tuple(violations))
