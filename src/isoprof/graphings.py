"""Finite measured graphings: weighted vertices with generator-labeled partial bijections.

A graphing is the desk-scale model of a group action on a measure space.
Maps act on the left (phi_s then phi_t models the element ts), weights are
exact rationals summing to one, and the free_window radius is the range of n
for which theorem checks are meaningful on the finite model: below it, no
nonidentity group element of that word norm fixes any vertex where defined.
Checking a window walks the orbit graph over distinct states from both ends
of a word, so its cost grows with the ball of half that radius, not with the
number of reduced words.  The quotient models, Z^d on (Z/m)^d and the
Heisenberg group on its triples mod m, come from one builder that reads the
group's own law as index arithmetic: vertex v is a column key j = v mod K
and a last digit c = v // K, with K = m^(d-1) on points of d coordinates,
and a generator with column step (head, dc, coef) sends it to keyrow[j] +
K ((c + dc + coef.key(j)) mod m), keyrow adding head to the key digit by
digit.  Reduction mod m is a ring homomorphism, so these maps are the
group's product reduced mod m and form an action.

transitive_symmetries certifies, from the maps alone, automorphisms that
move vertex 0 to every vertex; each commutes with every map.  Such a
graphing walks its window from vertex 0 alone, as the automorphisms carry a
word fixing any vertex to one fixing 0, and the packing search fixes its
root pick.

The constructor builds three tables once, and every graphing pass reads them
whole: _rows holds each map as a tuple of ints with V for an undefined shift
and a trailing V, so that index V maps to V; _units holds each weight as an
integer over _scale, the lcm of the weights' denominators; and _table is the
neighbour table in the kernels' layout, an array('i') of row-major vertex x
label entries, labels in maps order and -1 for an undefined shift.  The dual
kernel graphing_certificate reads _table in one pass: it checks that every
map's inverse map inverts it and builds and checks the certificate.
"""

from array import array
from fractions import Fraction
from itertools import chain, compress, repeat
from math import lcm
from operator import add, ne

from ._record import Record
from .errors import (
    ConfigError,
    NormalizationError,
    NotApplicableError,
    ParameterError,
    StationarityError,
    UnsupportedError,
    integer_parameter,
)
from .exact import SqrtSum, format_fraction, parse_fraction
from .groups import ZdGroup, HeisenbergGroup, _TupleGroup, group_from_json, group_to_json


# start vertices are walked 64 at a time: a state then holds 64 images, so
# the memo of seen states stays small however many vertices there are
_BLOCK = 64


def _min_violation_depth(group, rows, n_vertices, radius, starts):
    """Smallest length <= radius of a reduced, nonidentity-element word fixing
    one of the start vertices; rows are a graphing's integer rows.

    Words that reduce to the identity element of the group (commutators and
    the like) fix vertices for free and are skipped; they say nothing about
    freeness of the modeled action.

    Breadth-first over states (element, images of a block of start vertices),
    not words: phi_s phi_{s^-1} is the identity where defined, so words that
    reach one state extend alike, and a word fixing a vertex reduces to one no
    longer that fixes it too.  Each state is expanded once, except for the
    step back along the label that reached it, whose target its parent dominates.
    Every (start, image, element) that a word of length i reaches is thus
    reached by a state at depth <= i, and at depth exactly i when i is least.

    The walk meets in the middle and stops at depth ceil(radius / 2).  Two
    states at depths i and j that send one start v to one vertex u with
    elements h != h' give a word of length i + j fixing v with element
    h'^-1 h != e: the maps are partial bijections, so the second word can run
    backwards from u.  Conversely, a shortest violating word, of length k,
    splits into a head of length ceil(k/2) and a reversed tail of length
    floor(k/2) that collide so, and neither half is reached sooner, or a
    shorter word would violate.  So the first depth j with a collision is
    ceil(k/2), and k is 2j - 1 (a collision with depth j - 1) or 2j (within
    depth j); a collision with an older depth would give a shorter word.
    Each depth keeps one element per (start, image) key, so only the last
    two depths are held.
    """
    gone = n_vertices  # the image of a vertex whose shift chain broke
    steps = [(lab, group.generator(lab), rows[lab].__getitem__, group.inverse_label(lab))
             for lab in group.labels]
    identity, mul = group.identity, group._mul_raw

    def first_hit(starts, limit):
        # the image u of start position p has the key p * (gone + 1) + u
        offsets = range(0, len(starts) * (gone + 1), gone + 1)
        seen = {(identity, starts)}
        frontier = [(identity, starts, None)]
        older = dict.fromkeys(map(add, offsets, starts), identity)
        for depth in range(1, (limit + 1) // 2 + 1):
            nxt, layer, even = [], {}, False
            for el, pos, last in frontier:
                for lab, gen, step, back in steps:
                    if last == back:
                        continue
                    g, img = state = (mul(gen, el), tuple(map(step, pos)))
                    if state in seen or (lost := img.count(gone)) == len(img):
                        continue
                    keys = map(add, offsets, img)
                    keys = list(compress(keys, map(gone.__ne__, img)) if lost else keys)
                    if any(map(ne, map(older.get, keys, repeat(g)), repeat(g))):
                        return 2 * depth - 1
                    # a collision within this depth ends the walk here, so
                    # the layer need not be complete after one, nor be kept
                    # when its length 2 * depth is over the limit
                    even = even or (2 * depth <= limit and any(
                        map(ne, map(layer.setdefault, keys, repeat(g)), repeat(g))))
                    seen.add(state)
                    nxt.append((g, img, lab))
            if even:
                return 2 * depth
            if not nxt:  # no state is left to extend, so no longer word fixes a vertex
                return None
            frontier, older = nxt, layer
        return None

    best = None
    for lo in range(0, len(starts), _BLOCK):
        block = tuple(starts[lo:lo + _BLOCK])
        best = first_hit(block, radius if best is None else best - 1) or best
    return best


def _map_fault(group, maps, n_vertices):
    """The first fault of maps that failed the whole-row checks, read entry by entry."""
    for lab, row in maps.items():
        if len(row) != n_vertices:
            return ConfigError(f"map {lab!r} has the wrong length")
        for t in row:
            if t is not None and not (type(t) is int and 0 <= t < n_vertices):
                return ConfigError(f"map {lab!r} has target {t!r} out of range")
        defined = [t for t in row if t is not None]
        if len(set(defined)) != len(defined):
            return ConfigError(f"map {lab!r} is not injective")
    for lab in group.labels:
        back = maps[group.inverse_label(lab)]
        for v, t in enumerate(maps[lab]):
            if t is not None and back[t] != v:
                return ConfigError(
                    f"map {group.inverse_label(lab)!r} does not invert {lab!r} at vertex {v}"
                )
    return RuntimeError("internal: the whole-row checks refused maps with no fault")


class MeasuredGraphing:
    """Vertices 0..V-1 with positive rational weights and partial shift bijections."""

    def __init__(self, group, weights, maps, free_window=None):
        """Validate the weights and maps, then the free window.

        The checks read whole rows: the distinct weights, and per map the set
        of its entry types and its least and largest target.  Then the one
        call of transitive_symmetries checks, in the same kernel pass as the
        certificate, that each map's inverse map inverts it wherever it is
        defined, which makes every map injective too.  Only a failed check
        reads the entries one by one, to name the first fault with the
        message it always had.

        A declared free_window is certified: a nonidentity word of length at
        most free_window that fixes a vertex is refused.  None derives it as
        the largest radius <= min(V - 1, 6) up to which no such word exists;
        one walk finds it and certifies it.  symmetric records whether
        transitive_symmetries holds; if so the walk starts from vertex 0
        alone, otherwise from every vertex.
        """
        self.group = group
        self.weights = tuple(weights)
        if set(map(type, self.weights)) != {Fraction}:
            self.weights = tuple(w if type(w) is Fraction else Fraction(w) for w in self.weights)
        V = self.n_vertices = len(self.weights)
        if V < 1:
            raise ConfigError("a graphing needs at least one vertex")
        # the builders repeat one Fraction V times and from_json shares one
        # per string, so the distinct weights are found by identity
        distinct = {id(w): w for w in self.weights}
        if any(w.numerator <= 0 for w in distinct.values()):
            raise NormalizationError("vertex weights must be positive")
        self._scale = lcm(*(w.denominator for w in distinct.values()))
        unit = {key: w.numerator * (self._scale // w.denominator) for key, w in distinct.items()}
        self._units = tuple(map(unit.__getitem__, map(id, self.weights)))
        if sum(self._units) != self._scale:
            total = Fraction(sum(self._units), self._scale)
            raise NormalizationError(f"vertex weights must sum to 1, got {total}")
        if set(maps) != set(group.labels):
            raise ConfigError("graphing maps must cover exactly the generator labels")
        self.maps = {lab: tuple(row) for lab, row in maps.items()}
        L = len(self.maps)
        self._rows, self._table = {}, array("i", bytes(4 * V * L))
        hole, gap = {None: V}.get, {None: -1}.get
        for s, (lab, row) in enumerate(self.maps.items()):
            types = set(map(type, row))
            if len(row) != V or not types <= {int, type(None)}:
                raise _map_fault(group, self.maps, V)
            # full marks an undefined shift with V, entry marks it with -1
            full = entry = row
            if type(None) in types:
                full, entry = tuple(map(hole, row, row)), tuple(map(gap, row, row))
            if min(full) < 0 or max(entry) >= V:
                raise _map_fault(group, self.maps, V)
            self._rows[lab] = full + (V,)
            self._table[s::L] = array("i", entry)
        if free_window is None:
            radius = min(V - 1, 6)
        else:
            radius = integer_parameter("free_window", free_window, 0)
        # the automorphisms carry 0 to every vertex and commute with every
        # map, so a word fixes some vertex exactly when it fixes vertex 0
        self.symmetric = self.transitive_symmetries() is not None
        starts = (0,) if self.symmetric else range(V)
        bad = _min_violation_depth(group, self._rows, V, radius, starts)
        if bad is not None and free_window is not None:
            raise ConfigError(
                f"free_window={free_window} is wrong: a word of length {bad} fixes a vertex"
            )
        self.free_window = radius if bad is None else bad - 1

    def _vertices(self, vertices):
        """The vertices as a list, refused unless each is an int in [0, V)."""
        vertices, V = list(vertices), self.n_vertices
        if vertices and not (set(map(type, vertices)) == {int}
                             and min(vertices) >= 0 and max(vertices) < V):
            bad = next(v for v in vertices if type(v) is not int or not 0 <= v < V)
            raise ParameterError(f"vertex {bad!r} out of range")
        return vertices

    def phi(self, label, v):
        """Image of vertex v under the labeled shift, or None where undefined."""
        if label not in self.maps:
            raise ConfigError(f"unknown generator label {label!r}")
        if type(v) is not int or not 0 <= v < self.n_vertices:
            raise ParameterError(f"vertex {v!r} out of range")
        return self.maps[label][v]

    def apply_word(self, word, v):
        """Apply the word l1..lk as phi_{l1}(...phi_{lk}(v)...); None if the chain breaks."""
        for lab in reversed(word):
            if v is None:
                return None
            v = self.phi(lab, v)
        return v

    def mu(self, vertices):
        """Total weight of a vertex collection, each vertex counted once."""
        units = map(self._units.__getitem__, set(self._vertices(vertices)))
        return Fraction(sum(units), self._scale)

    def within(self, sources, radius):
        """The set of vertices at most radius shift steps from a source vertex."""
        reached = set(self._vertices(sources))
        steps = [row.__getitem__ for row in self._rows.values()]
        frontier = reached
        for _ in range(integer_parameter("radius", radius, 0)):
            frontier = set().union(*[map(step, frontier) for step in steps])
            frontier.discard(self.n_vertices)
            frontier -= reached
            reached |= frontier
        return reached

    def is_pmp(self):
        """True for the measure-preserving models: uniform weights, total maps."""
        uniform = self._units.count(self._units[0]) == self.n_vertices
        return uniform and not any(None in row for row in self.maps.values())

    def transitive_symmetries(self):
        """Label-preserving automorphisms that carry vertex 0 to every vertex, or None.

        For each label s, sigma_s sends 0 to phi_s(0) and follows a
        breadth-first tree of the maps by sigma(phi_t(v)) = phi_t(sigma(v)).
        It is kept only as a bijection that commutes with every map,
        undefined shifts included, and that preserves the weights; with equal
        weights every bijection does.  On the quotient models they are the
        right translations by conjugates of the generators.  None means a
        check failed: the maps are disconnected, a hole breaks the symmetry,
        or the weights differ.  The constructor calls it once and keeps only
        whether it held, as symmetric.

        The sigmas are then transitive, with no orbit search.  Every vertex
        u is phi_tk .. phi_t1(0) for the labels t1 .. tk of its tree path,
        and sigma_t1 .. sigma_tk(0) = u by induction on k: sigma_t1(0) =
        phi_t1(0), and as sigma_t1 commutes with every map,
        sigma_t1(sigma_t2 .. sigma_tk(0)) = sigma_t1(phi_tk .. phi_t2(0))
        = phi_tk .. phi_t2(sigma_t1(0)) = u.

        So the weights need no check of their own: transitive sigmas keep
        them exactly when they are all equal.  The kernel
        graphing_certificate builds the sigmas and checks the rest in one
        pass over _table, after checking that each map's inverse map inverts
        it; the constructor's call raises the first fault of maps that fail
        that check.
        """
        from ._kernels import graphing_certificate

        V, labels = self.n_vertices, list(self.maps)
        slot = {lab: s for s, lab in enumerate(labels)}
        paired, sigmas = graphing_certificate(
            self._table, V, [slot[self.group.inverse_label(lab)] for lab in labels])
        if not paired:
            raise _map_fault(self.group, self.maps, V)
        return sigmas if self._units.count(self._units[0]) == V else None

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
        # the builders repeat one Fraction V times and from_json shares one per
        # string, so each object is formatted once; it is keyed by id, since
        # hashing a Fraction costs about as much as formatting it
        distinct = {id(w): w for w in self.weights}
        text = {key: format_fraction(w) for key, w in distinct.items()}
        return {
            "vertices": self.n_vertices,
            "weights": [text[id(w)] for w in self.weights],
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
        weights, parsed = [], {}  # the builders write one string V times: parse each once
        for w in obj["weights"]:
            if type(w) is str and w not in parsed:
                parsed[w] = parse_fraction(w)
            # any other entry (a number, a list) is parsed alone: it may be unhashable
            weights.append(parsed[w] if type(w) is str else parse_fraction(w))
        if len(weights) != V:
            raise ConfigError("weights length does not match the vertex count")
        # a missing free_window (the minimal format) is derived
        return cls(group, weights, maps, fw)

    def __repr__(self):
        return (
            f"MeasuredGraphing({self.group!r}, {self.n_vertices} vertices, "
            f"free_window={self.free_window})"
        )


class RNProfile(Record):
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


def quotient_action(group, m, weights, free_window=None):
    """The action of a Z^d or Heisenberg group on its points mod m, by left
    multiplication in the group's own law.

    Vertex v = c_0 + c_1 m + c_2 m^2 + .. is the point (c_0, c_1, ..) with
    0 <= c_i < m, and maps[lab][v] is the vertex of generator * point with
    each coordinate reduced mod m.  Reduction mod m is a ring homomorphism, so
    it commutes with the products of Z^d and H3(Z) and the maps form an
    action.  They are inserted in group.labels order, which the kernels'
    tables follow.  A free_window is certified as by MeasuredGraphing; None
    derives it.

    The rows come from the group's integer form, with no point tuple.  With
    k key digits and K = m^k, vertex v is the column key j = v mod K and the
    last digit c = v // K.  A generator with column step (head, dc, coef)
    sends v to keyrow[j] + K ((c + dc + coef.key(j)) mod m), where keyrow
    adds head to the key digit by digit mod m: each digit's block of m
    sub-blocks is rotated by its digit of head.
    """
    if not isinstance(group, _TupleGroup):
        raise ConfigError(f"a quotient model needs Z^d or a Heisenberg group, not {group!r}")
    integer_parameter("m", m, 1)
    k = len(group.identity) - 1
    K = m**k
    lasts = list(chain.from_iterable(map(repeat, range(m), repeat(K))))  # c of each vertex
    maps = {}
    for lab, (head, dc, coef) in zip(group.labels, group._steps):
        # keyrow[j] is the index of key(j) + head, and lin[j] is coef.key(j)
        # with each term reduced mod m; both grow one key digit at a time, and
        # the digit of j that the step adds is d = j // block
        keyrow, lin = [0], [0]
        for h, a in zip(head, coef):
            block = len(keyrow)
            keyrow = list(map(add, keyrow * m, chain.from_iterable(
                [repeat(block * ((d + h) % m), block) for d in range(m)])))
            lin = list(map(add, lin * m, chain.from_iterable(
                [repeat(a * d % m, block) for d in range(m)])))
        # c + lin[j] is at most (k + 1)(m - 1), and wrap[i] = K ((dc + i) mod m)
        wrap = [K * ((dc + i) % m) for i in range(k * (m - 1) + m)]
        maps[lab] = list(map(add, keyrow * m, map(wrap.__getitem__, map(add, lasts, lin * m))))
    return MeasuredGraphing(group, weights, maps, free_window)


# the most vertices a graphing can have: the kernels' vertex ids are C ints
MAX_VERTICES = (1 << 31) - 1


def _uniform_weights(m, d):
    """m^d weights of 1/m^d, refused before any list is built when m^d passes
    MAX_VERTICES."""
    if m**d > MAX_VERTICES:
        raise ParameterError(f"a quotient model of {m}^{d} vertices exceeds the "
                             f"{MAX_VERTICES} vertex ids the kernels take")
    return [Fraction(1, m**d)] * m**d


def build_torus_action(d, m, generators=None):
    """Z^d on (Z/m)^d with uniform weights; a pmp quotient model."""
    integer_parameter("m", m, 3)
    group = ZdGroup(d, generators=generators)
    # the unit shifts are free up to (m - 1) // 2; other generating sets derive theirs
    return quotient_action(group, m, _uniform_weights(m, d),
                           (m - 1) // 2 if generators is None else None)


def build_heisenberg_quotient(m):
    """The Heisenberg group on its triples mod m with uniform weights."""
    integer_parameter("m", m, 3)
    return quotient_action(HeisenbergGroup(), m, _uniform_weights(m, 3))


def build_weighted_cycle(m, weights):
    """Z rotating m weighted points; the nonsingular, generally non-pmp model."""
    integer_parameter("m", m, 3)
    weights = [Fraction(w) for w in weights]
    if len(weights) != m:
        raise NormalizationError(f"expected {m} weights, got {len(weights)}")
    return quotient_action(ZdGroup(1), m, weights, (m - 1) // 2)


class HolderBound(Record):
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


def holder_power_check(mu_image, mu_A, norm_power_sum, p):
    """The power trick behind mu(image) <= ||density||_p * mu(A)^(1/q), 1/p + 1/q = 1.

    With p = a/b and S = ||density||_p^p, both sides raised to the power a give
    mu(image)^a <= S^b * mu(A)^(a-b), a comparison in Q with square roots that
    is decided exactly.  Returns (lhs power, rhs power, whether it holds).
    """
    a, b = p.numerator, p.denominator
    lhs_power = mu_image**a
    rhs_power = norm_power_sum**b * SqrtSum.from_rational(mu_A ** (a - b))
    return lhs_power, rhs_power, (rhs_power - SqrtSum.from_rational(lhs_power)).sign() >= 0


def holder_exponent(p):
    """p as a Fraction, refused unless p > 1 with denominator 1 or 2: the power
    trick compares exactly only inside Q with square roots."""
    p = Fraction(p)
    if p <= 1:
        raise ParameterError(f"Holder exponent must exceed 1, got {p}")
    if p.denominator not in (1, 2):
        raise UnsupportedError(
            f"exact comparison supports p with denominator 1 or 2, got {p}"
        )
    return p


def holder_pushforward_bound(graphing, label, A, p):
    """Certify mu(sA) <= ||RN_{s^-1}||_p * mu(A)^{1/q} with 1/p + 1/q = 1.

    The pushforward identity mu(sA) = integral over A of RN_{s^-1} d(mu) pins
    which derivative the bound involves: the density of s_* arrives at sA, so
    Holder on A sees the profile of the inverse label.  Raised to the power
    a = numerator(p), both sides become elements of Q with square roots and
    the comparison is exact.
    """
    p = holder_exponent(p)
    q = p / (p - 1)
    row = graphing.maps[label] if label in graphing.maps else None
    if row is None:
        raise ConfigError(f"unknown generator label {label!r}")
    A = sorted(set(graphing._vertices(A)))
    for v in A:
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
    lhs_power, rhs_power, passed = holder_power_check(mu_sA, mu_A, s_pow, p)
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


class StationaryReport(Record):
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
