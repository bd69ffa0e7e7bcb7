"""Finitely generated marked groups: Z^d, the integer Heisenberg group, free groups.

A marked group is a group together with a finite symmetric generating tuple.
Elements are plain tuples of ints, products are exact, and word norms come
either from a closed form or from a cached breadth-first search over spheres.
The canonical element order (word norm, then tuple order) makes every
enumeration in the package deterministic.
"""

from .errors import (
    ConfigError,
    MixedGroupError,
    ParameterError,
    RadiusExceededError,
    UnsupportedError,
)


class GroupSubset:
    """An immutable finite subset of a marked group with a stored iteration order."""

    __slots__ = ("group", "elements", "_ordered")

    def __init__(self, group, elements, ordered=None):
        self.group = group
        self.elements = frozenset(elements)
        if ordered is None:
            ordered = sorted(self.elements)
        else:
            ordered = tuple(ordered)
            if len(ordered) != len(self.elements) or set(ordered) != self.elements:
                raise ParameterError("ordered view does not match the element set")
        self._ordered = tuple(ordered)

    def __iter__(self):
        return iter(self._ordered)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self.elements

    def __eq__(self, other):
        if not isinstance(other, GroupSubset):
            return NotImplemented
        return self.group == other.group and self.elements == other.elements

    def __hash__(self):
        return hash((self.group, self.elements))

    def __repr__(self):
        return f"GroupSubset({self.group!r}, {len(self)} elements)"

    def sort_key(self):
        """Canonical key for comparing subsets of the same group."""
        return tuple(sorted(self.elements))


class MarkedGroup:
    """Base class; subclasses fix the element representation and the product."""

    kind = "?"

    def __init__(self, labels, generators, max_radius=64):
        if not labels:
            raise ConfigError("a marked group needs at least one generator")
        if len(set(labels)) != len(labels):
            raise ConfigError("generator labels must be distinct")
        if len(set(generators)) != len(generators):
            raise ConfigError("generators must be distinct")
        if int(max_radius) < 1:
            raise ParameterError("max_radius must be positive")
        self.labels = tuple(labels)
        self.max_radius = int(max_radius)
        self._gens = dict(zip(self.labels, generators))
        by_element = {g: lab for lab, g in self._gens.items()}
        self._inv_label = {}
        for lab, g in self._gens.items():
            if g == self.identity:
                raise ConfigError("the identity is not allowed as a generator")
            gi = self.inverse(g)
            if gi not in by_element:
                raise ConfigError(f"generating set is not symmetric: missing inverse of {lab}")
            self._inv_label[lab] = by_element[gi]
        for lab in self.labels:
            if self._inv_label[self._inv_label[lab]] != lab:
                raise ConfigError("inverse labeling is not an involution")
        self._left = {lab: self._left_action(g) for lab, g in self._gens.items()}
        self._norms = {self.identity: 0}
        self._spheres = [[self.identity]]
        self._exhausted = False

    # -- subclass surface ------------------------------------------------

    @property
    def identity(self):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def _mul_raw(self, g, h):
        raise NotImplementedError

    def validate_element(self, g):
        raise NotImplementedError

    def _left_action(self, s):
        """Fast closure for g -> s*g, no validation."""
        return lambda g: self._mul_raw(s, g)

    def _norm_closed(self, g):
        """Closed-form word norm, or None when only BFS knows."""
        return None

    def element_str(self, g):
        raise NotImplementedError

    def element_to_json(self, g):
        raise NotImplementedError

    def element_from_json(self, obj):
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError

    # -- shared machinery ------------------------------------------------

    def generator(self, label):
        if label not in self._gens:
            raise ConfigError(f"unknown generator label {label!r}")
        return self._gens[label]

    @property
    def generators(self):
        return tuple(self._gens[lab] for lab in self.labels)

    def inverse_label(self, label):
        if label not in self._inv_label:
            raise ConfigError(f"unknown generator label {label!r}")
        return self._inv_label[label]

    def act(self, label, g):
        """Left multiplication by the labeled generator."""
        self.validate_element(g)
        if label not in self._left:
            raise ConfigError(f"unknown generator label {label!r}")
        return self._left[label](g)

    def multiply(self, g, h):
        self.validate_element(g)
        self.validate_element(h)
        return self._mul_raw(g, h)

    def _bfs_extend(self, radius):
        while len(self._spheres) <= radius and not self._exhausted:
            if len(self._spheres) > self.max_radius:
                raise RadiusExceededError(
                    f"radius {radius} exceeds max_radius={self.max_radius}"
                )
            fresh = set()
            for g in self._spheres[-1]:
                for act in self._left.values():
                    h = act(g)
                    if h not in self._norms:
                        fresh.add(h)
            if not fresh:
                self._exhausted = True
                break
            r = len(self._spheres)
            for h in fresh:
                self._norms[h] = r
            self._spheres.append(sorted(fresh))

    def word_norm(self, g):
        """Length of a shortest generator word for g."""
        self.validate_element(g)
        n = self._norm_closed(g)
        if n is not None:
            return n
        if g in self._norms:
            return self._norms[g]
        radius = len(self._spheres)
        while True:
            if g in self._norms:
                return self._norms[g]
            if self._exhausted or radius > self.max_radius:
                raise RadiusExceededError(
                    f"element {self.element_str(g)} not reached within radius {self.max_radius}"
                )
            self._bfs_extend(radius)
            radius += 1

    def sphere(self, radius):
        """Elements of word norm exactly radius, sorted."""
        if radius < 0:
            raise ParameterError("radius must be nonnegative")
        if radius > self.max_radius:
            raise RadiusExceededError(f"radius {radius} exceeds max_radius={self.max_radius}")
        self._bfs_extend(radius)
        if radius >= len(self._spheres):
            return []
        return list(self._spheres[radius])

    def ball(self, radius):
        """GroupSubset of all elements with word norm <= radius, in (norm, tuple) order."""
        if radius < 0:
            raise ParameterError("radius must be nonnegative")
        if radius > self.max_radius:
            raise RadiusExceededError(f"radius {radius} exceeds max_radius={self.max_radius}")
        self._bfs_extend(radius)
        ordered = []
        for r in range(min(radius, len(self._spheres) - 1) + 1):
            ordered.extend(self._spheres[r])
        return GroupSubset(self, ordered, ordered=ordered)

    def geodesic_word(self, g):
        """Labels l1..lk with g equal to the left-to-right product of the generators."""
        n = self.word_norm(g)
        word = []
        cur = g
        for _ in range(n):
            cur_norm = self.word_norm(cur)
            for lab in self.labels:
                prev = self._left[self._inv_label[lab]](cur)
                if self.word_norm(prev) == cur_norm - 1:
                    word.append(lab)
                    cur = prev
                    break
            else:
                raise RuntimeError("norm cache inconsistent with generators")
        return word

    def subset(self, elements):
        for g in elements:
            self.validate_element(g)
        return GroupSubset(self, elements)

    def __eq__(self, other):
        if not isinstance(other, MarkedGroup):
            return NotImplemented
        return self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        kind, *rest = self.descriptor()
        return f"{type(self).__name__}({', '.join(map(repr, rest))})"


def _vector_labels(vectors):
    return [",".join(str(c) for c in v) for v in vectors]


class ZdGroup(MarkedGroup):
    """Z^d with coordinatewise addition; default generators are the signed unit vectors."""

    kind = "Zd"

    def __init__(self, d, generators=None, max_radius=64):
        if int(d) < 1:
            raise ParameterError(f"dimension must be positive, got {d}")
        self.d = int(d)
        if generators is None:
            gens = []
            for i in range(self.d):
                e = tuple(1 if j == i else 0 for j in range(self.d))
                gens.append(e)
                gens.append(tuple(-c for c in e))
            self._standard = True
        else:
            gens = []
            for v in generators:
                v = tuple(int(c) for c in v)
                if len(v) != self.d:
                    raise ConfigError(f"generator {v} does not have length {d}")
                gens.append(v)
            self._standard = False
        super().__init__(_vector_labels(gens), gens, max_radius=max_radius)

    @property
    def identity(self):
        return (0,) * self.d

    def inverse(self, g):
        return tuple(-c for c in g)

    def _mul_raw(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def _left_action(self, s):
        d = self.d
        if d == 1:
            (c,) = s
            return lambda g: (g[0] + c,)
        if d == 2:
            c0, c1 = s
            return lambda g: (g[0] + c0, g[1] + c1)
        return lambda g: tuple(a + b for a, b in zip(s, g))

    def validate_element(self, g):
        if not (isinstance(g, tuple) and len(g) == self.d and all(isinstance(c, int) for c in g)):
            raise MixedGroupError(f"{g!r} is not an element of Z^{self.d}")

    def _norm_closed(self, g):
        if self._standard:
            return sum(abs(c) for c in g)
        return None

    def element_str(self, g):
        return "(" + ",".join(str(c) for c in g) + ")"

    def element_to_json(self, g):
        self.validate_element(g)
        return list(g)

    def element_from_json(self, obj):
        if not isinstance(obj, list):
            raise ConfigError(f"expected a coordinate list, got {obj!r}")
        try:
            g = tuple(int(c) for c in obj)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad coordinates {obj!r}") from exc
        self.validate_element(g)
        return g

    def descriptor(self):
        return ("Zd", self.d, self.generators)


class HeisenbergGroup(MarkedGroup):
    """Integer Heisenberg group on triples (a, b, c) with (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b')."""

    kind = "Heisenberg"

    def __init__(self, generators=None, max_radius=64):
        if generators is None:
            gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
            labels = ["x", "X", "y", "Y"]
            self._standard = True
        else:
            gens = []
            for v in generators:
                v = tuple(int(c) for c in v)
                if len(v) != 3:
                    raise ConfigError(f"generator {v} is not a triple")
                gens.append(v)
            labels = _vector_labels(gens)
            self._standard = False
        super().__init__(labels, gens, max_radius=max_radius)

    @property
    def identity(self):
        return (0, 0, 0)

    def inverse(self, g):
        a, b, c = g
        return (-a, -b, -c + a * b)

    def _mul_raw(self, g, h):
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    def _left_action(self, s):
        p, q, r = s
        return lambda g: (p + g[0], q + g[1], r + g[2] + p * g[1])

    def validate_element(self, g):
        if not (isinstance(g, tuple) and len(g) == 3 and all(isinstance(c, int) for c in g)):
            raise MixedGroupError(f"{g!r} is not a Heisenberg triple")

    def element_str(self, g):
        return "(" + ",".join(str(c) for c in g) + ")"

    def element_to_json(self, g):
        self.validate_element(g)
        return list(g)

    def element_from_json(self, obj):
        if not isinstance(obj, list):
            raise ConfigError(f"expected a coordinate list, got {obj!r}")
        try:
            g = tuple(int(c) for c in obj)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad coordinates {obj!r}") from exc
        self.validate_element(g)
        return g

    def descriptor(self):
        return ("Heisenberg", self.generators)


_FREE_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class FreeGroup(MarkedGroup):
    """Free group of finite rank; elements are reduced words over letter indices."""

    kind = "Free"

    def __init__(self, rank, generators=None, max_radius=64):
        if generators is not None:
            raise UnsupportedError("free groups only carry their standard free basis")
        if not 1 <= int(rank) <= len(_FREE_ALPHABET):
            raise ParameterError(f"rank must be between 1 and {len(_FREE_ALPHABET)}, got {rank}")
        self.rank = int(rank)
        # letter 2i is the i-th generator, letter 2i+1 its inverse
        labels = []
        gens = []
        for i in range(self.rank):
            labels.append(_FREE_ALPHABET[i])
            labels.append(_FREE_ALPHABET[i].upper())
            gens.append((2 * i,))
            gens.append((2 * i + 1,))
        super().__init__(labels, gens, max_radius=max_radius)

    @property
    def identity(self):
        return ()

    def inverse(self, g):
        return tuple(x ^ 1 for x in reversed(g))

    def _mul_raw(self, g, h):
        g = list(g)
        i = 0
        while g and i < len(h) and g[-1] == h[i] ^ 1:
            g.pop()
            i += 1
        return tuple(g) + tuple(h[i:])

    def _left_action(self, s):
        (x,) = s
        y = x ^ 1
        return lambda g: g[1:] if g and g[0] == y else (x,) + g

    def validate_element(self, g):
        if not (isinstance(g, tuple) and all(isinstance(x, int) and 0 <= x < 2 * self.rank for x in g)):
            raise MixedGroupError(f"{g!r} is not a word over {self.rank} letters")
        for a, b in zip(g, g[1:]):
            if a == b ^ 1:
                raise MixedGroupError(f"{g!r} is not reduced")

    def _norm_closed(self, g):
        return len(g)

    def element_str(self, g):
        if not g:
            return "1"
        return "".join(self.labels[x] for x in g)

    def element_to_json(self, g):
        self.validate_element(g)
        return self.element_str(g)

    def element_from_json(self, obj):
        if not isinstance(obj, str):
            raise ConfigError(f"expected a word string, got {obj!r}")
        text = obj.strip()
        if text in ("", "1"):
            return ()
        index = {lab: x for x, lab in enumerate(self.labels)}
        word = []
        for ch in text:
            if ch not in index:
                raise ConfigError(f"unknown letter {ch!r} in word {obj!r}")
            word.append(index[ch])
        g = tuple(word)
        self.validate_element(g)
        return g

    def descriptor(self):
        return ("Free", self.rank)


def group_to_json(group):
    """JSON-ready description of a marked group."""
    if isinstance(group, ZdGroup):
        obj = {"kind": "Zd", "d": group.d}
        if not group._standard:
            obj["generators"] = [list(g) for g in group.generators]
        return obj
    if isinstance(group, HeisenbergGroup):
        obj = {"kind": "Heisenberg"}
        if not group._standard:
            obj["generators"] = [list(g) for g in group.generators]
        return obj
    if isinstance(group, FreeGroup):
        return {"kind": "Free", "rank": group.rank}
    raise UnsupportedError(f"cannot serialize group {group!r}")


def group_from_json(obj, max_radius=64):
    """Build a marked group from its JSON description."""
    if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
        raise ConfigError(f"group description must be an object with a 'kind', got {obj!r}")
    kind = obj["kind"]
    known = {"Zd": {"kind", "d", "generators"},
             "Heisenberg": {"kind", "generators"},
             "Free": {"kind", "rank", "generators"}}
    if kind not in known:
        raise ConfigError(f"unknown group kind {kind!r}")
    extra = set(obj) - known[kind]
    if extra:
        raise ConfigError(f"unexpected group fields {sorted(extra)}")
    gens = obj.get("generators")
    if gens is not None and not (isinstance(gens, list) and all(
            isinstance(v, list) and all(type(c) is int for c in v) for v in gens)):
        raise ConfigError(f"generators must be a list of integer vectors, got {gens!r}")
    if kind == "Zd":
        if type(obj.get("d")) is not int:
            raise ConfigError("Zd needs an integer field 'd'")
        return ZdGroup(obj["d"], generators=gens, max_radius=max_radius)
    if kind == "Heisenberg":
        return HeisenbergGroup(generators=gens, max_radius=max_radius)
    if type(obj.get("rank")) is not int:
        raise ConfigError("Free needs an integer field 'rank'")
    return FreeGroup(obj["rank"], generators=gens, max_radius=max_radius)
