"""Finitely generated marked groups: Z^d, the integer Heisenberg group, free groups.

A marked group is a group together with a finite symmetric generating tuple;
a tuple that does not generate the group is refused when the group is built.
Elements are plain tuples of ints, products are exact, and word norms come
either from a closed form or from a cached breadth-first search.
The canonical element order (word norm, then tuple order) makes every
enumeration in the package deterministic.  Lattices of integer vectors are
read through one integer echelon form (lattice_basis): it checks that a
generating tuple generates, and it reduces points modulo a tile's center
lattice.

The search grows balls: ball(r) is ball(r - 1) and its images under the
generators.  On Z^d and the Heisenberg group it runs on columns: a column
fixes every coordinate but the last, and a ball maps each column key to
sorted disjoint intervals of the last coordinate.  A left generator moves a
whole column at once (on the Heisenberg group (p, q, r) sends column (a, b)
to (a + p, b + q) and shifts it by r + p*b), so each generator is data,
(head, dc, coef) = ((p, q), r, (0, p)), and the search is interval
arithmetic per column.  The group keeps the rows of every ball back to back
in one store, with the row at which each ball ends, so a ball in column
form is one slice of the store.  One call of the kernel _kernels.grow_balls
(compiled, or its pure twin) grows every missing ball, each from the flat
rows of the one before, onto the end of the store and its ends in place.
A step that could take the store past STORE_BUDGET rows, counting each row
of the last ball and its image under every generator, is refused with
BudgetError before it runs, and the store keeps the balls before it.
The store is the only cache of a ball: sphere r is cut from it as the
(key, lo, hi) rows of ball r minus those of ball r - 1, for sphere, ball and
the bad points of a tile window.  Word norms read an index grown a sphere at
a time from the same cut: per column key, the sphere pieces sorted by lo
with their norms, one dict lookup and one bisection a norm.  The Heisenberg
ball(36) (716,455 points) is 2,665 rows, the store through it 33,781 rows,
1.1 MB, and its norm index 32,483 pieces, 1.9 MB.  Building a group does not
load the kernels.  Points are listed only when asked for, in (key, c) order,
which is tuple order.  Free groups keep sorted point lists.

A search reads ball(r) as a neighbour table that the group builds itself
(MarkedGroup._table), with no {element: id} index and no product per entry.
On Z^d and the Heisenberg group the law is one integer form M on column
keys (c(gh) = c(g) + c(h) + key(g).M.key(h)), which gives both the column
steps and the inverses, and _kernels.ball_table reads the table from the
store's rows: the points of each sphere get the next ids, and each image
of a row of the ball is one column lookup.  On F_k every table column is a
run of ranges per sphere, found by arithmetic on the sorted spheres' blocks.
"""

from array import array
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import accumulate, chain, repeat
from operator import add, mul, sub, xor

from .errors import (
    BudgetError,
    ConfigError,
    MixedGroupError,
    ParameterError,
    RadiusExceededError,
    UnsupportedError,
    integer_parameter,
)

# rows the store of a Z^d or Heisenberg group may hold, counting the largest
# output of the next ball's step; the tile scan's budget is tilings.SCAN_BUDGET
STORE_BUDGET = 1 << 20


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


class MarkedGroup:
    """Base class; subclasses fix the element representation and the product."""

    kind = "?"
    right_ordered = False
    """Whether tuple order is right-invariant: g < h exactly when g*x < h*x."""

    def __init__(self, labels, generators, max_radius=64):
        if not labels:
            raise ConfigError("a marked group needs at least one generator")
        if len(set(labels)) != len(labels):
            raise ConfigError("generator labels must be distinct")
        if len(set(generators)) != len(generators):
            raise ConfigError("generators must be distinct")
        integer_parameter("max_radius", max_radius, 1)
        self.labels = tuple(labels)
        self.max_radius = max_radius
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
        """Closure for g -> s*g, no validation.  It must not hold the group: a cycle
        through the group would keep its caches alive until the cycle
        collector runs, so subclasses define _mul_raw as a static method."""
        return partial(self._mul_raw, s)

    def _norm(self, g):
        """Word norm of a validated element."""
        raise NotImplementedError

    def _max_norm(self, points):
        """The largest word norm over validated elements."""
        return max(map(self._norm, points))

    def _table(self, radius, inverse):
        """(order, flat, inverse, ranks) of ball(radius): its elements in (norm,
        tuple) order, the identity first; the row-major array('i') of the ids of
        s*g per element g and generator s, -1 outside the ball; when inverse is
        set the id of each g^-1, else None; and each element's place in tuple
        order, an array('i')."""
        raise NotImplementedError

    def _sphere_points(self, r):
        """The elements of sphere r, sorted, for a checked radius r."""
        raise NotImplementedError

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

    def word_norm(self, g):
        """Length of a shortest generator word for g."""
        self.validate_element(g)
        return self._norm(g)

    def _check_radius(self, radius):
        """radius, refused unless it is a count of at most max_radius."""
        if integer_parameter("radius", radius, 0) > self.max_radius:
            raise RadiusExceededError(f"radius {radius} exceeds max_radius={self.max_radius}")
        return radius

    def sphere(self, radius):
        """Elements of word norm exactly radius, sorted."""
        return list(self._sphere_points(self._check_radius(radius)))

    def ball(self, radius):
        """GroupSubset of all elements with word norm <= radius, in (norm, tuple) order."""
        self._check_radius(radius)
        ordered = [g for r in range(radius + 1) for g in self._sphere_points(r)]
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


def lattice_basis(vectors, n):
    """The echelon basis of the lattice that integer vectors of length n span, or
    None below rank n.  Integer row operations keep the span; Euclid on each
    column leaves one row with a nonzero entry there, the pivot, and the other
    rows go on to the next column.  Row i of the basis is zero before its
    pivot at i, which is positive, and the product of the pivots is the index
    of the lattice in Z^n."""
    rows = [list(v) for v in vectors]
    basis = []
    for col in range(n):
        while True:
            live = [r for r in rows if r[col]]
            if not live:
                return None
            pivot = min(live, key=lambda r: abs(r[col]))
            if len(live) == 1:
                break
            for r in live:
                if r is not pivot:
                    q = r[col] // pivot[col]
                    r[:] = [x - q * y for x, y in zip(r, pivot)]
        rows.remove(pivot)
        basis.append(tuple(pivot) if pivot[col] > 0 else tuple(-x for x in pivot))
    return basis


def lattice_residue(basis, v):
    """The representative of v modulo the lattice of an echelon basis: coordinate i
    reduced by row i, in order, into 0 <= v[i] < pivot i.  Each coset has
    exactly one such representative."""
    for i, row in enumerate(basis):
        q = v[i] // row[i]
        if q:
            v = [x - q * y for x, y in zip(v, row)]  # row is zero before i
    return tuple(v)


def integer_vector(v):
    """v as a tuple, refusing any coordinate whose type is not int: a float, a
    bool or a string is a mistake, not a coordinate to round."""
    v = tuple(v)
    if not all(type(c) is int for c in v):
        raise ConfigError(f"expected integer coordinates, got {v!r}")
    return v


class _TupleGroup(MarkedGroup):
    """Z^d and Heisenberg: elements are integer tuples of one length, written as
    coordinate lists; generators are the standard ones or parsed vectors."""

    _bad_generator = _not_element = ""  # message formats, set per subclass
    _abelian = 0  # leading coordinates that map onto the abelianization; 0: all
    _form = ()
    """The law as one integer form M on column keys: the key of g*h is
    key(g) + key(h) and its last coordinate c(g) + c(h) + key(g).M.key(h), so
    (key, c) has the inverse (-key, -c + key.M.key)."""
    right_ordered = True
    """Tuple order is right-invariant, whatever the generators, since the law is
    fixed.  On Z^d, g*x = g + x shifts every coordinate of g and h alike.  On
    the Heisenberg group, (a,b,c)(p,q,r) = (a+p, b+q, c+r+aq): the first two
    coordinates of g*x and h*x shift by the constants p and q, and where g and
    h tie on a and b the third coordinates shift by the same r + aq."""

    def __init__(self, length, generators, standard, max_radius, labels=None):
        self._length = length
        self._standard = generators is None
        # every grown ball's flat rows (column key, lo, hi) back to back, an
        # array('q') until an entry does not fit and a list after; ball r is
        # rows _ends[r] up to _ends[r + 1], ball 0 the identity's column.
        # And the norm index of spheres 0.._indexed - 1 (_index_sphere)
        self._store = array("q", bytes(8 * (length + 1)))
        self._ends = [0, 1]
        self._norms, self._indexed = {}, 0
        if self._standard:
            gens = standard
        else:
            gens = []
            for v in generators:
                v = integer_vector(v)
                if len(v) != length:
                    raise ConfigError(self._bad_generator.format(v=v, n=length))
                gens.append(v)
            labels = None
        super().__init__(labels or _vector_labels(gens), gens, max_radius=max_radius)
        n = self._abelian or length
        if not self._standard:
            basis = lattice_basis([g[:n] for g in gens], n)
            if basis is None or any(row[i] != 1 for i, row in enumerate(basis)):
                raise ConfigError(f"the generators do not generate the group: {self!r}")
        self._steps = [self._column_step(g) for g in self.generators]

    def _column_step(self, s):
        """s acting on columns as data (head, dc, coef): s * column key lies in
        column key + head, shifted by dc + coef.key, where coef = key(s).M."""
        head = s[:-1]
        return head, s[-1], tuple(sum(map(mul, head, col)) for col in zip(*self._form))

    def _sphere_rows(self, r):
        """Sphere r as (key, lo, hi) rows in tuple order: the rows of ball r
        minus those of ball r - 1."""
        self._grow(r)
        rows = self._row_tuples(r)
        if not r:
            return rows
        from ._kernels._pure import cut_rows

        return cut_rows(rows, self._row_tuples(r - 1))

    def _sphere_points(self, r):
        return [key + (c,) for key, lo, hi in self._sphere_rows(r) for c in range(lo, hi + 1)]

    def _rows(self, r):
        """The flat rows of grown ball r, copied out of the store."""
        width = self._length + 1
        return self._store[self._ends[r] * width:self._ends[r + 1] * width]

    def _grow(self, radius):
        """Grow the row store through ball radius, every missing ball in one
        kernel call.  BudgetError, with the store grown through the ball
        before, when a step's largest output, each row of the last ball and
        its image under every step, could take the store past STORE_BUDGET
        rows."""
        if len(self._ends) > radius + 1:
            return
        from . import _kernels  # loads, and may compile, the kernels on first use

        store = _kernels.grow_balls(self._length - 1, self._steps, self._store, self._ends,
                                    radius, STORE_BUDGET)[0]
        if isinstance(store, list) and isinstance(self._store, array):
            # an entry past int64: the store, and the index with it, go on as lists
            self._norms = {key: (los.tolist(), his.tolist(), norms)
                           for key, (los, his, norms) in self._norms.items()}
        self._store = store
        if len(self._ends) <= radius + 1:
            raise BudgetError(f"growing ball {len(self._ends) - 1} could take the row store "
                              f"past {STORE_BUDGET} rows")

    def _ball_rows(self, radius):
        """(rows, ends) of balls 0..radius: the store's rows through ball radius
        and the row at which each ball ends."""
        self._grow(self._check_radius(radius))
        ends = self._ends[1:radius + 2]
        return self._store[:ends[-1] * (self._length + 1)], ends

    def _table(self, radius, inverse):
        from . import _kernels

        rows, ends = self._ball_rows(radius)
        flat, inv, ranks = _kernels.ball_table(self._length - 1, self._steps, self._form, rows,
                                               ends, inverse)
        # the points of ball(radius) row after row, in tuple order, which
        # ranks puts in id order
        width = self._length + 1
        ball = rows[self._ends[radius] * width:]
        los, his = ball[width - 2::width], ball[width - 1::width]
        ups = list(map(add, his, repeat(1)))
        sizes = list(map(sub, ups, los))
        keys = (chain.from_iterable(map(repeat, ball[t::width], sizes)) for t in range(width - 2))
        points = list(zip(*keys, chain.from_iterable(map(range, los, ups))))
        return list(map(points.__getitem__, ranks)), flat, inv, ranks

    def _row_keys(self, rows):
        """The column key of each of flat rows, as tuples."""
        width = self._length + 1
        return list(zip(*(rows[t::width] for t in range(width - 2)))) or [()] * (len(rows) // width)

    def _row_tuples(self, r):
        """The rows of grown ball r as (key, lo, hi) tuples."""
        rows, width = self._rows(r), self._length + 1
        return list(zip(self._row_keys(rows), rows[width - 2::width], rows[width - 1::width]))

    def _point(self, key, c):
        """The element in column key at last coordinate c."""
        return key + (c,)

    def _column_of(self, g):
        """(column key, c) of an element, inverse to _point."""
        return g[:-1], g[-1]

    def _max_norm(self, points):
        """The least radius whose ball holds every point, read from the store's
        rows.  A ball is searched only for the points' own column keys, each
        found by bisecting the rows' key coordinates; the key whose points the
        ball misses waits, first in line, for the next ball."""
        wanted = {}
        for g in points:
            wanted.setdefault(g[:-1], []).append(g[-1])
        waiting = [(key, sorted(cs)) for key, cs in wanted.items()]
        width = self._length + 1
        for r in range(self.max_radius + 1):
            self._grow(r)
            rows = self._rows(r)
            cols = [rows[t::width] for t in range(width - 2)]
            while waiting and self._holds(rows, cols, *waiting[-1]):
                waiting.pop()
            if not waiting:
                return r
        return super()._max_norm(points)  # raises for the first point out of reach

    def _holds(self, rows, cols, key, cs):
        """Whether flat rows, with cols their key coordinates, hold the sorted
        last coordinates cs of column key."""
        width = self._length + 1
        a, b = 0, len(rows) // width
        for col, x in zip(cols, key):  # the rows of keys that agree so far
            a = bisect_left(col, x, a, b)
            b = bisect_right(col, x, a, b)
        held = sum(bisect_right(cs, rows[i * width + width - 1])
                   - bisect_left(cs, rows[i * width + width - 2]) for i in range(a, b))
        return held == len(cs)

    def _norm(self, g):
        key, c = g[:-1], g[-1]
        while True:
            los, his, norms = self._norms.get(key, ((), (), ()))
            i = bisect_right(los, c) - 1
            if i >= 0 and c <= his[i]:
                return norms[i]
            if self._indexed > self.max_radius:
                raise RadiusExceededError(f"element {self.element_str(g)} not reached within "
                                          f"radius {self.max_radius}")
            self._index_sphere()

    def _index_sphere(self):
        """Add the next sphere to the norm index {key: (los, his, norms)}: each
        of its rows goes among its column's pieces at its place by lo, with the
        sphere's radius.  The bounds are arrays or lists, as the store is."""
        r = self._indexed
        rows = self._sphere_rows(r)  # grows the store, which may turn the index into lists
        bounds = list if isinstance(self._store, list) else partial(array, "q")
        for key, lo, hi in rows:
            los, his, norms = self._norms.get(key) or self._norms.setdefault(
                key, (bounds(), bounds(), array("I")))
            i = bisect_left(los, lo)
            los.insert(i, lo)
            his.insert(i, hi)
            norms.insert(i, r)
        self._indexed = r + 1

    def validate_element(self, g):
        if not (isinstance(g, tuple) and len(g) == self._length
                and all(isinstance(c, int) for c in g)):
            raise MixedGroupError(self._not_element.format(g=g, n=self._length))

    def element_str(self, g):
        return "(" + ",".join(str(c) for c in g) + ")"

    def element_to_json(self, g):
        self.validate_element(g)
        return list(g)

    def element_from_json(self, obj):
        if not (isinstance(obj, list) and all(type(c) is int for c in obj)):
            raise ConfigError(f"expected a list of integer coordinates, got {obj!r}")
        g = tuple(obj)
        self.validate_element(g)
        return g


class ZdGroup(_TupleGroup):
    """Z^d with coordinatewise addition; default generators are the signed unit vectors."""

    kind = "Zd"
    _bad_generator = "generator {v} does not have length {n}"
    _not_element = "{g!r} is not an element of Z^{n}"

    def __init__(self, d, generators=None, max_radius=64):
        self.d = integer_parameter("dimension", d, 1)
        self._form = ((0,) * (self.d - 1),) * (self.d - 1)
        units = [tuple(s if j == i else 0 for j in range(self.d))
                 for i in range(self.d) for s in (1, -1)] if generators is None else None
        super().__init__(self.d, generators, units, max_radius)

    @property
    def identity(self):
        return (0,) * self.d

    def inverse(self, g):
        return tuple(-c for c in g)

    @staticmethod
    def _mul_raw(g, h):
        return tuple(a + b for a, b in zip(g, h))

    def _norm(self, g):
        if self._standard:
            return sum(abs(c) for c in g)
        return super()._norm(g)

    def _max_norm(self, points):
        if self._standard:
            return MarkedGroup._max_norm(self, points)
        return super()._max_norm(points)

    def descriptor(self):
        return ("Zd", self.d, self.generators)


class HeisenbergGroup(_TupleGroup):
    """Integer Heisenberg group on triples (a, b, c) with (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b')."""

    kind = "Heisenberg"
    _bad_generator = "generator {v} is not a triple"
    _not_element = "{g!r} is not a Heisenberg triple"
    # (a, b): the group is nilpotent, so a set generating its abelianization generates it
    _abelian = 2
    _form = ((0, 1), (0, 0))  # c(gh) = c(g) + c(h) + a(g) b(h)

    def __init__(self, generators=None, max_radius=64):
        super().__init__(3, generators, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
                         max_radius, labels=["x", "X", "y", "Y"])

    @property
    def identity(self):
        return (0, 0, 0)

    def inverse(self, g):
        a, b, c = g
        return (-a, -b, -c + a * b)

    @staticmethod
    def _mul_raw(g, h):
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    def descriptor(self):
        return ("Heisenberg", self.generators)


_FREE_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class FreeGroup(MarkedGroup):
    """Free group of finite rank; elements are reduced words over letter indices."""

    kind = "Free"

    def __init__(self, rank, generators=None, max_radius=64):
        if generators is not None:
            raise UnsupportedError("free groups only carry their standard free basis")
        if integer_parameter("rank", rank, 1) > len(_FREE_ALPHABET):
            raise ParameterError(f"rank must be at most {len(_FREE_ALPHABET)}, got {rank}")
        self.rank = rank
        # letter 2i is the i-th generator, letter 2i+1 its inverse
        labels = []
        gens = []
        for i in range(self.rank):
            labels.append(_FREE_ALPHABET[i])
            labels.append(_FREE_ALPHABET[i].upper())
            gens.append((2 * i,))
            gens.append((2 * i + 1,))
        super().__init__(labels, gens, max_radius=max_radius)
        # the letter of digit d after a word ending in l: d skips l's inverse
        self._after = [[d + (d >= l ^ 1) for l in range(2 * rank)] for d in range(2 * rank - 1)]
        self._spheres = [[()], [(x,) for x in range(2 * rank)]]  # cached by _sphere_points

    @property
    def identity(self):
        return ()

    def inverse(self, g):
        return tuple(x ^ 1 for x in reversed(g))

    @staticmethod
    def _mul_raw(g, h):
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

    def _norm(self, g):
        return len(g)

    def _sphere_points(self, r):
        """The reduced words of length r, sorted and cached: each word of sphere
        r - 1 followed by each letter that does not cancel its last one.  The
        words that end in the d-th such letter fill every (2k - 1)-th place."""
        spheres, q = self._spheres, len(self._after)
        while len(spheres) <= r:
            prev = spheres[-1]
            lasts = [w[-1] for w in prev]
            out = [None] * (q * len(prev))
            for d, after in enumerate(self._after):
                out[d::q] = map(add, prev, map([(x,) for x in after].__getitem__, lasts))
            spheres.append(out)
        return spheres[r]

    def _table(self, radius, inverse):
        """Closed-form arithmetic on the sorted spheres: sphere r is 2k blocks
        of m_r words, one per first letter.  s*w is w's tail when w starts with
        s^-1, which skips block s of sphere r - 1, and otherwise the word of block
        s of sphere r + 1 at w's place among the words not starting with s^-1;
        every table column is a run of ranges per sphere.  Tuple order is the
        preorder of the prefix tree, and a word's children are consecutive in
        its sphere, so the ranks follow from subtree sizes; (w z)^-1 is z^-1 w^-1,
        read from the table."""
        spheres = list(map(self._sphere_points, range(self._check_radius(radius) + 1)))
        order = list(chain.from_iterable(spheres))
        S, q = 2 * self.rank, 2 * self.rank - 1
        starts = list(accumulate(map(len, spheres), initial=0))
        n = starts[-1]
        blocks = [len(sphere) // S for sphere in spheres]
        flat = array("i", bytes(4 * n * S))
        for x in range(S):
            y = x ^ 1
            runs = [[starts[1] + x] if radius else [-1]]
            for r in range(1, radius + 1):
                m, size = blocks[r], len(spheres[r])
                if r < radius:
                    up = starts[r + 1] + x * blocks[r + 1]
                    out = range(up, up + size - m)
                else:
                    out = [-1] * (size - m)
                if r == 1:
                    back = [0]
                else:
                    lo, mb = starts[r - 1], blocks[r - 1]
                    back = chain(range(lo, lo + x * mb), range(lo + (x + 1) * mb, starts[r]))
                runs += (out[:y * m], back, out[y * m:])
            flat[x::S] = array("i", chain.from_iterable(runs))
        below = [1] * (radius + 2)  # below[r]: ball words that extend a given r-letter word
        for r in range(radius - 1, 0, -1):
            below[r] = 1 + q * below[r + 1]
        ranks = array("i", bytes(4 * n))
        if radius:
            ranks[1:1 + S] = array("i", range(1, 1 + S * below[1], below[1]))
        for r in range(2, radius + 1):
            parents = ranks[starts[r - 1]:starts[r]]
            for d in range(q):
                ranks[starts[r] + d:starts[r + 1]:q] = array(
                    "i", map(add, parents, repeat(1 + d * below[r])))
        if not inverse:
            return order, flat, None, ranks
        inv, lasts = array("i", bytes(4 * n)), array("i", bytes(4 * n))
        if radius:
            lasts[1:1 + S] = array("i", range(S))
            inv[1:1 + S] = array("i", [1 + (x ^ 1) for x in range(S)])
        for r in range(2, radius + 1):
            lo, hi = starts[r - 1], starts[r]
            rows = array("i", map(mul, inv[lo:hi], repeat(S)))
            for d, after in enumerate(self._after):
                letters = array("i", map(after.__getitem__, lasts[lo:hi]))
                lasts[hi + d:starts[r + 1]:q] = letters
                inv[hi + d:starts[r + 1]:q] = array(
                    "i", map(flat.__getitem__, map(add, rows, map(xor, letters, repeat(1)))))
        return order, flat, inv, ranks

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
    if isinstance(group, FreeGroup):
        return {"kind": "Free", "rank": group.rank}
    if isinstance(group, _TupleGroup):
        obj = {"kind": group.kind}
        if isinstance(group, ZdGroup):
            obj["d"] = group.d
        if not group._standard:
            obj["generators"] = [list(g) for g in group.generators]
        return obj
    raise UnsupportedError(f"cannot serialize group {group!r}")


# Z^d from JSON builds 2d generator vectors of length d before anything else
# runs; no computation here is feasible far above a few dimensions
MAX_ZD_DIMENSION = 32


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
        if obj["d"] > MAX_ZD_DIMENSION:
            raise ConfigError(f"Zd dimension must be at most {MAX_ZD_DIMENSION}, got {obj['d']}")
        return ZdGroup(obj["d"], generators=gens, max_radius=max_radius)
    if kind == "Heisenberg":
        return HeisenbergGroup(generators=gens, max_radius=max_radius)
    if type(obj.get("rank")) is not int:
        raise ConfigError("Free needs an integer field 'rank'")
    return FreeGroup(obj["rank"], generators=gens, max_radius=max_radius)
