"""Exact rational parsing plus arithmetic in Q extended by square roots.

Every inequality the package certifies is decided exactly.  Purely rational
comparisons use Fraction.  Bounds involving p-th roots with p of denominator
at most 2 reduce, after cross-raising to integer powers, to sign tests of
sums c_1*sqrt(m_1) + ... + c_k*sqrt(m_k) with rational c_i and positive
integers m_i.  SqrtSum represents such numbers closed under +, -, * and
decides their sign exactly.  It keeps one radicand per square class: m and k
lie in the same class when m*k is a perfect square, and then
c*sqrt(m) = (c*isqrt(m*k)/k)*sqrt(k), so no integer is ever factored.
Square roots from distinct square classes are linearly independent over Q
(Besicovitch 1940), so the sum is zero iff all stored coefficients vanish,
and a nonzero sum is separated from zero by certified isqrt interval
refinement.
"""

from fractions import Fraction
from math import gcd, isqrt

from .errors import ConfigError, ParameterError


def parse_fraction(text):
    """Parse 'p/q' or 'p' into a Fraction."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational number: {text!r}") from exc


def format_fraction(value):
    """Render a rational as 'p/q', or just 'p' for integers."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _merge(terms, m, c):
    """Add c*sqrt(m) to terms, under the radicand kept for the square class of m."""
    r = isqrt(m)
    if r * r == m:
        m, c = 1, c * r
    else:
        for k in terms:
            s = isqrt(m * k)
            if s * s == m * k:
                m, c = k, c * Fraction(s, k)
                break
    total = terms.get(m, 0) + c
    if total:
        terms[m] = total
    else:
        terms.pop(m, None)


class SqrtSum:
    """An exact number of the form sum(c_i * sqrt(m_i)), one m_i per square class."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        # radicand -> nonzero Fraction coefficient; radicand 1 holds the
        # rational part and no two radicands share a square class
        self._terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def from_rational(cls, q):
        q = Fraction(q)
        return cls({1: q}) if q else cls()

    @classmethod
    def sqrt(cls, q):
        """Exact square root of a nonnegative rational."""
        q = Fraction(q)
        if q < 0:
            raise ParameterError(f"square root of negative rational {q}")
        terms = {}
        if q:
            _merge(terms, q.numerator * q.denominator, Fraction(1, q.denominator))
        return cls(terms)

    @staticmethod
    def _coerce(value):
        if isinstance(value, SqrtSum):
            return value
        if isinstance(value, (int, Fraction)):
            return SqrtSum.from_rational(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for m, c in other._terms.items():
            _merge(terms, m, c)
        return SqrtSum(terms)

    __radd__ = __add__

    def __neg__(self):
        return SqrtSum({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                # sqrt(m1)*sqrt(m2) = g*sqrt((m1/g)*(m2/g)) with g = gcd
                g = gcd(m1, m2)
                _merge(terms, (m1 // g) * (m2 // g), c1 * c2 * g)
        return SqrtSum(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ParameterError("only nonnegative integer powers are exact here")
        result = SqrtSum.from_rational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_rational(self):
        return all(m == 1 for m in self._terms)

    def as_fraction(self):
        if not self.is_rational():
            raise ParameterError(f"{self!r} is irrational")
        return self._terms.get(1, Fraction(0))

    def sign(self):
        """Exact sign in {-1, 0, 1}."""
        if not self._terms:
            return 0
        coeffs = list(self._terms.values())
        if all(c > 0 for c in coeffs):
            return 1
        if all(c < 0 for c in coeffs):
            return -1
        # mixed signs: the value is nonzero (linear independence), so the
        # interval refinement below terminates
        prec = 16
        while True:
            scale = 1 << prec
            lo = Fraction(0)
            hi = Fraction(0)
            for m, c in self._terms.items():
                r = isqrt(m * scale * scale)
                root_lo = Fraction(r, scale)
                root_hi = Fraction(r + 1, scale)
                if c > 0:
                    lo += c * root_lo
                    hi += c * root_hi
                else:
                    lo += c * root_hi
                    hi += c * root_lo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() == 0

    def __le__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() <= 0

    def __lt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __ge__(self, other):
        return self._coerce(other) <= self

    def __gt__(self, other):
        return self._coerce(other) < self

    def __hash__(self):
        # which radicand stands for a square class depends on the order the
        # terms arrived in, so hash only what every representation shares:
        # the rational part and the signs of the irrational coefficients
        rational = self._terms.get(1, Fraction(0))
        signs = tuple(sorted(c > 0 for m, c in self._terms.items() if m != 1))
        return hash((rational, signs)) if signs else hash(rational)

    def __float__(self):
        return float(sum(float(c) * float(m) ** 0.5 for m, c in self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "SqrtSum(0)"
        parts = []
        for m, c in sorted(self._terms.items()):
            parts.append(str(c) if m == 1 else f"{c}*sqrt({m})")
        return f"SqrtSum({' + '.join(parts)})"
