"""Exact arithmetic: fraction parsing and the sqrt-extended rationals."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import isoprof
from isoprof import SqrtSum, format_fraction, parse_fraction
from isoprof.errors import ConfigError, ParameterError

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
)
small_rationals = st.fractions(min_value=0, max_value=30, max_denominator=20)


def test_parse_fraction_forms():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-7") == Fraction(-7)
    assert parse_fraction(" 5/10 ") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["", "x", "1/0", "3.5.2", "1/2/3"])
def test_parse_fraction_rejects(bad):
    with pytest.raises(ConfigError):
        parse_fraction(bad)


@given(rationals)
def test_format_parse_roundtrip(q):
    assert parse_fraction(format_fraction(q)) == q


def test_format_fraction_integers_have_no_slash():
    assert format_fraction(Fraction(8, 4)) == "2"
    assert format_fraction(Fraction(-9, 3)) == "-3"


def test_sqrt_of_perfect_square_is_rational():
    root = SqrtSum.sqrt(Fraction(9, 4))
    assert root.is_rational() and root == SqrtSum.from_rational(Fraction(3, 2))


def test_sqrt_squared_recovers_radicand():
    s = SqrtSum.sqrt(Fraction(7, 3))
    assert s * s == SqrtSum.from_rational(Fraction(7, 3))


def test_sqrt_of_negative_rejected():
    with pytest.raises(ParameterError):
        SqrtSum.sqrt(Fraction(-1, 2))


def test_irrational_value_is_not_rational():
    assert not SqrtSum.sqrt(2).is_rational()


def test_sqrt2_plus_sqrt3_vs_sqrt10_sign():
    # (sqrt2 + sqrt3)^2 = 5 + 2*sqrt6 < 10, so the difference is negative
    lhs = SqrtSum.sqrt(2) + SqrtSum.sqrt(3)
    assert (lhs - SqrtSum.sqrt(10)).sign() == -1
    assert (SqrtSum.sqrt(10) - lhs).sign() == 1


def test_sign_zero_only_for_cancellation():
    s = SqrtSum.sqrt(8) - 2 * SqrtSum.sqrt(2)
    assert s.sign() == 0
    assert s == SqrtSum.from_rational(0)


def test_close_mixed_sign_comparison():
    # 99/70 is a convergent of sqrt(2): the gap is ~7e-5 and must still resolve
    assert (SqrtSum.from_rational(Fraction(99, 70)) - SqrtSum.sqrt(2)).sign() == 1
    assert (SqrtSum.from_rational(Fraction(140, 99)) - SqrtSum.sqrt(2)).sign() == -1


@given(small_rationals, small_rationals)
def test_product_of_roots_is_root_of_product(a, b):
    assert SqrtSum.sqrt(a) * SqrtSum.sqrt(b) == SqrtSum.sqrt(a * b)


@given(small_rationals, small_rationals, small_rationals)
def test_ring_identities(a, b, c):
    x = SqrtSum.sqrt(a) + SqrtSum.from_rational(c)
    y = SqrtSum.sqrt(b) - SqrtSum.from_rational(1)
    z = SqrtSum.sqrt(c)
    assert (x + y) * z == x * z + y * z
    assert (x - y) + y == x
    assert x * y == y * x


@given(small_rationals)
def test_square_matches_pow(a):
    x = SqrtSum.sqrt(a) + 1
    assert x * x == x**2
    assert x**0 == SqrtSum.from_rational(1)
    assert x**3 == x * x * x


@given(st.fractions(min_value=-20, max_value=20, max_denominator=15),
       st.fractions(min_value=-20, max_value=20, max_denominator=15))
def test_order_matches_rationals(a, b):
    assert (SqrtSum.from_rational(a) <= SqrtSum.from_rational(b)) == (a <= b)
    assert (SqrtSum.from_rational(a) < SqrtSum.from_rational(b)) == (a < b)


def test_comparisons_mix_with_ints_and_fractions():
    assert SqrtSum.sqrt(2) < 2
    assert SqrtSum.sqrt(2) > 1
    assert SqrtSum.sqrt(Fraction(1, 4)) == Fraction(1, 2)


def test_pow_negative_exponent_rejected():
    with pytest.raises(ParameterError):
        SqrtSum.sqrt(2) ** -1


def test_float_conversion_is_close():
    s = SqrtSum.sqrt(2) + SqrtSum.sqrt(3) - Fraction(1, 7)
    assert abs(float(s) - (2**0.5 + 3**0.5 - 1 / 7)) < 1e-12


def test_hash_consistent_for_equal_values():
    assert hash(SqrtSum.sqrt(Fraction(9))) == hash(Fraction(3))
    assert hash(SqrtSum.sqrt(8)) == hash(2 * SqrtSum.sqrt(2))
    # p = nextprime(10**20), q = nextprime(3*10**20): nothing gets factored
    p, q = 100000000000000000039, 300000000000000000053
    assert SqrtSum.sqrt(p * p * q) == p * SqrtSum.sqrt(q)
    assert hash(SqrtSum.sqrt(p * p * q)) == hash(p * SqrtSum.sqrt(q))


def test_import_leaves_sympy_out():
    src = os.path.dirname(os.path.dirname(isoprof.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, isoprof; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
