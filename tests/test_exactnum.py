"""Exact arithmetic kernel: binomials, rational powers, precision reals."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qeuler.errors import DomainError, NotExactPower
from qeuler.exactnum import (RealP, binom, format_rational, iroot,
                             parse_rational, rat_pow)


def pascal_triangle(n_max):
    """Oracle: Pascal's triangle built by addition only."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return rows


def test_binom_examples():
    assert binom(4, 2) == 6
    assert binom(7, 0) == 1
    # value produced by the additive oracle, frozen here
    assert pascal_triangle(10)[10][4] == 210
    assert binom(10, 4) == 210


def test_binom_zero_beyond_row():
    assert binom(5, 6) == 0
    assert binom(0, 3) == 0
    assert binom(3, -2) == 0


def test_binom_rejects_negative_n():
    with pytest.raises(DomainError):
        binom(-1, 0)


def test_binom_matches_pascal_triangle():
    rows = pascal_triangle(30)
    for n in range(31):
        for k in range(n + 1):
            assert binom(n, k) == rows[n][k]


@given(st.integers(min_value=1, max_value=30), st.data())
def test_binom_pascal_rule(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_iroot_exact_and_floor():
    assert iroot(27, 3) == (3, True)
    assert iroot(28, 3) == (3, False)
    assert iroot(1, 7) == (1, True)
    assert iroot(0, 2) == (0, True)
    big = 123456789 ** 11
    assert iroot(big, 11) == (123456789, True)
    assert iroot(big + 1, 11) == (123456789, False)


def test_rat_pow_examples():
    assert rat_pow(Fraction(1, 8), Fraction(1, 3)) == Fraction(1, 2)
    assert rat_pow(Fraction(1, 2), Fraction(-2)) == 4
    with pytest.raises(NotExactPower):
        rat_pow(Fraction(1, 2), Fraction(1, 2))


def test_rat_pow_rejects_nonpositive_base():
    with pytest.raises(DomainError):
        rat_pow(Fraction(-8), Fraction(1, 3))
    with pytest.raises(DomainError):
        rat_pow(Fraction(0), Fraction(1, 2))


@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=30),
       st.integers(min_value=-5, max_value=5),
       st.integers(min_value=1, max_value=4))
def test_rat_pow_roundtrip(num, den, a, f):
    # build a guaranteed-exact power and recover its root
    base = Fraction(num, den)
    q = base ** f
    r = Fraction(a, f)
    result = rat_pow(q, r)
    assert result ** r.denominator == q ** r.numerator


def test_rational_serialization_canonical():
    assert format_rational(Fraction(6)) == "6/1"
    assert format_rational(Fraction(-2, 3)) == "-2/3"
    assert format_rational(0) == "0/1"
    assert parse_rational("6/1") == 6
    assert parse_rational("-2/3") == Fraction(-2, 3)
    assert parse_rational("0.25") == Fraction(1, 4)
    with pytest.raises(DomainError):
        parse_rational("eleven")


def test_realp_digits_and_precision():
    v = RealP.from_rational(Fraction(1, 3), precision=30)
    text = v.digits()
    assert text.startswith("0.3333333333")
    assert v.precision == 30
    with pytest.raises(DomainError):
        RealP.from_rational(1, precision=0)
