"""Exact arithmetic kernel (`exactnum`): rational powers; and the
precision reals of `realnum`."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qeuler.errors import DomainError, NotExactPower
from mpmath import mp, mpf

from qeuler.exactnum import format_rational, iroot, parse_rational, rat_pow
from qeuler.realnum import ComplexP, RealP


def test_iroot_exact_and_floor():
    assert iroot(27, 3) == (3, True)
    assert iroot(28, 3) == (3, False)
    assert iroot(1, 7) == (1, True)
    assert iroot(0, 2) == (0, True)
    for n, k in ((-1, 2), (4, 0)):
        with pytest.raises(DomainError, match=r"^iroot requires n >= 0"):
            iroot(n, k)
    big = 123456789 ** 11
    assert iroot(big, 11) == (123456789, True)
    assert iroot(big + 1, 11) == (123456789, False)


def test_iroot_degree_past_bit_length_returns_at_once():
    # 1 < n**(1/k) < 2: no Newton step, no 2**(k-1)
    assert iroot(3, 10 ** 12) == (1, False)
    assert iroot(2, 2) == (1, False)
    assert iroot(7, 3) == (1, False)
    assert iroot(8, 3) == (2, True)  # k < bit length: Newton as before
    with pytest.raises(NotExactPower):
        rat_pow(Fraction(2, 3), Fraction(1, 10 ** 11))


def test_rat_pow_examples():
    assert rat_pow(Fraction(1, 8), Fraction(1, 3)) == Fraction(1, 2)
    assert rat_pow(Fraction(1, 2), Fraction(-2)) == 4
    with pytest.raises(NotExactPower, match=r"^\(1/2\)\*\*\(1/2\) is"):
        rat_pow(Fraction(1, 2), Fraction(1, 2))
    # a base past the int-to-str digit limit still prints in the message
    with pytest.raises(NotExactPower, match=r"^\(about 1.0e-5000\)\*\*"):
        rat_pow(Fraction(1, 10 ** 5000), Fraction(1, 3))


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


def test_format_rational_print_limit():
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("the interpreter prints ints of any length")
    longest = 10 ** (limit - 1)  # exactly `limit` digits
    assert format_rational(Fraction(1, longest)) == f"1/{longest}"
    for value in (Fraction(10 * longest, 3), Fraction(3, 10 * longest)):
        with pytest.raises(DomainError, match=str(limit)):
            format_rational(value)


def test_long_rational_text_refused_before_it_is_built():
    # Fraction would take 10**|exponent| before anything could look at it
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("the interpreter prints ints of any length")
    for text in ("1e-100000000", "-7.5e100000000", f"1e{limit + 2}"):
        for parse in (parse_rational, RealP.from_rational):
            with pytest.raises(DomainError, match="too long"):
                parse(text)
    assert parse_rational(f"1e-{limit + 1}") == Fraction(1, 10 ** (limit + 1))
    assert parse_rational("12.5e-3") == Fraction(1, 80)
    assert parse_rational("0e-100000000") == parse_rational("-0.0E99999") == 0
    for text in ("1e5e5", "0e5e5", "0/2e5", "1 e5", "e5", "1e_5"):
        with pytest.raises(DomainError, match="not a rational"):
            parse_rational(text)
    # a Fraction of any size is taken as it is
    huge = Fraction(1, 10 ** (2 * limit))
    assert RealP.from_rational(huge, 20).exact == huge


def test_realp_digits_and_precision():
    v = RealP.from_rational(Fraction(1, 3), precision=30)
    text = v.digits()
    assert text.startswith("0.3333333333")
    assert v.precision == 30
    with pytest.raises(DomainError):
        RealP.from_rational(1, precision=0)


def test_digits_grow_with_the_size_of_the_value():
    # P + max(0, floor(log10|v|)) significant digits, per part: the last
    # one sits at 10^-(P-1) or finer
    assert RealP.from_rational("1/3", 20).digits() == "0." + "3" * 20
    assert RealP.from_rational("-97/10", 20).digits() == "-9.7" + "0" * 18
    assert RealP.from_rational("1000/3", 20).digits() == "333." + "3" * 19
    with mp.workdps(40):
        value = ComplexP(mp.mpc(mpf(1000) / 3, mpf(1) / 3), 20)
    assert value.digits() == "333." + "3" * 19 + "+0." + "3" * 20 + "i"
