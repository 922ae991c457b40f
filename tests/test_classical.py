"""Classical Euler/Bernoulli baselines against generating-function oracles.

The oracle inverts the relevant exponential generating functions by exact
power-series division, a route entirely independent of the recurrences the
implementation uses.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qeuler import classical
from qeuler.classical import (alt_power_sum, alt_power_sum_closed,
                              bernoulli_number, euler_number,
                              euler_numbers, euler_poly, power_sum,
                              power_sum_closed)
from qeuler.errors import DomainError


def series_reciprocal(coeffs):
    """Coefficients of 1/f for a power series f with f(0) != 0, exactly."""
    inv = [1 / coeffs[0]]
    for n in range(1, len(coeffs)):
        acc = sum(coeffs[i] * inv[n - i] for i in range(1, n + 1))
        inv.append(-acc / coeffs[0])
    return inv


def euler_oracle(n_max):
    """E_n from 2/(e^t + 1): invert the series (e^t + 1)/2."""
    coeffs = [Fraction(1)] + [Fraction(1, 2 * factorial(n))
                              for n in range(1, n_max + 1)]
    inv = series_reciprocal(coeffs)
    return [factorial(n) * inv[n] for n in range(n_max + 1)]


def bernoulli_oracle(n_max):
    """B_n from t/(e^t - 1): invert the series (e^t - 1)/t."""
    coeffs = [Fraction(1, factorial(n + 1)) for n in range(n_max + 1)]
    inv = series_reciprocal(coeffs)
    return [factorial(n) * inv[n] for n in range(n_max + 1)]


def test_euler_numbers_match_series_oracle():
    oracle = euler_oracle(20)
    for n in range(21):
        assert euler_number(n) == oracle[n]


def test_euler_number_anchors():
    assert euler_number(0) == 1
    assert euler_number(1) == Fraction(-1, 2)
    assert euler_number(3) == Fraction(1, 4)
    assert euler_number(7) == Fraction(17, 8)


def test_euler_numbers_vanish_at_even_indices():
    for n in range(2, 13, 2):
        assert euler_number(n) == 0


def test_bernoulli_numbers_match_series_oracle():
    oracle = bernoulli_oracle(20)
    for n in range(21):
        assert bernoulli_number(n) == oracle[n]


def test_bernoulli_anchors():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(4) == Fraction(-1, 30)


def test_bernoulli_vanish_at_odd_indices_past_one():
    for n in range(3, 14, 2):
        assert bernoulli_number(n) == 0


def test_euler_poly_values():
    assert euler_poly(2, 3) == 6          # E_2(x) = x^2 - x
    assert euler_poly(1, Fraction(1, 2)) == 0
    for n in range(6):
        assert euler_poly(n, 0) == euler_number(n)


def test_euler_poly_functional_equation():
    # E_n(x) + E_n(x+1) = 2 x^n
    xs = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
          Fraction(1, 2)]
    for n in range(11):
        for x in xs:
            assert euler_poly(n, x) + euler_poly(n, x + 1) == 2 * x ** n


def test_tables_match_sympy():
    sympy = pytest.importorskip("sympy")

    def exact(value):
        return Fraction(int(value.p), int(value.q))

    for n in range(61):
        assert euler_number(n) == exact(sympy.euler(n, 0))
        # sympy takes B_1 = +1/2; this package takes B_1 = -1/2
        expected = exact(sympy.bernoulli(n))
        assert bernoulli_number(n) == (-expected if n == 1 else expected)
    for n in range(13):
        for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2),
                  Fraction(7, 3)):
            value = sympy.euler(n, sympy.Rational(x.numerator, x.denominator))
            assert euler_poly(n, x) == exact(value)


def test_power_sum_examples():
    assert power_sum(3, 4) == 36          # 0 + 1 + 8 + 27
    assert power_sum(5, 1) == 0
    assert power_sum(1, 5) == 10


def test_power_sum_twins_agree_exhaustively():
    for n in range(1, 13):
        for k in range(1, 51):
            assert power_sum(n, k) == power_sum_closed(n, k)


def test_alt_power_sum_examples():
    assert alt_power_sum(2, 4) == -6      # 0 - 1 + 4 - 9
    assert alt_power_sum(2, 3) == 3
    assert alt_power_sum(7, 1) == 0


def test_alt_power_sum_twins_agree_exhaustively():
    for m in range(1, 13):
        for k in range(1, 51):
            assert alt_power_sum(m, k) == alt_power_sum_closed(m, k)


def test_power_sum_rejects_nonpositive_args():
    with pytest.raises(DomainError):
        power_sum(0, 3)
    with pytest.raises(DomainError):
        alt_power_sum_closed(2, 0)
    with pytest.raises(DomainError, match="^n must be nonnegative$"):
        euler_numbers(-1)


@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=60))
def test_power_sum_recurrence(n, k):
    # adding the term l = k extends the sum by k^n
    assert power_sum(n, k + 1) - power_sum(n, k) == Fraction(k) ** n


@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=60))
def test_alt_power_sum_recurrence(m, k):
    step = Fraction(k) ** m if k % 2 == 0 else -Fraction(k) ** m
    assert alt_power_sum(m, k + 1) - alt_power_sum(m, k) == step


def test_closed_forms_never_call_the_direct_sums(monkeypatch):
    cells = [(n, k) for n in (1, 2, 5, 12, 30) for k in (1, 2, 7, 50)]
    expected = [(power_sum(*cell), alt_power_sum(*cell)) for cell in cells]

    def refuse(*_args):
        raise AssertionError("the closed forms must not use the direct sums")

    monkeypatch.setattr(classical, "power_sum", refuse)
    monkeypatch.setattr(classical, "alt_power_sum", refuse)
    with pytest.raises(AssertionError):
        classical.power_sum(2, 3)
    assert [(power_sum_closed(*cell), alt_power_sum_closed(*cell))
            for cell in cells] == expected
