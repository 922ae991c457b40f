"""q-Euler numbers/polynomials and their alternating-sum identities.

Brute-force alternating sums are the oracle for every closed form; the two
polynomial forms check each other; all equalities are exact on Fractions.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import qnumbers
from qeuler.characters import characters_mod
from qeuler.classical import (euler_number, euler_poly, power_sum,
                              q_euler_poly_via_numbers)
from qeuler.errors import DomainError
from qeuler.exactnum import QBase
from qeuler.qnumbers import (QPower, alt_q_power_sum, alt_q_power_sum_closed,
                             distribution_sum, q_euler_number, q_euler_poly,
                             q_euler_star_number, q_euler_star_poly, q_int,
                             weighted_alt_q_power_sum,
                             weighted_alt_q_power_sum_closed)

HALF = QBase(Fraction(1, 2))
IDENTITY_Q = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
              Fraction(3, 2), Fraction(5, 2)]

# negative q and q > 1 reach the sign paths of the integer kernel and sums:
# q = a/b with a < 0, and b - a < 0
rational_q = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                       st.integers(min_value=1, max_value=9)) \
    .filter(lambda q: q not in (0, 1, -1))
rational_t = st.builds(Fraction, st.integers(min_value=1, max_value=50),
                       st.integers(min_value=1, max_value=50))


def test_qbase_validation():
    for bad in (0, 1, -1):
        with pytest.raises(DomainError):
            QBase(Fraction(bad))
    with pytest.raises(DomainError):
        QBase(Fraction(3, 2), zeta_domain=True)
    assert QBase(Fraction(3, 2)).q == Fraction(3, 2)


def test_qpower_validation_and_witness():
    qp = QPower.from_integer(HALF, 3)
    assert qp.t == Fraction(1, 8)
    assert qp.t ** qp.exponent.denominator \
        == HALF.q ** qp.exponent.numerator
    qp = QPower.from_exponent(QBase(Fraction(1, 8)), Fraction(1, 3))
    assert qp.t == Fraction(1, 2)
    with pytest.raises(DomainError):
        QPower(HALF, Fraction(-1, 2))
    with pytest.raises(DomainError):
        QPower(HALF, Fraction(1, 4), Fraction(3))  # (1/2)^3 != 1/4


def test_q_int_values():
    assert q_int(0, HALF) == 0
    assert q_int(1, HALF) == 1
    assert q_int(3, HALF) == Fraction(7, 4)  # 1 + 1/2 + 1/4
    with pytest.raises(DomainError, match="^k must be nonnegative$"):
        q_int(-1, HALF)


def test_q_int_additivity():
    # [x + l]_q = [x]_q + q^x [l]_q
    for q in IDENTITY_Q:
        base = QBase(q)
        for x in range(0, 21, 4):
            for l in range(0, 21, 3):
                assert q_int(x + l, base) \
                    == q_int(x, base) + q ** x * q_int(l, base)


def test_q_euler_number_anchors():
    assert q_euler_number(0, HALF) == 1
    assert q_euler_number(0, QBase(Fraction(5, 2))) == 1
    assert q_euler_number(1, HALF) == Fraction(-2, 3)  # -1/(1+q)
    assert q_euler_number(2, HALF) == Fraction(-4, 15)


def test_q_euler_number_closed_form_n1():
    # the two-term sum collapses to -1/(1+q)
    for q in IDENTITY_Q:
        assert q_euler_number(1, QBase(q)) == -1 / (1 + q)


def test_q_euler_poly_anchors():
    assert q_euler_poly(2, QPower(HALF, Fraction(1, 4))) == Fraction(26, 15)
    assert q_euler_poly(2, QPower(HALF, Fraction(1, 8))) == Fraction(83, 30)


def test_q_euler_poly_at_t_one_is_number():
    for q in IDENTITY_Q:
        base = QBase(q)
        for n in range(8):
            assert q_euler_poly(n, QPower(base, Fraction(1))) \
                == q_euler_number(n, base)


def test_q_euler_poly_forms_agree():
    for q in IDENTITY_Q[:4]:
        base = QBase(q)
        for x in range(9):
            qp = QPower.from_integer(base, x)
            for n in range(11):
                assert q_euler_poly(n, qp) == q_euler_poly_via_numbers(n, qp)


def test_recurrence_numbers_match_the_kernel():
    # the recurrence sums each entry over one denominator; at t = 1,
    # [x]_q = 0 leaves its E_{n,q} alone in the binomial form
    for q in (Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(-1, 2),
              Fraction(5, 2), Fraction(7, 11)):
        base = QBase(q)
        qp = QPower(base, Fraction(1))
        for n in range(61):
            assert q_euler_poly_via_numbers(n, qp) == q_euler_number(n, base)


def test_q_euler_poly_via_numbers_n1_identity():
    # (1-t)/(1-q) - t/(1+q), cleared denominators by hand
    for q in IDENTITY_Q:
        for t in (Fraction(1), q, q ** 2, q ** 3):
            qp = QPower(QBase(q), t)
            assert q_euler_poly_via_numbers(1, qp) \
                == (1 - t) / (1 - q) - t / (1 + q)


def test_q_euler_star_anchors():
    assert q_euler_star_number(0, HALF) == 1
    assert q_euler_star_number(1, HALF) == Fraction(-2, 5)
    assert q_euler_star_number(1, QBase(Fraction(1, 3))) == Fraction(-3, 10)
    assert q_euler_star_poly(1, QPower(HALF, Fraction(1, 4))) == Fraction(7, 5)
    assert q_euler_star_poly(1, QPower(HALF, Fraction(1, 8))) \
        == Fraction(17, 10)
    for q in IDENTITY_Q:
        base = QBase(q)
        for n in range(6):
            assert q_euler_star_poly(n, QPower(base, Fraction(1))) \
                == q_euler_star_number(n, base)


def fraction_kernel(n, q, t, shift):
    """The kernel as a loop of Fraction operations, reducing every term."""
    total = Fraction(0)
    q_power = q ** shift
    prefactor = 1 + q_power
    t_power = 1
    for j in range(n + 1):
        term = comb(n, j) * t_power / (1 + q_power)
        total += term if j % 2 == 0 else -term
        q_power *= q
        t_power *= t
    return prefactor * total / (1 - q) ** n


def kernel(n, q, t, shift):
    """The memoized kernel at Fractions q and t."""
    return qnumbers._kernel(n, *q.as_integer_ratio(),
                            *Fraction(t).as_integer_ratio(), shift)


def test_kernel_matches_fraction_loop():
    for q in (Fraction(1, 2), Fraction(49, 144), Fraction(5, 2),
              Fraction(-1, 3), Fraction(-7, 4)):
        for t in (1, q ** 3, Fraction(11, 7)):
            for shift in (0, 1):
                for n in range(46):
                    assert kernel(n, q, t, shift) \
                        == fraction_kernel(n, q, t, shift)


@settings(max_examples=60, deadline=None)
@given(rational_q, rational_t, st.integers(min_value=0, max_value=20))
def test_kernel_shift_identity_random(q, t, n):
    # E(x) + E(x+1) = 2 [x]_q^n and E*(x) + q E*(x+1) = [2]_q [x]_q^n,
    # with t = q^x, q^(x+1) = q t and [x]_q = (1-t)/(1-q)
    bracket = (1 - t) / (1 - q)
    assert kernel(n, q, t, 0) + kernel(n, q, q * t, 0) == 2 * bracket ** n
    assert kernel(n, q, t, 1) + q * kernel(n, q, q * t, 1) \
        == (1 + q) * bracket ** n


def test_direct_sums_never_call_the_kernel(monkeypatch):
    cells = [(m, n, QBase(q)) for q in IDENTITY_Q + [Fraction(-2, 3)]
             for m in (1, 4, 9) for n in (1, 2, 7, 16)]
    expected = [(alt_q_power_sum_closed(*cell),
                 weighted_alt_q_power_sum_closed(*cell)) for cell in cells]

    def refuse(*_args):
        raise AssertionError("the direct sums must not use the closed form")

    for name in ("_kernel", "_kernel_parts"):
        monkeypatch.setattr(qnumbers, name, refuse)
    with pytest.raises(AssertionError):
        alt_q_power_sum_closed(2, 3, HALF)
    assert [(alt_q_power_sum(*cell), weighted_alt_q_power_sum(*cell))
            for cell in cells] == expected


def test_via_numbers_never_calls_the_kernel(monkeypatch):
    cells = [(n, QPower(QBase(q), t)) for q in IDENTITY_Q + [Fraction(-2, 3)]
             for t in (1, q ** 2, Fraction(11, 7)) for n in (0, 1, 6, 13)]
    expected = [q_euler_poly(*cell) for cell in cells]

    def refuse(*_args):
        raise AssertionError("the binomial form must not use the kernel")

    for name in ("_kernel", "_kernel_parts"):
        monkeypatch.setattr(qnumbers, name, refuse)
    with pytest.raises(AssertionError):
        q_euler_poly(2, QPower(HALF, Fraction(1, 2)))
    assert [q_euler_poly_via_numbers(*cell) for cell in cells] == expected


def test_number_cache_stays_bounded():
    base = QBase(Fraction(2, 7))
    before = (q_euler_number(5, base), q_euler_star_number(5, base))
    # more distinct q than the cache holds push the first entries out
    for k in range(qnumbers.KERNEL_CACHE_SIZE + 10):
        q_euler_number(1, QBase(Fraction(1, k + 11)))
    info = qnumbers._kernel.cache_info()
    assert info.maxsize == qnumbers.KERNEL_CACHE_SIZE
    assert info.currsize <= info.maxsize
    after = (q_euler_number(5, base), q_euler_star_number(5, base))
    assert qnumbers._kernel.cache_info().misses == info.misses + 2
    assert after == before


def test_polynomial_at_t_one_is_a_memo_hit_on_its_number(monkeypatch):
    # the numbers are the memo's entries at t = 1, so the polynomial there
    # is looked up, not summed again
    base = QBase(Fraction(13, 29))
    numbers = [q_euler_number(9, base), q_euler_star_number(9, base)]
    hits = qnumbers._kernel.cache_info().hits

    def refuse(*_args):
        raise AssertionError("a cached number was summed again")

    monkeypatch.setattr(qnumbers, "_kernel_parts", refuse)
    at_one = QPower.from_integer(base, 0)
    assert [q_euler_poly(9, at_one), q_euler_star_poly(9, at_one)] == numbers
    assert qnumbers._kernel.cache_info().hits == hits + 2


def test_alt_q_power_sum_examples():
    assert alt_q_power_sum(4, 1, HALF) == 0
    assert alt_q_power_sum(2, 3, HALF) == Fraction(5, 4)   # 0 - 1 + 9/4
    assert alt_q_power_sum(2, 2, HALF) == -1
    assert alt_q_power_sum_closed(2, 3, HALF) == Fraction(5, 4)
    assert alt_q_power_sum_closed(2, 2, HALF) == -1
    assert alt_q_power_sum_closed(5, 1, HALF) == 0


def test_alt_q_power_sum_identity_grid():
    for q in IDENTITY_Q:
        base = QBase(q)
        for m in range(1, 11):
            for n in range(1, 21):
                assert alt_q_power_sum_closed(m, n, base) \
                    == alt_q_power_sum(m, n, base)


def test_weighted_alt_q_power_sum_examples():
    assert weighted_alt_q_power_sum(1, 2, HALF) == Fraction(-1, 2)
    assert weighted_alt_q_power_sum(1, 3, HALF) == Fraction(-1, 8)
    assert weighted_alt_q_power_sum_closed(1, 2, HALF) == Fraction(-1, 2)
    assert weighted_alt_q_power_sum_closed(1, 3, HALF) == Fraction(-1, 8)
    assert weighted_alt_q_power_sum_closed(3, 1, HALF) == 0


def test_weighted_identity_grid():
    for q in IDENTITY_Q:
        base = QBase(q)
        for m in range(1, 11):
            for n in range(1, 21):
                assert weighted_alt_q_power_sum_closed(m, n, base) \
                    == weighted_alt_q_power_sum(m, n, base)


@settings(max_examples=60, deadline=None)
@given(rational_q, st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=12))
def test_alt_q_power_sum_identity_random(q, m, n):
    base = QBase(q)
    assert alt_q_power_sum_closed(m, n, base) == alt_q_power_sum(m, n, base)


@settings(max_examples=60, deadline=None)
@given(rational_q, st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=12))
def test_weighted_identity_random(q, m, n):
    base = QBase(q)
    assert weighted_alt_q_power_sum_closed(m, n, base) \
        == weighted_alt_q_power_sum(m, n, base)


def test_distribution_examples():
    assert distribution_sum(1, 3, 0, HALF) == Fraction(-2, 3)
    assert distribution_sum(2, 3, 0, HALF) == q_euler_number(2, HALF)
    for m in range(5):
        for x in range(4):
            assert distribution_sum(m, 1, x, HALF) \
                == q_euler_poly(m, QPower.from_integer(HALF, x))


def test_distribution_grid():
    # x < 0 puts powers of a, not of b, in the denominators of t = q^k;
    # q < 0 keeps t > 0 only at f = 1 and even x, and refuses the rest
    for q in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 2),
              Fraction(-3, 7)):
        base = QBase(q)
        for m in range(9):
            for f in (1, 3, 5):
                for x in range(-6, 6):
                    if q < 0 and (f > 1 or x % 2):
                        with pytest.raises(DomainError,
                                           match="^t must be positive$"):
                            distribution_sum(m, f, x, base)
                        continue
                    assert distribution_sum(m, f, x, base) \
                        == q_euler_poly(m, QPower.from_integer(base, x))


def test_distribution_rejects_even_f():
    with pytest.raises(DomainError):
        distribution_sum(2, 2, 0, HALF)
    with pytest.raises(DomainError):
        distribution_sum(2, 0, 0, HALF)


def test_exact_special_values_take_q_through_qbase():
    # the text `qeuler zeta --q 2` prints
    domain = r"^zeta domain requires 0 < q < 1$"
    with pytest.raises(DomainError, match=domain):
        qnumbers.partial_zeta_special_value(2, 1, 3, Fraction(3, 2))
    with pytest.raises(DomainError, match=domain):
        qnumbers.generalized_q_euler(1, characters_mod(5)[2], Fraction(3, 2))


def test_both_sum_routes_share_one_argument_check():
    need = r"^need exponent m >= 1 and length n >= 1$"
    with pytest.raises(DomainError, match=need):
        power_sum(0, 3)
    with pytest.raises(DomainError, match=need):
        alt_q_power_sum(0, 3, HALF)


def test_distribution_sum_leaves_the_degree_to_the_kernel():
    with pytest.raises(DomainError, match=r"^n must be nonnegative$"):
        distribution_sum(-1, 3, 0, HALF)


def test_q_to_one_limit_of_numbers():
    # |E_{n,1-eps} - E_n| shrinks linearly in eps
    epsilons = [Fraction(1, 10 ** k) for k in (2, 3, 4)]
    for n in range(9):
        deviations = [abs(q_euler_number(n, QBase(1 - eps)) - euler_number(n))
                      for eps in epsilons]
        assert deviations[0] >= deviations[1] >= deviations[2]
        ratios = [dev / eps for dev, eps in zip(deviations, epsilons)]
        assert ratios[1] <= 2 * ratios[0]
        assert ratios[2] <= 2 * ratios[0]


def test_q_to_one_limit_of_polynomials():
    epsilons = [Fraction(1, 10 ** k) for k in (2, 3, 4)]
    for n in range(6):
        for x in (1, 2, 3):
            deviations = []
            for eps in epsilons:
                base = QBase(1 - eps)
                deviations.append(abs(
                    q_euler_poly(n, QPower.from_integer(base, x))
                    - euler_poly(n, x)))
            assert deviations[0] >= deviations[1] >= deviations[2]
