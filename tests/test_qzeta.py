"""q-zeta evaluation: the two summation routes are each other's oracle,
and negative-integer values must hit the exact polynomial interpolation."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from qeuler.errors import DomainError, NonConvergence
from qeuler.exactnum import GUARD_DIGITS, RealP, binom, rat_pow, to_mpf, \
    tolerance
from qeuler.qnumbers import QBase, QPower, q_euler_poly, q_int
from qeuler.qzeta import (ZetaQuery, euler_transform, interpolate_check,
                          partial_zeta, partial_zeta_series,
                          partial_zeta_special_value, zeta,
                          zeta_euler_transform)

P = 50
HALF = QBase(Fraction(1, 2), zeta_domain=True)


def query(s, x, q, precision=P):
    return ZetaQuery(RealP.from_rational(s, precision),
                     RealP.from_rational(x, precision),
                     QBase(q, zeta_domain=True), precision)


def continuation_exact(n, x, q):
    """Oracle: the continuation series at s = -n computed in Fractions.

    C(-n+k-1, k) = (-1)^k C(n, k), so the series truncates at k = n and
    the value is (1-q)^(-n) sum_k (-1)^k C(n,k) q^(xk) / (1+q^k)."""
    acc = Fraction(0)
    for k in range(n + 1):
        term = binom(n, k) * q ** (x * k) / (1 + q ** k)
        acc += term if k % 2 == 0 else -term
    return acc / (1 - q) ** n


def assert_close(realp, exact, precision=P):
    with mp.workdps(precision + GUARD_DIGITS):
        assert abs(realp.value - to_mpf(Fraction(exact))) \
            <= tolerance(precision)


def test_zeta_query_validation():
    with pytest.raises(DomainError):
        query(0, 1, Fraction(3, 2))
    with pytest.raises(DomainError):
        query(0, -1, Fraction(1, 2))
    with pytest.raises(DomainError):
        query(0, 1, Fraction(1, 2), precision=10)


def test_zeta_interpolation_anchors():
    assert_close(zeta(query(0, 1, Fraction(1, 2))), Fraction(1, 2))
    assert_close(zeta(query(-1, 1, Fraction(1, 2))), Fraction(1, 3))
    assert_close(zeta(query(-2, 2, Fraction(1, 2))), Fraction(13, 15))
    assert_close(zeta(query(0, 5, Fraction(1, 3))), Fraction(1, 2))


def test_zeta_interpolation_grid():
    for q in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        base = QBase(q, zeta_domain=True)
        for n in range(9):
            for x in range(1, 6):
                exact = q_euler_poly(n, QPower.from_integer(base, x)) / 2
                assert_close(zeta(query(-n, x, q)), exact)


def test_continuation_truncates_at_negative_integers():
    # the exact truncated series equals E_{n,q}(x)/2 termwise
    for q in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        base = QBase(q)
        for n in range(9):
            for x in range(1, 5):
                exact = q_euler_poly(n, QPower.from_integer(base, x)) / 2
                assert continuation_exact(n, x, q) == exact


def test_interpolate_check_returns_pair():
    exact, approx = interpolate_check(2, 3, HALF)
    assert exact == Fraction(83, 60)
    assert_close(approx, exact)
    exact, approx = interpolate_check(0, 3, HALF)
    assert exact == Fraction(1, 2)


def test_dual_route_subgrid():
    for s in ("-2", "-1/2", "0", "1/2", "2"):
        for x in ("1/2", "2"):
            for q in (Fraction(1, 5), Fraction(4, 5)):
                zq = query(s, x, q)
                a = zeta(zq)
                b = zeta_euler_transform(zq)
                with mp.workdps(P + GUARD_DIGITS):
                    assert abs(a.value - b.value) <= tolerance(P)


def test_euler_transform_known_values():
    with mp.workdps(40):
        # sum (-1)^n x^n = 1/(1+x) at x = 1/3
        value = euler_transform(lambda j: mpf(3) ** (-j), 20)
        assert abs(value - mpf(3) / 4) < mpf(10) ** -20
        # Grandi's series sums to 1/2
        value = euler_transform(lambda j: mpf(1), 20)
        assert abs(value - mpf("0.5")) < mpf(10) ** -20


def test_euler_transform_nonconvergence():
    with mp.workdps(40):
        with pytest.raises(NonConvergence):
            # |Delta^k a_0| = 2^k exactly cancels the 2^(k+1) damping
            euler_transform(lambda j: mpf(3) ** j, 20, cap=100)


def test_partial_zeta_anchors():
    s = RealP.from_rational(-1, P)
    assert_close(partial_zeta(s, 1, 3, HALF, P), Fraction(-1, 9))
    assert_close(partial_zeta(s, 2, 3, HALF, P), Fraction(5, 9))


def test_partial_zeta_validation():
    s = RealP.from_rational(-1, P)
    with pytest.raises(DomainError):
        partial_zeta(s, 1, 4, HALF, P)
    with pytest.raises(DomainError):
        partial_zeta(s, 3, 3, HALF, P)
    with pytest.raises(DomainError):
        partial_zeta(s, 0, 3, HALF, P)


def test_partial_zeta_special_value_anchors():
    assert partial_zeta_special_value(1, 1, 3, Fraction(1, 2)) \
        == Fraction(-1, 9)
    assert partial_zeta_special_value(1, 2, 3, Fraction(1, 2)) \
        == Fraction(5, 9)


def test_partial_zeta_special_value_matches_direct_formula():
    # recompute the right-hand side through the root-extraction path:
    # t = (q^F)^(a/F) must equal q^a
    for q in (Fraction(1, 3), Fraction(1, 2)):
        base = QBase(q)
        for F in (3, 5):
            base_f = QBase(q ** F)
            for a in range(1, F):
                t = rat_pow(q ** F, Fraction(a, F))
                assert t == q ** a
                for n in range(1, 7):
                    direct = q_int(F, base) ** n \
                        * q_euler_poly(n, QPower(base_f, t)) / 2
                    if a % 2:
                        direct = -direct
                    assert partial_zeta_special_value(n, a, F, q) == direct


def test_partial_zeta_matches_special_values():
    for q in (Fraction(1, 3), Fraction(1, 2)):
        base = QBase(q, zeta_domain=True)
        for F in (3, 5):
            for a in range(1, F):
                for n in range(1, 7):
                    numeric = partial_zeta(RealP.from_rational(-n, P),
                                           a, F, base, P)
                    assert_close(numeric,
                                 partial_zeta_special_value(n, a, F, q))


def test_partial_zeta_series_route_agrees():
    for s in ("-2", "-1", "1/2", "2"):
        for (a, F) in ((1, 3), (2, 3), (1, 5), (4, 5)):
            sv = RealP.from_rational(s, P)
            closed = partial_zeta(sv, a, F, HALF, P)
            series = partial_zeta_series(sv, a, F, HALF, P)
            with mp.workdps(P + GUARD_DIGITS):
                assert abs(closed.value - series.value) <= tolerance(P)
