"""Acceptance gate: one test per criterion, at the stated tolerance and
time budget, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import time
from collections import Counter
from fractions import Fraction
from math import gcd

from mpmath import mp

from qeuler.characters import characters_mod
from qeuler.classical import euler_number
from qeuler.exactnum import GUARD_DIGITS, QBase
from qeuler.realnum import RealP, to_mpf
from qeuler.cvz import zeta_euler_transform
from qeuler.qnumbers import (QPower, alt_q_power_sum,
                             alt_q_power_sum_closed, generalized_q_euler,
                             partial_zeta_special_value,
                             q_euler_number, q_euler_poly,
                             weighted_alt_q_power_sum,
                             weighted_alt_q_power_sum_closed)
from qeuler.qzeta import ZetaQuery, l_function, partial_zeta, zeta
from qeuler.verify import (verify_classical, verify_thm2, verify_thm3,
                           verify_thm4, verify_weighted, verify_zeta)

P = 50
BOUND_40 = Fraction(1, 10 ** 40)


def report(number: int, label: str, ok: bool, elapsed: float,
           detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"criterion {number:2d} [{label}]: {status} "
          f"({elapsed:.2f}s){extra}")


def test_criterion_01_alternating_q_power_sums():
    start = time.perf_counter()
    suite = verify_thm3(max_m=10, max_n=20)
    half = QBase(Fraction(1, 2))
    anchors = (alt_q_power_sum_closed(2, 3, half) == Fraction(5, 4)
               and alt_q_power_sum(2, 3, half) == Fraction(5, 4)
               and alt_q_power_sum_closed(2, 2, half) == -1
               and alt_q_power_sum(2, 2, half) == -1)
    elapsed = time.perf_counter() - start
    ok = suite.passed and suite.cases_run == 1000 and anchors and elapsed < 5
    report(1, "alternating q-power sums exact", ok, elapsed,
           f"cases={suite.cases_run} deviation={suite.max_deviation}")
    assert suite.passed and suite.cases_run == 1000
    assert anchors
    assert elapsed < 5


def test_criterion_02_weighted_sums():
    start = time.perf_counter()
    suite = verify_weighted(max_m=10, max_n=20)
    half = QBase(Fraction(1, 2))
    anchors = (weighted_alt_q_power_sum_closed(1, 2, half) == Fraction(-1, 2)
               and weighted_alt_q_power_sum(1, 2, half) == Fraction(-1, 2)
               and weighted_alt_q_power_sum_closed(1, 3, half)
               == Fraction(-1, 8)
               and weighted_alt_q_power_sum(1, 3, half) == Fraction(-1, 8))
    elapsed = time.perf_counter() - start
    ok = suite.passed and anchors and elapsed < 5
    report(2, "weighted alternating sums exact", ok, elapsed,
           f"cases={suite.cases_run} deviation={suite.max_deviation}")
    assert suite.passed and anchors
    assert elapsed < 5


def test_criterion_03_polynomial_forms():
    start = time.perf_counter()
    suite = verify_thm2(max_n=10)
    elapsed = time.perf_counter() - start
    ok = suite.passed and elapsed < 2
    report(3, "polynomial closed forms agree", ok, elapsed,
           f"cases={suite.cases_run} deviation={suite.max_deviation}")
    assert suite.passed
    assert elapsed < 2


def test_criterion_04_distribution_relation():
    start = time.perf_counter()
    suite = verify_thm4(max_m=8, fs=(1, 3, 5))
    half = QBase(Fraction(1, 2))
    from qeuler.qnumbers import distribution_sum
    anchor_lhs = distribution_sum(1, 3, 0, half)
    anchor_rhs = q_euler_poly(1, QPower.from_integer(half, 0))
    anchors = anchor_lhs == anchor_rhs == Fraction(-2, 3)
    elapsed = time.perf_counter() - start
    ok = suite.passed and anchors and elapsed < 5
    report(4, "distribution relation exact", ok, elapsed,
           f"cases={suite.cases_run} deviation={suite.max_deviation}")
    assert suite.passed and anchors
    assert elapsed < 5


def test_criterion_05_classical_identities():
    start = time.perf_counter()
    suite = verify_classical(max_m=12, max_n=50)
    anchors = (euler_number(1) == Fraction(-1, 2)
               and euler_number(3) == Fraction(1, 4)
               and euler_number(7) == Fraction(17, 8))
    elapsed = time.perf_counter() - start
    ok = suite.passed and anchors and elapsed < 2
    report(5, "classical power-sum identities", ok, elapsed,
           f"cases={suite.cases_run} deviation={suite.max_deviation}")
    assert suite.passed and anchors
    assert elapsed < 2


def test_criterion_06_q_to_one_limit():
    start = time.perf_counter()
    epsilons = [Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000)]
    ok = True
    for n in range(9):
        deviations = [abs(q_euler_number(n, QBase(1 - eps)) - euler_number(n))
                      for eps in epsilons]
        monotone = deviations[0] >= deviations[1] >= deviations[2]
        ratios = [dev / eps for dev, eps in zip(deviations, epsilons)]
        bounded = all(r <= 2 * ratios[0] for r in ratios)
        ok = ok and monotone and bounded
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 2
    report(6, "q->1 limit of the numbers", ok, elapsed)
    assert ok


def test_criterion_07_zeta_interpolation():
    start = time.perf_counter()
    worst = Fraction(0)
    with mp.workdps(P + GUARD_DIGITS):
        for q in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            base = QBase(q, zeta_domain=True)
            for n in range(9):
                for x in range(1, 6):
                    exact = q_euler_poly(n, QPower.from_integer(base, x)) / 2
                    got = zeta(ZetaQuery(RealP.from_rational(-n, P),
                                         RealP.from_rational(x, P), base, P))
                    deviation = abs(got.value - to_mpf(exact))
                    worst = max(worst, Fraction(str(deviation)))
        anchor_a = zeta(ZetaQuery(RealP.from_rational(-1, P),
                                  RealP.from_rational(1, P),
                                  QBase(Fraction(1, 2), zeta_domain=True), P))
        anchor_b = zeta(ZetaQuery(RealP.from_rational(-2, P),
                                  RealP.from_rational(2, P),
                                  QBase(Fraction(1, 2), zeta_domain=True), P))
        anchors = (abs(anchor_a.value - to_mpf(Fraction(1, 3)))
                   <= to_mpf(BOUND_40)
                   and abs(anchor_b.value - to_mpf(Fraction(13, 15)))
                   <= to_mpf(BOUND_40))
    elapsed = time.perf_counter() - start
    ok = worst <= BOUND_40 and anchors and elapsed < 10
    report(7, "zeta interpolates E_{n,q}(x)/2", ok, elapsed,
           f"worst={float(worst):.2e}")
    assert worst <= BOUND_40 and anchors
    assert elapsed < 10


def test_criterion_08_dual_route_zeta():
    start = time.perf_counter()
    suite = verify_zeta(precision=P)
    elapsed = time.perf_counter() - start
    worst = Fraction(suite.max_deviation) if "e" in suite.max_deviation \
        else Fraction(0)
    ok = (suite.passed and suite.cases_run == 96 and worst <= BOUND_40
          and elapsed < 30)
    report(8, "dual-route zeta agreement", ok, elapsed,
           f"cases={suite.cases_run} worst={suite.max_deviation}")
    assert suite.passed and suite.cases_run == 96
    assert worst <= BOUND_40
    assert elapsed < 30


def test_criterion_09_partial_zeta_and_l_function():
    start = time.perf_counter()
    ok = True
    with mp.workdps(P + GUARD_DIGITS):
        bound = to_mpf(BOUND_40)
        # partial zeta vs exact special values, anchors included
        anchors = (partial_zeta_special_value(1, 1, 3, Fraction(1, 2))
                   == Fraction(-1, 9)
                   and partial_zeta_special_value(1, 2, 3, Fraction(1, 2))
                   == Fraction(5, 9))
        for q in (Fraction(1, 3), Fraction(1, 2)):
            base = QBase(q, zeta_domain=True)
            for F in (3, 5):
                for a in range(1, F):
                    for n in range(1, 7):
                        numeric = partial_zeta(RealP.from_rational(-n, P),
                                               a, F, base, P)
                        exact = partial_zeta_special_value(n, a, F, q)
                        ok = ok and abs(numeric.value - to_mpf(exact)) <= bound
        # l-function vs generalized numbers, all characters mod 3 and 5
        chi3 = characters_mod(3)[1]
        l_anchor = l_function(RealP.from_rational(-1, P), chi3,
                              QBase(Fraction(1, 2), zeta_domain=True), P)
        anchors = (anchors
                   and abs(l_anchor.value - to_mpf(Fraction(-2, 3))) <= bound
                   and generalized_q_euler(1, chi3, Fraction(1, 2))
                   == Fraction(-4, 3))
        for d in (3, 5):
            for chi in characters_mod(d):
                for q in (Fraction(1, 3), Fraction(1, 2)):
                    base = QBase(q, zeta_domain=True)
                    for n in range(7):
                        numeric = l_function(RealP.from_rational(-n, P),
                                             chi, base, P)
                        exact = generalized_q_euler(n, chi, q, P)
                        half = (to_mpf(exact)
                                if isinstance(exact, Fraction) else exact) / 2
                        ok = ok and abs(numeric.value - half) <= bound
    elapsed = time.perf_counter() - start
    ok = ok and anchors and elapsed < 30
    report(9, "partial zeta and L-function", ok, elapsed)
    assert ok


def test_criterion_10_character_groups():
    start = time.perf_counter()
    ok = True
    for d in (3, 5, 9, 15):
        group = characters_mod(d)
        ok = ok and len(group) == sum(1 for a in range(1, d + 1)
                                      if gcd(a, d) == 1)
        for chi in group:
            m = chi.order
            for a in range(d):
                for b in range(d):
                    if gcd(a, d) == 1 and gcd(b, d) == 1:
                        ok = ok and chi.exponents[a * b % d] \
                            == (chi.exponents[a] + chi.exponents[b]) % m
            counts = Counter(e for e in chi.exponents if e is not None)
            if chi.order == 1:
                ok = ok and set(counts) == {0}
            else:
                ok = ok and set(counts) == set(range(m)) \
                    and len(set(counts.values())) == 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1
    report(10, "character group structure", ok, elapsed)
    assert ok
