"""q-zeta evaluation: the two summation routes are each other's oracle,
and negative-integer values must hit the exact polynomial interpolation."""

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from qeuler.errors import DomainError, NonConvergence
from qeuler.exactnum import GUARD_DIGITS, QBase, rat_pow
from qeuler.realnum import (RealP, _logs, cancellation_digits, to_mpf,
                            tolerance)
from qeuler import cvz, qzeta, realnum
from qeuler.characters import character, characters_mod
from qeuler.cvz import euler_transform, zeta_euler_transform
from qeuler.qnumbers import (QPower, partial_zeta_special_value,
                             q_euler_poly, q_int)
from qeuler.qzeta import (MAX_ZETA_TERMS, ZetaQuery, l_function, partial_zeta,
                          zeta)
from qeuler.cli import main
from qeuler.verify import ZETA_Q, ZETA_S, ZETA_X

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
        term = math.comb(n, k) * q ** (x * k) / (1 + q ** k)
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
    assert_close(zeta(query(-2, 3, Fraction(1, 2))), Fraction(83, 60))
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


def test_dual_route_subgrid():
    cells = [(s, x, q) for s in ("-2", "-1/2", "0", "1/2", "2")
             for x in ("1/2", "2") for q in (Fraction(1, 5), Fraction(4, 5))]
    # the residue-class bases of partial zeta at q = 1/2: q^3 with
    # x = a/3 and q^5 with x = a/5
    cells += [(s, x, q) for s in ("-2", "-1", "1/2", "2")
              for x, q in (("1/3", Fraction(1, 8)), ("2/3", Fraction(1, 8)),
                           ("1/5", Fraction(1, 32)), ("4/5", Fraction(1, 32)))]
    for s, x, q in cells:
        zq = query(s, x, q)
        a = zeta(zq)
        b = zeta_euler_transform(zq)
        with mp.workdps(P + GUARD_DIGITS):
            assert abs(a.value - b.value) <= tolerance(P)


def fixed_terms(terms):
    """mpf terms as ints at the binary point `euler_transform` reads."""
    wp = mp.prec + realnum.WORD_GUARD_BITS
    return lambda j: realnum._to_fixed(terms(j), wp)


def test_euler_transform_known_values():
    with mp.workdps(40):
        # sum (-1)^n x^n = 1/(1+x) at x = 1/3
        value = euler_transform(fixed_terms(lambda j: mpf(3) ** (-j)), 20)
        assert abs(value - mpf(3) / 4) < mpf(10) ** -20
        # Grandi's series sums to 1/2
        value = euler_transform(fixed_terms(lambda j: mpf(1)), 20)
        assert abs(value - mpf("0.5")) < mpf(10) ** -20


def test_euler_transform_nonconvergence():
    calls = []

    @fixed_terms
    def term(j):
        calls.append(j)
        return mpf(1)

    with mp.workdps(40):
        with pytest.raises(NonConvergence):
            # the a-priori count for a variation of 10^600 is 830 terms,
            # more than the 700 allowed at P = 20 (the count at 10^500)
            euler_transform(term, 20, variation=mpf(10) ** 600)
    assert calls == []  # refused before summing


def record_transform(monkeypatch):
    """Patch cvz.euler_transform to record, per call, the variation
    bound it was handed and how many terms it asked for."""
    calls = []
    real = cvz.euler_transform

    def spy(terms, precision, variation=1):
        record = {"variation": variation, "terms": 0}
        calls.append(record)

        def counted(j):
            record["terms"] += 1
            return terms(j)

        return real(counted, precision, variation)

    monkeypatch.setattr(cvz, "euler_transform", spy)
    return calls


def test_variation_bound_covers_measure(monkeypatch):
    # [n+x]_q^(-s) = sum_j c_j (q^j)^n with c_j = (1-q)^s C(s+j-1,j) q^(xj)
    calls = record_transform(monkeypatch)
    for s in (Fraction(-7, 2), Fraction(-2), Fraction(-1, 2), Fraction(1, 2),
              Fraction(3)):
        for x in (Fraction(1, 2), Fraction(2)):
            for q in (Fraction(1, 5), Fraction(4, 5)):
                zeta_euler_transform(query(s, x, q))
                bound = calls[-1]["variation"]
                with mp.workdps(P + GUARD_DIGITS):
                    sv, qv = to_mpf(s), to_mpf(q)
                    step = mp.power(qv, to_mpf(x))
                    coeff, weight, total = mpf(1), mpf(1), mpf(0)
                    j = 0
                    while True:
                        term = abs(coeff) * weight
                        total += term
                        if j > 10 and term < mpf(10) ** -30 * total:
                            break
                        coeff *= (sv + j) / (j + 1)
                        weight *= step
                        j += 1
                    total *= mp.power(1 - qv, sv)
                    assert total <= bound
                    if s > 0:  # every c_j is positive: the bound is exact
                        assert total >= bound * (1 - mpf(10) ** -25)


def expected_terms(precision, variation):
    """n(P, V): the least n with 2 V / (3 + sqrt 8)^n <= 10^-(P+15)."""
    return math.ceil(((precision + 15) * math.log(10)
                      + math.log(2 * float(variation)))
                     / math.log(3 + math.sqrt(8)))


def test_cvz_term_count_fixed_and_linear(monkeypatch):
    calls = record_transform(monkeypatch)
    counts = []
    for precision in (50, 100, 200, 400):
        zeta_euler_transform(query("-1/2", "1/2", Fraction(4, 5), precision))
        record = calls[-1]
        assert record["terms"] == expected_terms(precision,
                                                 record["variation"])
        counts.append(record["terms"])
    per_digit = math.log(10) / math.log(3 + math.sqrt(8))  # about 1.31
    for (p0, n0), (p1, n1) in zip(zip((50, 100, 200), counts),
                                  zip((100, 200, 400), counts[1:])):
        assert abs((n1 - n0) - (p1 - p0) * per_digit) <= 1


def test_cvz_agrees_with_continuation_near_one():
    q = Fraction(99, 100)
    for s in ("-3/2", "1/2", "2"):
        zq = query(s, 1, q)
        with mp.workdps(P + GUARD_DIGITS):
            assert abs(zeta(zq).value - zeta_euler_transform(zq).value) \
                <= tolerance(P)


def test_zeta_term_cap(monkeypatch):
    # q^(xk) would need about 1.5 * 10^11 terms, and still about 1.5 * 10^7
    # past the largest shift: refused before summing
    with pytest.raises(NonConvergence):
        zeta(query("1/2", 1, Fraction(999999999, 10 ** 9)))
    # at q = 999/1000 the best shift still leaves more than 300 terms
    passes = record_passes(monkeypatch)
    monkeypatch.setattr(qzeta, "MAX_ZETA_TERMS", 300)
    with pytest.raises(NonConvergence):
        zeta(query("1/2", 1, Fraction(999, 1000)))
    # the same cap stops the residue pass behind partial zeta and L
    s = RealP.from_rational("1/2", P)
    q = QBase(Fraction(999, 1000), zeta_domain=True)
    with pytest.raises(NonConvergence):
        partial_zeta(s, 1, 3, q, P)
    with pytest.raises(NonConvergence):
        l_function(s, characters_mod(5)[1], q, P)
    assert passes == []


def test_loop_cap_stops_a_series_that_never_settles(monkeypatch):
    # with the precheck (in `_shift`) out of the way, a pass that needs
    # more terms than the cap must still stop at the cap
    zq = query("1/2", 1, Fraction(1, 2), 15)
    passes = record_passes(monkeypatch)
    monkeypatch.setattr(qzeta, "_shift", lambda *args: 0)
    zeta(zq)
    assert passes[0] > 50
    monkeypatch.setattr(qzeta, "MAX_ZETA_TERMS", 50)
    with pytest.raises(NonConvergence, match="did not settle"):
        zeta(zq)
    assert passes[1:] == [None]  # the pass started and did not return


def record_passes(monkeypatch):
    """Patch qzeta._continuation_sums to record each pass: None when it
    starts, replaced by the number of terms it summed once it returns."""
    passes = []
    real = qzeta._continuation_sums

    def spy(*args):
        passes.append(None)
        sums, count = real(*args)
        passes[-1] = count
        return sums, count

    monkeypatch.setattr(qzeta, "_continuation_sums", spy)
    return passes


def test_precheck_counts_the_slow_fall_past_the_peak(monkeypatch):
    # past the peak the terms fall like k^(s-1) q^(xk); counting q^(xk)
    # alone read 0.6-0.74 of the terms the loop takes, so an input just
    # under the cap ran the whole cap before NonConvergence.  Past
    # |s| = 10^15 a difference of lgammas reads |C(s+k-1,k)| as 1/k!, not
    # about |s|^k / k!, and the count as too few terms
    passes = record_passes(monkeypatch)
    for s, x, q, precision in ((20, 1, "1/2", 15), (200, 1, "1/2", 15),
                               (1000, 1, "1/2", 15), (1600, 1, "1/2", 15),
                               (40, "1/2", "9/10", 50),
                               (10 ** 60, 1, "1e-60", 30),
                               (Fraction(-3 * 10 ** 20 + 1, 3), 1, "1e-40",
                                30)):
        zq = query(s, x, Fraction(q), precision)
        monkeypatch.setattr(qzeta, "MAX_ZETA_TERMS", 200_000)
        passes.clear()
        zeta(zq)
        [taken] = passes
        passes.clear()
        monkeypatch.setattr(qzeta, "MAX_ZETA_TERMS", taken - 1)
        with pytest.raises(NonConvergence, match="needs about"):
            zeta(zq)
        assert passes == []  # refused before summing
        monkeypatch.setattr(qzeta, "MAX_ZETA_TERMS", taken * 21 // 20)
        zeta(zq)
    monkeypatch.setattr(qzeta, "MAX_ZETA_TERMS", 200_000)
    # past the best shift these still need more terms than the cap
    for s, x, q in ((20, 1, "9999999/10000000"),
                    (50, Fraction(1, 2), "9999999/10000000")):
        passes.clear()
        with pytest.raises(NonConvergence, match="needs about"):
            zeta(query(s, x, Fraction(q), 500))
        assert passes == []


def test_shift_serves_what_the_unshifted_count_refused():
    # unshifted, these needed more terms than the cap; at x + J they take
    # a few hundred and meet the contract against CVZ at P + 100
    for s, x, q in ((215, Fraction(1, 99), "1/2"),
                    (200, Fraction(1, 12), "919/1000")):
        value = zeta(query(s, x, Fraction(q), 500)).value
        want = zeta_euler_transform(query(s, x, Fraction(q), 600)).value
        with mp.workdps(1200):  # |value| is up to 10^399
            assert abs(value - want) <= tolerance(500)


def test_precheck_takes_s_near_an_integer_from_its_exact_value(monkeypatch):
    # s = -3 +- 1e-20 reads as -3.0 in floats, but its terms do not stop
    # after k = 3: they fall from about 1e-20 by q^x per term.  Counted as
    # n + 1 = 4 terms, these inputs ran the whole cap and then failed
    passes = record_passes(monkeypatch)
    near = ("-2.99999999999999999999", "-3.00000000000000000001")
    for s in near:
        for q in ("99999999/100000000", "999999999/1000000000"):
            with pytest.raises(NonConvergence, match="needs about"):
                zeta(query(s, 1, Fraction(q)))
        with pytest.raises(NonConvergence, match="needs about"):
            partial_zeta(RealP.from_rational(s, P), 1, 3,
                         QBase(Fraction(99999999, 10 ** 8), zeta_domain=True),
                         P)
    assert passes == []
    # at q = 99999/100000 the shift serves them within the contract, and
    # s within 1e-400 of 0 stops after two terms
    for s in near + ("-1e-400", "1e-400"):
        zq = query(s, 1, Fraction(99999, 100000))
        want = zeta_euler_transform(query(s, 1, Fraction(99999, 100000),
                                          P + 100))
        with mp.workdps(P + GUARD_DIGITS):
            assert abs(zeta(zq).value - want.value) <= tolerance(P)
    # past the integer n nearest -s the count reads ln |C(s+k-1,k)| through
    # -s = n + d, |d| <= 1/2: a difference of lgammas meets a pole of lgamma
    # (ValueError) where the float of s is within rounding of -3 but not
    # -3, and so does d = -1 where n is read from the float -10^17 of
    # s = 1 - 10^17
    for s, q in (("-3000000000000001/1000000000000000", Fraction(29, 50)),
                 ("-99999999999999999", Fraction(1, 10 ** 37))):
        want = zeta_euler_transform(query(s, 1, q, P + 20))
        with mp.workdps(P + GUARD_DIGITS):
            assert abs(zeta(query(s, 1, q)).value - want.value) \
                <= tolerance(P)


def test_extreme_q_and_x_are_served_or_refused_cleanly():
    # ln q at 15 digits read log1p(-1) for q below 1e-16, and x below the
    # float range gave 1 - q^x = 0: both ended in a ValueError
    for q in (Fraction(1, 10 ** 20), Fraction(1, 10 ** 5000)):
        zq = query("1/2", 1, q)
        with mp.workdps(P + GUARD_DIGITS):
            assert abs(zeta(zq).value - zeta_euler_transform(zq).value) \
                <= tolerance(P)
    # [x]_q^(-1/2) = ((1-q^x)/(1-q))^(-1/2) is about 8.5e199 at x = 1e-400
    assert cancellation_digits(mpf("0.5"),
                               _logs(Fraction(1, 2), mpf("1e-400"))) == 200
    value = zeta(query("1/2", "1e-400", Fraction(1, 2))).value
    with mp.workdps(260):
        x = mpf("1e-400")
        bracket = -mp.expm1(x * mp.log(mpf(1) / 2)) * 2
        rest = value - bracket ** mpf(-0.5)  # -zeta(1/2, 1 + x)
        assert abs(rest + zeta(query("1/2", 1, Fraction(1, 2))).value) \
            < mpf(10) ** -40
    # small x: CVZ took 1 - q^x from q^x, which cancelled (off by 3e-32 at
    # x = 1e-40, a ZeroDivisionError at 1e-400); at q = 1e-5000, below the
    # working digits, zeta took ln q as log1p(-1) = -inf and q^x as 0; at
    # x = 1e-310, where x ln q is subnormal, the count's least k was -inf
    # (an OverflowError)
    for q in (Fraction(1, 2), Fraction(1, 10 ** 5000)):
        for x in ("1e-40", "1e-60", "1e-310", "1e-400"):
            zq = query("1/2", x, q)
            with mp.workdps(P + GUARD_DIGITS + 200):
                assert abs(zeta(zq).value - zeta_euler_transform(zq).value) \
                    <= tolerance(P)
    # ln q itself below the float range: refused before summing
    with pytest.raises(DomainError, match="too close to 1"):
        zeta(query("1/2", 1, 1 - Fraction(1, 10 ** 400)))
    # q past the int-to-str digit limit still prints in the refusal
    with pytest.raises(DomainError, match="q = about 1.0 lies too close"):
        zeta(query("1/2", 1, 1 - Fraction(1, 10 ** 5000)))
    # s = -10^400, past the float range, at q = 10^-5000: |s| q^x is
    # 10^-4600, so the stop rule holds from k = 0; counted from k = -s it
    # was refused as 10^400 terms
    zq = query(-10 ** 400, 1, Fraction(1, 10 ** 5000), 30)
    with mp.workdps(30 + GUARD_DIGITS):
        assert abs(zeta(zq).value - zeta_euler_transform(zq).value) \
            <= tolerance(30)


def zeta_mpf_loop(zq):
    """Oracle: the continuation series summed term by term in mpf, as
    `zeta` did before its fixed-point loop, in the caller's context."""
    precision = zq.precision
    qv = to_mpf(zq.q.q)
    sv = zq.s.value
    qx = mp.power(qv, zq.x.value)
    prefactor = mp.power(1 - qv, sv)
    threshold = mpf(10) ** (-(precision + 15))
    total = mpf(0)
    coeff = mpf(1)   # C(s+k-1, k), updated by *(s+k)/(k+1)
    qxk = mpf(1)     # q^(xk)
    qk = mpf(1)      # q^k
    small_streak = 0
    for k in range(MAX_ZETA_TERMS):
        term = coeff * qxk / (1 + qk)
        total += term
        if k >= 8 and abs(term) < threshold * (1 + abs(total)):
            small_streak += 1
            if small_streak >= 3:
                return prefactor * total
        else:
            small_streak = 0
        coeff = coeff * (sv + k) / (k + 1)
        qxk *= qx
        qk *= qv
    raise AssertionError("the oracle did not settle")


def euler_transform_mpf_loop(terms, precision, variation=1):
    """Oracle: CVZ Algorithm 1 with its weights in mpf, as
    `euler_transform` did before its integer weights."""
    rate = 3 + mp.sqrt(8)
    count = max(0, int(mp.ceil(((precision + 15) * mp.log(10)
                                + mp.log(2 * variation)) / mp.log(rate))))
    d = rate ** count
    d = (d + 1 / d) / 2
    b = mpf(-1)
    c = -d
    total = mpf(0)
    for k in range(count):
        c = b - c
        total += c * terms(k)
        b = b * (k + count) * (k - count) / ((k + mpf(0.5)) * (k + 1))
    return total / d


def raw_series_mpf_terms(zq):
    """Oracle terms: [x+n]_q^(-s) as mp.power of the bracket
    (1 - q^x q^n)/(1-q), built in mpf from the exact s and x, in the
    caller's context."""
    sv = zq.s.exact_value()
    qv = to_mpf(zq.q.q)
    qx = mp.power(qv, zq.x.exact_value())
    return lambda n: mp.power((1 - qx * qv ** n) / (1 - qv), -sv)


@pytest.mark.parametrize("precision", (20, 50, 100))
def test_fixed_point_loops_match_mpf_loops(precision, monkeypatch):
    # each oracle runs in the same working digits as the code; the CVZ
    # oracle builds its own terms, and the extra cells reach every branch
    # of the integer term power (integer, half-integer and other s) and a
    # bracket [1/99]_q far below 1
    variations = []
    real = cvz.euler_transform

    def spy(terms, precision, variation=1):
        variations.append(variation)
        return real(terms, precision, variation)

    monkeypatch.setattr(cvz, "euler_transform", spy)
    continuation = [(s, x) for s in ZETA_S + ("7/3", "-13/4", "16", "-16")
                    for x in ZETA_X]
    raw_only = [(s, x) for s in ("-201/2", "40") for x in ZETA_X] \
        + [(s, "1/99") for s in ZETA_S + ("7/3", "-13/4", "16", "-16",
                                          "-201/2", "40")]
    for s, x in continuation + raw_only:
        for q in ZETA_Q:
            zq = query(s, x, q, precision)
            got = zeta_euler_transform(zq).value
            digits = precision + GUARD_DIGITS + cancellation_digits(
                zq.s.value, _logs(q, zq.x.value))
            with mp.workdps(digits):
                want = euler_transform_mpf_loop(raw_series_mpf_terms(zq),
                                                precision, variations[-1])
                assert abs(got - want) <= tolerance(precision)
                if (s, x) in continuation:
                    want = zeta_mpf_loop(zq)
                    got = zeta(zq).value
                    assert abs(got - want) <= tolerance(precision)


def test_zeta_sums_n_plus_one_terms_at_negative_integers(monkeypatch):
    passes = record_passes(monkeypatch)
    for n in (0, 1, 5, 16, 40):
        for x, q in (("1", Fraction(1, 2)), ("7/2", Fraction(4, 5)),
                     ("1/3", Fraction(1, 8))):
            passes.clear()
            zeta(query(-n, x, q))
            # the pass stops at once on the exact truncation, at its first
            # numerator that is 0: so u_0, ..., u_n are not
            assert passes == [n + 1]


def test_shift_takes_zero_at_negative_integers():
    # at an exact s = -n the term model reads |C(s+n, n+1)| = 0, so it
    # prices the same n + 2 terms at every J and the cost search settles
    # on J = 0, where s = -5/2 takes head terms
    def shift(s, q, step=1, residues=1, x=1):
        zq = query(s, x, q)
        logs = realnum._logs(zq.q.q, zq.x.value)
        with mp.workdps(realnum._working_digits(zq, logs)):
            return qzeta._shift(zq, zq.s.exact_value(), logs, step, residues)

    floor = -(P + 15) * math.log(10)
    count = qzeta._series_count(mpf(-3), floor, 1.0, 1, math.log(0.5))
    assert [count(j) for j in (0, 1, 10)] == [5, 5, 5]
    assert count(0, qzeta.MAX_ZETA_TERMS) == 5
    for q in (Fraction(1, 2), Fraction(99, 100), Fraction(999, 1000)):
        assert shift(-3, q) == shift(-3, q, 5, 4) == 0
        assert shift(Fraction(-5, 2), q) > 0
        assert shift(Fraction(-5, 2), q, 5, 4) > 0
    # x below the float range reads as 0, so q^x reads as 1; the count
    # stops at the exact truncation all the same
    assert shift(-1, Fraction(1, 2), x="1e-400") == 0
    # past the float range |s| q^x = 10^-11 and ln (1-q)^s are mpf
    # products: read in floats as inf q^x and inf ln(1-q), the count at
    # J = 0 is inf
    assert shift(-10 ** 309, Fraction(1, 10 ** 320)) == 0
    zq = query(-3, 1, Fraction(1, 2))
    exact = q_euler_poly(3, QPower.from_integer(QBase(Fraction(1, 2)), 1))
    assert_close(zeta(zq), exact / 2)
    assert_close(partial_zeta(RealP.from_rational(-3, P), 1, 3, HALF, P),
                 partial_zeta_special_value(3, 1, 3, Fraction(1, 2)))


def test_values_do_not_depend_on_the_shift(monkeypatch):
    # S(x) = sum_(m<J) (-1)^m (1-q^(x+m step))^(-s) + (-1)^J S(x + J step)
    # holds at every J, so more head terms than `_shift` picks must give
    # the same values within the contract.  At s = -10^20, q = 10^-40 the
    # stop rule holds from k = 0, where |s| q^x < 1: counted from k = -s,
    # zeta and partial zeta there were refused as 10^20 terms, while CVZ
    # gives them to the contract
    precision = 30
    chi = characters_mod(5)[1]
    deep = (-10 ** 20, Fraction(-3 * 10 ** 20 + 1, 3))
    tiny = Fraction(1, 10 ** 40)

    def values(q):
        base = QBase(q, zeta_domain=True)
        for s in ("-7/3", "-3", "1/2", "5/3", "20"):
            sp = RealP.from_rational(s, precision)
            for x in ("1/3", "1", "7/2"):
                yield zeta(query(s, x, q, precision)).value
            yield partial_zeta(sp, 2, 5, base, precision).value
            yield l_function(sp, chi, base, precision).value

    def deep_values():
        for s in deep:
            yield zeta(query(s, 1, tiny, precision)).value
            yield partial_zeta(RealP.from_rational(s, precision), 1, 3,
                               QBase(tiny, zeta_domain=True), precision).value

    qs = (Fraction(1, 2), Fraction(99, 100), Fraction(999, 1000))
    want = [value for q in qs for value in values(q)] + list(deep_values())
    with mp.workdps(precision + GUARD_DIGITS + 40):  # [3]_q = 1 + 10^-40
        oracles = [f(s) for s in deep for f in (
            lambda s: zeta_euler_transform(query(s, 1, tiny, precision)).value,
            lambda s: partial_zeta_by_cvz(s, 1, 3, tiny, precision))]
        for value, oracle in zip(want[-len(oracles):], oracles):
            assert abs(value - oracle) <= tolerance(precision)
    real = qzeta._shift
    for extra in (1, 7):
        monkeypatch.setattr(qzeta, "_shift",
                            lambda *args, extra=extra: real(*args) + extra)
        got = [value for q in qs for value in values(q)] \
            + list(deep_values())
        with mp.workdps(precision + GUARD_DIGITS + 20):  # |values| < 10^10
            for a, b in zip(got, want):
                assert abs(a - b) <= tolerance(precision)


def test_cvz_weights_are_exact_integers():
    # b_k = c_k + c_{k-1} (c_{-1} = -d); each step of
    # b_{k+1} (2k+1)(k+1) = 2 b_k (k+n)(k-n) holds exactly, so no floor
    # division in the recurrence left a remainder
    cap = 4 * 500 + 200  # above the CVZ term cap at the largest --prec
    for n in sorted(set(range(64)) | set(range(64, cap + 1, 53)) | {cap}):
        d, weights = cvz._cvz_weights(n)
        with mp.workdps(40 + n):
            assert d == mp.nint(((3 + mp.sqrt(8)) ** n
                                 + (3 - mp.sqrt(8)) ** n) / 2)
        previous = -d
        b = []
        for c in weights:
            b.append(c + previous)
            previous = c
        assert len(b) == n
        assert b[:1] in ([], [-1])
        for k in range(n - 1):
            assert b[k + 1] * (2 * k + 1) * (k + 1) \
                == 2 * b[k] * (k + n) * (k - n)


@pytest.mark.parametrize("n", (40, 60, 100, 200, 300))
@pytest.mark.parametrize("route", (zeta, zeta_euler_transform),
                         ids=("continuation", "cvz"))
def test_deep_negative_s_meets_contract(route, n):
    # terms reach V = 5^n (1/5)^(-n) at q = 4/5, x = 1: about 10^(1.4 n)
    q = Fraction(4, 5)
    exact = q_euler_poly(n, QPower.from_integer(QBase(q), 1)) / 2
    value = route(query(-n, 1, q)).value
    with mp.workdps(P + GUARD_DIGITS + 220):  # |value| is up to 10^201
        assert abs(value - to_mpf(exact)) <= tolerance(P)


def partial_zeta_by_cvz(s, a, period, q, precision):
    """Oracle: H_q(s, a; F) = (-1)^a [F]_q^(-s) zeta_{q^F}(s, a/F), the
    inner zeta summed by CVZ over its raw series, at the caller's
    precision."""
    inner = zeta_euler_transform(query(s, Fraction(a, period), q ** period,
                                       precision)).value
    value = mp.power(to_mpf(q_int(period, QBase(q))), -to_mpf(s)) * inner
    return -value if a % 2 else value


@pytest.mark.parametrize("s", ("-81/2", "-121/2", "-201/2"))
def test_deep_negative_non_integer_s_meets_contract(s):
    # a relative stop rule, three terms below 10^-(P+15) (1 + |sum|), left
    # 1.2e-37, 5.3e-24 and 7.1e3 here: the sum is far above 1 while the
    # terms are still large against the absolute 10^-(P-10)
    q = Fraction(4, 5)
    base = QBase(q, zeta_domain=True)
    sp = RealP.from_rational(s, P)
    wide = P + 100
    with mp.workdps(wide + GUARD_DIGITS + 200):  # |values| up to 10^79
        for x in ("1", "1/2"):
            want = zeta_euler_transform(query(s, x, q, wide)).value
            assert abs(zeta(query(s, x, q, P)).value - want) <= tolerance(P)
        parts = {a: partial_zeta_by_cvz(Fraction(s), a, 3, q, wide)
                 for a in (1, 2)}
        assert abs(partial_zeta(sp, 1, 3, base, P).value - parts[1]) \
            <= tolerance(P)
        chi = characters_mod(3)[1]  # the real character: chi(2) = -1
        value = l_function(sp, chi, base, P)
        assert abs(value.value - (parts[1] - parts[2])) <= tolerance(P)


@pytest.mark.parametrize("precision, s, q", (
    (30, "1e60", "1e-60"), (50, "1e60", "1e-60"), (50, "1e80", "1e-80"),
    (30, "1e101", "1e-100"), (30, "1e309", "1e-320"),
    (30, "1e309", "1e-330")))
def test_huge_s_with_tiny_q_meets_contract(precision, s, q):
    # at P + 20 digits 1 - q read 1 and q^x read 0, and s multiplied both
    # losses: zeta printed 1/2 for 1 - e^-1/2 at P = 30, was off by 2.6e-12
    # at P = 50, and at s = 1e101 ran to the loop cap for 1 - e^-10/2.  At
    # s = 1e309, past the float range, the growth check read
    # inf * ln(1-q) at q = 1e-320 as infinitely many digits and refused
    q = Fraction(q)
    want = zeta_euler_transform(query(s, 1, q, precision)).value
    with mp.workdps(precision + GUARD_DIGITS):
        assert abs(zeta(query(s, 1, q, precision)).value - want) \
            <= tolerance(precision)


def test_huge_s_partial_zeta_and_l_meet_contract():
    # partial zeta read -1/2 for -(1 - e^-1/2) here, as zeta read 1/2; the
    # oracle's [3]_q^(-s) = e^-1 needs the 60 digits of q on top
    s, q, precision = Fraction(10 ** 60), Fraction(1, 10 ** 60), 30
    base, sp = QBase(q, zeta_domain=True), RealP.from_rational(s, precision)
    with mp.workdps(precision + GUARD_DIGITS + 60):
        parts = {a: partial_zeta_by_cvz(s, a, 3, q, precision)
                 for a in (1, 2)}
        assert abs(partial_zeta(sp, 1, 3, base, precision).value - parts[1]) \
            <= tolerance(precision)
        chi = characters_mod(3)[1]  # the real character: chi(2) = -1
        value = l_function(sp, chi, base, precision)
        assert abs(value.value - (parts[1] - parts[2])) \
            <= tolerance(precision)


@pytest.mark.parametrize("q, s", (("1e-200", "-1e202"),
                                  ("1e-400", "-1e402"),
                                  ("1e-320", "-1e309")))
def test_cvz_sizes_v_for_q_below_the_working_digits(q, s):
    # V = (1-q)^(2s) is about 10^86.9 in the first two: 1 - q rounded to 1
    # and V read 1, and below the float range ln(1-q) read -0.0, so CVZ
    # took too few terms and digits and was off by 3.1e-3.  In the third
    # V is about 1, but s read -inf and was refused as infinitely many
    # digits.  The Abel sum of the raw series is
    # 1 - [2]_q^|s| + [3]_q^|s| / 2 up to terms of size |s| q^3
    q, precision = Fraction(q), 30
    value = zeta_euler_transform(query(s, 1, q, precision)).value
    with mp.workdps(1600):
        n, t = -int(Fraction(s)), to_mpf(q)
        want = 1 - (1 + t) ** n + (1 + t + t * t) ** n / 2
        assert abs(value - want) <= tolerance(precision)


@pytest.mark.parametrize("s", ("1/2", "3"))
def test_cvz_sizes_v_for_q_within_the_working_digits_of_1(s):
    # V's factor (1-q)^(s-|s|) is 1 here; log1p(-q) of q rounded to 1
    # would read -inf, and 0 times it nan.  Within 10**-80 of q = 1 the
    # value is the alternating zeta function's to the contract
    q = 1 - Fraction(1, 10 ** 80)
    value = zeta_euler_transform(query(s, 1, q, P)).value
    with mp.workdps(P + GUARD_DIGITS):
        assert abs(value - mp.altzeta(mpf(Fraction(s).numerator)
                                      / Fraction(s).denominator)) \
            <= tolerance(P)


@pytest.mark.parametrize("s, x, q", (("1e42", "2/5", "1e-100"),
                                     ("1e242", "3/5", "1e-400"),
                                     ("1e402", "1/5", "1e-2000")))
@pytest.mark.parametrize("route", (zeta, zeta_euler_transform),
                         ids=("continuation", "cvz"))
def test_v_sees_a_q_x_below_float_rounding(route, s, x, q):
    # V = ((1-q)/(1-q^x))^s is about e^100 here, but the float gap
    # ln((1-q^x)/(1-q)) read 0: ln(-expm1(x ln q)) rounds to ln 1 once
    # q^x < 1e-16, q^(x-1) q underflowed below the float range, and past
    # it both q^x and s leave it.  V read 1, and values near 2.7e43 were
    # off by up to 1.2e34.  The value is (1-q)^s ((1-q^x)^(-s) - 1/2) up
    # to terms of size s q^(x+1)
    precision = 30
    value = route(query(s, x, Fraction(q), precision)).value
    with mp.workdps(100):
        s, x, q = (to_mpf(Fraction(text)) for text in (s, x, q))
        want = mp.exp(s * mp.log1p(-q)) \
            * (mp.exp(-s * mp.log1p(-q ** x)) - mpf(1) / 2)
        assert abs(value - want) <= tolerance(precision)


def test_cvz_refuses_v_past_the_cap_below_the_float_range():
    # V is about 10^868.6 here; ln(1-q) read -0.0, V read 1, and CVZ
    # returned a value off by 2.3e388
    with pytest.raises(DomainError, match="about 869 digits"):
        zeta_euler_transform(query("-1e403", 1, Fraction(1, 10 ** 400), 30))


def test_inputs_keep_their_exact_rationals():
    # x = 1/99 rounded to P + 20 digits moved this value, about 6e92, by
    # 9.9e29 on the continuation route and by 1.6e22 on CVZ at P = 50
    wide = P + 100
    want = zeta_euler_transform(query(50, "1/99", Fraction(1, 2), wide))
    with mp.workdps(wide + GUARD_DIGITS + 100):
        for route in (zeta, zeta_euler_transform):
            value = route(query(50, "1/99", Fraction(1, 2))).value
            assert abs(value - want.value) <= tolerance(P)
    assert RealP.from_rational("1/99", P).exact == Fraction(1, 99)
    assert RealP(mpf(1), P).exact is None


def test_integer_x_takes_q_to_the_y_exactly(monkeypatch):
    # at an integer x each q^y and each head's 1 - q^y is an exact rational
    # rounded once, so zeta, partial zeta and L never take ln q there; the
    # CVZ oracles below do, so they run first
    q, s, period = Fraction(9, 10), Fraction(1, 2), 5
    base = QBase(q, zeta_domain=True)
    sp = RealP.from_rational(s, P)
    chi = characters_mod(period)[1]  # of order 4
    wide = P + 20
    with mp.workdps(wide + GUARD_DIGITS):
        want = zeta_euler_transform(query(s, 2, q, wide)).value
        parts = {a: partial_zeta_by_cvz(s, a, period, q, wide)
                 for a in range(1, period)}
        want_l = mp.fsum(mp.expjpi(mpf(2 * chi.exponents[a]) / chi.order)
                         * parts[a] for a in parts)
    heads = []
    real_head = qzeta._head_sum

    def spy(*args):
        heads.append(args[4])
        return real_head(*args)

    def refuse(_q):
        raise AssertionError("ln q taken at an integer x")

    def values():
        return (zeta(query(s, 2, q)), partial_zeta(sp, 2, period, base, P),
                l_function(sp, chi, base, P))

    monkeypatch.setattr(qzeta, "_head_sum", spy)
    with monkeypatch.context() as patch:
        patch.setattr(qzeta, "_ln", refuse)
        exact = values()
        assert len(heads) == 1 + 1 + 4 and min(heads) > 0  # every row
        # past the bound on the exact powers, here 1.7 * 10**7 bits, q^x
        # is exp(x ln q)
        with pytest.raises(AssertionError, match="ln q taken"):
            zeta(query(s, 10 ** 6, Fraction(99999, 100000)))
    monkeypatch.setattr(qzeta, "_MAX_EXACT_POWER_BITS", 0)
    for got in (exact, values()):
        with mp.workdps(wide + GUARD_DIGITS):
            for value, oracle in zip(got, (want, parts[2], want_l)):
                assert abs(value.value - oracle) <= tolerance(P)


def test_no_exact_power_passes_its_bound(monkeypatch):
    # each power of q is exact only within _MAX_EXACT_POWER_BITS: a long
    # period (q^100001 has 1.7 * 10**6 bits) or a long denominator (q^1001
    # at q = 1/10**300 has 10**6) takes q^F from exp, so no rational past
    # the bound is built and rounded, and the values are those of the
    # route that takes every power from exp
    bound, precision = qzeta._MAX_EXACT_POWER_BITS, 15
    s = RealP.from_rational(Fraction(1, 2), precision)

    def checked(convert):
        def wrapper(r, *args):
            if Fraction(r).denominator.bit_length() > bound:
                raise AssertionError("an exact power past the bound")
            return convert(r, *args)
        return wrapper

    def values():
        return (partial_zeta(s, 1, 100001,
                             QBase(Fraction(99999, 100000), zeta_domain=True),
                             precision),
                l_function(s, character(1001, 1),
                           QBase(Fraction(1, 10 ** 300), zeta_domain=True),
                           precision))

    monkeypatch.setattr(qzeta, "to_mpf", checked(qzeta.to_mpf))
    got = values()
    assert [v.digits() for v in got] == [
        "-0.997781976951059", "-2.00000000000000+2.25694915357879e-36i"]
    monkeypatch.setattr(qzeta, "_MAX_EXACT_POWER_BITS", 0)
    with mp.workdps(precision + GUARD_DIGITS):
        for value, by_exp in zip(got, values()):
            assert abs(value.value - by_exp.value) <= tolerance(precision)


def test_exact_powers_stay_within_their_bound(monkeypatch):
    # each exact power is built from the integers a^y and b^y
    # (`_exact_power`) only while y times the bits of b stays within
    # _MAX_EXACT_POWER_BITS: q^1 here, not q^100001 nor q^(1000 d) at a
    # 997-bit denominator, which come from exp
    bits = []
    real = qzeta._exact_power

    def spy(q, y, gap, wp):
        bits.append(y * q.denominator.bit_length())
        return real(q, y, gap, wp)

    monkeypatch.setattr(qzeta, "_exact_power", spy)
    s = RealP.from_rational(Fraction(1, 2), 15)
    partial_zeta(s, 1, 100001,
                 QBase(Fraction(99999, 100000), zeta_domain=True), 15)
    l_function(s, character(1001, 1),
               QBase(Fraction(1, 10 ** 300), zeta_domain=True), 15)
    assert bits and max(bits) <= qzeta._MAX_EXACT_POWER_BITS


def test_cvz_shares_no_code_with_the_continuation(monkeypatch):
    # every branch of the term power (integer, half-integer and other s)
    # and a bracket far below 1, against the continuation at P + 100
    cells = (("-3", "1", Fraction(1, 2)), ("-1/2", "1/2", Fraction(4, 5)),
             ("1/2", "7/2", Fraction(1, 5)), ("7/3", "1", Fraction(1, 2)),
             ("-13/4", "2", Fraction(4, 5)), ("40", "1/99", Fraction(1, 2)),
             ("-201/2", "1", Fraction(4, 5)),
             # |s| = 10^40 magnifies any rounding of the bracket
             (Fraction(3 * 10 ** 40 + 1, 3), "1", Fraction(1, 3 * 10 ** 40)))
    wide = P + 100
    want = [zeta(query(s, x, q, wide)).value for s, x, q in cells]

    def refuse(*_args, **_kwargs):
        raise AssertionError("CVZ must not use the continuation series")

    for name in ("_continuation_sums", "_head_sum", "_shift",
                 "_series_count"):
        monkeypatch.setattr(qzeta, name, refuse)
    with pytest.raises(AssertionError):
        zeta(query("1/2", 1, Fraction(1, 2)))
    with mp.workdps(wide + GUARD_DIGITS + 200):  # |values| below 10^200
        for (s, x, q), value in zip(cells, want):
            got = zeta_euler_transform(query(s, x, q)).value
            assert abs(got - value) <= tolerance(P)


def test_cancellation_digits():
    for s, x, q, want in ((0, 1, Fraction(1, 2), 0),
                          (3, 1, Fraction(1, 2), 0),      # V = 1
                          (-40, 1, Fraction(4, 5), 56),
                          (-60, 1, Fraction(4, 5), 84),
                          (-100, 1, Fraction(4, 5), 140)):
        assert cancellation_digits(mpf(s), _logs(q, mpf(x))) == want
    with pytest.raises(DomainError):
        cancellation_digits(mpf(-10 ** 30), _logs(Fraction(1, 2), mpf(1)))
    with pytest.raises(DomainError):
        zeta(query(-1000, 1, Fraction(1, 2)))


def test_cancellation_digits_in_the_log_domain(capsys):
    # V is exactly 1 at x = 1 for every s > 0; taken from two powers of
    # size 2^(-1e100) at 15 digits it read as about 4.8e82 digits
    for s in ("3", "1e30", "1e100"):
        for q in (Fraction(1, 2), Fraction(1, 3), Fraction(4, 5)):
            assert cancellation_digits(mpf(s), _logs(q, mpf(1))) == 0
    # just below x = 1, V = ((1-q)/(1-q^x))^s and log10 V is
    # s (1-x) q ln(1/q) / ((1-q) ln 10) = 10**10 log10 2 to 30 digits here
    with mp.workdps(60):
        x = 1 - mpf(10) ** -40
    with pytest.raises(DomainError, match="about 3010299957 digits"):
        cancellation_digits(mpf(10) ** 50, _logs(Fraction(1, 2), x))
    # the command still fails at once, now on the true reason: the shift
    # leaves few terms past the peak, but the unscaled head term
    # (1-q)^(-s) = 2^(10^100) has about 3 * 10^99 digits
    assert main(["zeta", "--s", "1e100", "--x", "1", "--q", "1/2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the continuation series at s = 1.0e+100 "
                          "grows to about 3")
    assert "cancels" not in err


def test_partial_zeta_anchors():
    s = RealP.from_rational(-1, P)
    assert_close(partial_zeta(s, 1, 3, HALF, P), Fraction(-1, 9))
    assert_close(partial_zeta(s, 2, 3, HALF, P), Fraction(5, 9))
    # a long period within the float range of the shift's cost search
    assert partial_zeta(RealP.from_rational(Fraction(1, 2), 15), 1,
                        10 ** 30 + 1, HALF, 15).digits() \
        == "-0.646446609406726"


def test_partial_zeta_far_above_one_meets_contract():
    # |H| is about 1.7e39 here; a final scale at P + GUARD_DIGITS relative
    # digits left an absolute error of about 6e-32
    q = Fraction(4, 5)
    value = partial_zeta(RealP.from_rational(-60, P), 1, 3,
                         QBase(q, zeta_domain=True), P)
    with mp.workdps(P + GUARD_DIGITS + 40):
        assert abs(value.value - to_mpf(partial_zeta_special_value(
            60, 1, 3, q))) <= tolerance(P)


def test_partial_zeta_validation():
    s = RealP.from_rational(-1, P)
    with pytest.raises(DomainError):
        partial_zeta(s, 1, 4, HALF, P)
    with pytest.raises(DomainError):
        partial_zeta(s, 3, 3, HALF, P)
    with pytest.raises(DomainError):
        partial_zeta(s, 0, 3, HALF, P)
    # past the float range of the shift's cost search, which raised a bare
    # OverflowError at this period and s = 1/2
    with pytest.raises(DomainError, match=r"F must be below 2\*\*1010"):
        partial_zeta(RealP.from_rational(Fraction(1, 2), P), 1,
                     10 ** 400 + 1, HALF, P)
    for q in (Fraction(3, 2), Fraction(-1, 2)):  # refused by its ZetaQuery
        with pytest.raises(DomainError):
            partial_zeta(s, 1, 3, QBase(q), P)
    for n, q in ((0, Fraction(1, 2)), (-1, Fraction(1, 2)),
                 (1, Fraction(1)), (1, Fraction(3, 2)), (1, Fraction(0))):
        with pytest.raises(DomainError):
            partial_zeta_special_value(n, 1, 3, q)
    with pytest.raises(DomainError, match=r"F must be below 2\*\*1010"):
        partial_zeta_special_value(1, 1, 10 ** 400 + 1, Fraction(1, 2))


def test_partial_zeta_special_value_anchors():
    assert partial_zeta_special_value(1, 1, 3, Fraction(1, 2)) \
        == Fraction(-1, 9)
    assert partial_zeta_special_value(1, 2, 3, Fraction(1, 2)) \
        == Fraction(5, 9)


def test_partial_zeta_special_value_matches_direct_formula():
    # recompute the right-hand side through the root-extraction path:
    # t = (q^F)^(a/F) must equal q^a; the verify grid, then the size of
    # the exact-sweep benchmark's distribution sums, n = 20 and F = 5
    for q, periods, ns in ((Fraction(1, 3), (3, 5), range(1, 7)),
                           (Fraction(1, 2), (3, 5), range(1, 7)),
                           (Fraction(25, 121), (5,), (20,))):
        base = QBase(q)
        for F in periods:
            base_f = QBase(q ** F)
            for a in range(1, F):
                t = rat_pow(q ** F, Fraction(a, F))
                assert t == q ** a
                for n in ns:
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


#: (kind, s, x or (a, F) or (modulus, index), q, P, texts): values at cells
#: that reach each step of the continuation's set-up, as mp.nstr text at
#: P + 20 digits, real and imaginary parts apart.  Exact powers at integer
#: x and in residue passes, exp at x = 9/8, head terms (J > 0) at q = 4/5
#: with exact (x = 1) and exp (x = 1/2) gaps, s = 7/3 and s = -25/4,
#: complex characters mod 7 and 13, the exact truncation at s = -n, and
#: P = 50 and 100.  The texts were recorded before the exact powers were
#: built from integers and the roots, powers of ten and character groups
#: memoized, and every value kept them.
PINNED = (
    ("zeta", "7/3", "1", "4/5", 50,
     ("0.8241983071060246888547319901665181695616786804269408297012"
      "325840001198",)),
    ("zeta", "-25/4", "1", "4/5", 100,
     ("0.8206586889275024377366682253231996189038184479441407158129"
      "526977114264601841859171116264277857314144727099415415621597"
      "74",)),
    ("zeta", "7/3", "1/2", "4/5", 100,
     ("4.1121114977579310290648212639101978317037038338202838266336"
      "557626703669416670302237208530993860327482413423389417103455"
      "5",)),
    ("zeta", "-25/4", "1/2", "4/5", 50,
     ("-0.356878531127574393716421991671711279592720491794745762980"
      "3092559393476",)),
    ("zeta", "3/2", "9/8", "2/3", 50,
     ("0.6054203012441317927001035586590655323108628357610048575803"
      "50299818518",)),
    ("zeta", "-5", "2", "1/3", 100,
     ("1.3817044610727137716342034614725538356086136973781915805106"
      "528817044610727137716342034614725538356086136973781915805106"
      "5",)),
    ("partial", "5/2", (2, 5), "1/2", 50,
     ("0.2711032606003935167274026348585969862186532430027132352203"
      "681178857309",)),
    ("partial", "-4", (1, 3), "4/5", 100,
     ("-2.282856502733826814980401358694504244279274331821851006265"
      "320272235948719044930957183470518263077723783321339081760104"
      "01",)),
    ("partial", "7/3", (1, 3), "4/5", 50,
     ("-0.943944483313125896793483772014398511166332729986782982363"
      "4500115579164",)),
    ("l", "5/3", (7, 1), "1/2", 50,
     ("-1.482882303736501090470099112258459061675616084523920794916"
      "09570141967",
      "0.0833392178701240433443001174412998742311473184505985903049"
      "502244831204")),
    ("l", "-3", (13, 5), "2/3", 100,
     ("19.976997263801687898804613083873924909317623654306065745716"
      "354923463485631770072712290185100787754536101743919714108627"
      "4",
      "21.377267526388277961341765902596179307710128054031811592607"
      "489317844360010933632902577570191981551624593330959712348087"
      "9")),
    ("l", "-25/4", (7, 2), "4/5", 50,
     ("-3707.252226692685288514477689226957170544129422388389207705"
      "991962590858",
      "-2485.409514796806248803363517128018264893989354322281794331"
      "395279197536")),
)


@pytest.mark.parametrize("kind, s, arg, q, precision, texts", PINNED)
def test_values_keep_their_pinned_digits(kind, s, arg, q, precision, texts):
    base = QBase(Fraction(q), zeta_domain=True)
    sp = RealP.from_rational(s, precision)
    if kind == "zeta":
        value = zeta(query(s, arg, Fraction(q), precision)).value
    elif kind == "partial":
        value = partial_zeta(sp, *arg, base, precision).value
    else:
        chi = characters_mod(arg[0])[arg[1]]
        value = l_function(sp, chi, base, precision).value
    parts = (value.real, value.imag) if isinstance(value, mpc) else (value,)
    with mp.workdps(precision + 20):
        assert tuple(mp.nstr(part, precision + 20) for part in parts) == texts
