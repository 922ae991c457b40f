"""Euler q-zeta function, its partial (residue-class) variant, and the
negative-integer interpolation checks.

The defining series sum_{n>=0} (-1)^n [n+x]_q^(-s) has terms tending to
(1-q)^s rather than zero, so its value is taken in the Abel/Euler sense.
Two independent summation routes are implemented:

* `zeta` expands [n+x]_q^(-s) = (1-q)^s sum_k C(s+k-1,k) q^((n+x)k) and
  resums the alternating n-series termwise to 1/(1+q^k), giving

      zeta(s, x) = (1-q)^s sum_k C(s+k-1,k) q^(xk) / (1+q^k),

  a series whose terms decay geometrically (q^(xk)) against polynomial
  coefficient growth.  This is the primary route; at s = -n it truncates
  after n+1 terms and reproduces E_{n,q}(x)/2 exactly.

* `zeta_euler_transform` is the independent cross-check: CVZ-accelerated
  summation of the raw alternating series (Cohen, Rodriguez Villegas and
  Zagier, Algorithm 1), whose terms are moments of a signed measure on
  (0, 1].  Its term count is fixed in advance from an a-priori error
  bound, so it runs in time linear in P + log10 V, and its cap admits
  every V that `cancellation_digits` admits.

The partial zeta H_q(s, a; F) has one route: the continuation series at
base q^F, x = a/F, with q^x = q^a taken exactly (`_residue_sum`).  Its
cross-check is the exact special value at s = -n.

`zeta` and the residues of one L value sum through one pass,
`_continuation_sums`, which alone holds the term-count precheck, the stop
rule and the loop cap.  `zeta` runs it at base q; the residues run it at
base q^F and the smallest residue a_min, and residue a's term is a_min's
times (q^(a-a_min))^k.  Those weights are at most 1, so a_min's stop rule
covers every residue.

Both zeta routes sum in integer fixed point: each term is a Python int at
a binary point of mp.prec + WORD_GUARD_BITS bits, and one mpf is built from
the final integer.  Their terms reach V = (1-q)^s (1-q^x)^(-|s|) in size, so
both work at P + GUARD_DIGITS + ceil(log10 V) digits (`cancellation_digits`)
and certify 10**-(P-10) even where the terms cancel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import itertools
from math import lgamma
from typing import Callable, Iterator, Sequence

from mpmath import mp, mpc, mpf
from mpmath.libmp import to_fixed

from .errors import DomainError, NonConvergence
from .exactnum import (ComplexP, DEFAULT_PRECISION, GUARD_DIGITS, RealP,
                       to_mpf)
from .qnumbers import QBase, QPower, q_euler_poly, q_int

#: Most terms `zeta` sums.  The continuation series needs about
#: (P+15) ln 10 / (x ln(1/q)) terms: about 1.5 * 10**5 at q = 999/1000,
#: x = 1, P = 50, which takes a few seconds.
MAX_ZETA_TERMS = 200_000

#: Most digits either zeta route adds for cancellation (`cancellation_digits`),
#: which bounds the working digits: at q = 1/2, x = 1 it admits s down to
#: about -830.  Also the most digits the continuation's unscaled sum may
#: reach at s > 0 (`_continuation_sums`): at q = 1/2, x = 1, s up to 1660.
MAX_CANCELLATION_DIGITS = 500

#: Bits the fixed-point word carries beyond the context's precision, which
#: already holds the digits of V: room for one rounding in each of up to
#: 2**18 terms, with 6 bits to spare.
WORD_GUARD_BITS = 24


@dataclass(frozen=True)
class ZetaQuery:
    """Arguments for a q-zeta evaluation: real s, real x > 0, rational
    0 < q < 1, and the certified output precision (P >= 15)."""

    s: RealP
    x: RealP
    q: QBase
    precision: int = DEFAULT_PRECISION

    def __post_init__(self) -> None:
        # re-wrap to assert the zeta-side domain 0 < q < 1
        object.__setattr__(self, "q", QBase(self.q.q, zeta_domain=True))
        if self.precision < 15:
            raise DomainError("precision must be at least 15")
        if not self.x.value > 0:
            raise DomainError("x must be positive")


def cancellation_digits(q: Fraction, s: mpf, x: mpf) -> int:
    """max(0, ceil(log10 V)) with V = (1-q)^s (1-q^x)^(-|s|).

    V bounds the terms of both zeta routes, and the value, in absolute
    size: the continuation terms sum in absolute value to at most V, and V
    is the total variation of the measure whose moments CVZ sums.  Both
    routes work with this many digits on top of P + GUARD_DIGITS, so
    cancellation among terms of size V still leaves 10**-(P+20).

    log10 V = s log10(1-q) - |s| log10(1-q^x) is taken in the log domain at
    15 digits.  For s >= 0 it is -s log10((1-q^x)/(1-q)), and
    (1-q^x)/(1-q) = 1 - q (q^(x-1) - 1)/(1-q) keeps its digits near x = 1,
    so V is exactly 1 at x = 1 however large s is.

    Raises DomainError when V needs more than MAX_CANCELLATION_DIGITS.
    """
    with mp.workdps(15):
        ln_q = mp.log1p(to_mpf(q - 1))
        if s < 0:
            ln_v = s * (mp.log(to_mpf(1 - q)) + mp.log(-mp.expm1(x * ln_q)))
        else:
            ln_v = -s * mp.log1p(-to_mpf(q) * mp.expm1((x - 1) * ln_q)
                                 / to_mpf(1 - q))
        digits = max(0, int(mp.ceil(ln_v / mp.ln(10))))
    if digits > MAX_CANCELLATION_DIGITS:
        raise DomainError(
            f"the zeta series at s = {mp.nstr(s, 15)} cancels about "
            f"{digits} digits, more than {MAX_CANCELLATION_DIGITS}")
    return digits


def _variation(q: Fraction, s: mpf, x: mpf) -> mpf:
    """V = (1-q)^s (1-q^x)^(-|s|) at the context's precision, with 1-q
    taken exactly and 1-q^x without cancellation for q near 1."""
    one_minus_qx = -mp.expm1(x * mp.log1p(to_mpf(q - 1)))
    return mp.power(to_mpf(1 - q), s) * mp.power(one_minus_qx, -abs(s))


def _working_digits(zq: ZetaQuery) -> int:
    return (zq.precision + GUARD_DIGITS
            + cancellation_digits(zq.q.q, zq.s.value, zq.x.value))


def _to_fixed(value: mpf, wp: int) -> int:
    """floor(value * 2**wp)."""
    return to_fixed(value._mpf_, wp)


def _from_fixed(man: int, wp: int) -> mpf:
    """man * 2**-wp, rounded to the context's precision."""
    return mpf((man, -wp))


def _continuation_terms(s_fix: int, qx_fix: int, q_fix: int,
                        wp: int) -> Iterator[int]:
    """The terms C(s+k-1,k) q^(xk) / (1+q^k), k = 0, 1, ..., of the
    continuation series at binary point wp, from s, q^x and q at that
    point.  u_k = C(s+k-1,k) q^(xk) is carried as one int and updated by
    *(s+k) q^x / (k+1), so at s = -n it is exactly 0 from k = n+1 on."""
    one = 1 << wp
    u = one   # C(s+k-1, k) q^(xk)
    qk = one  # q^k
    for k in itertools.count():
        yield (u << wp) // (one + qk)
        u = ((u * (s_fix + k * one) >> wp) * qx_fix >> wp) // (k + 1)
        qk = qk * q_fix >> wp


def _fixed(r: Fraction, wp: int) -> int:
    """floor(r * 2**wp) for a rational r > 0."""
    return (r.numerator << wp) // r.denominator


def _fall_count(s: float, log_qx: float, start: int, floor: float) -> int:
    """The least k > start, or at most 1% above it, at which
    ln(C(s+k-1,k) q^(xk)) < floor, for s > 1 and start at or past the
    peak of these terms, after which they only fall."""
    def above(k: int) -> bool:
        return (lgamma(s + k) - lgamma(s) - lgamma(k + 1)
                + k * log_qx) >= floor

    lo, hi = start, 2 * start + 16
    while above(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1 + hi // 128:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


def _continuation_sums(zq: ZetaQuery, qx_fix: int, base: Fraction, wp: int,
                       weights: Sequence[int] = ()) -> list[int]:
    """Fixed-point sums, at binary point wp in the caller's working digits,
    of the continuation series sum_k C(s+k-1,k) q^(xk) / (1+base^k)
    (`_continuation_terms`), with s, x, q and P from zq and q^x given at
    wp: [plain sum] followed by one sum per weight w, whose term k is the
    plain one times w^k (w descending and at most 1; a sum is dropped once
    w^k underflows to 0).

    Stop once k >= 8 and three consecutive plain terms fall below
    10**-(P+15) * (1 + |plain sum|): q^(xk) decays geometrically while the
    coefficient grows only polynomially, so three sub-threshold terms bound
    the tail at guard precision, and the plain terms dominate the weighted
    ones.

    Refuses before summing what the loop cannot finish.  For s > 1/q^x
    the terms rise to a peak at k = (s q^x - 1) / (1 - q^x), where the
    ratio (s+k) q^x / (k+1) of consecutive terms falls to 1.  The count
    is the peak plus the terms q^(xk) takes to reach 10**-(P+15); for
    s > 1 the terms fall more slowly than that, like k^(s-1) q^(xk), so
    the count runs on to where C(s+k-1,k) q^(xk) falls below the stop
    threshold (`_fall_count`), and three terms more.  NonConvergence
    when the count passes MAX_ZETA_TERMS.  For s > 0 the unscaled terms
    sum to (1-q^x)^(-s), which the fixed-point ints carry in
    s log10(1/(1-q^x)) digits above wp: DomainError past
    MAX_CANCELLATION_DIGITS.  Raises NonConvergence also when the loop
    reaches its cap.
    """
    log_qx = zq.x.value * mp.log(to_mpf(zq.q.q))
    needed = (zq.precision + 15) * mp.log(10) / -log_qx
    growth = 0
    if zq.s.value > 0 and needed <= MAX_ZETA_TERMS:
        # q^x < 1 - 3e-4 here, so 1 - q^x keeps its digits
        with mp.workdps(15):
            s = zq.s.value
            qx = mp.exp(log_qx)
            needed += max(0, (s * qx - 1) / (1 - qx))
            growth = s * -mp.ln(1 - qx) / mp.ln(10)
            # past 1e15, s keeps within the growth bound only at
            # q^x < 1e-12, where the terms fall faster than geometrically
            # from the peak on
            if 1 < s < 1e15 and needed <= MAX_ZETA_TERMS \
                    and growth <= MAX_CANCELLATION_DIGITS:
                # the stop threshold, with the sum at least half of
                # (1-q^x)^(-s)
                floor = (growth - zq.precision - 15) * mp.ln(10) - mp.ln(2)
                needed = 3 + _fall_count(float(s), float(log_qx),
                                         int(needed), float(floor))
    if needed > MAX_ZETA_TERMS:
        raise NonConvergence(
            f"the continuation series needs about {int(needed)} terms "
            f"at q = {zq.q.q}, more than its cap of {MAX_ZETA_TERMS}")
    if growth > MAX_CANCELLATION_DIGITS:
        raise DomainError(
            f"the continuation series at s = {mp.nstr(zq.s.value, 15)} "
            f"grows to about {int(growth)} digits, more than "
            f"{MAX_CANCELLATION_DIGITS}")
    one = 1 << wp
    terms = _continuation_terms(_to_fixed(zq.s.value, wp), qx_fix,
                                _fixed(base, wp), wp)
    threshold = _to_fixed(mpf(10) ** (-(zq.precision + 15)), wp)
    # one row [w, w^k, sum] per weight; the last row's w^k reaches 0 first
    rows = [[w, one, 0] for w in weights]
    live = rows[:]
    total = 0
    small_streak = 0
    for k, term in zip(range(MAX_ZETA_TERMS), terms):
        total += term
        if live:
            for row in live:
                power = row[1]
                row[2] += term * power >> wp
                row[1] = power * row[0] >> wp
            while live and not live[-1][1]:
                live.pop()
        if k >= 8 and abs(term) << wp < threshold * (one + abs(total)):
            small_streak += 1
            if small_streak >= 3:
                return [total] + [row[2] for row in rows]
        else:
            small_streak = 0
    raise NonConvergence(
        f"the continuation series did not settle within {MAX_ZETA_TERMS} "
        f"terms")


def zeta(zq: ZetaQuery) -> RealP:
    """Euler q-zeta value via the binomial continuation series, summed by
    `_continuation_sums` at base q in P + GUARD_DIGITS +
    `cancellation_digits` working digits; one mpf is built from the
    fixed-point sum.  At s = -n the sum has exactly n+1 nonzero terms.
    Raises NonConvergence past MAX_ZETA_TERMS terms.
    """
    with mp.workdps(_working_digits(zq)):
        qv = to_mpf(zq.q.q)
        wp = mp.prec + WORD_GUARD_BITS
        total = _continuation_sums(
            zq, _to_fixed(mp.power(qv, zq.x.value), wp), zq.q.q, wp)[0]
        return RealP(mp.power(1 - qv, zq.s.value) * _from_fixed(total, wp),
                     zq.precision)


def _cvz_weights(count: int) -> tuple[int, Iterator[int]]:
    """d and the weights c_0..c_{n-1} of CVZ Algorithm 1 for n = count, all
    exact integers: d = ((3+sqrt 8)^n + (3-sqrt 8)^n)/2 = T_n(3), and
    b_{k+1} = b_k * 2(k+n)(k-n) / ((2k+1)(k+1)) divides exactly."""
    d, previous = 1, 3  # T_0(3) and T_{-1}(3) = T_1(3)
    for _ in range(count):
        d, previous = 6 * d - previous, d

    def weights():
        b, c = -1, -d
        for k in range(count):
            c = b - c
            yield c
            b = b * 2 * (k + count) * (k - count) // ((2 * k + 1) * (k + 1))

    return d, weights()


def euler_transform(terms: Callable[[int], mpf], precision: int,
                    variation=1) -> mpf:
    """Abel value of sum_{n>=0} (-1)^n a_n by the convergence acceleration
    of Cohen, Rodriguez Villegas and Zagier (CVZ), "Convergence
    acceleration of alternating series", Experimental Math. 9 (2000),
    Algorithm 1.

    The terms must be the moments a_n = int t^n dmu(t) of a signed measure
    on [0, 1] of total variation at most `variation`; n terms then leave an
    error of at most 2 * variation / (3 + sqrt 8)^n.  The term count n is
    fixed before summing as the least one that brings this bound to
    10**-(P+15), and `terms(j)` is called once for each j < n in increasing
    order, in constant memory.  The weights are exact integers and each
    term is taken to a fixed binary point of mp.prec + WORD_GUARD_BITS
    bits, so the sum is one integer and one mpf is built from it.  The
    caller must already hold the working-precision context, which must
    carry the digits of `variation` (see `cancellation_digits`).  Raises
    NonConvergence, before summing, when n exceeds its count at the largest
    variation `cancellation_digits` admits, 10**MAX_CANCELLATION_DIGITS.
    """
    def terms_for(bound) -> int:
        return max(0, int(mp.ceil(((precision + 15) * mp.log(10)
                                   + mp.log(2 * bound))
                                  / mp.log(3 + mp.sqrt(8)))))

    count = terms_for(variation)
    cap = terms_for(mpf(10) ** MAX_CANCELLATION_DIGITS)
    if count > cap:
        raise NonConvergence(
            f"CVZ summation needs {count} terms, more than its cap of {cap}")
    wp = mp.prec + WORD_GUARD_BITS
    d, weights = _cvz_weights(count)
    total = 0
    for k, c in enumerate(weights):
        total += c * _to_fixed(terms(k), wp)
    return _from_fixed(total // d, wp)


def zeta_euler_transform(zq: ZetaQuery) -> RealP:
    """Independent summation of the defining series sum (-1)^n [n+x]_q^(-s)
    by CVZ acceleration (`euler_transform`).  Must agree with `zeta` within
    tolerance.

    The terms [n+x]_q^(-s) = (1-q)^s sum_j C(s+j-1,j) q^(xj) (q^j)^n are
    the moments of a signed measure on (0, 1] whose total variation is at
    most V = (1-q)^s (1-q^x)^(-|s|), since |C(s+j-1,j)| <= (|s|)_j / j! for
    every real s.  Works at P + GUARD_DIGITS + `cancellation_digits`.
    """
    precision = zq.precision
    with mp.workdps(_working_digits(zq)):
        qv = to_mpf(zq.q.q)
        sv = zq.s.value
        one_minus_q = 1 - qv
        variation = _variation(zq.q.q, sv, zq.x.value)
        state = [mp.power(qv, zq.x.value)]  # q^(x+n), advanced per call

        def term(_j: int) -> mpf:
            bracket = (1 - state[0]) / one_minus_q
            state[0] *= qv
            return mp.power(bracket, -sv)

        return RealP(euler_transform(term, precision, variation=variation),
                     precision)


def _check_residue(a: int, period: int) -> None:
    if period % 2 == 0:
        raise DomainError("the period F must be odd")
    if not 0 < a < period:
        raise DomainError("need 0 < a < F")


def partial_zeta(s: RealP, a: int, period: int, q: QBase,
                 precision: int = DEFAULT_PRECISION) -> RealP:
    """Partial q-zeta over the residue class a mod F (F odd, 0 < a < F):

        H_q(s, a; F) = [F]_q^(-s) (-1)^a zeta_{E,q^F}(s, a/F),

    since [a+nF]_q = [F]_q [n+a/F]_(q^F).  Summed as the one-residue case
    of `_residue_sum`.
    """
    _check_residue(a, period)
    return _residue_sum(s, {a: 0}, 1, period, q.q, precision)


def _residue_sum(s: RealP, exponents: dict[int, int], order: int,
                 period: int, q: Fraction,
                 precision: int) -> RealP | ComplexP:
    """sum_a chi(a) H_q(s, a; F) over the residues a in `exponents`, with
    chi(a) = exp(2 pi i exponents[a] / order), in one pass of the
    continuation series.  Returns RealP when order <= 2, else ComplexP.

    [F]_q^(-s) (1-q^F)^s = (1-q)^s and (q^F)^(a/F) = q^a, so

        H_q(s, a; F) = (-1)^a (1-q)^s sum_k C(s+k-1,k) q^(ak) / (1+q^(Fk)),

    the continuation series at base q^F with the exact q^a in place of its
    q^x.  One pass of `_continuation_sums` runs it at the smallest residue
    a_min, with weight q^(a-a_min) for each further residue a, so a_min's
    term-count precheck and stop rule serve them all.  The working digits
    are a_min's too: V at base q, x = a_min is the largest over the
    residues, and it bounds the scaled terms (1-q)^s C(s+k-1,k) q^(ak) in
    absolute sum.  The scale (1-q)^s and the character sum are applied in
    those working digits, so a value far above 1 keeps the absolute
    10**-(P-10).
    """
    residues = sorted(exponents)
    a_min = residues[0]
    zq = ZetaQuery(s, RealP.from_rational(a_min, precision),
                   QBase(q, zeta_domain=True), precision)
    with mp.workdps(_working_digits(zq)):
        wp = mp.prec + WORD_GUARD_BITS
        sums = _continuation_sums(
            zq, _fixed(q ** a_min, wp), q ** period, wp,
            [_fixed(q ** (a - a_min), wp) for a in residues[1:]])
        by_exponent: dict[int, int] = {}
        for a, part in zip(residues, sums):
            e = exponents[a]
            by_exponent[e] = by_exponent.get(e, 0) + (-part if a % 2
                                                      else part)
        value = _root_sum(by_exponent, order)
        prefactor = mp.power(to_mpf(1 - q), s.value)
        if isinstance(value, mpc):
            return ComplexP(prefactor * value * _from_fixed(1, wp), precision)
        return RealP(prefactor * _from_fixed(value, wp), precision)


def _root_sum(coefficients: dict[int, int | Fraction], order: int):
    """sum_e c_e exp(2 pi i e / order): exact, each c_e signed, when every
    root is +1 or -1 (e = 0 or 2e = order), else an mpc at the context's
    precision, each c_e rounded to it before its root multiplies it."""
    if all(e == 0 or 2 * e == order for e in coefficients):
        return sum(-c if e else c for e, c in coefficients.items())
    total = mp.mpc(0)
    for e in sorted(coefficients):
        total += to_mpf(coefficients[e]) * mp.expjpi(mpf(2 * e) / order)
    return total


def partial_zeta_special_value(n: int, a: int, period: int,
                               q: Fraction) -> Fraction:
    """Exact H_q(-n, a; F) = (-1)^a [F]_q^n E_{n,q^F}(a/F) / 2 for n >= 1.

    (q^F)^(a/F) = q^a is always rational, so the whole computation stays
    in Fraction arithmetic.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    _check_residue(a, period)
    q = Fraction(q)
    if not 0 < q < 1:
        raise DomainError("requires rational q in (0, 1)")
    base = QBase(q)
    poly = q_euler_poly(n, QPower(QBase(q ** period), q ** a,
                                  Fraction(a, period)))
    value = q_int(period, base) ** n * poly / 2
    return -value if a % 2 else value
