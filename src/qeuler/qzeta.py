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
  bound, so it runs in time linear in P.

The partial zeta H_q(s, a; F) has one route: `zeta` at base q^F, x = a/F.
Its cross-check is the exact special value at s = -n.  Both zeta routes
work at precision + GUARD_DIGITS internal digits and certify 10**-(P-10).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mpmath import mp, mpf

from .errors import DomainError, NonConvergence
from .exactnum import DEFAULT_PRECISION, GUARD_DIGITS, RealP, to_mpf
from .qnumbers import QBase, QPower, q_euler_poly, q_int

#: Most terms `zeta` sums.  The continuation series needs about
#: (P+15) ln 10 / (x ln(1/q)) terms: about 1.5 * 10**5 at q = 999/1000,
#: x = 1, P = 50, which takes a few seconds.
MAX_ZETA_TERMS = 200_000


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


def zeta(zq: ZetaQuery) -> RealP:
    """Euler q-zeta value via the binomial continuation series.

    Truncation rule: stop once k >= 8 and three consecutive terms fall
    below 10**-(P+15) * (1 + |partial sum|); q^(xk) decays geometrically
    while the coefficient grows only polynomially, so three sub-threshold
    terms bound the tail at guard precision.

    Raises NonConvergence, before summing, when q^(xk) needs more than
    MAX_ZETA_TERMS terms to reach 10**-(P+15), and also when the loop
    itself reaches that cap.
    """
    precision = zq.precision
    with mp.workdps(precision + GUARD_DIGITS):
        qv = to_mpf(zq.q.q)
        needed = (precision + 15) * mp.log(10) / (zq.x.value * -mp.log(qv))
        if needed > MAX_ZETA_TERMS:
            raise NonConvergence(
                f"the continuation series needs about {int(needed)} terms "
                f"at q = {zq.q.q}, more than its cap of "
                f"{MAX_ZETA_TERMS}")
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
                    return RealP(prefactor * total, precision)
            else:
                small_streak = 0
            coeff = coeff * (sv + k) / (k + 1)
            qxk *= qx
            qk *= qv
    raise NonConvergence(
        f"the continuation series did not settle within {MAX_ZETA_TERMS} "
        f"terms")


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
    order, in constant memory.  The caller must already hold the
    working-precision context.  Raises NonConvergence when n exceeds
    4 * precision + 200.
    """
    cap = 4 * precision + 200
    rate = 3 + mp.sqrt(8)
    count = max(0, int(mp.ceil(((precision + 15) * mp.log(10)
                                + mp.log(2 * variation)) / mp.log(rate))))
    if count > cap:
        raise NonConvergence(
            f"CVZ summation needs {count} terms, more than its cap of {cap}")
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


def zeta_euler_transform(zq: ZetaQuery) -> RealP:
    """Independent summation of the defining series sum (-1)^n [n+x]_q^(-s)
    by CVZ acceleration (`euler_transform`).  Must agree with `zeta` within
    tolerance.

    The terms [n+x]_q^(-s) = (1-q)^s sum_j C(s+j-1,j) q^(xj) (q^j)^n are
    the moments of a signed measure on (0, 1] whose total variation is at
    most (1-q)^s (1-q^x)^(-|s|), since |C(s+j-1,j)| <= (|s|)_j / j! for
    every real s.
    """
    precision = zq.precision
    with mp.workdps(precision + GUARD_DIGITS):
        qv = to_mpf(zq.q.q)
        sv = zq.s.value
        one_minus_q = 1 - qv
        qx = mp.power(qv, zq.x.value)
        variation = mp.power(one_minus_q, sv) * mp.power(1 - qx, -abs(sv))
        state = [qx]  # q^(x+n), advanced per call

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

    since [a+nF]_q = [F]_q [n+a/F]_(q^F).  Delegates to `zeta` with base
    q^F and x = a/F.
    """
    _check_residue(a, period)
    if not 0 < q.q < 1:
        raise DomainError("partial zeta requires 0 < q < 1")
    inner = zeta(ZetaQuery(s, RealP.from_rational(Fraction(a, period),
                                                  precision),
                           QBase(q.q ** period, zeta_domain=True),
                           precision))
    with mp.workdps(precision + GUARD_DIGITS):
        scale = mp.power(to_mpf(q_int(period, q)), -s.value)
        value = scale * inner.value
        if a % 2:
            value = -value
        return RealP(value, precision)


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
