"""The Euler q-zeta function by CVZ summation of its raw series: the
cross-check route of `qzeta.zeta`.

`zeta_euler_transform` sums sum_{n>=0} (-1)^n [n+x]_q^(-s) by the
convergence acceleration of Cohen, Rodriguez Villegas and Zagier
(Algorithm 1), whose terms are moments of a signed measure on (0, 1].  Its
term count is fixed in advance from an a-priori error bound, so it runs in
time linear in P + log10 V, and its cap admits every V that
`realnum.cancellation_digits` admits.  V's factor (1-q)^(s-|s|) is taken
as exp((s-|s|) ln(1-q)), with ln(1-q) from `realnum._ln`, which keeps q
where 1 - q rounds to 1 at the working digits and 1 - q where q does.

It sums in integer fixed point: each term is a Python int at a binary
point of mp.prec + WORD_GUARD_BITS bits, and one mpf is built from the
final integer.  Its terms are made in integers too wherever 2s is an
integer: the brackets [x+n]_q are ints at a few more bits, raised by
binary powering and `math.isqrt` (`_bracket_powers`); other s raise the
full-width bracket once per term, on mpmath's raw values, so |s| does not
magnify a rounding of it to the context's precision.  The terms reach
V = (1-q)^s (1-q^x)^(-|s|) in size, so it works at
P + GUARD_DIGITS + ceil(log10 V) digits (`realnum._working_digits`) and
certifies 10**-(P-10) even where the terms cancel.

This module shares no code with the continuation route: it imports
nothing from `qzeta`, nor `qzeta` from it.  Both take their query,
`exactnum.ZetaQuery`, and only the precision bookkeeping of `realnum` and
`exactnum`; tests/test_imports.py fails if either imports the other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import math
from typing import Callable

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_pow, to_fixed

from .errors import NonConvergence
from .exactnum import ZetaQuery
from .realnum import (MAX_CANCELLATION_DIGITS, WORD_GUARD_BITS, RealP, _ln,
                      _from_fixed, _logs, _to_fixed, _working_digits, to_mpf)

#: Most CVZ weight tables (`_cvz_weights`, one per term count) kept in
#: memory; a table of n weights holds about 2.5 n^2 bits.
CVZ_WEIGHTS_CACHE_SIZE = 32


@lru_cache(maxsize=CVZ_WEIGHTS_CACHE_SIZE)
def _cvz_weights(count: int) -> tuple[int, tuple[int, ...]]:
    """d and the weights c_0..c_{n-1} of CVZ Algorithm 1 for n = count, all
    exact integers: d = ((3+sqrt 8)^n + (3-sqrt 8)^n)/2 = T_n(3), and
    b_{k+1} = b_k * 2(k+n)(k-n) / ((2k+1)(k+1)) divides exactly.  Built
    once per count: the counts of one precision differ only by the digits
    of V."""
    d, previous = 1, 3  # T_0(3) and T_{-1}(3) = T_1(3)
    for _ in range(count):
        d, previous = 6 * d - previous, d
    weights = []
    b, c = -1, -d
    for k in range(count):
        c = b - c
        weights.append(c)
        b = b * 2 * (k + count) * (k - count) // ((2 * k + 1) * (k + 1))
    return d, tuple(weights)


def euler_transform(terms: Callable[[int], int], precision: int,
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
    order, in constant memory.  Each call returns a_j as an int at the
    binary point wp = mp.prec + WORD_GUARD_BITS (a_j * 2**wp, rounded by
    the caller); the weights are exact integers c_k over one integer d,
    with |c_k| <= d, so n terms each within u units of 2**-wp leave the
    sum within n u units, and one mpf is built from the integer sum.  The
    caller must already hold the working-precision context, which must
    carry the digits of `variation` (see `cancellation_digits`).  Raises
    NonConvergence, before summing, when n exceeds its count at the largest
    variation `cancellation_digits` admits, 10**MAX_CANCELLATION_DIGITS.
    """
    def terms_for(log_bound: float) -> int:
        return max(0, math.ceil(((precision + 15) * math.log(10)
                                 + math.log(2) + log_bound)
                                / math.log(3 + math.sqrt(8))))

    count = terms_for(float(mp.log(variation)))
    cap = terms_for(MAX_CANCELLATION_DIGITS * math.log(10))
    if count > cap:
        raise NonConvergence(
            f"CVZ summation needs {count} terms, more than its cap of {cap}")
    wp = mp.prec + WORD_GUARD_BITS
    d, weights = _cvz_weights(count)
    total = 0
    for k, c in enumerate(weights):
        total += c * terms(k)
    return _from_fixed(total // d, wp)


def _bracket_powers(s: mpf, x: RealP, q: Fraction, log_gap: float,
                    wp: int) -> tuple[mpf, Callable[[int], int]]:
    """[x]_q and the terms [x+n]_q^(-s), n = 0, 1, ..., of the raw zeta
    series as ints at binary point wp, for one call each in increasing n.

    The bracket [x+n]_q is an int at the binary point wb = wp + extra: it
    starts from [x]_q = -expm1(x ln q)/(1-q), taken to wb bits, and steps
    [x+n+1]_q = 1 + q [x+n]_q with the exact q = a/c, rounding down once a
    step, so it is at most n + 2 units of 2**-wb low.  When 2s is an
    integer the power is taken in integers at wb, every product rounded
    down: binary powering of the base [x+n]_q for s <= 0, or of its
    inverse for s > 0 (inverted first, never raised and then inverted),
    times the `math.isqrt` root of the base when 2s is odd.  Every other s
    raises the full-width bracket, all wb bits of it, on mpmath's raw
    values at the context's precision and rounding, as mp.power rounds:
    rounding the bracket to the context's precision first would drop the
    extra bits that |s| magnifies.

    An absolute error in the bracket is a relative one at most 1/[x]_q
    times larger, since [x]_q is the least bracket, and b^(-s) multiplies
    a relative error by |s|, so extra = ceil(log2(1/[x]_q)) +
    bit_length(|s|) + 8 bits, and one more for log2 [x]_q, which is taken
    in floats from log_gap = ln((1-q^x)/(1-q)) (`_logs`).  Term n is then
    within max(1, V) (n + 5) 2**-(wp+8) + 2**-wp of its value, V >= |term|
    being the variation bound of `zeta_euler_transform`.
    """
    log2_first = log_gap / math.log(2)  # log2 [x]_q
    extra = max(0, math.ceil(-log2_first)) + max(0, mp.mag(s)) + 9
    wb = wp + extra
    with mp.workprec(wb + max(0, math.ceil(log2_first)) + 8):
        first = -mp.expm1(x.exact_value() * _ln(q)) / to_mpf(1 - q)
        b = _to_fixed(first, wb)
    one, a, c = 1 << wb, q.numerator, q.denominator
    twice = 2 * s
    exponent = int(twice) if mp.isint(twice) else None  # 2s
    whole, half = divmod(abs(exponent or 0), 2)
    digits = bin(whole)[3:] if whole else ""
    (prec, rounding), neg = mp._prec_rounding, (-s)._mpf_

    def term(_n: int) -> int:
        nonlocal b
        bracket, b = b, one + b * a // c
        if exponent is None:
            return to_fixed(mpf_pow(from_man_exp(bracket, -wb), neg, prec,
                                    rounding), wp)
        base = (one << wb) // bracket if exponent > 0 else bracket
        value = base if whole else one
        for digit in digits:  # binary powering, left to right
            value = value * value >> wb
            if digit == "1":
                value = value * base >> wb
        if half:
            value = value * math.isqrt(base << wb) >> wb
        return value >> extra

    return first, term


def zeta_euler_transform(zq: ZetaQuery) -> RealP:
    """Independent summation of the defining series sum (-1)^n [n+x]_q^(-s)
    by CVZ acceleration (`euler_transform`), for the query `zq`.  Must
    agree with `qzeta.zeta` within tolerance.

    The terms [n+x]_q^(-s) = (1-q)^s sum_j C(s+j-1,j) q^(xj) (q^j)^n are
    the moments of a signed measure on (0, 1] whose total variation is at
    most V = (1-q)^s (1-q^x)^(-|s|) = (1-q)^(s-|s|) [x]_q^(-|s|), since
    |C(s+j-1,j)| <= (|s|)_j / j! for every real s.  Works at
    P + GUARD_DIGITS + `cancellation_digits`, with s and x taken from their
    exact rationals when they have them.  The brackets take no difference
    of near-equal numbers, for small x or q near 1:
    [x]_q = -expm1(x ln q)/(1-q), then [x+n+1]_q = 1 + q [x+n]_q.  The
    terms are ints at the binary point of `euler_transform`, computed in
    integers wherever 2s is an integer (`_bracket_powers`, which states the
    bracket's extra bits and the rounding bound).
    """
    precision, q = zq.precision, zq.q.q
    logs = _logs(q, zq.x.value)
    with mp.workdps(_working_digits(zq, logs)):
        sv = zq.s.exact_value()
        first, terms = _bracket_powers(sv, zq.x, q, logs.gap,
                                       mp.prec + WORD_GUARD_BITS)
        variation = mp.exp((sv - abs(sv)) * _ln(1 - q)) \
            * mp.power(first, -abs(sv))
        return RealP(euler_transform(terms, precision, variation=variation),
                     precision)
