"""Euler q-zeta function by its continuation series, its partial
(residue-class) variant and the q-L function of a Dirichlet character.

The defining series sum_{n>=0} (-1)^n [n+x]_q^(-s) has terms tending to
(1-q)^s rather than zero, so its value is taken in the Abel/Euler sense.
It has two summation routes, one per module; tests/test_imports.py fails
if either module imports the other:

* `zeta`, here, expands [n+x]_q^(-s) = (1-q)^s sum_k C(s+k-1,k) q^((n+x)k)
  and resums the alternating n-series termwise to 1/(1+q^k), giving

      zeta(s, x) = (1-q)^s sum_k C(s+k-1,k) q^(xk) / (1+q^k),

  a series whose terms decay geometrically (q^(xk)) against polynomial
  coefficient growth.  This is the primary route; at s = -n it truncates
  after n+1 terms and reproduces E_{n,q}(x)/2 exactly.  Its sum S(x) has
  S(x) + S(x+1) = (1-q^x)^(-s), so

      zeta(s, x) = sum_(j<J) (-1)^j [j+x]_q^(-s) + (-1)^J zeta(s, x+J),

  and the series at x + J needs only about x/(x+J) of the terms it needs
  at x: `zeta` sums J raw head terms first, with J chosen by `_shift`
  against the terms it saves.  At s = -n its term model counts at most
  the n+1 terms of the exact truncation, so J is 0 unless the stop rule
  ends the series sooner.

* CVZ summation of the raw series, in `cvz`, is the cross-check.

Both routes take their arguments as `exactnum.ZetaQuery`, whose checks
are input rules beside `QBase`'s; this module imports it from there, so
`from qeuler.qzeta import ZetaQuery` still works.

The partial zeta H_q(s, a; F) has one route: head terms and the
continuation series at base q^F, x = a/F, with q^x = q^a.  Its
cross-check is the exact special value at s = -n
(`qnumbers.partial_zeta_special_value`).  The q-L value `l_function` is
the character sum of the partial zeta values over the units mod F; its
cross-check is half the generalized number
`qnumbers.generalized_q_euler` at s = -n.  `l_function` reads only the
character's modulus, order and exponent table, and the base and residue
checks come from `exactnum` (`QBase`, `_check_period`, `_check_residue`),
so this module imports neither `characters` nor `qnumbers`;
tests/test_imports.py fails if it reaches `qnumbers`.

`zeta`, partial zeta and the residues of one L value are one sum, run by
one function, `_continued`: rows (d, sign, e) over the series at x + d, at
step 1 for `zeta` and step F for the residues, where residue a is the row
(a - a_min, (-1)^a, chi's exponent) at x = a_min.  It takes J head terms
per row (`_shift`, which holds the term-count precheck), then one pass,
`_continuation_sums`, which alone holds the stop rule and the loop cap:
the series at x + J step, each further row's term being x's times
(q^d)^k.  Those weights are at most 1, so x's stop rule covers every row.
The stop rule is absolute.  The ratio of consecutive numerators is at
most R_k = q^y max(1, |s+k|/(k+1)), which never rises in k for any real
s, so from any k with R_k < 1 the pass stops once the geometric bound
2 |term| R_k / (1-R_k) on the scaled tail is at most 10**-(P+15), and
once its numerator is exactly 0, as it is from k = n+1 at s = -n, where
every later term is 0 too.  The precheck's count
(`_series_count`) starts from the least such k, so pass and precheck
apply one rule: at s = -10**20, q^x = 10**-40 both stop after a few
terms, where |s| q^x < 1.  One rule takes each power the pass needs, q^y
and each head's 1 - q^y: the exact rational, built from the integers a^y
and b^y of q = a/b (`_exact_power`) and rounded once, when y is an
integer (every residue pass, and `zeta` at integer x) with y times the
bits of q's denominator at most _MAX_EXACT_POWER_BITS; otherwise exp and
expm1 of y ln q, with ln q taken once per pass and only when a power
needs it.  The stop rule's powers of ten and the roots of unity of the
character sum are memos (`_power_of_ten`, `_root`), each keyed by the
working bits.

The pass makes and sums its terms in one loop, in integer fixed point:
the numerator C(s+k-1,k) q^(yk), base^k and each term are Python ints at
a binary point of mp.prec + WORD_GUARD_BITS bits, and one mpf is built
from the final integer.  Its terms reach V = (1-q)^s (1-q^x)^(-|s|) in
size, so it works at P + GUARD_DIGITS + ceil(log10 V) digits
(`realnum.cancellation_digits`) and certifies 10**-(P-10) even where the
terms cancel.  s multiplies the rounding of 1 - q and of q^x into the
scale and the terms, so past |s| = 10**GUARD_DIGITS it carries the
further digits of |s| too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import math
from math import lgamma
from typing import Callable, Sequence

from mpmath import mp, mpc, mpf
from mpmath.libmp import (from_int, from_rational, mpf_add, mpf_mul, mpf_pow,
                          mpf_pow_int, round_nearest, to_fixed)

from .errors import DomainError, NonConvergence
from .exactnum import (DEFAULT_PRECISION, QBase, ZetaQuery, _check_period,
                       _check_residue, show_rational)
from .realnum import (ComplexP, MAX_CANCELLATION_DIGITS, RealP,
                      WORD_GUARD_BITS, _from_fixed, _ln, _Logs, _logs,
                      _rough, _to_fixed, _working_digits, to_mpf)

#: Most terms `zeta` sums.  The continuation series needs about
#: (P+15) ln 10 / (x ln(1/q)) terms: about 1.5 * 10**5 at q = 999/1000,
#: x = 1, P = 50, which takes a few seconds.
MAX_ZETA_TERMS = 200_000

#: The cost of one head term of the shift (an mp.power at working digits)
#: in continuation terms, against which `_shift` prices the terms a shift
#: saves: measured at 9-17 for P = 50 to 500.
HEAD_TERM_COST = 15

#: The cost of one weighted row of a residue pass per term, in plain
#: continuation terms: measured at 0.3-0.5.
ROW_COST = 0.5

#: Most head terms the shift takes over all residues, which then cost at
#: most MAX_ZETA_TERMS continuation terms.
MAX_HEAD_TERMS = MAX_ZETA_TERMS // HEAD_TERM_COST

#: Most bits an exact power q^y of `_continued` may reach: y times the
#: bits of q's denominator, for each integer y on its own.  At 4000 bits
#: the exact q^y and 1 - q^y took about 60 us, against 90 us for ln q, exp
#: and expm1 at 300 bits (2-CPU machine); a power past the bound takes the
#: exp route, so zeta at x = 10**6, q = 99999/100000 does not build
#: 1.7 * 10**7-bit powers, which took 6.3 s, nor partial zeta at
#: F = 100001 a q^F of as many bits, which took 7-10 s.
_MAX_EXACT_POWER_BITS = 4096

#: Most roots of unity exp(2 pi i e / order) kept in memory (`_root`, keyed
#: by e, the order and the working bits).
ROOT_CACHE_SIZE = 1024

#: Most powers of ten of the stop rule kept in memory (`_power_of_ten`,
#: keyed by the exponent and the working bits).
POWER_OF_TEN_CACHE_SIZE = 256


def _exact_power(q: Fraction, y: int, gap: bool, wp: int | None):
    """q^y, or 1 - q^y with `gap`, for an int y >= 0, from the integers
    a^y and b^y of q = a/b: an int at binary point wp, rounded down, or
    with wp None the exact rational rounded once to nearest at the
    context's precision, as `realnum.to_mpf` rounds it."""
    den = q.denominator ** y
    num = den - q.numerator ** y if gap else q.numerator ** y
    if wp is not None:
        return (num << wp) // den
    return mp.make_mpf(from_rational(num, den, mp.prec, round_nearest))


@lru_cache(maxsize=POWER_OF_TEN_CACHE_SIZE)
def _power_of_ten(exponent: int, prec: int) -> mpf:
    """10**exponent rounded to nearest at prec bits, as mpf(10)**exponent
    is at that precision."""
    return mp.make_mpf(mpf_pow_int(from_int(10), exponent, prec,
                                   round_nearest))


def _first_stop(above: Callable[[int], bool], lo: int) -> int:
    """The least k >= lo at which `above` turns false, or at most 1% past
    it, for an `above` that stays false once it turns false: a gallop from
    lo, then a bisection.  It is the planner's one search: `_shift` finds
    the first rise of its cost with it, and `_series_count` the first k at
    which the stop rule holds, to size a refusal."""
    if not above(lo):
        return lo
    step = 16
    hi = lo + step
    while above(hi):
        lo, step = hi, 2 * step
        hi = lo + step
    while hi - lo > 1 + hi // 128:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


def _series_count(s: mpf, floor: float, x: float, step: int,
                  log_q: float) -> Callable[..., float]:
    """count(j, cap=None): the terms the continuation pass at s and
    q^y, y = x + j step, with base q^step takes, floor being the log of
    its stop rule's unscaled threshold (see `_continuation_sums`).

    The rule may stop the pass from any k with R_k = q^y max(1,
    |s+k|/(k+1)) < 1, as R_k never rises in k.  The least such k0 is one
    past (|s| q^y - 1)/(1 - q^y) for s > 0, the peak of the numerators
    u_k = C(s+k-1,k) q^(yk), and one past (|s| q^y - 1)/(1 + q^y) for
    s <= 0.  The count is k0 + 1 terms and as many more as bring the
    rule's bound 2 |u_j| q^y / (1-q^y) to e^floor, |u_j| falling by q^y
    per term; `_shift` reads it while it chooses J.  From k0 the u_k can
    fall more slowly than that (past the peak for s > 1 the count reads
    1.4-1.7 times low), so with a `cap` the rule itself is read.  From k0
    it holds at every k past the first at which it holds, so one probe at
    k = cap - 1, the pass's last term, decides whether the pass ends
    within the cap, and the count is then at most cap; past the cap the
    first k >= k0 at which the rule holds is searched for (`_first_stop`),
    to size the refusal.  Where the float of s is an integer -n, the
    count is at most that from k = n + 1, where u_k takes the factor
    |s+n|, read from the mpf s: n + 2, the exact truncation, at s = -n.

    ln |C(s+k-1,k)| is a difference of `lgamma`s.  For s <= 0 past the
    integer n nearest -s it is taken through -s = n + d, so no `lgamma`
    meets a pole where s is within float rounding of an integer.  The
    difference loses every digit past |s| = 10**15; there it is taken as
    k ln|s| - ln k!.  For s < 0 that bounds it, as |s+j| <= |s| for j < k;
    for s > 0 it drops the factor prod_(j<k) (1 + j/s), about e^(k^2/2s),
    and is a first-order estimate, which holds because the growth check
    (`_shift`) keeps s q^x below about 1150, so the k counted stay far
    below sqrt(s).  A wrong count moves only J and the refusal, never the
    pass's own stop.  |s| q^y is one mpf product past the float range, and
    so is a count past it (as at q within 10**-300 of 1), so a refusal
    gives its size, not inf.  A q^y that underflows to 0 reads 1 term, and
    one that reads 1 meets the rule only at s = -n.
    """
    sf = float(s)
    # lgamma(s), or lgamma(1-s) for s <= 0, where |C(s+k-1,k)| = |C(-s,k)|
    ref = lgamma(sf) if sf > 0 else lgamma(1 - sf)
    # for s <= 0, -s = n + d with n the nearest integer and |d| <= 1/2,
    # both from the mpf s where the float of s is an integer; past k = n,
    # |C(-s,k)| = Gamma(1-s) |d| Gamma(k-n-d) / (Gamma(1+d) Gamma(1-d) k!)
    n = round(-sf) if -math.inf < sf <= 0 else None
    if n is not None:
        n = int(mp.nint(-s)) if sf.is_integer() else n
        d = float(-s - n) if sf.is_integer() else -sf - n
        log_d = math.log(abs(d)) if d else float(mp.log(abs(s + n)))
        past = ref + log_d - lgamma(1 + d) - lgamma(1 - d)

    def log_c(k: int) -> float:  # ln |C(s+k-1,k)|
        # past |s| = 10**15, |s+j| ~ |s| for j < k (see above)
        return (past + lgamma(k - n - d) if n is not None and k > n
                else k * float(mp.log(abs(s))) if not abs(sf) < 1e15
                else lgamma(sf + k) - ref if sf > 0
                else ref - lgamma(1 - sf - k)) - lgamma(k + 1)

    # where the float of s is an integer -n, the count from n + 1: the
    # exact truncation at s = -n, where ln |C(s+n,n+1)| is -inf
    c_n = log_c(n + 1) if n is not None and sf.is_integer() else None

    def geometric(k: int, c: float, log_qy: float, over: float) -> float:
        rest = max(0.0, c + (k + 1) * log_qy + over)
        count = k + 1 + rest / -log_qy
        return count if count < math.inf else k + 1 + rest / -mpf(log_qy)

    def count(j: int, cap: int | None = None) -> float:
        log_qy = (x + j * step) * log_q
        qy = math.exp(log_qy)
        if qy == 0 or not log_qy < 0:  # q^y underflows to 0, or reads 1
            return 1 if qy == 0 else n + 2 if c_n == -math.inf else math.inf
        gap = -math.expm1(log_qy)  # 1 - q^y
        over = math.log(2) - math.log(gap) - floor
        stop = math.inf if c_n is None else geometric(n + 1, c_n, log_qy, over)
        # |s| q^y, one mpf product past the float range
        sq = abs(sf) * qy if math.isfinite(sf) else float(abs(s) * qy)
        peak = (sq - 1) / (gap if sf > 0 else 1 + qy)
        if peak > 1e18:  # at least the peak
            return min(stop, peak if peak < math.inf else (mpf(sq) - 1) / gap)
        k0 = math.floor(max(peak, -1.0)) + 1
        estimate = geometric(k0, log_c(k0), log_qy, over)
        if cap is None or not estimate < min(stop, 1e18):
            return min(stop, estimate)

        def above(k: int) -> bool:
            # R_k = q^y max(1, |s+k|/(k+1)), and 1 - R_k
            r = abs(math.copysign(sq, sf) + k * qy) / (k + 1)
            rest = gap if r <= qy else 1 - r
            bound = 2 * max(r, qy) / (1 + math.exp(k * step * log_q))
            return rest <= 0 or (log_c(k) + k * log_qy
                                 + math.log(bound / rest) > floor)

        if stop <= cap or k0 < cap and not above(cap - 1):
            return min(stop, cap)
        return min(stop, 1 + _first_stop(above, k0))

    return count


def _shift(zq: ZetaQuery, s: mpf, logs: _Logs, step: int,
           residues: int = 1) -> int:
    """The number J of head terms to sum before the continuation series,
    for a pass at base b = q^step (zeta at step 1, or the residues of
    period `step`), after the term-count precheck at x + J step.  s is
    the pass's s, in the caller's working digits, and `logs` the floats
    of q and x (`_logs`).

    The continuation sum S(y) = sum_k C(s+k-1,k) q^(yk) / (1+b^k) has
    S(y) + S(y+step) = (1-q^y)^(-s), so

        S(x) = sum_(m<J) (-1)^m (1-q^(x+m step))^(-s)
               + (-1)^J S(x + J step):

    J raw head terms and a pass at x + J step, which needs about
    x / (x + J step) of the terms the pass at x needs.  The cost of J is
    the head, J residues HEAD_TERM_COST, plus the pass, its term count
    times 1 + (residues - 1) ROW_COST, one weighted row per further
    residue; it falls, then rises, in J, and J is its first rise, found
    by `_first_stop`, with J residues within MAX_HEAD_TERMS.  The count is
    `_series_count`, from the least k at which the pass's stop rule may
    hold, for every real s: its geometric count while J is chosen, and
    for the chosen J its count against the cap, from one probe of the
    rule at the cap and a search only to size a refusal.  At s = -n the
    count is at most the n + 2 terms of the exact truncation, also where
    q^x reads 1, so J is 0 there unless the rule stops the pass sooner.

    Refuses before summing what the pass cannot finish: NonConvergence when
    its count at x + J step passes MAX_ZETA_TERMS.  For s > 0 the unscaled
    head terms reach (1-q^x)^(-s), which the fixed-point ints carry in
    s log10(1/(1-q^x)) digits above wp: DomainError past
    MAX_CANCELLATION_DIGITS.  Where that float product leaves the range,
    s past about 10**308, it is taken as one mpf product with s; where
    ln(1-q^x) also reads 0, at its first-order size s q^x / ln 10, from
    the log of q^x, as `realnum.cancellation_digits` sizes V.  Past the
    float range a count that passes the cap comes from a |s| q^x that
    the growth check refuses too, and the growth is the reason given.
    """
    sf, x, log_q = float(s), float(zq.x.value), logs.q
    # the log of the pass's unscaled threshold (`_continuation_sums`), with
    # ln (1-q)^s one mpf product past the float range
    floor = min(-(zq.precision + 15) * math.log(10) - float(
        s * logs.one_minus_q if math.isinf(sf) else sf * logs.one_minus_q),
        (MAX_CANCELLATION_DIGITS + 20) * math.log(10))

    count = _series_count(s, floor, x, step, log_q)

    def cost(j: int) -> float:
        return (j * residues * HEAD_TERM_COST
                + (1 + (residues - 1) * ROW_COST) * count(j))

    cap = MAX_HEAD_TERMS // residues  # cost falls, then rises, in J
    lo = min(_first_stop(lambda j: j < cap and cost(j + 1) < cost(j), 0), cap)
    needed = count(lo, MAX_ZETA_TERMS)
    log_gap = logs.gap + logs.one_minus_q  # ln(1-q^x)
    growth = 0.0 if s <= 0 else -sf * log_gap / math.log(10)
    if not math.isfinite(growth):  # s past the float range: mpf products
        growth = (-s * log_gap if log_gap else s * mp.exp(logs.qx)) \
            / math.log(10)
    if needed > MAX_ZETA_TERMS and not (
            math.isinf(sf) and growth > MAX_CANCELLATION_DIGITS):
        raise NonConvergence(
            f"the continuation series needs about {_rough(needed)} terms "
            f"at q = {show_rational(zq.q.q)}, more than its cap of "
            f"{MAX_ZETA_TERMS}")
    if growth > MAX_CANCELLATION_DIGITS:
        raise DomainError(
            f"the continuation series at s = {mp.nstr(zq.s.value, 15)} "
            f"grows to about {_rough(growth)} digits, more than "
            f"{MAX_CANCELLATION_DIGITS}")
    return lo


def _continuation_sums(s: mpf, precision: int, scale: mpf, qy_fix: int,
                       base_fix: int, wp: int,
                       weights: Sequence[int] = ()) -> tuple[list[int], int]:
    """Fixed-point sums, at binary point wp in the caller's working digits,
    of the continuation series sum_k C(s+k-1,k) q^(yk) / (1+base^k), at
    precision P, with q^y and base given at wp and scale = (1-q)^s, the
    factor the caller puts on the sums: [plain sum] followed by one sum
    per weight w, whose term k is the plain one times w^k (w at most 1; a
    sum is skipped once w^k underflows to 0), and the number of terms
    summed.

    One loop makes and sums the terms: the numerator
    u_k = C(s+k-1,k) q^(yk) is one int, updated by *(s+k) q^y / (k+1),
    and base^k another.  Stop after term k once the scaled tail is at most
    10**-(P+15).  The ratio |s+j|/(j+1) q^y of consecutive numerators is
    at most R_j = q^y max(1, |s+j|/(j+1)), which never rises in j, for
    every real s, and |u_k| <= 2 |term|; so from any k with R_k < 1 the
    tail is at most 2 |term| R_k / (1-R_k), which must be at most
    10**-(P+15) / scale.  The weighted terms are at most the plain ones,
    so the rule covers every sum.  Stop too once u is exactly 0, as it is
    from k = n+1 at s = -n, unless the rule stops the pass sooner: every
    later term and weighted term is then 0, so every sum keeps its bits.
    The unscaled threshold is capped at
    10**(MAX_CANCELLATION_DIGITS + 20), above every term the precheck
    (`_shift`) admits, so it stays a bounded int.  Raises NonConvergence
    when the loop reaches MAX_ZETA_TERMS terms.
    """
    one = 1 << wp
    s_fix = _to_fixed(s, wp)
    threshold = _to_fixed(min(
        _power_of_ten(-(precision + 15), mp.prec) / scale,
        _power_of_ten(MAX_CANCELLATION_DIGITS + 20, mp.prec)), wp)
    # the rule can hold only once |term| <= limit, its bound at the least
    # R, q^y
    qy_up = qy_fix + 1  # at least q^y
    limit = threshold * (one - qy_up) // (2 * qy_up)
    # one row [w, w^k, sum] per weight, skipped once its w^k is 0
    rows = [[w, one, 0] for w in weights]
    total = 0
    u = one      # C(s+k-1, k) q^(yk)
    power = one  # base^k
    for k in range(MAX_ZETA_TERMS):
        term = (u << wp) // (one + power)
        total += term
        for row in rows:
            weight = row[1]
            if weight:
                row[2] += term * weight >> wp
                row[1] = weight * row[0] >> wp
        if abs(term) <= limit:
            r = (qy_up * max(one, abs(s_fix + k * one) // (k + 1)) >> wp) + 1
            if r < one and 2 * abs(term) * r <= threshold * (one - r):
                break
        u = ((u * (s_fix + k * one) >> wp) * qy_fix >> wp) // (k + 1)
        if not u:  # every later term is 0
            break
        power = power * base_fix >> wp
    else:
        raise NonConvergence(
            f"the continuation series did not settle within "
            f"{MAX_ZETA_TERMS} terms")
    return [total] + [row[2] for row in rows], k + 1


def _head_sum(s: mpf, gap: mpf, step_gap: mpf, step: mpf, count: int,
              wp: int) -> int:
    """sum_(m<count) (-1)^m (1-q^(y+md))^(-s) at binary point wp, from
    gap = 1 - q^y, step_gap = 1 - q^d and step = q^d.  Each gap is
    1 - q^(y+(m+1)d) = (1-q^d) + q^d (1-q^(y+md)), a sum of positive parts,
    so no gap cancels, however near 1 q^(y+md) is.  -s is taken once, and
    each term's power and gap run on mpmath's raw values at the context's
    precision and rounding, as mp.power and the mpf operators round them."""
    prec, rounding = mp._prec_rounding
    neg, gap = (-s)._mpf_, gap._mpf_
    step_gap, step = step_gap._mpf_, step._mpf_
    total = 0
    for m in range(count):
        term = to_fixed(mpf_pow(gap, neg, prec, rounding), wp)
        total += -term if m % 2 else term
        gap = mpf_add(step_gap, mpf_mul(step, gap, prec, rounding), prec,
                      rounding)
    return total


def zeta(zq: ZetaQuery) -> RealP:
    """Euler q-zeta value: the one row (0, +1, 0) of `_continued` at step
    1, J head terms plus (-1)^J times the continuation series at x + J,
    in P + GUARD_DIGITS + `cancellation_digits` working digits.  At s = -n
    the series has exactly n+1 nonzero terms, and J = 0 unless the stop
    rule ends it sooner.  s and x are taken
    from their exact rationals when they have them.  Raises NonConvergence
    past MAX_ZETA_TERMS terms.
    """
    return _continued(zq, 1, [(0, 1, 0)])


def _continued(zq: ZetaQuery, step: int,
               rows: Sequence[tuple[int, int, int]],
               order: int = 1) -> RealP | ComplexP:
    """sum over rows (d, sign, e) of sign exp(2 pi i e / order) Z(x + d),
    the offsets d >= 0 ascending from d = 0, where

        Z(y) = (1-q)^s sum_m (-1)^m (1-q^(y+m step))^(-s)
             = (1-q)^s sum_k C(s+k-1,k) q^(yk) / (1+q^(step k))

    in the Abel sense: zeta(s, x) = Z(x) at step 1, and
    H_q(s, a; F) = (-1)^a Z(a) at step F, since [F]_q^(-s) (1-q^F)^s =
    (1-q)^s and (q^F)^(a/F) = q^a.  Returns RealP when order <= 2, else
    ComplexP.

    `_shift` picks J head terms for all rows at once; each row adds its
    raw head (`_head_sum`) and (-1)^J times the series at y + J step.  One
    pass of `_continuation_sums` runs the series at x + J step, with
    weight q^d for each further row, so the pass's term-count precheck and
    stop rule at x serve every row.  The working digits are those of x: V
    at x is the largest over the rows, and it bounds the head terms and
    the scaled terms in absolute sum.  The scale (1-q)^s and the character
    sum are applied in those working digits, so a value far above 1 keeps
    the absolute 10**-(P-10).

    Each power is taken on its own (`power`): q^y, for y = x + J step,
    step and each d, and each head's 1 - q^y, for y = x + d and step, is
    the exact rational, from a^y and b^y for q = a/b (`_exact_power`),
    rounded once when y is an integer whose power stays within
    _MAX_EXACT_POWER_BITS, else exp or expm1 of y ln q, with ln q
    taken once, on the first power that needs it.  The series and the
    weights take them as ints at wp, the heads as mpfs.
    """
    q = zq.q.q
    logs = _logs(q, zq.x.value)
    with mp.workdps(_working_digits(zq, logs, magnified=True)):
        s, x = zq.s.exact_value(), zq.x.exact_value()
        shift = _shift(zq, s, logs, step, len(rows))
        wp = mp.prec + WORD_GUARD_BITS
        exact, bits = zq.x.exact, q.denominator.bit_length()
        if exact is not None and exact.denominator == 1:
            x = exact.numerator
        ln_q = None

        def power(y, gap=False, fixed=False):
            """q^y, or 1 - q^y with `gap`, as an mpf or an int at wp with
            `fixed`: the exact rational rounded once when y is an int with
            y times the bits of q's denominator at most
            _MAX_EXACT_POWER_BITS, else exp or expm1 of y ln q."""
            nonlocal ln_q
            if isinstance(y, int) and y * bits <= _MAX_EXACT_POWER_BITS:
                return _exact_power(q, y, gap, wp if fixed else None)
            ln_q = _ln(q) if ln_q is None else ln_q
            r = -mp.expm1(y * ln_q) if gap else mp.exp(y * ln_q)
            return _to_fixed(r, wp) if fixed else r

        scale = mp.power(to_mpf(1 - q), s)
        sums, _ = _continuation_sums(
            s, zq.precision, scale, power(x + shift * step, fixed=True),
            power(step, fixed=True), wp,
            [power(d, fixed=True) for d, _, _ in rows[1:]])
        if shift:
            step_gap, step_power = power(step, gap=True), power(step)
        by_exponent: dict[int, int] = {}
        for (d, sign, e), part in zip(rows, sums):
            if shift % 2:
                part = -part
            if shift:
                part += _head_sum(s, power(x + d, gap=True), step_gap,
                                  step_power, shift, wp)
            by_exponent[e] = by_exponent.get(e, 0) + sign * part
        value = _root_sum(by_exponent, order)
        if isinstance(value, mpc):
            return ComplexP(scale * value * _from_fixed(1, wp), zq.precision)
        return RealP(scale * _from_fixed(value, wp), zq.precision)


def partial_zeta(s: RealP, a: int, period: int, q: QBase,
                 precision: int = DEFAULT_PRECISION) -> RealP:
    """Partial q-zeta over the residue class a mod F (F odd and below
    2**1010, 0 < a < F):

        H_q(s, a; F) = [F]_q^(-s) (-1)^a zeta_{E,q^F}(s, a/F),

    since [a+nF]_q = [F]_q [n+a/F]_(q^F): the one row (0, (-1)^a, 0) of
    `_continued` at x = a and step F.  Each of q^(a+JF), q^F and the
    heads' 1 - q^a and 1 - q^F is exact, rounded once, while its bits stay
    within _MAX_EXACT_POWER_BITS, and comes from exp or expm1 of y ln q
    past them, so a large F or a q with a long denominator builds no huge
    power.
    """
    _check_residue(a, period)
    x = RealP.from_rational(Fraction(a), precision)
    return _continued(ZetaQuery(s, x, q, precision), period,
                      [(0, (-1) ** a, 0)])


def l_function(s: RealP, chi, q: QBase,
               precision: int = DEFAULT_PRECISION) -> RealP | ComplexP:
    """q-L-function l_{E,q}(s, chi) = sum_{n>=1} (-1)^n chi(n) / [n]_q^s,
    computed through the residue-class decomposition

        l_{E,q}(s, chi) = sum_{a=1..F} chi(a) H_q(s, a; F),  F = modulus,

    for a character chi given by its modulus, order and exponent table
    (`characters.DirichletCharacter`).  F must be odd, as in
    `partial_zeta`: for even F, (-1)^(a+mF) is not (-1)^(a+m), and
    DomainError says so.  Residues with gcd(a, F) > 1 drop out through
    chi; F = 1 leaves a = 1, where H_q(s, 1; 1) = -zeta_{E,q}(s, 1).  Each
    unit a is one row of `_continued` at step F, as in `partial_zeta`: its
    offset from the smallest unit, the sign (-1)^a and chi's exponent.
    All rows sum in one pass of the continuation series at the smallest
    unit; each other unit rides along with the weight (q^(a-a_min))^k, and
    the smallest unit's stop rule covers every unit because its terms
    dominate theirs.  Returns RealP for real characters, ComplexP
    otherwise.
    """
    F = chi.modulus
    _check_period(F)
    units = [a for a in range(1, F + 1) if chi.exponents[a % F] is not None]
    x = RealP.from_rational(Fraction(units[0]), precision)
    return _continued(ZetaQuery(s, x, q, precision), F,
                      [(a - units[0], (-1) ** a, chi.exponents[a % F])
                       for a in units], chi.order)


def _root_sum(coefficients: dict[int, int], order: int):
    """sum_e c_e exp(2 pi i e / order): exact, each c_e signed, when every
    root is +1 or -1 (e = 0 or 2e = order), else an mpc at the context's
    precision, each c_e rounded to it before its root multiplies it."""
    if all(e == 0 or 2 * e == order for e in coefficients):
        return sum(-c if e else c for e, c in coefficients.items())
    total = mp.mpc(0)
    for e in sorted(coefficients):
        total += to_mpf(coefficients[e]) * _root(e, order, mp.prec)
    return total


@lru_cache(maxsize=ROOT_CACHE_SIZE)
def _root(e: int, order: int, prec: int) -> mpc:
    """exp(2 pi i e / order) at prec bits."""
    with mp.workprec(prec):
        return mp.expjpi(mpf(2 * e) / order)

