"""Precision-tracked real arithmetic: the numeric half beside `exactnum`.

Values that cannot stay rational (zeta and L-function evaluations at
general arguments) are carried as :class:`RealP`, an mpmath float tagged
with the decimal precision it is certified to, or as :class:`ComplexP`
where character values leave the real line.  The precision contract and
its guard digits are `exactnum`'s; this module adds the rounding of an
exact rational to mpmath (`to_mpf`) and the certified bound
(`tolerance`).

Both zeta routes, the continuation (`qzeta`) and CVZ (`cvz`), take their
working digits and fixed-point word from here: P + GUARD_DIGITS plus the
digits their terms can cancel (`cancellation_digits`, from the float logs
of q and x, `_logs`), and a binary point WORD_GUARD_BITS past the
context's precision.

This module imports mpmath at its top; the exact layer (`exactnum`,
`qnumbers`, `classical`, `characters`) imports it at most inside a
function, so an exact computation loads no mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest, to_fixed

from .errors import DomainError
from .exactnum import (DEFAULT_PRECISION, GUARD_DIGITS, parse_rational,
                       show_rational)

#: Most digits either zeta route adds for cancellation (`cancellation_digits`),
#: which bounds the working digits: at q = 1/2, x = 1 it admits s down to
#: about -830.  Also the most digits the continuation's unscaled sum may
#: reach at s > 0 (`qzeta._continuation_sums`): at q = 1/2, x = 1, s up to
#: 1660.
MAX_CANCELLATION_DIGITS = 500

#: Bits the fixed-point word carries beyond the context's precision, which
#: already holds the digits of V: room for one rounding in each of up to
#: 2**18 terms, with 6 bits to spare.
WORD_GUARD_BITS = 24


def to_mpf(value: Fraction | int) -> mpf:
    """Exact rational -> mpf at the current working precision, rounded once
    to nearest."""
    return mp.make_mpf(from_rational(value.numerator, value.denominator,
                                     mp.prec, round_nearest))


def tolerance(precision: int) -> mpf:
    """The certified absolute error bound 10**-(P-10) at precision P."""
    return mpf(10) ** (-(precision - 10))


@dataclass(frozen=True)
class RealP:
    """An arbitrary-precision real certified to `precision` decimal digits.

    The wrapped mpf was produced under at least ``precision + GUARD_DIGITS``
    working digits; downstream consumers re-enter that working precision
    before operating on it.  A value built from a rational also keeps it as
    `exact`, so a series that works with more digits than that can take the
    value from it (`exact_value`).
    """

    value: mpf
    precision: int = DEFAULT_PRECISION
    exact: Fraction | None = None

    def __post_init__(self) -> None:
        if self.precision < 1:
            raise DomainError("precision must be a positive digit count")

    @classmethod
    def from_rational(cls, value: Fraction | int | str,
                      precision: int = DEFAULT_PRECISION) -> RealP:
        """Build from an exact rational given as Fraction, int, "p/q" or a
        finite decimal string."""
        fr = value if isinstance(value, Fraction) else parse_rational(str(value))
        with mp.workdps(precision + GUARD_DIGITS):
            return cls(to_mpf(fr), precision, fr)

    def exact_value(self) -> mpf:
        """The value at the context's precision: rounded afresh from
        `exact` when there is one, else the stored mpf."""
        return self.value if self.exact is None else to_mpf(self.exact)

    def digits(self) -> str:
        """Decimal string whose last digit is as fine as the contract:
        P + max(0, floor(log10|v|)) significant digits (`_printed`)."""
        return _printed(self.value, self.precision)


@dataclass(frozen=True)
class ComplexP:
    """Precision-tagged complex companion of :class:`RealP`, used where
    character values leave the real line."""

    value: object  # mpmath.mpc
    precision: int = DEFAULT_PRECISION

    def digits(self) -> str:
        """Real and imaginary parts, each printed as `RealP.digits`."""
        re = _printed(self.value.real, self.precision)
        im = _printed(self.value.imag, self.precision)
        joiner = "" if im.startswith("-") else "+"
        return f"{re}{joiner}{im}i"


def _printed(value: mpf, precision: int) -> str:
    """value with P + max(0, floor(log10|value|)) significant digits, so
    its last digit is at most 10**-(P-1) whatever its size; values below
    10 in size print exactly P digits."""
    whole = len(str(int(abs(value)))) - 1  # floor(log10|value|) if >= 1
    digits = precision + whole
    with mp.workdps(digits + GUARD_DIGITS):
        return mp.nstr(value, digits, strip_zeros=False)


class _Logs(NamedTuple):
    """ln q, ln(1-q), the gap ln((1-q^x)/(1-q)) and ln q^x = x ln q in
    floats, taken once for a value (`_logs`) and passed to each step that
    reads them."""

    q: float
    one_minus_q: float
    gap: float
    qx: float


def _logs(q: Fraction, x: mpf) -> _Logs:
    """The `_Logs` of q and x.  Near x = 1 the gap is
    ln(1 - q (q^(x-1) - 1)/(1-q)), exactly 0 at x = 1, while q itself
    stays in the float range; elsewhere ln(1-q^x) - ln(1-q), with
    ln(1-q^x) = log1p(-q^x) once q^x is below 10**-16, where
    ln(-expm1(x ln q)) reads 0, and = ln(-x ln q) once -x ln q is below
    10**-300, where x may lie below the float range.  DomainError when
    ln q lies below it (q within about 10**-308 of 1)."""
    log_q, log_one_minus_q = _log(q), _log(1 - q)
    if not log_q:
        raise DomainError(f"q = {show_rational(q)} lies too close to 1 "
                          f"for the zeta series")
    if abs(x - 1) <= 0.5 and (log_q > -700 or x == 1):  # q, q^(x-1) too
        gap = math.log1p(-float(q) * math.expm1(float(x - 1) * log_q)
                         / float(1 - q))
    else:
        scaled = float(x) * -log_q
        gap = (math.log1p(-math.exp(-scaled)) if scaled > 37
               else math.log(-math.expm1(-scaled)) if scaled > 1e-300
               else float(mp.log(x)) + math.log(-log_q)) - log_one_minus_q
    return _Logs(log_q, log_one_minus_q, gap, float(x) * log_q)


def cancellation_digits(s: mpf, logs: _Logs, magnified: bool = False) -> int:
    """max(0, ceil(log10 V)) with V = (1-q)^s (1-q^x)^(-|s|), from the
    logs of q and x (`_logs`), and with `magnified` the digits of |s| past
    GUARD_DIGITS on top.

    V bounds the terms of both zeta routes, and the value, in absolute
    size: the continuation terms sum in absolute value to at most V, and V
    is the total variation of the measure whose moments CVZ sums.  Both
    routes work with this many digits on top of P + GUARD_DIGITS, so
    cancellation among terms of size V still leaves 10**-(P+20).

    log10 V = s log10(1-q) - |s| log10(1-q^x) is taken in floats in the
    log domain.  For s >= 0 it is -s ln((1-q^x)/(1-q)) / ln 10, exactly 0
    at x = 1 however large s is.  A float factor can leave its range:
    ln(1-q) = -q and the gap read 0 once q and q^x fall below about
    10**-323, and s reads +-inf past about 10**308.  There log10 V is
    taken at the bound 2 |s| max(q, q^x) / ln 10, from the logs of q and
    q^x as one mpf product, never a float: to first order in q and q^x,
    log10 V is at most |s| (q + q^x) / ln 10 for s < 0, and
    |s| q^x / ln 10 for s >= 0, where it exceeds 0 only at x < 1.  Where
    q or q^x is not small, |s| past 10**308 puts the bound far past the
    cap, as V is, and the refusal gives its size past the float range.

    The continuation (`qzeta._continued`) passes `magnified`: it rounds
    1 - q and q^x to its working digits, and s multiplies each rounding
    error, into the scale (1-q)^s and into every term past the first, so
    it carries the digits of |s| past GUARD_DIGITS on top.  Without them,
    at q = 10**-60, s = 10**60 and P + GUARD_DIGITS digits, 1 - q reads 1
    and q^x reads 0, and the terms past the first are lost.  CVZ
    carries log2 |s| more bits in its brackets instead
    (`cvz._bracket_powers`).

    Raises DomainError when V and the digits of |s| need more than
    MAX_CANCELLATION_DIGITS.
    """
    s_float = float(s)
    factor = -logs.gap if s_float >= 0 \
        else 2 * logs.one_minus_q + logs.gap
    if (not factor or math.isinf(s_float)) \
            and (s_float < 0 or logs.qx > logs.q):  # out of the float range
        s_float, factor = 1.0, 2 * abs(s) * mp.exp(max(logs.q, logs.qx))
    log10_v = s_float * factor / math.log(10) if factor else 0.0
    extra = max(0, math.ceil(max(0, mp.mag(s)) * math.log10(2))
                - GUARD_DIGITS) if magnified else 0
    if log10_v + extra > MAX_CANCELLATION_DIGITS:
        raise DomainError(
            f"the zeta series at s = {mp.nstr(s, 15)} loses about "
            f"{_rough(log10_v + extra)} digits, more than "
            f"{MAX_CANCELLATION_DIGITS}")
    return math.ceil(max(0.0, log10_v)) + extra


def _rough(count: float | mpf) -> str:
    """A count for a refusal's text: whole below 10**15, past it 3
    significant digits (4.34e+99), not a float's whole expansion; an mpf
    past the float range in mpmath's 3 digits (3.01e+399), not inf."""
    rough = float(count)
    if math.isinf(rough):
        return mp.nstr(count, 3)
    return f"{rough:.0f}" if rough < 1e15 else f"{rough:.3g}"


def _log(r: Fraction) -> float:
    """ln r in floats for a rational 0 < r < 1, keeping its digits near 1
    and its range near 0."""
    n, d = r.numerator, r.denominator
    if 2 * n > d:
        return math.log1p((n - d) / d)
    return math.log(n) - math.log(d)


def _working_digits(zq, logs: _Logs, magnified: bool = False) -> int:
    """P + GUARD_DIGITS + `cancellation_digits` for a zeta query, read
    duck-typed: its precision and its s as a `RealP`."""
    return zq.precision + GUARD_DIGITS + cancellation_digits(
        zq.s.value, logs, magnified)


def _to_fixed(value: mpf, wp: int) -> int:
    """floor(value * 2**wp)."""
    return to_fixed(value._mpf_, wp)


def _from_fixed(man: int, wp: int) -> mpf:
    """man * 2**-wp, rounded to the context's precision."""
    return mpf((man, -wp))


def _ln(q: Fraction) -> mpf:
    """ln q at the context's precision for a rational 0 < q < 1, keeping
    its digits near 1 and its range near 0 (as `_log`)."""
    return mp.log1p(to_mpf(q - 1)) if 2 * q > 1 else mp.log(to_mpf(q))
