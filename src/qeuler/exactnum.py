"""Exact rational arithmetic, in the standard library alone.

Rational values are plain :class:`fractions.Fraction` objects: exact, always
in lowest terms, denominator positive, closed under +, -, *, /.  Everything
identity-level in this package is computed with them.  Values that cannot
stay rational (zeta and L-function evaluations at general arguments) are
carried as `realnum.RealP`, an mpmath float tagged with the decimal
precision it is certified to; `realnum` imports this module, and this
module imports neither it nor mpmath at its top.

Precision contract: an operation documented as "at precision P" computes
with at least ``P + GUARD_DIGITS`` working digits and returns a value whose
absolute error is at most ``10**-(P - 10)``.  GUARD_DIGITS and
DEFAULT_PRECISION live here as plain ints, so a caller can read them
without loading mpmath.

This module works in Fractions and integers: `format_rational`,
`show_rational`, `parse_rational`, `iroot`, `rat_pow`, the validated base
`QBase`, the validated zeta arguments `ZetaQuery`, the odd-period check
`_check_period`, the residue check `_check_residue` (which runs it first)
and the power sums' argument check `_check_sum_args`.  The exact kernels
(`qnumbers`) and the continuation (`qzeta`) take `QBase` and both period
checks from here, so that neither imports the other; both zeta routes
(`qzeta`, `cvz`) take `ZetaQuery`, whose s and x are `realnum.RealP`
values it reads without importing `realnum`; `qnumbers` and `classical`
take `_check_sum_args`, so that both sum routes refuse an exponent or
length below 1 with one text.
The records `QBase` and `ZetaQuery` are `collections.namedtuple`
subclasses that check their fields in `__new__`.  Every other record of
the package is a `collections.namedtuple` subclass too, so no module of
the package imports `dataclasses`, and the exact layer loads neither it
nor the `inspect` it imports.
`show_rational` loads mpmath only for a value past the int-to-str limit.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, NotExactPower

#: Working digits carried on top of a requested precision P.  Results are
#: certified only to 10**-(P-10), leaving a 30-digit cushion for rounding
#: and series truncation.
GUARD_DIGITS = 20

#: Default certified precision (decimal digits) for real-valued results.
DEFAULT_PRECISION = 50


def format_rational(value: Fraction | int) -> str:
    """Canonical serialization "num/den", denominator printed even when 1;
    DomainError past the interpreter's int-to-str digit limit."""
    fr = Fraction(value)
    try:
        return f"{fr.numerator}/{fr.denominator}"
    except ValueError as exc:
        raise DomainError(
            f"exact value too long to print: more than "
            f"{sys.get_int_max_str_digits()} digits") from exc


def show_rational(value: Fraction | int) -> str:
    """str(value) for a message; past the interpreter's int-to-str digit
    limit, where str raises, "about" and its 15-digit decimal instead."""
    try:
        return str(value)
    except ValueError:
        from mpmath import mp
        from .realnum import to_mpf
        with mp.workdps(15):
            return f"about {mp.nstr(to_mpf(value), 15)}"


#: A decimal text with an exponent: its mantissa (no slash, space or
#: second exponent) and the exponent.
_EXPONENT = re.compile(r"([^/\seE]*)[eE]([-+]?\d+(?:_\d+)*)")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a finite decimal string to an exact Fraction.

    A text with an exponent is bounded before it is built, since Fraction
    would take 10**|exponent| first: a nonzero mantissa whose |exponent|
    exceeds the int-to-str digit limit plus the mantissa's length gives a
    numerator or denominator past that limit, and is refused as too long.
    A zero mantissa is 0 whatever its exponent."""
    split = _EXPONENT.fullmatch(text.strip())
    try:
        if split is None:
            return Fraction(text.strip())
        mantissa, exponent = Fraction(split[1]), int(split[2])
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc
    limit = sys.get_int_max_str_digits()
    if mantissa and limit and abs(exponent) > limit + len(split[1]):
        raise DomainError(f"rational too long: {text!r} has more than "
                          f"{limit} digits as num/den")
    return mantissa * Fraction(10) ** exponent if mantissa else mantissa


def iroot(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0 together with an exactness flag.

    Integer Newton iteration started from a power-of-two overestimate; no
    floating point is involved, so the exactness flag is trustworthy at any
    magnitude.  A degree k >= n.bit_length() gives 1 < n**(1/k) < 2 at
    once, whatever the size of k.
    """
    if n < 0 or k < 1:
        raise DomainError("iroot requires n >= 0, k >= 1")
    if k == 1 or n in (0, 1):
        return n, True
    if k >= n.bit_length():
        return 1, False
    x = 1 << -(-n.bit_length() // k)  # 2**ceil(bits/k) >= n**(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x, x ** k == n


def rat_pow(q: Fraction, r: Fraction) -> Fraction:
    """Exact q**r for rational q > 0 and r = a/f, when the value is rational.

    q**a is computed exactly, then the f-th root is extracted from numerator
    and denominator separately; if either root is inexact the whole power is
    irrational and NotExactPower is raised.  Exactness never degrades to an
    approximation here.
    """
    q = Fraction(q)
    r = Fraction(r)
    if q <= 0:
        raise DomainError("a fractional power q^x needs q > 0")
    power = q ** r.numerator
    f = r.denominator
    num, num_exact = iroot(power.numerator, f)
    den, den_exact = iroot(power.denominator, f)
    if not (num_exact and den_exact):
        raise NotExactPower(
            f"({show_rational(q)})**({show_rational(r)}) is irrational")
    return Fraction(num, den)


class QBase(namedtuple("QBase", "q zeta_domain")):
    """A validated q parameter.

    q must avoid {0, 1, -1} so that 1-q and every 1+q^j stay nonzero.
    With `zeta_domain` set the base is additionally confined to 0 < q < 1,
    the convergence regime of the zeta-side series; q > 0 is required
    whenever fractional powers of q are taken.
    """

    __slots__ = ()

    def __new__(cls, q: Fraction, zeta_domain: bool = False) -> QBase:
        q = q if type(q) is Fraction else Fraction(q)
        a, b = q.numerator, q.denominator
        if a == 0 or abs(a) == b:
            raise DomainError("q must avoid 0, 1 and -1")
        if zeta_domain and not 0 < a < b:
            raise DomainError("zeta domain requires 0 < q < 1")
        return super().__new__(cls, q, zeta_domain)


class ZetaQuery(namedtuple("ZetaQuery", "s x q precision")):
    """Arguments for a q-zeta evaluation: real s, real x > 0 (each a
    `realnum.RealP`, read here only for x's value), rational 0 < q < 1,
    and the certified output precision (P >= 15)."""

    __slots__ = ()

    def __new__(cls, s, x, q: QBase,
                precision: int = DEFAULT_PRECISION) -> ZetaQuery:
        # assert the zeta-side domain 0 < q < 1 unless the base already has
        if not q.zeta_domain:
            q = QBase(q.q, zeta_domain=True)
        if precision < 15:
            raise DomainError("precision must be at least 15")
        if not x.value > 0:
            raise DomainError("x must be positive")
        return super().__new__(cls, s, x, q, precision)


def _check_period(period: int) -> None:
    if period % 2 == 0:
        raise DomainError("the period F must be odd")


def _check_residue(a: int, period: int) -> None:
    _check_period(period)
    if not 0 < a < period:
        raise DomainError("need 0 < a < F")
    # `qzeta._shift` prices x + J F, x < F and J <= MAX_HEAD_TERMS <
    # 2**14, in floats, which stop short of 2**1024
    if period.bit_length() > 1010:
        raise DomainError("the period F must be below 2**1010")


def _check_sum_args(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise DomainError("need exponent m >= 1 and length n >= 1")
