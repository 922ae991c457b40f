"""Modified q-Euler numbers and polynomials with their sum identities.

The q-integer is [k]_q = (1-q^k)/(1-q).  The q-Euler numbers E_{n,q} come
from the alternating exponential generating function 2 sum_l (-1)^l e^([l]t)
and have the closed form

    E_{n,q} = 2 (1/(1-q))^n sum_{j<=n} C(n,j) (-1)^j / (1+q^j),

with the j = 0 term reading 1/(1+q^0) = 1/2.  Polynomials E_{n,q}(x) shift
the generating function by [x]_q; the argument x enters the closed form only
through q^x, so every evaluator here consumes a :class:`QPower` carrying an
exact rational t = q^x.  Callers prove exactness by constructing t; nothing
in this module silently approximates.

The star variants E*_{n,q} and E*_{n,q}(x) weight the alternating sum by
q^l, shifting the denominators to 1+q^(j+1) and the prefactor to [2]_q.

Everything is exact.  Each value is built as one integer numerator over
one integer denominator and reduced once into a Fraction, instead of
reducing after every term: the kernel's values, the direct sums, the
closed sums, which combine the kernel's unreduced numerator and
denominator with E_{m,q} and q^n, and the three kinds of value whose
kernels at base q^f share one denominator (`_distribution_terms`): the
distribution sums and the exact s = -n values, the partial zeta's and
the generalized q-Euler numbers of a Dirichlet character.  Every
closed-form identity has a brute-force partner it can be compared with
bit for bit.

The kernel (`_kernel_parts`) takes q = a/b and t = c/d as four integers.
One memo (`_kernel`, an lru_cache of KERNEL_CACHE_SIZE entries keyed by
n, a, b, c, d and the shift, in lowest terms) holds the reduced values of
all four closed forms: the numbers are its entries at c = d = 1, where a
polynomial at t = 1 finds them, and the closed sums take their number
from it.  The unreduced parts the closed and distribution sums combine
are not memoized.

At its top this module imports only `errors` and `exactnum` (`QBase`,
the period checks `_check_period` and `_check_residue`, `rat_pow` and the
precision constants, and the sums' argument check `_check_sum_args`,
shared with `classical`).  The exact s = -n values take their q through
`QBase(q, zeta_domain=True)`, as their numeric twins do through
`exactnum.ZetaQuery`.  mpmath and `realnum` load only in the complex
branch of `generalized_q_euler`, for a character of order above 2, so
every exact value loads no mpmath.  It reaches neither route it is
checked against: the binomial form over the recurrence numbers
(`classical.q_euler_poly_via_numbers`, thm2 and thm4) and the
continuation (`qzeta`, partial-zeta and lfunction).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import DomainError
from .exactnum import (DEFAULT_PRECISION, GUARD_DIGITS, QBase, _check_period,
                       _check_residue, _check_sum_args, rat_pow)

#: Most kernel values (numbers and polynomials, plain and star, any n, q
#: and t) kept in memory (`_kernel`).
KERNEL_CACHE_SIZE = 4096


class QPower(namedtuple("QPower", "base t exponent")):
    """An exact power t = q^y of a QBase, with an optional witness exponent.

    When `exponent` y = a/f is present, t^f == q^a holds exactly; the pair
    is how fractional arguments reach the polynomial evaluators without any
    loss of exactness.
    """

    __slots__ = ()

    def __new__(cls, base: QBase, t: Fraction,
                exponent: Fraction | None = None) -> QPower:
        t = t if type(t) is Fraction else Fraction(t)
        if t.numerator <= 0:
            raise DomainError("t must be positive")
        y = exponent
        if y is not None:
            y = y if type(y) is Fraction else Fraction(y)
            # t^f == r^|a| for y = a/f and r = q^sign(a), in integers
            a, f = y.numerator, y.denominator
            r = base.q if a >= 0 else 1 / base.q
            if t.numerator ** f * r.denominator ** abs(a) \
                    != r.numerator ** abs(a) * t.denominator ** f:
                raise DomainError("t does not equal q**exponent")
        return super().__new__(cls, base, t, y)

    @classmethod
    def from_exponent(cls, base: QBase, y: Fraction) -> QPower:
        """t = q^y: exact powering for integer y, so for any valid base,
        else exact root extraction, which needs q > 0; NotExactPower if
        irrational."""
        y = Fraction(y)
        return cls(base, base.q ** y.numerator if y.denominator == 1
                   else rat_pow(base.q, y), y)

    #: t = q^x for integer x, exact for any valid base
    from_integer = from_exponent


def q_int(k: int, q: QBase) -> Fraction:
    """q-integer [k]_q = (1-q^k)/(1-q) = 1 + q + ... + q^(k-1)."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    return (1 - q.q ** k) / (1 - q.q)


def _kernel_parts(n: int, a: int, b: int, c: int, d: int,
                  shift: int) -> tuple[int, int]:
    """(1+q^shift) (1/(1-q))^n sum_{j<=n} C(n,j) (-1)^j t^j / (1+q^(j+shift))
    at q = a/b and t = c/d, the one sum behind all four closed forms:
    shift 0 (prefactor 2) gives E_{n,q}(x), shift 1 (prefactor [2]_q)
    gives E*_{n,q}(x), and t = 1 gives the numbers.

    Built in integers, as one unreduced numerator over one denominator:
    (b^shift + a^shift) b^n / ((b-a)^n d^n) times
    sum_j C(n,j) (-1)^j (bc)^j d^(n-j) / (b^(j+shift) + a^(j+shift)); the
    sum is kept as one numerator over the product of its denominators.
    Neither fraction need be in lowest terms.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    num, den = 0, 1
    pole_a, pole_b = a ** shift, b ** shift  # a^(j+shift), b^(j+shift)
    bc_power, d_power = 1, d ** n  # (bc)^j, d^(n-j)
    for j in range(n + 1):
        term = comb(n, j) * bc_power * d_power
        pole = pole_b + pole_a
        num = num * pole + (-term if j % 2 else term) * den
        den *= pole
        pole_a *= a
        pole_b *= b
        bc_power *= b * c
        d_power //= d
    return ((b ** shift + a ** shift) * b ** n * num,
            (b - a) ** n * d ** n * den)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _kernel(n: int, a: int, b: int, c: int, d: int, shift: int) -> Fraction:
    """The kernel (`_kernel_parts`) at q = a/b and t = c/d in lowest terms,
    reduced, and the one memo of the four closed forms: the numbers are
    its values at c = d = 1, so a polynomial at t = 1 finds its number.
    It is keyed by integers: a Fraction's hash is a modular inverse, taken
    afresh on every lookup."""
    return Fraction(*_kernel_parts(n, a, b, c, d, shift))


def q_euler_number(n: int, q: QBase) -> Fraction:
    """E_{n,q} = 2 (1/(1-q))^n sum_j C(n,j) (-1)^j / (1+q^j)."""
    return _kernel(n, *q.q.as_integer_ratio(), 1, 1, 0)


def q_euler_poly(n: int, qp: QPower) -> Fraction:
    """E_{n,q}(x) = 2 (1/(1-q))^n sum_j C(n,j) (-1)^j t^j / (1+q^j),
    with t = q^x carried by `qp`.  At t = 1 this is E_{n,q}."""
    return _kernel(n, *qp.base.q.as_integer_ratio(),
                   *qp.t.as_integer_ratio(), 0)


def q_euler_star_number(n: int, q: QBase) -> Fraction:
    """E*_{n,q} = [2]_q (1/(1-q))^n sum_l C(n,l) (-1)^l / (1+q^(l+1)),
    the q^l-weighted variant of E_{n,q}."""
    return _kernel(n, *q.q.as_integer_ratio(), 1, 1, 1)


def q_euler_star_poly(n: int, qp: QPower) -> Fraction:
    """E*_{n,q}(x) = [2]_q (1/(1-q))^n sum_j C(n,j) (-1)^j t^j / (1+q^(j+1)).

    The shift by x multiplies the j-th term of the star sum by q^(xj), the
    unique form consistent with the weighted generating function; validated
    through the weighted alternating-sum identity below.
    """
    return _kernel(n, *qp.base.q.as_integer_ratio(),
                   *qp.t.as_integer_ratio(), 1)


def _direct_sum(m: int, n: int, q: QBase, shift: int) -> Fraction:
    """sum_{l=0}^{n-1} (-1)^l q^(shift*l) [l]_q^m by direct summation; it
    never calls the kernel, so it stays independent of the closed form.

    Built in integers and reduced once.  With q = a/b, [l]_q = N_l / b^(l-1)
    where N_1 = 1 and N_{l+1} = N_l b + a^l, so term l is
    (-1)^l a^(shift*l) N_l^m over b^((shift+m) l - m).  Horner's rule in
    b^(shift+m) puts the whole sum over b^((shift+m)(n-1) - m).
    """
    _check_sum_args(m, n)
    a, b = q.q.numerator, q.q.denominator
    step = b ** (shift + m)
    total = 0
    bracket, a_power = 1, a  # N_l and a^l, from l = 1
    for l in range(1, n):
        term = bracket ** m * a_power ** shift
        total = total * step + (-term if l % 2 else term)
        bracket = bracket * b + a_power
        a_power *= a
    # n = 1 leaves the empty sum 0 over b^0
    return Fraction(total, b ** max(0, (shift + m) * (n - 1) - m))


def _closed_sum(m: int, n: int, q: QBase, shift: int) -> Fraction:
    """(E_{m,q} + (-1)^(n+1) q^(shift*n) E_{m,q}(n)) / (1+q^shift), star
    numbers and polynomials at shift 1: splitting the generating function
    at l = n puts (-1)^(n+1) and the weight q^(shift*n) on the tail.

    The kernel's unreduced E_{m,q}(n) = N/M (`_kernel_parts`, at
    t = (a^n, b^n)), the memoized number E_{m,q} = e/f (`_kernel`),
    q^(shift*n) = (a/b)^(shift*n) and 1 + q^shift = (b^shift + a^shift) /
    b^shift make one numerator over one denominator, reduced once."""
    _check_sum_args(m, n)
    a, b = q.q.as_integer_ratio()
    num, den = _kernel_parts(m, a, b, a ** n, b ** n, shift)
    if shift:
        num, den = num * a ** n, den * b ** n
    if n % 2 == 0:
        num = -num
    e, f = _kernel(m, a, b, 1, 1, shift).as_integer_ratio()
    b_shift = b ** shift
    return Fraction((e * den + num * f) * b_shift,
                    f * den * (b_shift + a ** shift))


def alt_q_power_sum(m: int, n: int, q: QBase) -> Fraction:
    """sum_{l=0}^{n-1} (-1)^l [l]_q^m by direct summation (brute force)."""
    return _direct_sum(m, n, q, 0)


def alt_q_power_sum_closed(m: int, n: int, q: QBase) -> Fraction:
    """sum_{l<n} (-1)^l [l]_q^m = (E_{m,q} + (-1)^(n+1) E_{m,q}(n)) / 2."""
    return _closed_sum(m, n, q, 0)


def weighted_alt_q_power_sum(m: int, n: int, q: QBase) -> Fraction:
    """sum_{l=0}^{n-1} (-1)^l q^l [l]_q^m by direct summation."""
    return _direct_sum(m, n, q, 1)


def weighted_alt_q_power_sum_closed(m: int, n: int, q: QBase) -> Fraction:
    """sum_{l<n} (-1)^l q^l [l]_q^m
    = (E*_{m,q} + (-1)^(n+1) q^n E*_{m,q}(n)) / [2]_q."""
    return _closed_sum(m, n, q, 1)


def _distribution_terms(n: int, q: Fraction, period: int,
                        exponents: Iterable[int]) -> tuple[list[int], int]:
    """Integers N_k and one denominator D with N_k / D =
    [F]_q^n E_{n,q^F}(k/F) for each k in `exponents`, F = period: the
    kernel at base q^F and t = (q^F)^(k/F) = q^k, scaled by [F]_q^n.

    With q = a/b the kernels at base q^F = a^F / b^F (`_kernel_parts`)
    share their poles and the factor (b^F - a^F)^n of their denominators;
    only d^n differs, d the denominator of t.  For k >= 0, t = a^k / b^k;
    below 0, t = b^(-k) a^(k-l) / a^(-l), l the least k, so every d is
    a^(-l) b^max(k, 0), and lifting each numerator by b^((K - max(k, 0)) n),
    K the greatest k and at least 0, puts all of them over one
    denominator.  [F]_q^n = ((b^F - a^F) / (b^(F-1) (b-a)))^n trades
    (b^F - a^F)^n in it for (b^(F-1) (b-a))^n.  Nothing is reduced.
    """
    a, b = q.as_integer_ratio()
    ks = list(exponents)
    low, top = min(0, *ks), max(0, *ks)
    parts = [_kernel_parts(n, a ** period, b ** period,
                           a ** (k - low) * b ** max(-k, 0),
                           a ** -low * b ** max(k, 0), 0) for k in ks]
    nums = [num * b ** ((top - max(k, 0)) * n)
            for (num, _), k in zip(parts, ks)]
    den = parts[0][1] * b ** ((top - max(ks[0], 0)) * n)
    return nums, den // (b ** period - a ** period) ** n \
        * (b ** (period - 1) * (b - a)) ** n


def partial_zeta_special_value(n: int, a: int, period: int,
                               q: Fraction) -> Fraction:
    """Exact H_q(-n, a; F) = (-1)^a [F]_q^n E_{n,q^F}(a/F) / 2 for n >= 1,
    the value `qzeta.partial_zeta` must reach at s = -n.

    (q^F)^(a/F) = q^a is always rational, so the value is one integer over
    one denominator (`_distribution_terms`), reduced once.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    _check_residue(a, period)
    q = QBase(q, zeta_domain=True).q
    (num,), den = _distribution_terms(n, q, period, (a,))
    return Fraction(-num if a % 2 else num, 2 * den)


def _generalized_parts(n: int, chi,
                       q: Fraction) -> tuple[dict[int, int], int]:
    """Integers c_e and one denominator D with

        E_{n,chi,q} = sum_e (c_e / D) exp(2 pi i e / m),

    m the order of chi: c_e / D sums (-1)^a [d]_q^n E_{n,q^d}(a/d) over the
    units a with exponent e, every term over the one denominator of
    `_distribution_terms`, which refuses n < 0.  Nothing is
    reduced.  DomainError for an even modulus, whose (-1)^(a+mF) is not
    (-1)^(a+m)."""
    _check_period(chi.modulus)
    q = QBase(q, zeta_domain=True).q
    units = [a for a, e in enumerate(chi.exponents) if e is not None]
    nums, den = _distribution_terms(n, q, chi.modulus, units)
    coefficients: dict[int, int] = {}
    for a, num in zip(units, nums):
        e = chi.exponents[a]
        coefficients[e] = coefficients.get(e, 0) + (-num if a % 2 else num)
    return coefficients, den


def generalized_q_euler(n: int, chi, q: Fraction,
                        precision: int = DEFAULT_PRECISION):
    """Generalized q-Euler number attached to chi, given by its modulus d,
    order and exponent table (`characters.DirichletCharacter`):

        E_{n,chi,q} = [d]_q^n sum_{a<d} chi(a) (-1)^a E_{n,q^d}(a/d),

    each inner polynomial evaluated exactly through t = q^a, all of them
    over one denominator D (`_generalized_parts`).  When every root is +1
    or -1 (order at most 2) the value is an exact Fraction, reduced once;
    otherwise it is the mpmath complex sum_e c_e exp(2 pi i e / m) / D at
    precision + GUARD_DIGITS working digits, each c_e rounded to them and
    its root taken by mp.expjpi.  This root sum is the exact side's own:
    `qzeta.l_function` sums the roots of its residue sums apart.
    """
    coefficients, den = _generalized_parts(n, chi, q)
    if chi.order <= 2:
        return Fraction(sum(-c if e else c for e, c in coefficients.items()),
                        den)
    from mpmath import mp, mpf
    from .realnum import to_mpf
    with mp.workdps(precision + GUARD_DIGITS):
        return mp.fsum(to_mpf(c) * mp.expjpi(mpf(2 * e) / chi.order)
                       for e, c in coefficients.items()) / den


def distribution_sum(m: int, f: int, x: int, q: QBase) -> Fraction:
    """[f]_q^m sum_{a<f} (-1)^a E_{m,q^f}((x+a)/f) for odd f, exactly.

    Each inner argument enters through t = (q^f)^((x+a)/f) = q^(x+a), which
    is rational whenever x is an integer, and must be positive: q < 0 is
    refused unless f = 1 and x is even.  The f terms share one denominator
    (`_distribution_terms`), so the sum is one integer over it, reduced
    once.  The distribution relation says this equals E_{m,q}(x); the
    outer exponent is m, matching the degree on both sides.  The kernel
    (`_kernel_parts`) refuses m < 0.
    """
    if f < 1 or f % 2 == 0:
        raise DomainError("f must be an odd positive integer")
    if q.q < 0 and (f > 1 or x % 2):
        raise DomainError("t must be positive")
    nums, den = _distribution_terms(m, q.q, f, range(x, x + f))
    return Fraction(sum(-num if a % 2 else num
                        for a, num in enumerate(nums)), den)
