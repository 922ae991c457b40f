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
binomial form over its recurrence numbers (put over one common
denominator), the closed sums, which combine the kernel's unreduced
numerator and denominator with E_{m,q} and q^n, and the distribution
sums and the partial zeta's special values, whose kernels at base q^f
share one denominator (`_distribution_terms`).  Every closed-form identity
has a brute-force partner it can be compared with bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Iterable

from .classical import _euler_binomial
from .errors import DomainError
from .exactnum import rat_pow

#: Most q-Euler numbers (plain and star, any n and q) kept in memory.
NUMBER_CACHE_SIZE = 4096


@dataclass(frozen=True)
class QBase:
    """A validated q parameter.

    q must avoid {0, 1, -1} so that 1-q and every 1+q^j stay nonzero.
    With `zeta_domain` set the base is additionally confined to 0 < q < 1,
    the convergence regime of the zeta-side series; q > 0 is required
    whenever fractional powers of q are taken.
    """

    q: Fraction
    zeta_domain: bool = False

    def __post_init__(self) -> None:
        q = self.q if type(self.q) is Fraction else Fraction(self.q)
        object.__setattr__(self, "q", q)
        a, b = q.numerator, q.denominator
        if a == 0 or abs(a) == b:
            raise DomainError("q must avoid 0, 1 and -1")
        if self.zeta_domain and not 0 < a < b:
            raise DomainError("zeta domain requires 0 < q < 1")


@dataclass(frozen=True)
class QPower:
    """An exact power t = q^y of a QBase, with an optional witness exponent.

    When `exponent` y = a/f is present, t^f == q^a holds exactly; the pair
    is how fractional arguments reach the polynomial evaluators without any
    loss of exactness.
    """

    base: QBase
    t: Fraction
    exponent: Fraction | None = None

    def __post_init__(self) -> None:
        t = self.t if type(self.t) is Fraction else Fraction(self.t)
        object.__setattr__(self, "t", t)
        if t.numerator <= 0:
            raise DomainError("t must be positive")
        y = self.exponent
        if y is not None:
            y = y if type(y) is Fraction else Fraction(y)
            object.__setattr__(self, "exponent", y)
            # t^f == r^|a| for y = a/f and r = q^sign(a), in integers
            a, f = y.numerator, y.denominator
            r = self.base.q if a >= 0 else 1 / self.base.q
            if t.numerator ** f * r.denominator ** abs(a) \
                    != r.numerator ** abs(a) * t.denominator ** f:
                raise DomainError("t does not equal q**exponent")

    @classmethod
    def from_integer(cls, base: QBase, x: int) -> QPower:
        """t = q^x for integer x (exact for any valid base)."""
        return cls(base, base.q ** x, Fraction(x))

    @classmethod
    def from_exponent(cls, base: QBase, y: Fraction) -> QPower:
        """t = q^y via exact root extraction; NotExactPower if irrational."""
        return cls(base, rat_pow(base.q, Fraction(y)), Fraction(y))


def q_int(k: int, q: QBase) -> Fraction:
    """q-integer [k]_q = (1-q^k)/(1-q) = 1 + q + ... + q^(k-1)."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    return (1 - q.q ** k) / (1 - q.q)


def _kernel(n: int, q: Fraction, t: Fraction | int, shift: int) -> Fraction:
    """The kernel value (`_kernel_parts`), reduced."""
    return Fraction(*_kernel_parts(n, q, t, shift))


def _kernel_parts(n: int, q: Fraction, t: Fraction | int,
                  shift: int) -> tuple[int, int]:
    """(1+q^shift) (1/(1-q))^n sum_{j<=n} C(n,j) (-1)^j t^j / (1+q^(j+shift)),
    the one sum behind all four closed forms: shift 0 (prefactor 2) gives
    E_{n,q}(x), shift 1 (prefactor [2]_q) gives E*_{n,q}(x), and t = 1
    gives the numbers.

    Built in integers, as one unreduced numerator over one denominator.
    With q = a/b and t = c/d in lowest terms the value is
    (b^shift + a^shift) b^n / ((b-a)^n d^n) times
    sum_j C(n,j) (-1)^j (bc)^j d^(n-j) / (b^(j+shift) + a^(j+shift)); the
    sum is kept as one numerator over the product of its denominators.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    a, b = q.numerator, q.denominator
    c, d = t.numerator, t.denominator
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


@lru_cache(maxsize=NUMBER_CACHE_SIZE)
def _number(n: int, a: int, b: int, shift: int) -> Fraction:
    """The kernel at t = 1 and q = a/b in lowest terms, keyed by integers:
    a Fraction's hash is a modular inverse, taken afresh on every lookup."""
    return _kernel(n, Fraction(a, b), 1, shift)


def q_euler_number(n: int, q: QBase) -> Fraction:
    """E_{n,q} = 2 (1/(1-q))^n sum_j C(n,j) (-1)^j / (1+q^j)."""
    return _number(n, q.q.numerator, q.q.denominator, 0)


def q_euler_poly(n: int, qp: QPower) -> Fraction:
    """E_{n,q}(x) = 2 (1/(1-q))^n sum_j C(n,j) (-1)^j t^j / (1+q^j),
    with t = q^x carried by `qp`.  At t = 1 this is E_{n,q}."""
    return _kernel(n, qp.base.q, qp.t, 0)


def q_euler_poly_via_numbers(n: int, qp: QPower) -> Fraction:
    """Binomial form sum_{k<=n} C(n,k) t^k E_{k,q} [x]_q^(n-k), where
    [x]_q = (1-t)/(1-q).  Agrees with q_euler_poly on every exact input;
    the sum is finite because C(n,k) kills all k > n.  The numbers come
    from their recurrence (`classical._euler_recurrence`), never from the
    kernel, so the two forms check each other's 1/(1+q^j).

    With t = c/d and [x]_q = g/h (g = b(d-c), h = d(b-a) for q = a/b) the
    value is sum_k C(n,k) E_{k,q} (ch)^k (gd)^(n-k) / (dh)^n: one integer
    Horner sum over one denominator (`classical._euler_binomial`).
    """
    qq = qp.base.q
    a, b = qq.numerator, qq.denominator
    c, d = qp.t.numerator, qp.t.denominator
    g, h = b * (d - c), d * (b - a)
    return _euler_binomial(n, qq, g * d, c * h, d * h)


def q_euler_star_number(n: int, q: QBase) -> Fraction:
    """E*_{n,q} = [2]_q (1/(1-q))^n sum_l C(n,l) (-1)^l / (1+q^(l+1)),
    the q^l-weighted variant of E_{n,q}."""
    return _number(n, q.q.numerator, q.q.denominator, 1)


def q_euler_star_poly(n: int, qp: QPower) -> Fraction:
    """E*_{n,q}(x) = [2]_q (1/(1-q))^n sum_j C(n,j) (-1)^j t^j / (1+q^(j+1)).

    The shift by x multiplies the j-th term of the star sum by q^(xj), the
    unique form consistent with the weighted generating function; validated
    through the weighted alternating-sum identity below.
    """
    return _kernel(n, qp.base.q, qp.t, 1)


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

    The kernel's unreduced E_{m,q}(n) = N/M (`_kernel_parts`), the number
    E_{m,q} = e/f, q^(shift*n) = (a/b)^(shift*n) and
    1 + q^shift = (b^shift + a^shift)/b^shift make one numerator over one
    denominator, reduced once."""
    _check_sum_args(m, n)
    qq = q.q
    a, b = qq.numerator, qq.denominator
    num, den = _kernel_parts(m, qq, qq ** n, shift)
    if shift:
        num, den = num * a ** n, den * b ** n
    if n % 2 == 0:
        num = -num
    number = _number(m, a, b, shift)
    e, f = number.numerator, number.denominator
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

    With q = a/b the kernels at base q^F (`_kernel_parts`) share their
    poles and the factor (b^F - a^F)^n of their denominators; only d^n
    differs, d the denominator of t.  Each numerator is lifted by
    (y/d)^n, y the lcm of the d, onto the one denominator, and [F]_q^n =
    ((b^F - a^F) / (b^(F-1) (b-a)))^n trades (b^F - a^F)^n in it for
    (b^(F-1) (b-a))^n.  Nothing is reduced.
    """
    base = q ** period
    ts = [q ** k for k in exponents]
    parts = [_kernel_parts(n, base, t, 0) for t in ts]
    y = lcm(*(t.denominator for t in ts))
    nums = [num * (y // t.denominator) ** n for (num, _), t in zip(parts, ts)]
    den = parts[0][1] * (y // ts[0].denominator) ** n
    a, b = q.numerator, q.denominator
    return nums, den // (base.denominator - base.numerator) ** n \
        * (b ** (period - 1) * (b - a)) ** n


def _check_residue(a: int, period: int) -> None:
    if period % 2 == 0:
        raise DomainError("the period F must be odd")
    if not 0 < a < period:
        raise DomainError("need 0 < a < F")
    # `qzeta._best_shift` prices x + J F, x < F and J <= MAX_HEAD_TERMS <
    # 2**14, in floats, which stop short of 2**1024
    if period.bit_length() > 1010:
        raise DomainError("the period F must be below 2**1010")


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
    q = Fraction(q)
    if not 0 < q < 1:
        raise DomainError("requires rational q in (0, 1)")
    (num,), den = _distribution_terms(n, q, period, (a,))
    return Fraction(-num if a % 2 else num, 2 * den)


def distribution_sum(m: int, f: int, x: int, q: QBase) -> Fraction:
    """[f]_q^m sum_{a<f} (-1)^a E_{m,q^f}((x+a)/f) for odd f, exactly.

    Each inner argument enters through t = (q^f)^((x+a)/f) = q^(x+a), which
    is rational whenever x is an integer, and must be positive: q < 0 is
    refused unless f = 1 and x is even.  The f terms share one denominator
    (`_distribution_terms`), so the sum is one integer over it, reduced
    once.  The distribution relation says this equals E_{m,q}(x); the
    outer exponent is m, matching the degree on both sides.
    """
    if m < 0:
        raise DomainError("m must be nonnegative")
    if f < 1 or f % 2 == 0:
        raise DomainError("f must be an odd positive integer")
    if q.q < 0 and (f > 1 or x % 2):
        raise DomainError("t must be positive")
    nums, den = _distribution_terms(m, q.q, f, range(x, x + f))
    return Fraction(sum(-num if a % 2 else num
                        for a, num in enumerate(nums)), den)


def _check_sum_args(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise DomainError("need exponent m >= 1 and length n >= 1")
