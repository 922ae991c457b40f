"""Classical Euler and Bernoulli numbers, polynomials, and power sums.

These are the q -> 1 baselines.  Conventions, fixed by the power-sum
formulas they must satisfy:

* E_n is the coefficient of t^n/n! in 2/(e^t + 1), so E_0 = 1, E_1 = -1/2,
  E_2 = 0, E_3 = 1/4, ... (all even-index values past 0 vanish);
* B_n uses B_1 = -1/2, the convention under which
  sum_{l<k} l^n = (1/(n+1)) sum_i C(n+1,i) B_i k^{n+1-i}.

Number tables are memoized; the recurrences run once, exactly, under a
single writer lock, after which reads are lock-free.  The Euler numbers are
the q = 1 case of the q-Euler recurrence (`_euler_recurrence`), which also
gives the q-Euler numbers their route apart from the closed form: the
binomial form of the q-Euler polynomials over them,
`q_euler_poly_via_numbers`, which the thm2 and thm4 suites compare with
the kernel of `qnumbers`.  This module imports no module of the package
but `errors` and `exactnum`, whose `_check_sum_args` it shares with the
sums of `qnumbers`, so it reads its `QPower` duck-typed.

`euler_poly` and `power_sum_closed` (and so `alt_power_sum_closed`) take
their table of Euler or Bernoulli numbers over one common denominator
(`_over_one_denominator`, built once per n and kept in bounded caches)
and build the value as one integer Horner sum over one denominator,
reduced once.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .errors import DomainError
from .exactnum import _check_sum_args

_lock = threading.Lock()
_bernoulli: list[Fraction] = [Fraction(1)]

#: Most tables over one denominator (`_over_one_denominator`) kept in
#: memory, of each kind: Euler or q-Euler numbers per (n, q), Bernoulli
#: numbers per n.
TABLE_CACHE_SIZE = 1024


def _extend(table: list[Fraction], n_max: int, step) -> list[Fraction]:
    """table[0..n_max], appending step(n) for each missing index n under the
    writer lock."""
    if n_max < 0:
        raise DomainError("n must be nonnegative")
    if len(table) <= n_max:
        with _lock:
            while len(table) <= n_max:
                table.append(step(len(table)))
    return table[: n_max + 1]


@lru_cache(maxsize=64)
def _euler_table(a: int, b: int) -> list[Fraction]:
    """The memo table of `_euler_recurrence` at base q = a/b in lowest
    terms, for at most 64 q.  Keyed by integers, as is
    `_euler_over_one_denominator`: a Fraction's hash is a modular inverse,
    taken afresh on every lookup."""
    return [Fraction(1)]


def _euler_recurrence(n_max: int, q: Fraction | int) -> list[Fraction]:
    """E_{0,q}..E_{n,q} from E_0 = 1 and
    (1+q^n) E_{n,q} = -sum_{k<n} C(n,k) q^k E_{k,q} (n >= 1), which is
    E_{n,q}(1) + E_{n,q}(0) = 2 [0]_q^n: the q-Euler numbers, and the
    Euler numbers at q = 1."""
    table = _euler_table(q.numerator, q.denominator)
    return _extend(table, n_max, lambda n: -sum(
        comb(n, k) * q ** k * table[k] for k in range(n)) / (1 + q ** n))


def euler_numbers(n_max: int) -> list[Fraction]:
    """E_0..E_n from the recurrence sum_k C(n,k) E_k + E_n = 0 (n >= 1)."""
    return _euler_recurrence(n_max, 1)


def euler_number(n: int) -> Fraction:
    """The n-th Euler number E_n (coefficient of t^n/n! in 2/(e^t + 1))."""
    return euler_numbers(n)[n]


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0..B_n from sum_{k<=n} C(n+1,k) B_k = 0 (n >= 1), so B_1 = -1/2."""
    return _extend(_bernoulli, n_max, lambda n: Fraction(-sum(
        comb(n + 1, k) * _bernoulli[k] for k in range(n)), n + 1))


def bernoulli_number(n: int) -> Fraction:
    """The n-th Bernoulli number B_n, B_1 = -1/2 convention."""
    return bernoulli_numbers(n)[n]


def _over_one_denominator(numbers: list[Fraction]
                          ) -> tuple[tuple[int, ...], int]:
    """Integers c_i and one denominator D with numbers[i] = c_i / D, D the
    least common multiple of their denominators."""
    den = lcm(*(r.denominator for r in numbers))
    return tuple(r.numerator * (den // r.denominator) for r in numbers), den


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _euler_over_one_denominator(n: int, a: int, b: int
                                ) -> tuple[tuple[int, ...], int]:
    """E_{0,q}..E_{n,q} of `_euler_recurrence` at q = a/b in lowest terms
    over one denominator (the Euler numbers at q = 1)."""
    return _over_one_denominator(_euler_recurrence(n, Fraction(a, b)))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _bernoulli_over_one_denominator(n: int) -> tuple[tuple[int, ...], int]:
    """B_0..B_n over one denominator."""
    return _over_one_denominator(bernoulli_numbers(n))


def _euler_binomial(n: int, q: Fraction | int, u: int, v: int,
                    w: int) -> Fraction:
    """sum_k C(n,k) E_{k,q} v^k u^(n-k) / w^n, E_{k,q} of
    `_euler_recurrence`: with E_{k,q} = e_k / D over one denominator
    (`_euler_over_one_denominator`), one Horner sum in u over D w^n,
    reduced once.  The binomial form of the Euler polynomials at q = 1 and
    of the q-Euler polynomials (`q_euler_poly_via_numbers`)."""
    e, den = _euler_over_one_denominator(n, q.numerator, q.denominator)
    acc, v_power = 0, 1
    for k in range(n + 1):
        acc = acc * u + comb(n, k) * e[k] * v_power
        v_power *= v
    return Fraction(acc, den * w ** n)


def q_euler_poly_via_numbers(n: int, qp) -> Fraction:
    """Binomial form sum_{k<=n} C(n,k) t^k E_{k,q} [x]_q^(n-k), where
    [x]_q = (1-t)/(1-q).  Agrees with `qnumbers.q_euler_poly` on every
    exact input; the sum is finite because C(n,k) kills all k > n.  The
    numbers come from their recurrence (`_euler_recurrence`), never from
    the kernel, so the two forms check each other's 1/(1+q^j).  `qp`, a
    `qnumbers.QPower`, is read duck-typed: its base's q and its t = q^x.

    With t = c/d and [x]_q = g/h (g = b(d-c), h = d(b-a) for q = a/b) the
    value is sum_k C(n,k) E_{k,q} (ch)^k (gd)^(n-k) / (dh)^n: one integer
    Horner sum over one denominator (`_euler_binomial`).
    """
    qq = qp.base.q
    a, b = qq.numerator, qq.denominator
    c, d = qp.t.numerator, qp.t.denominator
    g, h = b * (d - c), d * (b - a)
    return _euler_binomial(n, qq, g * d, c * h, d * h)


def euler_poly(n: int, x: Fraction | int) -> Fraction:
    """Euler polynomial E_n(x) = sum_k C(n,k) E_k x^(n-k).

    Satisfies E_n(x) + E_n(x+1) = 2 x^n and E_n(0) = E_n.  With x = u/v,
    v^n E_n(x) = sum_k C(n,k) E_k v^k u^(n-k) (`_euler_binomial`).
    """
    x = Fraction(x)
    return _euler_binomial(n, 1, x.numerator, x.denominator, x.denominator)


def power_sum(n: int, k: int) -> Fraction:
    """sum_{l=0}^{k-1} l^n by direct summation (the brute-force twin)."""
    _check_sum_args(n, k)
    return Fraction(sum(l ** n for l in range(k)))


def power_sum_closed(n: int, k: int) -> Fraction:
    """sum_{l=0}^{k-1} l^n via (1/(n+1)) sum_i C(n+1,i) B_i k^(n+1-i).

    With B_i = b_i / D over one denominator this is
    k (sum_i C(n+1,i) b_i k^(n-i)) / ((n+1) D): one Horner sum in k,
    reduced once."""
    _check_sum_args(n, k)
    b, den = _bernoulli_over_one_denominator(n)
    acc = 0
    for i in range(n + 1):
        acc = acc * k + comb(n + 1, i) * b[i]
    return Fraction(acc * k, (n + 1) * den)


def alt_power_sum(m: int, k: int) -> Fraction:
    """sum_{l=0}^{k-1} (-1)^l l^m by direct summation."""
    _check_sum_args(m, k)
    return Fraction(sum(l ** m if l % 2 == 0 else -(l ** m) for l in range(k)))


def alt_power_sum_closed(m: int, k: int) -> Fraction:
    """sum_{l=0}^{k-1} (-1)^l l^m = (E_m + (-1)^(k+1) E_m(k)) / 2.

    The alternating sign depends on the summation length k: splitting the
    generating function 2 sum (-1)^l e^(lt) at l = k carries a factor
    (-1)^(k+1) onto the shifted tail.  Verified exhaustively against the
    direct sum.
    """
    _check_sum_args(m, k)
    shifted = euler_poly(m, k)
    if k % 2 == 0:
        shifted = -shifted
    return (euler_number(m) + shifted) / 2
