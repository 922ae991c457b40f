"""Independent computations the benchmark checks the program against.

Nothing here imports the program.  Exact values come from recurrences and
identities other than the closed forms the program evaluates; real values
come from an Abel summation of the defining series with its limit
subtracted.  `self_check` tests these references against each other and
against sympy, so a broken reference fails the run instead of passing it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from mpmath import mp, mpc, mpf

# -- exact side -------------------------------------------------------------


def q_bracket(t: Fraction, q: Fraction) -> Fraction:
    """[x]_q = (1 - q^x)/(1 - q) from t = q^x."""
    return (1 - t) / (1 - q)


def q_numbers(n_max: int, q: Fraction) -> list[Fraction]:
    """E_{0..n,q} from E_n (1 + q^n) = -sum_{k<n} C(n,k) q^k E_k, which is
    E_n(0) + E_n(1) = 0 with E_n(1) in binomial form."""
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum(comb(n, k) * q ** k * out[k] for k in range(n))
        out.append(-acc / (1 + q ** n))
    return out


def q_star_numbers(n_max: int, q: Fraction) -> list[Fraction]:
    """E*_{0..n,q} from E*_n (1 + q^(n+1)) = -q sum_{k<n} C(n,k) q^k E*_k,
    which is E*_n(0) + q E*_n(1) = 0."""
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum(comb(n, k) * q ** k * out[k] for k in range(n))
        out.append(-q * acc / (1 + q ** (n + 1)))
    return out


def alt_sum(m: int, n: int, q: Fraction, weighted: bool) -> Fraction:
    """sum_{l<n} (-1)^l (q^l)^w [l]_q^m, each [l]_q as a geometric sum."""
    total = Fraction(0)
    for l in range(n):
        bracket = sum(q ** i for i in range(l))
        term = bracket ** m * (q ** l if weighted else 1)
        total += -term if l % 2 else term
    return total


def euler_numbers(n_max: int) -> list[Fraction]:
    """Coefficients E_n of t^n/n! in 2/(e^t + 1), from the series product
    (e^t + 1) * sum E_n t^n/n! = 2."""
    out: list[Fraction] = []
    for n in range(n_max + 1):
        acc = sum(comb(n, k) * out[k] for k in range(n))
        out.append((Fraction(2 * (n == 0)) - acc) / 2)
    return out


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_n with B_1 = -1/2: coefficients of t^n/n! in t/(e^t - 1)."""
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum(comb(n + 1, k) * out[k] for k in range(n))
        out.append(-acc / (n + 1))
    return out


def power_sum(n: int, k: int, alternating: bool) -> int:
    return sum((-1) ** l * l ** n if alternating else l ** n
               for l in range(k))


def exact_root(value: Fraction, f: int) -> Fraction:
    """The rational f-th root of value > 0; ValueError when there is none."""
    def root(v: int) -> int:
        lo, hi = 0, 1 << (v.bit_length() // f + 1)  # bisection on r^f <= v
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if mid ** f <= v:
                lo = mid
            else:
                hi = mid - 1
        if lo ** f != v:
            raise ValueError("no rational root")
        return lo
    return Fraction(root(value.numerator), root(value.denominator))


def q_power(q: Fraction, x: Fraction) -> Fraction:
    """q^x for rational x whose power is rational."""
    return exact_root(q ** x.numerator, x.denominator)


def q_poly(n: int, t: Fraction, q: Fraction,
           numbers: list[Fraction]) -> Fraction:
    """E_{n,q}(x) (or E*, given star numbers) in binomial form
    sum_k C(n,k) t^k E_k [x]_q^(n-k), with t = q^x."""
    bracket = q_bracket(t, q)
    return sum(comb(n, k) * t ** k * numbers[k] * bracket ** (n - k)
               for k in range(n + 1))


# -- characters ---------------------------------------------------------------


def character_problems(modulus: int, order: int, exponents) -> list[str]:
    """Why an exponent table is not a Dirichlet character mod `modulus` of
    exactly the given order; empty when it is one."""
    problems = []
    if len(exponents) != modulus:
        return ["table length differs from the modulus"]
    for a in range(modulus):
        unit = gcd(a, modulus) == 1
        if (exponents[a] is None) == unit:
            problems.append(f"unit status wrong at {a}")
    if exponents[1 % modulus] != 0:
        problems.append("chi(1) != 1")
    used = 0
    for a in range(modulus):
        for b in range(modulus):
            ea, eb = exponents[a], exponents[b]
            if ea is None or eb is None:
                continue
            if exponents[a * b % modulus] != (ea + eb) % order:
                problems.append(f"not multiplicative at {a}*{b}")
                return problems
            used = gcd(used, ea)
    if gcd(used, order) != 1 and order > 1:
        problems.append("order is not exact")
    return problems


def character_value(exponent: int | None, order: int):
    if exponent is None:
        return mpf(0)
    if 2 * exponent % order == 0:
        return mpf(1) if exponent == 0 else mpf(-1)
    return mp.expjpi(mpf(2 * exponent) / order)


# -- numeric side: Abel value with the limit subtracted -----------------------


def _mp(value: Fraction):
    return mpf(value.numerator) / value.denominator


def abel_series(s: Fraction, coefficients, offset: Fraction, q: Fraction,
                precision: int, start: int = 0):
    """Abel value of sum_{n>=start} c_n [n + offset]_q^(-s), c periodic.

    The terms tend to L c_n with L = (1-q)^s, so the series of
    c_n ([n+offset]_q^(-s) - L) converges absolutely (geometrically, ratio
    q); L times the Abel mean of the periodic c_n is added back.  For a
    period N with sum zero that mean is -(1/N) sum_{n<N} n c_n.  Entries
    of `coefficients` are ints or callables returning an mpf/mpc, called
    inside the working precision.  The first term, n = start, must have a
    positive bracket.
    """
    with mp.workdps(precision + 30):
        qv, sv = _mp(q), _mp(s)
        limit = abs(mp.power(1 - qv, sv))
        first = mp.power(1 - mp.power(qv, _mp(offset) + start), -sv)
        # digits the largest term carries above the unit place
        extra = max(0, int(mp.log10(limit * max(first, 1))) + 1)
    with mp.workdps(precision + 30 + extra):
        qv, sv = _mp(q), _mp(s)
        cs = [c() if callable(c) else c for c in coefficients]
        period = len(cs)
        if abs(sum(cs)) > mpf(10) ** (-(precision + 20)):
            raise ValueError("Abel mean needs a period summing to zero")
        mean = -sum(n * cs[n] for n in range(period)) / period
        mean -= sum(cs[n % period] for n in range(start))
        limit = mp.power(1 - qv, sv)
        y = mp.power(qv, _mp(offset) + start)  # q^(n + offset)
        eps = mpf(10) ** (-(precision + 20))
        total = mpf(0)
        n = start
        while True:
            c = cs[n % period]
            if c != 0:
                total += c * (mp.power(1 - y, -sv) - 1)
            y_next = y * qv
            # tail after n: |(1-y)^(-s) - 1| <= |s| y for s <= 0 and
            # <= s y (1-y)^(-s-1) for s > 0, summed geometrically
            if sv > 0:
                bound = sv * y_next * mp.power(1 - y_next, -sv - 1)
            else:
                bound = -sv * y_next
            if abs(limit) * bound / (1 - qv) < eps:
                break
            y = y_next
            n += 1
        return limit * (total + mean)


def zeta_ref(s: Fraction, x: Fraction, q: Fraction, precision: int):
    """Euler q-zeta sum_{n>=0} (-1)^n [n+x]_q^(-s)."""
    return abel_series(s, [1, -1], x, q, precision)


def partial_zeta_ref(s: Fraction, a: int, period: int, q: Fraction,
                     precision: int):
    """H_q(s, a; F) = sum over m = a + nF of (-1)^m [m]_q^(-s), odd F."""
    cs = [0] * (2 * period)
    for m in (a, a + period):
        cs[m] = -1 if m % 2 else 1
    return abel_series(s, cs, Fraction(0), q, precision, start=a)


def l_function_ref(s: Fraction, modulus: int, order: int, exponents,
                   q: Fraction, precision: int):
    """l_{E,q}(s, chi) = sum_{n>=1} (-1)^n chi(n) [n]_q^(-s)."""
    cs = []
    for n in range(2 * modulus):
        e = exponents[n % modulus]
        sign = -1 if n % 2 else 1
        cs.append(lambda e=e, sign=sign: sign * character_value(e, order))
    return abel_series(s, cs, Fraction(0), q, precision, start=1)


def within(value, reference, precision: int, printed: bool = False) -> bool:
    """|value - reference| <= 10^-(P-10); a value printed to P significant
    digits also gets half a unit in its last printed place."""
    with mp.workdps(precision + 40):
        if isinstance(reference, Fraction):
            reference = _mp(reference)
        bound = mpf(10) ** (-(precision - 10))
        if printed and reference != 0:
            magnitude = int(mp.floor(mp.log10(abs(reference))))
            bound += mpf(10) ** (magnitude - precision + 1) / 2
        return abs(value - reference) <= bound


def parse_complex(text: str):
    """Parse the program's printed value: a decimal or 're+imi'."""
    if not text.endswith("i"):
        return mpf(text)
    body = text[:-1]
    cut = next(i for i in range(len(body) - 1, 0, -1)
               if body[i] in "+-" and body[i - 1] not in "eE")
    return mpc(mpf(body[:cut]), mpf(body[cut:]))


# -- self-check --------------------------------------------------------------


def self_check() -> None:
    """Check the references against exact values and sympy.

    Raises AssertionError on the first disagreement, so a broken reference
    stops the run loudly.
    """
    import sympy

    q = Fraction(1, 2)
    plain, star = q_numbers(8, q), q_star_numbers(8, q)
    # E_1,q = -1/(1+q) and E*_1,q = -q/(1+q^2) by hand from the definitions
    assert plain[1] == -1 / (1 + q), "q-Euler recurrence"
    assert star[1] == -q / (1 + q * q), "star recurrence"
    # the difference equations pin the polynomials down
    for n in range(6):
        for x in range(3):
            t, t1 = q ** x, q ** (x + 1)
            rhs = q_bracket(t, q) ** n
            assert q_poly(n, t, q, plain) + q_poly(n, t1, q, plain) == 2 * rhs
            assert q_poly(n, t, q, star) + q * q_poly(n, t1, q, star) \
                == (1 + q) * rhs
    assert alt_sum(2, 3, q, False) == Fraction(5, 4), "direct alternating sum"
    assert q_power(Fraction(4, 9), Fraction(3, 2)) == Fraction(8, 27)

    # sympy: euler(n, 0) is E_n of 2/(e^t+1); bernoulli(1) = +1/2
    euler, bern = euler_numbers(40), bernoulli_numbers(40)
    for n in range(41):
        assert Fraction(str(sympy.euler(n, 0))) == euler[n], f"E_{n} vs sympy"
        b = Fraction(str(sympy.bernoulli(n)))
        assert (-b if n == 1 else b) == bern[n], f"B_{n} vs sympy"

    # Abel references at s = -n reproduce the exact special values
    for n, x, qq in ((0, Fraction(1), Fraction(1, 3)),
                     (3, Fraction(2), Fraction(1, 2)),
                     (7, Fraction(1, 2), Fraction(4, 9)),
                     (12, Fraction(1), Fraction(4, 5))):
        numbers = q_numbers(n, qq)
        exact = q_poly(n, q_power(qq, x), qq, numbers) / 2
        assert within(zeta_ref(Fraction(-n), x, qq, 50), exact, 50), \
            f"zeta reference at s=-{n}"
    qq = Fraction(1, 3)
    for n, a, period in ((2, 1, 3), (4, 3, 5)):
        base = qq ** period
        poly = q_poly(n, qq ** a, base, q_numbers(n, base))
        sign = -1 if a % 2 else 1
        exact = sign * q_bracket(base, qq) ** n * poly / 2
        assert within(partial_zeta_ref(Fraction(-n), a, period, qq, 50),
                      exact, 50), "partial zeta reference"
    # l at s = -n is sum_a chi(a) H(-n, a; F); principal character mod 1
    # gives -zeta(s, 1)
    with mp.workdps(80):
        lhs = l_function_ref(Fraction(-3), 1, 1, (0,), qq, 50)
        rhs = -zeta_ref(Fraction(-3), Fraction(1), qq, 50)
    assert within(lhs, rhs, 50), "l reference, modulus 1"
    # a complex character mod 5 (order 4): the series equals the residue
    # decomposition, both from the references
    exps = (None, 0, 1, 3, 2)
    assert not character_problems(5, 4, exps), "character check"
    assert character_problems(5, 4, (None, 0, 1, 2, 2)), "character check"
    s = Fraction(-5, 2)
    with mp.workdps(90):
        lhs = l_function_ref(s, 5, 4, exps, qq, 50)
        rhs = sum(character_value(exps[a], 4)
                  * partial_zeta_ref(s, a, 5, qq, 50) for a in range(1, 5))
    assert within(lhs, rhs, 50), "l reference, complex character"
    assert within(parse_complex("1.5-2.5e-3i"), mpc(1.5, -0.0025), 15)


if __name__ == "__main__":
    self_check()
    print("references agree with sympy and with the exact special values")
