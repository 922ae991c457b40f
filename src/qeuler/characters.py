"""Dirichlet characters of odd modulus, generalized q-Euler numbers
attached to a character, and the q-L-function.

A character mod d is stored as an exponent table: residue a maps to None
off the units, and otherwise to an integer e with chi(a) = exp(2*pi*i*e/m),
m the character's order.  Multiplicativity and orthogonality are therefore
exact integer statements; complex values are materialized only at the final
arithmetic step, at the requested precision.  Characters whose order is at
most 2 take values in {0, 1, -1}; their generalized numbers stay exact.

Construction of the full group: factor d into odd prime powers, take the
smallest primitive root for each, read discrete logs off the root, and
combine one cyclic character per factor through the CRT decomposition of
the unit group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from mpmath import mp, mpf

from .errors import DomainError
from .exactnum import DEFAULT_PRECISION, GUARD_DIGITS, RealP, to_mpf
from .qnumbers import QBase, QPower, q_euler_poly, q_int
from .qzeta import _residue_sum


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (p, e) pairs, p ascending."""
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def _primitive_root(p: int, e: int) -> int:
    """Smallest primitive root mod p^e for an odd prime p."""
    pe = p ** e
    phi = pe - pe // p
    checks = [r for r, _ in _factorize(phi)]
    for g in range(2, pe):
        if gcd(g, pe) != 1:
            continue
        if all(pow(g, phi // r, pe) != 1 for r in checks):
            return g
    raise DomainError(f"no primitive root mod {pe}")  # unreachable for odd p


@dataclass(frozen=True)
class DirichletCharacter:
    """Root-of-unity valued character mod an odd modulus.

    exponents[a] is None exactly when gcd(a, d) > 1; otherwise
    chi(a) = exp(2*pi*i*exponents[a]/order), and the table satisfies
    exponents[a*b mod d] = (exponents[a] + exponents[b]) mod order.
    """

    modulus: int
    order: int
    exponents: tuple[int | None, ...]

    def value(self, a: int):
        """chi(a) as an mpmath complex at the current working precision."""
        e = self.exponents[a % self.modulus]
        if e is None:
            return mp.mpc(0)
        return mp.expjpi(mpf(2 * e) / self.order)


def _canonical(modulus: int, span: int,
               raw: list[int | None]) -> DirichletCharacter:
    """Reduce a raw exponent table mod `span` to the character's true order."""
    g = span
    for e in raw:
        if e:
            g = gcd(g, e)
    order = span // g
    exps = tuple(None if e is None else (e // g) % order for e in raw)
    return DirichletCharacter(modulus, order, exps)


def characters_mod(d: int) -> tuple[DirichletCharacter, ...]:
    """The complete character group mod odd d >= 1, all phi(d) characters.

    Ordering is deterministic: prime-power factors ascending, one exponent
    choice per factor, tuples enumerated lexicographically.  d = 1 yields
    the single trivial character with chi(0) = 1, so the generalized
    numbers degenerate to the plain q-Euler numbers.
    """
    if d < 1 or d % 2 == 0:
        raise DomainError("modulus must be an odd positive integer")
    if d == 1:
        return (DirichletCharacter(1, 1, (0,)),)

    components = []
    for p, e in _factorize(d):
        pe = p ** e
        phi = pe - pe // p
        g = _primitive_root(p, e)
        dlog = {}
        value = 1
        for l in range(phi):
            dlog[value] = l
            value = value * g % pe
        components.append((pe, phi, dlog))
    span = lcm(*(phi for _, phi, _ in components))

    logs: list[tuple[int, ...] | None] = []
    for a in range(d):
        if gcd(a, d) != 1:
            logs.append(None)
        else:
            logs.append(tuple(dlog[a % pe] for pe, _, dlog in components))

    characters = []
    for choice in itertools.product(*(range(phi) for _, phi, _ in components)):
        raw: list[int | None] = []
        for entry in logs:
            if entry is None:
                raw.append(None)
            else:
                raw.append(sum(c * l * (span // phi)
                               for c, l, (_, phi, _)
                               in zip(choice, entry, components)) % span)
        characters.append(_canonical(d, span, raw))
    return tuple(characters)


def _materialize(coefficients: dict[int, Fraction], order: int,
                 scale: Fraction, precision: int):
    """Turn sum_e coeff_e * exp(2*pi*i*e/order), times scale, into a value:
    exact Fraction when every exponent is real (+1/-1), else mpc."""
    if all(e == 0 or 2 * e == order for e in coefficients):
        total = sum(c if e == 0 else -c for e, c in coefficients.items())
        return scale * total
    with mp.workdps(precision + GUARD_DIGITS):
        total = mp.mpc(0)
        for e in sorted(coefficients):
            total += to_mpf(coefficients[e]) * mp.expjpi(mpf(2 * e) / order)
        return total * to_mpf(scale)


def generalized_q_euler(n: int, chi: DirichletCharacter, q: Fraction,
                        precision: int = DEFAULT_PRECISION):
    """Generalized q-Euler number attached to chi:

        E_{n,chi,q} = [d]_q^n sum_{a<d} chi(a) (-1)^a E_{n,q^d}(a/d),

    each inner polynomial evaluated exactly through t = q^a.  Real
    characters give an exact Fraction; otherwise the exact root-of-unity
    coefficients are materialized into an mpmath complex at `precision`.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    q = Fraction(q)
    if not 0 < q < 1:
        raise DomainError("requires rational q in (0, 1)")
    d = chi.modulus
    base_d = QBase(q ** d)
    coefficients: dict[int, Fraction] = {}
    for a in range(d):
        e = chi.exponents[a]
        if e is None:
            continue
        term = q_euler_poly(n, QPower(base_d, q ** a, Fraction(a, d)))
        if a % 2:
            term = -term
        coefficients[e] = coefficients.get(e, Fraction(0)) + term
    scale = q_int(d, QBase(q)) ** n
    return _materialize(coefficients, chi.order, scale, precision)


def l_function(s: RealP, chi: DirichletCharacter, q: QBase,
               precision: int = DEFAULT_PRECISION):
    """q-L-function l_{E,q}(s, chi) = sum_{n>=1} (-1)^n chi(n) / [n]_q^s,
    computed through the residue-class decomposition

        l_{E,q}(s, chi) = sum_{a=1..F} chi(a) H_q(s, a; F),  F = modulus.

    Residues with gcd(a, F) > 1 drop out through chi; F = 1 leaves a = 1,
    where H_q(s, 1; 1) = -zeta_{E,q}(s, 1).  All residues are summed in one
    pass of the continuation series (`qzeta._residue_sum`): the series runs
    at the smallest residue, each other residue a rides along with the
    weight (q^(a-a_min))^k, q^a is taken exactly, and the smallest
    residue's stop rule covers every residue because its terms dominate
    theirs.  Returns RealP for real characters, ComplexP otherwise.
    """
    F = chi.modulus
    exponents = {a: chi.exponents[a % F] for a in range(1, F + 1)
                 if chi.exponents[a % F] is not None}
    return _residue_sum(s, exponents, chi.order, F, q.q, precision)
