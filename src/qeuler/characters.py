"""Dirichlet characters of odd modulus, as exact exponent tables.

This module builds character tables only.  Both sides of the identity
they serve live elsewhere: the generalized q-Euler numbers attached to a
character are `qnumbers.generalized_q_euler`, beside the other exact
s = -n values, and the q-L-function is `qzeta.l_function`.  It imports
nothing from the package but `errors` (tests/test_imports.py), and no
mpmath.

A character mod d is stored as an exponent table: residue a maps to None
off the units, and otherwise to an integer e with chi(a) = exp(2*pi*i*e/m),
m the character's order.  Multiplicativity and orthogonality are therefore
exact integer statements; complex values are materialized only at the final
arithmetic step, at the requested precision.  Characters whose order is at
most 2 take values in {0, 1, -1}; their generalized numbers stay exact.

Construction: factor d into odd prime powers, take the smallest primitive
root for each, and read discrete logs off the root, so a unit a has one log
l_i per factor.  Character number `index` is the mixed-radix choice
(c_1, ..., c_k), c_i < phi_i and the first factor most significant, and it
maps a to sum_i c_i l_i / phi_i mod 1.  `character` builds that one table
in O(d); `characters_mod` builds all phi(d) tables from one log table,
and keeps the last CHARACTERS_CACHE_SIZE groups in a bounded lru_cache.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul

from .errors import DomainError

#: Most character groups kept in memory (`characters_mod`, keyed by the
#: modulus d); a group holds phi(d) tables of d entries each.
CHARACTERS_CACHE_SIZE = 16


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


class DirichletCharacter(namedtuple("DirichletCharacter",
                                    "modulus order exponents")):
    """Root-of-unity valued character mod an odd modulus.

    exponents[a] is None exactly when gcd(a, d) > 1; otherwise
    chi(a) = exp(2*pi*i*exponents[a]/order), and the table satisfies
    exponents[a*b mod d] = (exponents[a] + exponents[b]) mod order.
    """

    __slots__ = ()


def _discrete_logs(
        d: int) -> tuple[tuple[int, ...], list[tuple[int, ...] | None]]:
    """phi of each prime-power factor of odd d >= 1, ascending, and each
    residue's discrete logs, one per factor, or None off the units.  d = 1
    has no factors, so its one residue is a unit with no logs."""
    if d < 1 or d % 2 == 0:
        raise DomainError("modulus must be an odd positive integer")
    factors = []
    for p, e in _factorize(d):
        pe = p ** e
        phi = pe - pe // p
        g = _primitive_root(p, e)
        dlog: list[int | None] = [None] * pe
        value = 1
        for l in range(phi):
            dlog[value] = l
            value = value * g % pe
        factors.append((pe, phi, dlog))
    logs = []
    for a in range(d):
        entry = tuple(dlog[a % pe] for pe, _, dlog in factors)
        logs.append(None if None in entry else entry)
    return tuple(phi for _, phi, _ in factors), logs


def _character(d: int, phis: tuple[int, ...],
               logs: list[tuple[int, ...] | None],
               index: int) -> DirichletCharacter:
    """Character number `index` from the factors' phis and the log table.
    Its order is the lcm of the component orders phi_i / gcd(c_i, phi_i),
    so c_i l_i / phi_i = w_i l_i / order with integer weights w_i."""
    choice = []
    for phi in reversed(phis):
        index, c = divmod(index, phi)
        choice.insert(0, c)
    order = lcm(*(phi // gcd(c, phi) for c, phi in zip(choice, phis)))
    weights = [c * order // phi for c, phi in zip(choice, phis)]
    return DirichletCharacter(d, order, tuple(
        None if entry is None else sum(map(mul, weights, entry)) % order
        for entry in logs))


def character(d: int, index: int) -> DirichletCharacter:
    """Character number `index` mod odd d >= 1, in the ordering of
    `characters_mod`, built alone in O(d).  Raises IndexError unless
    0 <= index < phi(d)."""
    phis, logs = _discrete_logs(d)
    size = prod(phis)
    if not 0 <= index < size:
        raise IndexError(f"index must lie in 0..{size - 1} for modulus {d}")
    return _character(d, phis, logs, index)


@lru_cache(maxsize=CHARACTERS_CACHE_SIZE)
def characters_mod(d: int) -> tuple[DirichletCharacter, ...]:
    """The complete character group mod odd d >= 1, all phi(d) characters,
    built once per d: the group is an immutable tuple, so callers share it.

    Ordering is deterministic: prime-power factors ascending, one exponent
    choice per factor, tuples enumerated lexicographically.  d = 1 yields
    the single trivial character with chi(0) = 1, so the generalized
    numbers degenerate to the plain q-Euler numbers.
    """
    phis, logs = _discrete_logs(d)
    return tuple(_character(d, phis, logs, index)
                 for index in range(prod(phis)))
