"""Dirichlet character groups and the generalized numbers / L-function.

Multiplicativity and orthogonality are exact integer statements on the
exponent tables; numeric L-values are checked against the exact special
values they interpolate.
"""

from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from mpmath import mp, mpf

from qeuler import characters, qzeta
from qeuler.characters import character, characters_mod
from qeuler.cli import main
from qeuler.errors import DomainError
from qeuler.exactnum import GUARD_DIGITS, QBase
from qeuler.realnum import RealP, to_mpf, tolerance
from qeuler.qnumbers import generalized_q_euler, q_euler_number, q_int
from qeuler.qzeta import ZetaQuery, l_function, zeta

P = 50
MODULI = (3, 5, 9, 15)


def phi(d):
    return sum(1 for a in range(1, d + 1) if gcd(a, d) == 1)


def test_group_sizes():
    assert len(characters_mod(3)) == 2
    assert len(characters_mod(9)) == 6
    assert len(characters_mod(15)) == 8
    for d in MODULI:
        assert len(characters_mod(d)) == phi(d)


def test_each_group_is_built_once():
    # characters_mod keeps its immutable groups in a bounded memo
    for d in MODULI:
        assert characters_mod(d) is characters_mod(d)
    assert characters_mod.cache_info().maxsize \
        == characters.CHARACTERS_CACHE_SIZE


def test_rejects_even_modulus():
    with pytest.raises(DomainError):
        characters_mod(6)
    with pytest.raises(DomainError):
        characters_mod(0)


def test_zero_exactly_off_units():
    for d in MODULI:
        for chi in characters_mod(d):
            for a in range(d):
                assert (chi.exponents[a] is None) == (gcd(a, d) > 1)


def test_multiplicativity_at_exponent_level():
    for d in MODULI:
        for chi in characters_mod(d):
            m = chi.order
            assert chi.exponents[1 % d] == 0
            for a in range(d):
                if gcd(a, d) > 1:
                    continue
                for b in range(d):
                    if gcd(b, d) > 1:
                        continue
                    assert chi.exponents[a * b % d] \
                        == (chi.exponents[a] + chi.exponents[b]) % m


def test_orthogonality_exact():
    # non-principal characters hit every order-th root of unity equally
    # often, so the value sum is a multiple of 1 + z + ... + z^(m-1) = 0
    for d in MODULI:
        group = characters_mod(d)
        principals = 0
        for chi in group:
            exponents = [e for e in chi.exponents if e is not None]
            counts = Counter(exponents)
            if chi.order == 1:
                principals += 1
                assert set(counts) == {0}
            else:
                assert chi.order > 1
                assert set(counts) == set(range(chi.order))
                assert len(set(counts.values())) == 1
        assert principals == 1


def test_group_closed_under_product():
    # chi(a) = exp(2 pi i e_a / order), so a character is its table of
    # e_a / order mod 1, and a product's table is the sum mod 1
    for d in MODULI:
        group = characters_mod(d)
        tables = {tuple(None if e is None else Fraction(e, chi.order)
                        for e in chi.exponents) for chi in group}
        assert len(tables) == len(group)
        for a in tables:
            for b in tables:
                assert tuple(None if x is None else (x + y) % 1
                             for x, y in zip(a, b)) in tables


def test_order_divides_group_order():
    for d in MODULI:
        for chi in characters_mod(d):
            assert phi(d) % chi.order == 0


def test_canonical_ordering_is_deterministic():
    for d in MODULI:
        assert characters_mod(d) == characters_mod(d)


def test_one_character_is_its_group_member():
    for d in range(1, 106, 2):
        group = characters_mod(d)
        assert [character(d, i) for i in range(len(group))] == list(group)
        for index in (-1, len(group)):
            with pytest.raises(IndexError):
                character(d, index)
    with pytest.raises(DomainError):
        character(4, 0)


def test_lfunction_command_builds_one_character(capsys, monkeypatch):
    built = []
    real = characters.DirichletCharacter

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(characters, "DirichletCharacter", spy)
    assert main(["lfunction", "--s", "1/2", "--modulus", "105",
                 "--char-index", "37", "--q", "1/2", "--prec", "20"]) == 0
    assert "value" in capsys.readouterr().out
    assert len(built) == 1


def test_generalized_numbers_mod3():
    chi = characters_mod(3)[1]
    assert chi.order == 2
    assert generalized_q_euler(0, chi, Fraction(1, 2)) == -2
    assert generalized_q_euler(1, chi, Fraction(1, 2)) == Fraction(-4, 3)


def test_generalized_numbers_validation():
    chi = characters_mod(3)[1]
    for n, q in ((-1, Fraction(1, 2)), (1, Fraction(1)),
                 (1, Fraction(3, 2)), (1, Fraction(0)), (1, Fraction(-1, 2))):
        with pytest.raises(DomainError):
            generalized_q_euler(n, chi, q)


def test_generalized_numbers_modulus_one_degenerate():
    chi = characters_mod(1)[0]
    for q in (Fraction(1, 3), Fraction(1, 2)):
        for n in range(7):
            assert generalized_q_euler(n, chi, q) == q_euler_number(n, QBase(q))


def test_generalized_number_complex_is_finite():
    chi = characters_mod(5)[1]
    assert chi.order == 4
    value = generalized_q_euler(2, chi, Fraction(1, 2), P)
    with mp.workdps(P + GUARD_DIGITS):
        assert mp.isfinite(value)


def test_l_function_anchor():
    chi = characters_mod(3)[1]
    value = l_function(RealP.from_rational(-1, P), chi,
                       QBase(Fraction(1, 2), zeta_domain=True), P)
    with mp.workdps(P + GUARD_DIGITS):
        assert abs(value.value - to_mpf(Fraction(-2, 3))) <= tolerance(P)


def test_l_function_special_values_all_characters():
    for d in (3, 5):
        group = characters_mod(d)
        for chi in group:
            for q in (Fraction(1, 3), Fraction(1, 2)):
                base = QBase(q, zeta_domain=True)
                for n in range(7):
                    numeric = l_function(RealP.from_rational(-n, P), chi,
                                         base, P)
                    exact = generalized_q_euler(n, chi, q, P)
                    with mp.workdps(P + GUARD_DIGITS):
                        half = (to_mpf(exact) if isinstance(exact, Fraction)
                                else exact) / 2
                        assert abs(numeric.value - half) <= tolerance(P)


def test_l_function_modulus_one():
    # degenerates to -zeta(s, 1); at s = -1 the value is E_{1,q}/2
    chi = characters_mod(1)[0]
    value = l_function(RealP.from_rational(-1, P), chi,
                       QBase(Fraction(1, 2), zeta_domain=True), P)
    with mp.workdps(P + GUARD_DIGITS):
        assert abs(value.value - to_mpf(Fraction(-1, 3))) <= tolerance(P)


def test_even_modulus_is_refused():
    # for even F, (-1)^(a+mF) is not (-1)^(a+m): with chi the character
    # mod 4, at s = -1 and q = 1/2 the series sum_n (-1)^n chi(n) [n]_q
    # sums to -(1/(1-q))(1/2 - q/(1+q^2)) = -1/5, where both residue
    # decompositions read 12/17
    chi = characters.DirichletCharacter(4, 2, (None, 0, None, 1))
    q = Fraction(1, 2)
    with pytest.raises(DomainError, match="the period F must be odd"):
        l_function(RealP.from_rational(-1, P), chi,
                   QBase(q, zeta_domain=True), P)
    with pytest.raises(DomainError, match="the period F must be odd"):
        generalized_q_euler(1, chi, q)


def test_l_special_value_n0():
    chi = characters_mod(3)[1]
    assert generalized_q_euler(0, chi, Fraction(1, 2)) == -2


def test_l_value_far_above_one_meets_contract():
    # |L| is about 3.8e39 here; a final scale at P + GUARD_DIGITS relative
    # digits left an absolute error of about 1e-31
    chi = characters_mod(3)[1]
    q = Fraction(4, 5)
    value = l_function(RealP.from_rational(-60, P), chi,
                       QBase(q, zeta_domain=True), P)
    exact = generalized_q_euler(60, chi, q, P) / 2
    with mp.workdps(P + GUARD_DIGITS + 40):
        assert abs(value.value - to_mpf(exact)) <= tolerance(P)


def partial_zeta_by_zeta(s, a, period, q, precision):
    """Oracle: H_q(s, a; F) = [F]_q^(-s) (-1)^a zeta_{q^F}(s, a/F), one
    residue summed by `zeta` at base q^F with q^(a/F) taken by mp.power."""
    inner = zeta(ZetaQuery(s, RealP.from_rational(Fraction(a, period),
                                                  precision),
                           QBase(q ** period, zeta_domain=True), precision))
    value = mp.power(to_mpf(q_int(period, QBase(q))), -s.value) * inner.value
    return -value if a % 2 else value


def test_l_function_is_one_pass_over_the_residue_sums(monkeypatch):
    passes = []
    real = qzeta._continuation_sums

    def spy(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(qzeta, "_continuation_sums", spy)
    for precision in (20, 50):
        for q in (Fraction(1, 3), Fraction(4, 5)):
            base = QBase(q, zeta_domain=True)
            for s_text in ("-7/2", "-2", "1/2", "3"):
                s = RealP.from_rational(s_text, precision)
                for d in (3, 5, 7, 9, 15):
                    units = [a for a in range(1, d) if gcd(a, d) == 1]
                    with mp.workdps(precision + 2 * GUARD_DIGITS):
                        parts = {a: partial_zeta_by_zeta(s, a, d, q,
                                                         precision)
                                 for a in units}
                    for chi in characters_mod(d):
                        passes.clear()
                        value = l_function(s, chi, base, precision)
                        assert len(passes) == 1
                        with mp.workdps(precision + 2 * GUARD_DIGITS):
                            want = mp.fsum(
                                mp.expjpi(mpf(2 * chi.exponents[a])
                                          / chi.order) * parts[a]
                                for a in units)
                            assert abs(value.value - want) \
                                <= tolerance(precision)
