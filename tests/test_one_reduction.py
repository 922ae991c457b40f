"""The values built as one integer over one shared denominator
(`qnumbers._distribution_terms`) against term-by-term Fraction sums, each
term a q_euler_poly with its own base, witness-checked QPower and reduced
Fraction.  `partial_zeta_special_value` has its term-by-term oracle in
tests/test_qzeta.py."""

from fractions import Fraction

from qeuler.characters import characters_mod
from qeuler.exactnum import QBase
from qeuler.qnumbers import (QPower, _generalized_parts, distribution_sum,
                             generalized_q_euler, q_euler_poly, q_int)
from qeuler.verify import (DISTRIBUTION_Q, DISTRIBUTION_X, LFUNCTION_Q,
                           MODULI, SPECIAL_N)

#: The exact-sweep benchmark's largest distribution sums: m = 20, f = 5 at
#: q = (5/11)^2.
SWEEP_Q = Fraction(25, 121)


def term(n, q, period, k):
    """[F]_q^n E_{n,q^F}(k/F) on its own, through t = (q^F)^(k/F) = q^k."""
    poly = q_euler_poly(n, QPower(QBase(q ** period), q ** k,
                                  Fraction(k, period)))
    return q_int(period, QBase(q)) ** n * poly


def test_distribution_sum_matches_its_terms():
    cells = [(m, f, x, q) for m in range(9) for f in (1, 3, 5)
             for x in range(DISTRIBUTION_X + 1) for q in DISTRIBUTION_Q]
    cells += [(20, 5, x, SWEEP_Q) for x in (0, 1, 2)]
    for m, f, x, q in cells:
        want = sum((-term(m, q, f, x + a) if a % 2 else term(m, q, f, x + a)
                    for a in range(f)), Fraction(0))
        assert distribution_sum(m, f, x, QBase(q)) == want


def test_generalized_coefficients_match_their_terms():
    complex_seen = set()
    for d in MODULI + (7, 9):
        for chi in characters_mod(d):
            if d in (5, 7, 9) and chi.order > 2:
                complex_seen.add(d)
            for n in range(SPECIAL_N + 1):
                for q in LFUNCTION_Q:
                    want: dict[int, Fraction] = {}
                    for a, e in enumerate(chi.exponents):
                        if e is not None:
                            value = term(n, q, d, a)
                            want[e] = want.get(e, 0) \
                                + (-value if a % 2 else value)
                    coefficients, den = _generalized_parts(n, chi, q)
                    assert {e: Fraction(c, den)
                            for e, c in coefficients.items()} == want
                    if chi.order <= 2:
                        assert generalized_q_euler(n, chi, q) == sum(
                            -c if e else c for e, c in want.items())
    assert complex_seen == {5, 7, 9}
