"""Identity-verification suites with machine-readable reports.

Each suite walks a parameter grid, evaluates an identity's two routes in
every cell, and collects the disagreements.  Exact suites compare Fractions
bit for bit and report deviation "exact"; numeric suites compare
precision-P reals against the certified bound 10**-(P-10).

Cells run one after another in canonical grid order, so the reports are
deterministic apart from the elapsed_ms measurement.

A suite's options are its keyword parameters, read from its signature
when this module is imported (`_SUITE_OPTIONS`); the grids no option varies
are the module constants below.  `run_suite` looks a suite up in SUITES at
call time and passes it only its own options; it ignores the others.

The exact routes are imported at the top.  A numeric suite imports its
own routes in its body (`qzeta`, and `cvz` or `characters`), so an exact
suite loads no numeric module and only the zeta suite loads `cvz`.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from mpmath import mp

from .exactnum import (DEFAULT_PRECISION, GUARD_DIGITS, ComplexP, RealP,
                       format_rational, to_mpf, tolerance)
from . import classical
from .qnumbers import (QBase, QPower, alt_q_power_sum, alt_q_power_sum_closed,
                       distribution_sum, partial_zeta_special_value,
                       q_euler_poly, q_euler_poly_via_numbers,
                       weighted_alt_q_power_sum,
                       weighted_alt_q_power_sum_closed)

IDENTITY_Q = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
              Fraction(3, 2), Fraction(5, 2))
POLY_Q = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2))
POLY_X = 8
DISTRIBUTION_Q = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
DISTRIBUTION_X = 5
ZETA_S = ("-3", "-2", "-1", "-1/2", "0", "1/2", "1", "2")
ZETA_X = ("1/2", "1", "2", "7/2")
ZETA_Q = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
LFUNCTION_Q = (Fraction(1, 3), Fraction(1, 2))
SPECIAL_N = 6
PERIODS = (3, 5)
MODULI = (3, 5)


@dataclass
class VerificationReport:
    """Outcome of one suite run.

    failures is empty exactly when the suite passed; max_deviation is the
    string "exact" only when every rational comparison held bit for bit.
    """

    suite: str
    grid: dict
    cases_run: int
    failures: list[dict] = field(default_factory=list)
    max_deviation: str = "exact"
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return asdict(self)


def _run(name: str, grid: dict, cells, evaluate, describe,
         precision: int | None = None) -> VerificationReport:
    """Run cells whose evaluator yields the two sides (lhs, rhs) of an
    identity: exact Fractions that must agree bit for bit when precision
    is None, else numeric sides (RealP, ComplexP, Fraction, mpf or mpc)
    whose difference must be within 10**-(P-10).  Numeric cells are
    evaluated, and |lhs - rhs| taken, at P + GUARD_DIGITS working digits.

    Only a failing cell is written out: its inputs (`describe`) and both
    sides as text, an exact value by `format_rational`, a RealP or
    ComplexP by its digits and an mpf or mpc by mp.nstr at P digits."""
    start = time.perf_counter()
    exact = precision is None

    def number(side):  # an exact side as it is, a numeric one as mpf/mpc
        if exact or not isinstance(side, (Fraction, RealP, ComplexP)):
            return side
        return to_mpf(side) if isinstance(side, Fraction) else side.value

    def text(value) -> str:
        if exact or isinstance(value, Fraction):
            return format_rational(value)
        if isinstance(value, (RealP, ComplexP)):
            return value.digits()
        return mp.nstr(value, precision)

    with mp.workdps(30 if exact else precision + GUARD_DIGITS):
        # equal sides are 0 apart without a subtraction
        outcomes = [(lhs, rhs, abs(number(lhs) - number(rhs))
                     if lhs != rhs else 0)
                    for lhs, rhs in map(evaluate, cells)]
        bound = 0 if exact else tolerance(precision)
        failures = [{"inputs": describe(cell), "lhs": text(lhs),
                     "rhs": text(rhs),
                     "deviation": text(deviation) if exact
                     else mp.nstr(deviation, 10)}
                    for cell, (lhs, rhs, deviation) in zip(cells, outcomes)
                    if deviation > bound]
        worst = max((outcome[2] for outcome in outcomes), default=0)
        max_deviation = "exact" if exact and not failures else \
            mp.nstr(to_mpf(worst) if exact else worst, 10)
    return VerificationReport(
        suite=name, grid=grid, cases_run=len(cells), failures=failures,
        max_deviation=max_deviation,
        elapsed_ms=int((time.perf_counter() - start) * 1000))


def _named(*names: str | None):
    """The inputs of a cell whose fields are the named inputs in order: q,
    a QBase, as its rational text, and a field named None left out."""
    return lambda cell: {name: format_rational(value.q) if name == "q"
                         else value for name, value in zip(names, cell)
                         if name}


def _sum_suite(name: str, closed, direct, max_m: int,
              max_n: int) -> VerificationReport:
    """Power sums over (m, n, q): closed form vs brute force, exact."""
    bases = [QBase(q) for q in IDENTITY_Q]
    cells = [(m, n, base) for m in range(1, max_m + 1)
             for n in range(1, max_n + 1) for base in bases]
    grid = {"m": [1, max_m], "n": [1, max_n],
            "q": [format_rational(q) for q in IDENTITY_Q]}
    return _run(name, grid, cells,
                lambda cell: (closed(*cell), direct(*cell)),
                _named("m", "n", "q"))


def verify_thm3(max_m: int = 10, max_n: int = 20) -> VerificationReport:
    """Alternating q-power sums: closed form vs brute force, exact."""
    return _sum_suite("thm3", alt_q_power_sum_closed, alt_q_power_sum,
                      max_m, max_n)


def verify_weighted(max_m: int = 10, max_n: int = 20) -> VerificationReport:
    """Weighted alternating q-power sums: closed form vs brute force."""
    return _sum_suite("weighted", weighted_alt_q_power_sum_closed,
                      weighted_alt_q_power_sum, max_m, max_n)


def verify_thm2(max_n: int = 10) -> VerificationReport:
    """The two q-Euler polynomial forms agree on exact inputs."""
    bases = [QBase(q) for q in POLY_Q]
    cells = [(n, x, base) for n in range(max_n + 1)
             for x in range(POLY_X + 1) for base in bases]

    def evaluate(cell):
        n, x, base = cell
        qp = QPower.from_integer(base, x)
        return q_euler_poly(n, qp), q_euler_poly_via_numbers(n, qp)

    grid = {"n": [0, max_n], "x": [0, POLY_X],
            "q": [format_rational(q) for q in POLY_Q]}
    return _run("thm2", grid, cells, evaluate, _named("n", "x", "q"))


def verify_thm4(max_m: int = 8, fs=(1, 3, 5)) -> VerificationReport:
    """Distribution relation: the f-part sum reproduces E_{m,q}(x)."""
    bases = [QBase(q) for q in DISTRIBUTION_Q]
    cells = [(m, f, x, base) for m in range(max_m + 1) for f in fs
             for x in range(DISTRIBUTION_X + 1) for base in bases]

    def evaluate(cell):
        m, f, x, base = cell
        return (distribution_sum(m, f, x, base),
                q_euler_poly(m, QPower.from_integer(base, x)))

    grid = {"m": [0, max_m], "f": list(fs), "x": [0, DISTRIBUTION_X],
            "q": [format_rational(q) for q in DISTRIBUTION_Q]}
    return _run("thm4", grid, cells, evaluate,
                _named("m", "f", "x", "q"))


def verify_classical(max_m: int = 12, max_n: int = 50) -> VerificationReport:
    """Classical power sums and alternating power sums vs closed forms, for
    exponents up to max_m and lengths k up to max_n."""
    cells = [("plain", n, k) for n in range(1, max_m + 1)
             for k in range(1, max_n + 1)]
    cells += [("alt", m, k) for m in range(1, max_m + 1)
              for k in range(1, max_n + 1)]

    def evaluate(cell):
        kind, m, k = cell
        if kind == "plain":
            return (classical.power_sum_closed(m, k),
                    classical.power_sum(m, k))
        return (classical.alt_power_sum_closed(m, k),
                classical.alt_power_sum(m, k))

    def describe(cell):
        kind, m, k = cell
        return {"sum": kind, "n" if kind == "plain" else "m": m, "k": k}

    grid = {"exponent": [1, max_m], "k": [1, max_n],
            "sums": ["plain", "alt"]}
    return _run("classical", grid, cells, evaluate, describe)


def verify_zeta(precision: int = DEFAULT_PRECISION) -> VerificationReport:
    """Dual-route zeta: the continuation series (`qzeta.zeta`) vs
    CVZ-accelerated summation of the raw series (`cvz`), two modules that
    share no code (tests/test_imports.py)."""
    from .cvz import zeta_euler_transform
    from .qzeta import ZetaQuery, zeta
    reals = {text: RealP.from_rational(text, precision)
             for text in ZETA_S + ZETA_X}
    bases = [QBase(q, zeta_domain=True) for q in ZETA_Q]
    cells = [(s, x, base) for s in ZETA_S for x in ZETA_X for base in bases]

    def evaluate(cell):
        s, x, base = cell
        zq = ZetaQuery(reals[s], reals[x], base, precision)
        return zeta(zq), zeta_euler_transform(zq)

    grid = {"s": list(ZETA_S), "x": list(ZETA_X),
            "q": [format_rational(q) for q in ZETA_Q],
            "precision": precision}
    return _run("zeta", grid, cells, evaluate, _named("s", "x", "q"),
                precision)


def verify_partial_zeta(precision: int = DEFAULT_PRECISION
                        ) -> VerificationReport:
    """Partial zeta at negative integers vs its exact special value."""
    from .qzeta import partial_zeta
    minus = {n: RealP.from_rational(-n, precision)
             for n in range(1, SPECIAL_N + 1)}
    bases = [QBase(q, zeta_domain=True) for q in LFUNCTION_Q]
    cells = [(n, a, F, base) for n in range(1, SPECIAL_N + 1)
             for F in PERIODS for a in range(1, F) for base in bases]

    def evaluate(cell):
        n, a, F, base = cell
        return (partial_zeta(minus[n], a, F, base, precision),
                partial_zeta_special_value(n, a, F, base.q))

    grid = {"n": [1, SPECIAL_N], "F": list(PERIODS),
            "q": [format_rational(q) for q in LFUNCTION_Q],
            "precision": precision}
    return _run("partial-zeta", grid, cells, evaluate,
                _named("n", "a", "F", "q"), precision)


def verify_lfunction(precision: int = DEFAULT_PRECISION) -> VerificationReport:
    """L-function at negative integers vs generalized numbers over 2.

    The L value (`qzeta.l_function`) sums the roots of unity of its
    residue sums in `qzeta`; the generalized number
    (`characters.generalized_q_euler`) sums its own, so a wrong root on
    either side is a disagreement here."""
    from .characters import characters_mod, generalized_q_euler
    from .qzeta import l_function
    bases = [QBase(q, zeta_domain=True) for q in LFUNCTION_Q]
    cells = [(d, index, chi, n, base) for d in MODULI
             for index, chi in enumerate(characters_mod(d))
             for n in range(SPECIAL_N + 1) for base in bases]
    minus = {n: RealP.from_rational(-n, precision)
             for n in range(SPECIAL_N + 1)}

    def evaluate(cell):
        _, _, chi, n, base = cell
        return (l_function(minus[n], chi, base, precision),
                generalized_q_euler(n, chi, base.q, precision) / 2)

    grid = {"n": [0, SPECIAL_N], "modulus": list(MODULI),
            "q": [format_rational(q) for q in LFUNCTION_Q],
            "precision": precision}
    return _run("lfunction", grid, cells, evaluate,
                _named("modulus", "char_index", None, "n", "q"), precision)


SUITES = {
    "thm2": verify_thm2,
    "thm3": verify_thm3,
    "thm4": verify_thm4,
    "weighted": verify_weighted,
    "classical": verify_classical,
    "zeta": verify_zeta,
    "partial-zeta": verify_partial_zeta,
    "lfunction": verify_lfunction,
}


#: The options each suite takes: its keyword parameters, by the verify
#: command's names.  Read once, so an entry later replaced in SUITES (by a
#: wrapper taking **kwargs, say) still gets the options of its suite.
_SUITE_OPTIONS = {name: tuple(inspect.signature(suite).parameters)
                  for name, suite in SUITES.items()}


def run_suite(name: str, **options) -> VerificationReport:
    """Run SUITES[name] with those of its options (its keyword parameters,
    `_SUITE_OPTIONS`) that are given and not None; the others are ignored,
    and the suite's defaults fill in.  SUITES is read at call time, so
    replacing one of its entries replaces the suite everywhere."""
    return SUITES[name](**{key: options[key] for key in _SUITE_OPTIONS[name]
                           if options.get(key) is not None})
