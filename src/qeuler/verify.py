"""Identity-verification suites with machine-readable reports.

Each suite walks a parameter grid, evaluates an identity's two routes in
every cell, and collects the disagreements.  Exact suites compare Fractions
bit for bit and report deviation "exact"; numeric suites compare
precision-P reals against the certified bound 10**-(P-10).

Cells run one after another in canonical grid order, so the reports are
deterministic apart from the elapsed_ms measurement.

`run_suite` looks a suite up in SUITES at call time and passes it only the
options that `_SUITE_OPTIONS` lists for it; it ignores the others.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from mpmath import mp, mpf

from .exactnum import (DEFAULT_PRECISION, GUARD_DIGITS, RealP,
                       format_rational, to_mpf, tolerance)
from . import classical
from .characters import characters_mod, generalized_q_euler, l_function
from .qnumbers import (QBase, QPower, alt_q_power_sum, alt_q_power_sum_closed,
                       distribution_sum, q_euler_poly,
                       q_euler_poly_via_numbers, weighted_alt_q_power_sum,
                       weighted_alt_q_power_sum_closed)
from .qzeta import ZetaQuery, partial_zeta, partial_zeta_special_value, \
    zeta, zeta_euler_transform

IDENTITY_Q = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
              Fraction(3, 2), Fraction(5, 2))
POLY_Q = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2))
DISTRIBUTION_Q = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
ZETA_S = ("-3", "-2", "-1", "-1/2", "0", "1/2", "1", "2")
ZETA_X = ("1/2", "1", "2", "7/2")
ZETA_Q = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
LFUNCTION_Q = (Fraction(1, 3), Fraction(1, 2))


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


def _exact_suite(name: str, grid: dict, cells, evaluate) -> VerificationReport:
    """Run cells whose evaluator yields (inputs, lhs, rhs) Fractions."""
    start = time.perf_counter()
    outcomes = [evaluate(cell) for cell in cells]
    failures = []
    worst = Fraction(0)
    for inputs, lhs, rhs in outcomes:
        if lhs != rhs:
            deviation = abs(lhs - rhs)
            worst = max(worst, deviation)
            failures.append({
                "inputs": inputs,
                "lhs": format_rational(lhs),
                "rhs": format_rational(rhs),
                "deviation": format_rational(deviation),
            })
    return VerificationReport(
        suite=name, grid=grid, cases_run=len(cells), failures=failures,
        max_deviation="exact" if not failures else _decimal(worst),
        elapsed_ms=int((time.perf_counter() - start) * 1000))


def _numeric_suite(name: str, grid: dict, cells, evaluate,
                   precision: int) -> VerificationReport:
    """Run cells whose evaluator yields (inputs, lhs_str, rhs_str, |dev|)."""
    start = time.perf_counter()
    outcomes = [evaluate(cell) for cell in cells]
    with mp.workdps(precision + GUARD_DIGITS):
        bound = tolerance(precision)
        failures = []
        worst = mpf(0)
        for inputs, lhs, rhs, deviation in outcomes:
            worst = max(worst, deviation)
            if deviation > bound:
                failures.append({
                    "inputs": inputs,
                    "lhs": lhs,
                    "rhs": rhs,
                    "deviation": mp.nstr(deviation, 10),
                })
        max_dev = mp.nstr(worst, 10)
    return VerificationReport(
        suite=name, grid=grid, cases_run=len(cells), failures=failures,
        max_deviation=max_dev,
        elapsed_ms=int((time.perf_counter() - start) * 1000))


def _decimal(value: Fraction) -> str:
    with mp.workdps(30):
        return mp.nstr(to_mpf(value), 10)


def _sum_suite(name: str, closed, direct, max_m: int, max_n: int,
              qs) -> VerificationReport:
    """Power sums over (m, n, q): closed form vs brute force, exact."""
    cells = [(m, n, q) for m in range(1, max_m + 1)
             for n in range(1, max_n + 1) for q in qs]

    def evaluate(cell):
        m, n, q = cell
        base = QBase(q)
        return ({"m": m, "n": n, "q": format_rational(q)},
                closed(m, n, base), direct(m, n, base))

    grid = {"m": [1, max_m], "n": [1, max_n],
            "q": [format_rational(q) for q in qs]}
    return _exact_suite(name, grid, cells, evaluate)


def verify_thm3(max_m: int = 10, max_n: int = 20,
                qs=IDENTITY_Q) -> VerificationReport:
    """Alternating q-power sums: closed form vs brute force, exact."""
    return _sum_suite("thm3", alt_q_power_sum_closed, alt_q_power_sum,
                      max_m, max_n, qs)


def verify_weighted(max_m: int = 10, max_n: int = 20,
                    qs=IDENTITY_Q) -> VerificationReport:
    """Weighted alternating q-power sums: closed form vs brute force."""
    return _sum_suite("weighted", weighted_alt_q_power_sum_closed,
                      weighted_alt_q_power_sum, max_m, max_n, qs)


def verify_thm2(max_n: int = 10, max_x: int = 8,
                qs=POLY_Q) -> VerificationReport:
    """The two q-Euler polynomial forms agree on exact inputs."""
    cells = [(n, x, q) for n in range(max_n + 1)
             for x in range(max_x + 1) for q in qs]

    def evaluate(cell):
        n, x, q = cell
        qp = QPower.from_integer(QBase(q), x)
        return ({"n": n, "x": x, "q": format_rational(q)},
                q_euler_poly(n, qp),
                q_euler_poly_via_numbers(n, qp))

    grid = {"n": [0, max_n], "x": [0, max_x],
            "q": [format_rational(q) for q in qs]}
    return _exact_suite("thm2", grid, cells, evaluate)


def verify_thm4(max_m: int = 8, fs=(1, 3, 5), max_x: int = 5,
                qs=DISTRIBUTION_Q) -> VerificationReport:
    """Distribution relation: the f-part sum reproduces E_{m,q}(x)."""
    cells = [(m, f, x, q) for m in range(max_m + 1) for f in fs
             for x in range(max_x + 1) for q in qs]

    def evaluate(cell):
        m, f, x, q = cell
        base = QBase(q)
        return ({"m": m, "f": f, "x": x, "q": format_rational(q)},
                distribution_sum(m, f, x, base),
                q_euler_poly(m, QPower.from_integer(base, x)))

    grid = {"m": [0, max_m], "f": list(fs), "x": [0, max_x],
            "q": [format_rational(q) for q in qs]}
    return _exact_suite("thm4", grid, cells, evaluate)


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
            return ({"sum": kind, "n": m, "k": k},
                    classical.power_sum_closed(m, k),
                    classical.power_sum(m, k))
        return ({"sum": kind, "m": m, "k": k},
                classical.alt_power_sum_closed(m, k),
                classical.alt_power_sum(m, k))

    grid = {"exponent": [1, max_m], "k": [1, max_n],
            "sums": ["plain", "alt"]}
    return _exact_suite("classical", grid, cells, evaluate)


def verify_zeta(precision: int = DEFAULT_PRECISION) -> VerificationReport:
    """Dual-route zeta: continuation series vs CVZ-accelerated summation of
    the raw series."""
    cells = [(s, x, q) for s in ZETA_S for x in ZETA_X for q in ZETA_Q]

    def evaluate(cell):
        s, x, q = cell
        zq = ZetaQuery(RealP.from_rational(s, precision),
                       RealP.from_rational(x, precision),
                       QBase(q, zeta_domain=True), precision)
        a = zeta(zq)
        b = zeta_euler_transform(zq)
        with mp.workdps(precision + GUARD_DIGITS):
            deviation = abs(a.value - b.value)
        return ({"s": s, "x": x, "q": format_rational(q)},
                a.digits(), b.digits(), deviation)

    grid = {"s": list(ZETA_S), "x": list(ZETA_X),
            "q": [format_rational(q) for q in ZETA_Q],
            "precision": precision}
    return _numeric_suite("zeta", grid, cells, evaluate, precision)


def verify_partial_zeta(max_n: int = 6, periods=(3, 5), qs=LFUNCTION_Q,
                        precision: int = DEFAULT_PRECISION
                        ) -> VerificationReport:
    """Partial zeta at negative integers vs its exact special value."""
    cells = [(n, a, F, q) for n in range(1, max_n + 1) for F in periods
             for a in range(1, F) for q in qs]

    def evaluate(cell):
        n, a, F, q = cell
        numeric = partial_zeta(RealP.from_rational(-n, precision), a, F,
                               QBase(q, zeta_domain=True), precision)
        exact = partial_zeta_special_value(n, a, F, q)
        with mp.workdps(precision + GUARD_DIGITS):
            deviation = abs(numeric.value - to_mpf(exact))
        return ({"n": n, "a": a, "F": F, "q": format_rational(q)},
                numeric.digits(), format_rational(exact), deviation)

    grid = {"n": [1, max_n], "F": list(periods),
            "q": [format_rational(q) for q in qs], "precision": precision}
    return _numeric_suite("partial-zeta", grid, cells, evaluate, precision)


def verify_lfunction(max_n: int = 6, moduli=(3, 5), qs=LFUNCTION_Q,
                     precision: int = DEFAULT_PRECISION) -> VerificationReport:
    """L-function at negative integers vs generalized numbers over 2."""
    cells = []
    for d in moduli:
        group = characters_mod(d)
        for index, chi in enumerate(group):
            for n in range(max_n + 1):
                for q in qs:
                    cells.append((d, index, chi, n, q))

    def evaluate(cell):
        d, index, chi, n, q = cell
        lhs = l_function(RealP.from_rational(-n, precision), chi,
                         QBase(q, zeta_domain=True), precision)
        rhs = generalized_q_euler(n, chi, q, precision)
        with mp.workdps(precision + GUARD_DIGITS):
            rhs_half = (to_mpf(rhs) if isinstance(rhs, Fraction)
                        else rhs) / 2
            deviation = abs(lhs.value - rhs_half)
            rhs_str = mp.nstr(rhs_half, precision) \
                if not isinstance(rhs, Fraction) else format_rational(rhs / 2)
        return ({"modulus": d, "char_index": index, "n": n,
                 "q": format_rational(q)},
                lhs.digits(), rhs_str, deviation)

    grid = {"n": [0, max_n], "modulus": list(moduli),
            "q": [format_rational(q) for q in qs], "precision": precision}
    return _numeric_suite("lfunction", grid, cells, evaluate, precision)


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


#: The options each suite takes, by the verify command's names: grid bounds
#: for the exact suites, the certified precision for the real-valued ones.
_SUITE_OPTIONS = {
    "thm2": ("max_n",),
    "thm3": ("max_m", "max_n"),
    "thm4": ("max_m", "fs"),
    "weighted": ("max_m", "max_n"),
    "classical": ("max_m", "max_n"),
    "zeta": ("precision",),
    "partial-zeta": ("precision",),
    "lfunction": ("precision",),
}


def run_suite(name: str, **options) -> VerificationReport:
    """Run SUITES[name] with the options `_SUITE_OPTIONS` lists for it that
    are given and not None; the others are ignored, and the suite's
    defaults fill in.  SUITES is read at call time, so replacing one of its
    entries replaces the suite everywhere."""
    return SUITES[name](**{key: options[key] for key in _SUITE_OPTIONS[name]
                           if options.get(key) is not None})
