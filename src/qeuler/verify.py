"""Identity-verification suites with machine-readable reports.

Each suite walks a parameter grid, evaluates an identity's two routes in
every cell, and collects the disagreements.  Exact suites compare Fractions
bit for bit and report deviation "exact"; numeric suites compare
precision-P reals against the certified bound 10**-(P-10).

A suite whose cells are the product of its axes (thm2, thm3, weighted,
thm4, zeta) names each axis once, in cell order, to `_grid_suite`, which
derives from them the cells, the report's grid (a range axis as its
first and last value, any other as its values, then the precision of a
numeric suite) and a failing cell's inputs; a QBase shows as its rational
text in both (`_shown`).  partial-zeta, lfunction and classical build
their own cells, which are not a product, and call `_run` directly.

Cells run one after another in canonical grid order, so the reports are
deterministic apart from the elapsed_ms measurement.

A suite's options are its keyword parameters, read from its signature
when this module is imported (`_SUITE_OPTIONS`); the grids no option varies
are the module constants below.  `run_suite` looks a suite up in SUITES at
call time and passes it only its own options; it ignores the others.

`run_suites` runs several suites.  Given exact and numeric suites both (a
numeric suite is one that takes `precision`), where this process may use
two CPUs and can say which (os.sched_getaffinity, as on Linux), it runs
the exact suites in a forked child while this process runs the numeric
ones; the two kinds share no state.  Processes, not threads: the suites
are pure-Python work, which threads would take turns at under the GIL,
and mpmath's precision context is global to a process.  One CPU, no
affinity call (so no way to keep the two processes apart), threads
running or one kind of suite: the suites run one after another in this
process.

The exact routes are imported at the top.  A numeric suite imports its
own routes in its body: `qzeta`, and `cvz` for zeta, or for lfunction
the character tables of `characters` and `qnumbers.generalized_q_euler`,
looked up at call time.  So an exact suite loads no numeric module and
only the zeta suite loads `cvz`.
"""

from __future__ import annotations

import inspect
import itertools
import os
import threading
import time
from collections import namedtuple
from fractions import Fraction

from mpmath import mp

from .exactnum import DEFAULT_PRECISION, GUARD_DIGITS, QBase, format_rational
from .realnum import ComplexP, RealP, to_mpf, tolerance
from . import classical
from .qnumbers import (QPower, alt_q_power_sum, alt_q_power_sum_closed,
                       distribution_sum, partial_zeta_special_value,
                       q_euler_poly, weighted_alt_q_power_sum,
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


class VerificationReport(namedtuple(
        "VerificationReport",
        "suite grid cases_run failures max_deviation elapsed_ms",
        defaults=((), "exact", 0))):
    """Outcome of one suite run.

    failures is empty exactly when the suite passed; max_deviation is the
    string "exact" only when every rational comparison held bit for bit.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return self._asdict()


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


def _shown(value):
    """An input as a report shows it: a QBase as its rational text."""
    return format_rational(value.q) if isinstance(value, QBase) else value


def _named(*names: str | None):
    """The inputs of a cell whose fields are the named inputs in order, a
    field named None left out (`_shown`)."""
    return lambda cell: {name: _shown(value)
                         for name, value in zip(names, cell) if name}


def _grid_suite(name: str, evaluate, precision: int | None = None,
                **axes) -> VerificationReport:
    """Run `evaluate(*cell)` on every cell of the product of the axes,
    given by name in cell order (`_run`).  The report's grid shows a range
    axis as [first, last] and any other as its values (`_shown`), then the
    precision of a numeric suite; a failing cell names its inputs by the
    axes' names."""
    grid = {axis: [values.start, values.stop - 1]
            if isinstance(values, range) else [_shown(v) for v in values]
            for axis, values in axes.items()}
    if precision is not None:
        grid["precision"] = precision
    return _run(name, grid, list(itertools.product(*axes.values())),
                lambda cell: evaluate(*cell), _named(*axes), precision)


def _sum_suite(name: str, closed, direct, max_m: int,
              max_n: int) -> VerificationReport:
    """Power sums over (m, n, q): closed form vs brute force, exact."""
    return _grid_suite(name, lambda *cell: (closed(*cell), direct(*cell)),
                       m=range(1, max_m + 1), n=range(1, max_n + 1),
                       q=[QBase(q) for q in IDENTITY_Q])


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
    def evaluate(n, x, base):
        qp = QPower.from_integer(base, x)
        return q_euler_poly(n, qp), classical.q_euler_poly_via_numbers(n, qp)

    return _grid_suite("thm2", evaluate, n=range(max_n + 1),
                       x=range(POLY_X + 1), q=[QBase(q) for q in POLY_Q])


def verify_thm4(max_m: int = 8, fs=(1, 3, 5)) -> VerificationReport:
    """Distribution relation: the f-part sum (the kernel at base q^f)
    reproduces E_{m,q}(x), taken in its binomial form over the recurrence
    numbers.  The relation holds for the kernel times any constant, so
    only a route without the kernel sees its scale."""
    def evaluate(m, f, x, base):
        return (distribution_sum(m, f, x, base),
                classical.q_euler_poly_via_numbers(
                    m, QPower.from_integer(base, x)))

    return _grid_suite("thm4", evaluate, m=range(max_m + 1), f=fs,
                       x=range(DISTRIBUTION_X + 1),
                       q=[QBase(q) for q in DISTRIBUTION_Q])


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

    def evaluate(s, x, base):
        zq = ZetaQuery(reals[s], reals[x], base, precision)
        return zeta(zq), zeta_euler_transform(zq)

    return _grid_suite("zeta", evaluate, precision, s=ZETA_S, x=ZETA_X,
                       q=[QBase(q, zeta_domain=True) for q in ZETA_Q])


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
    (`qnumbers.generalized_q_euler`) sums its own, so a wrong root on
    either side is a disagreement here."""
    from .characters import characters_mod
    from .qnumbers import generalized_q_euler
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


def _outcome(name: str, options: dict):
    """The suite's report (`run_suite`), or the exception it raised."""
    try:
        return run_suite(name, **options)
    except Exception as exc:  # noqa: BLE001 - raised again by run_suites
        return exc


def run_suites(names, **options) -> list[VerificationReport]:
    """Run each named suite with the options (`run_suite`); return their
    reports in the order of `names`.

    Where `names` holds exact suites and numeric ones (those taking
    `precision`), this process runs one thread and may use two CPUs, and
    the platform lets it read and set them (os.sched_getaffinity, as on
    Linux), a forked child runs the exact suites while this process runs
    the numeric ones, each process kept to half of those CPUs.  The child
    sends its reports, and the exceptions its suites raised, back through
    a pipe, pickled, and leaves by os._exit, so it flushes none of the
    buffers it inherited (stdout, a report file).  This process reads the
    pipe to its end, reaps the child and takes back all its CPUs even when
    one of its own suites raises.  Otherwise the suites run here, one
    after another.  Either way, where suites raise, the one first in
    `names` is raised, as a run one after another raises it (in the split,
    once each process has run all of its own suites)."""
    numeric = [name for name in names if "precision" in _SUITE_OPTIONS[name]]
    exact = [name for name in names if name not in numeric]
    # the split keeps each process to half the CPUs this one may use: a
    # scheduler may leave a forked child on its parent's CPU, where the two
    # take turns (each suite twice as slow on a 2-CPU Linux VM).  fork
    # copies only the calling thread: a lock another one holds would stay
    # held in the child
    cpus = sorted(getattr(os, "sched_getaffinity", lambda _pid: ())(0))
    if not (numeric and exact and cpus[1:] and threading.active_count() == 1):
        return [run_suite(name, **options) for name in names]
    import pickle
    read, write = os.pipe()
    if (pid := os.fork()) == 0:  # the child
        try:
            os.sched_setaffinity(0, cpus[1::2])
            with open(write, "wb") as pipe:
                pickle.dump({n: _outcome(n, options) for n in exact}, pipe)
        finally:
            os._exit(0)
    os.close(write)
    try:
        os.sched_setaffinity(0, cpus[::2])
        outcomes = {name: _outcome(name, options) for name in numeric}
    finally:
        os.sched_setaffinity(0, cpus)
        with open(read, "rb") as pipe:
            data = pipe.read()
        os.waitpid(pid, 0)
    outcomes.update(pickle.loads(data))
    for name in names:
        if isinstance(outcomes[name], Exception):
            raise outcomes[name]
    return [outcomes[name] for name in names]
