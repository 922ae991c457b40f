"""Every verification suite catches the faults it is there for.

Each row of MUTATIONS names one fault: the module that is the home of a
name, the name, and a function that makes the faulty version from the
real one.  The fault is applied with monkeypatch at that home, and also
wherever the package has bound the same object under the same name
(`from .home import name`), so every caller runs the fault.  A row whose
name has left its home fails with AttributeError; a row whose home holds
a stale copy that callers no longer run fails because its suites pass.

At the default grids, the suites in a row's `fails` must report
failures and every other suite must pass.  They run as `verify --suite
all` runs them, in one `run_suites` call: on a host with two CPUs the
exact suites run in a forked child, so a row that fails an exact suite
shows that its fault reaches the child through the fork.  The README's
suite table names, in its "Catches" column, the rows that fail each
suite, and is checked against MUTATIONS here."""

import inspect
import re
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from qeuler import characters, classical, cvz, qnumbers, qzeta
from qeuler.exactnum import QBase
from qeuler.realnum import RealP
from qeuler.verify import SUITES, run_suites

README = Path(__file__).resolve().parent.parent / "README.md"


def swap_first_weights(real):
    """CVZ's weights c_1 and c_2 swapped (zeta: 84 of 96 cells)."""
    def weights(count):
        d, c = real(count)
        c = list(c)
        c[1], c[2] = c[2], c[1]
        return d, tuple(c)
    return weights


def head_steps_twice(real):
    """The head terms step by q^(2d) instead of q^d (zeta: 36 of 96
    cells).  The partial-zeta and lfunction suites run only at s = -n,
    where the shift takes no head terms, so they cannot see it."""
    def head_sum(s, gap, step_gap, step, count, wp, exact):
        return real(s, gap, 1 - step ** 2, step ** 2, count, wp, exact)
    return head_sum


def kernel_numerator_doubled(real):
    """The kernel's numerator doubled.  For odd f,
    sum_(a<f) (-1)^a q^(aj) = (1+q^(fj))/(1+q^j), so the distribution
    relation holds for the kernel times any constant: thm4 sees the
    fault only because its other side is the recurrence route."""
    def kernel_parts(*args):
        num, den = real(*args)
        return 2 * num, den
    return kernel_parts


def kernel_pole_moved(real):
    """The kernel's pole 1/(1+q^(j+shift)) moved to 1/(1+q^(j+shift+1)),
    its prefactor (1+q^shift) kept."""
    def kernel_parts(n, a, b, c, d, shift):
        num, den = real(n, a, b, c, d, shift + 1)
        return (num * (b ** shift + a ** shift),
                den * (b ** (shift + 1) + a ** (shift + 1)))
    return kernel_parts


def recurrence_signs_flipped(real):
    """Every E_n (n >= 1) of the Euler recurrence negated, at every q."""
    def euler_recurrence(n_max, q):
        values = real(n_max, q)
        return values[:1] + [-value for value in values[1:]]
    return euler_recurrence


def odd_residue_sign_flipped(real):
    """The special value's sign flipped for odd a (partial-zeta: 36 of 72
    cells)."""
    def special_value(n, a, period, q):
        value = real(n, a, period, q)
        return -value if a % 2 else value
    return special_value


def last_row_dropped(real):
    """The last weighted sum of the residue pass set to 0 (lfunction: 84
    of 84 cells).  Zeta and partial zeta pass no weights."""
    def sums(*args):
        rows, count = real(*args)
        if len(rows) > 1:
            rows[-1] = 0
        return rows, count
    return sums


def stop_rule_loosened(real):
    """The continuation pass stopped 30 digits early (zeta: 48 of 96
    cells).  The partial-zeta and lfunction suites run only at s = -n,
    where the pass stops first at the exact truncation, so they cannot
    see it."""
    def sums(s, precision, *rest):
        return real(s, precision - 30, *rest)
    return sums


def exact_gap_one_power_up(real):
    """Each exact head gap 1 - q^(y+1) in place of 1 - q^y (zeta: 40 of
    96 cells, those that take head terms: the step's gap 1 - q is exact
    at every x).  The partial-zeta and lfunction suites run only at
    s = -n, where the shift takes no head terms, so they cannot see it."""
    def exact_power(q, y, gap, wp):
        return real(q, y + 1 if gap else y, gap, wp)
    return exact_power


def unit_exponents_swapped(real):
    """The exponents of the 2nd and 3rd units swapped in every character
    table with three units or more (mod 5: chi(2) and chi(3)).  No suite
    fails: both sides of the lfunction suite read the same table, so a
    wrong table stays unseen.  This row records that blind spot, not a
    catch; a suite that sees it must move the row's set."""
    def character(*args):
        chi = real(*args)
        exponents = list(chi.exponents)
        units = [a for a, e in enumerate(exponents) if e is not None]
        if len(units) >= 3:
            b, c = units[1], units[2]
            exponents[b], exponents[c] = exponents[c], exponents[b]
        return characters.DirichletCharacter(chi.modulus, chi.order,
                                             tuple(exponents))
    return character


def bracket_steps_past(real):
    """The direct sum's bracket step N_(l+1) = N_l b + a^(l+1) in place of
    N_l b + a^l (thm3 and weighted: 540 of 1000 cells each).  The real
    function's source with that one line edited, run in its module's
    namespace."""
    source = textwrap.dedent(inspect.getsource(real))
    line = "bracket = bracket * b + a_power\n"
    assert source.count(line) == 1, "the bracket step has changed"
    namespace = dict(vars(sys.modules[real.__module__]))
    exec(source.replace(line, "bracket = bracket * b + a_power * a\n"),
         namespace)
    return namespace[real.__name__]


def bernoulli_b1_plus(real):
    """B_1 = +1/2, sympy's convention, in place of -1/2 (classical: 600 of
    1200 cells, all in the plain power sums)."""
    def bernoulli_numbers(n_max):
        values = real(n_max)
        if n_max >= 1:
            values[1] = -values[1]
        return values
    return bernoulli_numbers


MUTATIONS = {
    "cvz-weights-swapped": (cvz, "_cvz_weights", swap_first_weights,
                            {"zeta"}),
    "head-sum-double-step": (qzeta, "_head_sum", head_steps_twice,
                             {"zeta"}),
    "kernel-numerator-doubled": (qnumbers, "_kernel_parts",
                                 kernel_numerator_doubled,
                                 {"thm2", "thm3", "thm4", "weighted",
                                  "partial-zeta", "lfunction"}),
    "kernel-pole-moved": (qnumbers, "_kernel_parts", kernel_pole_moved,
                          {"thm2", "thm3", "thm4", "weighted",
                           "partial-zeta", "lfunction"}),
    "recurrence-signs-flipped": (classical, "_euler_recurrence",
                                 recurrence_signs_flipped,
                                 {"classical", "thm2", "thm4"}),
    "special-value-sign": (qnumbers, "partial_zeta_special_value",
                           odd_residue_sign_flipped, {"partial-zeta"}),
    "residue-row-dropped": (qzeta, "_continuation_sums", last_row_dropped,
                            {"lfunction"}),
    "stop-rule-loosened": (qzeta, "_continuation_sums", stop_rule_loosened,
                           {"zeta"}),
    "exact-gap-power-up": (qzeta, "_exact_power", exact_gap_one_power_up,
                           {"zeta"}),
    "character-exponents-swapped": (characters, "_character",
                                    unit_exponents_swapped, set()),
    "direct-sum-bracket-step": (qnumbers, "_direct_sum", bracket_steps_past,
                                {"thm3", "weighted"}),
    "bernoulli-b1-convention": (classical, "bernoulli_numbers",
                                bernoulli_b1_plus, {"classical"}),
}


def package_modules():
    return [module for name, module in list(sys.modules.items())
            if name == "qeuler" or name.startswith("qeuler.")]


def clear_caches():
    """Empty the package's caches, which may hold values computed with
    or without a fault."""
    for module in package_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_clear_caches_empties_the_value_memos():
    # the memos of the numeric values, each bounded by its named constant
    memos = ((qzeta._root, qzeta.ROOT_CACHE_SIZE),
             (qzeta._power_of_ten, qzeta.POWER_OF_TEN_CACHE_SIZE),
             (characters.characters_mod, characters.CHARACTERS_CACHE_SIZE))
    chi = characters.characters_mod(7)[1]
    qzeta.l_function(RealP.from_rational(1, 30), chi,
                     QBase(Fraction(1, 2), zeta_domain=True), 30)
    for memo, size in memos:
        assert memo.cache_info().maxsize == size
        assert memo.cache_info().currsize > 0
    clear_caches()
    assert all(memo.cache_info().currsize == 0 for memo, _ in memos)


@pytest.fixture
def mutate(monkeypatch):
    def apply(home, name, make):
        real = getattr(home, name)
        fault = make(real)
        for module in package_modules():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, fault)

    clear_caches()
    yield apply
    clear_caches()


@pytest.mark.parametrize("row", MUTATIONS)
def test_mutation_fails_exactly_its_suites(row, mutate):
    home, name, make, fails = MUTATIONS[row]
    mutate(home, name, make)
    failed = {report.suite for report in run_suites(list(SUITES))
              if not report.passed}
    assert failed == fails


def readme_catches() -> dict[str, set[str]]:
    """The README's suite table: each suite's "Catches" cell, the
    backticked row names in it."""
    lines = README.read_text(encoding="utf-8").splitlines()
    header = lines.index("| Suite | Checks | Options | Catches |")
    catches = {}
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        cells = line.strip("|").split("|")
        catches[cells[0].strip(" `")] = set(re.findall(r"`([^`]+)`",
                                                       cells[-1]))
    return catches


def test_readme_names_the_rows_each_suite_catches():
    assert readme_catches() == {
        suite: {row for row, (*_, fails) in MUTATIONS.items()
                if suite in fails}
        for suite in SUITES}
