"""Start-up: each CLI command loads only the modules it runs, and the
package's exports are lazy.

The footprint cases run in a fresh interpreter each, since `sys.modules`
of this one holds every module the other tests imported.  A home
module's own name, read from the package, loads that module and its own
imports.  Every command loads `cli` and its top imports (`BASE`), then
the modules it runs.  `import qeuler.cli` must still load mpmath and
click, whose import lines the benchmark's start-up probe reads from
`python -X importtime`.  The exact API, run without the CLI, loads
neither: the exact layer needs only the standard library.  Nor does it
load `dataclasses`, which imports `inspect`.  Every record of the package
is a named tuple, the verifier's report too, so `verify --suite thm2`
does not load `dataclasses` either."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qeuler

SRC = Path(__file__).resolve().parent.parent / "src"

#: Run one statement, then print the qeuler modules loaded, one line, and
#: whether mpmath, click and dataclasses are loaded; a command's own output
#: is dropped.
CHILD = """\
import contextlib, io, sys
with contextlib.redirect_stdout(io.StringIO()):
    {statement}
print(" ".join(sorted(name for name in sys.modules
                      if name.split(".")[0] == "qeuler")))
print(*(name in sys.modules for name in ("mpmath", "click", "dataclasses")))
"""

BASE = {"qeuler", "qeuler.cli", "qeuler.errors", "qeuler.exactnum",
        "qeuler.realnum"}
EXACT = {"qeuler.qnumbers", "qeuler.classical"}

#: Each exact computation of the API, characters' of order 2 included.
EXACT_API = "\n    ".join((
    "from fractions import Fraction",
    "from qeuler import (QBase, QPower, ZetaQuery, alt_q_power_sum_closed, "
    "characters_mod, classical, distribution_sum, euler_poly, "
    "generalized_q_euler, partial_zeta_special_value, q_euler_number, "
    "q_euler_poly)",
    "q = Fraction(1, 2); base = QBase(q); chi = characters_mod(5)[2]",
    "q_euler_number(5, base); alt_q_power_sum_closed(3, 4, base)",
    "q_euler_poly(4, QPower.from_integer(base, 3))",
    "distribution_sum(3, 3, 2, base); partial_zeta_special_value(2, 1, 3, q)",
    "euler_poly(4, Fraction(1, 3)); classical.bernoulli_numbers(6)",
    "assert chi.order == 2",
    "assert type(generalized_q_euler(3, chi, q)) is Fraction",
))

FOOTPRINTS = {
    "package": ("import qeuler", {"qeuler"}),
    "module": ("import qeuler; qeuler.classical",
               {"qeuler", "qeuler.classical", "qeuler.errors",
                "qeuler.exactnum"}),
    "export": ("from qeuler import q_euler_number",
               {"qeuler", "qeuler.qnumbers", "qeuler.errors",
                "qeuler.exactnum"}),
    "exact-api": (EXACT_API, {"qeuler", "qeuler.errors", "qeuler.exactnum",
                              "qeuler.characters"} | EXACT),
    "cli": ("import qeuler.cli", BASE),
    "numbers": (["numbers", "--max-n", "3", "--q", "1/2"], BASE | EXACT),
    "zeta": (["zeta", "--s", "1/2", "--x", "1", "--q", "1/2", "--prec", "20"],
             BASE | {"qeuler.qzeta"}),
    "characters": (["characters", "--modulus", "5"],
                   BASE | {"qeuler.characters"}),
    "verify-thm2": (["verify", "--suite", "thm2", "--max-n", "2"],
                    BASE | EXACT | {"qeuler.verify"}),
}


@pytest.fixture(scope="module")
def footprints() -> dict[str, tuple[set[str], str]]:
    """Each case's qeuler modules and its mpmath/click line, from children
    started all at once, so the cases cost one start-up of wall time."""
    children = {}
    for case, (run, _) in FOOTPRINTS.items():
        statement = run if isinstance(run, str) else \
            f"from qeuler.cli import main; assert main({run!r}) == 0"
        children[case] = subprocess.Popen(
            [sys.executable, "-c", CHILD.format(statement=statement)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)})
    found = {}
    for case, child in children.items():
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        modules, libraries = out.splitlines()[-2:]
        found[case] = set(modules.split()), libraries
    return found


@pytest.mark.parametrize("case", FOOTPRINTS)
def test_command_loads_only_its_modules(case, footprints):
    modules, libraries = footprints[case]
    assert modules == FOOTPRINTS[case][1]
    if case == "cli":  # the benchmark's start-up probe reads both
        assert libraries.split()[:2] == ["True", "True"]
    if case in ("module", "exact-api"):
        assert libraries == "False False False"
    if case == "verify-thm2":  # the verifier's report is a named tuple
        assert libraries.split()[2] == "False"


def test_every_export_is_its_home_modules_object():
    for name in qeuler.__all__:
        home = importlib.import_module(f"qeuler.{qeuler._HOME[name]}")
        value = getattr(qeuler, name)
        assert value is getattr(home, name)
        if hasattr(value, "__module__"):  # defined there, not re-exported
            assert value.__module__ == home.__name__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qeuler.no_such_name  # noqa: B018
    assert not hasattr(qeuler, "no_such_name")


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from qeuler import *", namespace)
    assert set(qeuler.__all__) <= set(namespace)
    for name in qeuler.__all__:
        assert namespace[name] is getattr(qeuler, name)


def test_home_modules_are_package_attributes():
    from qeuler import classical
    assert classical is sys.modules["qeuler.classical"]
    for module in set(qeuler._HOME.values()):
        assert getattr(qeuler, module) is sys.modules[f"qeuler.{module}"]
