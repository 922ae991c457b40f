"""Verification suite plumbing: reports, grids, determinism."""

import inspect
import json
import os
from fractions import Fraction
from math import comb
from pathlib import Path

import jsonschema
import pytest
from mpmath import mp, mpf

from qeuler import classical, cli, cvz, qnumbers, qzeta, verify
from qeuler.exactnum import GUARD_DIGITS, QBase, format_rational
from qeuler.realnum import RealP, to_mpf
from qeuler.qnumbers import alt_q_power_sum
from qeuler.verify import (IDENTITY_Q, SUITES, VerificationReport,
                           _SUITE_OPTIONS, run_suite, run_suites,
                           verify_lfunction, verify_thm2, verify_thm3,
                           verify_zeta)

SCHEMA = Path(__file__).resolve().parent.parent / "docs" \
    / "verification-report.schema.json"


def test_report_fields_and_passing():
    report = verify_thm3(max_m=3, max_n=5)
    assert report.suite == "thm3"
    assert report.cases_run == 3 * 5 * 5
    assert report.passed
    assert report.failures == []
    assert report.max_deviation == "exact"
    assert report.elapsed_ms >= 0
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["grid"]["m"] == [1, 3]
    assert doc["grid"]["q"] == ["1/3", "1/2", "2/3", "3/2", "5/2"]
    # a range axis shows as [first, last] even when empty, any other axis
    # as its values
    empty = verify_thm3(max_m=0)
    assert (empty.cases_run, empty.grid["m"]) == (0, [1, 0])
    assert verify.verify_thm4(max_m=1, fs=(3,)).grid["f"] == [3]


def test_all_suite_names_registered():
    assert set(SUITES) == {"thm2", "thm3", "thm4", "weighted", "classical",
                           "zeta", "partial-zeta", "lfunction"}


def test_cli_suite_names_are_the_suites():
    # `--suite`'s choices, kept in cli so that only verify imports verify
    assert cli.SUITE_NAMES == tuple(sorted(SUITES))


def test_numeric_report_carries_deviation():
    report = verify_zeta(precision=30)
    assert report.passed
    assert report.max_deviation != "exact"
    assert float(report.max_deviation) < 1e-20  # certified bound at P=30


def test_reports_deterministic_apart_from_timing():
    a = verify_thm3(max_m=2, max_n=4).to_dict()
    b = verify_thm3(max_m=2, max_n=4).to_dict()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_run_all_passes():
    reports = [run_suite(name, precision=20) for name in SUITES]
    assert [r.suite for r in reports] == list(SUITES)
    assert all(r.passed for r in reports)


def test_thm2_detects_a_wrong_kernel(monkeypatch):
    # the kernel's poles 1/(1+q^(j+shift)) become 1/(2+q^(j+shift)); the
    # second thm2 route takes its numbers from the recurrence, never from
    # the kernel, so the two routes must now disagree
    def corrupted(n, a, b, c, d, shift):
        q, t = Fraction(a, b), Fraction(c, d)
        return (1 + q ** shift) / (1 - q) ** n * sum(
            comb(n, j) * (-t) ** j / (2 + q ** (j + shift))
            for j in range(n + 1))

    # the corrupted kernel replaces the memo, so no cached value is read
    monkeypatch.setattr(qnumbers, "_kernel", corrupted)
    report = verify_thm2(max_n=4)
    assert not report.passed
    assert len(report.failures) > report.cases_run // 2


def test_suite_options_are_the_suites_keyword_parameters(monkeypatch):
    # the options the verify command hands each suite
    given = []

    def record(name, **options):
        given.append(set(options))
        return VerificationReport(suite=name, grid={}, cases_run=0)

    monkeypatch.setattr(verify, "run_suite", record)
    assert cli.main(["verify", "--suite", "thm3"]) == 0
    for name, suite in SUITES.items():
        options = tuple(inspect.signature(suite).parameters)
        assert options == _SUITE_OPTIONS[name]
        assert set(options) <= given[0]
    # a wrapper put in SUITES later still gets its suite's options
    seen = {}
    monkeypatch.setitem(SUITES, "thm4", lambda **kwargs: seen.update(kwargs))
    run_suite("thm4", max_m=2, max_n=3, fs=None, precision=20)
    assert seen == {"max_m": 2}


def test_numeric_failure_is_recorded(monkeypatch, tmp_path, capsys):
    # the CVZ route moved by 1e-30, past the bound 1e-40 at P = 50
    real = cvz.zeta_euler_transform

    def moved(zq):
        with mp.workdps(zq.precision + GUARD_DIGITS):
            return RealP(real(zq).value + mpf(10) ** -30, zq.precision)

    monkeypatch.setattr(cvz, "zeta_euler_transform", moved)
    path = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "zeta", "--report", str(path)]) == 2
    assert "suite zeta: FAIL" in capsys.readouterr().out
    reports = json.loads(path.read_text(encoding="utf-8"))
    with open(SCHEMA, encoding="utf-8") as handle:
        jsonschema.Draft202012Validator(json.load(handle)).validate(reports)
    (report,) = reports
    assert len(report["failures"]) == report["cases_run"] == 96
    for failure in report["failures"]:
        moved_by = Fraction(failure["rhs"]) - Fraction(failure["lhs"])
        assert abs(moved_by - Fraction(1, 10 ** 30)) < Fraction(1, 10 ** 39)
        assert abs(float(failure["deviation"]) - 1e-30) < 1e-39
    assert float(report["max_deviation"]) > 1e-31


def test_lfunction_suite_checks_against_generalized_q_euler(monkeypatch):
    # the suite's right-hand side is the library's generalized number: one
    # moved by 1e-30 where it is complex fails exactly the order-4 cells
    exact_side = qnumbers.generalized_q_euler

    def moved(n, chi, q, precision):
        value = exact_side(n, chi, q, precision)
        if isinstance(value, Fraction):
            return value
        with mp.workdps(precision + GUARD_DIGITS):
            return value + mpf(10) ** -30

    monkeypatch.setattr(qnumbers, "generalized_q_euler", moved)
    report = verify_lfunction(precision=50)
    failing = {(f["inputs"]["modulus"], f["inputs"]["char_index"])
               for f in report.failures}
    assert failing == {(5, 1), (5, 3)}
    assert len(report.failures) == 2 * 7 * 2  # every n and q


def _load_report(path):
    reports = json.loads(path.read_text(encoding="utf-8"))
    with open(SCHEMA, encoding="utf-8") as handle:
        jsonschema.Draft202012Validator(json.load(handle)).validate(reports)
    (report,) = reports
    return report


def test_exact_failure_report_matches_the_eager_text(monkeypatch, tmp_path):
    # failing cells are written out only once they fail; their text must be
    # what writing every cell out gave: the inputs, and both sides and the
    # deviation by format_rational
    closed = verify.alt_q_power_sum_closed

    def moved(m, n, q):
        return closed(m, n, q) + Fraction(1, 7)

    monkeypatch.setattr(verify, "alt_q_power_sum_closed", moved)
    path = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "thm3", "--max-m", "2",
                     "--max-n", "3", "--report", str(path)]) == 2
    report = _load_report(path)
    want = []
    for m in (1, 2):
        for n in (1, 2, 3):
            for q in IDENTITY_Q:
                lhs = moved(m, n, QBase(q))
                rhs = alt_q_power_sum(m, n, QBase(q))
                want.append({"inputs": {"m": m, "n": n,
                                        "q": format_rational(q)},
                             "lhs": format_rational(lhs),
                             "rhs": format_rational(rhs),
                             "deviation": format_rational(abs(lhs - rhs))})
    assert json.dumps(report["failures"]) == json.dumps(want)
    assert report["cases_run"] == len(want) == 30
    assert report["max_deviation"] == "0.1428571429"


def test_classical_failure_names_its_sum(monkeypatch, tmp_path):
    # both closed forms off by 1/7 at k = 3: each failing cell names its
    # sum, the plain one by its exponent n and the alternating one by m
    def off_at_three(closed):
        def moved(m, k):
            return closed(m, k) + (Fraction(1, 7) if k == 3 else 0)
        return moved

    for name in ("power_sum_closed", "alt_power_sum_closed"):
        monkeypatch.setattr(classical, name,
                            off_at_three(getattr(classical, name)))
    path = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "classical", "--max-m", "2",
                     "--max-n", "4", "--report", str(path)]) == 2
    report = _load_report(path)
    assert report["cases_run"] == 16
    assert [failure["inputs"] for failure in report["failures"]] == [
        {"sum": "plain", "n": 1, "k": 3}, {"sum": "plain", "n": 2, "k": 3},
        {"sum": "alt", "m": 1, "k": 3}, {"sum": "alt", "m": 2, "k": 3}]
    assert {failure["deviation"] for failure in report["failures"]} \
        == {"1/7"}


def test_lfunction_suite_sees_the_roots_of_unity(monkeypatch):
    # the L value sums its roots in qzeta._root_sum, and the generalized
    # number sums its own; exp(pi i e/order) in place of exp(2 pi i
    # e/order) in _root_sum moves only the characters that are not real
    def half_angle(coefficients, order):
        if all(e == 0 or 2 * e == order for e in coefficients):
            return sum(-c if e else c for e, c in coefficients.items())
        total = mp.mpc(0)
        for e in sorted(coefficients):
            total += to_mpf(coefficients[e]) * mp.expjpi(mpf(e) / order)
        return total

    monkeypatch.setattr(qzeta, "_root_sum", half_angle)
    report = verify_lfunction(precision=20)
    assert not report.passed
    failing = {(f["inputs"]["modulus"], f["inputs"]["char_index"])
               for f in report.failures}
    assert failing == {(5, 1), (5, 3)}  # the two characters of order 4
    for failure in report.failures:  # ComplexP digits against mp.nstr
        assert failure["lhs"].endswith("i")
        assert failure["rhs"].endswith("j)")


# -- run_suites: the exact suites in a forked child beside the numeric ones

can_split = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda _pid: ())(0)) < 2,
    reason="the split needs os.sched_getaffinity and two CPUs")


def one_cpu(monkeypatch):
    """Let run_suites see one CPU, as the affinity read gives it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0},
                        raising=False)


def ran_in(monkeypatch, tmp_path, name, raises=None):
    """Wrap SUITES[name] so that it writes the id of the process it runs
    in to a file, then raises `raises` if given; return a reader of that
    id.  A file, since the child's memory dies with it."""
    suite = SUITES[name]
    path = tmp_path / f"{name}.pid"

    def wrapped(**options):
        path.write_text(str(os.getpid()))
        if raises is not None:
            raise raises
        return suite(**options)

    monkeypatch.setitem(SUITES, name, wrapped)
    return lambda: int(path.read_text())


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def untimed(reports):
    return [{key: value for key, value in report.to_dict().items()
             if key != "elapsed_ms"} for report in reports]


@can_split
def test_split_gives_the_reports_of_one_cpu(monkeypatch, tmp_path):
    # the default grids: every suite of `verify --suite all`
    names = sorted(SUITES)
    pid_of = {name: ran_in(monkeypatch, tmp_path, name)
              for name in ("thm2", "zeta")}
    cpus = os.sched_getaffinity(0)
    split = run_suites(names)
    assert pid_of["thm2"]() != os.getpid() == pid_of["zeta"]()
    assert os.sched_getaffinity(0) == cpus  # the parent takes them back
    assert_no_child_left()
    one_cpu(monkeypatch)
    one = run_suites(names)
    assert pid_of["thm2"]() == os.getpid()
    assert [report.suite for report in split] == names
    assert all(report.passed for report in split)
    assert untimed(split) == untimed(one)


def test_one_kind_of_suite_runs_here(monkeypatch, tmp_path):
    pid_of = ran_in(monkeypatch, tmp_path, "thm2")
    (report,) = run_suites(["thm2"], max_n=2)
    assert (report.suite, pid_of()) == ("thm2", os.getpid())


SMALL = ["--max-m", "2", "--max-n", "3", "--prec", "20"]


def verify_all(monkeypatch, capsys, split, *options):
    if not split:
        one_cpu(monkeypatch)
    code = cli.main(["verify", "--suite", "all", *SMALL, *options])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@can_split
@pytest.mark.parametrize("raising, shown", [
    (("thm2",), "thm2"),                # in the child alone
    (("thm2", "lfunction"), "lfunction"),  # the parent's comes first
    (("classical", "zeta"), "classical"),  # the child's comes first
])
def test_a_raising_suite_exits_as_on_one_cpu(monkeypatch, capsys, tmp_path,
                                              raising, shown):
    from qeuler.errors import DomainError
    pid_of = {name: ran_in(monkeypatch, tmp_path, name,
                           DomainError(f"{name} refused"))
              for name in raising}
    split = verify_all(monkeypatch, capsys, True)
    assert pid_of[raising[0]]() != os.getpid()  # an exact suite: the child
    assert_no_child_left()
    assert split == verify_all(monkeypatch, capsys, False) \
        == (1, "", f"error: {shown} refused\n")


@can_split
def test_a_failing_cell_in_the_child_exits_two(monkeypatch, capsys,
                                               tmp_path):
    closed = verify.alt_q_power_sum_closed
    monkeypatch.setattr(verify, "alt_q_power_sum_closed",
                        lambda m, n, q: closed(m, n, q) + Fraction(1, 7))
    pid_of = ran_in(monkeypatch, tmp_path, "thm3")
    runs = []
    for split in (True, False):
        path = tmp_path / f"report-{split}.json"
        code, out, err = verify_all(monkeypatch, capsys, split,
                                    "--report", str(path))
        reports = json.loads(path.read_text(encoding="utf-8"))
        for report in reports:
            report.pop("elapsed_ms")
        runs.append((code, out, err, reports, pid_of() == os.getpid()))
    assert_no_child_left()
    assert runs[0][:4] == runs[1][:4]
    assert [run[4] for run in runs] == [False, True]
    code, out, _, reports, _ = runs[0]
    assert code == 2 and "suite thm3: FAIL cases=30 " in out
    (thm3,) = [report for report in reports if report["failures"]]
    assert thm3["suite"] == "thm3" and len(thm3["failures"]) == 30
