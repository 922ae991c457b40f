"""Verification suite plumbing: reports, grids, determinism."""

import inspect
import json
from fractions import Fraction
from math import comb
from pathlib import Path

import jsonschema
from mpmath import mp, mpf

from qeuler import cli, qnumbers, verify
from qeuler.exactnum import GUARD_DIGITS, RealP
from qeuler.verify import (SUITES, VerificationReport, _SUITE_OPTIONS,
                           run_suite, verify_thm2, verify_thm3, verify_zeta)

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


def test_all_suite_names_registered():
    assert set(SUITES) == {"thm2", "thm3", "thm4", "weighted", "classical",
                           "zeta", "partial-zeta", "lfunction"}


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
    def corrupted(n, q, t, shift):
        return (1 + q ** shift) / (1 - q) ** n * sum(
            comb(n, j) * (-t) ** j / (2 + q ** (j + shift))
            for j in range(n + 1))

    monkeypatch.setattr(qnumbers, "_kernel", corrupted)
    qnumbers._number.cache_clear()  # cached numbers came from the kernel
    try:
        report = verify_thm2(max_n=4)
    finally:
        qnumbers._number.cache_clear()
    assert not report.passed
    assert len(report.failures) > report.cases_run // 2


def test_suite_options_are_the_suites_keyword_parameters(monkeypatch):
    # the options the verify command hands each suite
    given = []

    def record(name, **options):
        given.append(set(options))
        return VerificationReport(suite=name, grid={}, cases_run=0)

    monkeypatch.setattr(cli, "run_suite", record)
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
    cvz = verify.zeta_euler_transform

    def moved(zq):
        with mp.workdps(zq.precision + GUARD_DIGITS):
            return RealP(cvz(zq).value + mpf(10) ** -30, zq.precision)

    monkeypatch.setattr(verify, "zeta_euler_transform", moved)
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
