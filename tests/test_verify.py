"""Verification suite plumbing: reports, grids, determinism."""

import json
from math import comb

from qeuler import qnumbers
from qeuler.verify import (SUITES, run_suite, verify_thm2, verify_thm3,
                           verify_zeta)


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
