"""Golden CLI outputs: every command, byte for byte.

`tests/cli_golden.json` holds the exit code, stdout and stderr of each
invocation below, recorded from the program before its q-Euler kernels,
verification runner and character code were consolidated; the cases from
the plans that take head terms on were recorded before the continuation's
shift planner became one function, the two at s = 1e60 once the
continuation carried the digits of |s| past its guard digits, the one at
s = 1e309 once the growth check sized s q^x past the float range, the
four after it once integer x took exact powering at q < 0 and the refusals
past the float range gave their sizes as mpfs, and the last one once the
continuation's stop rule held from the least k with R_k < 1.
Any change to a single output byte fails here.  Every JSON document is
also validated against the schemas in `docs/`.

To record the file afresh after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py --write

A re-record keeps each report's recorded elapsed_ms, so the diff shows
only what moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import types
from pathlib import Path
from unittest import mock

import jsonschema
import pytest

from qeuler.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("cli_golden.json")
REPORT = "{report}"  # stands for a fresh report path in an argv

CASES = [
    ["numbers", "--max-n", "6", "--q", "1/2"],
    ["numbers", "--max-n", "5", "--q", "2/3", "--variant", "star",
     "--format", "csv"],
    ["numbers", "--max-n", "8", "--q", "5/2", "--format", "csv"],
    ["numbers", "--max-n", "4", "--q", "3/2", "--variant", "star"],
    ["numbers", "--max-n", "9", "--variant", "classical-euler"],
    ["numbers", "--max-n", "8", "--variant", "classical-bernoulli",
     "--format", "csv"],
    ["numbers", "--max-n", "2"],
    ["poly", "--n", "3", "--x", "1/2", "--q", "1/4"],
    ["poly", "--n", "4", "--x", "2", "--q", "3/2", "--variant", "star",
     "--format", "csv"],
    ["poly", "--n", "5", "--x", "2/3", "--q", "8/27", "--variant", "star"],
    ["poly", "--n", "3", "--x", "1/3", "--variant", "classical"],
    ["poly", "--n", "2", "--x", "1/2", "--q", "1/2"],
    ["sums", "--variant", "q-alt", "--m", "3", "--n", "5", "--q", "1/3"],
    ["sums", "--variant", "q-alt-weighted", "--m", "2", "--n", "4", "--q",
     "5/2", "--format", "csv"],
    ["sums", "--variant", "power", "--m", "4", "--n", "10"],
    ["sums", "--variant", "alt-power", "--m", "3", "--n", "7", "--format",
     "csv"],
    ["zeta", "--s", "1/2", "--x", "1", "--q", "1/2"],
    ["zeta", "--s", "-2", "--x", "7/2", "--q", "1/5", "--prec", "30",
     "--format", "csv"],
    ["zeta", "--s", "1", "--x", "1", "--q", "2"],
    ["partial-zeta", "--s", "1/2", "--a", "2", "--f", "5", "--q", "1/3"],
    ["partial-zeta", "--s", "-1", "--a", "1", "--f", "3", "--q", "1/2",
     "--prec", "25", "--format", "csv"],
    ["lfunction", "--s", "1/2", "--modulus", "5", "--char-index", "1",
     "--q", "1/2"],
    ["lfunction", "--s", "-2", "--modulus", "5", "--char-index", "3",
     "--q", "1/3", "--prec", "30", "--format", "csv"],
    ["lfunction", "--s", "-1", "--modulus", "3", "--char-index", "1",
     "--q", "1/2"],
    ["lfunction", "--s", "2", "--modulus", "1", "--char-index", "0",
     "--q", "1/2", "--format", "csv"],
    ["lfunction", "--s", "1", "--modulus", "3", "--char-index", "2",
     "--q", "1/2"],
    ["characters", "--modulus", "15"],
    ["characters", "--modulus", "9", "--format", "csv"],
    ["characters", "--modulus", "1"],
    ["characters", "--modulus", "6"],
    ["verify", "--suite", "thm3", "--max-m", "4", "--max-n", "6"],
    ["verify", "--suite", "thm4", "--max-m", "3", "--f", "3"],
    ["verify", "--suite", "all", "--max-m", "3", "--max-n", "5", "--f", "3",
     "--prec", "20", "--report", REPORT],
    ["verify", "--suite", "lfunction", "--prec", "20", "--report", REPORT],
    ["verify", "--suite", "thm2", "--max-n", "99"],
    ["verify", "--suite", "classical", "--max-m", "2", "--max-n", "4"],
    ["verify", "--suite", "weighted", "--max-m", "2", "--max-n", "3", "--f",
     "5"],
    ["verify", "--suite", "thm2", "--max-m", "3", "--max-n", "2"],
    ["verify", "--suite", "zeta", "--max-m", "2", "--max-n", "2", "--prec",
     "15"],
    ["characters", "--modulus", "105", "--format", "csv"],
    ["lfunction", "--s", "1/2", "--modulus", "105", "--char-index", "37",
     "--q", "1/2", "--prec", "20"],
    ["lfunction", "--s", "-1", "--modulus", "3", "--char-index", "5",
     "--q", "1/2"],
    ["lfunction", "--s", "-1", "--modulus", "4", "--char-index", "0",
     "--q", "1/2"],
    # plans that take head terms: J = 31, 8 (the s > 1 search), 12, 18
    # and 11 (a complex value)
    ["zeta", "--s", "1/2", "--x", "1", "--q", "99/100"],
    ["zeta", "--s", "20", "--x", "1", "--q", "9/10"],
    ["zeta", "--s", "-7/3", "--x", "1/3", "--q", "19/20", "--prec", "30"],
    ["partial-zeta", "--s", "1/2", "--a", "1", "--f", "3", "--q", "99/100"],
    ["lfunction", "--s", "1/2", "--modulus", "5", "--char-index", "1",
     "--q", "99/100"],
    # s = -n with x below the float range, where the term model cannot
    # see q^x < 1
    ["zeta", "--s", "-1", "--x", "1e-400", "--q", "1/2"],
    # q^x rounds to 1 at the binary point: only the exact truncation at
    # s = 0 stops the series
    ["zeta", "--s", "0", "--x", "1", "--q", "0." + "9" * 45, "--prec", "15"],
    # s = 1e60 magnifies the rounding of 1 - q and q^x = 1e-60: without
    # the digits of s on top these printed 1/2 and -1/2
    ["zeta", "--s", "1e60", "--x", "1", "--q", "1e-60", "--prec", "30"],
    ["partial-zeta", "--s", "1e60", "--a", "1", "--f", "3", "--q", "1e-60",
     "--prec", "30"],
    # s past the float range: the growth check sizes s q^x as one mpf
    # instead of reading the float product inf and refusing
    ["zeta", "--s", "1e309", "--x", "1", "--q", "1e-320", "--prec", "30"],
    # integer x at q < 0 is taken by exact powering, which an even x
    # keeps positive; an odd x gives t < 0, which is refused
    ["poly", "--n", "2", "--x", "2", "--q", "-1/2"],
    ["poly", "--n", "2", "--x", "1", "--q", "-1/2"],
    # s past the float range: the refusals give the growth of the
    # unscaled terms and log10 V as mpfs, not inf
    ["zeta", "--s", "1e400", "--x", "1", "--q", "1/2"],
    ["zeta", "--s", "-1e400", "--x", "1", "--q", "1/2"],
    # |s| q^x = 10^-20: the stop rule holds from k = 0, so this prints
    # CVZ's digits, where counted from k = -s it was refused as 10^20 terms
    ["zeta", "--s", "-1e20", "--x", "1", "--q", "1e-40", "--prec", "30"],
]


def invoke(argv: list[str]) -> dict:
    """Run the CLI in-process and return its exit code, stdout, stderr and,
    for a --report run, the report with every elapsed_ms removed."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        args = [path if a == REPORT else a for a in argv]
        # usage messages name the program as an installed script would
        script = types.ModuleType("__main__")
        with mock.patch.object(sys, "argv", ["qeuler"]), \
                mock.patch.dict(sys.modules, {"__main__": script}), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(args)
        record = {"argv": argv, "exit": code, "stdout": out.getvalue(),
                  "stderr": err.getvalue()}
        if REPORT in argv:
            with open(path, encoding="utf-8") as handle:
                record["report"] = handle.read()
    return record


def _without_timings(report_text: str) -> list[dict]:
    reports = json.loads(report_text)
    for report in reports:
        del report["elapsed_ms"]
    return reports


def _schema(name: str) -> dict:
    with open(ROOT / "docs" / name, encoding="utf-8") as handle:
        return json.load(handle)


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return {" ".join(r["argv"]): r for r in json.load(handle)}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    want = _golden()[" ".join(argv)]
    got = invoke(argv)
    assert got["exit"] == want["exit"]
    assert got["stdout"] == want["stdout"]
    assert got["stderr"] == want["stderr"]
    if "report" in want:
        assert _without_timings(got["report"]) \
            == _without_timings(want["report"])


def test_golden_covers_every_command_and_format():
    commands = {"numbers", "poly", "sums", "zeta", "partial-zeta",
                "lfunction", "characters", "verify"}
    assert {argv[0] for argv in CASES} == commands
    csv = {argv[0] for argv in CASES if "csv" in argv}
    assert csv == commands - {"verify"}  # verify has no --format
    assert set(_golden()) == {" ".join(argv) for argv in CASES}


def test_json_outputs_match_schema():
    validator = jsonschema.Draft202012Validator(
        _schema("cli-output.schema.json"))
    checked = 0
    for record in _golden().values():
        if record["exit"] == 0 and record["argv"][0] != "verify" \
                and "csv" not in record["argv"]:
            validator.validate(json.loads(record["stdout"]))
            checked += 1
    assert checked >= 7


def test_report_files_match_schema():
    validator = jsonschema.Draft202012Validator(
        _schema("verification-report.schema.json"))
    reports = [r for r in _golden().values() if "report" in r]
    assert reports
    for record in reports:
        validator.validate(json.loads(invoke(record["argv"])["report"]))


def test_rerecord_keeps_recorded_timings():
    old = {"argv": ["verify"], "report": json.dumps(
        [{"suite": "zeta", "max_deviation": "1e-30", "elapsed_ms": 7}])}
    new = {"argv": ["verify"], "stdout": "x", "report": json.dumps(
        [{"suite": "zeta", "max_deviation": "2e-30", "elapsed_ms": 900},
         {"suite": "thm2", "max_deviation": "exact", "elapsed_ms": 40}])}
    kept = _keep_timings(new, old)
    assert json.loads(kept["report"]) == [
        {"suite": "zeta", "max_deviation": "2e-30", "elapsed_ms": 7},
        {"suite": "thm2", "max_deviation": "exact", "elapsed_ms": 40}]
    assert kept["stdout"] == "x"
    assert _keep_timings(new, None) is new


def _keep_timings(record: dict, old: dict | None) -> dict:
    """The fresh record with each report's elapsed_ms taken from the old
    record of the same invocation, where that report has one."""
    if old is None or "report" not in record or "report" not in old:
        return record
    recorded = {r["suite"]: r["elapsed_ms"] for r in json.loads(old["report"])}
    reports = json.loads(record["report"])
    for report in reports:
        report["elapsed_ms"] = recorded.get(report["suite"],
                                            report["elapsed_ms"])
    return {**record, "report": json.dumps(reports, indent=2) + "\n"}


def write_golden() -> None:
    old = _golden() if GOLDEN.exists() else {}
    records = [_keep_timings(invoke(argv), old.get(" ".join(argv)))
               for argv in CASES]
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_golden()
