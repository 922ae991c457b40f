"""CLI surface: output formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import qeuler
from qeuler.cli import main
from qeuler.cvz import zeta_euler_transform
from qeuler.exactnum import QBase
from qeuler.qnumbers import QPower, q_euler_poly
from qeuler.qzeta import ZetaQuery
from qeuler.realnum import RealP, tolerance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_numbers_csv(capsys):
    code, out, _ = run(capsys, "numbers", "--max-n", "2", "--q", "1/2",
                       "--format", "csv")
    assert code == 0
    assert out == "n,value\n0,1/1\n1,-2/3\n2,-4/15\n"


def test_numbers_star(capsys):
    code, out, _ = run(capsys, "numbers", "--max-n", "1", "--q", "1/2",
                       "--variant", "star", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1/1", "1,-2/5"]


def test_numbers_single_row(capsys):
    code, out, _ = run(capsys, "numbers", "--max-n", "0", "--q", "5/2",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1/1"]


def test_numbers_json_shape(capsys):
    code, out, _ = run(capsys, "numbers", "--max-n", "3", "--q", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"query", "results", "precision"}
    assert doc["query"]["q"] == "1/2"  # decimals parse to exact rationals
    # E_{3,1/2} = 16*(1/2 - 2 + 12/5 - 8/9) = 16/90
    assert doc["results"][3] == {"n": 3, "value": "8/45"}
    assert doc["precision"] is None


def test_numbers_classical_variants(capsys):
    code, out, _ = run(capsys, "numbers", "--max-n", "4", "--variant",
                       "classical-bernoulli", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "4,-1/30"
    code, out, _ = run(capsys, "numbers", "--max-n", "7", "--variant",
                       "classical-euler", "--format", "csv")
    assert out.splitlines()[-1] == "7,17/8"


def test_numbers_requires_q_for_q_variants(capsys):
    code, _, err = run(capsys, "numbers", "--max-n", "2")
    assert code == 1
    assert "requires --q" in err


def test_poly_exact_fractional_argument(capsys):
    # q = 1/4, x = 1/2 -> t = 1/2 exactly
    code, out, _ = run(capsys, "poly", "--n", "1", "--x", "1/2",
                       "--q", "1/4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "1,1/2,4/15"


def test_poly_irrational_power_fails_cleanly(capsys):
    code, _, err = run(capsys, "poly", "--n", "1", "--x", "1/2", "--q", "1/2")
    assert code == 1
    assert "irrational" in err


def test_sums_q_alt(capsys):
    code, out, _ = run(capsys, "sums", "--variant", "q-alt", "--m", "2",
                       "--n", "3", "--q", "1/2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "2,3,5/4,5/4,True"


def test_sums_classical(capsys):
    code, out, _ = run(capsys, "sums", "--variant", "power", "--m", "3",
                       "--n", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "3,4,36/1,36/1,True"


def test_zeta_value(capsys):
    code, out, _ = run(capsys, "zeta", "--s", "-1", "--x", "1", "--q", "1/2",
                       "--format", "csv")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[3].startswith("0.33333333333333333333333333333333333")
    assert row[4] == "50"


def test_zeta_domain_error_exits_one(capsys):
    code, _, err = run(capsys, "zeta", "--s", "-1", "--x", "1", "--q", "3/2")
    assert code == 1
    assert "error" in err.lower()


def test_partial_zeta_value(capsys):
    code, out, _ = run(capsys, "partial-zeta", "--s", "-1", "--a", "1",
                       "--f", "3", "--q", "1/2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].split(",")[4].startswith("-0.1111111111")


def test_lfunction_value(capsys):
    code, out, _ = run(capsys, "lfunction", "--s", "-1", "--modulus", "3",
                       "--char-index", "1", "--q", "1/2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].split(",")[4].startswith("-0.666666666666")


def test_lfunction_bad_char_index(capsys):
    code, _, err = run(capsys, "lfunction", "--s", "-1", "--modulus", "3",
                       "--char-index", "5", "--q", "1/2")
    assert code == 1
    assert "char-index" in err


def test_characters_csv(capsys):
    code, out, _ = run(capsys, "characters", "--modulus", "3",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["3,0,1,-|0|0", "3,1,2,-|0|1"]


def test_characters_even_modulus_fails(capsys):
    code, _, err = run(capsys, "characters", "--modulus", "4")
    assert code == 1


def test_modulus_bound(capsys):
    from qeuler.cli import MAX_MODULUS
    too_big = str(MAX_MODULUS + 2)
    code, out, err = run(capsys, "characters", "--modulus", too_big)
    assert (code, out) == (1, "")
    assert f"Error: --modulus must be at most {MAX_MODULUS}" in err
    code, out, err = run(capsys, "lfunction", "--s", "1/2", "--modulus",
                         "30001", "--char-index", "1", "--q", "1/2")
    assert (code, out) == (1, "")
    assert "Usage:" in err and "--modulus" in err
    # the largest modulus the benchmark asks for stays accepted
    code, _, _ = run(capsys, "lfunction", "--s", "1/2", "--modulus", "21",
                     "--char-index", "5", "--q", "1/2", "--prec", "15")
    assert code == 0


def test_precision_bound(capsys):
    from qeuler.cli import MAX_PRECISION
    too_big = str(MAX_PRECISION + 1)
    for argv in (["zeta", "--s", "1/2", "--x", "1", "--q", "1/2"],
                 ["partial-zeta", "--s", "1/2", "--a", "1", "--f", "3",
                  "--q", "1/2"],
                 ["lfunction", "--s", "1/2", "--modulus", "3",
                  "--char-index", "1", "--q", "1/2"],
                 ["verify", "--suite", "zeta"]):
        code, out, err = run(capsys, *argv, "--prec", too_big)
        assert (code, out) == (1, "")
        assert f"Error: --prec must be at most {MAX_PRECISION}" in err
    code, _, _ = run(capsys, "zeta", "--s", "1/2", "--x", "1", "--q", "1/2",
                     "--prec", str(MAX_PRECISION))
    assert code == 0


def test_numbers_bound(capsys):
    from qeuler.cli import MAX_NUMBERS_N
    too_big = str(MAX_NUMBERS_N + 1)
    for variant in ("plain", "star", "classical-euler",
                    "classical-bernoulli"):
        code, out, err = run(capsys, "numbers", "--max-n", too_big,
                             "--q", "1/2", "--variant", variant)
        assert (code, out) == (1, "")
        assert f"Error: --max-n must be at most {MAX_NUMBERS_N}" in err
    code, _, _ = run(capsys, "numbers", "--max-n", str(MAX_NUMBERS_N),
                     "--variant", "classical-euler")
    assert code == 0


def test_numbers_stop_at_first_unprintable_value(capsys, monkeypatch):
    from qeuler import qnumbers
    calls = []
    real = qnumbers.q_euler_number

    def counted(n, base):
        calls.append(n)
        return real(n, base)

    monkeypatch.setattr(qnumbers, "q_euler_number", counted)
    code, out, err = run(capsys, "numbers", "--max-n", "100",
                         "--q", "1/99999")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too long to print" in err
    assert len(calls) < 101


def test_sums_bound(capsys):
    from qeuler.cli import MAX_M, MAX_N
    for variant in ("power", "alt-power", "q-alt", "q-alt-weighted"):
        for option, bound, m, n in (("--m", MAX_M, MAX_M + 1, 2),
                                    ("--n", MAX_N, 2, MAX_N + 1)):
            code, out, err = run(capsys, "sums", "--variant", variant,
                                 "--m", str(m), "--n", str(n), "--q", "1/2")
            assert (code, out) == (1, "")
            assert f"Error: {option} must be at most {bound}" in err
    code, _, _ = run(capsys, "sums", "--variant", "power", "--m", str(MAX_M),
                     "--n", str(MAX_N))
    assert code == 0


def test_poly_bound(capsys):
    from qeuler.cli import MAX_NUMBERS_N
    too_big = str(MAX_NUMBERS_N + 1)
    for variant in ("plain", "star", "classical"):
        code, out, err = run(capsys, "poly", "--n", too_big, "--x", "1",
                             "--q", "1/2", "--variant", variant)
        assert (code, out) == (1, "")
        assert f"Error: --n must be at most {MAX_NUMBERS_N}" in err
    code, _, _ = run(capsys, "poly", "--n", str(MAX_NUMBERS_N), "--x", "2",
                     "--q", "1/2")
    assert code == 0


def assert_refused_fast(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines()
            if line.startswith("Error:")] == [f"Error: {message}"]


def test_q_height_bound(capsys):
    from qeuler.cli import MAX_Q_HEIGHT
    message = (f"--q must have numerator and denominator at most "
               f"{MAX_Q_HEIGHT} in absolute value")
    for q in ("1/" + "1" + "0" * 1000, str(MAX_Q_HEIGHT + 1),
              f"-1/{MAX_Q_HEIGHT + 1}"):
        for argv in (["numbers", "--max-n", "30"],
                     ["numbers", "--max-n", "30", "--variant", "star"],
                     ["poly", "--n", "2", "--x", "1"],
                     ["sums", "--variant", "q-alt", "--m", "16", "--n", "64"],
                     ["sums", "--variant", "q-alt-weighted", "--m", "16",
                      "--n", "64"]):
            assert_refused_fast(capsys, argv + ["--q", q], message)
    code, _, _ = run(capsys, "numbers", "--max-n", "3",
                     "--q", f"-{MAX_Q_HEIGHT}/{MAX_Q_HEIGHT - 1}")
    assert code == 0


def test_poly_x_bound(capsys):
    from qeuler.cli import MAX_X_HEIGHT
    message = (f"--x must have numerator and denominator at most "
               f"{MAX_X_HEIGHT} in absolute value")
    # a tall numerator means a huge power of q, a tall denominator a root
    # of huge degree; both are refused before any power is taken
    for x in ("1000000", "-3000000", "1/100000000000"):
        for variant in ("plain", "star", "classical"):
            assert_refused_fast(capsys, ["poly", "--n", "2", "--x", x,
                                         "--q", "2/3", "--variant", variant],
                                message)
    code, _, _ = run(capsys, "poly", "--n", "2", "--x", str(MAX_X_HEIGHT),
                     "--q", "2/3")
    assert code == 0


def test_verify_f_bound(capsys):
    from qeuler.cli import MAX_F
    for suite in ("thm4", "all"):
        assert_refused_fast(capsys, ["verify", "--suite", suite,
                                     "--f", str(MAX_F + 2)],
                            f"--f must be at most {MAX_F}")
    code, _, _ = run(capsys, "verify", "--suite", "thm4", "--max-m", "1",
                     "--f", str(MAX_F))
    assert code == 0


def test_value_too_long_to_print_fails_cleanly(capsys):
    # inside every bound, but the exact value passes the interpreter's
    # int-to-str limit
    for argv in (["poly", "--n", "100", "--x", "2", "--q", "1009/1013"],
                 ["sums", "--variant", "q-alt", "--m", "16", "--n", "64",
                  "--q", "99991/99989"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too long to print" in err and "Traceback" not in err


def test_zeta_term_cap_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "zeta", "--s", "1/2", "--x", "1",
                         "--q", "999999999/1000000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


#: Runs each argv of a JSON list through main() and prints, per argv, the
#: exit code and the seconds main() took, import time excluded.
TIMED_CHILD = """
import json, sys, time
from qeuler.cli import main
timings = []
for argv in json.loads(sys.argv[1]):
    start = time.perf_counter()
    timings.append([main(argv), time.perf_counter() - start])
print(json.dumps(timings))
"""


def test_huge_positive_s_refused_fast():
    # the terms rise until k is about s q^x / (1 - q^x); a fresh
    # interpreter lets a run that does not stop be killed, not waited on
    argvs = [["zeta", "--s", "1e20", "--x", "1", "--q", "1/2"],
             ["partial-zeta", "--s", "1e20", "--a", "1", "--f", "3",
              "--q", "1/2"],
             ["lfunction", "--s", "1e20", "--modulus", "3",
              "--char-index", "1", "--q", "1/2"]]
    src = os.path.dirname(os.path.dirname(qeuler.__file__))
    child = subprocess.run(
        [sys.executable, "-c", TIMED_CHILD,
         json.dumps([argv + ["--prec", "20"] for argv in argvs])],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src})
    timings = json.loads(child.stdout)
    assert [code for code, _ in timings] == [1, 1, 1]
    assert all(seconds < 1 for _, seconds in timings), timings
    lines = child.stderr.splitlines()
    assert len(lines) == 3 and all(line.startswith("error: ")
                                   for line in lines), child.stderr


def test_growth_past_the_float_range_refused_fast():
    # ln(1-q^x) reads 0 in floats and s reads inf, so the growth check read
    # nan and admitted them; each term of the pass is then about
    # s q = 10^100 times the last, and the pass headed for the loop cap
    argvs = [["zeta", "--s", "1e500", "--x", "1", "--q", "1e-400"],
             ["partial-zeta", "--s", "1e500", "--a", "1", "--f", "3",
              "--q", "1e-400"]]
    src = os.path.dirname(os.path.dirname(qeuler.__file__))
    child = subprocess.run(
        [sys.executable, "-c", TIMED_CHILD,
         json.dumps([argv + ["--prec", "30"] for argv in argvs])],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src})
    timings = json.loads(child.stdout)
    assert [code for code, _ in timings] == [1, 1]
    assert all(seconds < 1 for _, seconds in timings), timings
    lines = child.stderr.splitlines()
    assert len(lines) == 2, child.stderr
    assert lines[0] == ("error: the continuation series at s = 1.0e+500 "
                        "grows to about 4.34e+99 digits, more than 500")


def test_refusals_past_the_float_range_give_a_finite_size(capsys):
    # float(s) reads inf, so the term count and the float products read
    # inf; the growth of the unscaled terms and log10 V stay mpfs
    growth = "grows to about 3.01e+399 digits, more than 500"
    cases = [(["zeta", "--s", "1e400", "--x", "1", "--q", "1/2"], growth),
             (["zeta", "--s", "1e400", "--x", "2", "--q", "1/2"],
              "grows to about 1.25e+399 digits, more than 500"),
             (["partial-zeta", "--s", "1e400", "--a", "1", "--f", "3",
               "--q", "1/2"], growth),
             (["lfunction", "--s", "1e400", "--modulus", "5", "--char-index",
               "1", "--q", "1/2"], growth),
             (["zeta", "--s", "-1e400", "--x", "1", "--q", "1/2"],
              "loses about 4.34e+399 digits, more than 500")]
    # q within 10^-300 of 1: 2 / (1 - q^x) and the count passed the float
    # range and read inf
    cap = "more than its cap of 200000"
    cases += [(["zeta", "--s", s, "--x", "1", "--q", "0." + "9" * nines],
               cap) for s, nines in (("1/2", 308), ("5", 320))]
    for argv, size in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.rstrip("\n").endswith(size), err
        assert "inf" not in err
    # s <= 1 past the float range with |s| q^x = 10^-100: the stop rule
    # holds from k = 0, so zeta and partial zeta are served, to the
    # contract against CVZ; counted from k = -s they were refused as
    # 10^400 terms.  H_q(s, 1; 3) = -[3]_q^(-s) zeta_{q^3}(s, 1/3), and
    # [3]_q^(-s) = e^(10^-100) is 1 to the contract
    with mp.workdps(60):
        s, q = RealP.from_rational("-1e400", 30), Fraction(1, 10 ** 500)
        want = [zeta_euler_transform(ZetaQuery(
            s, RealP.from_rational(x, 30), QBase(base, zeta_domain=True),
            30)).value for x, base in ((1, q), (Fraction(1, 3), q ** 3))]
        for command, value in ((["zeta", "--x", "1"], want[0]),
                               (["partial-zeta", "--a", "1", "--f", "3"],
                                -want[1])):
            code, out, err = run(capsys, *command, "--s", "-1e400", "--q",
                                 "1e-500", "--prec", "30", "--format", "csv")
            assert (code, err) == (0, ""), command
            served = mpf(out.splitlines()[1].split(",")[-2])
            assert abs(served - value) <= tolerance(30)


def test_poly_at_negative_q_takes_integer_x_by_powering(capsys):
    # q^x at integer x is exact for every valid base; only odd x, where
    # t = q^x < 0, and a fractional x, which needs a root, are refused
    for x, value in (("2", "-2/5"), ("0", "-12/5")):
        code, out, _ = run(capsys, "poly", "--n", "2", "--x", x, "--q",
                           "-1/2", "--format", "csv")
        assert (code, out) == (0, f"n,x,value\n2,{x}/1,{value}\n")
    assert run(capsys, "poly", "--n", "2", "--x", "1", "--q", "-1/2") \
        == (1, "", "error: t must be positive\n")
    assert run(capsys, "poly", "--n", "2", "--x", "1/2", "--q", "-1/2") \
        == (1, "", "error: a fractional power q^x needs q > 0\n")


def test_long_rational_refused_as_parsed():
    # Fraction takes 10**|exponent| before any bound could look at the
    # value: each of these ran for minutes before it was refused, so each
    # runs in a fresh interpreter that a timeout can kill
    long = "1e-100000000"
    argvs = [["zeta", "--s", long, "--x", "1", "--q", "1/2"],
             ["zeta", "--s", "1/2", "--x", long, "--q", "1/2"],
             ["zeta", "--s", "1/2", "--x", "1", "--q", long],
             ["numbers", "--max-n", "3", "--q", long],
             ["poly", "--n", "2", "--x", long, "--q", "1/2"]]
    src = os.path.dirname(os.path.dirname(qeuler.__file__))
    for argv in argvs + [["zeta", "--s", "0e-100000000", "--x", "1",
                          "--q", "1/2"],
                         ["zeta", "--s", "1/2", "--x", "1", "--q", "1e-4000"]]:
        child = subprocess.run(
            [sys.executable, "-c", TIMED_CHILD, json.dumps([argv])],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": src})
        *out, timing = child.stdout.splitlines()
        ((code, seconds),) = json.loads(timing)
        assert seconds < 1, (argv, seconds)
        if argv in argvs:
            assert (code, out) == (1, []), argv
            assert [line for line in child.stderr.splitlines()
                    if line.startswith("Error:")] == [
                f"Error: rational too long: {long!r} has more than "
                f"{sys.get_int_max_str_digits()} digits as num/den"]
        elif argv[2] == "0e-100000000":  # a zero mantissa is 0
            assert (code, out) == (0, run_quiet(
                ["zeta", "--s", "0", "--x", "1", "--q", "1/2"])[1]
                .splitlines())
        else:  # a long but printable q is served
            assert code == 0, child.stderr
            assert json.loads("\n".join(out))["results"][0]["q"] \
                == "1/1" + "0" * 4000


def test_values_above_ten_print_to_the_contract(capsys):
    # |value| is about 5.5e60: P + 60 significant digits put the last one
    # at 10^-(P-1), where P digits would stop at 10^11
    code, out, _ = run(capsys, "zeta", "--s", "-100", "--x", "1", "--q",
                       "4/5", "--format", "csv")
    assert code == 0
    value = out.splitlines()[1].split(",")[3]
    assert len(value.lstrip("-").replace(".", "")) == 50 + 60
    exact = q_euler_poly(100, QPower.from_integer(QBase(Fraction(4, 5)),
                                                  1)) / 2
    assert abs(Fraction(value) - exact) <= Fraction(1, 10 ** 40)


def run_quiet(argv):
    """main(argv) with its output captured; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def text(value):
    return f"{value.numerator}/{value.denominator}"


S_VALUES = st.builds(Fraction, st.integers(-60 * 12, 60 * 12),
                     st.integers(1, 12))            # |s| <= 60
Q_VALUES = st.integers(2, 20).flatmap(
    lambda m: st.builds(Fraction, st.integers(1, m - 1), st.just(m)))
X_VALUES = st.integers(1, 12).flatmap(              # 0 < x <= 12
    lambda d: st.builds(Fraction, st.integers(1, 12 * d), st.just(d)))
ODD = st.integers(0, 22).map(lambda i: 2 * i + 1)   # 1..45
PRECISIONS = st.integers(15, 100)


def assert_clean_and_fast(argv):
    start = time.perf_counter()
    code, out, err = run_quiet(argv)
    assert time.perf_counter() - start < 2, argv
    assert code in (0, 1), argv
    assert "Traceback" not in out + err
    assert (code == 1) == bool(err)


@settings(max_examples=60, deadline=None)
@given(S_VALUES, X_VALUES, Q_VALUES, PRECISIONS)
def test_fuzz_zeta(s, x, q, precision):
    assert_clean_and_fast(["zeta", "--s", text(s), "--x", text(x),
                           "--q", text(q), "--prec", str(precision)])


@settings(max_examples=60, deadline=None)
@given(S_VALUES, ODD, Q_VALUES, PRECISIONS, st.data())
def test_fuzz_partial_zeta(s, period, q, precision, data):
    a = data.draw(st.integers(0, period))
    assert_clean_and_fast(["partial-zeta", "--s", text(s), "--a", str(a),
                           "--f", str(period), "--q", text(q),
                           "--prec", str(precision)])


@settings(max_examples=60, deadline=None)
@given(S_VALUES, ODD, Q_VALUES, PRECISIONS, st.data())
def test_fuzz_lfunction(s, modulus, q, precision, data):
    units = sum(1 for a in range(1, modulus + 1) if gcd(a, modulus) == 1)
    index = data.draw(st.integers(0, units - 1))
    assert_clean_and_fast(["lfunction", "--s", text(s), "--modulus",
                           str(modulus), "--char-index", str(index),
                           "--q", text(q), "--prec", str(precision)])


def test_verify_pass_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "thm3", "--max-m", "4",
                       "--max-n", "6", "--report", str(report))
    assert code == 0
    assert out == "suite thm3: PASS cases=120 max_deviation=exact\n"
    docs = json.loads(report.read_text())
    assert isinstance(docs, list) and len(docs) == 1
    doc = docs[0]
    assert set(doc) == {"suite", "grid", "cases_run", "failures",
                        "max_deviation", "elapsed_ms"}
    assert doc["failures"] == []
    assert doc["max_deviation"] == "exact"


def test_verify_report_path_checked_before_suites(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify", "--suite", "thm3", "--max-m",
                         "1", "--max-n", "1", "--report", str(path))
    assert (code, out) == (1, "")  # no suite ran
    assert err.startswith("Error: ") and err.count("\n") == 1
    assert str(path) in err and "Traceback" not in err
    assert not path.parent.exists()


def test_verify_failure_exits_two(capsys, monkeypatch):
    from qeuler.verify import SUITES, VerificationReport

    def broken_suite(**_kwargs):
        return VerificationReport(
            suite="thm3", grid={}, cases_run=1,
            failures=[{"inputs": {"m": 1}, "lhs": "1/1", "rhs": "2/1",
                       "deviation": "1/1"}],
            max_deviation="1.0")

    monkeypatch.setitem(SUITES, "thm3", broken_suite)
    code, out, _ = run(capsys, "verify", "--suite", "thm3")
    assert code == 2
    assert "FAIL" in out


def test_verify_even_f_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "thm4", "--f", "2")
    assert code == 1
    assert "odd" in err


def test_verify_bounds_enforced(capsys):
    code, _, err = run(capsys, "verify", "--suite", "thm3", "--max-n", "500")
    assert code == 1


def test_refusals_exit_one_with_their_message(capsys):
    for argv, message in (
            (["zeta", "--s", "abc", "--x", "1", "--q", "1/2"],
             "not a rational: 'abc'"),
            (["numbers", "--max-n", "-1"], "--max-n must be nonnegative"),
            (["poly", "--n", "-1", "--x", "1"], "--n must be nonnegative"),
            (["verify", "--suite", "thm3", "--max-m", "0"],
             "--max-m must lie in 1..16"),
            (["verify", "--suite", "thm3", "--prec", "14"],
             "--prec must be at least 15"),
            (["zeta", "--s", "1/2", "--x", "1", "--q", "1/2", "--prec", "14"],
             "--prec must be at least 15"),
            (["partial-zeta", "--s", "1/2", "--a", "1", "--f", "3", "--q",
              "1/2", "--prec", "14"], "--prec must be at least 15"),
            (["lfunction", "--s", "1/2", "--modulus", "3", "--char-index",
              "1", "--q", "1/2", "--prec", "14"],
             "--prec must be at least 15"),
            # a period is a modulus, refused before any power of q is taken
            (["partial-zeta", "--s", "1/2", "--a", "1", "--f", "1003", "--q",
              "1/2"], "--f must be at most 1001"),
            (["partial-zeta", "--s", "1/2", "--a", "1", "--f",
              str(10 ** 400 + 1), "--q", "1/2"], "--f must be at most 1001"),
            (["lfunction", "--s", "1/2", "--modulus", "1003", "--char-index",
              "1", "--q", "1/2"], "--modulus must be at most 1001"),
            (["verify", "--suite", "thm3", "--max-n", "65"],
             "--max-n must lie in 1..64"),
            # bounded options are refused as they are parsed, so of two bad
            # ones the first given is named
            (["lfunction", "--s", "1/2", "--modulus", "1003", "--char-index",
              "1", "--q", "1/2", "--prec", "14"],
             "--modulus must be at most 1001")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.endswith(f"\nError: {message}\n")


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 1


def test_usage_error_on_missing_required(capsys):
    code, _, err = run(capsys, "zeta", "--s", "-1", "--x", "1")
    assert code == 1


def test_interrupt_exits_one(capsys, monkeypatch):
    # click turns Ctrl-C in a command into click.Abort, which main reports
    # as "aborted" on stderr with exit code 1, not as a traceback
    from qeuler import characters

    def interrupted(_modulus):
        raise KeyboardInterrupt

    monkeypatch.setattr(characters, "characters_mod", interrupted)
    code, out, err = run(capsys, "characters", "--modulus", "5")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "aborted"


def test_determinism_byte_identical(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "numbers", "--max-n", "6", "--q", "2/3")
        outputs.add(out)
    for _ in range(2):
        _, out, _ = run(capsys, "zeta", "--s", "1/2", "--x", "1", "--q", "1/2")
        outputs.add(out)
    assert len(outputs) == 2  # one distinct output per command


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "verify" in out
