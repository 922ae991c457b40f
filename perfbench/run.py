"""Benchmark of qeuler: four workloads, host-speed-corrected timings and a
separate traced run for per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A fuller record of the
run (machine context, raw and corrected timings, checks) is written to
.bench_out/.  See perfbench/README.md for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from importlib import metadata
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
TMP = os.path.join(OUT, "tmp")
sys.path.insert(0, HERE)
import timing  # noqa: E402
import workloads  # noqa: E402

CLI_BOOT = ("import sys; from qeuler.cli import entry; "
            "sys.argv[0] = 'qeuler'; entry()")
CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 15
#: In-process workloads take their set-up time from every round's worker,
#: so they run at least this many rounds.
MIN_ROUNDS = 3
SUITES = ("classical", "lfunction", "partial-zeta", "thm2", "thm3", "thm4",
          "weighted", "zeta")

END_TO_END = (("setup_s", "s"), ("requests_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("peak_rss_mb", "MB"))
PER_LAYER = {
    "exact-sweep": ("qnumbers.q_euler_number_ms", "qnumbers.q_euler_poly_ms",
                    "qnumbers.star_ms", "qnumbers.sum_closed_ms",
                    "qnumbers.sum_direct_ms", "qnumbers.distribution_sum_ms",
                    "classical.tables_ms", "classical.power_sums_ms",
                    "exactnum.rat_pow_ms"),
    "numeric-values": ("qzeta.zeta_ms", "qzeta.partial_zeta_ms",
                       "characters.characters_mod_ms",
                       "characters.l_function_ms", "exactnum.realp_ms"),
    "verify-all": tuple(f"verify.{name}_ms" for name in
                        ("thm2", "thm3", "thm4", "weighted", "classical",
                         "zeta", "partial-zeta", "lfunction")),
    "cli-cold": ("cli.interpreter_ms", "cli.import_ms",
                 "cli.import.mpmath_ms", "cli.import.click_ms",
                 "cli.import.qeuler_ms")
    + tuple(f"cli.{name}_ms" for name in workloads.CLI_COMMANDS),
}
COUNTS = (("qnumbers.calls", "count"), ("qnumbers.result_bits", "bit"),
          ("verify.cases", "count"))


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Child:
    """A finished child process: wall time, exit code, peak RSS, output."""

    def __init__(self, elapsed: float, code: int, rss: int, stdout: bytes,
                 stderr: bytes) -> None:
        self.elapsed, self.code, self.rss = elapsed, code, rss
        self.stdout, self.stderr = stdout, stderr


def _env() -> dict:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


ENV = _env()


def spawn(argv: list[str]) -> Child:
    """Run argv from the checkout root and time it from outside."""
    out_path, err_path = os.path.join(TMP, "child.out"), \
        os.path.join(TMP, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=ENV)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as out, open(err_path, "rb") as err:
        return Child(elapsed, proc.returncode, usage.ru_maxrss * 1024,
                     out.read(), err.read())


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI_BOOT] + args


def latency_figures(times: list[float]) -> dict:
    return {"latency_p50_ms": 1000 * statistics.median(times),
            "requests_per_s": len(times) / sum(times)}


class Tally:
    """What one workload measured: raw times with their correction
    factors, peak RSS, operation counts, problems and trace spans."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.factors: list[float] = []
        self.setups: list[float] = []
        self.setup_factors: list[float] = []
        self.peak_rss = 0
        self.attempted = self.failed = self.rounds = 0
        self.problems: list[str] = []
        self.layer_s: dict[str, float] = {}   # corrected seconds per span name
        self.layer_n: dict[str, int] = {}     # samples behind each span name
        self.counts: dict[str, int] = {}

    def add_requests(self, latencies, factors) -> None:
        self.latencies += latencies
        self.factors += factors

    def add_span(self, name: str, seconds: float, samples: int = 0) -> None:
        self.layer_s[name] = self.layer_s.get(name, 0.0) + seconds
        self.layer_n[name] = self.layer_n.get(name, 0) + samples

    def corrected(self) -> list[float]:
        return [t * f for t, f in zip(self.latencies, self.factors)]

    def end_to_end(self) -> dict:
        setups = [t * f for t, f in zip(self.setups, self.setup_factors)]
        return {"setup_s": statistics.median(setups),
                **latency_figures(self.corrected()),
                "peak_rss_mb": self.peak_rss / 1e6}

    def summary(self) -> dict:
        """The run record's view: raw and corrected figures side by side."""
        corrected = self.corrected()
        out = {"requests": len(corrected), "rounds": self.rounds,
               "attempted": self.attempted, "failed": self.failed,
               "corrected": latency_figures(corrected),
               "raw": latency_figures(self.latencies),
               "mean_factor": statistics.fmean(self.factors),
               "latencies_raw_s": self.latencies,
               "factors": self.factors,
               "problems": self.problems[:20]}
        if self.setups:
            out["raw"]["setup_s"] = statistics.median(self.setups)
            out["corrected"]["setup_s"] = self.end_to_end()["setup_s"]
        found = timing.tail(corrected)
        if found is not None:
            out["corrected"]["latency_tail"] = {"percentile": found[0],
                                                "ms": 1000 * found[1]}
        return out


# -- in-process workloads -----------------------------------------------------


def inprocess(workload: str, seed: int, seconds: float, trace: bool,
              tally: Tally, min_rounds: int) -> None:
    """Rounds of the workload, each in a fresh worker, until `seconds` pass
    (at least `min_rounds`).  A fresh worker per round keeps the program's
    number cache from carrying over between rounds, which repeat the same
    requests."""
    requests = workloads.exact_sweep(seed) if workload == "exact-sweep" \
        else workloads.numeric_values(seed)
    spec_path = os.path.join(TMP, "spec.json")
    result_path = os.path.join(TMP, "result.json")
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload, "requests": requests,
                       "trace": trace, "check": not rounds}, handle)
        if os.path.exists(result_path):
            os.remove(result_path)
        child = spawn([sys.executable, os.path.join(HERE, "worker.py"),
                       spec_path, result_path])
        if child.code != 0:
            raise BenchError(f"{workload} worker exited {child.code}:\n"
                             + child.stderr.decode(errors="replace")[-2000:])
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        rounds.append(result)
        factors = timing.factors(result["slices"])
        tally.add_requests(result["latencies"], factors)
        tally.setups.append(result["setup"])
        tally.setup_factors.append(timing.factor_of(result["setup_slices"]))
        tally.peak_rss = max(tally.peak_rss, result["peak_rss"])
        if trace:
            for span in result["trace"]["spans"]:
                if span["name"] != "request":
                    tally.add_span(span["name"], (span["end"] - span["start"])
                                   * factors[span["request"]])
            if len(rounds) == 1:
                tally.counts.update(result["trace"]["counts"])

    if any(r["digest"] != rounds[0]["digest"] for r in rounds):
        tally.problems.append("outputs differ between identical rounds")
    failing: list[int] = []
    if workload == "exact-sweep":
        for req, bad in zip(requests, rounds[0]["problems"]):
            tally.problems += [f"q={req['q']}: {text}" for text in bad]
    else:
        failing = numeric_failures(requests, rounds[0]["outputs"], tally)
    tally.attempted += len(requests) * len(rounds)
    tally.failed += len(failing) * len(rounds)
    tally.rounds += len(rounds)


def numeric_failures(cells: list[dict], outputs: list[dict],
                     tally: Tally) -> list[int]:
    """Indices of cells whose values miss the certified 10^-(P-10) against
    the Abel reference.  Only the fixed deep-negative cells may fail."""
    import reference as ref
    from mpmath import mp, mpc, mpf

    failing = []
    for index, (cell, out) in enumerate(zip(cells, outputs)):
        prec = cell["prec"]
        s, x, q = (Fraction(cell[k]) for k in ("s", "x", "q"))
        chi_bad = ref.character_problems(cell["modulus"], out["order"],
                                         out["exponents"])
        with mp.workdps(prec + 40):
            def value(parts):
                return mpf(parts[0]) if len(parts) == 1 \
                    else mpc(mpf(parts[0]), mpf(parts[1]))
            checks = {
                "zeta": ref.within(value(out["zeta"]),
                                   ref.zeta_ref(s, x, q, prec), prec),
                "partial_zeta": ref.within(
                    value(out["partial"]),
                    ref.partial_zeta_ref(s, cell["a"], cell["f"], q, prec),
                    prec),
                "l_function": not chi_bad and ref.within(
                    value(out["l"]),
                    ref.l_function_ref(s, cell["modulus"], out["order"],
                                       out["exponents"], q, prec), prec),
            }
        missed = [name for name, ok in checks.items() if not ok]
        if missed:
            failing.append(index)
            if not cell["fixed"]:
                tally.problems.append(f"unexpected failure {missed} at {cell}"
                                      f" {chi_bad}")
    return failing


# -- child-process workloads --------------------------------------------------


def setup_children(warmup: list[str], tally: Tally) -> None:
    """Set-up of a child-process workload: a fresh interpreter that imports
    the CLI and runs one warm-up command, timed from outside."""
    after = timing.slices(3)
    for _ in range(SETUP_REPEATS):
        before = after
        child = spawn(cli_argv(warmup))
        if child.code != 0:
            raise BenchError("warm-up command failed:\n"
                             + child.stderr.decode(errors="replace")[-2000:])
        after = timing.slices(3)
        tally.setups.append(child.elapsed)
        tally.setup_factors.append(timing.factor_of(before + after))


def grid_size(suite: str, grid: dict) -> int:
    """Cells a suite's grid holds, derived from the grid description."""
    def span(key):
        lo, hi = grid[key]
        return hi - lo + 1
    if suite in ("thm3", "weighted"):
        return span("m") * span("n") * len(grid["q"])
    if suite == "thm2":
        return span("n") * span("x") * len(grid["q"])
    if suite == "thm4":
        return span("m") * len(grid["f"]) * span("x") * len(grid["q"])
    if suite == "classical":
        return span("exponent") * span("k") * len(grid["sums"])
    if suite == "zeta":
        return len(grid["s"]) * len(grid["x"]) * len(grid["q"])
    if suite == "partial-zeta":
        return span("n") * sum(f - 1 for f in grid["F"]) * len(grid["q"])
    if suite == "lfunction":
        units = sum(1 for d in grid["modulus"] for a in range(d)
                    if gcd(a, d) == 1)
        return span("n") * units * len(grid["q"])
    raise BenchError(f"unknown suite {suite}")


def _schema(name: str):
    with open(os.path.join(ROOT, "docs", name), encoding="utf-8") as handle:
        return json.load(handle)


def report_problems(child: Child, report_path: str,
                    suites: list[str]) -> list[str]:
    """Checks of a `verify` invocation: exit code, report schema, every
    suite passed, and cases_run equal to the size of the reported grid."""
    import jsonschema
    problems = []
    if child.code != 0:
        problems.append(f"verify exited {child.code}")
    with open(report_path, encoding="utf-8") as handle:
        reports = json.load(handle)
    try:
        jsonschema.validate(reports,
                            _schema("verification-report.schema.json"))
    except jsonschema.ValidationError as exc:
        return problems + [f"report does not match its schema: {exc.message}"]
    if [r["suite"] for r in reports] != suites:
        problems.append(f"suites run: {[r['suite'] for r in reports]}")
    lines = child.stdout.decode().splitlines()
    for r in reports:
        if r["failures"]:
            problems.append(f"suite {r['suite']} failed")
        if r["cases_run"] != grid_size(r["suite"], r["grid"]):
            problems.append(f"suite {r['suite']} ran {r['cases_run']} cases")
        if not any(line.startswith(f"suite {r['suite']}: PASS cases="
                                   f"{r['cases_run']} ") for line in lines):
            problems.append(f"no PASS line for {r['suite']}")
    return problems


def verify_all(seconds: float, trace: bool, tally: Tally) -> None:
    """Fresh interpreters running `qeuler verify --suite all` through
    verify_child.py, which samples the host's speed between the suites."""
    if not trace:
        setup_children(workloads.VERIFY_WARMUP, tally)
    report = os.path.join(TMP, "verify-report.json")
    side = os.path.join(TMP, "verify-child.json")
    latencies, factors, cases, traced = [], [], 0, []
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        for path in (report, side):
            if os.path.exists(path):
                os.remove(path)
        child = spawn([sys.executable, os.path.join(HERE, "verify_child.py"),
                       report, side] + (["--trace"] if trace else []))
        tally.peak_rss = max(tally.peak_rss, child.rss)
        tally.problems += report_problems(child, report, list(SUITES))
        with open(side, encoding="utf-8") as handle:
            inside = json.load(handle)
        latencies.append(child.elapsed - sum(inside["slices"]))
        factors.append(timing.factor_of(inside["slices"]))
        if trace:
            traced.append(inside["trace"]["spans"])
        if not cases:
            with open(report, encoding="utf-8") as handle:
                cases = sum(r["cases_run"] for r in json.load(handle))
    tally.add_requests(latencies, factors)
    for spans, factor in zip(traced, factors):
        for span in spans:
            if span["name"].startswith("verify."):
                tally.add_span(span["name"],
                               (span["end"] - span["start"]) * factor)
    tally.counts["verify.cases"] = cases
    tally.attempted += len(latencies)
    tally.rounds += len(latencies)


def cli_problems(commands: list[list[str]], outputs: list[tuple],
                 report_suites: list[str]) -> list[str]:
    """Independent checks of one round of CLI invocations."""
    import jsonschema
    import reference as ref
    from mpmath import mp

    schema = _schema("cli-output.schema.json")
    problems = []
    docs = {}
    for cmd, (child, _) in zip(commands, outputs):
        if child.code != 0:
            problems.append(f"{cmd[0]} exited {child.code}")
            continue
        if cmd[0] == "verify":
            continue
        doc = json.loads(child.stdout)
        try:
            jsonschema.validate(doc, schema)
        except jsonschema.ValidationError as exc:
            problems.append(f"{cmd[0]} output: {exc.message}")
        docs[cmd[0]] = doc
    if problems:
        return problems

    def rational(text):
        return Fraction(text)

    query = docs["numbers"]["query"]
    q = rational(query["q"])
    make = ref.q_numbers if query["variant"] == "plain" else ref.q_star_numbers
    numbers = make(query["max_n"], q)
    if [rational(r["value"]) for r in docs["numbers"]["results"]] != numbers:
        problems.append("numbers differ from the recurrence")

    query = docs["poly"]["query"]
    q, x, n = rational(query["q"]), rational(query["x"]), query["n"]
    make = ref.q_numbers if query["variant"] == "plain" else ref.q_star_numbers
    expected = ref.q_poly(n, ref.q_power(q, x), q, make(n, q))
    if rational(docs["poly"]["results"][0]["value"]) != expected:
        problems.append("poly differs from the binomial form")

    query = docs["sums"]["query"]
    row = docs["sums"]["results"][0]
    own = ref.alt_sum(query["m"], query["n"], rational(query["q"]),
                      query["variant"] == "q-alt-weighted")
    if not (rational(row["direct"]) == rational(row["closed"]) == own
            and row["equal"] is True):
        problems.append("sums differ from the direct sum")

    group = docs["characters"]["results"]
    modulus = docs["characters"]["query"]["modulus"]
    units = sum(1 for a in range(modulus) if gcd(a, modulus) == 1)
    tables = {tuple(r["exponents"]) for r in group}
    if len(group) != units or len(tables) != units:
        problems.append("character group has the wrong size")
    for r in group:
        problems += [f"character {r['index']}: {text}" for text in
                     ref.character_problems(modulus, r["order"],
                                            r["exponents"])]

    for name in ("zeta", "partial-zeta", "lfunction"):
        query = docs[name]["query"]
        prec = query["prec"]
        s, q = rational(query["s"]), rational(query["q"])
        text = docs[name]["results"][0]["value"]
        with mp.workdps(prec + 40):
            value = ref.parse_complex(text)
            if name == "zeta":
                expected = ref.zeta_ref(s, rational(query["x"]), q, prec)
            elif name == "partial-zeta":
                expected = ref.partial_zeta_ref(s, query["a"], query["f"], q,
                                                prec)
            else:
                chi = group[query["char_index"]]
                expected = ref.l_function_ref(s, query["modulus"],
                                              chi["order"], chi["exponents"],
                                              q, prec)
            if not ref.within(value, expected, prec, printed=True):
                problems.append(f"{name} misses the reference: {text}")

    for cmd, (child, report) in zip(commands, outputs):
        if cmd[0] == "verify":
            problems += report_problems(child, report, report_suites)
    return problems


def cli_cold(seed: int, seconds: float, trace: bool, tally: Tally) -> None:
    """Rounds of the eight commands, each a fresh interpreter."""
    commands = workloads.cli_cold(seed)
    if not trace:
        setup_children(workloads.CLI_WARMUP, tally)
    reports = [os.path.join(TMP, f"cli-report-{i}.json") for i in range(2)]
    bursts = [[timing.reference_slice()]]
    latencies, names, first, rounds = [], [], None, 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        outputs = []
        for cmd in commands:
            report = reports[min(rounds, 1)] if cmd[0] == "verify" else None
            argv = cmd + (["--report", report] if report else [])
            child = spawn(cli_argv(argv))
            bursts.append([timing.reference_slice()])
            latencies.append(child.elapsed)
            names.append(cmd[0])
            tally.peak_rss = max(tally.peak_rss, child.rss)
            outputs.append((child, report))
        if first is None:
            first = outputs
            suite = next(c for c in commands if c[0] == "verify")[2]
            tally.problems += cli_problems(commands, outputs, [suite])
        elif not same_outputs(first, outputs):
            tally.problems.append("repeated invocations differ")
        rounds += 1
    factors = timing.factors(bursts)
    tally.add_requests(latencies, factors)
    tally.attempted += len(latencies)
    tally.rounds += rounds
    if trace:
        for name, latency, factor in zip(names, latencies, factors):
            tally.add_span(f"cli.{name}", latency * factor, 1)
        probe_startup(tally)


def same_outputs(first: list[tuple], later: list[tuple]) -> bool:
    """Byte-identical stdout and exit codes; verify reports equal apart
    from their documented timing field."""
    def report(path):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        for r in data:
            r.pop("elapsed_ms")
        return data
    for (a, path_a), (b, path_b) in zip(first, later):
        if (a.code, a.stdout) != (b.code, b.stdout):
            return False
        if path_a is not None and report(path_a) != report(path_b):
            return False
    return True


def probe_startup(tally: Tally) -> None:
    """Bare interpreter start and the import of the CLI by package, from
    `python -X importtime`, each corrected by the slice before it."""
    for _ in range(5):
        factor = timing.factor_of(timing.slices(3))
        child = spawn([sys.executable, "-c", "pass"])
        tally.add_span("cli.interpreter", child.elapsed * factor, 1)
    for _ in range(3):
        factor = timing.factor_of(timing.slices(3))
        child = spawn([sys.executable, "-X", "importtime", "-c",
                       "import qeuler.cli"])
        if child.code != 0:
            raise BenchError("import of qeuler.cli failed")
        cumulative: dict[str, int] = {}
        for line in child.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        total = cumulative["qeuler.cli"]  # includes the package import
        mpm, clk = cumulative["mpmath"], cumulative["click"]
        for name, micros in (("cli.import", total),
                             ("cli.import.mpmath", mpm),
                             ("cli.import.click", clk),
                             ("cli.import.qeuler", total - mpm - clk)):
            tally.add_span(name, micros * 1e-6 * factor, 1)


# -- the run ------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tally: Tally) -> Tally:
    if name in ("exact-sweep", "numeric-values"):
        inprocess(name, seed, seconds, trace, tally,
                  1 if trace else MIN_ROUNDS)
    elif name == "verify-all":
        verify_all(seconds, trace, tally)
    else:
        cli_cold(seed, seconds, trace, tally)
    return tally


def layer_metrics(tallies: dict[str, Tally]) -> dict:
    """Per-layer figures: milliseconds per request of the owning workload
    (per invocation for the cli probes), and exact counts."""
    metrics = {}
    for workload, names in PER_LAYER.items():
        tally = tallies[workload]
        for metric in names:
            span = metric[:-3]
            samples = tally.layer_n.get(span) or len(tally.latencies)
            metrics[metric] = {"value": 1000 * tally.layer_s.get(span, 0.0)
                               / samples, "unit": "ms"}
    for name, unit in COUNTS:
        owner = "verify-all" if name.startswith("verify.") else "exact-sweep"
        metrics[name] = {"value": tallies[owner].counts.get(name, 0),
                         "unit": unit}
    return metrics


def machine() -> dict:
    import mpmath
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "mpmath": mpmath.__version__, "mpmath_backend":
            mpmath.libmp.BACKEND, "sympy": metadata.version("sympy"),
            "platform": platform.platform()}


def check_checkout() -> None:
    for path in (("src", "qeuler", "__init__.py"),
                 ("docs", "cli-output.schema.json"),
                 ("docs", "verification-report.schema.json")):
        if not os.path.isfile(os.path.join(ROOT, *path)):
            raise BenchError(f"{os.path.join(*path)} is missing: run from the "
                             "root of a qeuler checkout")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a stopped run stops its child process too (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        check_checkout()
        os.makedirs(TMP, exist_ok=True)
        import reference
        reference.self_check()
        started = time.time()
        if args.trace:
            # Every traced run measures every per-layer metric: one traced
            # round of each workload, then more of the named one until the
            # run length is used.
            order = [args.workload] + [w for w in workloads.WORKLOADS
                                       if w != args.workload]
            tallies = {w: run_workload(w, args.seed, 0, True, Tally())
                       for w in order}
            budget = args.seconds - (time.time() - started)
            if budget > 0:
                run_workload(args.workload, args.seed, budget, True,
                             tallies[args.workload])
            main_tally = tallies[args.workload]
            metrics = layer_metrics(tallies)
            problems = [p for t in tallies.values() for p in t.problems]
        else:
            main_tally = run_workload(args.workload, args.seed, args.seconds,
                                      False, Tally())
            tallies = {args.workload: main_tally}
            figures = main_tally.end_to_end()
            metrics = {name: {"value": figures[name], "unit": unit}
                       for name, unit in END_TO_END}
            problems = main_tally.problems
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - a benchmark that breaks reports why
        traceback.print_exc()
        return 1

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "wall_s": time.time() - started, "machine": machine(),
              "nominal_slice_s": timing.NOMINAL_SLICE_S,
              "workloads": {w: t.summary() for w, t in tallies.items()},
              "metrics": metrics, "problems": problems}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for workload, summary in record["workloads"].items():
        print(f"{workload}: requests={summary['requests']} "
              f"raw={summary['raw']} corrected={summary['corrected']}")
    for text in problems:
        print(f"problem: {text}")
    print(json.dumps({"correct": not problems,
                      "attempted": main_tally.attempted,
                      "failed": main_tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
