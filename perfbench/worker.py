"""One round of an in-process workload, run in a fresh interpreter.

    python3 perfbench/worker.py SPEC_JSON RESULT_JSON

SPEC_JSON names the workload and holds the round's requests and the flags
`trace` and `check`.  The worker times its own set-up (import of the
program plus one warm-up request on inputs no timed request uses), then runs
the requests as a closed loop with one client, a reference slice before each
request and after the last, and writes timings, the peak RSS at the end of
the timed phase, a digest of the outputs and, with `check`, the problems the
independent checks found.  Numeric outputs are returned as text for the
parent to check.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import timing  # noqa: E402  (stdlib only)
import workloads  # noqa: E402  (stdlib only)

EXACT_LAYERS = {
    "q_euler_number": "qnumbers.q_euler_number",
    "q_euler_poly": "qnumbers.q_euler_poly",
    "q_euler_star_number": "qnumbers.star",
    "q_euler_star_poly": "qnumbers.star",
    "alt_q_power_sum_closed": "qnumbers.sum_closed",
    "weighted_alt_q_power_sum_closed": "qnumbers.sum_closed",
    "alt_q_power_sum": "qnumbers.sum_direct",
    "weighted_alt_q_power_sum": "qnumbers.sum_direct",
    "distribution_sum": "qnumbers.distribution_sum",
    "rat_pow": "exactnum.rat_pow",
    "euler_numbers": "classical.tables",
    "bernoulli_numbers": "classical.tables",
    "euler_poly": "classical.tables",
    "power_sum": "classical.power_sums",
    "power_sum_closed": "classical.power_sums",
    "alt_power_sum": "classical.power_sums",
    "alt_power_sum_closed": "classical.power_sums",
}
NUMERIC_LAYERS = {
    "from_rational": "exactnum.realp",
    "zeta": "qzeta.zeta",
    "partial_zeta": "qzeta.partial_zeta",
    "characters_mod": "characters.characters_mod",
    "l_function": "characters.l_function",
}


class Api:
    """The program's public calls a request makes, optionally traced."""

    def __init__(self, names: dict[str, str], tracer, current) -> None:
        import qeuler
        from qeuler import classical
        sources = {"euler_numbers": classical, "bernoulli_numbers": classical,
                   "from_rational": qeuler.RealP}
        for name, layer in names.items():
            fn = getattr(sources.get(name, qeuler), name)
            if tracer is not None:
                on_result = _count_bits(tracer) \
                    if layer.startswith("qnumbers.") else None
                fn = tracer.wrap(layer, fn, current, on_result)
            setattr(self, name, fn)
        self.QBase, self.QPower = qeuler.QBase, qeuler.QPower
        self.ZetaQuery = qeuler.ZetaQuery


def _count_bits(tracer):
    def on_result(value: Fraction) -> None:
        tracer.count("qnumbers.calls", 1)
        tracer.count("qnumbers.result_bits", value.numerator.bit_length()
                     + value.denominator.bit_length())
    return on_result


# -- exact-sweep --------------------------------------------------------------


def exact_request(api: Api, req: dict) -> dict:
    q = Fraction(req["q"])
    base = api.QBase(q)
    out: dict = {
        "numbers": [api.q_euler_number(n, base)
                    for n in range(workloads.NUMBERS_MAX + 1)],
        "stars": [api.q_euler_star_number(n, base)
                  for n in range(workloads.NUMBERS_MAX + 1)],
    }
    points = [(Fraction(x), api.QPower.from_integer(base, x))
              for x in range(4)]
    for text in workloads.HALF_XS:
        y = Fraction(text)
        points.append((y, api.QPower(base, api.rat_pow(q, y), y)))
    polys = {}
    for n in workloads.POLY_NS:
        for x, qp in points:
            polys["plain", n, x] = api.q_euler_poly(n, qp)
            polys["star", n, x] = api.q_euler_star_poly(n, qp)
    out["polys"] = polys
    out["sums"] = [(m, n,
                    api.alt_q_power_sum(m, n, base),
                    api.alt_q_power_sum_closed(m, n, base),
                    api.weighted_alt_q_power_sum(m, n, base),
                    api.weighted_alt_q_power_sum_closed(m, n, base))
                   for m, n in req["sums"]]
    m, x = req["dist"]
    out["dist"] = [(m, f, x, api.distribution_sum(m, f, x, base))
                   for f in (3, 5)]
    n, k = req["classical"]
    out["classical"] = {
        "euler": api.euler_numbers(workloads.NUMBERS_MAX),
        "bernoulli": api.bernoulli_numbers(workloads.NUMBERS_MAX),
        "poly": (n, k, api.euler_poly(n, k), api.euler_poly(n, k + 1)),
        "sums": (n, k, api.power_sum(n, k), api.power_sum_closed(n, k),
                 api.alt_power_sum(n, k), api.alt_power_sum_closed(n, k)),
    }
    return out


def exact_problems(req: dict, out: dict) -> list[str]:
    """Independent checks of one exact-sweep request."""
    import reference as ref
    q = Fraction(req["q"])
    bad = []
    numbers = ref.q_numbers(workloads.NUMBERS_MAX, q)
    stars = ref.q_star_numbers(workloads.NUMBERS_MAX, q)
    if out["numbers"] != numbers:
        bad.append("E_{n,q} differs from the recurrence")
    if out["stars"] != stars:
        bad.append("E*_{n,q} differs from the recurrence")
    polys = out["polys"]
    for n in workloads.POLY_NS:
        if polys["plain", n, 0] != numbers[n] \
                or polys["star", n, 0] != stars[n]:
            bad.append(f"E_{n}(x) at t = 1 is not the number")
        for x in (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)):
            power = ref.q_bracket(ref.q_power(q, x), q) ** n
            if polys["plain", n, x] + polys["plain", n, x + 1] != 2 * power:
                bad.append(f"E_{n},q(x) + E(x+1) != 2[x]^n at x = {x}")
            if polys["star", n, x] + q * polys["star", n, x + 1] \
                    != (1 + q) * power:
                bad.append(f"E*_{n},q(x) + qE*(x+1) != [2][x]^n at x = {x}")
    for m, n, direct, closed, wdirect, wclosed in out["sums"]:
        if not direct == closed == ref.alt_sum(m, n, q, False):
            bad.append(f"alternating sum m={m} n={n}")
        if not wdirect == wclosed == ref.alt_sum(m, n, q, True):
            bad.append(f"weighted sum m={m} n={n}")
    for m, f, x, value in out["dist"]:
        if value != polys["plain", m, Fraction(x)]:
            bad.append(f"distribution relation m={m} f={f} x={x}")
    classical = out["classical"]
    if classical["euler"] != ref.euler_numbers(workloads.NUMBERS_MAX):
        bad.append("Euler numbers differ from the reference")
    if classical["bernoulli"] != ref.bernoulli_numbers(workloads.NUMBERS_MAX):
        bad.append("Bernoulli numbers differ from the reference")
    n, k, at_k, at_k1 = classical["poly"]
    if at_k + at_k1 != 2 * Fraction(k) ** n:
        bad.append(f"E_{n}(k) + E_{n}(k+1) != 2k^n at k = {k}")
    n, k, plain, plain_closed, alt, alt_closed = classical["sums"]
    if not plain == plain_closed == ref.power_sum(n, k, False):
        bad.append(f"power sum n={n} k={k}")
    if not alt == alt_closed == ref.power_sum(n, k, True):
        bad.append(f"alternating power sum n={n} k={k}")
    return bad


def _digest_exact(out: dict, sha) -> None:
    values = list(out["numbers"]) + list(out["stars"])
    values += [out["polys"][key] for key in sorted(out["polys"])]
    for row in out["sums"] + out["dist"]:
        values += row
    values += out["classical"]["poly"] + out["classical"]["sums"]
    sha.update(repr([hash(v) for v in values]).encode())


# -- numeric-values -----------------------------------------------------------


def numeric_request(api: Api, cell: dict) -> tuple:
    prec = cell["prec"]
    q = Fraction(cell["q"])
    s = api.from_rational(Fraction(cell["s"]), prec)
    x = api.from_rational(Fraction(cell["x"]), prec)
    z = api.zeta(api.ZetaQuery(s, x, api.QBase(q, zeta_domain=True), prec))
    h = api.partial_zeta(s, cell["a"], cell["f"],
                         api.QBase(q, zeta_domain=True), prec)
    chi = api.characters_mod(cell["modulus"])[cell["char"]]
    value = api.l_function(s, chi, api.QBase(q, zeta_domain=True), prec)
    return z, h, chi, value


def numeric_text(result: tuple, prec: int) -> dict:
    """Outputs as text with 20 digits beyond P, for the parent's check."""
    from mpmath import mp, mpc
    z, h, chi, value = result
    with mp.workdps(prec + 20):
        def text(v):
            if isinstance(v, mpc):
                return [mp.nstr(v.real, prec + 20), mp.nstr(v.imag, prec + 20)]
            return [mp.nstr(v, prec + 20)]
        return {"zeta": text(z.value), "partial": text(h.value),
                "l": text(value.value), "order": chi.order,
                "exponents": list(chi.exponents)}


# -- the round ----------------------------------------------------------------


def peak_rss_bytes() -> int:
    """VmHWM of this process: its peak resident set so far."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    workload, requests = spec["workload"], spec["requests"]
    tracer = timing.Tracer() if spec["trace"] else None
    current: list = [None, None]  # request id, parent span id
    exact = workload == "exact-sweep"

    start = time.perf_counter()
    api = Api(EXACT_LAYERS if exact else NUMERIC_LAYERS, None, current)
    if exact:
        exact_request(api, workloads.EXACT_WARMUP)
    else:
        for cell in workloads.NUMERIC_WARMUP:
            numeric_request(api, cell)
    setup = time.perf_counter() - start
    setup_slices = timing.slices(5)
    if tracer is not None:
        api = Api(EXACT_LAYERS if exact else NUMERIC_LAYERS, tracer, current)
    run = exact_request if exact else numeric_request

    outputs, latencies = [], []
    between = [[timing.reference_slice()]]
    for index, req in enumerate(requests):
        if tracer is not None:
            current[0], current[1] = index, tracer.new_id()
        began = time.perf_counter()
        outputs.append(run(api, req))
        ended = time.perf_counter()
        if tracer is not None:
            tracer.record("request", began, ended, index, None, current[1])
        latencies.append(ended - began)
        between.append([timing.reference_slice()])
    peak = peak_rss_bytes()

    result = {"setup": setup, "setup_slices": setup_slices,
              "latencies": latencies, "slices": between, "peak_rss": peak}
    sha = hashlib.sha256()
    if exact:
        for out in outputs:
            _digest_exact(out, sha)
        if spec["check"]:
            result["problems"] = [exact_problems(req, out)
                                  for req, out in zip(requests, outputs)]
    else:
        texts = [numeric_text(out, req["prec"])
                 for req, out in zip(requests, outputs)]
        sha.update(json.dumps(texts).encode())
        if spec["check"]:
            result["outputs"] = texts
    result["digest"] = sha.hexdigest()
    if tracer is not None:
        result["trace"] = tracer.to_json()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
