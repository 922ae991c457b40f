"""Seeded inputs for the four workloads.

Every function here is a pure function of the seed: the same seed gives the
same inputs.  Inputs are stratified, so that what a seed changes is which
values fill each slot of a round, not how much work the round holds; that
keeps the end-to-end figures of different seeds comparable.  Warm-up inputs
are fixed and disjoint from every timed input.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("exact-sweep", "numeric-values", "verify-all", "cli-cold")

# -- exact-sweep --------------------------------------------------------------

#: Requests in one round; each round runs in a fresh worker process.
EXACT_ROUND = 30
#: E_{n,q} and E*_{n,q} are computed for n = 0..NUMBERS_MAX.
NUMBERS_MAX = 40
#: Polynomial degrees, at x = 0..3 and at x = 1/2, 3/2.
POLY_NS = (8, 20, 40)
HALF_XS = ("1/2", "3/2")
#: The CLI bounds on power sums.
SUM_M, SUM_N = 16, 64
#: Fresh q = r^2 per request, r = a/b with 7 <= b <= 12, so that q^(1/2) is
#: rational and every q of a round is distinct.  The warm-up uses r = 1/2.
EXACT_BASES = tuple(Fraction(a, b) for b in range(7, 13) for a in range(1, b)
                    if gcd(a, b) == 1)
EXACT_WARMUP = {"q": "1/4", "sums": [[3, 5]], "dist": [8, 1],
                "classical": [3, 4]}


def exact_sweep(seed: int) -> list[dict]:
    rng = random.Random(f"exact-sweep:{seed}")
    requests = []
    for r in rng.sample(EXACT_BASES, EXACT_ROUND):
        sums = [[SUM_M, SUM_N]] + [[rng.randint(1, SUM_M),
                                    rng.randint(1, SUM_N)] for _ in range(2)]
        requests.append({
            "q": str(r * r),
            "sums": sums,
            "dist": [rng.choice((8, 20)), rng.randint(0, 2)],
            "classical": [rng.randint(1, SUM_M), rng.randint(1, SUM_N)],
        })
    return requests


# -- numeric-values -----------------------------------------------------------

#: Seeded cells in one round, plus the fixed deep-negative cells.
NUMERIC_SLOTS = 46
#: A slot fixes the shape of its cell: P, a band of q of similar
#: convergence rate, a pair of nearby x, the sign and a band of |s|, the
#: residue, the period and the modulus.  The seed picks the members, so a
#: round's work, and the median request, barely move with the seed.
Q_BANDS = (("1/5", "2/9", "1/4"), ("4/9", "1/2", "5/9"),
           ("2/3", "7/10", "5/7"), ("3/4", "7/9", "4/5"))
X_PAIRS = (("1/2", "5/9"), ("1", "9/8"), ("2", "9/4"), ("7/2", "15/4"))
MODULI = (1, 3, 5, 7, 9, 11, 13, 15)
PERIODS = (3, 5, 7, 9, 11, 13, 15)
#: Known fault kept in the workload: at P = 50 the continuation series loses
#: more than the guard digits to cancellation for s this negative at
#: q = 4/5, so these cells fail their check on every run, whatever the seed.
DEEP_NEGATIVE = tuple({"s": s, "x": "1", "q": "4/5", "prec": 50, "a": 1,
                       "f": 3, "modulus": 3, "char": 1, "fixed": True}
                      for s in ("-40", "-60"))
NUMERIC_WARMUP = tuple({"s": "3/7", "x": "5/3", "q": "2/7", "prec": p,
                        "a": 2, "f": 3, "modulus": 21, "char": 5}
                       for p in (50, 100))


def _phi(d: int) -> int:
    return sum(1 for a in range(d) if gcd(a, d) == 1)


def numeric_values(seed: int) -> list[dict]:
    rng = random.Random(f"numeric-values:{seed}")
    cells = []
    for j in range(NUMERIC_SLOTS):
        if j % 6 == 0:
            s = Fraction(-rng.randint(1, 16))  # exact special values
        else:
            den = rng.choice((2, 3, 4))
            part = Fraction(rng.choice([k for k in range(1, 4 * den)
                                        if k % den]), den)
            s = (4 * ((j // 3) % 4) + part) * (-1) ** (j // 2)
        period = PERIODS[j % len(PERIODS)]
        modulus = MODULI[j % len(MODULI)]
        cells.append({
            "s": str(s),
            "x": rng.choice(X_PAIRS[(j // 4) % 4]),
            "q": rng.choice(Q_BANDS[j % 4]),
            "prec": (50, 100)[(j + j // 4) % 2],
            "a": 1 + (j // len(PERIODS)) % (period - 1),
            "f": period,
            "modulus": modulus,
            "char": rng.randrange(_phi(modulus)),
            "fixed": False,
        })
    return cells + [dict(cell) for cell in DEEP_NEGATIVE]


# -- cli-cold -----------------------------------------------------------------

CLI_COMMANDS = ("numbers", "poly", "sums", "zeta", "partial-zeta",
                "lfunction", "characters", "verify")
#: Warm-up invocation: a classical table, which no timed request asks for.
CLI_WARMUP = ["numbers", "--max-n", "1", "--variant", "classical-euler"]
#: Exact suites the verify request picks from, with small grids.
CLI_SUITES = (("thm2", ["--max-n", "4"]), ("thm3", ["--max-m", "3",
                                                    "--max-n", "6"]),
              ("thm4", ["--max-m", "3", "--f", "3"]),
              ("weighted", ["--max-m", "3", "--max-n", "6"]),
              ("classical", ["--max-m", "3", "--max-n", "8"]))


def cli_cold(seed: int) -> list[list[str]]:
    """One round: one invocation of each of the eight commands."""
    rng = random.Random(f"cli-cold:{seed}")
    r = Fraction(rng.randint(1, 4), rng.randint(5, 9))
    q = str(r * r)
    small_q = rng.choice(("1/3", "1/2", "2/5", "3/7"))
    modulus = rng.choice((5, 7, 9, 11, 13, 15))
    s = str(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3))))
    suite, grid = rng.choice(CLI_SUITES)
    period = rng.choice((3, 5, 7))
    return [
        ["numbers", "--max-n", str(rng.randint(6, 12)), "--q", q,
         "--variant", rng.choice(("plain", "star"))],
        ["poly", "--n", str(rng.randint(3, 10)),
         "--x", rng.choice(("0", "1", "2", "3", "1/2", "3/2")), "--q", q,
         "--variant", rng.choice(("plain", "star"))],
        ["sums", "--variant", rng.choice(("q-alt", "q-alt-weighted")),
         "--m", str(rng.randint(1, 6)), "--n", str(rng.randint(1, 12)),
         "--q", q],
        ["zeta", "--s", s, "--x", rng.choice(("1", "3/2", "2")),
         "--q", small_q, "--prec", "50"],
        ["partial-zeta", "--s", s, "--a", str(rng.randint(1, period - 1)),
         "--f", str(period), "--q", small_q, "--prec", "50"],
        ["lfunction", "--s", s, "--modulus", str(modulus),
         "--char-index", str(rng.randrange(_phi(modulus))),
         "--q", small_q, "--prec", "50"],
        ["characters", "--modulus", str(modulus)],
        ["verify", "--suite", suite] + grid,
    ]


# -- verify-all ---------------------------------------------------------------

#: The request is `verify --suite all` at its default grids and P = 50, so
#: the seed selects nothing.  The warm-up runs the distribution suite at
#: f = 7, which the default grid does not contain.
VERIFY_REQUEST = ["verify", "--suite", "all", "--prec", "50"]
VERIFY_WARMUP = ["verify", "--suite", "thm4", "--f", "7", "--max-m", "1"]
