"""Record benchmark runs in the committed BENCH_<workload>.json files.

    python3 tools/bench_record.py --workload W --seed S --seconds T [--checkout DIR]
    python3 tools/bench_record.py --workload W --seed S --seconds T \\
        --pair PARENT CHANGE --pairs N

Each run is `python3 perfbench/run.py --workload W --seed S --seconds T`
in a checkout (this repository by default), with the benchmark's own code
in that checkout.  The recorder reads the JSON object the benchmark prints
as the last line of its standard output, and the `machine` block of the
run's record in that checkout's .bench_out/, and appends one entry per run
to BENCH_<workload>.json at the root of this repository: the checkout's
commit (and whether its tree differs from it), the host (CPU count,
Python, mpmath version and backend), the seed, the seconds, the end-to-end
metrics as printed, `attempted`, `failed` and `correct`.

--pair runs N pairs of the two checkouts, pair i at seed S + i, the parent
first in even pairs and the change first in odd ones, so a drift of the
host's speed falls on both sides alike.  Its entries also name their side,
their pair and the batch (the time the --pair command started).  It then
prints, for each end-to-end metric of BENCHMARK.json, each side's median
and quartiles and the number of pairs the change won (ties count for
neither), and whether a gain holds: the change won at least nine pairs in
ten and the medians differ by more than the distance between the parent's
quartiles.

Standard library only.  Runs the benchmark, so it is no tier-1 test;
tests/test_bench_records.py checks the entries it committed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_FIELDS = ("cpu_count", "python", "mpmath", "mpmath_backend")


def now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")


def git(checkout: str, *args: str) -> str:
    return subprocess.run(["git", "-C", checkout, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `checkout`, as a BENCH entry."""
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False)
    if child.returncode != 0:
        raise SystemExit(f"perfbench/run.py exited {child.returncode} in "
                         f"{checkout}:\n{child.stderr[-2000:]}")
    printed = json.loads(child.stdout.splitlines()[-1])
    record = os.path.join(checkout, ".bench_out",
                          f"{workload}-seed{seed}-trace0.json")
    with open(record, encoding="utf-8") as handle:
        machine = json.load(handle)["machine"]
    return {"commit": git(checkout, "rev-parse", "HEAD"),
            "tree_differs": bool(git(checkout, "status", "--porcelain")),
            "recorded": now(),
            "host": {key: machine[key] for key in HOST_FIELDS},
            "workload": workload, "seed": seed, "seconds": seconds,
            "metrics": printed["metrics"], "attempted": printed["attempted"],
            "failed": printed["failed"], "correct": printed["correct"]}


def append(workload: str, entries: list[dict]) -> None:
    """Add the entries to BENCH_<workload>.json, one entry per line."""
    path = os.path.join(ROOT, f"BENCH_{workload}.json")
    old = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            old = json.load(handle)
    lines = [json.dumps(entry, sort_keys=True) for entry in old + entries]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join(lines) + "\n]\n")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def summarise(entries: list[dict]) -> None:
    """Print each side's median and quartiles and the change's wins."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    pairs: dict[int, dict[str, dict]] = {}
    for entry in entries:
        pairs.setdefault(entry["pair"], {})[entry["side"]] = entry
    for side in ("parent", "change"):
        done = [pair[side] for pair in pairs.values()]
        print(f"{side}: failed {sum(e['failed'] for e in done)} of "
              f"{sum(e['attempted'] for e in done)} attempted")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"

        def value(entry):
            return entry["metrics"][name]["value"]

        sides = {side: quartiles([value(pair[side])
                                  for pair in pairs.values()])
                 for side in ("parent", "change")}
        wins = sum(1 for pair in pairs.values()
                   if (value(pair["change"]) > value(pair["parent"]))
                   == higher and value(pair["change"])
                   != value(pair["parent"]))
        (p1, pm, p3), (c1, cm, c3) = sides["parent"], sides["change"]
        holds = wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1
        print(f"{name}: parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change "
              f"{cm:.4g} [{c1:.4g}, {c3:.4g}]  ({cm / pm - 1:+.1%})  "
              f"change won {wins} of {len(pairs)}  gain holds: {holds}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--checkout", default=ROOT)
    parser.add_argument("--pair", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pair is None:
        append(args.workload, [run(args.checkout, args.workload, args.seed,
                                   args.seconds)])
        return 0
    entries = []
    batch = now()
    for index in range(args.pairs):
        seed = args.seed + index
        sides = list(zip(("parent", "change"), args.pair))
        for side, checkout in sides if index % 2 == 0 else sides[::-1]:
            entry = run(checkout, args.workload, seed, args.seconds)
            entry.update(side=side, pair=index, batch=batch)
            entries.append(entry)
            append(args.workload, [entry])
            print(f"pair {index} seed {seed} {side}: "
                  + " ".join(f"{name}={m['value']:.4g}"
                             for name, m in entry["metrics"].items()),
                  flush=True)
    summarise(entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
