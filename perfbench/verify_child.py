"""One verify-all request: `qeuler verify --suite all` in this process.

    python3 perfbench/verify_child.py REPORT_JSON SLICES_JSON [--trace]

Runs the CLI in-process exactly as `qeuler verify --suite all --prec 50
--report REPORT_JSON` does, with every entry of the program's public suite
table wrapped so that a burst of reference slices runs before each suite
and after the last.  A request lasts seconds and the host's speed moves
within that time, so slices between the suites follow it where slices
between requests cannot.  The parent subtracts the slices' time from the
request's and corrects it by their median.  With --trace each suite also
gets a span.  Writes {"slices": [...], "trace": {...}} to SLICES_JSON and
exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import timing  # noqa: E402
import workloads  # noqa: E402

BURST = 3


def main(report_path: str, slices_path: str, trace: bool) -> int:
    from qeuler import cli, verify

    slices: list[float] = []
    tracer = timing.Tracer() if trace else None
    current = [0, tracer.new_id() if tracer else None]

    def sampled(suite):
        def run(*args, **kwargs):
            slices.extend(timing.slices(BURST))
            return suite(*args, **kwargs)
        return run

    for name, suite in list(verify.SUITES.items()):
        if tracer is not None:
            suite = tracer.wrap(f"verify.{name}", suite, current)
        verify.SUITES[name] = sampled(suite)
    start = time.perf_counter()
    code = cli.main(workloads.VERIFY_REQUEST + ["--report", report_path])
    end = time.perf_counter()
    slices.extend(timing.slices(BURST))
    out: dict = {"slices": slices}
    if tracer is not None:
        tracer.record("request", start, end, 0, None, current[1])
        out["trace"] = tracer.to_json()
    with open(slices_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], "--trace" in sys.argv[3:]))
