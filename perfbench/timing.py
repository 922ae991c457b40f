"""Host-speed correction, span recording and summary statistics.

Stdlib only, so that the worker can import it before it times the import
of the program.

Host-speed correction.  The host's speed drifts on its own by more than the
benchmark's bounds, so every timing is scaled by NOMINAL_SLICE_S divided by
the measured time of a fixed reference slice run next to it.  A slice
is run between consecutive requests, and request i is corrected with the
median of the slices in a small window around it, which follows drift over
seconds while averaging out the noise of a single slice.  A verify-all
request lasts seconds, during which the speed itself moves, so it runs
slices between its suites instead (see verify_child.py).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: Nominal duration of one reference slice.  Corrected timings read as if the
#: host ran the slice in exactly this time.
NOMINAL_SLICE_S = 0.002

#: Bursts of slices on each side of a request whose median corrects it.
WINDOW = 3


def reference_slice() -> float:
    """Run the fixed reference work and return its wall time in seconds.

    Pure-Python rational arithmetic, big-integer products and dict updates:
    the same interpreter paths the program's exact and numeric layers use.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 330):
        total += Fraction(i, i * i + 1)
    table: dict[int, int] = {}
    for i in range(9000):
        key = i % 97
        table[key] = table.get(key, 0) + i * i
    if total <= 0 or not table:
        raise AssertionError("reference slice computed nothing")
    return time.perf_counter() - start


def slices(count: int) -> list[float]:
    return [reference_slice() for _ in range(count)]


def factors(bursts: list[list[float]]) -> list[float]:
    """Correction factor per request.

    bursts[i] holds the slice times run just before request i, and the last
    burst those run after the last request, so there is one burst more than
    requests.  Request i is corrected by the median of the slices in the
    WINDOW bursts on each side of it.
    """
    out = []
    for i in range(len(bursts) - 1):
        near = [t for burst in bursts[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
                for t in burst]
        out.append(NOMINAL_SLICE_S / statistics.median(near))
    return out


def factor_of(times: list[float]) -> float:
    return NOMINAL_SLICE_S / statistics.median(times)


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten samples
    above it, or None when there are fewer than forty samples."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    index = n - 11  # ten samples lie beyond this one
    return 100.0 * (index + 1) / n, ordered[index]


class Tracer:
    """In-memory spans, written out when the run ends.

    A span is (id, parent id, request id, name, start, end); counters are
    named integers accumulated at the same boundaries.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, int | None, str, float,
                               float]] = []
        self.counts: dict[str, int] = {}
        self._next = 0

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def record(self, name: str, start: float, end: float,
               request: int | None, parent: int | None = None,
               span_id: int | None = None) -> int:
        span_id = self.new_id() if span_id is None else span_id
        self.spans.append((span_id, parent, request, name, start, end))
        return span_id

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, current: list, on_result=None):
        """fn wrapped in a span named `name` whose parent and request are
        read from current = [request id, parent span id] at call time."""
        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            self.record(name, start, end, current[0], current[1])
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def to_json(self) -> dict:
        return {
            "spans": [{"id": s[0], "parent": s[1], "request": s[2],
                       "name": s[3], "start": s[4], "end": s[5]}
                      for s in self.spans],
            "counts": dict(self.counts),
        }
