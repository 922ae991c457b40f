"""The committed benchmark records: every BENCH_<workload>.json at the root
of the repository parses, and each entry carries what tools/bench_record.py
writes (the recorder runs the benchmark, so it runs outside these tests)."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = {"commit", "tree_differs", "recorded", "host", "workload", "seed",
          "seconds", "metrics", "attempted", "failed", "correct"}
HOST = {"cpu_count", "python", "mpmath", "mpmath_backend"}


def test_every_bench_entry_carries_its_fields():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    metrics = {metric["name"] for metric in benchmark["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert ROOT / "BENCH_verify-all.json" in paths
    for path in paths:
        entries = json.loads(path.read_text(encoding="utf-8"))
        assert entries, path.name
        for entry in entries:
            assert FIELDS <= set(entry), path.name
            assert set(entry["host"]) == HOST
            assert f"BENCH_{entry['workload']}.json" == path.name
            assert set(entry["metrics"]) == metrics
            assert all(isinstance(metric["value"], (int, float))
                       for metric in entry["metrics"].values())
            assert 0 <= entry["failed"] <= entry["attempted"]
            assert len(entry["commit"]) == 40
            if "side" in entry:  # a --pair entry
                assert entry["side"] in ("parent", "change")
                assert {"pair", "batch"} <= set(entry)
