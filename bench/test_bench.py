"""The benchmark's own checks: metric names and deterministic counters.

Run with ``python -m pytest bench/test_bench.py`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def traced_counters(name, seed, ops=None):
    workload = workloads.build(name, seed, BENCH.parent)
    t = tracer.Tracer()
    t.install()
    try:
        records = run.run_cycle(workload.traced_cycle[:ops], t)
    finally:
        t.uninstall()
    assert all(r["cause"] is None for r in records), records
    return dict(t.counters)


# Long cycles run a prefix of their seeded order, to keep the test short:
# the whole traced cycle of sentences_long takes about 15 s.
@pytest.mark.parametrize("name, ops", [("sentences_long", 8),
                                       ("sentences_wide", None),
                                       ("rewrite_search", 20)])
def test_counters_repeat_for_a_seed_and_change_with_it(name, ops):
    first = traced_counters(name, 1, ops)
    assert first
    assert traced_counters(name, 1, ops) == first
    assert traced_counters(name, 2, ops) != first


def test_cli_counters_repeat():
    """The cli workload runs fixed commands; only their order is seeded."""
    first = traced_counters("cli", 1)
    assert first["cli.calls"] == len(json.loads(workloads.CLI_EXPECTED.read_text()))
    assert traced_counters("cli", 2) == first
