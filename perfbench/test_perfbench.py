"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

The traced tests run real workload passes (about a minute in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from itertools import product

import pytest

import run
import spec
import tracer

EXACT_SUFFIXES = (".calls", ".coeff_products", ".cells", ".strata",
                  ".max_bits", ".useful")


def traced_totals(workload, seed=0):
    """Merged span totals of one traced pass; every output must be right."""
    os.makedirs(run.WORK_PARENT, exist_ok=True)
    work = tempfile.mkdtemp(dir=run.WORK_PARENT)
    try:
        runner = run.Runner(work, time.monotonic() + run.DEADLINE_S)
        outcomes = runner.run_pass(run.requests(workload, seed), (True,))[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert run.failures(outcomes, run.load_reference()) == []
    return run.merge_totals(outcomes)


@pytest.fixture(scope="module")
def search_totals():
    return traced_totals("search", seed=3)


@pytest.mark.parametrize("workload", ["deep", "shallow", "search"])
def test_named_spans_record_calls(workload, request):
    totals = (request.getfixturevalue("search_totals")
              if workload == "search" else traced_totals(workload))
    missing = [span for span in spec.EXPECTED_SPANS[workload]
               if totals.get(f"{span}.calls", 0) < 1]
    assert missing == []


def test_exact_counts_repeat(search_totals):
    again = traced_totals("search", seed=3)
    exact = {k: v for k, v in search_totals.items()
             if k.endswith(EXACT_SUFFIXES)}
    assert exact == {k: v for k, v in again.items()
                     if k.endswith(EXACT_SUFFIXES)}
    assert exact["series.mul.coeff_products"] > 0
    assert exact["linalg.nullspace.cells"] > 0
    assert exact["relations.search.strata"] > 0


def test_summarize_self_and_total_time():
    spans = [
        ["a", 0.0, 10.0, -1, True],
        ["series.mul", 1.0, 3.0, 0, True],
        ["a", 4.0, 8.0, 0, False],          # nested in a span of its name
        ["b", 5.0, 6.0, 2, True],
        ["relations.relation_search", 20.0, 30.0, -1, True],
        ["series.mul", 21.0, 25.0, 4, True],
        ["linalg.nullspace", 25.0, 28.0, 4, True],
    ]
    out = tracer.summarize(spans, {"series.mul.max_bits": 7})
    assert out["a.calls"] == 2
    assert out["a.total_s"] == 10.0
    assert out["a.self_s"] == (10.0 - 2.0 - 4.0) + (4.0 - 1.0)
    assert out["library_s"] == 20.0
    assert out["relations.search.stack_s"] == 10.0 - 3.0
    assert out["relations.search.strata"] == 1
    assert out["series.mul.max_bits"] == 7


def test_coeff_products_match_a_direct_count():
    sys.path.insert(0, run.SRC)
    from mirrormap.series import PowerSeries

    t = tracer.Tracer()
    for la, lb, order in product((1, 3, 6), (1, 4), (5, 8, 20)):
        a = PowerSeries("q", 1, range(1, la + 1), 1 + order)
        b = PowerSeries("q", 0, range(1, lb + 1), order)
        result = a * b
        length = len(a.coeffs) + len(b.coeffs) - 1
        length = min(length, result.order - a.val - b.val)
        want = sum(1 for i in range(len(a.coeffs))
                   for j in range(len(b.coeffs)) if i + j < length)
        before = t.counters["series.mul.coeff_products"]
        t.count_mul((a, b), {}, result)
        assert t.counters["series.mul.coeff_products"] - before == want


def test_search_output_drops_only_seed_and_elapsed():
    req = run.requests("search", 5)[0]
    text = b"mode: p2\nseed: 5\nelapsed_seconds: 2.5\nrelation:\n  seed: 1\n"
    assert run.normalise(req, text) == b"mode: p2\nrelation:\n  seed: 1\n"
    other = run.requests("deep", 5)[0]
    assert run.normalise(other, text) == text


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shallow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()
