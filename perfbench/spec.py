"""What the benchmark measures: workloads and metrics, with their units.

``BENCHMARK.json`` at the repository root is written from this module
(``python3 perfbench/run.py --report``), so the two cannot drift apart.
"""

from __future__ import annotations

import json

WORKLOADS = (
    ("deep", "verify integrality --order 100: ~1000-bit coefficient "
             "products, series reversion and composition at high order"),
    ("shallow", "19 default-order CLI requests (verify suites, golden, "
                "mirror -> wronskian): import, per-call overhead and "
                "mirror_data cache reuse"),
    ("search", "search-relation p2 then p1 to weight 12 with the run's "
               "seed: monomial products and exact nullspaces"),
)

#: (name, unit, better, bound, meaning).  Bounds are shares of the parent's
#: median.  The timing bounds are the largest allowed: on a shared 2-vCPU
#: guest, ten runs of unchanged code spread by 14-17 % between quartiles.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "start a fresh interpreter and import mirrormap.cli (median of "
     "several starts)"),
    ("wall_s", "s", "lower", 0.25,
     "wall time of the workload's request list: each request's median "
     "latency over the run's passes, summed"),
    ("cpu_s", "s", "lower", 0.25,
     "user+sys CPU of the request processes, summed the same way"),
    ("req_p50_s", "s", "lower", 0.25,
     "median over the request list of each request's median latency"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "largest peak RSS of any request process"),
)

#: Printed next to the end-to-end metrics but not part of BENCHMARK.json:
#: it is 0 on a correct build, and the driver's result line already
#: carries ``attempted`` and ``failed``.
FAIL_RATIO = ("fail_ratio", "1",
              "failed requests / attempted (wrong bytes, unexpected exit "
              "code or timeout)")

#: (name, unit, better).  Times come from the traced run and include its
#: overhead; counts repeat exactly for a fixed seed.
PER_LAYER = (
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.mul.coeff_products", "count", "lower"),
    ("series.mul.max_bits", "bit", "lower"),
    ("series.add.self_s", "s", "lower"),
    ("series.inverse.self_s", "s", "lower"),
    ("series.exp.self_s", "s", "lower"),
    ("series.compose.calls", "count", "lower"),
    ("series.compose.total_s", "s", "lower"),
    ("series.revert.total_s", "s", "lower"),
    ("operators.frobenius_basis.calls", "count", "lower"),
    ("operators.frobenius_basis.self_s", "s", "lower"),
    ("operators.normal_form.self_s", "s", "lower"),
    ("mirror.mirror_data.calls", "count", "lower"),
    ("mirror.mirror_pipeline.calls", "count", "lower"),
    ("mirror.cache_hit_ratio", "1", "higher"),
    ("mirror.mirror_pipeline.total_s", "s", "lower"),
    ("yukawa.yukawa_coupling.calls", "count", "lower"),
    ("yukawa.yukawa_from_definition.calls", "count", "lower"),
    ("yukawa.yukawa_from_definition.self_s", "s", "lower"),
    ("yukawa.instanton_numbers.self_s", "s", "lower"),
    ("wronskian.schwarzian.total_s", "s", "lower"),
    ("wronskian.wronskian.total_s", "s", "lower"),
    ("wronskian.DiffPolynomial.evaluate.total_s", "s", "lower"),
    ("relations.relation_search.total_s", "s", "lower"),
    ("relations.search.stack_s", "s", "lower"),
    ("relations.search.strata", "count", "lower"),
    ("relations.verify.total_s", "s", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.nullspace.self_s", "s", "lower"),
    ("linalg.nullspace.cells", "count", "lower"),
    ("linalg.nullspace.useful_ratio", "1", "higher"),
    ("golden.golden_report.total_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: Span names that must record at least one call on each workload; a stale
#: binding in the tracer would otherwise read as zero.
EXPECTED_SPANS = {
    "deep": ("series.mul", "series.add", "series.inverse", "series.exp",
             "series.compose", "series.revert", "mirror.mirror_data",
             "mirror.mirror_pipeline", "yukawa.yukawa_coupling",
             "yukawa.yukawa_from_definition"),
    "shallow": ("series.mul", "series.add", "series.inverse", "series.exp",
                "operators.frobenius_basis", "operators.normal_form",
                "mirror.mirror_data", "mirror.mirror_pipeline",
                "yukawa.yukawa_coupling", "yukawa.yukawa_from_definition",
                "yukawa.instanton_numbers", "wronskian.schwarzian",
                "wronskian.wronskian", "relations.verify",
                "golden.golden_report"),
    "search": ("series.mul", "wronskian.DiffPolynomial.evaluate",
               "relations.relation_search", "linalg.nullspace"),
}

RUN_SECONDS = 40


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def write_benchmark_json(path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
