"""Closed-loop benchmark of the ``mirrormap`` command line.

One client sends one request at a time; each request is a fresh
``python3`` process running the CLI from this checkout's ``src/``, so
library caches start cold exactly as for a CLI user.  Every request's exit
code and standard output are checked against ``reference.json``.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --report      # every workload, every metric

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of one traced pass (see
``tracer.py``) plus the tracing overhead against the same requests run
untraced.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORK_PARENT = os.path.join(ROOT, ".perfbench_work")

#: Same entry point as the ``mirrormap`` console script.
CLI = ("-c", "import sys; from mirrormap.cli import main; "
             "sys.exit(main(prog_name='mirrormap'))")
SETUP = ("-c", "import mirrormap.cli")
SETUP_STARTS = 11
#: Every run ends well inside the 180 s a run may take, even on a slow host.
DEADLINE_S = 165.0
RECORDS = "{records}"


@dataclass(frozen=True)
class Request:
    key: str      # reference.json entry; never contains the seed
    args: tuple


def _request(*args):
    return Request(" ".join(args), args)


_MIRRORS = tuple(_request("mirror", "--s", s, "--order", "24",
                          "--format", "json") for s in ("3", "4", "5"))

_SHALLOW = (
    _request("verify", "all"),
    _request("verify", "eq9", "--s", "3"),
    _request("verify", "eq9", "--s", "4"),
    _request("verify", "eq16"),
    _request("verify", "eq25"),
    _request("verify", "eq19"),
    _request("verify", "hodge", "--s", "3"),
    _request("verify", "hodge", "--s", "4"),
    _request("verify", "pandharipande"),
    _request("verify", "duality"),
    _request("golden"),
    _request("yukawa"),
    _request("instantons"),
    _request("prepotential"),
    _request("eval-f0", "--t", "-6.283185307179586"),
    *_MIRRORS,
    # z(q) for s = 3, 4, 5 as emitted by the three mirror requests above.
    _request("wronskian", "--input", RECORDS),
)


def requests(workload, seed):
    """The request list of one pass.  ``deep`` and ``shallow`` are fixed
    computations; the seed is the only random input of ``search``."""
    if workload == "deep":
        return [_request("verify", "integrality", "--order", "100")]
    if workload == "shallow":
        return list(_SHALLOW)
    if workload == "search":
        return [Request(key, (*args, "--seed", str(seed))) for key, args in (
            ("search-relation --mode p2", ("search-relation", "--mode", "p2")),
            ("search-relation --mode p1 --weight-bound 12",
             ("search-relation", "--mode", "p1", "--weight-bound", "12")))]
    raise ValueError(f"unknown workload {workload!r}")


def normalise(request, stdout):
    """Drop what legitimately varies between runs: the wall-clock
    ``elapsed_seconds`` and the ``seed`` echoed by search-relation."""
    if request.args[0] != "search-relation":
        return stdout
    return b"".join(line for line in stdout.splitlines(keepends=True)
                    if not line.startswith((b"elapsed_seconds: ", b"seed: ")))


def digest(request, stdout):
    return hashlib.sha256(normalise(request, stdout)).hexdigest()


@dataclass
class Outcome:
    request: Request
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int | None     # None: killed at the deadline
    stdout: bytes
    summary: dict | None      # traced requests only


class Runner:
    """Runs requests as child processes inside one scratch directory."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def spawn(self, argv, stdout_path):
        """Run ``argv`` to completion; returns (wall, rusage, exit code or
        None when killed at the deadline).  os.wait4 gives this child's own
        CPU time and peak RSS."""
        killed = threading.Event()
        with open(stdout_path, "wb") as out:
            timeout = self.deadline - time.monotonic()
            if timeout <= 0:
                return 0.0, None, None
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                    env=self.env, cwd=ROOT)

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage, None if killed.is_set() else proc.returncode

    def setup_s(self):
        """Median start-up time of an interpreter importing mirrormap.cli;
        the first start only warms the file cache and is not counted."""
        times = []
        path = os.path.join(self.work, "setup.out")
        for _ in range(SETUP_STARTS + 1):
            wall, _, code = self.spawn((sys.executable, *SETUP), path)
            if code != 0:
                raise RuntimeError("cannot import mirrormap.cli from src/")
            times.append(wall)
        return statistics.median(times[1:])

    def backend(self):
        path = os.path.join(self.work, "backend.out")
        self.spawn((sys.executable, "-c", "import mirrormap.series as s; "
                    "print(s.Q.__module__)"), path)
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()

    def run_pass(self, reqs, modes=(False,)):
        """One closed-loop pass over ``reqs``; returns one outcome list per
        entry of ``modes`` (True: traced).  With ``(False, True)`` each
        request runs untraced and then traced, back to back, so the tracing
        overhead is measured under the same host conditions.  The pass
        stops at the deadline."""
        results = [[] for _ in modes]
        mirror_out = []
        for i, req in enumerate(reqs):
            args = req.args
            if RECORDS in args:
                records = os.path.join(self.work, "records.json")
                with open(records, "wb") as fh:
                    fh.write(b'{"series": [' + b",".join(mirror_out) + b"]}")
                args = tuple(records if a == RECORDS else a for a in args)
            for traced, outcomes in zip(modes, results):
                outcomes.append(self.run_request(i, req, args, traced))
                if outcomes[-1].exit_code is None:
                    return results
            if req in _MIRRORS:
                mirror_out.append(results[0][-1].stdout)
        return results

    def run_request(self, i, req, args, traced):
        out_path = os.path.join(self.work, f"{i}.out")
        summary_path = os.path.join(self.work, f"{i}.trace.json")
        if traced:
            argv = (sys.executable, os.path.join(HERE, "tracer.py"),
                    summary_path, *args)
        else:
            argv = (sys.executable, *CLI, *args)
        wall, usage, code = self.spawn(argv, out_path)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        summary = None
        if traced and code is not None and os.path.exists(summary_path):
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
        return Outcome(
            req, wall, usage.ru_utime + usage.ru_stime if usage else 0.0,
            usage.ru_maxrss / 1024 if usage else 0.0, code, stdout, summary)


def failures(outcomes, reference):
    """Requests whose exit code or normalised stdout differ from the
    reference, or that were killed at the deadline."""
    bad = []
    for o in outcomes:
        want = reference[o.request.key]
        if (o.exit_code != want["exit"]
                or digest(o.request, o.stdout) != want["sha256"]):
            bad.append(o.request.key)
    return bad


def host_probe():
    """A fixed pure-Python loop; its time tracks the host's current speed."""
    start = time.perf_counter()
    x = 0
    for i in range(3_000_000):
        x += i
    return time.perf_counter() - start


def end_to_end(setup_s, passes):
    """Each request's latency and CPU time is first reduced to its median
    over the run's complete passes, so a burst of host noise during one
    request moves the result less.  ``wall_s`` and ``cpu_s`` add those up
    over the request list; ``req_p50_s`` is the median across it."""
    complete = [p for p in passes if len(p) == len(passes[0])]
    walls = [statistics.median(o.wall_s for o in r) for r in zip(*complete)]
    cpus = [statistics.median(o.cpu_s for o in r) for r in zip(*complete)]
    return {
        "setup_s": setup_s,
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "req_p50_s": statistics.median(walls),
        "peak_rss_mb": max(o.rss_mb for p in passes for o in p),
    }


def merge_totals(traced):
    """Sum the per-request span totals of a traced pass (maxima for
    ``*.max_bits``)."""
    totals = {}
    for o in traced:
        for key, value in ((o.summary or {}).get("totals") or {}).items():
            if key.endswith(".max_bits"):
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    return totals


def per_layer(setup_s, traced, untraced):
    """Per-layer metrics of one traced pass, from the requests' summaries."""
    totals = merge_totals(traced)
    t = lambda key: totals.get(key, 0)
    data_calls = t("mirror.mirror_data.calls")
    null_calls = t("linalg.nullspace.calls")
    metrics = {name: t(name) for name, _, _ in spec.PER_LAYER}
    metrics.update({
        "mirror.cache_hit_ratio": (
            1 - t("mirror.mirror_pipeline.calls") / data_calls
            if data_calls else 0.0),
        "linalg.nullspace.useful_ratio": (
            t("linalg.nullspace.useful") / null_calls if null_calls else 0.0),
        "cli.self_s": sum(o.wall_s for o in traced) - t("library_s")
                      - setup_s * len(traced),
        "cli.output_bytes": sum(len(o.stdout) for o in traced),
        "trace.overhead_s": (sum(o.wall_s for o in traced)
                             - sum(o.wall_s for o in untraced)),
    })
    return metrics


def run_workload(workload, seed, seconds, trace, reference):
    """Run one benchmark run; returns (result dict, diagnostic lines)."""
    started = time.monotonic()
    os.makedirs(WORK_PARENT, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_PARENT)
    try:
        runner = Runner(work, started + DEADLINE_S)
        probe_before = host_probe()
        setup_s = runner.setup_s()
        backend = runner.backend()
        reqs = requests(workload, seed)
        if trace:
            passes = runner.run_pass(reqs, (False, True))
        else:
            passes = []
            t0 = time.perf_counter()
            while True:
                passes.append(runner.run_pass(reqs)[0])
                if len(passes[-1]) < len(reqs):
                    break
                elapsed = time.perf_counter() - t0
                # Start another pass only if it should end inside the window.
                if elapsed * (len(passes) + 1) / len(passes) > seconds:
                    break
        probe_after = host_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for p in passes for o in p]
    bad = failures(outcomes, reference)
    attempted = len(reqs) * len(passes)
    failed = len(bad) + attempted - len(outcomes)
    units = {name: unit for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER}
    lines = [
        f"env backend={backend} python={sys.version.split()[0]} "
        f"nproc={os.cpu_count()}",
        f"host_probe_s before={probe_before:.4f} after={probe_after:.4f}",
        f"workload={workload} seed={seed} trace={trace} passes={len(passes)} "
        f"requests={len(outcomes)}",
    ]
    lines += [f"failed: {key}" for key in bad]
    name, unit, _ = spec.FAIL_RATIO
    lines.append(f"{name} {failed / attempted:.4f} {unit} "
                 f"({failed}/{attempted})")
    if trace:
        values = per_layer(setup_s, passes[1], passes[0])
        spans = sum((o.summary or {}).get("spans", 0) for o in passes[1])
        lines.append(f"spans recorded: {spans}")
    else:
        values = end_to_end(setup_s, passes) if outcomes else {}
        lines.append(f"req_p50_s over {len(reqs)} requests x "
                     f"{len(passes)} passes")
    lines += [f"{k} {v:.6g} {units[k]}" if isinstance(v, float)
              else f"{k} {v} {units[k]}" for k, v in values.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    return result, lines


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def write_reference():
    """Record the digests from the current tree (seed 0)."""
    ref = {}
    os.makedirs(WORK_PARENT, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_PARENT)
    try:
        runner = Runner(work, time.monotonic() + 3600)
        for workload, _ in spec.WORKLOADS:
            for o in runner.run_pass(requests(workload, 0))[0]:
                ref[o.request.key] = {"exit": o.exit_code,
                                      "sha256": digest(o.request, o.stdout)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report(seconds, reference):
    """Every workload, untraced and traced, printed as one table; then
    BENCHMARK.json is rewritten from spec.py."""
    for workload, why in spec.WORKLOADS:
        print(f"== {workload}: {why}")
        for trace in (0, 1):
            _, lines = run_workload(workload, 0, seconds, trace, reference)
            for line in lines:
                print("  " + line)
    spec.write_benchmark_json(os.path.join(ROOT, "BENCHMARK.json"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mirrormap", "cli.py")):
        parser.exit(2, f"error: no mirrormap sources under {SRC}\n")
    if args.write_reference:
        write_reference()
        return
    reference = load_reference()
    if args.report:
        report(args.seconds, reference)
        return
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 args.trace, reference)
    for line in lines:
        print("# " + line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
