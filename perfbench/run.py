"""pathlab benchmark: runs workloads and prints their metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Every workload is a closed loop: one operation at a time, each table or
suite operation in a fresh worker process (so pathlab's memo caches start
empty), timed inside the worker around the library call.  Outputs are checked
against reference tables recorded at the commit that added the benchmark
(tables), against the suites' own PASS verdicts (battery), and against the
paper's identities (queries).  With ``--trace 0`` the last line of standard
output is a JSON object carrying the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of one traced operation, whose call counts are
checked against cProfile on the same input.  See METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from tracer import merge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
REFERENCE = BENCH / "reference.json"

# suite -> max n, pinned to the suites' defaults when the benchmark was added
SUITES = {
    "schedule-formula": 5,
    "interval": 7,
    "cancellation-path": 5,
    "dinv-ladder": 6,
    "shape": 6,
    "partition": 5,
    "decorate-unique": 6,
    "phi-bijection": 7,
    "delta-bijection": 7,
    "sdw-area": 5,
}
BATTERY_JOBS = 2
SETUP_RUNS = 9  # fresh interpreters per run; setup_s is their median
QUERY_N = (10, 20)  # query object sizes, cycled through this closed range
TRACE_QUERIES = {"path": 300, "word": 100}  # queries in the traced operation
WORKER_TIMEOUT_S = 170

WORKLOADS = {
    "table-brute": {"kind": "table", "n": 6, "method": "brute", "stats": ["S", "D"]},
    "table-fast": {"kind": "table", "n": 8, "method": "fast", "stats": ["S", "D"]},
    "verify-battery": {"kind": "battery"},
    "path-queries": {"kind": "queries", "query": "path"},
    "word-queries": {"kind": "queries", "query": "word"},
}

MODULES = ("poly", "paths", "schedule", "enumeration", "cutting", "adr", "bridge", "verify", "cli")
TIMED_FUNCTIONS = (
    "schedule.is_cyclic_run",
    "paths.attack_pairs",
    "paths.area_word",
    "paths.contractible_valleys",
    "paths.validate",
    "schedule.schedule_numbers",
    "schedule.diagonal_word",
    "schedule.decreasing_runs",
    "bridge.path_from_sdw",
)
COUNTED_FUNCTIONS = (
    "schedule.lmcr_start",
    "adr.dyck_decorate",
    "adr.parity_decorate",
    "adr.is_adr",
    "cutting.psi",
    "cutting.cutting_cycle",
)
YIELDING_FUNCTIONS = (
    "enumeration.standard_labelings",
    "enumeration.generate",
    "enumeration.schedule_one_paths",
)


class WorkerError(RuntimeError):
    pass


def call_worker(job: dict) -> dict:
    """Run one job in a fresh interpreter; its process group is killed if it
    outlives the timeout, so no pool process survives it."""
    # bytecode is cached, as for an installed package, and hashing is fixed
    drop = ("PATHLAB_JOBS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(job)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"job {job} timed out")
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"job {job} exited with {proc.returncode}")
    return json.loads(lines[-1])


# ------------------------------------------------------------- operations


def table_op(spec: dict, instrument: str | None = None) -> dict:
    result = call_worker({"kind": "table", "n": spec["n"], "method": spec["method"],
                          "stats": spec["stats"], "instrument": instrument})
    reference = json.loads(REFERENCE.read_text())
    ok = result["codes"] == [0] * len(spec["stats"]) and all(
        output == reference[f"{stat}-{spec['method']}-{spec['n']}"]
        for stat, output in zip(spec["stats"], result["outputs"])
    )
    return {"wall_s": result["wall_s"], "scaled_s": result["scaled_s"], "ok": ok,
            "rss_kb": result["rss_kb"], "trace": result.get("trace"),
            "profile": result.get("profile")}


def battery_op(spec: dict, instrument: str | None = None) -> dict:
    """The ten suites, each in a fresh worker.  cProfile sees one process
    only, so the profiled operation runs the cells in-process (jobs=1), two
    suites at a time to use both CPUs; the cells and their counts are the
    same at any job count."""
    profiling = instrument == "profile"
    jobs = [
        {"kind": "suite", "check": check, "max_n": max_n,
         "jobs": 1 if profiling else BATTERY_JOBS, "instrument": instrument}
        for check, max_n in SUITES.items()
    ]
    if profiling:
        with ThreadPoolExecutor(max_workers=BATTERY_JOBS) as pool:
            results = list(pool.map(call_worker, jobs))
    else:
        results = [call_worker(job) for job in jobs]
    wall, scaled, ok, rss, suites = 0.0, 0.0, True, 0, []
    traces, profiles = [], []
    for (check, max_n), result in zip(SUITES.items(), results):
        reports = result["reports"]
        if [r["n"] for r in reports] != list(range(1, max_n + 1)) or not all(
            r["ok"] for r in reports
        ):
            print(f"suite {check} failed: {[r['line'] for r in reports]}", file=sys.stderr)
            ok = False
        wall += result["wall_s"]
        scaled += result["scaled_s"]
        rss = max(rss, result["rss_kb"])
        suites.append([r["elapsed"] for r in reports])
        traces.append(result.get("trace"))
        profiles.append(result.get("profile"))
    return {"wall_s": wall, "scaled_s": scaled, "ok": ok, "rss_kb": rss, "cells": suites,
            "traces": traces, "profiles": profiles}


def query_run(spec: dict, seed: int, seconds: float | None, limit: int | None = None,
              instrument: str | None = None) -> dict:
    return call_worker({"kind": "queries", "query": spec["query"], "n_range": QUERY_N,
                        "seed": seed, "seconds": seconds, "limit": limit,
                        "instrument": instrument})


def measure_setup(spec: dict, seed: int) -> float:
    job = {"kind": "setup", "seed": seed}
    if spec["kind"] == "queries":
        job.update(query=spec["query"], n_range=QUERY_N)
    scaled = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        speed = call_worker(job)  # sampled in the child, during its set-up
        wall = time.perf_counter() - start
        scaled.append((wall - speed["busy_s"]) * speed["factor"])
    return statistics.median(scaled)


def measure(spec: dict, seed: int, seconds: float) -> dict:
    """The untraced closed loop: op times (wall and at reference speed),
    failures, peak RSS."""
    if spec["kind"] == "queries":
        result = query_run(spec, seed, seconds)
        return {"times_s": result["times_s"], "scaled_s": result["scaled_s"],
                "attempted": result["attempted"], "failed": result["failed"],
                "rss_kb": result["rss_kb"], "ops": []}
    op = table_op if spec["kind"] == "table" else battery_op
    ops, failed = [], 0
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        try:
            result = op(spec)
        except WorkerError as exc:
            print(exc, file=sys.stderr)
            result = {"ok": False, "wall_s": None, "rss_kb": 0}
        ops.append(result)
        failed += not result["ok"]
    done = [r for r in ops if r["wall_s"] is not None]
    return {
        "times_s": [r["wall_s"] for r in done],
        "scaled_s": [r["scaled_s"] for r in done],
        "attempted": len(ops),
        "failed": failed,
        "rss_kb": max(r["rss_kb"] for r in ops),
        "ops": ops,
    }


def end_to_end(run: dict, setup_s: float) -> dict:
    """The gated metrics; times at reference speed (see calibration.py)."""
    ms = [t * 1000.0 for t in run["scaled_s"]]
    return {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "ops_per_s": (len(ms) / math.fsum(run["scaled_s"]), "1/s"),
        "peak_rss_mb": (run["rss_kb"] / 1024.0, "MB"),
    }


def ungated(run: dict) -> dict:
    """The median wall time as measured, and the p99 where at least ten ops
    lie beyond it (table and battery runs have too few ops for one)."""
    out = {"op_ms.p50.wall": (1000.0 * statistics.median(run["times_s"]), "ms")}
    if len(run["scaled_s"]) >= 1000:
        ms = [t * 1000.0 for t in run["scaled_s"]]
        out["op_ms.p99"] = (statistics.quantiles(ms, n=100, method="inclusive")[98], "ms")
    return out


# ----------------------------------------------------------------- tracing


def traced_op(spec: dict, seed: int, instrument: str) -> tuple[dict, float, int, bool]:
    """One instrumented operation: (merged trace or profile counts, its time
    at reference speed, the number of ops it stands for, outputs correct).
    For queries the operation is the first TRACE_QUERIES inputs and its time
    is their median."""
    if spec["kind"] == "table":
        result = table_op(spec, instrument)
        return result[instrument], result["scaled_s"], 1, result["ok"]
    if spec["kind"] == "battery":
        result = battery_op(spec, instrument)
        parts = result[instrument + "s"]
        if instrument == "trace":
            combined = merge(parts)
        else:
            combined = {}
            for part in parts:
                for key, calls in part.items():
                    combined[key] = combined.get(key, 0) + calls
        return combined, result["scaled_s"], 1, result["ok"]
    limit = TRACE_QUERIES[spec["query"]]
    result = query_run(spec, seed, None, limit, instrument)
    return result[instrument], statistics.median(result["scaled_s"]), limit, result["failed"] == 0


def compare_counts(trace: dict, profile: dict) -> list[str]:
    """Functions whose wrapper count differs from cProfile's."""
    return [
        f"{key}: wrapper {entry['calls']} cProfile {profile.get(entry['code'], 0)}"
        for key, entry in sorted(trace["functions"].items())
        if entry["calls"] != profile.get(entry["code"], 0)
    ]


def per_layer(trace: dict, ops: int, overhead: float, untraced: dict) -> dict:
    functions, edges = trace["functions"], trace["edges"]
    out = {}
    for module in MODULES:
        members = [e for k, e in functions.items() if k.split(".", 1)[0] == module]
        out[f"{module}.calls"] = (sum(e["calls"] for e in members) / ops, "count")
        out[f"{module}.self_s"] = (math.fsum(e["self_s"] for e in members) / ops, "s")

    def entry(key):
        return functions.get(key, {"calls": 0, "yields": 0, "hits": 0, "self_s": 0.0})

    for key in TIMED_FUNCTIONS:
        out[f"{key}.calls"] = (entry(key)["calls"] / ops, "count")
        out[f"{key}.self_s"] = (entry(key)["self_s"] / ops, "s")
    for key in COUNTED_FUNCTIONS:
        out[f"{key}.calls"] = (entry(key)["calls"] / ops, "count")
    for key in YIELDING_FUNCTIONS:
        out[f"{key}.yields"] = (entry(key)["yields"] / ops, "count")

    def ratio(hits, attempts):
        return hits / attempts if attempts else 0.0

    candidates = edges.get("enumeration.schedule_one_paths>schedule.diagonal_word", 0)
    out["enumeration.schedule_one_paths.yield_ratio"] = (
        ratio(entry("enumeration.schedule_one_paths")["yields"], candidates), "ratio")
    out["adr.is_adr.hit_ratio"] = (
        ratio(entry("adr.is_adr")["hits"], entry("adr.is_adr")["calls"]), "ratio")
    out["cutting.psi.admitted_ratio"] = (
        ratio(entry("cutting.psi")["hits"], entry("cutting.psi")["calls"]), "ratio")
    out.update(battery_balance(untraced))
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def battery_balance(untraced: dict) -> dict:
    """Cell balance of the untraced battery ops, from Report.elapsed; zero on
    workloads that run no suite."""
    cells, cell_s, share, efficiency = [], [], [], []
    for op in untraced["ops"]:
        if "cells" not in op or op["wall_s"] is None:
            continue
        total = math.fsum(e for suite in op["cells"] for e in suite)
        cells.append(sum(len(suite) for suite in op["cells"]))
        cell_s.append(total)
        share.append(math.fsum(max(suite) for suite in op["cells"] if suite) / total)
        efficiency.append(total / (BATTERY_JOBS * op["wall_s"]))

    def median(values):
        return statistics.median(values) if values else 0.0

    return {
        "verify.cells": (median(cells), "count"),
        "verify.cell_s.sum": (median(cell_s), "s"),
        "verify.max_cell_share": (median(share), "ratio"),
        "verify.parallel_efficiency": (median(efficiency), "ratio"),
    }


# -------------------------------------------------------------------- main


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def sizes(name: str, spec: dict) -> dict:
    if spec["kind"] == "table":
        n = spec["n"]
        units = (
            {"pairs": n**n + (n + 1) ** (n - 1)}
            if spec["method"] == "brute"
            else {"words": len(spec["stats"]) * math.factorial(n)}
        )
        return {"n": n, "method": spec["method"], "stats": spec["stats"], **units}
    if spec["kind"] == "battery":
        return {"suites": SUITES, "jobs": BATTERY_JOBS}
    return {"n_range": QUERY_N, "traced_queries": TRACE_QUERIES[spec["query"]]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    setup_s = None if trace else measure_setup(spec, seed)
    run = measure(spec, seed, seconds)
    if not run["times_s"]:
        raise WorkerError("no operation completed")
    if not trace:
        metrics = end_to_end(run, setup_s)
        attempted, failed, correct = run["attempted"], run["failed"], run["failed"] == 0
    else:
        traced, traced_time, ops, traced_ok = traced_op(spec, seed, "trace")
        profile, _, _, profiled_ok = traced_op(spec, seed, "profile")
        mismatches = compare_counts(traced, profile)
        for line in mismatches:
            print(f"count mismatch {line}", file=sys.stderr)
        if spec["kind"] == "queries":  # median query time over the same inputs
            untraced_time = statistics.median(run["scaled_s"][:ops])
        else:
            untraced_time = statistics.median(run["scaled_s"])
        metrics = per_layer(traced, ops, traced_time / untraced_time, run)
        attempted = run["attempted"] + 2
        failed = run["failed"] + (not traced_ok) + (not profiled_ok)
        correct = failed == 0 and not mismatches
        print(f"call counts checked against cProfile: {len(traced['functions'])} "
              f"functions, {len(mismatches)} mismatches")
    meta = {
        "workload": name,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": sizes(name, spec),
    }
    print(f"meta {json.dumps(meta)}")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    if not trace:
        for key, (value, unit) in ungated(run).items():
            print(f"{name} {key} = {value:.6g} {unit} (not gated)")
    print(f"{name} fail_rate = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pathlab" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"no pathlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except WorkerError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
