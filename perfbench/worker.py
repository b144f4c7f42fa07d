"""Run one benchmark job in a fresh interpreter and print its result as JSON.

Usage: python3 perfbench/worker.py '<job as JSON>'

A fresh process per job starts with pathlab's memo caches empty, as a fresh
``pathlab`` command does.  The job is timed from outside the library call
and scaled to reference speed (see calibration.py); checks on query results
run off the clock.  ``instrument`` is ``"trace"``
(wrapper counts and self times, see tracer.py) or ``"profile"`` (cProfile
call counts) for the traced run, and absent otherwise.  pathlab functions are
looked up on their modules at call time, so that the wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import calibration  # noqa: E402

# pathlab and its modules, bound by set_up() so that their import is timed
pathlab = adr = bridge = cli = cutting = paths = schedule = verify = None

FIRST_BATCH = 1000  # query inputs generated during set-up
BATCH_S = 0.25  # wall time of a batch of queries scaled by the same samples


# ------------------------------------------------------------------ inputs


def random_path(rng: random.Random, n: int):
    """A standard square path: random step word ending east, random labels
    increasing up each column, a random subset of its contractible valleys
    decorated (at most n - 1)."""
    norths = set(rng.sample(range(2 * n - 1), n))
    steps = "".join("N" if i in norths else "E" for i in range(2 * n - 1)) + "E"
    letters = list(range(1, n + 1))
    rng.shuffle(letters)
    labels, at = [], 0
    for column in steps.split("E"):
        labels.extend(sorted(letters[at : at + len(column)]))
        at += len(column)
    bare = paths.validate(steps, labels)
    valleys = sorted(paths.contractible_valleys(bare))
    decorated = [v for v in valleys if rng.random() < 0.5][: n - 1]
    return paths.validate(steps, labels, decorated)


def random_word(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def query_inputs(kind: str, seed: int, low: int, high: int):
    """Endless stream of distinct query objects, fixed by the seed; their
    size n cycles through low..high, so every run has the same mix of sizes."""
    rng = random.Random(f"{kind}-{seed}")
    make = random_path if kind == "path" else random_word
    seen = set()  # hashes, not objects, so memory barely grows with the run
    for i in itertools.count():
        obj = make(rng, low + i % (high - low + 1))
        if hash(obj) not in seen:
            seen.add(hash(obj))
            yield obj


# ----------------------------------------------------------------- queries


def path_query(path):
    """What ``pathlab inspect`` and ``pathlab cycle`` compute for a path."""
    sdw = schedule.diagonal_word(path)
    cycle = cutting.cutting_cycle(path)
    return {
        "area": paths.area(path),
        "dinv": paths.dinv(path),
        "shift": paths.shift(path),
        "valleys": paths.contractible_valleys(path),
        "attack_pairs": paths.attack_pairs(path),
        "sdw": sdw,
        "schedule": schedule.schedule_numbers(sdw),
        "cycle": cycle,
        "member_dinv": [paths.dinv(q) for q in cycle.members],
    }


def word_query(values):
    """What ``decorate``, ``sched``, ``build`` and ``cycle`` compute for a
    permutation, for both decorating algorithms."""
    out = []
    for word in (adr.dyck_decorate(values), adr.parity_decorate(values)):
        witness = adr.is_adr(word)
        runs = schedule.decreasing_runs(word)
        scheds = [
            schedule.schedule_numbers(schedule.ShiftedDiagonalWord(word, s))
            for s in range(len(runs))
        ]
        s0 = min(witness.valid_shifts)
        path = bridge.path_from_sdw(word, s0)
        out.append(
            {
                "word": word,
                "valid_shifts": witness.valid_shifts,
                "runs": runs,
                "revmaj": schedule.revmaj(word),
                "schedules": scheds,
                "shift": s0,
                "path": path,
                "ladder": cutting.ordered_cycle(path),
            }
        )
    return out


def check_path_query(path, result) -> bool:
    sdw = result["sdw"]
    return (
        result["area"] == schedule.revmaj(sdw.word)
        and result["schedule"] == schedule.schedule_numbers_cyclic(sdw)
        and len(result["member_dinv"]) == len(result["cycle"].members)
    )


def check_word_query(values, result) -> bool:
    dyck, parity = result
    if 0 not in dyck["valid_shifts"]:
        return False
    if not parity["valid_shifts"] or parity["word"].undecorated_count() % 2 == 0:
        return False
    for entry in result:
        word, s0 = entry["word"], entry["shift"]
        if tuple(entry["word"].values) != tuple(values):
            return False
        if schedule.diagonal_word(entry["path"]) != schedule.ShiftedDiagonalWord(word, s0):
            return False
        if len(entry["ladder"]) != word.n - len(word.decorated):
            return False
        for s, sched in enumerate(entry["schedules"]):
            if sched != schedule.schedule_numbers_cyclic(schedule.ShiftedDiagonalWord(word, s)):
                return False
    return True


QUERIES = {
    "path": (path_query, check_path_query),
    "word": (word_query, check_word_query),
}


# -------------------------------------------------------------------- jobs


def run_table(job) -> dict:
    argvs = [
        ["table", "--n", str(job["n"]), "--stat", stat, "--method", job["method"],
         "--format", "json"]
        for stat in job["stats"]
    ]
    buffers = [io.StringIO() for _ in argvs]
    codes, wall, scaled = [], 0.0, 0.0
    for argv, buf in zip(argvs, buffers):
        with calibration.Sampler() as sampler, contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            codes.append(cli.main(argv))
            elapsed = time.perf_counter() - start
        wall += elapsed
        scaled += (elapsed - sampler.busy_s) * sampler.factor()
    outputs = []
    for buf in buffers:
        try:
            outputs.append(json.loads(buf.getvalue()))
        except ValueError:
            outputs.append(None)
    return {"wall_s": wall, "scaled_s": scaled, "codes": codes, "outputs": outputs}


def run_suite(job) -> dict:
    """One suite.  The calibration samples run in this process, which mostly
    waits on the pool, so they are not taken off the wall time."""
    with calibration.Sampler() as sampler:
        start = time.perf_counter()
        reports = list(verify.run_suite(job["check"], job["max_n"], job["jobs"]))
        wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "scaled_s": wall * sampler.factor(),
        "reports": [
            {"line": r.line(), "ok": r.ok, "n": r.params.get("n"), "elapsed": r.elapsed}
            for r in reports
        ],
    }


def run_queries(job, inputs) -> dict:
    """Queries until the deadline or the limit.  Calibration samples that
    land inside a query are taken off its time, and each batch of queries
    (BATCH_S of wall time) is scaled by the samples taken during it.
    Instrumented runs skip the checks, so that their counts cover the queries
    alone."""
    query, check = QUERIES[job["query"]]
    if job.get("instrument"):
        check = None
    limit, seconds = job.get("limit"), job.get("seconds")
    times, scaled, batch, failed, attempted = [], [], [], 0, 0
    deadline = time.perf_counter() + seconds if seconds is not None else None

    def close_batch():
        factor = sampler.factor(first_sample)
        scaled.extend(t * factor for t in batch)
        times.extend(batch)
        batch.clear()

    with calibration.Sampler() as sampler:
        first_sample, batch_end = 0, time.perf_counter() + BATCH_S
        for obj in inputs:
            if limit is not None and attempted >= limit:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            attempted += 1
            busy = sampler.busy_s
            start = time.perf_counter()
            try:
                result = query(obj)
            except Exception as exc:  # a raising query is a failed operation
                print(f"query failed on {obj}: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            batch.append(time.perf_counter() - start - (sampler.busy_s - busy))
            if check is not None and not check(obj, result):
                print(f"query check failed on {obj}", file=sys.stderr)
                failed += 1
            if time.perf_counter() >= batch_end:
                close_batch()
                first_sample, batch_end = len(sampler.times), time.perf_counter() + BATCH_S
        close_batch()
    return {"times_s": times, "scaled_s": scaled, "attempted": attempted, "failed": failed}


def peak_rss_kb() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def profile_counts(profiler) -> dict[str, int]:
    import pstats

    counts = {}
    for (filename, line, name), entry in pstats.Stats(profiler).stats.items():
        path = Path(filename)
        if path.is_absolute() and path.resolve().is_relative_to(SRC):
            counts[f"{path.resolve().relative_to(SRC)}:{line}:{name}"] = entry[1]
    return counts


def set_up(job):
    """Import pathlab and generate the first query inputs: the work that
    setup_s times after interpreter start.  Returns the query inputs."""
    global pathlab, adr, bridge, cli, cutting, paths, schedule, verify
    import pathlab
    from pathlab import adr, bridge, cli, cutting, paths, schedule, verify

    if "query" not in job:
        return None
    stream = query_inputs(job["query"], job["seed"], *job["n_range"])
    return itertools.chain(list(itertools.islice(stream, FIRST_BATCH)), stream)


def main() -> int:
    job = json.loads(sys.argv[1])
    kind = job["kind"]
    with calibration.Sampler() as sampler:
        inputs = set_up(job)
    if not Path(pathlab.__file__).resolve().is_relative_to(SRC):
        print(f"imported pathlab from {pathlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if kind == "setup":
        # run.py times the whole process and scales it by this speed
        print(json.dumps({"busy_s": sampler.busy_s, "factor": sampler.factor()}))
        return 0

    def run() -> dict:
        if kind == "table":
            return run_table(job)
        if kind == "suite":
            return run_suite(job)
        return run_queries(job, inputs)

    # the instruments are imported here so that setup_s counts pathlab alone
    instrument = job.get("instrument")
    if instrument == "trace":
        import tempfile

        from tracer import Tracer, merge

        tracer = Tracer(SRC)
        tracer.install()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as dump_dir:
            tracer.follow_forks(Path(dump_dir))
            result = run()
            children = [json.loads(p.read_text()) for p in sorted(Path(dump_dir).iterdir())]
        result["trace"] = merge([tracer.snapshot()] + children)
    elif instrument == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        result = run()
        profiler.disable()
        result["profile"] = profile_counts(profiler)
    else:
        result = run()
    result["rss_kb"] = peak_rss_kb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
