"""Command-line interface.

Subcommands: table, verify, inspect, cycle, build, decorate, sched, enumerate,
each an entry of :data:`COMMANDS`.  A command parses its arguments with its
own parser (:func:`build_parser` of its name), which builds no other
command's subparser and is built once per process; the full parser handles
``--help``, ``--version`` and anything that names no command.
Exit codes: 0 success, 1 a verification failed or a library guarantee broke
(a :class:`~pathlab.cutting.CycleError`), 2 usage error (argparse's own
convention for bad arguments is also 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Callable, Iterable

from . import __version__
from .adr import dyck_decorate, fast_sums, is_adr, parity_decorate, recursive_sums
from .bridge import path_from_sdw
from .cutting import (
    CycleError,
    canonical_rep,
    cutting_cycle,
    cycle_dinvs,
    sched_one_members,
)
from .enumeration import (
    PathFamily,
    bare_path_count,
    check_sum_size,
    generate,
    read_pair_count,
    signed_sums,
)
from .paths import (
    area,
    area_word,
    attack_pairs,
    contractible_valleys,
    dinv,
    format_path,
    is_dyck,
    parse_path,
    shift,
)
from .schedule import (
    ShiftedDiagonalWord,
    decreasing_runs,
    diagonal_word,
    format_perm,
    parse_perm,
    revmaj,
    schedule_numbers,
    u_statistic,
)
from .verify import CHECKS, run_suite

USAGE_ERROR = 2
CHECK_FAILED = 1
# enumerate prints every path of the family: at k = 0, 8^8 = 1.7*10^7 square
# paths at n = 8 (570 MB of text, about 3 min on a 2-core host), and
# 9^9 = 3.9*10^8 at n = 9, 23 times as many (about 15 GB); its memory stays
# small (23 MiB peak RSS at n = 8, k = 7)
ENUMERATE_MAX_N = 8


class CliError(Exception):
    """Bad input that the library itself accepts; exits with USAGE_ERROR."""


def _emit(fmt: str, payload, lines: Iterable[str]) -> None:
    """Print the payload as indented JSON, or else the text lines, of which
    there is at least one."""
    print(json.dumps(payload, indent=2) if fmt == "json" else "\n".join(lines))


def _state_cost(pairs: int) -> None:
    """Say on stderr, before the work starts, how many (steps, labels)
    pairs the brute-force walk reads.  Callers check n against its bound
    first: past it the count can have more digits than Python turns into
    text."""
    print(f"# brute force visits {pairs} (steps, labels) pairs", file=sys.stderr)


def cmd_table(args) -> int:
    # (stat, method) -> the sums of every k, from fn(n, kind)
    methods = {
        ("S", "brute"): signed_sums,
        ("S", "fast"): fast_sums,
        ("S", "recursive"): lambda n, _: recursive_sums(n),
        ("D", "brute"): signed_sums,
        ("D", "fast"): fast_sums,
    }
    fn = methods.get((args.stat, args.method))
    if fn is None:
        raise CliError(f"method {args.method!r} is not available for stat {args.stat!r}")
    if args.n < 1:
        raise CliError(f"--n must be at least 1, got {args.n}")
    kind = "square" if args.stat == "S" else "dyck"
    if args.method == "brute":
        check_sum_size(args.n)
        _state_cost(bare_path_count(args.n, kind))
    rows = list(enumerate(fn(args.n, kind)))
    payload = {
        "stat": args.stat,
        "n": args.n,
        "method": args.method,
        "rows": [{"k": k, "poly": p.to_json()} for k, p in rows],
    }
    _emit(args.format, payload, (f"{k}: {p}" for k, p in rows))
    return 0


def cmd_verify(args) -> int:
    if args.check not in CHECKS:
        raise CliError(f"unknown check {args.check!r}; known: {', '.join(sorted(CHECKS))}")
    if args.max_n is not None and args.max_n < 1:
        raise CliError(f"--max-n must be at least 1, got {args.max_n}")
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    failed = False
    for report in run_suite(args.check, args.max_n, args.jobs):
        print(report.line())
        shards = f"{report.shards} shard" + ("s" if report.shards != 1 else "")
        print(f"# elapsed {report.elapsed:.2f}s in {shards}", file=sys.stderr)
        failed = failed or not report.ok
    return CHECK_FAILED if failed else 0


def cmd_inspect(args) -> int:
    obj = parse_path(args.object) if ":" in args.object else parse_perm(args.object)
    if hasattr(obj, "steps"):
        path = obj
        sdw = diagonal_word(path)
        cycle = cutting_cycle(path)
        info = {
            "kind": "path",
            "text": format_path(path),
            "n": path.n,
            "k": len(path.decorations),
            "dyck": is_dyck(path),
            "area_word": list(area_word(path)),
            "shift": shift(path),
            "area": area(path),
            "dinv": dinv(path),
            "contractible_valleys": sorted(contractible_valleys(path)),
            "attack_pairs": sorted(
                [p.i, p.j, p.kind] for p in attack_pairs(path)
            ),
            "diagonal_word": format_perm(sdw.word),
            "schedule_word": list(schedule_numbers(sdw)),
            "cycle_size": len(cycle.members),
            "cycle_canonical": format_path(canonical_rep(path)),
        }
    else:
        word = obj
        witness = is_adr(word)
        info = {
            "kind": "word",
            "text": format_perm(word),
            "n": word.n,
            "k": len(word.decorated),
            "runs": [list(r) for r in decreasing_runs(word)],
            "revmaj": revmaj(word),
            "is_adr": bool(witness),
            "valid_shifts": sorted(witness.valid_shifts),
            "dyck_decoration": format_perm(dyck_decorate(word.values)),
            "parity_decoration": format_perm(parity_decorate(word.values)),
        }
    _emit(args.format, info, (f"{key}: {value}" for key, value in info.items()))
    return 0


def cmd_cycle(args) -> int:
    path = parse_path(args.path)
    scores = cycle_dinvs(path)
    canonical = canonical_rep(path)
    members = sorted(scores, key=lambda q: (scores[q], format_path(q)))
    marked = sched_one_members(scores)
    entries = [
        {"path": format_path(q), "dinv": scores[q], "area": area(q), "schedule_one": q in marked}
        for q in members
    ]
    lines = []
    for q, e in zip(members, entries):
        flags = ", ".join(["canonical"] * (q == canonical) + ["schedule-one"] * e["schedule_one"])
        suffix = f"  [{flags}]" if flags else ""
        lines.append(f"dinv={e['dinv']} area={e['area']} {e['path']}{suffix}")
    payload = {"size": len(members), "canonical": format_path(canonical), "members": entries}
    _emit(args.format, payload, lines)
    return 0


def cmd_build(args) -> int:
    print(format_path(path_from_sdw(parse_perm(args.word), args.shift)))
    return 0


def cmd_decorate(args) -> int:
    word = parse_perm(args.perm)
    if word.decorated:
        raise CliError("decorate expects an undecorated permutation")
    decorated = (
        dyck_decorate(word.values) if args.mode == "dyck" else parity_decorate(word.values)
    )
    witness = is_adr(decorated)
    print(format_perm(decorated))
    print(f"valid shifts: {sorted(witness.valid_shifts)}")
    print(f"revmaj: {revmaj(decorated)}")
    return 0


def cmd_sched(args) -> int:
    word = parse_perm(args.perm)
    runs = decreasing_runs(word)
    print(f"runs: {' | '.join(' '.join(map(str, r)) for r in runs)}")
    for s in range(len(runs)):
        sdw = ShiftedDiagonalWord(word, s)
        sched = schedule_numbers(sdw)
        print(f"shift {s}: {' '.join(map(str, sched))}  (u={u_statistic(sdw)})")
    return 0


def cmd_enumerate(args) -> int:
    family = PathFamily(args.n, args.k, args.kind)
    if args.n > ENUMERATE_MAX_N:
        raise CliError(f"enumerate goes up to n = {ENUMERATE_MAX_N}, got n = {args.n}")
    _state_cost(read_pair_count(family))
    if args.format == "json":
        # json.dumps(list, indent=2), one path at a time, never the whole
        # list; no family is empty (NENE...NE with increasing labels has
        # n - 1 tie valleys), so the array is never "[]"
        sep = "[\n  "
        for path in generate(family):
            print(sep + json.dumps(format_path(path)), end="")
            sep = ",\n  "
        print("\n]")
    else:
        for path in generate(family):
            print(format_path(path))
    return 0


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_FORMAT = _arg("--format", choices=("text", "json"), default="text")

# every command, in the order --help lists them: its handler, its help and
# the (flags, options) of each of its add_argument calls; a plain tuple,
# since a NamedTuple class would add about 0.5 ms to importing this module
COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], str, tuple]] = {
    "table": (cmd_table, "signed enumerator table for one n", (
        _arg("--n", type=int, required=True),
        _arg("--stat", choices=("S", "D"), default="S"),
        _arg("--method", choices=("brute", "fast", "recursive"), default="fast"),
        _FORMAT,
    )),
    "verify": (cmd_verify, "run a named verification suite", (
        _arg("check", help=f"one of: {', '.join(sorted(CHECKS))}"),
        _arg("--max-n", type=int, default=None),
        _arg("--jobs", type=int, default=1,
             help="worker processes, at most one per shard (default: 1)"),
    )),
    "inspect": (cmd_inspect, "statistics of a path or decorated permutation", (
        _arg("object", help="path like NNEENE:1,2,3:3 or word like 7* 8 4* 2 3 5 6 1"),
        _FORMAT,
    )),
    "cycle": (cmd_cycle, "cutting cycle of a path, in dinv order", (
        _arg("path"),
        _FORMAT,
    )),
    "build": (cmd_build, "the unique path of an all-ones word and shift", (
        _arg("word"),
        _arg("--shift", type=int, required=True),
    )),
    "decorate": (cmd_decorate, "canonical decoration of a permutation", (
        _arg("perm"),
        _arg("--mode", choices=("dyck", "parity"), default="parity"),
    )),
    "sched": (cmd_sched, "runs and schedule words of a decorated permutation", (
        _arg("perm"),
    )),
    "enumerate": (cmd_enumerate, "list a whole path family", (
        _arg("--n", type=int, required=True),
        _arg("--k", type=int, required=True),
        _arg("--kind", choices=("square", "dyck"), default="square"),
        _FORMAT,
    )),
}


# one parser per command and one full parser for the life of the process:
# parsing leaves a parser as it was, so a process that runs a command again
# (`pathlab table` for S and then D, say) builds its parser once
@lru_cache(maxsize=None)
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the named command alone.  Both
    give that command the same subparser, so its help, usage and errors
    read the same."""
    parser = argparse.ArgumentParser(
        prog="pathlab",
        description="Statistics, schedules and cutting cycles of decorated labeled paths.",
    )
    parser.add_argument("--version", action="version", version=f"pathlab {__version__}")
    # a one-command parser still names every command in the usage line that
    # argparse prints with an error after the command, such as an extra
    # operand; the full parser keeps no metavar, since argparse would then
    # name the command argument by it in its own errors
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        fn, text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a command parses with its own parser; the full one handles the rest:
    # --help, --version, an empty argv and an unknown command
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED if isinstance(exc, CycleError) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
