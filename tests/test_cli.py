"""Command-line surface: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import ast
import contextlib
import gc
import io
import json
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab import __version__, cli, verify
from pathlab.cli import main
from pathlab.cutting import CycleError, LadderViolation
from pathlab.enumeration import KINDS, PathFamily, generate
from pathlab.paths import format_path

from conftest import BIG_CYCLE, BIG_SCHED_ONE, BIG_WORD, SMALL_PATH


README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_text_layout(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "3", "--stat", "S", "--method", "brute")
        assert code == 0
        assert out.splitlines() == ["0: t^3 + t^2 + t", "1: 0", "2: t^2 + t + 1"]

    def test_fast_equals_brute_byte_for_byte(self, capsys):
        outs = []
        for method in ("brute", "fast", "recursive"):
            code, out, _ = run(capsys, "table", "--n", "4", "--method", method)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("stat, pairs", [("S", 27), ("D", 16)])
    def test_brute_states_its_cost_on_stderr(self, capsys, stat, pairs):
        # n^n square and (n + 1)^(n - 1) Dyck (steps, labels) pairs at n = 3
        code, _, err = run(capsys, "table", "--n", "3", "--stat", stat, "--method", "brute")
        assert code == 0
        assert err == f"# brute force visits {pairs} (steps, labels) pairs\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "1", "--stat", "D", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == [{"k": 0, "poly": {"var": "t", "coeffs": [1]}}]

    def test_recursive_dyck_is_rejected(self, capsys):
        code, _, err = run(capsys, "table", "--n", "3", "--stat", "D", "--method", "recursive")
        assert code == 2 and "error" in err


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, err = run(capsys, "verify", "euler", "--max-n", "3")
        assert code == 0
        assert all(line.endswith("PASS") for line in out.splitlines())
        # timing goes to the diagnostics channel, not the data lines
        assert "elapsed" in err and "elapsed" not in out

    def test_stderr_counts_shards(self, capsys):
        code, out, err = run(capsys, "verify", "partition", "--max-n", "3", "--jobs", "2")
        assert code == 0 and "shard" not in out
        counts = [line.rsplit(" in ", 1)[1] for line in err.splitlines()]
        assert counts == ["1 shard", "2 shards", "3 shards"]

    def test_unknown_check_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 2 and "unknown check" in err

    def test_jobs_flag_does_not_change_output(self, capsys):
        _, seq, _ = run(capsys, "verify", "sdw-area", "--max-n", "3", "--jobs", "1")
        _, par, _ = run(capsys, "verify", "sdw-area", "--max-n", "3", "--jobs", "2")
        assert seq == par

    def test_raising_check_is_a_failure(self, capsys, monkeypatch):
        def broken(n):
            raise LadderViolation(f"no ladder at n={n}")

        monkeypatch.setitem(verify.CHECKS, "euler", (broken, 7))
        code, out, _ = run(capsys, "verify", "euler", "--max-n", "1", "--jobs", "1")
        assert code == 1
        assert out == "euler[n=1] FAIL witness: LadderViolation: no ladder at n=1\n"


class TestInspect:
    def test_path_report(self, capsys):
        code, out, _ = run(capsys, "inspect", SMALL_PATH, "--format", "json")
        assert code == 0
        info = json.loads(out)
        assert info["kind"] == "path"
        assert info["shift"] == 0 and info["dinv"] == 0 and info["area"] == 1
        assert info["cycle_size"] == 2

    def test_path_report_text(self, capsys):
        code, out, err = run(capsys, "inspect", SMALL_PATH)
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "kind: path",
            "text: NNEENE:1,2,3:3",
            "n: 3",
            "k: 1",
            "dyck: True",
            "area_word: [0, 1, 0]",
            "shift: 0",
            "area: 1",
            "dinv: 0",
            "contractible_valleys: [3]",
            "attack_pairs: [[1, 3, 'primary']]",
            "diagonal_word: 3* 1 2",
            "schedule_word: [1, 1, 1]",
            "cycle_size: 2",
            "cycle_canonical: NNEENE:1,2,3:3",
        ]

    def test_word_report(self, capsys):
        code, out, _ = run(capsys, "inspect", BIG_WORD, "--format", "json")
        assert code == 0
        info = json.loads(out)
        assert info["kind"] == "word"
        assert info["valid_shifts"] == [2, 3] and info["revmaj"] == 16

    def test_trivial_path_all_zero(self, capsys):
        code, out, _ = run(capsys, "inspect", "NE:1:", "--format", "json")
        info = json.loads(out)
        assert code == 0
        assert info["shift"] == info["area"] == info["dinv"] == 0

    def test_parse_failure_exit_two(self, capsys):
        for bad in ("NNEE:2,1:", "NXE:1:", "1 1 2"):
            code, _, err = run(capsys, "inspect", bad)
            assert code == 2 and "error" in err

    def test_broken_cycle_guarantee_exits_one(self, capsys, monkeypatch):
        # a CycleError is a library fault, not bad input
        def broken(path):
            raise CycleError(f"no cycle for {path}")

        monkeypatch.setattr(cli, "cutting_cycle", broken)
        code, out, err = run(capsys, "inspect", SMALL_PATH)
        assert code == 1 and out == ""
        assert err == f"error: no cycle for {SMALL_PATH}\n"


class TestCycle:
    def test_members_in_dinv_order(self, capsys):
        code, out, _ = run(capsys, "cycle", BIG_CYCLE[2], "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 6
        assert payload["canonical"] == BIG_CYCLE[0]
        assert [m["dinv"] for m in payload["members"]] == [0, 1, 2, 3, 4, 5]
        assert [m["path"] for m in payload["members"]] == list(BIG_CYCLE)
        assert [m["schedule_one"] for m in payload["members"]] == [
            False, False, True, True, False, False,
        ]

    def test_members_in_dinv_order_text(self, capsys):
        code, out, _ = run(capsys, "cycle", BIG_CYCLE[2])
        assert code == 0
        flags = {BIG_CYCLE[0]: "  [canonical]"}
        flags.update(dict.fromkeys(BIG_SCHED_ONE, "  [schedule-one]"))
        assert out.splitlines() == [
            f"dinv={d} area=16 {member}{flags.get(member, '')}"
            for d, member in enumerate(BIG_CYCLE)
        ]

    def test_cycle_without_ladder(self, capsys):
        # dinv values 0, 2, 2 form no ladder; the path's canonical has dinv 2
        code, out, _ = run(capsys, "cycle", "NNEENE:1,3,2:")
        assert code == 0
        assert out.splitlines() == [
            "dinv=0 area=1 NENNEE:2,1,3:",
            "dinv=2 area=1 ENENNE:2,1,3:",
            "dinv=2 area=1 NNEENE:1,3,2:  [canonical]",
        ]
        code, out, _ = run(capsys, "cycle", "NNEENE:1,3,2:", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["size"] == 3
        assert [m["dinv"] for m in payload["members"]] == [0, 2, 2]


class TestBuild:
    def test_builds_unique_path(self, capsys):
        code, out, _ = run(capsys, "build", BIG_WORD, "--shift", "2")
        assert code == 0 and out.strip() == BIG_CYCLE[2]

    def test_invalid_shift_exit_two(self, capsys):
        code, _, err = run(capsys, "build", BIG_WORD, "--shift", "0")
        assert code == 2 and "error" in err


class TestDecorate:
    def test_modes(self, capsys):
        perm = "8 5 2 9 6 1 7 4 3"
        code, out, _ = run(capsys, "decorate", perm, "--mode", "dyck")
        assert code == 0 and out.splitlines()[0] == "8 5* 2* 9 6* 1 7* 4* 3"
        code, out, _ = run(capsys, "decorate", perm, "--mode", "parity")
        assert code == 0 and out.splitlines()[0] == "8* 5* 2* 9 6* 1 7* 4* 3"

    def test_rejects_decorated_input(self, capsys):
        code, _, err = run(capsys, "decorate", "2* 1", "--mode", "dyck")
        assert code == 2 and "error" in err


class TestSched:
    def test_all_shift_rows(self, capsys):
        code, out, _ = run(capsys, "sched", BIG_WORD)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("runs:")
        assert "shift 2: 1 1 1 1 1 1 1 1" in lines[3]


class TestEnumerate:
    def test_lists_family(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--k", "0", "--format", "json")
        assert code == 0
        paths = json.loads(out)
        assert len(paths) == 4 and len(set(paths)) == 4

    @pytest.mark.parametrize(
        "n, k, kind",
        [(n, k, kind) for kind in KINDS for n in range(1, 5) for k in range(n)],
    )
    def test_json_is_the_dumped_list(self, capsys, n, k, kind):
        # the array is written path by path, byte for byte what
        # json.dumps(list, indent=2) gives for the whole list
        argv = ("--n", str(n), "--k", str(k), "--kind", kind)
        code, out, _ = run(capsys, "enumerate", *argv, "--format", "json")
        assert code == 0
        listed = [format_path(p) for p in generate(PathFamily(n, k, kind))]
        assert out == json.dumps(listed, indent=2) + "\n"

    def test_text_one_per_line(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--k", "2", "--kind", "dyck")
        assert code == 0
        assert all(":" in line for line in out.splitlines())

    @pytest.mark.parametrize("kind, pairs", [("square", 27), ("dyck", 16)])
    def test_states_its_cost_on_stderr(self, capsys, kind, pairs):
        # at k = 0 the same line as table --method brute
        code, _, err = run(capsys, "enumerate", "--n", "3", "--k", "0", "--kind", kind)
        assert code == 0
        assert err == f"# brute force visits {pairs} (steps, labels) pairs\n"

    @pytest.mark.parametrize(
        "kind, k, pairs", [("square", 1, 26), ("dyck", 1, 15), ("square", 2, 12), ("dyck", 2, 6)]
    )
    def test_cost_counts_the_pairs_read(self, capsys, kind, k, pairs):
        # generate passes over the step words with fewer than k valleys and
        # ties, so past k = 0 it reads fewer pairs than table --method brute
        code, _, err = run(capsys, "enumerate", "--n", "3", "--k", str(k), "--kind", kind)
        assert code == 0
        assert err == f"# brute force visits {pairs} (steps, labels) pairs\n"


class TestDomain:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("inspect", ""), "expected a non-empty"),
            (("inspect", "::"), "expected a non-empty"),
            (("build", "", "--shift", "0"), "expected a non-empty"),
            (("sched", ""), "expected a non-empty"),
            (("decorate", ""), "expected a non-empty"),
            (("table", "--n", "0"), "at least 1"),
            (("table", "--n", "-2"), "at least 1"),
            (("verify", "euler", "--max-n", "0"), "at least 1"),
            (("verify", "euler", "--max-n", "2", "--jobs", "-5"), "at least 1"),
            (("verify", "euler", "--max-n", "2", "--jobs", "0"), "at least 1"),
            (("build", "2 1", "--shift", "-1"), "shift must be at least 0"),
            (("inspect", "NE:0:"), "labels must be positive integers"),
            (("inspect", "NE:x:"), "malformed numeric field in 'NE:x:'"),
            (("sched", "1**"), "bad letter '1**': expected space-separated letters"),
            (("sched", "*"), "bad letter '*': expected space-separated letters"),
            (("sched", "a b"), "bad letter 'a': expected space-separated letters"),
            (("inspect", "2 1 x*"), "bad letter 'x*': expected space-separated letters"),
        ],
    )
    def test_out_of_domain_input_exits_two(self, capsys, argv, message):
        code, _, err = run(capsys, *argv)
        assert code == 2 and message in err
        # one error line, no traceback
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("table", "--n", "499", "--stat", "S", "--method", "brute"), "up to n = 15, got"),
            (("table", "--n", "499", "--stat", "D", "--method", "brute"), "up to n = 15, got"),
            (("enumerate", "--n", "300", "--k", "0"), "up to n = 8, got n = 300"),
            (("enumerate", "--n", "600", "--k", "0"), "up to n = 8, got n = 600"),
            # past about n = 1,300 the cost line's count has more digits
            # than Python turns into text, so the bound is checked first
            (("table", "--n", "2000", "--method", "brute"), "up to n = 15, got n = 2000"),
            (("enumerate", "--n", "2000", "--k", "0"), "up to n = 8, got n = 2000"),
            # n = 9 would print 9^9 = 3.9*10^8 paths at k = 0
            (("enumerate", "--n", "9", "--k", "0"), "enumerate goes up to n = 8, got n = 9"),
            (("enumerate", "--n", "12", "--k", "0", "--kind", "dyck"), "up to n = 8, got n = 12"),
        ],
    )
    def test_sizes_past_a_bound_exit_two(self, capsys, argv, message):
        # the size is checked before the cost line, so one error line names the bound
        code, _, err = run(capsys, *argv)
        assert code == 2 and "Traceback" not in err
        assert err.splitlines()[-1].startswith("error:") and message in err

    @settings(deadline=None)
    @given(
        st.sampled_from(("inspect", "cycle", "decorate", "sched", "build")),
        st.one_of(st.text(alphabet="NE:,* 0123456789", max_size=24), st.text(max_size=24)),
        st.integers(-2, 6),
    )
    def test_arbitrary_text_never_raises(self, command, text, shift):
        # "--" keeps text that starts with "-" an operand, as on a shell
        argv = [command, "--", text]
        if command == "build":
            argv[1:1] = ["--shift", str(shift)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


COMMAND_NAMES = ["table", "verify", "inspect", "cycle", "build", "decorate", "sched", "enumerate"]
USAGE = (
    "usage: pathlab [-h] [--version]\n"
    "               {table,verify,inspect,cycle,build,decorate,sched,enumerate} ...\n"
)


def exits(capsys, parse, argv):
    """The exit code, stdout and stderr of an argv on which argparse exits."""
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParser:
    """A command parses with its own parser, the full parser answers
    everything else, and both read the same."""

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        # argparse wraps its usage lines to the terminal width
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("name", COMMAND_NAMES)
    def test_command_help_matches_the_full_parser(self, capsys, name):
        full = exits(capsys, cli.build_parser().parse_args, [name, "--help"])
        assert full[0] == 0 and full[1].startswith(f"usage: pathlab {name} ")
        assert exits(capsys, main, [name, "--help"]) == full

    def test_help_lists_the_commands_in_order(self, capsys):
        code, out, err = exits(capsys, main, ["--help"])
        assert code == 0 and out.startswith(USAGE) and err == ""
        assert re.findall(r"^    (\S+) ", out, re.M) == list(cli.COMMANDS) == COMMAND_NAMES

    def test_version(self, capsys):
        assert exits(capsys, main, ["--version"]) == (0, f"pathlab {__version__}\n", "")

    def test_empty_argv(self, capsys):
        err = USAGE + "pathlab: error: the following arguments are required: command\n"
        assert exits(capsys, main, []) == (2, "", err)

    def test_unknown_command(self, capsys):
        choices = ", ".join(f"'{name}'" for name in COMMAND_NAMES)
        err = USAGE + f"pathlab: error: argument command: invalid choice: 'nosuch' (choose from {choices})\n"
        assert exits(capsys, main, ["nosuch"]) == (2, "", err)

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--n", "x"),
            ("table",),
            ("table", "--n", "3", "--stat", "X"),
            ("enumerate", "--n", "3"),
            ("build", "1"),
            ("verify",),
        ],
    )
    def test_argparse_errors_exit_two(self, capsys, argv):
        code, out, err = exits(capsys, main, argv)
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"pathlab {argv[0]}: error:")
        assert exits(capsys, cli.build_parser().parse_args, argv) == (code, out, err)

    @staticmethod
    def _count_builds(monkeypatch) -> list[str]:
        """The prog of every parser built from here on, in order."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return built

    def test_a_command_builds_no_other_subparser(self, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        built = self._count_builds(monkeypatch)
        assert run(capsys, "table", "--n", "2")[0] == 0
        assert built == ["pathlab", "pathlab table"]

    def test_a_reused_parser_answers_as_a_fresh_one(self, capsys, monkeypatch):
        # S as text, D as JSON, an error, then S again, all in one process
        argvs = [
            ["table", "--n", "4"],
            ["table", "--n", "4", "--stat", "D", "--format", "json"],
            ["table", "--n", "0"],
            ["table", "--n", "4"],
        ]
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        cli.build_parser.cache_clear()
        built = self._count_builds(monkeypatch)
        assert [run(capsys, *argv) for argv in argvs] == fresh
        assert built == ["pathlab", "pathlab table"]
        assert [code for code, _, _ in fresh] == [0, 0, 2, 0]


class TestCollector:
    """main runs a command with what existed before it frozen out of the
    collector, and leaves the collector as it found it on every exit."""

    @pytest.fixture(params=["as started", "frozen", "disabled"])
    def caller(self, request):
        """The state the caller leaves the collector in before main."""
        if request.param == "frozen":
            gc.freeze()
        elif request.param == "disabled":
            gc.disable()
        yield request.param
        gc.enable()
        gc.unfreeze()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("table", "--n", "3"), 0),
            (("verify", "euler", "--max-n", "1"), 1),
            (("table", "--n", "0"), 2),
            (("--version",), SystemExit),
        ],
    )
    def test_state_is_restored(self, capsys, monkeypatch, caller, argv, code):
        # a failing check whose witness says whether the command ran frozen
        def frozen(n):
            return f"frozen={gc.get_freeze_count() > 0}"

        monkeypatch.setitem(verify.CHECKS, "euler", (frozen, 7))
        before = gc.get_freeze_count(), gc.isenabled()
        if code is SystemExit:
            exits(capsys, main, argv)
        else:
            got, out, _ = run(capsys, *argv)
            assert got == code
        assert (gc.get_freeze_count(), gc.isenabled()) == before
        assert (before[0] > 0) == (caller == "frozen")
        if code == 1:
            assert out == "euler[n=1] FAIL witness: frozen=True\n"


def test_readme_examples_exit_zero(capsys):
    # every pathlab line of the README's sh blocks runs as written
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    commands = [
        line for block in blocks for line in block.splitlines() if line.startswith("pathlab ")
    ]
    assert commands
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def _names(text):
    return re.findall(r"`([^`]+)`", text)


def test_readme_lists_the_verify_suites():
    # the suite list, the default sizes and the sharded suites, as written
    text = " ".join(README.read_text().split())
    accepted = re.search(r"`verify` accepts: (.*?)\. ", text).group(1)
    assert _names(accepted) == list(verify.CHECKS)
    defaults = re.search(r"default size: (.*?`)\. ", text).group(1)
    sizes = {
        name: int(size)
        for part in defaults.split("; ")
        for size, names in [part.split(" for ", 1)]
        for name in _names(names)
    }
    assert sizes == {check_id: max_n for check_id, (_, max_n) in verify.CHECKS.items()}
    sharded = re.search(r"Each size of (.*?) runs as n shards", text).group(1)
    assert set(_names(sharded)) == verify.SHARDED


def _defines(path: Path, names: list[str]) -> bool:
    """Whether the test module at path defines the class and function that
    names (``Class``, ``test``) spell, each inside the one before it."""
    scope = ast.parse(path.read_text()).body
    for name in names:
        found = [
            node for node in scope
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
        if not found:
            return False
        scope = found[0].body
    return True


def test_readme_oracle_table_names_existing_checks():
    # every row's last cell names tests (file::Class::test) or verify suites
    text = README.read_text()
    table = text[text.index("### Oracle ranges"):].split("\n\n")[2]
    rows = table.splitlines()[2:]
    assert len(rows) >= 10
    for row in rows:
        named = _names(row.rstrip(" |").rsplit(" | ", 1)[1])
        assert named, row
        for name in named:
            if name.startswith("verify "):
                assert name.removeprefix("verify ") in verify.CHECKS, name
            else:
                file, *names = name.split("::")
                assert _defines(README.parent / file, names), name
