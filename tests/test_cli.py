"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import cli
from repro.cli import (
    EXIT_DEADLINE,
    EXIT_FORGED,
    EXIT_INTEGRITY,
    EXIT_LEAKAGE,
    EXIT_STALE,
    EXIT_TABLE,
    EXIT_USAGE,
    STATUS_EXIT,
    build_parser,
    combine_exit,
    exit_code,
    main,
)
from repro.crypto import montgomery
from repro.framework.gateway import GatewayError
from repro.framework.placement import PlacementError
from repro.framework.prilo import DeadlineExceeded
from repro.framework.roles import BallIntegrityError
from repro.framework.server import QueryStatus
from repro.framework.shard import ShardError
from repro.framework.verify import VerificationError
from repro.storage import (
    DeltaError,
    JournalError,
    StaleDeltaError,
    StoreError,
    StoreStale,
    StoreUsageError,
)


def usage_line(argv, capsys) -> str:
    """Run ``main(argv)``; it must exit :data:`EXIT_USAGE` through
    argparse, not 2 (:data:`EXIT_STALE`) and not with a traceback.
    Returns the last line of standard error."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.splitlines()[-1]


@pytest.fixture(scope="module")
def cut(tmp_path_factory):
    """A 2-shard ``store shard-split`` cut of slashdot at ``--scale 0.05
    --modulus 512``, radii 1 and 2: the certified fleet every gateway
    run here serves."""
    root = tmp_path_factory.mktemp("cli-cut")
    assert main(["--scale", "0.05", "--modulus", "512", "store", "build",
                 "slashdot", str(root / "pack"), "--radii", "1,2"]) == 0
    assert main(["store", "shard-split", str(root / "pack"),
                 str(root / "shards"), "--shards", "2"]) == 0
    return root / "shards"


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        for argv in (["run", "dblp"],
                     ["serve-batch", "dblp"],
                     ["store", "build", "dblp", "/tmp/x"],
                     ["store", "inspect", "/tmp/x"],
                     ["store", "verify", "/tmp/x"]):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_unknown_dataset_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "nope"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["serve-batch", "gateway"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_queue_bound_below_one_is_a_usage_error(self, command, value,
                                                    capsys):
        line = usage_line(["--scale", "0.05", command, "slashdot",
                           "--queue-bound", value], capsys)
        assert line == (f"repro {command}: error: argument --queue-bound: "
                        f"must be a positive int, got {value}")

    @pytest.mark.parametrize("argv", [
        ["serve-batch", "slashdot", "--queue-bound", "abc"],
        ["serve-batch", "slashdot", "--no-such-flag"],
        ["store", "build", "dblp", "/tmp/x", "--no-bf"],
        ["store", "no-such-command"],
    ], ids=["bad-int", "unknown-flag", "nested-unknown-flag",
            "unknown-subcommand"])
    def test_every_argparse_error_exits_usage(self, argv, capsys):
        assert "error:" in usage_line(argv, capsys)


def leaves(parser=None, prefix=()):
    """``(argv prefix, parser)`` of every runnable subcommand of
    :func:`build_parser` -- ``(("store", "build"), <parser>)`` etc."""
    parser = parser or build_parser()
    subs = [action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        yield prefix, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaves(child, (*prefix, name))


def positionals(parser) -> list[str]:
    """A placeholder argv for ``parser``'s positional arguments and
    required options."""
    argv = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            continue
        if not action.option_strings:
            argv.append(action.choices[0] if action.choices else "x")
        elif action.required:
            argv += [action.option_strings[-1], "x"]
    return argv


def numeric_flags(parser) -> list[str]:
    """Options whose type is one of the CLI's declared numeric domains."""
    return [action.option_strings[-1] for action in parser._actions
            if action.option_strings
            and hasattr(action.type, "smallest")]


def names_flag(line: str, flag: str) -> bool:
    """An argparse-style error line that names ``flag``."""
    return "error:" in line and re.search(
        rf"(?<![\w-]){re.escape(flag)}\b", line) is not None


CLI_TREE = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))


def add_argument_calls(tree: ast.AST) -> list[ast.Call]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"]


def bare_numeric_types(tree: ast.AST) -> list[tuple[int, str]]:
    return [(call.lineno, keyword.value.id)
            for call in add_argument_calls(tree)
            for keyword in call.keywords
            if keyword.arg == "type" and isinstance(keyword.value, ast.Name)
            and keyword.value.id in ("int", "float")]


def repeated_options(tree: ast.AST) -> list[str]:
    counts = Counter(arg.value for call in add_argument_calls(tree)
                     for arg in call.args
                     if isinstance(arg, ast.Constant)
                     and isinstance(arg.value, str)
                     and arg.value.startswith("-"))
    return sorted(option for option, count in counts.items() if count > 1)


class TestDeclarations:
    """Every input of ``cli.py`` is declared once, with a domain."""

    def test_no_bare_numeric_type(self):
        assert bare_numeric_types(CLI_TREE) == []
        assert bare_numeric_types(ast.parse(
            "p.add_argument('--n', type=int)\n"
            "p.add_argument('--x', type=float)")) == [(1, "int"), (2, "float")]

    def test_every_option_declared_once(self):
        assert repeated_options(CLI_TREE) == []
        assert repeated_options(ast.parse(
            "a.add_argument('--size')\nb.add_argument('--size')")) == ["--size"]

    def test_deleted_flag_and_subcommands_are_gone(self):
        commands = {" ".join(prefix) for prefix, _ in leaves()}
        assert not commands & {"stats", "workloads", "prune"}
        flags = {flag for _, parser in leaves()
                 for action in parser._actions
                 for flag in action.option_strings}
        assert not flags & {"--engine", "--twiglet-h", "--no-twiglets",
                            "--no-verify"}

    @pytest.mark.parametrize("removed", [["--no-verify"], ["--shards", "2"]])
    def test_gateway_trust_and_fleet_flags_are_gone(self, removed, cut,
                                                    capsys):
        """Every gateway verifies, and its fleet is the cut's: a script
        that still asks for trusted shards or a fleet size is told so on
        one line."""
        assert usage_line(["gateway", "slashdot", "--store", str(cut),
                           *removed], capsys) == (
            f"repro: error: unrecognized arguments: {' '.join(removed)}")

    def test_gateway_needs_a_store(self, capsys):
        assert usage_line(["gateway", "slashdot"], capsys) == (
            "repro gateway: error: the following arguments are required: "
            "--store")

    @pytest.mark.parametrize("removed", [["--twiglet-h", "4"],
                                         ["--no-twiglets"]])
    def test_store_build_twiglet_flags_are_gone(self, removed, tmp_path,
                                                capsys):
        """The store writes no twiglet features, so ``store build`` takes
        no twiglet height: a script that still passes one is told so on
        one line, before anything is built."""
        root = tmp_path / "pack"
        assert usage_line(["store", "build", "dblp", str(root), *removed],
                          capsys) == ("repro: error: unrecognized "
                                      f"arguments: {' '.join(removed)}")
        assert not root.exists()


class TestDomainSweep:
    """Every numeric flag of every subcommand, driven through ``main()``
    with its domain's edges and the command body stubbed out: success,
    or exit 1 with one stderr line naming the flag -- never a traceback.
    A flag declared with a domain is swept the day it lands."""

    EDGES = ("0", "-1", None, "abc", str(2 ** 63))  # None: the smallest

    @staticmethod
    def cases():
        """``(argv before the value, argv after it, flag, its parser)``."""
        root = build_parser()
        for prefix, parser in leaves(root):
            argv = [*prefix, *positionals(parser)]
            for flag in numeric_flags(parser):
                yield [*argv, flag], [], flag, parser
            for flag in numeric_flags(root):
                yield [flag], argv, flag, root

    def test_every_flag_at_every_edge(self, monkeypatch, capsys):
        for name in dir(cli):
            if name.startswith("cmd_"):
                monkeypatch.setattr(cli, name, lambda args: 0)
        swept = set()
        for before, after, flag, parser in self.cases():
            action = next(a for a in parser._actions
                          if flag in a.option_strings)
            for edge in self.EDGES:
                value = action.type.smallest if edge is None else edge
                argv = [*before, value, *after]
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                err = capsys.readouterr().err
                assert "Traceback" not in err, argv
                if edge == "abc":
                    assert code == EXIT_USAGE, argv
                assert code in (0, EXIT_USAGE), argv
                if code:
                    assert sum(names_flag(line, flag)
                               for line in err.splitlines()) == 1, (argv, err)
                    assert names_flag(err.splitlines()[-1], flag), argv
                swept.add(flag)
        assert {"--modulus", "--kill-after", "--edge-fraction", "--radii",
                "--standing", "--rogue-shard"} <= swept


class TestCrossFlagChecks:
    """What no single flag's domain can see exits 1 on one line naming
    the flags involved."""

    BASE = ["--scale", "0.05"]

    @pytest.mark.parametrize("argv, shape", [
        (["run", "dblp", "--size", "1"], "--size 1 --diameter 3"),
        (["run", "slashdot", "--diameter", "5"], "--size 8 --diameter 5"),
        (["serve-batch", "slashdot", "--diameter", "6"],
         "--size 8 --diameter 6"),
    ], ids=["size-1", "run-diameter-5", "serve-batch-diameter-6"])
    def test_query_diameter_is_a_served_radius(self, argv, shape, capsys):
        line = usage_line([*self.BASE, *argv], capsys)
        assert line.startswith(f"repro {argv[0]}: error: {shape}: query "
                               f"diameter(s) [")
        assert line.endswith("not among the radii [1, 2, 3, 4]")

    def test_qgen_finds_no_query_of_the_shape(self, capsys):
        line = usage_line([*self.BASE, "run", "slashdot", "--size", "8",
                           "--diameter", "1"], capsys)
        assert line.startswith("repro run: error: --size 8 --diameter 1: "
                               "no connected induced subgraph")

    def test_run_needs_two_players(self, capsys):
        line = usage_line([*self.BASE, "--players", "1", "run", "dblp"],
                          capsys)
        assert line == ("repro run: error: argument --players: run serves "
                        "Prilo* (SSG, Sec. 2.3), which needs at least 2, "
                        "got 1")

    @pytest.mark.parametrize("flag", ["--kill-shard", "--rogue-shard"])
    def test_shard_ids_below_shards(self, flag, cut, capsys):
        """The fleet is the cut's: a shard id at or above its member
        count is one usage line, before any dataset is loaded."""
        for shard in ("2", "3"):
            line = usage_line([*self.BASE, "gateway", "slashdot", "--store",
                               str(cut), flag, shard], capsys)
            assert line == (f"repro gateway: error: argument {flag}: must "
                            f"be below the 2 shard(s) of --store, got "
                            f"{shard}")

    def test_standing_at_most_distinct(self, capsys):
        line = usage_line([*self.BASE, "serve-batch", "slashdot",
                           "--standing", "5", "--distinct", "2"], capsys)
        assert line == ("repro serve-batch: error: argument --standing: "
                        "must be at most --distinct 2, got 5")

    def test_chaos_seed_from_the_environment_is_an_int(self, monkeypatch,
                                                       capsys):
        monkeypatch.setenv("REPRO_CHAOS_SEED", "abc")
        line = usage_line([*self.BASE, "run", "dblp"], capsys)
        assert line == ("repro run: error: environment variable "
                        "REPRO_CHAOS_SEED: expected an int, got 'abc'")

    @pytest.mark.parametrize("flag, valid", [
        ("--chaos-kinds", "kill_process"), ("--rogue-kinds", "drop_ball")])
    def test_kinds_checked_without_chaos_on(self, flag, valid, capsys):
        command = "run" if flag == "--chaos-kinds" else "gateway"
        line = usage_line([command, "dblp", flag, f"{valid},nope"], capsys)
        assert line.startswith(f"repro {command}: error: argument {flag}: "
                               f"unknown ")
        assert "['nope']; valid: " in line


SRC = Path(__file__).resolve().parent.parent / "src"


class TestRealEntryPoint:
    """Usage errors as a process sees them: in-process tests catch
    argparse's ``SystemExit``, not what ``sys.exit(main())`` makes of it.
    Exit 2 means "stale, rebuild the store" to scripts, so a usage error
    exits 1, with the flag named on one line and no traceback."""

    @staticmethod
    def run_cli(argv, cwd, **extra_env) -> tuple[int, str]:
        env = {**os.environ, **extra_env}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
        proc = subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=cwd, timeout=120)
        return proc.returncode, proc.stderr

    @pytest.mark.parametrize("argv, flag, prog", [
        (["serve-batch", "slashdot", "--queue-bound", "0"],
         "--queue-bound", "repro serve-batch"),
        (["--scale", "0.05", "serve-batch", "slashdot", "--distinct", "0"],
         "--distinct", "repro serve-batch"),
        (["--scale", "0.05", "run", "dblp", "--size", "0"],
         "--size", "repro run"),
        (["--scale", "0.05", "--players", "0", "run", "slashdot"],
         "--players", "repro"),
        (["store", "shard-split", "x", "y", "--shards", "0"],
         "--shards", "repro store shard-split"),
    ], ids=["queue-bound", "distinct", "size", "players", "shards"])
    def test_count_flag_below_one(self, argv, flag, prog, tmp_path):
        code, err = self.run_cli(argv, tmp_path)
        assert code == EXIT_USAGE, err
        assert "Traceback" not in err
        assert sum(f"{flag}:" in line for line in err.splitlines()) == 1
        assert err.splitlines()[-1] == (
            f"{prog}: error: argument {flag}: must be a positive int, "
            f"got 0")

    #: One usage error per runnable subcommand, as a process.
    LEAF_CASES = {
        "run": (["--scale", "0.05", "run", "dblp", "--size", "1"], "--size"),
        "serve-batch": (["serve-batch", "slashdot", "--batch", "0"],
                        "--batch"),
        "store build": (["store", "build", "dblp", "x", "--radii", "0"],
                        "--radii"),
        "store inspect": (["--seed", "abc", "store", "inspect", "x"],
                          "--seed"),
        "store verify": (["--scale", "0", "store", "verify", "x"],
                         "--scale"),
        "store shard-split": (["store", "shard-split", "x", "y",
                               "--shards", "-1"], "--shards"),
        "store make-delta": (["store", "make-delta", "dblp", "y",
                              "--edge-fraction", "2"], "--edge-fraction"),
        "store apply-delta": (["--players", "0", "store", "apply-delta", "x",
                               "dblp", "y"], "--players"),
        "journal inspect": (["--modulus", "0", "journal", "inspect", "x"],
                            "--modulus"),
        "trace summarize": (["--seed", "1.5", "trace", "summarize", "x"],
                            "--seed"),
        "trace audit": (["--scale", "nan", "trace", "audit", "x"],
                        "--scale"),
        "gateway": (["--scale", "0.05", "gateway", "slashdot", "--store",
                     "x", "--kill-shard", "-1"], "--kill-shard"),
    }

    def test_cases_cover_every_leaf(self):
        assert set(self.LEAF_CASES) == {
            " ".join(prefix) for prefix, _ in leaves()}

    @pytest.mark.parametrize("leaf", sorted(LEAF_CASES))
    def test_every_leaf_names_the_bad_flag(self, leaf, tmp_path):
        argv, flag = self.LEAF_CASES[leaf]
        code, err = self.run_cli(argv, tmp_path)
        assert code == EXIT_USAGE, err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert sum(names_flag(line, flag) for line in lines) == 1, err
        assert names_flag(lines[-1], flag), err
        assert not list(tmp_path.iterdir())

    def test_bad_chaos_seed_variable(self, tmp_path):
        code, err = self.run_cli(["--scale", "0.05", "run", "dblp"], tmp_path,
                                 REPRO_CHAOS_SEED="abc")
        assert code == EXIT_USAGE, err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "repro run: error: environment variable REPRO_CHAOS_SEED: "
            "expected an int, got 'abc'")

    def test_unknown_flag(self, tmp_path):
        code, err = self.run_cli(["serve-batch", "slashdot",
                                  "--no-such-flag"], tmp_path)
        assert code == EXIT_USAGE, err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(
            "unrecognized arguments: --no-such-flag")


class TestExecution:
    def test_run(self, capsys):
        assert main(["--scale", "0.08", "--players", "2",
                     "run", "dblp", "--size", "4", "--diameter", "2"]) == 0
        out = capsys.readouterr().out
        assert "candidates:" in out
        assert "sequence mode" in out

    def test_run_names_the_kernel_arithmetic(self, capsys, monkeypatch):
        argv = ["--scale", "0.05", "--players", "2", "--modulus", "512",
                "run", "dblp", "--size", "4", "--diameter", "2"]
        assert main(argv) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("crypto ops:"))
        assert line.endswith(f" arith={montgomery.arithmetic()}")
        monkeypatch.setattr(montgomery, "libcrypto", lambda: None)
        assert main(argv) == 0
        assert " arith=python" in capsys.readouterr().out

    def test_smallest_modulus_serves(self, capsys):
        """``--modulus``'s floor is the smallest modulus that serves: one
        bit less fails in CGBE aggregation, and the domain refuses it."""
        smallest = cli._modulus_bits.smallest
        for command in (["run", "dblp"], ["serve-batch", "dblp",
                                          "--batch", "2", "--distinct", "1"]):
            argv = ["--scale", "0.05", "--players", "2", "--modulus",
                    smallest, *command, "--size", "4", "--diameter", "2"]
            assert main(argv) == 0
            assert "matches=" in capsys.readouterr().out
        argv[argv.index(smallest)] = str(int(smallest) - 1)
        assert usage_line(argv, capsys) == (
            f"repro: error: argument --modulus: must be an int in "
            f"{smallest}..4096, got {int(smallest) - 1}")

    def test_serve_batch(self, capsys):
        assert main(["--scale", "0.05", "--modulus", "512", "serve-batch",
                     "slashdot", "--batch", "3", "--distinct", "2",
                     "--size", "4", "--diameter", "2"]) == 0
        out = capsys.readouterr().out
        assert "served 3 queries" in out
        assert "CMM cache:" in out

    def test_gateway_served_line_counts_completed_queries(self, cut,
                                                          tmp_path, capsys):
        """Under ``--queue-bound`` the ``served`` line counts completed
        queries out of the submitted ones; the JSON ``queries`` key stays
        the submitted count."""
        summary = tmp_path / "gateway.json"
        assert main(["--scale", "0.05", "--modulus", "512", "gateway",
                     "slashdot", "--store", str(cut), "--count", "4",
                     "--tenants", "2", "--size", "4", "--diameter", "2",
                     "--queue-bound", "1",
                     "--json-summary", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "served 1/4 queries on 2 shard(s)" in out
        assert "statuses: 1/4 ok" in out
        data = json.loads(summary.read_text())
        assert (data["queries"], data["completed"]) == (4, 1)
        assert data["statuses"] == [QueryStatus.OK] + \
            [QueryStatus.REJECTED_OVERLOAD] * 3

    def test_run_chaos_mode(self, capsys):
        """``--chaos-seed`` injects faults yet the run still succeeds and
        reports what happened."""
        assert main(["--scale", "0.08", "--players", "2", "run", "dblp",
                     "--size", "4", "--diameter", "2",
                     "--chaos-seed", "7", "--fault-rate", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "matches:" in out
        assert "faults:" in out
        assert "injected=" in out

    def test_chaos_results_match_fault_free(self, capsys):
        argv = ["--scale", "0.08", "--players", "2", "run", "dblp",
                "--size", "4", "--diameter", "2"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        assert main([*argv, "--chaos-seed", "3", "--fault-rate", "0.25"]) == 0
        chaotic = capsys.readouterr().out

        def matches(out: str) -> str:
            # degradation may change intermediate counts (e.g. BF-less
            # PM-positives) but never the answer
            return out.split("matches: ")[1].split()[0]

        assert matches(chaotic) == matches(clean)


class TestExitCodeLattice:
    """One precedence order for every command, documented in
    docs/operations.md: ``0 < 2 (stale) < 4 (deadline) < 5 (leakage)
    < 3 (integrity) < 1 (generic)``, unknown codes most severe."""

    def test_identity_and_zero(self):
        assert combine_exit() == 0
        assert combine_exit(0) == 0
        assert combine_exit(0, 0, 0) == 0

    def test_total_order(self):
        lattice = [0, EXIT_STALE, EXIT_DEADLINE, EXIT_LEAKAGE,
                   EXIT_INTEGRITY, 1]
        for i, low in enumerate(lattice):
            for high in lattice[i:]:
                assert combine_exit(low, high) == high
                assert combine_exit(high, low) == high

    def test_integrity_wins_over_leakage(self):
        # Tampered evidence invalidates the very trace a leakage verdict
        # was computed from: exit 3 must win so "rerun the audit" scripts
        # never trust a trace from a corrupt run.
        assert combine_exit(EXIT_LEAKAGE, EXIT_INTEGRITY) == EXIT_INTEGRITY

    def test_unknown_codes_most_severe(self):
        assert combine_exit(1, 7) == 7
        assert combine_exit(EXIT_INTEGRITY, 42) == 42


class TestExitTable:
    """The one exception -> exit-code table, driven through ``main()``:
    every row's code and printed prefix, and every query status."""

    CASES = [
        (lambda: StoreUsageError("refusing to overwrite non-empty x"),
         1, "FAILED"),
        (lambda: StoreStale("built under a different owner key"),
         2, "STALE"),
        (lambda: StaleDeltaError("record 1 does not chain"), 2, "STALE"),
        (lambda: ShardError("shard 0 failed to start", stale=True),
         2, "STALE"),
        (lambda: ShardError("shard 0 failed to start"), 3, "FAILED"),
        (lambda: StoreError("malformed manifest"), 3, "FAILED"),
        (lambda: DeltaError("bad key"), 3, "FAILED"),
        (lambda: BallIntegrityError("ball 3: re-served blob"), 3, "FAILED"),
        (lambda: PlacementError("malformed placement manifest"),
         3, "FAILED"),
        (lambda: VerificationError("forge_result", "tampered catalog"),
         3, "FAILED"),
        (lambda: JournalError("digest mismatch"), 3, "JOURNAL ERROR"),
        (lambda: GatewayError("no members survive"), 3, "GATEWAY ERROR"),
        (lambda: DeadlineExceeded("after enumeration", 12.0, 5.0),
         4, "DEADLINE EXCEEDED"),
    ]

    @staticmethod
    def _raising(monkeypatch, exc):
        def stub(args):
            raise exc
        monkeypatch.setattr(cli, "cmd_store_inspect", stub)
        return ["store", "inspect", "x"]

    @pytest.mark.parametrize("make, code, prefix", CASES)
    def test_row_through_main(self, monkeypatch, capsys, make, code,
                              prefix):
        exc = make()
        assert main(self._raising(monkeypatch, exc)) == code
        assert capsys.readouterr().out == f"{prefix}: {exc}\n"

    def test_cases_cover_every_row(self):
        def first_row(exc):
            return next(row for row in EXIT_TABLE
                        if isinstance(exc, row.exc) and row.when(exc))

        covered = [first_row(make()) for make, _, _ in self.CASES]
        assert sorted(map(EXIT_TABLE.index, covered)) == list(
            range(len(EXIT_TABLE)))

    def test_unmapped_exception_is_a_traceback(self, monkeypatch):
        with pytest.raises(ZeroDivisionError):
            main(self._raising(monkeypatch, ZeroDivisionError("bug")))

    def test_every_query_status_has_a_code(self):
        statuses = {value for name, value in vars(QueryStatus).items()
                    if name.isupper()}
        assert set(STATUS_EXIT) == statuses
        assert {status: exit_code(status) for status in statuses} == {
            QueryStatus.OK: 0,
            QueryStatus.REJECTED_OVERLOAD: 0,
            QueryStatus.REJECTED_BALL_BUDGET: 0,
            QueryStatus.DRAINED: 0,
            QueryStatus.DEADLINE_EXCEEDED: EXIT_DEADLINE,
            QueryStatus.FORGED: EXIT_FORGED,
        }

    def test_error_path_still_finishes_the_trace(self, monkeypatch, capsys,
                                                 tmp_path):
        """``main`` owns the tracer: a command that dies on an integrity
        failure still exports its trace and runs the audit."""
        def stub(args):
            args.tracer.event("probe", "user")
            raise JournalError("digest mismatch")
        monkeypatch.setattr(cli, "cmd_run", stub)
        trace = tmp_path / "t.jsonl"
        assert main(["run", "dblp", "--trace", str(trace),
                     "--leakage-audit", "--trace-taint"]) == EXIT_INTEGRITY
        out = capsys.readouterr().out
        assert out.startswith("JOURNAL ERROR: digest mismatch\n")
        assert "LEAKAGE" in out
        assert trace.exists()

    def test_failed_delta_still_prints_the_served_batch(self, tmp_path,
                                                        capsys):
        """``serve-batch --apply-delta``: a delta log keyed under another
        seed is tampered (exit 3), reported before the summary of the
        batch already served, which still prints."""
        log = str(tmp_path / "foreign.log")
        assert main(["--scale", "0.05", "--seed", "99", "store",
                     "make-delta", "slashdot", log]) == 0
        capsys.readouterr()
        assert main(["--scale", "0.05", "--modulus", "512", "serve-batch",
                     "slashdot", "--batch", "2", "--distinct", "1",
                     "--size", "4", "--diameter", "2",
                     "--apply-delta", log]) == EXIT_INTEGRITY
        out = capsys.readouterr().out
        assert out.startswith("FAILED: delta log carries 1 tampered")
        assert "served 2 queries" in out

    @pytest.mark.parametrize("journal", [False, True])
    def test_run_ball_budget_rejection_is_policy(self, tmp_path, capsys,
                                                 journal):
        """A ball-budget shed is an operator-set admission outcome: exit
        0 with the REJECTED line, with or without a journal."""
        argv = ["--scale", "0.05", "--modulus", "512", "run", "dblp",
                "--size", "4", "--diameter", "2", "--ball-budget", "1"]
        if journal:
            argv += ["--journal", str(tmp_path / "run.wal")]
        assert main(argv) == 0
        assert "q0: REJECTED(BALL_BUDGET)" in capsys.readouterr().out


class TestTracing:
    BASE = ["--scale", "0.08", "--players", "2"]
    RUN = ["run", "dblp", "--size", "4", "--diameter", "2"]

    def test_run_traced_exits_zero_and_writes_jsonl(self, tmp_path,
                                                    capsys):
        trace = tmp_path / "run.jsonl"
        assert main([*self.BASE, *self.RUN, "--trace", str(trace),
                     "--leakage-audit"]) == 0
        out = capsys.readouterr().out
        assert "leakage-audit: ok" in out
        assert trace.exists()

        from repro.observability import read_trace
        meta, spans = read_trace(trace)
        assert meta["format"] == 1
        assert meta["spans"] == len(spans) > 0
        roles = {s["role"] for s in spans}
        assert "user" in roles and "dealer" in roles

    def test_taint_hook_fails_audit_with_exit_5(self, tmp_path, capsys):
        trace = tmp_path / "tainted.jsonl"
        assert main([*self.BASE, *self.RUN, "--trace", str(trace),
                     "--leakage-audit", "--trace-taint"]) == EXIT_LEAKAGE
        out = capsys.readouterr().out
        assert "LEAKAGE" in out
        assert "ball_answer" in out

    def test_trace_summarize_and_offline_audit(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main([*self.BASE, *self.RUN, "--trace", str(trace)]) == 0
        capsys.readouterr()

        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "[user]" in out
        assert "spans" in out

        assert main(["trace", "audit", str(trace)]) == 0
        assert "leakage-audit: ok" in capsys.readouterr().out

    def test_offline_audit_flags_tainted_trace(self, tmp_path, capsys):
        trace = tmp_path / "tainted.jsonl"
        assert main([*self.BASE, *self.RUN, "--trace", str(trace),
                     "--trace-taint"]) == 0  # no live audit requested
        capsys.readouterr()
        assert main(["trace", "audit", str(trace)]) == EXIT_LEAKAGE
        assert "LEAKAGE" in capsys.readouterr().out

    def test_trace_commands_reject_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["trace", "summarize", missing]) == 1
        assert main(["trace", "audit", missing]) == 1

    def test_serve_batch_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        assert main(["--scale", "0.05", "--modulus", "512", "serve-batch",
                     "slashdot", "--batch", "3", "--distinct", "2",
                     "--size", "4", "--diameter", "2",
                     "--metrics-out", str(metrics)]) == 0
        text = metrics.read_text()
        assert "# TYPE repro_batch_queries_total counter" in text
        assert re.search(r"^repro_batch_queries_total 3$", text, re.M)
        assert re.search(r"^repro_span_seconds_count\{", text, re.M)
        assert "repro_message_bytes_total" in text


class TestStoreCommands:
    BASE = ["--scale", "0.05", "--modulus", "512"]

    @pytest.fixture(scope="class")
    def store_root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-store") / "artifacts"
        assert main([*self.BASE, "store", "build", "slashdot", str(root),
                     "--radii", "1,2"]) == 0
        return root

    def test_build_then_inspect(self, store_root, capsys):
        capsys.readouterr()
        assert main(["store", "inspect", str(store_root)]) == 0
        out = capsys.readouterr().out
        assert '"balls": 400' in out
        assert '"radii"' in out

    def test_verify(self, store_root, capsys):
        assert main([*self.BASE, "store", "verify", str(store_root)]) == 0
        assert main([*self.BASE, "store", "verify", str(store_root),
                     "--with-key"]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"^(\d+) balls indexed, (\d+) blobs "
                          r"decrypt-authenticated$", out, re.MULTILINE) \
            == [("400", "0"), ("400", "400")]
        assert "ok: store verified" in out

    def test_verify_detects_tamper(self, store_root, tmp_path, capsys):
        import shutil

        copy = tmp_path / "tampered"
        shutil.copytree(store_root, copy)
        pack = copy / "balls.pack"
        data = bytearray(pack.read_bytes())
        data[len(data) // 2] ^= 0xFF
        pack.write_bytes(bytes(data))
        assert main(["store", "verify", str(copy)]) == 3
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "balls.pack: tampered" in out

    def test_verify_stale_key_exits_2(self, store_root, capsys):
        # verifying with a key derived from a different seed makes the
        # store stale (built under a different owner key) -> exit 2
        assert main([*self.BASE, "--seed", "1", "store", "verify",
                     str(store_root), "--with-key"]) == 2
        out = capsys.readouterr().out
        assert "STALE" in out
        assert "different owner key" in out

    def test_verify_tampered_wins_over_stale(self, store_root, tmp_path,
                                             capsys):
        # combined stale + tampered: the integrity failure must take
        # precedence, so scripts keying off exit 2 for "just rebuild"
        # never miss an active tamper -> exit 3, both surfaced in output
        import shutil

        copy = tmp_path / "stale-and-tampered"
        shutil.copytree(store_root, copy)
        pack = copy / "balls.pack"
        data = bytearray(pack.read_bytes())
        data[len(data) // 2] ^= 0xFF
        pack.write_bytes(bytes(data))
        assert main([*self.BASE, "--seed", "1", "store", "verify",
                     str(copy), "--with-key"]) == 3
        out = capsys.readouterr().out
        assert "balls.pack: tampered" in out
        assert "manifest.json: stale" in out
        assert "FAILED" in out

    def test_incremental_apply_then_replay(self, store_root, tmp_path,
                                           capsys):
        """A pack this checkout builds and patches with a two-delta log:
        every blob still decrypt-authenticates, a re-run applies nothing,
        and the log replayed under another seed's key is classified
        tampered (exit 3) without touching the pack."""
        import shutil

        pack, log = tmp_path / "pack", tmp_path / "deltas.log"
        shutil.copytree(store_root, pack)
        apply = [*self.BASE, "store", "apply-delta", str(pack), "slashdot",
                 str(log)]
        assert main([*self.BASE, "store", "make-delta", "slashdot",
                     str(log), "--count", "2", "--edge-fraction",
                     "0.01"]) == 0
        assert main(apply) == 0
        capsys.readouterr()
        assert main([*self.BASE, "store", "verify", str(pack),
                     "--with-key"]) == 0
        balls, decrypted = re.search(
            r"^(\d+) balls indexed, (\d+) blobs decrypt-authenticated$",
            capsys.readouterr().out, re.MULTILINE).groups()
        assert balls == decrypted != "0"
        assert main(apply) == 0
        assert "2 already applied" in capsys.readouterr().out
        manifest = (pack / "manifest.json").read_bytes()
        assert main([*self.BASE, "--seed", "99", "store", "apply-delta",
                     str(pack), "slashdot", str(log), "--inspect"]) == 3
        assert (pack / "manifest.json").read_bytes() == manifest

    def test_run_with_store(self, store_root, capsys):
        assert main([*self.BASE, "run", "slashdot", "--size", "4",
                     "--diameter", "2", "--store", str(store_root)]) == 0
        out = capsys.readouterr().out
        assert "candidates:" in out

    def test_serve_batch_with_store(self, store_root, capsys):
        assert main([*self.BASE, "serve-batch", "slashdot", "--batch", "4",
                     "--distinct", "2", "--size", "4", "--diameter", "2",
                     "--store", str(store_root)]) == 0
        out = capsys.readouterr().out
        assert "served 4 queries" in out
        assert "hit rate" in out

    def test_non_empty_target_is_a_usage_error(self, store_root, tmp_path,
                                               capsys):
        """Writing into a non-empty directory is a wrong request, not a
        damaged artifact: exit 1, and nothing in the target moves."""
        target = tmp_path / "taken"
        target.mkdir()
        (target / "keep.txt").write_text("mine")
        assert main([*self.BASE, "store", "build", "slashdot",
                     str(target), "--radii", "1"]) == 1
        assert main(["store", "shard-split", str(store_root), str(target),
                     "--shards", "2"]) == 1
        out = capsys.readouterr().out
        assert out.count("FAILED: refusing to overwrite non-empty") == 2
        assert [p.name for p in target.iterdir()] == ["keep.txt"]

    def test_query_diameter_outside_the_store_radii(self, store_root,
                                                     capsys):
        line = usage_line([*self.BASE, "run", "slashdot", "--size", "4",
                           "--diameter", "3", "--store", str(store_root)],
                          capsys)
        assert line == ("repro run: error: --size 4 --diameter 3: query "
                        "diameter(s) [3] not among the --store radii [1, 2]")

    def test_gateway_refuses_a_fleet_that_cannot_start(self, store_root,
                                                       tmp_path, capsys):
        """A shard whose pack is stale or damaged is a typed refusal with
        the documented exit (2 rebuildable, 3 damaged), not an
        ``EOFError`` traceback out of the cluster's start-up pipe."""
        shards = tmp_path / "shards"
        assert main([*self.BASE, "store", "shard-split", str(store_root),
                     str(shards), "--shards", "2"]) == 0
        gateway = ["gateway", "slashdot", "--store", str(shards),
                   "--count", "2", "--tenants", "1", "--size", "4",
                   "--diameter", "2"]
        assert main([*self.BASE, *gateway]) == 0
        assert "statuses: 2/2 ok" in capsys.readouterr().out
        # the live graph moved on since the packs were cut
        assert main(["--scale", "0.06", "--modulus", "512",
                     *gateway]) == EXIT_STALE
        out = capsys.readouterr().out
        assert "STALE: shard 0 failed to start: StoreStale" in out
        assert "served" not in out
        (shards / "shard-1" / "manifest.json").unlink()
        assert main([*self.BASE, *gateway]) == EXIT_INTEGRITY
        out = capsys.readouterr().out
        assert "FAILED: shard 1 failed to start: StoreError" in out
        assert "served" not in out
