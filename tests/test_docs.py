"""Documentation consistency guards.

DESIGN.md's per-experiment index and EXPERIMENTS.md's bench references
must point at files that exist -- stale docs are bugs here, because the
index is the contract between the paper's evaluation and this repo.
"""

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_design_bench_targets_exist():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    targets = set(re.findall(r"`(benchmarks/bench_[a-z0-9_]+\.py)`", text))
    assert targets, "DESIGN.md must reference benchmark targets"
    for target in sorted(targets):
        assert (ROOT / target).is_file(), f"DESIGN.md references {target}"


def test_experiments_bench_references_exist():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    names = set(re.findall(r"`(bench_[a-z0-9_]+\.py)`", text))
    assert names
    for name in sorted(names):
        assert (ROOT / "benchmarks" / name).is_file(), (
            f"EXPERIMENTS.md references {name}")


def test_every_bench_file_is_indexed_in_design():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        assert path.name in text, (
            f"{path.name} missing from DESIGN.md's experiment index")


def test_protocol_doc_references_real_tests():
    text = (ROOT / "docs" / "PROTOCOL.md").read_text(encoding="utf-8")
    for ref in re.findall(r"`tests/(test_[a-z_]+\.py)", text):
        assert (ROOT / "tests" / ref).is_file(), f"PROTOCOL.md: {ref}"


def test_design_module_map_paths_exist():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    block = text.split("src/repro/", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        match = re.match(r"\s+([a-z_]+\.py)\s", line)
        if not match:
            continue
        name = match.group(1)
        hits = list((ROOT / "src" / "repro").rglob(name))
        assert hits, f"DESIGN.md module map lists missing file {name}"


def test_operations_doc_matches_cli_contract():
    """docs/operations.md is the exit-code contract the CLI docstring
    points at -- it must exist, reference real tests, and spell out the
    tampered-wins precedence that test_cli asserts."""
    text = (ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
    for ref in re.findall(r"tests/(test_[a-z_]+\.py)", text):
        assert (ROOT / "tests" / ref).is_file(), f"operations.md: {ref}"
    lowered = text.lower()
    for needle in ("exit 2", "exits 3", "tampered wins over stale",
                   "--resume", "--deadline-ms", "journal inspect"):
        assert needle in lowered, f"operations.md must document {needle!r}"
    cli_doc = (ROOT / "src" / "repro" / "cli.py").read_text("utf-8")
    assert "docs/operations.md" in cli_doc


def test_operations_exit_table_lists_the_code_table():
    """The exit table in docs/operations.md lists exactly the codes of
    the lattice, which holds every code the CLI's exit table and status
    map can produce; every printed prefix is documented."""
    from repro.cli import _EXIT_SEVERITY, EXIT_TABLE, STATUS_EXIT

    text = (ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
    section = text.split("## Exit codes", 1)[1].split("\n### ", 1)[0]
    documented = set()
    for cell in re.findall(r"^\| ([0-9 /]+) \|", section, re.MULTILINE):
        documented.update(int(code) for code in cell.split("/"))
    assert documented == set(_EXIT_SEVERITY)
    produced = ({row.code for row in EXIT_TABLE}
                | set(STATUS_EXIT.values()))
    assert produced <= documented
    for prefix in {row.prefix for row in EXIT_TABLE}:
        assert f"`{prefix}:" in text, f"operations.md: {prefix}"


def test_operations_option_table_lists_the_parser():
    """The option table in docs/operations.md names exactly the parser's
    subcommands and flags."""
    from repro.cli import build_parser
    from tests.test_cli import leaves

    text = (ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
    section = text.split("## Options", 1)[1].split("\n## ", 1)[0]
    root = build_parser()
    parsers = [root, *(parser for _, parser in leaves(root))]
    flags = {flag for parser in parsers for action in parser._actions
             for flag in action.option_strings if flag.startswith("--")
             and flag != "--help"}
    assert set(re.findall(r"^\| `(--[a-z-]+)` \|", section,
                          re.MULTILINE)) == flags
    assert set(re.findall(r"^\| `([a-z][a-z -]*)` \|", section,
                          re.MULTILINE)) == {
        " ".join(prefix) for prefix, _ in leaves(root)}


_SHELL_ENDS = {"|", "&&", ";", ">", "2>"}


def _ci_commands() -> list[tuple[str, str]]:
    """``python -m repro`` lines of ci.yml with ``\\`` continuations
    joined and ``$ARGS`` / ``$FLAGS`` taken from the step's ``env:``
    block (plain or ``>-`` folded scalars; no YAML library)."""
    lines = (ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8").splitlines()
    env: dict[str, str] = {}
    commands = []
    i = 0
    while i < len(lines):
        line = lines[i]
        if re.match(r"\s*- (name|uses):", line):
            env = {}
        var = re.match(r"(\s*)(ARGS|FLAGS): ?(.*)$", line)
        if var:
            indent, name, value = var.groups()
            if value.startswith(">"):
                folded = []
                while (i + 1 < len(lines) and lines[i + 1].strip()
                       and len(lines[i + 1]) - len(lines[i + 1].lstrip())
                       > len(indent)):
                    i += 1
                    folded.append(lines[i].strip())
                value = " ".join(folded)
            env[name] = value
        elif "python -m repro" in line:
            while line.rstrip().endswith("\\"):
                i += 1
                line = line.rstrip()[:-1] + " " + lines[i].strip()
            for name, value in env.items():
                line = line.replace(f"${name}", value)
            commands.append((f"ci.yml:{i + 1}", line))
        i += 1
    return commands


def _markdown_commands(name: str) -> list[tuple[str, str]]:
    """``python -m repro`` lines inside the fenced blocks of a doc."""
    commands, fenced = [], False
    lines = (ROOT / name).read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and "python -m repro" in line:
            while line.rstrip().endswith("\\"):
                i += 1
                line = line.rstrip()[:-1] + " " + lines[i].strip()
            commands.append((f"{name}:{i + 1}", line))
        i += 1
    return commands


def test_documented_command_lines_parse():
    """Every ``python -m repro`` line CI runs or the docs show parses
    with today's parser and passes its cross-flag checks: no deleted
    flag or subcommand, no value outside its domain."""
    import shlex

    from repro.cli import _check_flags, build_parser

    commands = [*_ci_commands(), *_markdown_commands("README.md"),
                *_markdown_commands("docs/operations.md")]
    assert len(commands) > 40
    for where, line in commands:
        words = shlex.split(line.split("python -m repro", 1)[1],
                            comments=True)
        argv = []
        for word in words:
            if word in _SHELL_ENDS:
                break
            argv.append(word)
        try:
            _check_flags(build_parser().parse_args(argv))
        except SystemExit:
            raise AssertionError(f"{where}: {line.strip()}") from None
