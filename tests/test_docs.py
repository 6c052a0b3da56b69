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
