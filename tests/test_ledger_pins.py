"""The benchmark ledger records its per-layer spans by replacing named
bindings under ``src/`` (``benchmarks/ledger/spans.py``: a class
attribute, or a global of the module that *calls* the function) and
looks each one up with a hard ``vars(owner)[attr]``.  A refactor that
moves or renames one of them crashes the benchmark, which tier-1 does
not run -- so tier-1 resolves every row the same way here first.

A module-global row must also still be *used* by that module, or the
span would resolve and silently record nothing.

Two rows name the cache-fed evaluation path that was folded into the one
evaluation path: their names survive as pin bindings (:data:`PINS`) so
the table resolves, and nothing else may mention them -- their spans
record nothing, and both span names keep being recorded through the
table's ``evaluate_shares`` / ``verify_ball_streaming`` rows.

The table is read, never edited: re-pinning it is a ``benchmark`` change
of its own.
"""

import importlib
import re
import types
from pathlib import Path

import pytest

from benchmarks.ledger.spans import WRAP_TABLE

#: Rows kept alive by a one-line binding that nothing else references.
PINS = {("repro.framework.executor", "verify_prepared_kernel"),
        ("repro.framework.executor", "BallExecutor.verify_shares")}


@pytest.mark.parametrize(
    "module_name,path",
    [pytest.param(row[0], row[1], id=f"{row[0]}:{row[1]}")
     for row in WRAP_TABLE])
def test_binding_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    assert callable(raw)
    if (module_name, path) in PINS:
        return
    if not parents and getattr(raw, "__module__", module_name) != module_name:
        assert attr in _names_loaded_by(owner), (
            f"{module_name} imports {attr} but no longer calls it")


def test_pin_bindings_are_referenced_nowhere_else():
    """Each pin name occurs once under ``src/`` (its binding) and nowhere
    under ``tests/`` but in this file."""
    repo = Path(__file__).resolve().parent.parent
    for _module, path in sorted(PINS):
        word = re.compile(rf"\b{path.rsplit('.', 1)[-1]}\b")
        hits = {}
        for root in ("src", "tests"):
            for source in (repo / root).rglob("*.py"):
                count = len(word.findall(source.read_text()))
                if count and source != Path(__file__).resolve():
                    hits[str(source.relative_to(repo))] = count
        assert hits == {"src/repro/framework/executor.py": 1}, (path, hits)


def _names_loaded_by(module) -> set[str]:
    """Every global/attribute name the module's own code loads."""
    names: set[str] = set()
    pending = [value.__code__ for value in _functions_of(module)]
    while pending:
        code = pending.pop()
        names.update(code.co_names)
        pending.extend(const for const in code.co_consts
                       if isinstance(const, types.CodeType))
    return names


def _functions_of(module):
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType):
            yield value
        elif isinstance(value, type):
            for member in vars(value).values():
                member = getattr(member, "__func__", member)
                if isinstance(member, types.FunctionType):
                    yield member
