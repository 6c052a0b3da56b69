"""The benchmark ledger records its per-layer spans by replacing named
bindings under ``src/`` (``benchmarks/ledger/spans.py``: a class
attribute, or a global of the module that *calls* the function) and
looks each one up with a hard ``vars(owner)[attr]``.  A refactor that
moves or renames one of them crashes the benchmark, which tier-1 does
not run -- so tier-1 resolves every row the same way here first.

A module-global row must also still be *used* by that module, or the
span would resolve and silently record nothing.

Some names survive only as pins (:data:`PINS`), so that the frozen
ledger keeps resolving and calling what it names, and nothing else may
use them.  Two rows name the cache-fed evaluation path that was folded
into the one evaluation path; both span names keep being recorded
through the table's ``evaluate_shares`` / ``verify_ball_streaming``
rows.  ``store.py`` keeps the tree enumeration's and the twiglet walk's
imports, which the table's ``store.tree_artifact`` and ``store.twiglet``
rows resolve (both spans now record nothing: the store builds no tree
artifact and writes no twiglet features), and the ``bf_config`` and
``twiglet_h`` keywords of ``ArtifactStore.create`` that the ledger
passes and the store ignores.

The table is read, never edited: re-pinning it is a ``benchmark`` change
of its own.
"""

import ast
import hashlib
import importlib
import itertools
import re
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

from benchmarks.ledger.spans import WRAP_TABLE

REPO = Path(__file__).resolve().parent.parent

#: (module, binding) -> (where it is searched, occurrences expected there).
#: The executor pins are referenced nowhere under ``src/`` or ``tests/``
#: but by their binding (and this file).  The store pins occur in
#: ``store.py`` once each, as the import or the keyword, except
#: ``twiglet_h``: it is also the manifest key that the reader admits
#: (``_SHAPE``, ``_OPTIONAL``) and that every commit writes as null.
PINS = {
    ("repro.framework.executor", "verify_prepared_kernel"):
        (("src", "tests"), {"src/repro/framework/executor.py": 1}),
    ("repro.framework.executor", "BallExecutor.verify_shares"):
        (("src", "tests"), {"src/repro/framework/executor.py": 1}),
    ("repro.storage.store", "enumerate_center_tree_encodings"):
        (("src/repro/storage/store.py",), {"src/repro/storage/store.py": 1}),
    ("repro.storage.store", "ArtifactStore.create.bf_config"):
        (("src/repro/storage/store.py",), {"src/repro/storage/store.py": 1}),
    ("repro.storage.store", "twiglets_from"):
        (("src/repro/storage/store.py",), {"src/repro/storage/store.py": 1}),
    ("repro.storage.store", "ArtifactStore.create.twiglet_h"):
        (("src/repro/storage/store.py",), {"src/repro/storage/store.py": 4}),
}
#: The keywords of ``ArtifactStore.create`` only the ledger passes.
PINNED_KEYWORDS = ("bf_config", "twiglet_h")


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
    """Each pin name occurs where :data:`PINS` says, and only there."""
    for (_module, path), (roots, expected) in sorted(PINS.items()):
        word = re.compile(rf"\b{path.rsplit('.', 1)[-1]}\b")
        hits = {}
        for root in roots:
            root = REPO / root
            for source in ([root] if root.is_file() else root.rglob("*.py")):
                count = len(word.findall(source.read_text()))
                if count and source != Path(__file__).resolve():
                    hits[str(source.relative_to(REPO))] = count
        assert hits == expected, (path, hits)


def test_create_bf_config_has_no_caller_but_the_ledger():
    """No code outside ``benchmarks/ledger/`` (and this file) passes a
    pinned keyword to ``create``."""
    callers = []
    for root in ("src", "tests", "examples", "benchmarks"):
        for source in (REPO / root).rglob("*.py"):
            if ("ledger" in source.relative_to(REPO).parts
                    or source == Path(__file__).resolve()):
                continue
            for node in ast.walk(ast.parse(source.read_text())):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "create"
                        and any(k.arg in PINNED_KEYWORDS
                                for k in node.keywords)):
                    callers.append(f"{source.relative_to(REPO)}:{node.lineno}")
    assert callers == []


def test_create_bf_config_is_inert(tmp_path, monkeypatch):
    """``create`` writes the same bytes whatever the ledger passes: the
    pinned keywords together, each ``twiglet_h`` the ledger or an earlier
    release's ``store build`` passed, or neither.  Every pack has no
    twiglet features and a null ``twiglet_h``."""
    from repro.core.bf_pruning import BFConfig
    from repro.crypto import stream_cipher
    from repro.crypto.keys import DataOwnerKey
    from repro.storage import ArtifactStore
    from repro.workloads.datasets import load_dataset

    graph = load_dataset("dblp", scale=0.03).graph
    written = []
    for i, keywords in enumerate((
            {}, {"twiglet_h": 3, "bf_config": BFConfig()},
            {"twiglet_h": None}, {"twiglet_h": 4}, {"twiglet_h": 5})):
        counter = itertools.count()
        monkeypatch.setattr(stream_cipher, "os", SimpleNamespace(
            urandom=lambda n: hashlib.sha256(
                b"pin-nonce:%d" % next(counter)).digest()[:n]))
        ArtifactStore.create(tmp_path / str(i), graph, (1,),
                             DataOwnerKey.generate(11), **keywords).close()
        written.append({path.name: path.read_bytes()
                        for path in sorted((tmp_path / str(i)).iterdir())})
    assert all(files == written[0] for files in written)
    assert sorted(written[0]) == ["balls.pack", "encrypted.pack",
                                  "manifest.json", "twiglets.json"]
    assert written[0]["twiglets.json"] == b'{"balls":{},"h":null}'
    assert b'"twiglet_h":null' in written[0]["manifest.json"]


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
