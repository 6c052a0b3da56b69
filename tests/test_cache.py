"""The one bounded cache (:mod:`repro.cache`).

Every size-bounded cache in ``src/`` is a :class:`~repro.cache.LRU`:
random get / put / pop sequences with random weights agree with a
plain-list reference model, entry for entry and counter for counter, and
no other module under ``src/`` carries an eviction loop of its own.
"""

from __future__ import annotations

import ast
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import LRU, CacheStats

SRC = Path(__file__).resolve().parent.parent / "src"


class ListLRU:
    """The reference: a list of ``[key, value]``, least recent first."""

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.entries: list[list] = []
        self.stats = CacheStats(capacity=bound)

    def _find(self, key):
        for i, (k, _) in enumerate(self.entries):
            if k == key:
                return i
        return None

    def weight(self) -> int:
        return sum(value[1] for _, value in self.entries)

    def get(self, key):
        i = self._find(key)
        if i is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.entries.append(self.entries.pop(i))
        return self.entries[-1][1]

    def put(self, key, value) -> None:
        i = self._find(key)
        if i is not None:
            del self.entries[i]
        self.entries.append([key, value])
        while self.weight() > self.bound and len(self.entries) > 1:
            del self.entries[0]
            self.stats.evictions += 1
        self._fill()

    def pop(self, key):
        i = self._find(key)
        if i is None:
            return None
        _, value = self.entries.pop(i)
        self.stats.evictions += 1
        self._fill()
        return value

    def _fill(self) -> None:
        self.stats.entries = len(self.entries)
        self.stats.weight = self.weight()


def _weigh(value: tuple[int, int]) -> int:
    return value[1]


_KEYS = st.integers(0, 7)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("get"), _KEYS),
    st.tuples(st.just("pop"), _KEYS),
    st.tuples(st.just("put"), _KEYS, st.integers(1, 12))), max_size=60)


class TestAgainstReference:
    @given(bound=st.one_of(st.just(1), st.integers(1, 20)), ops=_OPS)
    @settings(max_examples=300, deadline=None)
    def test_random_sequences_agree(self, bound, ops):
        lru, model = LRU(bound, weigh=_weigh), ListLRU(bound)
        for serial, (op, key, *weight) in enumerate(ops):
            if op == "put":
                value = (serial, weight[0])
                lru.put(key, value)
                model.put(key, value)
                assert key in list(lru), "the entry just inserted went"
            else:
                assert getattr(lru, op)(key) == getattr(model, op)(key)
            assert list(lru) == [k for k, _ in model.entries]
            assert lru.values() == [v for _, v in model.entries]
            assert len(lru) == len(model.entries)
            assert lru.weight == model.weight()
            assert lru.weight <= bound or len(lru) == 1
            assert lru.stats == model.stats

    def test_shared_stats_are_the_record(self):
        stats = CacheStats()
        lru = LRU(3, stats=stats)
        lru.put("a", 1)
        assert lru.get("a") == 1 and lru.get("b") is None
        assert lru.stats is stats
        assert stats == CacheStats(hits=1, misses=1, entries=1, weight=1,
                                   capacity=3)

    def test_iteration_is_a_snapshot(self):
        lru = LRU(4)
        for key in "abc":
            lru.put(key, key)
        for key in lru:
            lru.pop(key)
        assert len(lru) == 0 and lru.stats.evictions == 3

    def test_pickles_naming_the_old_module_still_load(self):
        """Journals written before ``CacheStats`` moved here pickle it as
        ``repro.framework.metrics.CacheStats``; that name still loads."""
        stats = CacheStats(hits=3, misses=1, capacity=8)
        legacy = pickle.dumps(stats, protocol=0).replace(
            b"crepro.cache\nCacheStats\n",
            b"crepro.framework.metrics\nCacheStats\n")
        assert b"repro.framework.metrics" in legacy
        assert pickle.loads(legacy) == stats

    @pytest.mark.parametrize("bound", [0, -1, True, 1.5, "4", None])
    def test_bound_is_a_positive_int(self, bound):
        with pytest.raises(ValueError, match="weight bound"):
            LRU(bound)


# ----------------------------------------------------------------------
# one eviction site
# ----------------------------------------------------------------------
def _eviction_sites(tree: ast.AST) -> list[tuple[int, str]]:
    """``OrderedDict`` / ``popitem`` / ``move_to_end`` references and
    ``x.pop(next(iter(...)))`` calls -- a hand-written eviction loop."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "OrderedDict":
            sites.append((node.lineno, "OrderedDict"))
        elif isinstance(node, ast.alias) and node.name == "OrderedDict":
            sites.append((node.lineno, "import OrderedDict"))
        elif isinstance(node, ast.Attribute) and node.attr in (
                "OrderedDict", "popitem", "move_to_end"):
            sites.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "pop" and node.args
              and _is_call_of(node.args[0], "next")
              and node.args[0].args
              and _is_call_of(node.args[0].args[0], "iter")):
            sites.append((node.lineno, "pop(next(iter(...)))"))
    return sites


def _is_call_of(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def test_no_eviction_loop_outside_the_cache_module():
    home = SRC / "repro" / "cache.py"
    found = [f"{path.relative_to(SRC)}:{line}: {what}"
             for path in sorted(SRC.rglob("*.py")) if path != home
             for line, what in _eviction_sites(ast.parse(path.read_text()))]
    assert not found, "evict through repro.cache.LRU:\n" + "\n".join(found)
    assert _eviction_sites(ast.parse(home.read_text())), \
        "the scan no longer recognises the LRU's own eviction"
