"""How a store commit is made (:class:`repro.storage.store._StoreWriter`).

Contract under test: the object that made a commit skips re-hashing
it before its next delta, and the result is the same directory a freshly
opened store would write; a delta or a split never carries a damaged
directory forward under a fresh checksum -- it raises
:class:`StoreError` (CLI ``FAILED:``, exit 3) instead.
"""

import hashlib
import itertools
import os
from types import SimpleNamespace

import pytest

from repro.cli import EXIT_INTEGRITY, main
from repro.crypto import stream_cipher
from repro.crypto.keys import DataOwnerKey
from repro.graph.delta import random_delta
from repro.storage import ArtifactStore, StoreError, StoreStale, shard_split

RADII = (2,)
SEED = 3


@pytest.fixture(scope="module")
def key():
    return DataOwnerKey.generate(SEED)


def _digests(root):
    return {str(path.relative_to(root)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _delta(graph, seed):
    return random_delta(graph, edge_fraction=2.0 / graph.num_edges,
                        seed=seed)


# ---------------------------------------------------------------------------
# the committing object and a fresh open() write the same directory
# ---------------------------------------------------------------------------
def _pin_nonces(monkeypatch):
    """The n-th nonce the stream cipher draws is a hash of n (the
    goldens' pinning): ciphertexts depend only on encryption order."""
    counter = itertools.count()
    monkeypatch.setattr(stream_cipher, "os", SimpleNamespace(
        urandom=lambda n: hashlib.sha256(
            b"golden-nonce:%d" % next(counter)).digest()[:n]))


class TestHandOver:
    def test_committed_entries_equal_a_fresh_open(self, tmp_path, dataset,
                                                  key, monkeypatch):
        """Three deltas (the last one drops a vertex's balls) through the
        creating object, which skips the checksum pass, and through a
        fresh ``open()`` per delta, which makes it, leave byte-identical
        directories."""
        roots = {}
        for mode in ("held", "reopened"):
            _pin_nonces(monkeypatch)
            root = roots[mode] = tmp_path / mode
            live = dataset.graph.copy()
            store = ArtifactStore.create(root, live, RADII, key)
            for seed in (5, 6, 7):
                if mode == "reopened":
                    store.close()
                    store = ArtifactStore.open(root)
                delta = _delta(live, seed)
                if seed == 7:
                    delta = random_delta(live, edge_fraction=0.0,
                                         remove_vertices=1, seed=seed)
                assert store.apply_delta(delta, live, key).reencrypted > 0
            assert store.verify(key).ok
            store.close()
        assert _digests(roots["held"]) == _digests(roots["reopened"])


# ---------------------------------------------------------------------------
# damage is refused, not rolled forward
# ---------------------------------------------------------------------------
def _overwrite_twiglets(root):
    (root / "twiglets.json").write_text('{"balls":{"0":[]},"h":3}',
                                        encoding="utf-8")


def _flip_pack_byte(root, name):
    path = root / name
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


TAMPERS = {
    "twiglets.json": _overwrite_twiglets,
    "balls.pack": lambda root: _flip_pack_byte(root, "balls.pack"),
    "encrypted.pack": lambda root: _flip_pack_byte(root, "encrypted.pack"),
}


@pytest.fixture
def tampered(request, tmp_path, dataset, key):
    """A closed store with one artifact damaged at rest."""
    root = tmp_path / "pack"
    ArtifactStore.create(root, dataset.graph, RADII, key).close()
    TAMPERS[request.param](root)
    with ArtifactStore.open(root) as store:
        assert [p.name for p in store.verify().tampered] == [request.param]
    return root


@pytest.mark.parametrize("tampered", sorted(TAMPERS), indirect=True)
class TestRefuseDamage:
    def test_apply_delta_refuses(self, tampered, dataset, key):
        before = _digests(tampered)
        live = dataset.graph.copy()
        delta = _delta(live, 5)
        epoch = live.mutation_epoch
        with ArtifactStore.open(tampered) as store:
            with pytest.raises(StoreError, match="checksum") as raised:
                store.apply_delta(delta, live, key)
            assert not isinstance(raised.value, StoreStale)
            assert not store.verify().ok
        assert _digests(tampered) == before
        assert live.mutation_epoch == epoch  # refused before the graph moved

    def test_shard_split_refuses(self, tampered, tmp_path):
        with pytest.raises(StoreError, match="checksum"):
            shard_split(tampered, tmp_path / "shards", 2)
        assert not (tmp_path / "shards").exists()


class TestRefuseDamageCli:
    BASE = ["--scale", "0.03", "--seed", "1"]

    @pytest.fixture
    def built(self, tmp_path):
        root = tmp_path / "pack"
        assert main([*self.BASE, "store", "build", "dblp", str(root),
                     "--radii", "1"]) == 0
        _overwrite_twiglets(root)
        return root

    def test_apply_delta_exits_3(self, built, tmp_path, capsys):
        log = tmp_path / "deltas"
        assert main([*self.BASE, "store", "make-delta", "dblp", str(log),
                     "--edge-fraction", "0.01"]) == 0
        capsys.readouterr()
        assert main([*self.BASE, "store", "apply-delta", str(built),
                     "dblp", str(log)]) == EXIT_INTEGRITY
        out = capsys.readouterr().out
        assert "FAILED: twiglets.json does not match" in out
        assert main(["store", "verify", str(built)]) == EXIT_INTEGRITY

    def test_shard_split_exits_3(self, built, tmp_path, capsys):
        capsys.readouterr()
        assert main([*self.BASE, "store", "shard-split", str(built),
                     str(tmp_path / "shards"), "--shards", "2"]) == (
            EXIT_INTEGRITY)
        assert "FAILED: twiglets.json does not match" in (
            capsys.readouterr().out)


# ---------------------------------------------------------------------------
# a commit that died between the artifact renames and the manifest rename
# ---------------------------------------------------------------------------
class TestManifestRenameFails:
    """ROADMAP item 3's second probe: the artifacts are renamed into
    place, the manifest rename fails.  The directory is a hybrid -- child
    artifacts under the parent manifest -- and a re-run of the same delta
    must refuse it, on the failed object and after a fresh ``open()``."""

    def test_rerun_refuses_the_hybrid(self, tmp_path, dataset, key,
                                      monkeypatch):
        root = tmp_path / "pack"
        # The creating object may skip the checksum pass: the failed
        # commit must have cleared that.
        store = ArtifactStore.create(root, dataset.graph, RADII, key)
        real_replace = os.replace

        def failing_replace(src, dst):
            if os.path.basename(dst) == "manifest.json":
                raise OSError("injected: manifest rename failed")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        live = dataset.graph.copy()
        with pytest.raises(OSError, match="injected"):
            store.apply_delta(_delta(live, 5), live, key)
        monkeypatch.setattr(os, "replace", real_replace)

        # The manifest still pins the parent digest, so a re-run starts
        # from the parent graph (as `store apply-delta` does).
        for rerun in (store, ArtifactStore.open(root)):
            parent = dataset.graph.copy()
            with pytest.raises(StoreError, match="checksum") as raised:
                rerun.apply_delta(_delta(parent, 5), parent, key)
            assert not isinstance(raised.value, StoreStale)
            rerun.close()
        with ArtifactStore.open(root) as reopened:
            assert not reopened.verify(key).ok
