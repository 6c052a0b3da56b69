"""The persistent offline artifact store (:mod:`repro.storage.store`).

Contract under test: the store is a byte-faithful, staleness-checked,
tamper-evident persistence of the data owner's offline outsourcing
output -- an engine served from it must answer exactly like an engine
that recomputed everything.
"""

import hashlib
import itertools
import json
import shutil
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.twiglets import filter_twiglets, twiglets_from
from repro.crypto import stream_cipher
from repro.crypto.keys import DataOwnerKey
from repro.framework.prilo_star import PriloStar
from repro.graph.ball import BallIndex
from repro.graph.delta import GraphDelta, random_delta
from repro.graph.io import graph_from_json, graph_to_json
from repro.storage import (
    ArtifactStore,
    StoreError,
    graph_digest,
    key_digest,
    shard_split,
)
from repro.workloads.datasets import load_dataset
from tests.cipher_v1 import write_v1_ciphers
from tests.legacy_store import TREES, make_legacy

RADII = (2,)
SEED = 3  # matches test_config so store key == engine owner key


@pytest.fixture(scope="module")
def graph(dataset):
    return dataset.graph


@pytest.fixture(scope="module")
def key():
    return DataOwnerKey.generate(SEED)


@pytest.fixture(scope="module")
def store(tmp_path_factory, graph, key):
    root = tmp_path_factory.mktemp("artifact-store") / "store"
    return ArtifactStore.create(root, graph, RADII, key, twiglet_h=3)


class TestRoundtrip:
    def test_balls_roundtrip(self, store, graph):
        index = BallIndex(graph, RADII)
        for center in list(graph.vertices())[:20]:
            original = index.ball(center, RADII[0])
            loaded = store.load_ball(original.ball_id)
            assert loaded.ball_id == original.ball_id
            assert loaded.center == original.center
            assert loaded.radius == original.radius
            assert set(loaded.graph.vertices()) == set(
                original.graph.vertices())
            assert set(loaded.graph.edges()) == set(original.graph.edges())

    def test_encrypted_blobs_authenticate(self, store, graph, key):
        from repro.graph.io import ball_from_bytes

        cipher = key.cipher()
        ball_id = store.ball_ids()[0]
        payload = cipher.decrypt(store.load_encrypted(ball_id))
        assert ball_from_bytes(payload).ball_id == ball_id

    def test_open_equals_create(self, store, graph):
        reopened = ArtifactStore.open(store.root)
        assert reopened.radii == RADII
        assert reopened.twiglet_h == 3
        assert len(reopened) == len(store)
        assert reopened.ball_ids() == store.ball_ids()

    def test_describe(self, store, graph):
        info = store.describe()
        assert info["balls"] == len(list(graph.vertices())) * len(RADII)
        assert info["radii"] == list(RADII)
        assert info["graph_digest"] == graph_digest(graph)

    def test_create_refuses_nonempty_root(self, store, graph, key):
        with pytest.raises(StoreError, match="non-empty"):
            ArtifactStore.create(store.root, graph, RADII, key)


class TestStaleness:
    def test_fresh_store_passes(self, store, graph, key):
        store.check(graph=graph, radii=RADII, key=key)

    def test_graph_digest_mismatch(self, store, graph, key):
        modified = graph_from_json(graph_to_json(graph))
        modified.add_vertex("phantom-vertex", "A")
        assert graph_digest(modified) != graph_digest(graph)
        with pytest.raises(StoreError, match="graph"):
            store.check(graph=modified, radii=RADII, key=key)

    def test_wrong_key(self, store, graph):
        other = DataOwnerKey.generate(SEED + 1)
        assert key_digest(other) != store._manifest["key_digest"]
        with pytest.raises(StoreError, match="key"):
            store.check(graph=graph, key=other)

    def test_radii_mismatch(self, store, graph, key):
        with pytest.raises(StoreError, match="radii"):
            store.check(graph=graph, radii=(1, 2), key=key)

    def test_engine_setup_rejects_stale_store(self, store, dataset,
                                              test_config):
        from dataclasses import replace

        # test_config radii (1, 2, 3) != store radii (2,) -- the check
        # runs at DataOwner construction, before any query.
        with pytest.raises(StoreError, match="radii"):
            PriloStar.setup(dataset.graph, test_config, store=store)
        # Matching radii but a different owner seed: key mismatch.
        with pytest.raises(StoreError, match="key"):
            PriloStar.setup(dataset.graph,
                            replace(test_config, radii=RADII, seed=SEED + 1),
                            store=store)


class TestTamperDetection:
    @pytest.fixture()
    def copy(self, store, tmp_path):
        root = tmp_path / "copy"
        shutil.copytree(store.root, root)
        return root

    def test_verify_clean(self, store, key):
        report = store.verify(key)
        assert report.ok
        assert report.balls == len(store)
        assert report.decrypted == len(store)
        assert {p.status for p in report.packs} == {"ok"}
        assert len(report.packs) == 3

    @pytest.mark.parametrize("filename", ["balls.pack", "encrypted.pack",
                                          "twiglets.json"])
    def test_flipped_byte_detected(self, copy, filename):
        path = copy / filename
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        report = ArtifactStore.open(copy).verify()
        assert not report.ok
        bad = {p.name for p in report.tampered}
        assert bad == {filename}
        assert "checksum" in report.tampered[0].reason

    def test_flipped_byte_reports_all_files(self, copy):
        """Unlike the old first-failure raise, every damaged artifact is
        reported in one sweep."""
        for filename in ("balls.pack", "twiglets.json"):
            path = copy / filename
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0xFF
            path.write_bytes(bytes(data))
        report = ArtifactStore.open(copy).verify()
        assert {p.name for p in report.tampered} == {"balls.pack",
                                                     "twiglets.json"}

    def test_blob_swap_detected_with_key(self, copy, key):
        """Swapping two same-length ciphertexts defeats per-file hashes
        only if the manifest checksum is recomputed -- the keyed sweep
        still catches it because decryption is authenticated per blob."""
        tampered = ArtifactStore.open(copy)
        ids = tampered.ball_ids()
        blobs = {i: tampered.load_encrypted(i) for i in ids[:10]}
        a, b = sorted(blobs, key=lambda i: len(blobs[i]))[:2]
        pack = bytearray((copy / "encrypted.pack").read_bytes())
        sl = {i: tampered._slices[i] for i in (a, b)}
        pack[sl[a].enc_offset:sl[a].enc_offset + len(blobs[b])] = blobs[b]
        (copy / "encrypted.pack").write_bytes(bytes(pack))
        import hashlib
        import json
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["checksums"]["encrypted.pack"] = hashlib.sha256(
            bytes(pack)).hexdigest()
        (copy / "manifest.json").write_text(json.dumps(manifest))
        report = ArtifactStore.open(copy).verify(key)
        assert not report.ok
        assert {p.name for p in report.tampered} == {"encrypted.pack"}
        assert "keyed sweep" in report.tampered[0].reason

    def test_stale_key_reported_not_fatal(self, copy):
        """A wrong owner key is staleness (rebuild with the right key),
        not tampering -- and the keyed sweep is skipped, not failed."""
        from repro.crypto.keys import DataOwnerKey

        report = ArtifactStore.open(copy).verify(DataOwnerKey.generate(999))
        assert not report.ok
        assert not report.tampered
        assert report.stale
        assert report.decrypted == 0


class TestServingEquivalence:
    def test_store_ball_index_id_parity(self, store, graph):
        fresh = BallIndex(graph, RADII)
        backed = store.ball_index(graph)
        for center in list(graph.vertices())[:20]:
            assert (backed.ball(center, RADII[0]).ball_id
                    == fresh.ball(center, RADII[0]).ball_id)

    def test_twiglet_filter_equivalence(self, store, graph):
        """Stored full-alphabet twiglets filtered to a query alphabet must
        equal recomputing twiglets against that alphabet directly."""
        features = store.twiglet_features()
        index = BallIndex(graph, RADII)
        alphabet = frozenset(list(graph.alphabet)[:4])
        for center in list(graph.vertices())[:20]:
            ball = index.ball(center, RADII[0])
            assert (filter_twiglets(features[ball.ball_id], alphabet)
                    == twiglets_from(ball.graph, ball.center, 3, alphabet))

    def test_store_backed_engine_answers_identically(self, store, dataset,
                                                     test_config):
        from dataclasses import replace

        config = replace(test_config, radii=RADII, seed=SEED)
        query = dataset.random_queries(1, size=4, diameter=2, seed=21)[0]
        plain = PriloStar.setup(dataset.graph, config).run(query)
        backed = PriloStar.setup(dataset.graph, config, store=store).run(query)
        assert backed.candidate_ids == plain.candidate_ids
        assert backed.pm_positive_ids == plain.pm_positive_ids
        assert backed.verified_ids == plain.verified_ids
        assert backed.match_ball_ids == plain.match_ball_ids
        assert backed.pm_per_method == plain.pm_per_method


def _run(graph, config, store, query):
    with PriloStar.setup(graph, config, store=store) as engine:
        result = engine.run(query)
    return (result.candidate_ids, result.pm_positive_ids,
            result.verified_ids, result.match_ball_ids, result.num_matches)


class TestLegacyTreeArtifact:
    """A pack written before the tree artifact went (``tests/
    legacy_store.py`` writes that layout) keeps verifying and serving; the
    first delta commits a manifest without it, then deletes the file."""

    @pytest.fixture()
    def legacy(self, store, graph, tmp_path):
        root = tmp_path / "legacy"
        shutil.copytree(store.root, root)
        make_legacy(root, graph)
        return root

    def test_verify_checks_the_tree_artifact(self, legacy, key):
        report = ArtifactStore.open(legacy).verify(key)
        assert report.ok and report.decrypted == report.balls
        assert len(report.packs) == 4 and TREES in {
            p.name for p in report.packs}
        data = bytearray((legacy / TREES).read_bytes())
        data[len(data) // 2] ^= 0xFF
        (legacy / TREES).write_bytes(bytes(data))
        report = ArtifactStore.open(legacy).verify(key)
        assert {p.name for p in report.tampered} == {TREES}
        assert main(["--seed", str(SEED), "store", "verify", str(legacy),
                     "--with-key"]) == 3

    def test_serves_the_same_answers(self, legacy, store, dataset,
                                     test_config):
        config = replace(test_config, radii=RADII, seed=SEED)
        query = dataset.random_queries(1, size=4, diameter=2, seed=21)[0]
        with ArtifactStore.open(legacy) as old:
            assert (_run(dataset.graph, config, old, query)
                    == _run(dataset.graph, config, store, query))

    def test_first_delta_drops_it_after_the_commit(self, legacy, store,
                                                   graph, key, monkeypatch):
        listed_at_unlink = []
        unlink = Path.unlink

        def spy(path, *args, **kwargs):
            if path.name == TREES:
                manifest = json.loads((path.parent / "manifest.json")
                                      .read_text("utf-8"))
                listed_at_unlink.append(TREES in manifest["checksums"])
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", spy)
        live = graph.copy()
        with ArtifactStore.open(legacy) as old:
            old.apply_delta(random_delta(live, edge_fraction=0.02, seed=5),
                            live, key)
            assert old.verify(key).ok
            assert old._manifest.keys() == store._manifest.keys()
            assert (old._manifest["checksums"].keys()
                    == store._manifest["checksums"].keys())
        assert listed_at_unlink == [False]
        assert not (legacy / TREES).exists()

    def test_shard_split_leaves_it_behind(self, legacy, key, tmp_path):
        shard_split(legacy, tmp_path / "split", 2)
        for shard in sorted((tmp_path / "split").glob("shard-*")):
            assert not (shard / TREES).exists()
            with ArtifactStore.open(shard) as piece:
                assert "bf" not in piece._manifest
                assert piece.verify(key).ok


def _cipher_versions(store, key) -> dict[int, int]:
    """Ball id -> the cipher version whose tag authenticates its blob."""
    cipher = key.cipher()
    return {ball_id: cipher.decrypt_versioned(
        store.load_encrypted(ball_id))[0] for ball_id in store.ball_ids()}


class TestCipherV1Pack:
    """A pack whose blobs cipher v1 wrote (``tests/cipher_v1.py`` writes
    them) keeps verifying and serving; ``apply_delta`` copies its clean
    blobs verbatim, still v1, and writes the dirty and added ones as v2;
    ``shard_split`` copies both kinds."""

    @pytest.fixture(scope="class")
    def v1_pack(self, graph, key, tmp_path_factory):
        root = tmp_path_factory.mktemp("cipher-v1") / "store"
        with pytest.MonkeyPatch.context() as patch:
            write_v1_ciphers(patch)
            ArtifactStore.create(root, graph, RADII, key,
                                 twiglet_h=3).close()
        return root

    @pytest.fixture()
    def mixed(self, v1_pack, graph, key, tmp_path):
        """A copy of the v1 pack after one delta that dirties balls and
        adds one: ``(root, report, blobs before, live graph)``."""
        root = tmp_path / "mixed"
        shutil.copytree(v1_pack, root)
        live = graph.copy()
        anchor = sorted(live.vertices(), key=repr)[3]
        with ArtifactStore.open(root) as store:
            before = {i: store.load_encrypted(i) for i in store.ball_ids()}
            report = store.apply_delta(GraphDelta(
                added_vertices=(("cipher-v2-vertex", live.label(anchor)),),
                added_edges=(("cipher-v2-vertex", anchor),)), live, key)
        return root, report, before, live

    def test_verify_counts_every_blob_v1(self, v1_pack, key, capsys):
        with ArtifactStore.open(v1_pack) as store:
            balls = len(store)
            report = store.verify(key)
            assert _cipher_versions(store, key) == dict.fromkeys(
                store.ball_ids(), 1)
        assert report.ok and report.decrypted == balls
        assert report.ciphers == {1: balls}
        assert report.as_dict()["ciphers"] == {"v1": balls}
        capsys.readouterr()
        assert main(["--seed", str(SEED), "store", "verify", str(v1_pack),
                     "--with-key"]) == 0
        assert f"blob ciphers: 0 v2, {balls} v1" in capsys.readouterr().out

    def test_serves_the_same_answers(self, v1_pack, store, dataset,
                                     test_config):
        config = replace(test_config, radii=RADII, seed=SEED)
        query = dataset.random_queries(1, size=4, diameter=2, seed=21)[0]
        with ArtifactStore.open(v1_pack) as old:
            assert (_run(dataset.graph, config, old, query)
                    == _run(dataset.graph, config, store, query))
            assert not old.quarantined

    def test_delta_keeps_clean_blobs_v1_and_writes_v2(self, mixed, key):
        root, report, before, live = mixed
        fresh = set(report.dirty_ball_ids) | set(report.added_ball_ids)
        assert report.dirty and report.added
        with ArtifactStore.open(root) as store:
            clean = set(store.ball_ids()) - fresh
            assert report.reused == len(clean) > 0
            assert {i: store.load_encrypted(i) for i in clean} == {
                i: before[i] for i in clean}
            assert _cipher_versions(store, key) == {
                i: 2 if i in fresh else 1 for i in store.ball_ids()}
            verified = store.verify(key, graph=live, radii=RADII)
        assert verified.ok
        assert verified.ciphers == {1: len(clean), 2: len(fresh)}

    def test_shard_split_copies_both_kinds(self, mixed, key, tmp_path):
        root, report, _, _ = mixed
        with ArtifactStore.open(root) as store:
            blobs = {i: store.load_encrypted(i) for i in store.ball_ids()}
            versions = _cipher_versions(store, key)
        shard_split(root, tmp_path / "split", 2)
        copied, counts = {}, {}
        for shard in sorted((tmp_path / "split").glob("shard-*")):
            with ArtifactStore.open(shard) as piece:
                verified = piece.verify(key)
                assert verified.ok and verified.decrypted == len(piece)
                copied.update((i, piece.load_encrypted(i))
                              for i in piece.ball_ids())
            for version, count in verified.ciphers.items():
                counts[version] = counts.get(version, 0) + count
        assert copied == blobs
        assert counts == {version: list(versions.values()).count(version)
                          for version in (1, 2)}


class TestMalformedManifest:
    """A manifest of the wrong shape is a ``StoreError`` from ``open``
    (CLI: ``FAILED:`` exit 3), never a raw exception from whichever
    reader touches the bad field first."""

    @pytest.fixture(scope="class")
    def manifest(self, store):
        return json.loads((store.root / "manifest.json").read_text("utf-8"))

    @pytest.fixture()
    def broken(self, store, tmp_path):
        root = tmp_path / "broken"
        shutil.copytree(store.root, root)

        def write(manifest):
            (root / "manifest.json").write_text(json.dumps(manifest))
            return root
        return write

    def _refused(self, root, capsys, *run):
        with pytest.raises(StoreError, match="malformed manifest"):
            ArtifactStore.open(root)
        capsys.readouterr()
        assert main(["store", "verify", str(root)]) == 3
        assert "FAILED: malformed manifest" in capsys.readouterr().out
        for argv in run:
            assert main(argv) == 3

    def test_not_an_object(self, broken, capsys):
        self._refused(broken([]), capsys)

    def test_balls_missing(self, broken, manifest, capsys):
        root = broken({k: v for k, v in manifest.items() if k != "balls"})
        self._refused(root, capsys, [
            "--scale", "0.05", "run", "slashdot", "--size", "4",
            "--diameter", "2", "--store", str(root)])

    def test_extra_key_in_a_ball_entry(self, broken, manifest, capsys):
        balls = [dict(manifest["balls"][0], extra=1)] + manifest["balls"][1:]
        self._refused(broken({**manifest, "balls": balls}), capsys)

    def test_checksum_name_outside_the_root(self, broken, manifest,
                                            capsys):
        checksums = {**manifest["checksums"],
                     "../outside": manifest["checksums"]["balls.pack"]}
        self._refused(broken({**manifest, "checksums": checksums}), capsys)

    @pytest.fixture(scope="class")
    def fuzz_dir(self, store, tmp_path_factory):
        root = tmp_path_factory.mktemp("manifest-fuzz") / "store"
        shutil.copytree(store.root, root)
        return root

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzz_opens_or_raises_store_error(self, fuzz_dir, manifest,
                                              data):
        text = json.dumps(manifest).encode()
        kind = data.draw(st.sampled_from(["truncate", "flip", "retype"]))
        if kind == "truncate":
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        elif kind == "flip":
            flipped = bytearray(text)
            flipped[data.draw(st.integers(0, len(text) - 1))] ^= 1 << \
                data.draw(st.integers(0, 7))
            text = bytes(flipped)
        else:
            doc = json.loads(text)
            target = data.draw(st.sampled_from(
                [doc, doc["balls"][0], doc["checksums"], doc["auth"]]))
            value = data.draw(st.sampled_from(
                [None, True, -1, 1.5, "x", [], {}, [1], {"1": "x"}]))
            target[data.draw(st.sampled_from(sorted(target)))] = value
            text = json.dumps(doc).encode()
        (fuzz_dir / "manifest.json").write_bytes(text)
        try:
            ArtifactStore.open(fuzz_dir).close()
        except StoreError:
            pass


# sha256 of every file the store writes.  The ``*_ARTIFACTS`` digests
# (twiglets.json) were recorded before the tree-enumeration kernel, the
# O(1) label codec, the bulk bloom insert and the one directory writer
# replaced their predecessors, and have not moved since.
# The pack digests (balls.pack, encrypted.pack, manifest.json,
# placement.json) were re-recorded once, by running the same steps, when
# ball record v2 replaced the JSON ball payload: the record bytes, hence
# the ciphertexts, Merkle leaves and roots, changed on purpose; nothing
# derived from the balls' *content* did, which is what the artifact
# digests staying put shows.  The manifests alone (manifest.json,
# shard-N/manifest.json) were re-recorded once more, by running the same
# steps, when the tree artifact (trees.json) went: they no longer list
# its checksum nor carry a "bf" key, and every other digest here is
# unedited.  encrypted.pack and manifest.json carry the cipher's nonces,
# so the tests pin those.  The ciphertext digests (encrypted.pack,
# manifest.json / shard-N/manifest.json and placement.json, which carry
# the Merkle leaves, root and catalog over the ciphertexts) were
# re-recorded once more, by running the same steps, when cipher v2 (the
# SHAKE-256 keystream) replaced SHA-256-CTR: every blob keeps its nonce and
# length, and balls.pack / twiglets.json are unedited.  GOLDEN_R1_CIPHER_V1
# keeps the v1 digests, which tests/cipher_v1.py's writer must reproduce.
# The post-delta ciphertext digests (encrypted.pack and manifest.json after
# the deltas, the split's shard-N/encrypted.pack, shard-N/manifest.json and
# placement.json) were re-recorded once more, by running the same steps,
# when a delta stopped re-encrypting dirty balls whose record bytes did
# not change: fewer nonces are drawn, and balls.pack / twiglets.json are
# unedited.  The JSON documents alone (every manifest.json, including
# GOLDEN_R1_CIPHER_V1's, every shard-N/manifest.json and placement.json)
# were re-recorded once more, by running the same steps, when the writers
# went from ``indent=1`` to compact separators: the same content in fewer
# bytes.  balls.pack, encrypted.pack and twiglets.json are unedited, and
# so is the legacy manifest digest, which tests/legacy_store.py still
# writes with ``indent=1``.
GOLDEN_R1_CIPHER_V1 = {
    "balls.pack":
        "98e5925c72288d576fdc3e28fcfcc00c0ec5570623c601ba04183a66af5cc595",
    "encrypted.pack":
        "bf06e7e447c7626444b4a08f9857885c8e657db2312a1dbbd9a2345d6bbb4cab",
    "manifest.json":
        "e95334adb7493e206b7bcf12bc9b1e8addfb9757ed183257bfd8c709b193a231",
}
GOLDEN_R1 = {
    "balls.pack":
        "98e5925c72288d576fdc3e28fcfcc00c0ec5570623c601ba04183a66af5cc595",
    "encrypted.pack":
        "cc748367c78751d9956ee06b75c0da18de8a0cf61d7b9416071d17f7e6e9a7a0",
    "manifest.json":
        "d50722ce72aac6d67543c1d2c463749f19e7442a035eec7ba4deb3b941fd1a8f",
}
GOLDEN_R1_ARTIFACTS = {
    "twiglets.json":
        "634a99f33f0e76514a2866a4cdcfc0f582a998ba0e8eed32fe22549dbc95b3bf",
}
GOLDEN_R1_AFTER_TWO_DELTAS = {
    "balls.pack":
        "e2bf07014c75cb2520362c2c37d67c8e9e62c7804dc46d3e4888a42132dc47c1",
    "encrypted.pack":
        "7a216967f2780f2f503470e86204200dac2f1d7d068ce929948e5ac00f7e0d90",
    "manifest.json":
        "66942c3315b03e99f3e18cf782e604971cc016731b847e4e7dc60f978b816116",
}
GOLDEN_R1_AFTER_TWO_DELTAS_ARTIFACTS = {
    "twiglets.json":
        "e0a975c8623c9f0ca4ec10dee94dcb493f0bf99364fabc9f8206feb11fd5da89",
}
GOLDEN_R1_AFTER_VERTEX_CHURN = {
    "balls.pack":
        "b9f49bd5b5b57c23a36456703e6229deccc3d304d424975993a6ed434b6432f1",
    "encrypted.pack":
        "24972a2d6466d821a1e0908568a3e76094f548a9e7b44641225097f2de2a17d8",
    "manifest.json":
        "d3aa748cc8ea390c9fca2e0aec79cb37cd20cb2f51f461be2058fbcd24214d5a",
}
GOLDEN_R1_AFTER_VERTEX_CHURN_ARTIFACTS = {
    "twiglets.json":
        "35fdb84e3722b0335ba94693e837991f494c13a8034403411834b519522aed0e",
}
GOLDEN_R1_SHARD_SPLIT = {
    "placement.json":
        "606e4f476cc96ad64688801ba39109a4d117ca4258ba3167ecd9dc1824580f07",
    "shard-0/balls.pack":
        "cfa1bee20e6aad5c8a6e71a27d69b2000f62ea01b318095fd0706794a29505b3",
    "shard-0/encrypted.pack":
        "a323aacbe3723a64fcf13d67c0110c30858005d39bdb1bab15c032fa23f5187c",
    "shard-0/manifest.json":
        "36c9f50ce82492edf814c3f9a3cde60ae6f5ed3d3a0a599e184ea56503ec8132",
    "shard-1/balls.pack":
        "33b58c2a8f739c18e8fb1729b022569967cbb74021a12fed049e46277dad058e",
    "shard-1/encrypted.pack":
        "189636d623f9349f27f2bc5273443bc8308940f39674c0b2a1413a3c83de46ea",
    "shard-1/manifest.json":
        "dc52c17e2da73107c60f46279e2c8facf571949058d1009d40dd94cde8c48ffa",
}
GOLDEN_R1_SHARD_SPLIT_ARTIFACTS = {
    "shard-0/twiglets.json":
        "cd6227c7466a46a3a2bef9634a2c5da6010144204ad8830339d25acff53b1497",
    "shard-1/twiglets.json":
        "5789cc995d1a1862a0874dde5878e23b91efb6140a3a5dd6d69b39cecec424dc",
}
GOLDEN_R2 = {
    "balls.pack":
        "827040f5cfd799f71bf55cfdbb222e3e62a99c3d6d4a7a69b3fe59cd2e15dd66",
    "encrypted.pack":
        "f21cce0270553fd4f83063f925be3ad4fbb0961e379ba5fcb8a70d53eeaaf7b2",
    "manifest.json":
        "86e3e2268008c50459235b4e468a9480491bfe1ee1992cc7caf72c65b67da2cf",
}
GOLDEN_R2_ARTIFACTS = {
    "twiglets.json":
        "af1584142dc778cceca0248d913db2545c4804eba821334b47995f9a841ac740",
}


def _digests(root):
    return {str(path.relative_to(root)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _assert_golden(root, packs, artifacts):
    """``artifacts`` are the v1-era twiglets.json digests, checked on
    their own so a re-recording of ``packs`` cannot move them."""
    digests = _digests(root)
    assert {name: digest for name, digest in digests.items()
            if name.endswith("twiglets.json")} == artifacts
    assert digests == {**packs, **artifacts}


class TestGoldenPackBytes:
    """dblp 0.03 under the CLI-default artifacts (``twiglet_h=3``): what
    the offline step writes is pinned to the byte.

    Re-recorded once for ball record v2 (``balls.pack``,
    ``encrypted.pack``, ``manifest.json`` and the split's
    ``placement.json`` changed because every record did), the
    manifests once more when the tree artifact went, the ciphertext
    digests once more for cipher v2, and the JSON documents once more
    for the compact manifest; the ``twiglets.json`` digests are the ones
    recorded under the v1 payload and must stay so."""

    @pytest.fixture(scope="class")
    def dblp(self):
        return load_dataset("dblp", scale=0.03).graph

    @pytest.fixture(autouse=True)
    def pinned_nonces(self, monkeypatch):
        """The n-th ``os.urandom`` the stream cipher asks for is a hash
        of n: ciphertexts then depend only on the order balls are
        encrypted in, which is part of what the goldens pin."""
        counter = itertools.count()
        monkeypatch.setattr(stream_cipher, "os", SimpleNamespace(
            urandom=lambda n: hashlib.sha256(
                b"golden-nonce:%d" % next(counter)).digest()[:n]))

    def test_radius_1_before_and_after_two_deltas(self, tmp_path, dblp):
        key = DataOwnerKey.generate(11)
        root = tmp_path / "r1"
        store = ArtifactStore.create(root, dblp, (1,), key, twiglet_h=3)
        try:
            _assert_golden(root, GOLDEN_R1, GOLDEN_R1_ARTIFACTS)
            live = dblp.copy()
            for seed in (5, 6):
                delta = random_delta(
                    live, edge_fraction=2.0 / live.num_edges, seed=seed)
                assert store.apply_delta(delta, live, key).reencrypted > 0
            _assert_golden(root, GOLDEN_R1_AFTER_TWO_DELTAS,
                           GOLDEN_R1_AFTER_TWO_DELTAS_ARTIFACTS)
            # One vertex out, one in under a label outside the alphabet:
            # dropped balls and fresh ids, while every ball whose record
            # did not change, dirty or not, keeps its record and
            # ciphertext byte for byte.
            ordered = sorted(live.vertices(), key=repr)
            fresh = "golden-vertex"
            before = {i: store._record(i) for i in store.ball_ids()}
            report = store.apply_delta(GraphDelta(
                added_vertices=((fresh, "golden-label"),),
                removed_vertices=(ordered[7],),
                added_edges=((fresh, ordered[3]), (ordered[5], fresh))),
                live, key)
            assert (report.added, report.removed) == (1, 1)
            survivors = before.keys() - set(report.removed_ball_ids)
            changed = {i for i in survivors
                       if store._record(i)[0] != before[i][0]}
            assert report.reencrypted == len(changed) + report.added == 12
            assert report.dirty > len(changed)
            clean = survivors - changed
            assert report.reused == len(clean) > 0
            assert {i: store._record(i) for i in clean} == {
                i: before[i] for i in clean}
            _assert_golden(root, GOLDEN_R1_AFTER_VERTEX_CHURN,
                           GOLDEN_R1_AFTER_VERTEX_CHURN_ARTIFACTS)
        finally:
            store.close()
        shard_split(root, tmp_path / "split", 2)
        _assert_golden(tmp_path / "split", GOLDEN_R1_SHARD_SPLIT,
                       GOLDEN_R1_SHARD_SPLIT_ARTIFACTS)

    def test_legacy_helper_writes_the_earlier_layout(self, tmp_path, dblp,
                                                     monkeypatch):
        """The v1 cipher writer and ``make_legacy`` turn a fresh pack into
        the earlier releases' byte for byte: its ciphertexts, manifest and
        tree artifact hash to the digests those releases' goldens pinned
        for this pack."""
        root = tmp_path / "r1"
        write_v1_ciphers(monkeypatch)
        ArtifactStore.create(root, dblp, (1,), DataOwnerKey.generate(11),
                             twiglet_h=3).close()
        assert _digests(root) == {**GOLDEN_R1_CIPHER_V1,
                                  **GOLDEN_R1_ARTIFACTS}
        make_legacy(root, dblp)
        assert _digests(root) == {
            **GOLDEN_R1_CIPHER_V1, **GOLDEN_R1_ARTIFACTS,
            "manifest.json":
                "af4e266c518bf7d53c149eeb85ed88521f6ae64213d2752999f82fcf3142045a",
            TREES:
                "5f8cdb867ca05ef8f9ffb2270597e4a6c73ad3da727a4e5688dab1d7c0f13e41",
        }

    def test_radius_2(self, tmp_path, dblp):
        ArtifactStore.create(tmp_path / "r2", dblp, (2,),
                             DataOwnerKey.generate(11), twiglet_h=3).close()
        _assert_golden(tmp_path / "r2", GOLDEN_R2, GOLDEN_R2_ARTIFACTS)
