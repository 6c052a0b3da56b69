"""The persistent offline artifact store (:mod:`repro.storage.store`).

Contract under test: the store is a byte-faithful, staleness-checked,
tamper-evident persistence of the data owner's offline outsourcing
output -- an engine served from it must answer exactly like an engine
that recomputed everything.
"""

import hashlib
import itertools
import shutil
from types import SimpleNamespace

import pytest

from repro.core.bf_pruning import BFConfig
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
    return ArtifactStore.create(
        root, graph, RADII, key, twiglet_h=3,
        bf_config=BFConfig(eta=16, expected_trees=200))


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
        assert len(report.packs) == 4

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


# sha256 of every file the store writes, recorded by running the same
# steps at the commit before ``create`` / ``apply_delta`` / ``shard_split``
# were moved onto one directory writer (balls.pack, trees.json and
# twiglets.json were first recorded before the tree-enumeration kernel,
# the O(1) label codec and the bulk bloom insert replaced their slower
# predecessors, and have not moved since).  encrypted.pack and
# manifest.json carry the cipher's nonces, so the tests pin those.
GOLDEN_R1 = {
    "balls.pack":
        "4bbc961932f57e024904463c3cdf0c62e6cfcee1d39c98f563c711a514ef98c9",
    "encrypted.pack":
        "30642dbab3e4ec23b13650bef4ad0589f15b07b96f266b721837f62f6c86663c",
    "manifest.json":
        "57fb6ea123c087ec3881ed8fa7c566b3c6a21cd934c1f7c060588659753ba1c2",
    "trees.json":
        "5f8cdb867ca05ef8f9ffb2270597e4a6c73ad3da727a4e5688dab1d7c0f13e41",
    "twiglets.json":
        "634a99f33f0e76514a2866a4cdcfc0f582a998ba0e8eed32fe22549dbc95b3bf",
}
GOLDEN_R1_AFTER_TWO_DELTAS = {
    "balls.pack":
        "73fbb06e67d85f5a68fa9aded8e2957bcff2729518eaf23b38b2f072468c3d7c",
    "encrypted.pack":
        "20f921195f1f7fa5647bbac9aca94271644d77bee908136f800010affcfe308a",
    "manifest.json":
        "2c536f640a321f2a6a003c01d285227fa690941c68b817dea5471e6d2700ad2e",
    "trees.json":
        "c5cd9ba83845f181515833dc626a9c20ea7eaa86546827e3fee77061fdcc0faf",
    "twiglets.json":
        "e0a975c8623c9f0ca4ec10dee94dcb493f0bf99364fabc9f8206feb11fd5da89",
}
GOLDEN_R1_AFTER_VERTEX_CHURN = {
    "balls.pack":
        "a8e51d20d66447e7e41c43fc45df49db8a67e5f67f34a27de7e813715cf4cc42",
    "encrypted.pack":
        "2e4c6c003847cc738e54fccb991a6dcf80614479b1b3ccb8be31e5ecd5d63e51",
    "manifest.json":
        "fbbc915c0160382fe8668403e9a54619f34e796a45a65ef441b7cfeab0f9ec6b",
    "trees.json":
        "f74d24b2fb458f54da958f1fce442e269fc0c245c0a757e9034a1ce351ea4660",
    "twiglets.json":
        "35fdb84e3722b0335ba94693e837991f494c13a8034403411834b519522aed0e",
}
GOLDEN_R1_SHARD_SPLIT = {
    "placement.json":
        "fe1c5ee7affc9eae18ea64df9617f02f547cda7562dbdf65489c6b144b57270a",
    "shard-0/balls.pack":
        "edfb7df035823ce8eabd085631be72d839900e9ff38b1d9cc06a78f1b94c4d9a",
    "shard-0/encrypted.pack":
        "78a27f67d3d9d8db6d65a91ec5f55a6e4842d53910baa72bd66a568c0d4e8224",
    "shard-0/manifest.json":
        "c4f8a0fb868dcb8a40d6783865d4ad7c91ca61b119e794bb9d827d8ab308cd6a",
    "shard-0/trees.json":
        "21cb5b11684d2d4e06cbdb63f20d5b96c74913e8d6315001e9c2bd638467ee84",
    "shard-0/twiglets.json":
        "cd6227c7466a46a3a2bef9634a2c5da6010144204ad8830339d25acff53b1497",
    "shard-1/balls.pack":
        "0cb3b8a7bb8e1170c791c613f315dd64a8006bbd47508fa5c5325cfb2b7040c0",
    "shard-1/encrypted.pack":
        "b3588995921a64c6a960bf99ebdded6012024fd77b34db123b2c92303c91600d",
    "shard-1/manifest.json":
        "814ddc6177109559978c8a92085cad376fad239761b33bf947f78b0dbbbe0e8c",
    "shard-1/trees.json":
        "6bd077b232aba65d2b12ff4c02fe62c33d800c9fa3af916f87a6ac209f181f1f",
    "shard-1/twiglets.json":
        "5789cc995d1a1862a0874dde5878e23b91efb6140a3a5dd6d69b39cecec424dc",
}
GOLDEN_R2 = {
    "balls.pack":
        "34df8f2aa2feeee968f29e22e12c1b91c4fe545229a634198964a432ff245ca1",
    "encrypted.pack":
        "e3e4ca3b23216785edfbc84cd045b6612c431940c54d19337bdfc1345a8c64ab",
    "manifest.json":
        "ca306fdb9ad4ea9088895f17560b776acf35611f7641f45cf05d99e68098f9c7",
    "trees.json":
        "90d3327c038b15824ed3570eeefc647031586eb97fbd93bdbf29dac714f32648",
    "twiglets.json":
        "af1584142dc778cceca0248d913db2545c4804eba821334b47995f9a841ac740",
}


def _digests(root):
    return {str(path.relative_to(root)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestGoldenPackBytes:
    """dblp 0.03 under the CLI-default artifacts (``twiglet_h=3``,
    ``BFConfig()``): what the offline step writes is pinned to the byte."""

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
        store = ArtifactStore.create(root, dblp, (1,), key,
                                     twiglet_h=3, bf_config=BFConfig())
        try:
            assert _digests(root) == GOLDEN_R1
            live = dblp.copy()
            for seed in (5, 6):
                delta = random_delta(
                    live, edge_fraction=2.0 / live.num_edges, seed=seed)
                assert store.apply_delta(delta, live, key).reencrypted > 0
            assert _digests(root) == GOLDEN_R1_AFTER_TWO_DELTAS
            # One vertex out, one in under a label outside the alphabet:
            # dropped balls, fresh ids, every tree artifact recoded.
            ordered = sorted(live.vertices(), key=repr)
            fresh = "golden-vertex"
            report = store.apply_delta(GraphDelta(
                added_vertices=((fresh, "golden-label"),),
                removed_vertices=(ordered[7],),
                added_edges=((fresh, ordered[3]), (ordered[5], fresh))),
                live, key)
            assert (report.added, report.removed) == (1, 1)
            assert _digests(root) == GOLDEN_R1_AFTER_VERTEX_CHURN
        finally:
            store.close()
        shard_split(root, tmp_path / "split", 2)
        assert _digests(tmp_path / "split") == GOLDEN_R1_SHARD_SPLIT

    def test_radius_2(self, tmp_path, dblp):
        ArtifactStore.create(tmp_path / "r2", dblp, (2,),
                             DataOwnerKey.generate(11), twiglet_h=3,
                             bf_config=BFConfig()).close()
        assert _digests(tmp_path / "r2") == GOLDEN_R2
