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


# sha256 of every file the store writes.  The ``*_ARTIFACTS`` digests
# (trees.json, twiglets.json) were recorded before the tree-enumeration
# kernel, the O(1) label codec, the bulk bloom insert and the one
# directory writer replaced their predecessors, and have not moved since.
# The pack digests (balls.pack, encrypted.pack, manifest.json,
# placement.json) were re-recorded once, by running the same steps, when
# ball record v2 replaced the JSON ball payload: the record bytes, hence
# the ciphertexts, Merkle leaves and roots, changed on purpose; nothing
# derived from the balls' *content* did, which is what the artifact
# digests staying put shows.  encrypted.pack and manifest.json carry the
# cipher's nonces, so the tests pin those.
GOLDEN_R1 = {
    "balls.pack":
        "98e5925c72288d576fdc3e28fcfcc00c0ec5570623c601ba04183a66af5cc595",
    "encrypted.pack":
        "bf06e7e447c7626444b4a08f9857885c8e657db2312a1dbbd9a2345d6bbb4cab",
    "manifest.json":
        "af4e266c518bf7d53c149eeb85ed88521f6ae64213d2752999f82fcf3142045a",
}
GOLDEN_R1_ARTIFACTS = {
    "trees.json":
        "5f8cdb867ca05ef8f9ffb2270597e4a6c73ad3da727a4e5688dab1d7c0f13e41",
    "twiglets.json":
        "634a99f33f0e76514a2866a4cdcfc0f582a998ba0e8eed32fe22549dbc95b3bf",
}
GOLDEN_R1_AFTER_TWO_DELTAS = {
    "balls.pack":
        "e2bf07014c75cb2520362c2c37d67c8e9e62c7804dc46d3e4888a42132dc47c1",
    "encrypted.pack":
        "8354406ca94743807cf0e50bd708b48021e8d4d9ef4775f4a020a1cdd36b35f4",
    "manifest.json":
        "0861f7200e2f50e6d0249af0adf1cdfb315d6039cced178b0b00349d168108ea",
}
GOLDEN_R1_AFTER_TWO_DELTAS_ARTIFACTS = {
    "trees.json":
        "c5cd9ba83845f181515833dc626a9c20ea7eaa86546827e3fee77061fdcc0faf",
    "twiglets.json":
        "e0a975c8623c9f0ca4ec10dee94dcb493f0bf99364fabc9f8206feb11fd5da89",
}
GOLDEN_R1_AFTER_VERTEX_CHURN = {
    "balls.pack":
        "b9f49bd5b5b57c23a36456703e6229deccc3d304d424975993a6ed434b6432f1",
    "encrypted.pack":
        "e0570be5bdab141c8c21bed087c2a4f72faa41abf93ce3280acf8e346856f589",
    "manifest.json":
        "4d3ed3a429464baaaf967976d3ca24f9611d06cf9ebe0ceb57a2d4f216e7f697",
}
GOLDEN_R1_AFTER_VERTEX_CHURN_ARTIFACTS = {
    "trees.json":
        "f74d24b2fb458f54da958f1fce442e269fc0c245c0a757e9034a1ce351ea4660",
    "twiglets.json":
        "35fdb84e3722b0335ba94693e837991f494c13a8034403411834b519522aed0e",
}
GOLDEN_R1_SHARD_SPLIT = {
    "placement.json":
        "2091fd1952904a11b5db1eef36f8749068be578f603d642d10b78a54c01b8b0e",
    "shard-0/balls.pack":
        "cfa1bee20e6aad5c8a6e71a27d69b2000f62ea01b318095fd0706794a29505b3",
    "shard-0/encrypted.pack":
        "a65b5856e83eac07e9b7ece22e12b6c55e44b6fa180dbeb300e5c03b2f7754a5",
    "shard-0/manifest.json":
        "45afce6d374e7c035e9e0d322ca24900f3eaab776132cbc780552c1d8419c5db",
    "shard-1/balls.pack":
        "33b58c2a8f739c18e8fb1729b022569967cbb74021a12fed049e46277dad058e",
    "shard-1/encrypted.pack":
        "d46aec7e4920737a78ac78af58a60d4bbcd0717e01b5e887fab4ba2f36b11ed0",
    "shard-1/manifest.json":
        "541da7e9cb329212dbc2d548efccb91bf65a810105bffb9188bf2ce41b16ab21",
}
GOLDEN_R1_SHARD_SPLIT_ARTIFACTS = {
    "shard-0/trees.json":
        "21cb5b11684d2d4e06cbdb63f20d5b96c74913e8d6315001e9c2bd638467ee84",
    "shard-0/twiglets.json":
        "cd6227c7466a46a3a2bef9634a2c5da6010144204ad8830339d25acff53b1497",
    "shard-1/trees.json":
        "6bd077b232aba65d2b12ff4c02fe62c33d800c9fa3af916f87a6ac209f181f1f",
    "shard-1/twiglets.json":
        "5789cc995d1a1862a0874dde5878e23b91efb6140a3a5dd6d69b39cecec424dc",
}
GOLDEN_R2 = {
    "balls.pack":
        "827040f5cfd799f71bf55cfdbb222e3e62a99c3d6d4a7a69b3fe59cd2e15dd66",
    "encrypted.pack":
        "e7920f939d7cc41ed80ebe8795cf2074d21aee9b065a8692e8d159cfca762a15",
    "manifest.json":
        "c7e5b8b3618fd718982be1c0c9b1411a58d1663826e31461298b80295f45a9e2",
}
GOLDEN_R2_ARTIFACTS = {
    "trees.json":
        "90d3327c038b15824ed3570eeefc647031586eb97fbd93bdbf29dac714f32648",
    "twiglets.json":
        "af1584142dc778cceca0248d913db2545c4804eba821334b47995f9a841ac740",
}


def _digests(root):
    return {str(path.relative_to(root)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _assert_golden(root, packs, artifacts):
    """``artifacts`` are the v1-era twiglets.json / trees.json digests,
    checked on their own so a re-recording of ``packs`` cannot move them."""
    digests = _digests(root)
    assert {name: digest for name, digest in digests.items()
            if name.endswith(("twiglets.json", "trees.json"))} == artifacts
    assert digests == {**packs, **artifacts}


class TestGoldenPackBytes:
    """dblp 0.03 under the CLI-default artifacts (``twiglet_h=3``,
    ``BFConfig()``): what the offline step writes is pinned to the byte.

    Re-recorded once for ball record v2 (``balls.pack``,
    ``encrypted.pack``, ``manifest.json`` and the split's
    ``placement.json`` changed because every record did); the
    ``twiglets.json`` / ``trees.json`` digests are the ones recorded
    under the v1 payload and must stay so."""

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
            _assert_golden(root, GOLDEN_R1, GOLDEN_R1_ARTIFACTS)
            live = dblp.copy()
            for seed in (5, 6):
                delta = random_delta(
                    live, edge_fraction=2.0 / live.num_edges, seed=seed)
                assert store.apply_delta(delta, live, key).reencrypted > 0
            _assert_golden(root, GOLDEN_R1_AFTER_TWO_DELTAS,
                           GOLDEN_R1_AFTER_TWO_DELTAS_ARTIFACTS)
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
            _assert_golden(root, GOLDEN_R1_AFTER_VERTEX_CHURN,
                           GOLDEN_R1_AFTER_VERTEX_CHURN_ARTIFACTS)
        finally:
            store.close()
        shard_split(root, tmp_path / "split", 2)
        _assert_golden(tmp_path / "split", GOLDEN_R1_SHARD_SPLIT,
                       GOLDEN_R1_SHARD_SPLIT_ARTIFACTS)

    def test_radius_2(self, tmp_path, dblp):
        ArtifactStore.create(tmp_path / "r2", dblp, (2,),
                             DataOwnerKey.generate(11), twiglet_h=3,
                             bf_config=BFConfig()).close()
        _assert_golden(tmp_path / "r2", GOLDEN_R2, GOLDEN_R2_ARTIFACTS)
