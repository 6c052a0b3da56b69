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
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.twiglets import twiglets_from
from repro.crypto import stream_cipher
from repro.crypto.keys import DataOwnerKey
from repro.framework.prilo_star import PriloStar
from repro.graph.ball import BallIndex
from repro.graph.delta import GraphDelta, random_delta
from repro.graph.io import graph_from_json, graph_to_json
from repro.storage import (
    ArtifactStore,
    StoreError,
    StoreStale,
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
    return ArtifactStore.create(root, graph, RADII, key)


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

    @pytest.mark.parametrize("h", [None, 3, 4, 5])
    def test_create_builds_every_admitted_twiglet_h(self, tmp_path, graph,
                                                    key, store, h):
        """Every ``twiglet_h`` an earlier release's ``create`` admitted
        built a pack this release opens, verifies and reads as ``create``
        builds it now; under ``None`` that pack is, byte for byte, what
        ``create`` writes."""
        root = tmp_path / "earlier"
        ArtifactStore.create(root, graph, RADII, key).close()
        written = {path.name: path.read_bytes() for path in root.iterdir()}
        _as_earlier_build(root, h)
        if h is None:
            assert {path.name: path.read_bytes()
                    for path in root.iterdir()} == written
        with ArtifactStore.open(root) as opened:
            assert opened.verify(key).ok
            assert opened.ball_ids() == store.ball_ids()
            ball_id = store.ball_ids()[0]
            assert (set(opened.load_ball(ball_id).graph.edges())
                    == set(store.load_ball(ball_id).graph.edges()))


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


def _as_earlier_build(root, h=3) -> None:
    """Lay the pack at ``root`` out as an earlier release's ``store
    build`` wrote it at twiglet height ``h`` (3 was its default, ``None``
    its ``--no-twiglets``): every ball's full-alphabet twiglets at ``h`` in
    twiglets.json, ``"twiglet_h": h`` in the manifest, and the checksum to
    match."""
    balls = {}
    if h is not None:
        with ArtifactStore.open(root) as store:
            for ball_id in store.ball_ids():
                ball = store.load_ball(ball_id)
                # No fork sorts first, as that release sorted them.
                balls[str(ball_id)] = sorted(
                    twiglets_from(ball.graph, ball.center, h),
                    key=lambda t: (t.path, t.fork or ()))
        assert any(balls.values())
    document = json.dumps({"balls": balls, "h": h}, separators=(",", ":"),
                          sort_keys=True).encode("utf-8")
    (root / "twiglets.json").write_bytes(document)
    manifest = json.loads((root / "manifest.json").read_bytes())
    manifest["twiglet_h"] = h
    manifest["checksums"]["twiglets.json"] = hashlib.sha256(
        document).hexdigest()
    (root / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, separators=(",", ":")),
        encoding="utf-8")


class TestEarlierDefaultBuild:
    """A pack an earlier release's default build wrote holds twiglet
    features nothing reads: it opens, verifies and serves like a rebuilt
    pack, and its next commit writes the empty twiglet document with a
    null ``twiglet_h``."""

    @pytest.fixture
    def earlier(self, tmp_path, graph, key):
        root = tmp_path / "earlier"
        ArtifactStore.create(root, graph, RADII, key).close()
        _as_earlier_build(root)
        return root

    def test_opens_verifies_and_answers_as_a_rebuild(
            self, earlier, store, dataset, test_config, capsys):
        assert main(["--seed", str(SEED), "store", "verify", str(earlier),
                     "--with-key"]) == 0
        assert "twiglets.json: ok" in capsys.readouterr().out
        config = replace(test_config, radii=RADII, seed=SEED)
        query = dataset.random_queries(1, size=4, diameter=2, seed=21)[0]
        with ArtifactStore.open(earlier) as opened:
            served = PriloStar.setup(dataset.graph, config,
                                     store=opened).run(query)
        rebuilt = PriloStar.setup(dataset.graph, config,
                                  store=store).run(query)
        assert served.match_ball_ids == rebuilt.match_ball_ids
        assert served.verified_ids == rebuilt.verified_ids
        assert served.pm_per_method == rebuilt.pm_per_method

    def test_first_delta_and_split_write_no_twiglets(self, earlier, graph,
                                                     key, tmp_path):
        shard_split(earlier, tmp_path / "shards", 2)
        live = graph.copy()
        with ArtifactStore.open(earlier) as opened:
            assert opened.apply_delta(random_delta(
                live, edge_fraction=2.0 / live.num_edges, seed=5),
                live, key).reencrypted > 0
        for root in (earlier, tmp_path / "shards" / "shard-0",
                     tmp_path / "shards" / "shard-1"):
            assert (root / "twiglets.json").read_text("utf-8") == (
                '{"balls":{},"h":null}')
            manifest = json.loads((root / "manifest.json").read_bytes())
            assert manifest["twiglet_h"] is None
            with ArtifactStore.open(root) as opened:
                assert opened.verify(key).ok


#: How each earlier release's manifest differs from the current one.
_EARLIER_LAYOUTS = {
    "version-1": lambda m: {**m, "version": 1},
    "no-auth": lambda m: {k: v for k, v in m.items() if k != "auth"},
    "null-auth": lambda m: {**m, "auth": None},
    "no-ball-ids": lambda m: {k: v for k, v in m.items() if k != "ball_ids"},
    "tree-artifact": lambda m: {**m, "bf": {}, "checksums": {
        **m["checksums"], "trees.json": "0" * 64}},
}


class TestEarlierLayouts:
    """A manifest an earlier release wrote is refused when opened, as
    stale (CLI: ``STALE:`` exit 2): ``repro store build`` regenerates the
    pack; nothing reads the old layout."""

    @pytest.fixture(params=sorted(_EARLIER_LAYOUTS))
    def earlier(self, request, store, tmp_path):
        root = tmp_path / "earlier"
        shutil.copytree(store.root, root)
        manifest = json.loads((root / "manifest.json").read_text("utf-8"))
        (root / "manifest.json").write_text(
            json.dumps(_EARLIER_LAYOUTS[request.param](manifest)))
        return root

    def test_open_raises_store_stale(self, earlier):
        with pytest.raises(StoreStale, match="written by an earlier "
                                             "release"):
            ArtifactStore.open(earlier)

    def test_every_command_exits_stale(self, earlier, tmp_path, capsys):
        for argv in (
                ["store", "verify", str(earlier), "--with-key"],
                ["store", "apply-delta", str(earlier), "slashdot",
                 str(tmp_path / "deltas")],
                ["store", "shard-split", str(earlier), str(tmp_path / "out"),
                 "--shards", "2"],
                ["--scale", "0.05", "run", "slashdot", "--size", "4",
                 "--diameter", "2", "--store", str(earlier)]):
            capsys.readouterr()
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            stale = [line for line in out.splitlines()
                     if line.startswith("STALE:")]
            assert len(stale) == 1, argv
            assert "written by an earlier release" in stale[0]
            assert "Traceback" not in out + err
        assert not (tmp_path / "out").exists()


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


# sha256 of every file the store writes.  The pack digests (balls.pack,
# encrypted.pack, manifest.json, placement.json) were re-recorded once, by
# running the same steps, when ball record v2 replaced the JSON ball
# payload: the record bytes, hence the ciphertexts, Merkle leaves and
# roots, changed on purpose.  The manifests alone (manifest.json,
# shard-N/manifest.json) were re-recorded once more, by running the same
# steps, when the tree artifact (trees.json) went: they no longer list
# its checksum nor carry a "bf" key, and every other digest here is
# unedited.  encrypted.pack and manifest.json carry the cipher's nonces,
# so the tests pin those.  The ciphertext digests (encrypted.pack,
# manifest.json / shard-N/manifest.json and placement.json, which carry
# the Merkle leaves, root and catalog over the ciphertexts) were
# re-recorded once more, by running the same steps, when cipher v2 (the
# SHAKE-256 keystream) replaced SHA-256-CTR: every blob keeps its nonce and
# length, and balls.pack is unedited.
# The post-delta ciphertext digests (encrypted.pack and manifest.json after
# the deltas, the split's shard-N/encrypted.pack, shard-N/manifest.json and
# placement.json) were re-recorded once more, by running the same steps,
# when a delta stopped re-encrypting dirty balls whose record bytes did
# not change: fewer nonces are drawn, and balls.pack is unedited.  The
# JSON documents alone (every manifest.json, every shard-N/manifest.json
# and placement.json) were re-recorded once more, by running the same
# steps, when the writers went from ``indent=1`` to compact separators:
# the same content in fewer bytes.
# The twiglet documents and the manifests alone (twiglets.json,
# manifest.json and their shard-N/ copies) were re-recorded once more
# when the store stopped writing twiglet features: they are now the bytes
# an earlier release wrote for a build without them (null ``twiglet_h``,
# empty twiglets.json), and balls.pack, encrypted.pack and placement.json
# are unedited.
#: sha256 of ``{"balls":{},"h":null}``, the twiglets.json every commit
#: writes.
NO_TWIGLETS = (
    "079f0958fb84e77325f23709e67d13f9b9f3286f15585245ba6ea0b7a4d698c7")
GOLDEN_R1 = {
    "balls.pack":
        "98e5925c72288d576fdc3e28fcfcc00c0ec5570623c601ba04183a66af5cc595",
    "encrypted.pack":
        "cc748367c78751d9956ee06b75c0da18de8a0cf61d7b9416071d17f7e6e9a7a0",
    "manifest.json":
        "fc785b2a7b65412ad70ef59354210bec372bff557581806eac0fc090ff3efc33",
    "twiglets.json": NO_TWIGLETS,
}
GOLDEN_R1_AFTER_TWO_DELTAS = {
    "balls.pack":
        "e2bf07014c75cb2520362c2c37d67c8e9e62c7804dc46d3e4888a42132dc47c1",
    "encrypted.pack":
        "7a216967f2780f2f503470e86204200dac2f1d7d068ce929948e5ac00f7e0d90",
    "manifest.json":
        "0565d85e0a2b66b5b183a60be6bb517b0f0a35cfbbe6485b1b37306f6581073d",
    "twiglets.json": NO_TWIGLETS,
}
GOLDEN_R1_AFTER_VERTEX_CHURN = {
    "balls.pack":
        "b9f49bd5b5b57c23a36456703e6229deccc3d304d424975993a6ed434b6432f1",
    "encrypted.pack":
        "24972a2d6466d821a1e0908568a3e76094f548a9e7b44641225097f2de2a17d8",
    "manifest.json":
        "7dd36a737c08233183706ab59f41af414415a19b026c1907d4e808d49f7e334b",
    "twiglets.json": NO_TWIGLETS,
}
GOLDEN_R1_SHARD_SPLIT = {
    "placement.json":
        "606e4f476cc96ad64688801ba39109a4d117ca4258ba3167ecd9dc1824580f07",
    "shard-0/balls.pack":
        "cfa1bee20e6aad5c8a6e71a27d69b2000f62ea01b318095fd0706794a29505b3",
    "shard-0/encrypted.pack":
        "a323aacbe3723a64fcf13d67c0110c30858005d39bdb1bab15c032fa23f5187c",
    "shard-0/manifest.json":
        "a4f188ec4df3c43123a59a95d4266082ddd30d74faa699755c7ff7deab733c8f",
    "shard-1/balls.pack":
        "33b58c2a8f739c18e8fb1729b022569967cbb74021a12fed049e46277dad058e",
    "shard-1/encrypted.pack":
        "189636d623f9349f27f2bc5273443bc8308940f39674c0b2a1413a3c83de46ea",
    "shard-1/manifest.json":
        "d10e53e66cf6ede3d60ff89b6bd4388ae89a461079c625b06785fd7203a66ad9",
    "shard-0/twiglets.json": NO_TWIGLETS,
    "shard-1/twiglets.json": NO_TWIGLETS,
}
GOLDEN_R2 = {
    "balls.pack":
        "827040f5cfd799f71bf55cfdbb222e3e62a99c3d6d4a7a69b3fe59cd2e15dd66",
    "encrypted.pack":
        "f21cce0270553fd4f83063f925be3ad4fbb0961e379ba5fcb8a70d53eeaaf7b2",
    "manifest.json":
        "c7cefa495fb306538055efca4a34af5c8a9136b1e0ddf7a2b2861f61f295474d",
    "twiglets.json": NO_TWIGLETS,
}


def _digests(root):
    return {str(path.relative_to(root)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestGoldenPackBytes:
    """dblp 0.03 as ``store build`` lays it out: what the offline step
    writes is pinned to the byte.

    Re-recorded once for ball record v2 (``balls.pack``,
    ``encrypted.pack``, ``manifest.json`` and the split's
    ``placement.json`` changed because every record did), the
    manifests once more when the tree artifact went, the ciphertext
    digests once more for cipher v2, the JSON documents once more for
    the compact manifest, and the twiglet documents and manifests once
    more when the store stopped writing twiglet features."""

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
        store = ArtifactStore.create(root, dblp, (1,), key)
        try:
            assert _digests(root) == GOLDEN_R1
            live = dblp.copy()
            for seed in (5, 6):
                delta = random_delta(
                    live, edge_fraction=2.0 / live.num_edges, seed=seed)
                assert store.apply_delta(delta, live, key).reencrypted > 0
            assert _digests(root) == GOLDEN_R1_AFTER_TWO_DELTAS
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
            assert _digests(root) == GOLDEN_R1_AFTER_VERTEX_CHURN
        finally:
            store.close()
        shard_split(root, tmp_path / "split", 2)
        assert _digests(tmp_path / "split") == GOLDEN_R1_SHARD_SPLIT

    def test_radius_2(self, tmp_path, dblp):
        ArtifactStore.create(tmp_path / "r2", dblp, (2,),
                             DataOwnerKey.generate(11)).close()
        assert _digests(tmp_path / "r2") == GOLDEN_R2
