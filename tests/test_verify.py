"""Verifiable answers: Merkle-authenticated packs, per-query result
certificates, and the malicious-SP chaos tier.

The load-bearing assertions: (a) every mutation class a rogue shard can
apply -- forged matches, dropped balls, replayed verdicts -- is caught
by :class:`repro.framework.verify.AnswerVerifier` and attributed to the
right fault kind; (b) a gateway with one rogue shard surfaces ZERO
forged answers and recovers byte-identical answers from honest members,
across all three semantics and both engines; (c) an all-rogue fleet
withholds every answer (FORGED status, exit 6 through the CLI lattice)
rather than surfacing anything unverified.
"""

from __future__ import annotations

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.keys import DataOwnerKey
from repro.framework import wire
from repro.framework.faults import (
    INJECTABLE_KINDS,
    MALICIOUS_KINDS,
    VALID_KINDS,
    ChaosPolicy,
    FaultKind,
)
from repro.framework.gateway import (
    Gateway,
    ShardClient,
    _QueryState,
    check_verdict_shape,
)
from repro.framework.metrics import CacheStats, JournalCounters, RunMetrics
from repro.framework.placement import PlacementManifest
from repro.framework.prilo import Prilo, PriloConfig
from repro.framework.prilo_star import PriloStar
from repro.framework.server import QueryStatus
from repro.framework.shard import LocalCluster, make_shard_specs
from repro.framework.verify import (
    CERT_SCHEME,
    AnswerVerifier,
    Certifier,
    VerificationError,
)
from repro.graph.query import Semantics
from repro.storage import ArtifactStore, shard_split
from repro.storage.authenticate import (
    AuthError,
    MerkleTree,
    auth_key,
    catalog_digest,
    leaf_digest,
    verify_absent,
    verify_multiproof,
)
from repro.workloads.datasets import tiny_dataset

ENGINES = {"prilo": Prilo, "prilo-star": PriloStar}


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset(seed=0, num_vertices=120, num_labels=8)


@pytest.fixture(scope="module")
def vconfig():
    return PriloConfig(k_players=2, modulus_bits=1024, q_bits=24,
                       r_bits=24, radii=(3,), seed=6)


@pytest.fixture(scope="module")
def stores(dataset, vconfig, tmp_path_factory):
    """One authenticated store + 2-shard split per semantics, built
    lazily and cached (ssim uses a different graph than hom/sub-iso)."""
    cache: dict[Semantics, tuple] = {}

    def build(semantics: Semantics):
        if semantics not in cache:
            graph = dataset.graph_for(semantics)
            root = tmp_path_factory.mktemp(f"auth-{semantics.value}")
            store = ArtifactStore.create(
                root / "src", graph, vconfig.radii,
                DataOwnerKey.generate(vconfig.seed))
            shard_split(root / "src", root / "shards", 2)
            cache[semantics] = (store, root / "shards")
        return cache[semantics]

    return build


def _baseline(graph, config, queries, engine_cls):
    engine = engine_cls.setup(graph, config)
    try:
        return [wire.canonical_answer_of_result(engine.run(q))
                for q in queries]
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Merkle accumulator
# ---------------------------------------------------------------------------
class TestMerkle:
    LEAVES = {i: leaf_digest(b"k" * 32, i, b"blob%d" % i)
              for i in (1, 3, 5, 8, 13)}

    def test_root_is_deterministic_and_leaf_sensitive(self):
        a = MerkleTree(dict(self.LEAVES))
        b = MerkleTree(dict(reversed(list(self.LEAVES.items()))))
        assert a.root_hex == b.root_hex  # order-insensitive (sorted ids)
        tampered = dict(self.LEAVES)
        tampered[3] = leaf_digest(b"k" * 32, 3, b"other")
        assert MerkleTree(tampered).root_hex != a.root_hex

    def test_multiproof_round_trip_all_subsets(self):
        tree = MerkleTree(self.LEAVES)
        ids = sorted(self.LEAVES)
        for take in range(1, len(ids) + 1):
            subset = ids[:take]
            proven = verify_multiproof(tree.root_hex, tree.prove(subset))
            assert proven == {i: self.LEAVES[i] for i in subset}

    def test_multiproof_rejects_wrong_root_and_padded_siblings(self):
        tree = MerkleTree(self.LEAVES)
        proof = tree.prove([1, 8])
        with pytest.raises(AuthError):
            verify_multiproof("00" * 32, proof)
        padded = json.loads(json.dumps(proof))
        padded["siblings"]["9:9"] = "ab" * 32  # unused junk sibling
        with pytest.raises(AuthError):
            verify_multiproof(tree.root_hex, padded)

    def test_forged_leaf_fails_the_proof(self):
        tree = MerkleTree(self.LEAVES)
        proof = json.loads(json.dumps(tree.prove([5])))
        proof["leaves"]["5"] = leaf_digest(b"k" * 32, 5, b"forged")
        with pytest.raises(AuthError):
            verify_multiproof(tree.root_hex, proof)

    def test_absence_proofs(self):
        tree = MerkleTree(self.LEAVES)
        for absent in (0, 2, 4, 7, 21):
            assert verify_absent(tree.root_hex,
                                 tree.prove_absent(absent)) == absent
        with pytest.raises(AuthError):
            tree.prove_absent(5)  # present ball has no absence proof


# ---------------------------------------------------------------------------
# Store-side commitment (build time) and tamper sweep
# ---------------------------------------------------------------------------
class TestStoreAuth:
    def test_create_commits_a_consistent_auth_block(self, stores,
                                                    vconfig):
        store, _ = stores(Semantics.HOM)
        auth = store.auth
        assert auth is not None
        tree = MerkleTree.from_leaf_hexes(auth["leaves"])
        assert tree.root_hex == auth["root"]
        vkey = auth_key(DataOwnerKey.generate(vconfig.seed))
        assert catalog_digest(vkey, auth["catalog"]) == \
            auth["catalog_digest"]
        # The catalog partitions the ball space per radius.
        for radius in vconfig.radii:
            listed = sorted(b for ids in auth["catalog"][str(radius)]
                            .values() for b in ids)
            assert len(listed) == len(set(listed))

    def test_keyed_verify_catches_a_leaf_mismatch(self, stores, vconfig):
        store, _ = stores(Semantics.HOM)
        victim = next(iter(store.auth["leaves"]))
        original = store.auth["leaves"][victim]
        store.auth["leaves"][victim] = "0" * 64
        try:
            report = store.verify(DataOwnerKey.generate(vconfig.seed))
            assert report.tampered, \
                "a blob/leaf mismatch must count as tampering"
        finally:
            store.auth["leaves"][victim] = original

    def test_split_propagates_the_global_auth_block(self, stores,
                                                    vconfig):
        store, shards_dir = stores(Semantics.HOM)
        placement = PlacementManifest.read(shards_dir)
        assert placement.auth_root == store.auth["root"]
        assert placement.catalog_digest == store.auth["catalog_digest"]
        for member in placement.members:
            shard = ArtifactStore.open(shards_dir / f"shard-{member}")
            # The full GLOBAL block: orphaned balls that migrate here
            # after a death must still prove against committed leaves.
            assert shard.auth == store.auth

    @pytest.mark.parametrize("auth", ["absent", None])
    def test_placement_without_auth_is_refused(self, stores, tmp_path,
                                               capsys, auth):
        """A cut without an auth block could only be served unverified:
        ``read`` refuses it, and ``gateway --store`` serves nothing."""
        from repro.cli import main
        from repro.framework.placement import PlacementError

        _, shards_dir = stores(Semantics.HOM)
        payload = json.loads((shards_dir / "placement.json").read_text())
        if auth == "absent":
            del payload["auth"]
        else:
            payload["auth"] = auth
        (tmp_path / "placement.json").write_text(json.dumps(payload))
        with pytest.raises(PlacementError, match="no auth block"):
            PlacementManifest.read(tmp_path)
        capsys.readouterr()
        assert main(["--scale", "0.02", "gateway", "slashdot", "--store",
                     str(tmp_path), "--shards", "2", "--count", "2",
                     "--tenants", "1", "--size", "4",
                     "--diameter", "2"]) == 3
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "FAILED: placement manifest has no auth block (written by an "
            "earlier release); rebuild with `repro store build` and "
            "`repro store shard-split`"]


# ---------------------------------------------------------------------------
# Certifier / AnswerVerifier units: every mutation class is caught
# ---------------------------------------------------------------------------
class TestCertificates:
    @pytest.fixture(scope="class")
    def served(self, dataset, vconfig, stores):
        """One honestly-certified verdict plus its verification context."""
        store, _ = stores(Semantics.HOM)
        query = dataset.random_query(size=5, seed=4)
        engine = Prilo.setup(dataset.graph, vconfig, store=store)
        try:
            result = engine.run(query)
            certifier = Certifier(store.auth, seed=vconfig.seed,
                                  config=engine.config,
                                  graph_digest=store.manifest_graph_digest)
            cert = certifier.certify(qid=7, shard_id=0, members=[0],
                                     prev_members=None, result=result)
            verifier = AnswerVerifier.from_store(store, seed=vconfig.seed,
                                                 config=engine.config)
        finally:
            engine.close()
        answer = wire.canonical_answer_of_result(result)
        verdict = {"t": "verdict", "qid": 7, "shard": 0,
                   "status": QueryStatus.OK, "cert": cert,
                   "candidates": answer["candidates"],
                   "pm_positive": answer["pm_positive"],
                   "verified": answer["verified"],
                   "matches": answer["matches"]}
        return SimpleNamespace(query=query, verdict=verdict,
                               verifier=verifier, certifier=certifier,
                               result=result)

    def _fresh(self, served):
        return json.loads(json.dumps(served.verdict))

    def _check(self, served, verdict, qid=7):
        return served.verifier.verify_verdict(
            qid=qid, shard_id=0, members=[0], prev_members=None,
            query=served.query, verdict=verdict)

    def test_honest_verdict_verifies(self, served):
        assert served.result.candidate_ids, "fixture query must have balls"
        proof_bytes = self._check(served, self._fresh(served))
        assert proof_bytes > 0
        assert served.verdict["cert"]["v"] == CERT_SCHEME

    def test_forged_match_is_caught(self, served):
        verdict = self._fresh(served)
        ball = verdict["verified"][0] if verdict["verified"] else \
            verdict["candidates"][0]
        verdict.setdefault("matches", {})
        if str(ball) not in verdict["verified"]:
            verdict["verified"] = sorted(set(verdict["verified"])
                                         | {ball})
            verdict["pm_positive"] = sorted(set(verdict["pm_positive"])
                                            | {ball})
        verdict["matches"][str(ball)] = ['"forged"']
        with pytest.raises(VerificationError) as err:
            self._check(served, verdict)
        assert err.value.kind == FaultKind.FORGE_RESULT

    def test_dropped_ball_is_caught_even_with_a_rebuilt_proof(self,
                                                              served):
        verdict = self._fresh(served)
        dropped = verdict["candidates"].pop()
        verdict["pm_positive"] = [b for b in verdict["pm_positive"]
                                  if b != dropped]
        verdict["verified"] = [b for b in verdict["verified"]
                               if b != dropped]
        verdict["matches"].pop(str(dropped), None)
        # The adversary CAN rebuild the (public) multiproof for the
        # narrowed set -- completeness against the committed catalog is
        # what catches the laziness.
        verdict["cert"]["proof"] = (
            served.certifier.tree.prove(verdict["candidates"])
            if verdict["candidates"] else None)
        with pytest.raises(VerificationError) as err:
            self._check(served, verdict)
        assert err.value.kind == FaultKind.DROP_BALL
        assert str(dropped) in str(err.value)

    def test_replayed_verdict_is_attributed_as_stale(self, served):
        with pytest.raises(VerificationError) as err:
            self._check(served, self._fresh(served), qid=8)
        assert err.value.kind == FaultKind.REPLAY_STALE

    def test_foreign_membership_is_attributed_as_stale(self, served):
        verdict = self._fresh(served)
        with pytest.raises(VerificationError) as err:
            served.verifier.verify_verdict(
                qid=7, shard_id=0, members=[0, 1], prev_members=None,
                query=served.query, verdict=verdict)
        assert err.value.kind == FaultKind.REPLAY_STALE

    def test_config_fingerprint_mismatch_is_stale(self, served, stores,
                                                  vconfig):
        store, _ = stores(Semantics.HOM)
        other = AnswerVerifier.from_store(
            store, seed=vconfig.seed,
            config=replace(vconfig, radii=(2,)))
        with pytest.raises(VerificationError) as err:
            other.verify_verdict(qid=7, shard_id=0, members=[0],
                                 prev_members=None, query=served.query,
                                 verdict=self._fresh(served))
        assert err.value.kind == FaultKind.REPLAY_STALE

    def test_missing_certificate_is_forgery(self, served):
        verdict = self._fresh(served)
        del verdict["cert"]
        with pytest.raises(VerificationError) as err:
            self._check(served, verdict)
        assert err.value.kind == FaultKind.FORGE_RESULT

    def test_containment_violation_is_forgery(self, served):
        verdict = self._fresh(served)
        alien = max(verdict["candidates"]) + 1000
        verdict["verified"] = sorted(verdict["verified"] + [alien])
        with pytest.raises(VerificationError) as err:
            self._check(served, verdict)
        assert err.value.kind == FaultKind.FORGE_RESULT

    @pytest.mark.parametrize("mutate", [
        lambda v: v["candidates"].insert(0, "x"),
        lambda v: v.__setitem__("candidates", None),
        lambda v: v.__setitem__("matches", []),
        lambda v: v.__setitem__("verified", {"a": 1}),
        lambda v: v["cert"].__setitem__("label", []),
        lambda v: v["cert"]["proof"]["siblings"].update(
            {k: 7 for k in v["cert"]["proof"]["siblings"]}),
    ], ids=["str-candidate", "null-candidates", "list-matches",
            "dict-verified", "list-label", "int-sibling"])
    def test_malformed_verdict_is_forgery(self, served, mutate):
        verdict = self._fresh(served)
        assert verdict["cert"]["proof"]["siblings"], \
            "fixture proof must carry siblings"
        mutate(verdict)
        with pytest.raises(VerificationError) as err:
            self._check(served, verdict)
        assert err.value.kind == FaultKind.FORGE_RESULT

    @given(data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fuzzed_verdict_verifies_or_is_refused(self, served, data):
        """Truncated, re-typed and bit-flipped verdicts: the verifier
        returns or raises VerificationError, never anything else."""
        verdict = self._fresh(served)
        how = data.draw(st.sampled_from(["drop", "retype", "flip"]))
        if how == "flip":
            raw = bytearray(json.dumps(verdict).encode())
            bit = data.draw(st.integers(0, 8 * len(raw) - 1))
            raw[bit >> 3] ^= 1 << (bit & 7)
            try:
                verdict = json.loads(raw)
            except ValueError:
                return  # the wire decoder refuses it before any verifier
            if not isinstance(verdict, dict):
                return
        else:
            paths = list(_json_paths(verdict))
            path = data.draw(st.sampled_from(paths))
            parent = verdict
            for step in path[:-1]:
                parent = parent[step]
            if how == "drop":
                if isinstance(parent, list):
                    del parent[path[-1]:]
                else:
                    del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_JSON_VALUES)
        try:
            self._check(served, verdict)
        except VerificationError:
            pass

    def test_tampered_catalog_is_refused_at_construction(self, stores,
                                                         vconfig):
        store, _ = stores(Semantics.HOM)
        broken = json.loads(json.dumps(store.auth))
        radius = next(iter(broken["catalog"]))
        label = next(iter(broken["catalog"][radius]))
        broken["catalog"][radius][label] = []
        fake_store = SimpleNamespace(
            auth=broken, manifest_graph_digest=store.manifest_graph_digest)
        with pytest.raises(VerificationError) as err:
            AnswerVerifier.from_store(fake_store, seed=vconfig.seed,
                                      config=vconfig)
        assert err.value.kind == FaultKind.FORGE_RESULT

    def test_verifier_requires_an_auth_root(self):
        with pytest.raises(VerificationError):
            AnswerVerifier(root_hex="", catalog={}, vkey=b"k", jkey=b"j",
                           fingerprint="f")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5)


def _json_paths(value, prefix=()):
    """Every key / index path into a JSON document, parents first."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for step, child in children:
        yield prefix + (step,)
        yield from _json_paths(child, prefix + (step,))


# ---------------------------------------------------------------------------
# Malicious-SP kinds in the chaos vocabulary
# ---------------------------------------------------------------------------
class TestMaliciousKinds:
    def test_kinds_are_valid_but_not_injectable(self):
        for kind in (FaultKind.FORGE_RESULT, FaultKind.DROP_BALL,
                     FaultKind.REPLAY_STALE):
            assert kind in MALICIOUS_KINDS
            assert kind in VALID_KINDS
            # Never part of the default engine-side schedule: a rogue
            # shard is opt-in, like kill_process.
            assert kind not in INJECTABLE_KINDS

    def test_policy_accepts_malicious_kinds(self):
        policy = ChaosPolicy(seed=3, fault_rate=1.0,
                             kinds=MALICIOUS_KINDS)
        assert policy.decides(FaultKind.FORGE_RESULT, "shard1:q0")


# ---------------------------------------------------------------------------
# Gateway matrix: one rogue shard across 3 semantics x pruning
# ---------------------------------------------------------------------------
class TestRogueGateway:
    @pytest.mark.parametrize("semantics", list(Semantics))
    @pytest.mark.parametrize("engine", ["prilo", "prilo-star"])
    def test_one_rogue_shard_recovers_byte_identically(
            self, dataset, vconfig, stores, semantics, engine):
        _, shards_dir = stores(semantics)
        graph = dataset.graph_for(semantics)
        engine_cls = ENGINES[engine]
        queries = dataset.random_queries(3, size=5, semantics=semantics,
                                         seed=4)
        expected = _baseline(graph, vconfig, queries, engine_cls)
        placement = PlacementManifest.read(shards_dir)
        verifier = AnswerVerifier.from_placement(
            placement, seed=vconfig.seed,
            config=engine_cls.effective_config(vconfig))
        specs = make_shard_specs(
            graph, vconfig, 2, engine=engine,
            store_root=str(shards_dir), rogue_shards=(1,),
            rogue_policy=ChaosPolicy(seed=5, fault_rate=1.0,
                                     kinds=MALICIOUS_KINDS))
        with LocalCluster(specs) as cluster:
            report = Gateway(cluster.handles, verifier=verifier).run(
                queries)
        assert report.verify_enabled
        assert report.forgeries_detected > 0, \
            "the rogue shard must have been caught lying"
        assert report.evictions == [1]
        assert report.forged == 0, "no forged answer may be surfaced"
        assert [o.status for o in report.outcomes] == \
            [QueryStatus.OK] * len(queries)
        for i, answer in enumerate(report.answers):
            assert wire.answer_bytes(answer) == \
                wire.answer_bytes(expected[i]), \
                f"query {i}: recovered answer diverges from baseline"

    def test_all_rogue_fleet_withholds_every_answer(self, dataset,
                                                    vconfig, stores):
        _, shards_dir = stores(Semantics.HOM)
        queries = dataset.random_queries(2, size=5, seed=4)
        verifier = AnswerVerifier.from_placement(
            PlacementManifest.read(shards_dir), seed=vconfig.seed,
            config=Prilo.effective_config(vconfig))
        specs = make_shard_specs(
            dataset.graph, vconfig, 2, engine="prilo",
            store_root=str(shards_dir), rogue_shards=(0, 1),
            rogue_policy=ChaosPolicy(seed=5, fault_rate=1.0,
                                     kinds=(FaultKind.FORGE_RESULT,)))
        with LocalCluster(specs) as cluster:
            report = Gateway(cluster.handles, verifier=verifier).run(
                queries)
        assert report.forged == len(queries)
        assert all(o.status == QueryStatus.FORGED
                   for o in report.outcomes)
        assert all(answer is None for answer in report.answers), \
            "a forged answer leaked through the verifier"
        assert report.completed == 0
        assert len(report.outcomes) == len(queries), \
            "withheld queries must still terminate the batch"

    def test_malformed_ok_verdict_evicts_the_shard(self, dataset, vconfig,
                                                   stores, monkeypatch):
        """A shard whose OK verdicts are of the wrong shape is a forger:
        evicted, its slices re-served, the answers unchanged -- the
        gateway never dies on the raw exception."""
        _, shards_dir = stores(Semantics.HOM)
        queries = dataset.random_queries(2, size=5, seed=4)
        expected = _baseline(dataset.graph, vconfig, queries, Prilo)
        request = ShardClient.request

        async def malformed(client, payload):
            verdict = await request(client, payload)
            if (client.shard_id == 1 and verdict.get("t") == "verdict"
                    and verdict.get("status") == QueryStatus.OK):
                verdict["candidates"] = ["x"] + verdict["candidates"]
            return verdict

        monkeypatch.setattr(ShardClient, "request", malformed)
        verifier = AnswerVerifier.from_placement(
            PlacementManifest.read(shards_dir), seed=vconfig.seed,
            config=Prilo.effective_config(vconfig))
        specs = make_shard_specs(dataset.graph, vconfig, 2,
                                 engine="prilo",
                                 store_root=str(shards_dir))
        with LocalCluster(specs) as cluster:
            report = Gateway(cluster.handles, verifier=verifier).run(
                queries)
        assert report.forgeries_detected > 0
        assert report.evictions == [1]
        assert report.forged == 0
        for i, answer in enumerate(report.answers):
            assert wire.answer_bytes(answer) == \
                wire.answer_bytes(expected[i])

    def test_honest_fleet_passes_verification_with_zero_forgeries(
            self, dataset, vconfig, stores):
        _, shards_dir = stores(Semantics.HOM)
        queries = dataset.random_queries(2, size=5, seed=4)
        expected = _baseline(dataset.graph, vconfig, queries, Prilo)
        verifier = AnswerVerifier.from_placement(
            PlacementManifest.read(shards_dir), seed=vconfig.seed,
            config=Prilo.effective_config(vconfig))
        specs = make_shard_specs(dataset.graph, vconfig, 2,
                                 engine="prilo",
                                 store_root=str(shards_dir))
        with LocalCluster(specs) as cluster:
            report = Gateway(cluster.handles, verifier=verifier).run(
                queries)
        assert report.forgeries_detected == 0
        assert report.proofs_checked >= len(queries)
        assert report.proof_bytes > 0
        for i, answer in enumerate(report.answers):
            assert wire.answer_bytes(answer) == \
                wire.answer_bytes(expected[i])


# ---------------------------------------------------------------------------
# The counters the merge reads after the verifier (busy, caches, ops,
# journal, status): one shape check, with or without --no-verify
# ---------------------------------------------------------------------------
#: Wrong-shaped telemetry a rogue shard can put on an OK verdict; each one
#: used to raise out of ``Gateway._absorb`` (or, for the status, withhold
#: the answer).
_TELEMETRY_MUTATIONS = {
    "busy": lambda v: v.__setitem__("busy", "x"),
    "caches": lambda v: v.__setitem__("caches", [1]),
    "ops": lambda v: v.__setitem__("ops", {"evaluation/player:0":
                                           {"modmul": "x"}}),
    "journal": lambda v: v.__setitem__("journal", ["checkpoints_written"]),
    "status": lambda v: v.__setitem__("status", "bogus"),
}

#: An honest verdict's shape, as ``wire.verdict_payload`` writes it.
_HONEST_VERDICT = {
    "t": "verdict", "qid": 0, "shard": 0, "status": QueryStatus.OK,
    "detail": "", "busy": 0.25,
    "caches": {"pad": CacheStats(hits=3, misses=2).as_dict(),
               "cmm": CacheStats(entries=4, weight=9,
                                 capacity=100).as_dict()},
    "ops": {"evaluation/player:0": {"modmul": 12, "modexp": 1,
                                    "table_build": 3}},
    "journal": JournalCounters(checkpoints_written=2).as_dict(),
    "candidates": [3, 5, 8], "pm_positive": [3, 8], "verified": [8],
    "matches": {"8": ['{"e": []}']},
}


def _absorb_once(verdict: dict) -> None:
    """``Gateway._absorb`` on the merge state of a one-query batch."""
    gateway = Gateway([SimpleNamespace(shard_id=0, host="", port=0)])
    gateway._states = [_QueryState()]
    gateway._busy = {0: 0.0}
    gateway._metrics = RunMetrics()
    gateway._absorb(0, {"qid": 0}, verdict)


class TestTelemetryShape:
    def test_honest_verdict_passes_and_merges(self):
        check_verdict_shape(json.loads(json.dumps(_HONEST_VERDICT)))
        _absorb_once(json.loads(json.dumps(_HONEST_VERDICT)))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_verdict_is_refused_or_merges(self, data):
        """Dropped and re-typed fields anywhere in a verdict: the shape
        check refuses it as a forgery, or the merge absorbs it without
        raising."""
        verdict = json.loads(json.dumps(_HONEST_VERDICT))
        path = data.draw(st.sampled_from(list(_json_paths(verdict))))
        parent = verdict
        for step in path[:-1]:
            parent = parent[step]
        if data.draw(st.booleans()):
            if isinstance(parent, list):
                del parent[path[-1]:]
            else:
                del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(
                _JSON_VALUES | st.floats() | st.integers(-3, -1))
        try:
            check_verdict_shape(verdict)
        except VerificationError as err:
            assert err.kind == FaultKind.FORGE_RESULT
            return
        _absorb_once(verdict)

    @pytest.mark.parametrize("field", sorted(_TELEMETRY_MUTATIONS))
    def test_check_refuses_each_field(self, field):
        verdict = json.loads(json.dumps(_HONEST_VERDICT))
        _TELEMETRY_MUTATIONS[field](verdict)
        with pytest.raises(VerificationError, match=field) as err:
            check_verdict_shape(verdict)
        assert err.value.kind == FaultKind.FORGE_RESULT

    @pytest.mark.parametrize("field,verify", [
        ("busy", False), ("caches", True), ("journal", False),
        ("ops", True), ("status", False),
    ], ids=lambda v: v if isinstance(v, str)
        else ("verified" if v else "no-verify"))
    def test_malformed_telemetry_evicts_the_shard(
            self, dataset, vconfig, stores, monkeypatch, field, verify):
        """Shard 1 puts wrong-shaped telemetry on its OK verdicts: it is
        evicted like a forger, its slices re-served, the answers equal
        an honest run's byte for byte -- verifier or not."""
        _, shards_dir = stores(Semantics.HOM)
        queries = dataset.random_queries(2, size=5, seed=4)
        expected = _baseline(dataset.graph, vconfig, queries, Prilo)
        request = ShardClient.request

        async def rogue(client, payload):
            verdict = await request(client, payload)
            if (client.shard_id == 1 and verdict.get("t") == "verdict"
                    and verdict.get("status") == QueryStatus.OK):
                _TELEMETRY_MUTATIONS[field](verdict)
            return verdict

        monkeypatch.setattr(ShardClient, "request", rogue)
        verifier = AnswerVerifier.from_placement(
            PlacementManifest.read(shards_dir), seed=vconfig.seed,
            config=Prilo.effective_config(vconfig)) if verify else None
        specs = make_shard_specs(dataset.graph, vconfig, 2, engine="prilo",
                                 store_root=str(shards_dir))
        with LocalCluster(specs) as cluster:
            report = Gateway(cluster.handles, verifier=verifier).run(
                queries)
        assert report.forgeries_detected > 0
        assert report.evictions == [1]
        assert [o.status for o in report.outcomes] == \
            [QueryStatus.OK] * len(queries)
        for i, answer in enumerate(report.answers):
            assert wire.answer_bytes(answer) == \
                wire.answer_bytes(expected[i])


# ---------------------------------------------------------------------------
# Exit-code lattice and the Prometheus verify counters
# ---------------------------------------------------------------------------
class TestExitLattice:
    def test_forged_ranks_between_leakage_and_integrity(self):
        from repro.cli import (
            EXIT_FORGED,
            EXIT_INTEGRITY,
            EXIT_LEAKAGE,
            combine_exit,
        )

        assert EXIT_FORGED == 6
        assert combine_exit(EXIT_LEAKAGE, EXIT_FORGED) == EXIT_FORGED
        assert combine_exit(EXIT_FORGED, EXIT_INTEGRITY) == EXIT_INTEGRITY
        assert combine_exit(0, EXIT_FORGED) == EXIT_FORGED
        assert combine_exit(EXIT_FORGED, 1) == 1

    def test_gateway_exit_code_folds_forged_over_deadline(self):
        from repro.cli import EXIT_FORGED, _statuses_exit

        report = SimpleNamespace(outcomes=[
            SimpleNamespace(status=QueryStatus.FORGED),
            SimpleNamespace(status=QueryStatus.DEADLINE_EXCEEDED),
            SimpleNamespace(status=QueryStatus.OK),
        ])
        assert _statuses_exit(report) == EXIT_FORGED
        honest = SimpleNamespace(outcomes=[
            SimpleNamespace(status=QueryStatus.OK)])
        assert _statuses_exit(honest) == 0


class TestVerifyMetrics:
    def test_gateway_prometheus_text_exports_verify_counters(self):
        from repro.observability import gateway_prometheus_text

        report = SimpleNamespace(summary=lambda: {
            "queries": 4, "shards": 2, "makespan_seconds": 0.5,
            "statuses": ["ok", "ok", "ok", "forged(result)"],
            "verify": {"enabled": True, "proofs_checked": 9,
                       "forgeries_detected": 2, "evictions": [1],
                       "forged_answers": 1, "proof_bytes": 1234,
                       "verify_seconds": 0.01}})
        text = gateway_prometheus_text(report)
        assert 'repro_verify_total{result="checked"} 9' in text
        assert 'repro_verify_total{result="forgery"} 2' in text
        assert 'repro_verify_total{result="evicted"} 1' in text
        assert 'repro_verify_total{result="withheld"} 1' in text
        assert 'repro_gateway_outcomes_total{status="forged(result)"} 1' \
            in text
        assert "repro_verify_proof_bytes_total 1234" in text
