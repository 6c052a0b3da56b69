"""Per-query result certificates: the untrusted-shard serving contract.

PR 7's gateway trusted its shards: whatever slice a shard returned was
merged into the user's answer.  This module removes that trust.  Every
shard verdict now travels with a *certificate* that the gateway (acting
for the user, who holds the owner-derived keys) checks before the slice
touches the merge -- the "verified user-side at decrypt time" step of
the verifiable-graph-search setting (PAPERS.md).

A certificate proves two properties about one shard's slice of one
query, against the Merkle root and candidate catalog the data owner
committed at pack-build time (:mod:`repro.storage.authenticate`):

* **completeness** -- the shard evaluated *exactly* the candidate set it
  owed: the committed catalog lists every ball id of the query's
  (radius, chosen label) class, the placement ring determines which of
  those this shard owns under ``(members, prev_members)``, and a Merkle
  multiproof ties each claimed candidate to a committed leaf.  A lazy
  shard that silently skips a ball (``DROP_BALL``) cannot produce a
  matching candidate set.
* **soundness** -- the answer slice is the one an honest engine computed
  under this exact ``(query, shard, membership, config)`` coordinate:
  the certificate carries the PR 4 journal ``answer_digest`` and a
  *binding digest*, both keyed with owner-derived keys the SP never
  holds.  A forged match set (``FORGE_RESULT``) fails the recomputed
  digests; a replayed stale verdict (``REPLAY_STALE``) binds the wrong
  query id or membership.

The adversary modeled is the malicious-SP chaos tier
(:data:`repro.framework.faults.MALICIOUS_KINDS`): it may mutate any
verdict field and rebuild any *public* artifact (Merkle proofs are
public), but holds neither :func:`~repro.storage.authenticate.auth_key`
nor :func:`~repro.storage.journal.journal_key` -- the same key
discipline as the store tamper sweep and journal digests it extends.
"""

from __future__ import annotations

import hashlib
import json

from repro.crypto.keys import DataOwnerKey
from repro.framework import wire
from repro.framework.faults import FaultKind
from repro.framework.placement import orphan_predicate
from repro.storage.authenticate import (
    AuthError,
    MerkleTree,
    auth_key,
    catalog_digest,
    verify_multiproof,
)
from repro.storage.journal import answer_digest, config_fingerprint, \
    journal_key

#: Versioned certificate scheme tag.
CERT_SCHEME = "prilo-cert/1"

_BIND_PREFIX = b"prilo-cert-bind:"


class VerificationError(RuntimeError):
    """A verdict's certificate failed; ``kind`` attributes the failure
    to a malicious-SP fault class for the fault report."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(b) is int for b in value)


def _id_key(value) -> bool:
    return (isinstance(value, str) and value.isascii()
            and value.isdigit())


#: Every certificate field :meth:`Certifier.certify` writes, and the test
#: its value must pass.
_CERT_FIELDS = {
    "v": lambda v: isinstance(v, str),
    "root": lambda v: isinstance(v, str),
    "qid": lambda v: type(v) is int,
    "shard": lambda v: type(v) is int,
    "members": _int_list,
    "prev_members": lambda v: v is None or _int_list(v),
    "fingerprint": lambda v: isinstance(v, str),
    "label": lambda v: isinstance(v, str),
    "proof": lambda v: v is None or isinstance(v, dict),
    "answer_digest": lambda v: isinstance(v, str),
    "binding": lambda v: isinstance(v, str),
}


def slice_problems(verdict: dict) -> list[str]:
    """The answer-slice fields of ``verdict`` that have the wrong shape:
    the id lists must be lists of ints, ``matches`` must map decimal
    ball-id strings to lists of strings."""
    problems = [name for name in ("candidates", "pm_positive", "verified")
                if not _int_list(verdict.get(name))]
    matches = verdict.get("matches")
    if not (isinstance(matches, dict) and all(
            _id_key(k) and isinstance(v, list)
            and all(isinstance(s, str) for s in v)
            for k, v in matches.items())):
        problems.append("matches")
    return problems


def _check_shape(verdict: dict, cert: dict) -> None:
    """The one shape check before any verdict field is used: the answer
    slice (:func:`slice_problems`) and every certificate field has its
    type.  A verdict of any other shape is forged -- never a raw
    exception in the gateway."""
    problems = slice_problems(verdict)
    problems += [f"cert.{name}" for name, ok in _CERT_FIELDS.items()
                 if name not in cert or not ok(cert[name])]
    if problems:
        raise VerificationError(
            FaultKind.FORGE_RESULT,
            f"malformed verdict: {', '.join(problems)} missing or of the "
            f"wrong shape")


def binding_digest(vkey: bytes, *, qid: int, shard_id: int, members,
                   prev_members, fingerprint: str, answer: dict,
                   ans_digest: str) -> str:
    """The soundness digest: keyed over the full verdict coordinate.

    Covers the canonical answer bytes (candidates included, so even a
    dropped *unverified* candidate breaks it), the journal answer
    digest, and the dispatch coordinate ``(qid, shard, members,
    prev_members, config fingerprint)`` -- which is what makes replaying
    a genuinely-signed verdict under another query or membership
    detectable.
    """
    payload = json.dumps({
        "qid": int(qid),
        "shard": int(shard_id),
        "members": sorted(int(m) for m in members),
        "prev_members": (None if prev_members is None
                         else sorted(int(m) for m in prev_members)),
        "fingerprint": fingerprint,
        "answer_digest": ans_digest,
        "answer": answer,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(_BIND_PREFIX + vkey + payload).hexdigest()


class Certifier:
    """Shard-side certificate builder.

    Lives next to the engine inside each shard process.  Note the trust
    story: an *honest* shard builds certificates with keys derived from
    the owner seed its operator was provisioned with; the rogue layer in
    :mod:`repro.framework.shard` mutates verdicts *after* this builder
    ran, modeling an adversary who can tamper with data but not mint
    keyed digests.
    """

    def __init__(self, auth: dict, *, seed: int, config,
                 graph_digest: str) -> None:
        key = DataOwnerKey.generate(seed)
        self._vkey = auth_key(key)
        self._jkey = journal_key(seed)
        self._fingerprint = config_fingerprint(config, graph_digest)
        self._tree = MerkleTree.from_leaf_hexes(auth["leaves"])
        if self._tree.root_hex != auth["root"]:
            raise AuthError("auth block root does not match its leaves")

    @property
    def root_hex(self) -> str:
        return self._tree.root_hex

    @property
    def tree(self) -> MerkleTree:
        return self._tree

    def certify(self, *, qid: int, shard_id: int, members, prev_members,
                result) -> dict:
        """The certificate for one shard-local :class:`QueryResult`."""
        answer = wire.canonical_answer_of_result(result)
        ans_digest = answer_digest(self._jkey, result.verified_ids,
                                   result.match_ball_ids,
                                   result.num_matches)
        cert = {
            "v": CERT_SCHEME,
            "root": self._tree.root_hex,
            "qid": int(qid),
            "shard": int(shard_id),
            "members": sorted(int(m) for m in members),
            "prev_members": (None if prev_members is None
                             else sorted(int(m) for m in prev_members)),
            "fingerprint": self._fingerprint,
            "label": repr(result.chosen_label),
            "proof": self._tree.prove(result.candidate_ids)
            if result.candidate_ids else None,
            "answer_digest": ans_digest,
        }
        cert["binding"] = binding_digest(
            self._vkey, qid=qid, shard_id=shard_id, members=members,
            prev_members=prev_members, fingerprint=self._fingerprint,
            answer=answer, ans_digest=ans_digest)
        return cert


class AnswerVerifier:
    """User/gateway-side verifier: holds the committed root + catalog
    and the owner-derived keys, and judges one verdict at a time.

    Construction itself is defensive: :meth:`from_placement` re-derives
    the catalog digest under the user's key and refuses a catalog the
    coordinator (or anyone on disk) has edited.
    """

    def __init__(self, *, root_hex: str, catalog: dict, vkey: bytes,
                 jkey: bytes, fingerprint: str) -> None:
        if not root_hex:
            raise VerificationError(
                FaultKind.FORGE_RESULT,
                "no committed auth root: rebuild the pack (store build) "
                "to serve verified")
        self._root = str(root_hex)
        self._catalog = catalog or {}
        self._vkey = vkey
        self._jkey = jkey
        self._fingerprint = fingerprint

    @classmethod
    def from_placement(cls, placement, *, seed: int,
                       config) -> "AnswerVerifier":
        key = DataOwnerKey.generate(seed)
        vkey = auth_key(key)
        if (catalog_digest(vkey, placement.catalog)
                != placement.catalog_digest):
            raise VerificationError(
                FaultKind.FORGE_RESULT,
                "candidate catalog fails its keyed digest (tampered "
                "placement manifest)")
        return cls(root_hex=placement.auth_root, catalog=placement.catalog,
                   vkey=vkey, jkey=journal_key(seed),
                   fingerprint=config_fingerprint(config,
                                                  placement.graph_digest))

    @classmethod
    def from_store(cls, store, *, seed: int, config) -> "AnswerVerifier":
        """Verifier straight off an (unsplit) :class:`ArtifactStore` --
        the single-shard / testing path."""
        auth = store.auth
        key = DataOwnerKey.generate(seed)
        vkey = auth_key(key)
        if catalog_digest(vkey, auth["catalog"]) != auth["catalog_digest"]:
            raise VerificationError(
                FaultKind.FORGE_RESULT,
                "candidate catalog fails its keyed digest")
        return cls(root_hex=auth["root"], catalog=auth["catalog"],
                   vkey=vkey, jkey=journal_key(seed),
                   fingerprint=config_fingerprint(
                       config, store.manifest_graph_digest))

    @property
    def root_hex(self) -> str:
        return self._root

    def expected_candidates(self, *, shard_id: int, members, prev_members,
                            radius: int, label: str) -> list[int]:
        """The slice this shard owed: the committed (radius, label)
        class filtered by the placement ring -- recomputed entirely from
        owner-committed data, never from anything the shard sent."""
        class_ids = self._catalog.get(str(int(radius)), {}).get(label, [])
        keep = orphan_predicate(shard_id, members, prev_members)
        return sorted(int(b) for b in class_ids if keep(int(b)))

    def verify_verdict(self, *, qid: int, shard_id: int, members,
                       prev_members, query, verdict: dict) -> int:
        """Judge one OK verdict; return the proof size in bytes.

        Raises :class:`VerificationError` with the attributed fault kind
        on any failure.  Checks run cheapest-first and
        attribution-first: a stale replay is named as such before the
        binding digest (which it would also fail) gets a say.
        """
        cert = verdict.get("cert")
        if not isinstance(cert, dict):
            raise VerificationError(
                FaultKind.FORGE_RESULT,
                f"shard {shard_id} returned no certificate for q{qid}")
        if cert.get("v") != CERT_SCHEME:
            raise VerificationError(
                FaultKind.FORGE_RESULT,
                f"unknown certificate scheme {cert.get('v')!r}")
        _check_shape(verdict, cert)
        if cert.get("root") != self._root:
            raise VerificationError(
                FaultKind.FORGE_RESULT,
                f"certificate root {str(cert.get('root'))[:12]} is not "
                f"the committed pack root")
        members_now = sorted(int(m) for m in members)
        prev_now = (None if prev_members is None
                    else sorted(int(m) for m in prev_members))
        if (cert.get("qid") != int(qid)
                or cert.get("shard") != int(shard_id)
                or cert.get("members") != members_now
                or cert.get("prev_members") != prev_now):
            raise VerificationError(
                FaultKind.REPLAY_STALE,
                f"certificate is bound to q{cert.get('qid')} / shard "
                f"{cert.get('shard')} / members {cert.get('members')}, "
                f"not this dispatch (q{qid}, shard {shard_id}, "
                f"members {members_now})")
        if cert.get("fingerprint") != self._fingerprint:
            raise VerificationError(
                FaultKind.REPLAY_STALE,
                "certificate was produced under a different config "
                "fingerprint")

        candidates = verdict["candidates"]
        pm_positive = verdict["pm_positive"]
        verified = verdict["verified"]
        matches = verdict["matches"]

        # Membership: every claimed candidate has a committed leaf.
        proof = cert.get("proof")
        proof_bytes = 0
        if candidates:
            if proof is None:
                raise VerificationError(
                    FaultKind.FORGE_RESULT,
                    "non-empty candidate set without a Merkle proof")
            try:
                proven = verify_multiproof(self._root, proof)
            except AuthError as exc:
                raise VerificationError(
                    FaultKind.FORGE_RESULT,
                    f"Merkle multiproof rejected: {exc}") from exc
            proof_bytes = len(json.dumps(proof, separators=(",", ":")))
            if set(proven) != set(candidates):
                raise VerificationError(
                    FaultKind.FORGE_RESULT,
                    "multiproof covers a different ball set than the "
                    "claimed candidates")
        elif proof is not None:
            raise VerificationError(
                FaultKind.FORGE_RESULT,
                "empty candidate set but a non-empty Merkle proof")

        # Completeness: the claimed candidates are exactly the owed
        # slice of the committed (radius, label) class.
        expected = self.expected_candidates(
            shard_id=shard_id, members=members, prev_members=prev_members,
            radius=query.diameter, label=cert["label"])
        if sorted(candidates) != expected:
            missing = sorted(set(expected) - set(candidates))
            extra = sorted(set(candidates) - set(expected))
            detail = (f"omitted {missing[:5]}" if missing
                      else f"claims unowned balls {extra[:5]}")
            raise VerificationError(
                FaultKind.DROP_BALL,
                f"incomplete candidate set for q{qid}: shard {shard_id} "
                f"{detail} (owed {len(expected)} ball(s) of its "
                f"committed slice)")

        # Pipeline containment: pruning only ever narrows (Props. 3-6).
        if not (set(verified) <= set(pm_positive) <= set(candidates)):
            raise VerificationError(
                FaultKind.FORGE_RESULT,
                "verdict violates candidate ⊇ pm_positive ⊇ verified "
                "containment")
        match_ids = [int(b) for b in matches]
        if not set(match_ids) <= set(verified):
            raise VerificationError(
                FaultKind.FORGE_RESULT,
                "verdict reports matches on unverified balls")

        # Soundness: recompute both keyed digests from the verdict.
        num_matches = sum(len(v) for v in matches.values())
        if answer_digest(self._jkey, verified, match_ids,
                         num_matches) != cert.get("answer_digest"):
            raise VerificationError(
                FaultKind.FORGE_RESULT,
                f"answer digest mismatch for q{qid}: the match set was "
                f"not produced by a keyed engine run")
        answer = wire.canonical_answer(candidates, pm_positive, verified,
                                       matches)
        expected_binding = binding_digest(
            self._vkey, qid=qid, shard_id=shard_id, members=members,
            prev_members=prev_members, fingerprint=self._fingerprint,
            answer=answer, ans_digest=cert["answer_digest"])
        if cert.get("binding") != expected_binding:
            raise VerificationError(
                FaultKind.FORGE_RESULT,
                f"binding digest mismatch for q{qid}: verdict bytes were "
                f"altered after certification")
        return proof_bytes


__all__ = [
    "AnswerVerifier",
    "CERT_SCHEME",
    "Certifier",
    "VerificationError",
    "binding_digest",
]
