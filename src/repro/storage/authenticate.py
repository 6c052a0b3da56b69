"""Keyed Merkle accumulator over encrypted ball packs.

The store's tamper sweep (PR 2) already walks every encrypted blob with a
keyed digest; this module turns those per-ball digests into *leaves* of a
Merkle tree whose root is committed into the :class:`ArtifactStore`
manifest and the :class:`~repro.framework.placement.PlacementManifest`.
With the root in hand, a user (or the gateway acting on the user's
behalf) can check two things about any shard's answer slice without
trusting the shard:

* **membership** -- a multiproof that every ball id the shard claims to
  have evaluated is a leaf of the owner's committed pack, and
* **absence** -- an adjacency proof that a given ball id has *no* leaf
  (the pack was built sorted by ball id, so two neighboring leaves
  bracketing the id prove it was never outsourced).

Key separation mirrors the rest of the storage layer: the verification
key is derived from the owner's ball key with its own domain prefix
(:func:`auth_key`), so holding pack bytes (the SP does) never yields the
digesting key, and holding the verification key never yields the
encryption key.  Leaves are *committed at build time*: encryption is
nonce-randomized, so a later re-encryption of the same plaintext would
hash differently -- the manifest's leaf table is the source of truth,
and the tamper sweep cross-checks the pack bytes against it.

Alongside the tree, :func:`build_catalog` commits the *candidate
catalog*: for every (radius, center label) pair, the sorted ball ids
whose center carries that label.  Candidate selection in the engine is
exactly "all balls of the query's diameter centered on a vertex with the
chosen label" (Sec. 4.1's label-based localization), so the catalog lets
a verifier recompute the complete candidate set a shard *should* have
evaluated -- the completeness half of the certificate story in
:mod:`repro.framework.verify` -- without ever seeing the graph.

The tree is binary with an odd-node promotion rule (a lone last node is
carried up unchanged); leaf and interior hashes use distinct domain
prefixes so neither can be confused for the other.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left

from repro.crypto.keys import DataOwnerKey

#: Versioned scheme tag stamped into manifests and certificates.
AUTH_SCHEME = "prilo-auth/1"

_KEY_PREFIX = b"prilo-auth-key:"
_LEAF_PREFIX = b"prilo-auth-leaf:"
_NODE_PREFIX = b"prilo-auth-node:"
_CATALOG_PREFIX = b"prilo-auth-catalog:"


class AuthError(RuntimeError):
    """A proof failed to verify or an auth block is malformed."""


def auth_key(key: DataOwnerKey) -> bytes:
    """The verification key: owner-derived, never shipped to the SP.

    Domain-separated from both the cipher keys and the store digest key,
    so a compromise of any one derivation leaks nothing about the
    others.
    """
    return hashlib.sha256(_KEY_PREFIX + key.ball_key).digest()


def leaf_digest(vkey: bytes, ball_id: int, blob: bytes) -> str:
    """The per-ball leaf: keyed over the *encrypted* blob.

    Binding the ball id into the preimage stops a leaf-swap (serving
    ball A's bytes under ball B's id) from re-validating.
    """
    ident = int(ball_id).to_bytes(8, "big")
    return hashlib.sha256(_LEAF_PREFIX + vkey + ident + blob).hexdigest()


def catalog_digest(vkey: bytes, catalog: dict) -> str:
    """Keyed digest of the candidate catalog (committed next to the
    root so a malicious coordinator cannot shrink a label's ball list)."""
    blob = json.dumps(catalog, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    return hashlib.sha256(_CATALOG_PREFIX + vkey + blob).hexdigest()


def _node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


class MerkleTree:
    """The accumulator: leaves sorted by ball id, odd nodes promoted.

    Built either from ``(ball_id, leaf_hex)`` pairs freshly digested at
    pack-build time, or re-hydrated from a manifest's committed leaf
    table (:meth:`from_leaf_hexes`) on the verifying side.
    """

    def __init__(self, leaves: dict[int, str]) -> None:
        if not leaves:
            raise AuthError("cannot build a Merkle tree over zero leaves")
        self._ids = sorted(int(b) for b in leaves)
        self._leaf_hex = {int(b): str(h) for b, h in leaves.items()}
        self._index = {b: i for i, b in enumerate(self._ids)}
        level = [bytes.fromhex(self._leaf_hex[b]) for b in self._ids]
        self._levels = [level]
        while len(level) > 1:
            nxt = [_node(level[i], level[i + 1])
                   for i in range(0, len(level) - 1, 2)]
            if len(level) % 2:
                nxt.append(level[-1])
            self._levels.append(nxt)
            level = nxt

    @classmethod
    def from_leaf_hexes(cls, leaves: dict) -> "MerkleTree":
        return cls({int(b): str(h) for b, h in leaves.items()})

    @property
    def root_hex(self) -> str:
        return self._levels[-1][0].hex()

    @property
    def ball_ids(self) -> tuple[int, ...]:
        return tuple(self._ids)

    def __contains__(self, ball_id: int) -> bool:
        return int(ball_id) in self._index

    def prove(self, ball_ids) -> dict:
        """A multiproof for ``ball_ids``: their leaves + positions and
        the minimal sibling set needed to re-derive the root.

        Proofs are public data -- anyone holding the (public) manifest
        can build one; what they cannot do is mint a *leaf* without the
        verification key or find a second preimage for the root.
        """
        ids = sorted({int(b) for b in ball_ids})
        missing = [b for b in ids if b not in self._index]
        if missing:
            raise AuthError(f"no leaf for ball id(s) {missing}")
        known = {self._index[b] for b in ids}
        siblings: dict[str, str] = {}
        for lvl in range(len(self._levels) - 1):
            width = len(self._levels[lvl])
            nxt: set[int] = set()
            for idx in known:
                sib = idx ^ 1
                if sib < width and sib not in known:
                    siblings[f"{lvl}:{sib}"] = self._levels[lvl][sib].hex()
                nxt.add(idx // 2)
            known = nxt
        return {
            "scheme": AUTH_SCHEME,
            "width": len(self._ids),
            "leaves": {str(b): self._leaf_hex[b] for b in ids},
            "positions": {str(b): self._index[b] for b in ids},
            "siblings": siblings,
        }

    def prove_absent(self, ball_id: int) -> dict:
        """An absence proof: the (at most two) leaves bracketing
        ``ball_id`` in sorted order, with their positions.  Adjacent
        positions (or a boundary position) prove no leaf fits between."""
        ball_id = int(ball_id)
        if ball_id in self._index:
            raise AuthError(f"ball {ball_id} is present; no absence proof")
        i = bisect_left(self._ids, ball_id)
        witnesses = [self._ids[j] for j in (i - 1, i)
                     if 0 <= j < len(self._ids)]
        proof = self.prove(witnesses)
        proof["absent"] = ball_id
        return proof


def _level_widths(width: int) -> list[int]:
    widths = [width]
    while widths[-1] > 1:
        widths.append((widths[-1] + 1) // 2)
    return widths


def verify_multiproof(root_hex: str, proof: dict) -> dict[int, str]:
    """Re-derive the root from a multiproof; return the proven
    ``{ball_id: leaf_hex}`` map or raise :class:`AuthError`.

    The caller still owns the *semantic* checks (do the proven ids cover
    the claimed candidate set, are the leaf digests the committed ones)
    -- this function only establishes membership under ``root_hex``.
    """
    try:
        width = int(proof["width"])
        leaves = {int(b): str(h) for b, h in proof["leaves"].items()}
        positions = {int(b): int(i) for b, i in proof["positions"].items()}
        siblings = dict(proof["siblings"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise AuthError(f"malformed multiproof: {exc}") from exc
    if width <= 0 or set(leaves) != set(positions):
        raise AuthError("multiproof leaves/positions disagree")
    if not leaves:
        raise AuthError("empty multiproof")
    widths = _level_widths(width)
    nodes: dict[int, bytes] = {}
    for ball_id, idx in positions.items():
        if not 0 <= idx < width:
            raise AuthError(f"leaf position {idx} outside width {width}")
        try:
            nodes[idx] = bytes.fromhex(leaves[ball_id])
        except ValueError as exc:
            raise AuthError(f"bad leaf hex for ball {ball_id}") from exc
    used = 0
    for lvl, lvl_width in enumerate(widths[:-1]):
        nxt: dict[int, bytes] = {}
        for idx in sorted(nodes):
            if idx // 2 in nxt:
                continue
            sib = idx ^ 1
            if sib >= lvl_width:
                # Odd promotion: lone last node carries up unchanged.
                nxt[idx // 2] = nodes[idx]
                continue
            if sib in nodes:
                other = nodes[sib]
            else:
                key = f"{lvl}:{sib}"
                if key not in siblings:
                    raise AuthError(f"multiproof missing sibling {key}")
                try:
                    other = bytes.fromhex(siblings[key])
                except (TypeError, ValueError) as exc:
                    raise AuthError(f"bad sibling hex at {key}") from exc
                used += 1
            left, right = (nodes[idx], other) if idx % 2 == 0 \
                else (other, nodes[idx])
            nxt[idx // 2] = _node(left, right)
        nodes = nxt
    if used != len(siblings):
        raise AuthError("multiproof carries unused sibling nodes")
    derived = nodes.get(0)
    if derived is None or derived.hex() != str(root_hex):
        raise AuthError("multiproof does not derive the committed root")
    return leaves


def verify_absent(root_hex: str, proof: dict) -> int:
    """Check an absence proof; return the proven-absent ball id."""
    try:
        absent = int(proof["absent"])
        width = int(proof["width"])
        positions = {int(b): int(i) for b, i in proof["positions"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise AuthError(f"malformed absence proof: {exc}") from exc
    verify_multiproof(root_hex, proof)
    below = {b: i for b, i in positions.items() if b < absent}
    above = {b: i for b, i in positions.items() if b > absent}
    if set(positions) - set(below) - set(above):
        raise AuthError(f"ball {absent} appears among the witnesses")
    if not below and not above:
        raise AuthError("absence proof carries no bracketing witnesses")
    lo = max(below.values()) if below else -1
    hi = min(above.values()) if above else width
    if below and lo != (hi - 1 if above else width - 1):
        raise AuthError("left witness is not adjacent to the gap")
    if above and not below and hi != 0:
        raise AuthError("right witness is not the first leaf")
    return absent


def build_catalog(entries) -> dict:
    """The candidate catalog from ``(ball_id, radius, label)`` triples:
    ``{str(radius): {repr(label): [sorted ball ids]}}``.

    Labels are keyed by ``repr`` -- the same encoding the manifest uses
    for ball centers -- so the catalog round-trips through JSON for any
    hashable label type.
    """
    catalog: dict[str, dict[str, list[int]]] = {}
    for ball_id, radius, label in entries:
        per_radius = catalog.setdefault(str(int(radius)), {})
        per_radius.setdefault(repr(label), []).append(int(ball_id))
    for per_radius in catalog.values():
        for ids in per_radius.values():
            ids.sort()
    return catalog


def build_auth_block(key: DataOwnerKey, leaves: dict[int, str],
                     catalog: dict) -> dict:
    """The manifest's ``auth`` block: scheme, root, committed leaf
    table, and the keyed candidate catalog."""
    tree = MerkleTree(leaves)
    vkey = auth_key(key)
    return {
        "scheme": AUTH_SCHEME,
        "root": tree.root_hex,
        "leaves": {str(b): h for b, h in sorted(leaves.items())},
        "catalog": catalog,
        "catalog_digest": catalog_digest(vkey, catalog),
    }


def updated_auth_block(key: DataOwnerKey, auth: dict, *,
                       replaced: dict[int, str] | None = None,
                       removed=(), catalog: dict | None = None) -> dict:
    """Incrementally update a committed auth block after a delta.

    ``replaced`` maps ball ids to their fresh leaf digests (dirty balls
    re-encrypted, plus newly added balls); ``removed`` lists ball ids
    whose leaves drop.  Clean balls keep their committed leaves verbatim
    -- their pack bytes were copied, so the build-time digests still
    match -- which is what makes the accumulator update proportional to
    the delta: only the leaf *table* mutation and the O(n) tree re-fold
    happen here, never a re-digest of clean ciphertext.

    ``catalog`` replaces the candidate catalog (label churn cannot be
    patched locally: a relabeled or removed center moves ids between
    per-(radius, label) lists), and its keyed digest is recomputed.
    """
    if auth is None:
        raise AuthError("no auth block to update; rebuild the store")
    leaves = {int(b): str(h) for b, h in auth.get("leaves", {}).items()}
    for ball_id in removed:
        leaves.pop(int(ball_id), None)
    for ball_id, leaf_hex in (replaced or {}).items():
        leaves[int(ball_id)] = str(leaf_hex)
    if catalog is None:
        catalog = auth.get("catalog", {})
    return build_auth_block(key, leaves, catalog)


__all__ = [
    "AUTH_SCHEME",
    "AuthError",
    "MerkleTree",
    "auth_key",
    "build_auth_block",
    "build_catalog",
    "catalog_digest",
    "leaf_digest",
    "updated_auth_block",
    "verify_absent",
    "verify_multiproof",
]
