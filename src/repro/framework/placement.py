"""Consistent-hash ball placement for the sharded serving gateway.

The gateway partitions the *ball space* -- not the graph -- across N
serving shards: every shard holds the full (public, SP-owned) data graph
but evaluates only the candidate balls it owns, so the union of per-shard
verdicts over any member set is exactly the single-engine answer
(per-ball evaluation is a pure function of the query message and the
ball; see ``tests/test_gateway.py``).

Placement is a classic consistent-hash ring (sha256 points, virtual
nodes): every member contributes ``vnodes`` ring points, and a ball
belongs to the member owning the first ring point clockwise from the
ball's own hash point.  The property the gateway's recovery path relies
on is *minimal movement*: removing a member relocates exactly that
member's balls onto the survivors and moves nothing else -- so after a
shard death the orphaned slice is precisely ``owned(now) - owned(before)``
per survivor, and re-issuing a query with ``(members, prev_members)``
re-covers the dead shard's balls without recomputing anything a live
shard already answered.

Everything here is deterministic: the ring is a pure function of
``(salt, vnodes, member ids)`` and a ball's owner a pure function of the
ring and the ball id.  The geometry is fixed -- :data:`DEFAULT_VNODES`
and :data:`DEFAULT_SALT` are the only values the system places balls
with -- so shards, the ``store shard-split`` cutter and the gateway's
verifier agree on placement without ever exchanging it.  ``HashRing``,
:func:`ring_for` and :func:`orphan_predicate` keep them as keyword
arguments because they are the algorithm's own parameters (the
minimal-movement property holds at any vnode count); a ``placement.json``
naming another geometry is refused.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

#: Ring points contributed per member.  64 keeps the worst-case member
#: imbalance under ~20% on the paper's ball counts while the ring stays
#: tiny (N*64 points).
DEFAULT_VNODES = 64
#: Namespaces the ring's hash points; split packs record it (and
#: ``vnodes``) so a pack cut under another ring is refused, not served.
DEFAULT_SALT = "prilo-ring"

#: File name of the placement manifest a ``store shard-split`` writes
#: next to the shard pack directories.
PLACEMENT_FILE = "placement.json"
_PLACEMENT_KIND = "prilo-placement/1"


class PlacementError(RuntimeError):
    """Invalid ring parameters or a malformed placement manifest."""


#: Placement key -> JSON type.  ``auth`` holds exactly the
#: ``_AUTH_SHAPE`` keys.
_SHAPE = {"members": list, "vnodes": int, "salt": str, "shards": dict,
          "graph_digest": str, "radii": list, "balls": int, "auth": dict}
_AUTH_SHAPE = {"root": str, "catalog": dict, "catalog_digest": str}


def _check_shape(payload) -> None:
    """Raise :class:`PlacementError` unless the parsed ``payload`` has the
    shape :meth:`PlacementManifest.from_jsonable` reads (CLI: ``FAILED:``
    exit 3, not a traceback).  JSON decodes to exact types, and
    ``type(x) is int`` also refuses ``true``.  A shard directory must be a
    bare name: a placement never points outside its own directory, and
    the ring geometry must be the fixed one: a pack cut under another
    ring would own balls its shards do not hold."""
    if type(payload) is not dict:
        raise PlacementError("malformed placement manifest: not a JSON "
                             "object")
    if payload.get("kind") != _PLACEMENT_KIND:
        raise PlacementError(
            f"not a placement manifest (kind={payload.get('kind')!r})")
    if payload.get("auth") is None:
        # A cut of a pack without an auth block: its answers could not be
        # verified, so it is not served at all.
        raise PlacementError(
            "placement manifest has no auth block (written by an earlier "
            "release); rebuild with `repro store build` and "
            "`repro store shard-split`")
    for name, kind in _SHAPE.items():
        if type(payload.get(name)) is not kind:
            raise PlacementError(
                f"malformed placement manifest: bad {name!r}")
    geometry = (payload["vnodes"], payload["salt"])
    if geometry != (DEFAULT_VNODES, DEFAULT_SALT):
        raise PlacementError(
            f"malformed placement manifest: ring geometry (vnodes, salt) "
            f"{geometry!r} is not the fixed "
            f"{(DEFAULT_VNODES, DEFAULT_SALT)!r}")
    members, shards = payload["members"], payload["shards"]
    auth = payload["auth"]
    if not (members and all(type(m) is int for m in members)
            and all(type(r) is int for r in payload["radii"])
            and shards.keys() == {str(m) for m in members}
            and all(type(info) is dict and info.keys() == {"dir", "balls"}
                    and type(info["dir"]) is str
                    and os.path.basename(info["dir"]) == info["dir"]
                    and info["dir"] not in ("", ".", "..")
                    and type(info["balls"]) is int
                    for info in shards.values())
            and auth.keys() == _AUTH_SHAPE.keys()
            and all(type(auth[key]) is kind
                    for key, kind in _AUTH_SHAPE.items())):
        raise PlacementError("malformed placement manifest: bad member, "
                             "radius, shard entry or auth block")


def _hash64(payload: str) -> int:
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring over integer shard ids.

    ``owner_of`` is O(log(members * vnodes)); construction is cached by
    callers that see many member tuples (see :func:`ring_for`).
    """

    def __init__(self, members, *, vnodes: int = DEFAULT_VNODES,
                 salt: str = DEFAULT_SALT) -> None:
        members = tuple(sorted(set(int(m) for m in members)))
        if not members:
            raise PlacementError("a hash ring needs at least one member")
        if vnodes < 1:
            raise PlacementError("vnodes must be positive")
        self.members = members
        self.vnodes = vnodes
        self.salt = salt
        points: list[tuple[int, int]] = []
        for member in members:
            for replica in range(vnodes):
                points.append(
                    (_hash64(f"{salt}:member:{member}:{replica}"), member))
        # Sort by (point, member): the member tiebreak makes a (vanishingly
        # unlikely) point collision deterministic rather than input-ordered.
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [m for _, m in points]

    def owner_of(self, ball_id: int) -> int:
        """The member owning ``ball_id`` (first ring point clockwise)."""
        point = _hash64(f"{self.salt}:ball:{ball_id}")
        i = bisect_left(self._points, point)
        if i == len(self._points):
            i = 0
        return self._owners[i]

    def assign(self, ball_ids) -> dict[int, list[int]]:
        """Partition ``ball_ids`` by owner; every member gets an entry
        (possibly empty), ids stay in input order."""
        out: dict[int, list[int]] = {m: [] for m in self.members}
        for ball_id in ball_ids:
            out[self.owner_of(ball_id)].append(ball_id)
        return out


_RING_CACHE: dict[tuple, HashRing] = {}


def ring_for(members, *, vnodes: int = DEFAULT_VNODES,
             salt: str = DEFAULT_SALT) -> HashRing:
    """Memoized :class:`HashRing` -- shards re-derive rings per request
    (the member set travels with every query), so repeated construction
    for the same membership must be free."""
    key = (tuple(sorted(set(int(m) for m in members))), vnodes, salt)
    ring = _RING_CACHE.get(key)
    if ring is None:
        ring = HashRing(key[0], vnodes=vnodes, salt=salt)
        _RING_CACHE[key] = ring
    return ring


@dataclass(frozen=True)
class PlacementManifest:
    """What ``store shard-split`` records about a cut: the members (with
    the fixed ring geometry, sufficient to re-derive every assignment)
    plus per-shard directory names and ball counts for operator
    inspection.

    ``graph_digest``/``radii`` pin the placement to the store it was cut
    from, so a gateway can refuse to serve shard packs against the wrong
    graph the same way :meth:`ArtifactStore.check` does.
    """

    members: tuple[int, ...]
    graph_digest: str
    radii: tuple[int, ...]
    balls: int
    shard_dirs: dict[int, str]
    shard_balls: dict[int, int]
    #: Merkle root of the source pack's auth block: what the gateway's
    #: merge-time verifier checks certificates against.
    auth_root: str
    #: The committed candidate catalog ({radius: {label: [ball ids]}})
    #: and its owner-keyed digest; the verifier refuses the catalog when
    #: the digest does not check out under the user's derived key.
    catalog: dict
    catalog_digest: str

    def ring(self) -> HashRing:
        return ring_for(self.members)

    def shard_of(self, ball_id: int) -> int:
        return self.ring().owner_of(ball_id)

    def to_jsonable(self) -> dict:
        return {
            "kind": _PLACEMENT_KIND,
            "members": list(self.members),
            "vnodes": DEFAULT_VNODES,
            "salt": DEFAULT_SALT,
            "graph_digest": self.graph_digest,
            "radii": list(self.radii),
            "balls": self.balls,
            "shards": {
                str(m): {"dir": self.shard_dirs[m],
                         "balls": self.shard_balls[m]}
                for m in self.members
            },
            "auth": {
                "root": self.auth_root,
                "catalog": self.catalog,
                "catalog_digest": self.catalog_digest,
            },
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "PlacementManifest":
        _check_shape(payload)
        shards = payload["shards"]
        auth = payload["auth"]
        return cls(
            members=tuple(payload["members"]),
            graph_digest=payload["graph_digest"],
            radii=tuple(payload["radii"]),
            balls=payload["balls"],
            shard_dirs={int(m): info["dir"] for m, info in shards.items()},
            shard_balls={int(m): info["balls"]
                         for m, info in shards.items()},
            auth_root=auth["root"],
            catalog=auth["catalog"],
            catalog_digest=auth["catalog_digest"],
        )

    def write(self, root: str | Path) -> Path:
        """Write ``placement.json`` through temp file + rename, as the
        store writer does: a crash mid-write leaves the previous file (or
        none), never a truncated one."""
        path = Path(root) / PLACEMENT_FILE
        tmp = path.with_name(PLACEMENT_FILE + ".tmp")
        tmp.write_text(json.dumps(self.to_jsonable(), sort_keys=True,
                                  separators=(",", ":")) + "\n",
                       encoding="utf-8")
        os.replace(tmp, path)
        return path

    @classmethod
    def read(cls, root: str | Path) -> "PlacementManifest":
        path = Path(root) / PLACEMENT_FILE
        if not path.is_file():
            raise PlacementError(f"no placement manifest at {path}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise PlacementError(f"malformed placement manifest: {exc}") \
                from exc
        return cls.from_jsonable(payload)


def orphan_predicate(shard_id: int, members, prev_members=None, *,
                     vnodes: int = DEFAULT_VNODES,
                     salt: str = DEFAULT_SALT):
    """The ball filter a shard installs for one request.

    Without ``prev_members``: own the balls the current ring places here.
    With it (a re-placement pass after a shard death): own only the balls
    that *moved* here -- the dead member's orphans -- so survivors never
    re-evaluate the slice they already answered.
    """
    ring = ring_for(members, vnodes=vnodes, salt=salt)
    if prev_members is None:
        return lambda ball_id: ring.owner_of(ball_id) == shard_id
    prev = ring_for(prev_members, vnodes=vnodes, salt=salt)
    return lambda ball_id: (ring.owner_of(ball_id) == shard_id
                            and prev.owner_of(ball_id) != shard_id)


__all__ = [
    "DEFAULT_SALT",
    "DEFAULT_VNODES",
    "HashRing",
    "PLACEMENT_FILE",
    "PlacementError",
    "PlacementManifest",
    "orphan_predicate",
    "ring_for",
]
