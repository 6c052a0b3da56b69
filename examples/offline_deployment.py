"""Offline deployment: the data owner's step (1) with durable storage.

Shows the full ownership lifecycle of Sec. 2.3: the data owner extracts
and encrypts every ball offline into an artifact store, verifies its
integrity, hands the Dealer the encrypted pack to serve, grants the
secret key to an authorized user -- and an unauthorized user demonstrably
cannot read a thing.

Run:  python examples/offline_deployment.py
"""

import tempfile
from pathlib import Path

from repro.crypto.keys import UserKeyring
from repro.framework.roles import DataOwner, Dealer, User
from repro.graph.generators import social_graph
from repro.graph.io import ball_from_bytes
from repro.storage import ArtifactStore


def main() -> None:
    graph = social_graph(num_vertices=300, lattice_neighbors=3,
                         rewire_probability=0.05, num_labels=10, seed=8)
    owner = DataOwner(graph, radii=(2,), seed=1)
    print(f"data owner's graph: {graph}")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "balls-store"

        # -- offline: extract, encrypt, persist --------------------------
        ArtifactStore.create(root, graph, (2,), owner.key).close()
        pack_bytes = (root / "encrypted.pack").stat().st_size

        with ArtifactStore.open(root) as store:
            print(f"exported {len(store)} encrypted radius-2 balls "
                  f"({pack_bytes / 1024:.0f} KiB) to {root.name}/")

            # -- integrity sweep before shipping -------------------------
            report = store.verify(owner.key, graph=graph, radii=(2,))
            assert report.ok
            print(f"integrity verified for {report.decrypted} balls")

            # -- the Dealer serves the pack without reading it -----------
            dealer = Dealer(store.encrypted_store())
            some_id = store.ball_ids()[0]
            blob = dealer.fetch_encrypted_ball(some_id)
            print(f"dealer serves ball {some_id}: {blob.size} opaque bytes")

        # -- authorized user decrypts ------------------------------------
        user = User(UserKeyring.generate(modulus_bits=1024, seed=2))
        owner.grant_key(user)
        ball = ball_from_bytes(user.keyring.ball_cipher()
                               .decrypt(blob.blob))
        print(f"authorized user decrypted it: center={ball.center}, "
              f"|V_B|={ball.size}")

        # -- unauthorized user cannot ------------------------------------
        stranger = User(UserKeyring.generate(modulus_bits=1024, seed=3))
        try:
            stranger.keyring.ball_cipher()
        except PermissionError as exc:
            print(f"stranger without sk: {exc}")


if __name__ == "__main__":
    main()
