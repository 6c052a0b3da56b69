"""Pack fixtures shared by the two store-backed read workloads.

Building the slashdot pack costs seconds and depends on nothing a run
varies (dataset, scale, radii and owner key are constants of the harness),
so it is built once per checkout into ``benchmarks/ledger/.fixtures/`` --
a build output, listed in ``.gitignore`` -- and opened by every later run.
The build runs in a child process so that its memory does not count into
the measuring process's ``ru_maxrss``.  Build time is reported as
``harness.fixture_build_s`` and never enters ``setup_s``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

FIXTURE_ROOT = Path(__file__).resolve().parent / ".fixtures"

#: Shards of the split fixture (matches the host's two cores).
SHARDS = 2


def pack_dir(dataset: str, scale: float, radius: int) -> Path:
    return FIXTURE_ROOT / f"{dataset}-s{scale:g}-r{radius}"


def ensure_pack(dataset: str, scale: float, radius: int,
                key_seed: int) -> tuple[Path, float]:
    """``(fixture dir, seconds spent building)``; 0.0 when it was cached.

    The directory holds ``pack/`` (``twiglet_h=None, bf_config=None``) and
    ``shards/`` (``shard_split`` of it in :data:`SHARDS`).
    """
    target = pack_dir(dataset, scale, radius)
    if (target / "shards" / "placement.json").is_file():
        return target, 0.0
    started = time.perf_counter()
    FIXTURE_ROOT.mkdir(parents=True, exist_ok=True)
    staging = FIXTURE_ROOT / f".{target.name}.{os.getpid()}.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    try:
        subprocess.run(
            [sys.executable, "-c", _BUILD_SNIPPET, dataset, repr(scale),
             str(radius), str(key_seed), str(staging)],
            check=True, env=_child_env(), stdout=subprocess.DEVNULL)
        try:
            os.replace(staging, target)
        except OSError:
            # Another run finished the same fixture first; use that one.
            if not (target / "shards" / "placement.json").is_file():
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return target, time.perf_counter() - started


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


_BUILD_SNIPPET = """
import sys
import repro.framework  # before repro.storage: breaks the import cycle
from repro.crypto.keys import DataOwnerKey
from repro.storage import ArtifactStore, shard_split
from repro.workloads.datasets import load_dataset

dataset, scale, radius, key_seed, out = sys.argv[1:6]
graph = load_dataset(dataset, scale=float(scale)).graph
ArtifactStore.create(out + "/pack", graph, (int(radius),),
                     DataOwnerKey.generate(int(key_seed)),
                     twiglet_h=None, bf_config=None).close()
shard_split(out + "/pack", out + "/shards", %d)
""" % SHARDS
