"""Fail when a job left gateway shard processes behind.

Shards are the only worker processes (``LocalCluster`` forks them); a
cluster shutdown that missed a straggler -- after a clean batch, a
SIGKILL'd shard or an evicted rogue one -- would leave an orphaned
python process.  The shard and malicious-SP smoke jobs end with this
sweep.
"""

import subprocess
import sys

PATTERN = "repro-shard|multiprocessing.spawn|multiprocessing.fork"

out = subprocess.run(["pgrep", "-f", PATTERN],
                     capture_output=True, text=True).stdout.strip()
if out:
    print("leaked worker processes:\n" + out)
    sys.exit(1)
print("no leaked worker processes")
