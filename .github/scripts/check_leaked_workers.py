"""Fail when a job left executor pool workers or shard processes behind.

A respawned-but-unclosed pool, a SIGKILL'd serving process whose
parent-death watchdog did not fire, or a cluster shutdown that missed a
straggler would all leave orphaned python processes; every smoke job
ends with this sweep.
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
