"""Set-up probe: import the program the way a benchmark run does, then exit.

``run.py`` times this script from spawn to exit; that is the set-up a
user pays before the first call of every ``repro`` invocation.  The
probe prints the host-speed slices it took meanwhile as one JSON list.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.hostspeed import HostSpeed  # noqa: E402

with HostSpeed() as host:
    from perfbench.workloads import load_program

    load_program()
print(json.dumps(host.slices))
sys.stdout.flush()
# Skip interpreter teardown: it is not part of getting ready to work.
os._exit(0)
