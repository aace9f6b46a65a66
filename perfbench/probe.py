"""Set-up time of one warm workload in a fresh interpreter.

    python3 perfbench/probe.py WORKLOAD SEED

Prints ``{"setup_s": ...}``: importing numpy and qrealize, generating the
inputs, filling the wiring-sum caches and one untimed warm-up operation,
measured the same way ``run.py`` measures its own set-up.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def timed_setup(name: str, seed: int, work: Path):
    """Import the workload code, set the workload up, return (workload, seconds)."""
    t0 = time.perf_counter()
    from perfbench import workloads
    wl = workloads.make(name, seed, work)
    wl.setup()
    return wl, time.perf_counter() - t0


if __name__ == "__main__":
    sys.path[0] = str(ROOT)
    _, seconds = timed_setup(sys.argv[1], int(sys.argv[2]), ROOT / ".perfbench_work" / "probe")
    print(json.dumps({"setup_s": seconds}))
