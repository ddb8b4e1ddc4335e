"""Hash-seed independence of every workload's outputs.

Runs each workload's timed run (which performs all of its output
checks) under two ``PYTHONHASHSEED`` values and requires the printed
digests and exact-repeat counts to be identical.  Python randomises
string hashing per process, so any output that depends on ``hash()``
(a seed derived from it, an iteration order over a set of strings)
shows up here as a digest mismatch.  Run from the repository root::

    python3 perfbench/hashseed_check.py

Exit code 0 when every workload matches, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sim_huge", "serve_churn", "fleet_sweep")
HASH_SEEDS = ("0", "4242")
#: Workload seed and ``--seconds`` of every run.
SEED = 7
SECONDS = 1.0


def outputs(workload: str, seed: int, seconds: float, hash_seed: str) -> dict:
    """The digests and exact-repeat counts one run prints."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    found = {"exit": done.returncode}
    for line in done.stdout.splitlines():
        for key in ("digests", "exact-repeat counts"):
            if line.startswith(key + ": "):
                found[key] = json.loads(line[len(key) + 2 :])
    return found


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        runs = [outputs(workload, SEED, SECONDS, h) for h in HASH_SEEDS]
        same = runs[0] == runs[1] and runs[0]["exit"] == 0 and "digests" in runs[0]
        ok &= same
        print(f"{workload}: {'identical' if same else 'DIFFERENT'}")
        for hash_seed, run in zip(HASH_SEEDS, runs):
            print(f"  PYTHONHASHSEED={hash_seed}: " + json.dumps(run, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
