"""Check that the exact counters and output fingerprints repeat.

    python3 perfbench/repeat_check.py [--seed N] [--seconds S] [workload ...]

Runs every named workload (default: all) twice with ``--trace 1`` at the
same seed and compares the output fingerprint and every exact counter,
which the benchmark takes over a fixed prefix of calls.  Exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import ROOT, WORKLOADS  # noqa: E402

EXACT_UNITS = {"count", "bytes", "bytes-computed"}


def exact_part(stdout: str) -> dict:
    record = json.loads(stdout.strip().splitlines()[-2])["record"]
    return {
        "fingerprint_sha256": record["fingerprint_sha256"],
        "counters": record["counters"],
        "metrics": {k: v["value"] for k, v in record["metrics"].items()
                    if v["unit"] in EXACT_UNITS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=4)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args(argv)
    differ = False
    for w in args.workloads:
        runs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", "1"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(f"{w}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            runs.append(exact_part(proc.stdout))
        same = runs[0] == runs[1]
        differ |= not same
        print(f"{w}: {'repeats' if same else 'DIFFERS'} "
              f"fingerprint {runs[0]['fingerprint_sha256']} counters {runs[0]['counters']}")
        if not same:
            print(f"  second run: {runs[1]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
