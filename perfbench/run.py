"""The planeforest benchmark: one command per workload run.

    python3 perfbench/run.py --workload forest_1e6 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; it imports planeforest from
``src/`` (nothing is installed or built).  Workloads: summary_1e6,
forest_1e6, limit_sizes_2e5, codec_small (see ``workloads.py``, and
``BENCHMARK.json`` for why each was chosen).

The workload runs in a fresh process started with BLAS/OpenMP thread
counts pinned to 1 through that process's environment.  ``reps_per_s`` is
the replicates of the timed calls over their total time.  ``setup_s`` is
the mean wall time of five more fresh processes that only import
planeforest and build the workload's inputs.  Both are scaled to the
reference host: the total time is multiplied by ``reference.REFERENCE_S``
over the mean time a fixed task took next to the measured work (right
after each call, in the worker; right before each set-up process, here),
which takes the host's drift in speed out of them (``reference.py``).  The raw times and the
task's times are in the record.  Output checks and the known-defect probe
run after the timed phase.  With ``--trace 1`` the run reports the
per-layer metrics of ``layer_map.json`` instead of the end-to-end ones and
leaves its spans in ``.perfbench/spans-<workload>.npz``.

Stdout: a ``{"record": ...}`` line with the environment, fingerprint,
counters and every metric with its unit, then the result line
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` and
``failed`` count the workload's operations (top-level calls, output checks,
traced replays); the known-defect probe is reported apart from them, in
``success_rate`` and in the record.  ``success_rate`` is taken over a set
of operations that does not depend on speed: the fingerprinted prefix of
calls, their output checks and the probe.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import reference_s, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("summary_1e6", "forest_1e6", "limit_sizes_2e5", "codec_small")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv: list[str], deadline: float) -> tuple[str, float]:
    """Run a worker to completion; returns (stdout, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {argv[:2]} ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[:2]} exited {proc.returncode}")
    return out, time.perf_counter() - t0


def environment() -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "threads": {v: "1" for v in THREAD_VARS}}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        env["cpu_model"] = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in caches.glob("index*")]
        env["llc_size"] = max(levels)[1] if levels else None
    except (OSError, ValueError):
        env["llc_size"] = None
    return env


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "planeforest" / "__init__.py").is_file():
        print(f"perfbench: no planeforest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = declared_metrics()

    work = ROOT / ".perfbench"
    tmp = work / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", str(tmp)]
    try:
        out, _ = run_child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                           deadline)
        res = json.loads(out.strip().splitlines()[-1])
        setup_samples, setup_ref = [], []
        if not args.trace:
            for i in range(SETUP_SAMPLES):
                setup_dir = tmp / f"setup-{i}"
                setup_dir.mkdir()
                setup_ref.append(reference_s())
                _, wall = run_child(common[:-1] + [str(setup_dir), "--setup-only"], deadline)
                setup_samples.append(wall)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    probe_ops = 1 if res["probe_failures"] is not None else 0
    probe_failed = 1 if res["probe_failures"] else 0
    fixed_ops = res["fixed_ops"]["attempted"] + probe_ops
    fixed_failed = res["fixed_ops"]["failed"] + probe_failed
    error_rate = fixed_failed / fixed_ops
    if args.trace:
        kind, values = "per_layer", res["per_layer"]
    else:
        kind = "end_to_end"
        setup_s = scaled(statistics.mean(setup_samples), statistics.mean(setup_ref))
        values = {"reps_per_s": res["reps_per_s"], "setup_s": setup_s,
                  "peak_rss_mb": res["peak_rss_mb"], "success_rate": 1.0 - error_rate}
    units = declared[kind]
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": {**environment(), **res["versions"]},
        "fingerprint_sha256": res["fingerprint"], "call_s": res["call_s"],
        "reference_s": res["reference_s"],
        "counters": res["counters"], "setup_samples_s": setup_samples,
        "setup_reference_s": setup_ref,
        "known_defect_probe": {"attempted": probe_ops, "failed": probe_failed},
        "error_rate": error_rate, "fixed_ops": {"attempted": fixed_ops, "failed": fixed_failed},
        "spans_file": res.get("spans_file"), "metrics": metrics,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
