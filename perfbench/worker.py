"""One workload in one fresh process; started by ``run.py``.

Phases, in order:

1. import planeforest from ``src/`` and build the workload's inputs;
2. the timed phase: top-level calls, tracing off, until ``--seconds`` pass
   (half of them with ``--trace 1``) and at least the fingerprinted prefix
   of calls has run;
3. peak RSS is read here, before any check can allocate;
4. output checks, the known-defect probe and the output fingerprint;
5. with ``--trace 1``, the traced phase: the set-up and calls 0, 1, ... run
   again on the same seeds with a span at every call into a layer's public
   functions; each output must equal the untraced one.  After each call
   the benchmark replays it through the public stage functions, under a
   root span of its own so that the program's layer times leave it out;
   the replay's result must match the call's output.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import layers
from reference import reference_s, scaled
from tracing import REPLAY_SPAN, ROOT_SPAN, SETUP_SPAN, SpanTable, Tracer

ROOT = Path(__file__).resolve().parent.parent


class Ops:
    """Operations attempted and failed; failures are reported on stderr.

    ``fixed`` counts, apart, the operations every run makes whatever its
    speed: the fingerprinted prefix of calls and their checks.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fixed = Counter()

    def record(self, what: str, problems: list[str], fixed: bool = False) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        if fixed:
            self.fixed["attempted"] += 1
            self.fixed["failed"] += bool(problems)
        for p in problems[:5]:
            print(f"perfbench: {what}: {p}", file=sys.stderr)


def _problems(fn, *args) -> list[str]:
    """fn's list of problems, or the exception it raised as one."""
    try:
        return fn(*args)
    except Exception:
        return [traceback.format_exc(limit=3)]


def _call(ops: Ops, what: str, fn, *args, fixed: bool = False):
    """Run fn, counting an exception as a failed operation."""
    try:
        out = fn(*args)
    except Exception:
        ops.record(what, [traceback.format_exc(limit=3)], fixed)
        return None
    ops.record(what, [], fixed)
    return out


def timed_phase(wl, seconds: float, ops: Ops):
    """Top-level calls until ``seconds`` pass; returns (outputs, per-call
    seconds, the reference task's time after each call, replicates per
    second).  The rate is the successful calls' replicates over their total
    time, scaled to the reference host by the task's mean time (see
    ``reference.py``)."""
    outputs, call_s, ref_s = [], [], []
    t0 = time.perf_counter()
    r = 0
    while r < wl.prefix or time.perf_counter() - t0 < seconds:
        t = time.perf_counter()
        out = _call(ops, f"call {r}", wl.run, r, "timed", fixed=r < wl.prefix)
        call_s.append(time.perf_counter() - t)
        ref_s.append(reference_s())
        outputs.append(out)
        r += 1
    ok_s = [t for t, out in zip(call_s, outputs) if out is not None]
    rate = (wl.reps_per_call * len(ok_s) / scaled(sum(ok_s), statistics.mean(ref_s))
            if ok_s else 0.0)
    return outputs, call_s, ref_s, rate


def traced_phase(wl, outputs, untraced_call_s, seconds: float, ops: Ops, spans_path: Path):
    tracer = Tracer()
    tracer.hooks.update(wl.hooks())
    wl.tracer = tracer
    tracer.install()
    try:
        with tracer.root(SETUP_SPAN, -1):
            wl.__class__(wl.seed, wl.tmp).setup()
        call_s, reps = [], 0
        t0 = time.perf_counter()
        r = 0
        while r < len(outputs) and (r < wl.prefix or time.perf_counter() - t0 < seconds):
            with tracer.root(ROOT_SPAN, r):
                t = time.perf_counter()
                out = _call(ops, f"traced call {r}", wl.run, r, "traced")
                call_s.append(time.perf_counter() - t)
            if out is not None:
                with tracer.root(REPLAY_SPAN, r):
                    problems = _problems(wl.replay, r, out)
                if outputs[r] is not None and wl.digest(out) != wl.digest(outputs[r]):
                    problems.append("traced output differs from the untraced output")
                ops.record(f"replay {r}", problems)
            reps += wl.reps_per_call
            r += 1
    finally:
        tracer.uninstall()
        wl.tracer = None
    tracer.save(spans_path)
    # Paired by call, so that both sides time the same inputs; the median
    # keeps the colder first untraced call from counting as tracing cost.
    overhead = statistics.median(t / u for t, u in zip(call_s, untraced_call_s))
    return layers.per_layer_metrics(SpanTable(tracer), reps, wl.counters, overhead)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import planeforest

    if Path(planeforest.__file__).resolve().parent != ROOT / "src" / "planeforest":
        print(f"perfbench: imported planeforest from {planeforest.__file__}, not src/",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    wl.setup()
    if args.setup_only:
        return 0

    ops = Ops()
    seconds = args.seconds / 2 if args.trace else args.seconds
    outputs, call_s, ref_s, rate = timed_phase(wl, seconds, ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for r, out in enumerate(outputs):
        if out is not None:
            ops.record(f"check {r}", _problems(wl.check, out), fixed=r < wl.prefix)
    probe_problems = _problems(wl.probe)
    for p in probe_problems or []:
        print(f"perfbench: known-defect probe: {p}", file=sys.stderr)
    prefix = outputs[: wl.prefix]
    fingerprint = (hashlib.sha256(b"".join(wl.digest(o) for o in prefix)).hexdigest()
                   if all(o is not None for o in prefix) else None)

    result = {
        "reps_per_s": rate,
        "peak_rss_mb": peak_rss_mb,
        "call_s": call_s,
        "reference_s": ref_s,
        "fingerprint": fingerprint,
        "probe_failures": None if probe_problems is None else len(probe_problems),
    }
    if args.trace:
        spans = Path(args.tmp).parent / f"spans-{args.workload}.npz"
        result["per_layer"] = traced_phase(wl, outputs, call_s, seconds, ops, spans)
        result["per_layer"]["realtree.contour_probe_failed"] = len(probe_problems or [])
        result["spans_file"] = str(spans.relative_to(ROOT))
    result.update(attempted=ops.attempted, failed=ops.failed, fixed_ops=ops.fixed,
                  counters=wl.counters,
                  versions=_versions())
    print(json.dumps(result))
    return 0


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    sys.exit(main())
