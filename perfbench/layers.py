"""Per-layer metrics, computed from spans as ``layer_map.json`` defines them."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from tracing import REPLAY_SPAN, ROOT_SPAN, SETUP_SPAN

LAYER_MAP_PATH = Path(__file__).with_name("layer_map.json")
# how -> the root spans whose calls it times
UNION_SCOPES = {"union": ROOT_SPAN, "setup_union": SETUP_SPAN, "replay_union": REPLAY_SPAN}


def per_layer_metrics(table, reps: int, counters: Counter, overhead: float) -> dict[str, float]:
    """Every metric of the map except the probe count, which the caller adds."""
    attempts = counters["limit_sim.attempts"]
    steps = counters["limit_sim.steps"]
    derived = {
        "useful_ratio": (attempts - counters["limit_sim.censored"]) / attempts if attempts else 1.0,
        "censored_step_share": counters["limit_sim.censored_steps"] / steps if steps else 0.0,
        "coverage": table.coverage(),
        "overhead": overhead,
    }
    out = {}
    for name, spec in json.loads(LAYER_MAP_PATH.read_text())["metrics"].items():
        how = spec["how"]
        if how in UNION_SCOPES:
            total = table.union_time(spec["spans"], UNION_SCOPES[how])
            out[name] = total if how == "setup_union" else total / reps
        elif how == "self":
            out[name] = table.self_sum(spec["spans"]) / reps
        elif how == "counter":
            out[name] = counters[name]
        elif how in derived:
            out[name] = derived[how]
    return out
