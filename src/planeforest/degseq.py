"""Degree sequences of plane forests and their empirical moments.

A degree sequence is a sparse histogram ``counts[i] = number of nodes with
i children``.  It describes a plane forest exactly when the tree count
``c = sum((1 - i) * counts[i])`` is positive; every forest with these
counts then has exactly ``c`` trees.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import EmptySequence, Infeasible, NotAForest


@dataclass(frozen=True)
class DegreeSequence:
    """Validated degree counts with derived node count n and tree count c."""

    counts: Mapping[int, int]
    n: int
    c: int

    def __post_init__(self):
        object.__setattr__(self, "counts", dict(self.counts))

    def to_json(self) -> str:
        return json.dumps({"counts": {str(i): k for i, k in sorted(self.counts.items())}})

    @staticmethod
    def from_json(text: str) -> "DegreeSequence":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "counts" not in obj:
            raise NotAForest('degree-sequence JSON must be an object with a "counts" map')
        return validate(obj["counts"])


@dataclass(frozen=True)
class EmpiricalDist:
    """Empirical offspring distribution of a degree sequence.

    ``second_moment`` is sum(i^2 * p_i).  The Brownian scale of every limit
    comparison is ``limit_sigma``.
    """

    probs: Mapping[int, float]
    mean: float
    second_moment: float

    def __post_init__(self):
        object.__setattr__(self, "probs", dict(self.probs))


def _as_degree(i) -> int:
    """An integer degree; JSON object keys are strings."""
    return int(i) if isinstance(i, str) else operator.index(i)


def validate(counts: Mapping[int, int]) -> DegreeSequence:
    """Check that ``counts`` is the degree sequence of some plane forest."""
    if not isinstance(counts, Mapping):
        raise NotAForest(f"counts must map degree -> count, got {type(counts).__name__}")
    clean = {}
    for i, k in counts.items():
        if isinstance(k, bool):  # operator.index would read JSON true/false as 1/0
            raise NotAForest(f"count {k!r} of degree {i!r} must be an integer")
        try:
            i = _as_degree(i)
            k = operator.index(k)
        except (TypeError, ValueError):
            raise NotAForest(f"degree {i!r} and its count {k!r} must be integers") from None
        if i < 0 or k < 0:
            raise NotAForest(f"negative entry: degree {i} count {k}")
        if k > 0:
            clean[i] = k
    n = sum(clean.values())
    if n == 0:
        raise EmptySequence("degree sequence has no nodes")
    c = sum((1 - i) * k for i, k in clean.items())
    if c <= 0:
        raise NotAForest(f"tree count c(s) = {c} <= 0")
    return DegreeSequence(clean, n, c)


def degree_vector(s: DegreeSequence) -> np.ndarray:
    """Weakly increasing vector d(s) with counts[i] entries equal to i."""
    return np.repeat(
        np.fromiter(sorted(s.counts), dtype=np.int64),
        np.fromiter((s.counts[i] for i in sorted(s.counts)), dtype=np.int64),
    )


def empirical(s: DegreeSequence) -> EmpiricalDist:
    """Proportions p_i = counts[i]/n together with first/second moments."""
    probs = {i: k / s.n for i, k in sorted(s.counts.items())}
    mean = sum(i * p for i, p in probs.items())
    second = sum(i * i * p for i, p in probs.items())
    return EmpiricalDist(probs, mean, second)


def limit_sigma(s: DegreeSequence) -> float:
    """sqrt of the factorial second moment; the scale of every limit law."""
    return math.sqrt(sum(j * (j - 1) * k for j, k in s.counts.items()) / s.n)


def _swap_budget(n: int) -> int:
    # Sublinear so that repeated use keeps ||s/n - p||_2 -> 0; generous
    # enough for rounding imbalances plus any c_target = o(sqrt(n)).
    return 4 * math.isqrt(n) + 16


def make_degree_sequence(
    p: Mapping[int, float] | Iterable[float],
    n: int,
    c_target: int,
    seed: int | None = None,
) -> DegreeSequence:
    """Build a degree sequence of size n with c(s) = c_target close to n*p.

    Rule: round n*p_i, repair the total node count through degree-1 nodes
    (they do not affect c), then walk c to its target one unit at a time:
    0 -> 1 demotions decrease c, 1 -> 0 promotions increase it, and when no
    degree-1 node is left the smallest degree >= 2 is lowered by one.  The
    rule is deterministic; ``seed`` is accepted for interface symmetry.
    The swap budget is O(sqrt(n)), which keeps the result L2-close to p.
    """
    del seed
    weights = {}
    for i, w in p.items() if isinstance(p, Mapping) else enumerate(p):
        try:
            i = _as_degree(i)
        except (TypeError, ValueError):
            raise ValueError(f"degree {i!r} must be an integer") from None
        if not isinstance(w, numbers.Real) or not math.isfinite(w):
            raise ValueError(f"weight of degree {i} must be a finite number, got {w!r}")
        if w > 0:
            weights[i] = float(w)
    total_w = sum(weights.values())
    if total_w <= 0:
        raise ValueError("p must have positive mass")
    if not (1 <= c_target <= n):
        raise Infeasible(f"c_target={c_target} outside [1, {n}]")

    counts = {i: round(n * w / total_w) for i, w in weights.items()}
    counts = {i: k for i, k in counts.items() if k > 0}
    counts.setdefault(0, 0)
    counts.setdefault(1, 0)

    # Degree-1 nodes leave c unchanged, so use them to repair the total.
    counts[1] += n - sum(counts.values())
    while counts[1] < 0:
        # Over-full without enough 1s: shed leaves (costs one unit of c,
        # repaired below) until the total matches.
        if counts[0] == 0:
            raise Infeasible("cannot repair node total")
        counts[0] -= 1
        counts[1] += 1

    c = n - sum(i * k for i, k in counts.items())
    budget = _swap_budget(n)
    for _ in range(budget):
        if c == c_target:
            break
        if c > c_target:
            if counts[0] <= 0:
                raise Infeasible("no leaf available to lower c")
            counts[0] -= 1
            counts[1] += 1
            c -= 1
        elif counts[1] > 0:
            counts[1] -= 1
            counts[0] += 1
            c += 1
        else:
            high = [j for j, k in counts.items() if j >= 2 and k > 0]
            if not high:
                raise Infeasible("no node available to raise c")
            j = min(high)
            counts[j] -= 1
            counts[j - 1] = counts.get(j - 1, 0) + 1
            c += 1
    if c != c_target:
        raise Infeasible(f"c_target={c_target} not reached within {budget} swaps")
    return validate(counts)


def geometric_profile(ratio: float = 0.5, max_degree: int = 64) -> dict[int, float]:
    """Geometric offspring weights p_i ~ ratio^(i+1); mean 1 at ratio=1/2."""
    return {i: (1 - ratio) * ratio**i for i in range(max_degree + 1)}

