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
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import EmptySequence, Infeasible, NotAForest

_GEOMETRIC_MAX_DEGREE = 64


@dataclass(frozen=True)
class DegreeSequence:
    """Nonzero degree counts of some plane forest, in the order given, with
    the node count n and tree count c derived from them."""

    counts: Mapping[int, int]
    n: int = field(init=False)
    c: int = field(init=False)

    def __post_init__(self):
        clean = {i: k for i, k in _degree_map(self.counts, _count, NotAForest).items() if k > 0}
        n = sum(clean.values())
        if n == 0:
            raise EmptySequence("degree sequence has no nodes")
        c = sum((1 - i) * k for i, k in clean.items())
        if c <= 0:
            raise NotAForest(f"tree count c(s) = {c} <= 0")
        object.__setattr__(self, "counts", clean)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)

    def to_json(self) -> str:
        return json.dumps({"counts": {str(i): k for i, k in sorted(self.counts.items())}})

    @staticmethod
    def from_json(text: str) -> "DegreeSequence":
        obj = loads(text)
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


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError("a JSON object names the same key twice")
    return obj


def loads(text: str):
    """json.loads, except that an object naming a key twice raises ValueError."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def _count(i: int, k) -> int:
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"count of degree {i} must be an integer >= 0, got {k!r}")
    return int(k)


def _weight(i: int, w) -> float:
    try:
        ok = not isinstance(w, bool) and isinstance(w, numbers.Real) and math.isfinite(w) and w >= 0
    except OverflowError:  # an integer too large for a float
        ok = False
    if not ok:
        raise ValueError(f"weight of degree {i} must be a finite number >= 0, got {w!r}")
    return float(w)


def _degree_map(m, value, error: type[Exception]) -> dict:
    """{degree: value(degree, v)} of the degree-keyed mapping ``m``, in its order.

    A degree is a non-bool integer >= 0 or its canonical decimal string ("01"
    is not one), named once.  Any other key, or a value that ``value``
    rejects with ValueError, raises ``error``.
    """
    if not isinstance(m, Mapping):
        raise error(f"expected a map of degree -> value, got {type(m).__name__}")
    out = {}
    try:
        for key, v in m.items():
            if isinstance(key, str) and key.isascii() and key.isdigit() and str(int(key)) == key:
                i = int(key)
            elif isinstance(key, numbers.Integral) and not isinstance(key, bool) and key >= 0:
                i = int(key)
            else:
                raise ValueError(f"degree {key!r} is not an integer >= 0 or its canonical string")
            if i in out:
                raise ValueError(f"degree {i} is named twice")
            out[i] = value(i, v)
    except ValueError as exc:
        raise error(str(exc)) from None
    return out


def profile_weights(p: Mapping) -> dict[int, float]:
    """The profile ``p`` as {degree: weight}; each weight must be a finite number >= 0."""
    return _degree_map(p, _weight, ValueError)


def validate(counts: Mapping[int, int]) -> DegreeSequence:
    """Check that ``counts`` is the degree sequence of some plane forest."""
    return DegreeSequence(counts)


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


def make_degree_sequence(p: Mapping[int, float], n: int, c_target: int,
                         seed: int | None = None) -> DegreeSequence:
    """Build a degree sequence of size n with c(s) = c_target close to n*p.

    Rule: round n*p_i, repair the total node count through degree-1 nodes
    (they do not affect c), then walk c to its target one unit at a time:
    0 -> 1 demotions decrease c, 1 -> 0 promotions increase it, and when no
    degree-1 node is left the smallest degree >= 2 is lowered by one.  The
    rule is deterministic; ``seed`` is accepted for interface symmetry.
    The swap budget is O(sqrt(n)), which keeps the result L2-close to p.
    ``p`` maps each degree to its weight, as ``profile_weights`` reads it.
    """
    del seed
    for name, x in (("n", n), ("c_target", c_target)):
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {x!r}")
    weights = profile_weights(p)
    total_w = sum(weights.values())
    if total_w <= 0:
        raise ValueError("p must have positive mass")
    if not (1 <= c_target <= n):
        raise Infeasible(f"c_target={c_target} outside [1, {n}]")

    top = n * max(weights.values())
    if not (math.isfinite(total_w) and math.isfinite(top)):
        raise ValueError(f"profile weights overflow a float: sum {total_w}, n * largest {top}")
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
        if c > c_target:  # c <= counts[0], so a leaf is left
            counts[0] -= 1
            counts[1] += 1
            c -= 1
        elif counts[1] > 0:
            counts[1] -= 1
            counts[0] += 1
            c += 1
        else:  # c < c_target <= n with no degree-1 node: some degree >= 2 is left
            j = min(j for j, k in counts.items() if j >= 2 and k > 0)
            counts[j] -= 1
            counts[j - 1] = counts.get(j - 1, 0) + 1
            c += 1
    if c != c_target:
        raise Infeasible(f"c_target={c_target} not reached within {budget} swaps")
    return validate(counts)


def geometric_profile(ratio: float = 0.5) -> dict[int, float]:
    """Geometric offspring weights p_i ~ ratio^(i+1) for degrees up to 64; mean 1 at ratio=1/2."""
    if not 0 < ratio < 1:  # NaN included
        raise ValueError(f"geometric ratio must lie in (0, 1), got {ratio}")
    return {i: (1 - ratio) * ratio**i for i in range(_GEOMETRIC_MAX_DEGREE + 1)}

