"""Integer lattice paths with downward steps of size at most one.

Bridges end at -1; a first-passage bridge stays nonnegative before its
endpoint.  The rotation lemma (a variant of the cycle lemma) says every
bridge has exactly one cyclic shift that is a first-passage bridge, namely
the shift at the first global minimum.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import MalformedBridge, NotAWalk


@dataclass(frozen=True)
class LatticePath:
    """Path (b(0), ..., b(n)) with b(0)=0 and increments >= -1."""

    values: tuple[int, ...]

    def __post_init__(self):
        try:
            v = tuple(map(operator.index, self.values))
        except TypeError as exc:
            raise MalformedBridge(f"path values must be integers: {exc}") from None
        object.__setattr__(self, "values", v)
        if not v or v[0] != 0:
            raise MalformedBridge("path must start at 0")
        for a, b in zip(v, v[1:]):
            if b - a < -1:
                raise MalformedBridge("downward step larger than 1")

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def increments(self) -> tuple[int, ...]:
        v = self.values
        return tuple(v[i + 1] - v[i] for i in range(len(v) - 1))

    def to_json(self) -> str:
        import json

        return json.dumps(list(self.values))


@dataclass(frozen=True)
class LatticeBridge(LatticePath):
    """Lattice path ending at -1."""

    def __post_init__(self):
        super().__post_init__()
        if self.values[-1] != -1:
            raise MalformedBridge("bridge must end at -1")


@dataclass(frozen=True)
class FirstPassageBridge(LatticeBridge):
    """Bridge whose first visit to -1 is its endpoint."""

    def __post_init__(self):
        super().__post_init__()
        if min(self.values[:-1], default=0) < 0:
            raise MalformedBridge("hits -1 before the endpoint")


@dataclass(frozen=True)
class CodingWalk(LatticePath):
    """Path from 0 down to -k; codes a marked cyclic forest with k trees."""

    def __post_init__(self):
        super().__post_init__()
        if self.values[-1] >= 0:
            raise MalformedBridge("coding walk must end strictly below 0")

    @property
    def k(self) -> int:
        return -self.values[-1]


def walk_from_degrees(degrees: Sequence[int] | np.ndarray) -> CodingWalk:
    """Partial-sum walk W(j) = sum_{i<=j} (degrees[i] - 1)."""
    try:
        degs = list(map(operator.index, degrees))
    except TypeError as exc:
        raise NotAWalk(f"degrees must be integers: {exc}") from None
    if any(d < 0 for d in degs):
        raise NotAWalk("degrees must be nonnegative")
    values = [0]
    for d in degs:
        values.append(values[-1] + d - 1)
    if values[-1] >= 0:
        raise NotAWalk(f"walk ends at {values[-1]} >= 0")
    return CodingWalk(tuple(values))


def cyclic_shift(b: LatticeBridge, k: int) -> LatticeBridge:
    """Bridge b^(k): read b cyclically from position k, re-anchored at 0.

    The path is extended by b(n+i) = -1 + b(i) before shifting, so the
    result is again a bridge of the same length.
    """
    n = b.n
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    v = b.values
    ext = v + tuple(-1 + x for x in v[1:])
    out = tuple(ext[k + i] - ext[k] for i in range(n + 1))
    return LatticeBridge(out)


def rotation_index(b: LatticeBridge) -> int:
    """First position attaining the minimum; the unique shift to an FPB."""
    v = b.values[1:]
    m = min(v)
    return v.index(m) + 1


def is_first_passage(b: LatticePath) -> bool:
    """True iff b is a bridge whose first visit to -1 is its endpoint."""
    v = b.values if isinstance(b, LatticePath) else tuple(b)
    return v[-1] == -1 and all(x >= 0 for x in v[:-1])


def split_at_passage_times(w: CodingWalk) -> list[LatticeBridge]:
    """Cut a depth-k coding walk at its first passage times of -1, ..., -(k-1).

    The first k-1 segments are first-passage bridges; the last is a plain
    lattice bridge.  Each segment is re-anchored to start at 0.
    """
    v = w.values
    k = w.k
    segments: list[LatticeBridge] = []
    start = 0
    level = 0
    for j in range(1, k):
        t = next(i for i in range(start, len(v)) if v[i] <= -j)
        seg = tuple(x - level for x in v[start : t + 1])
        segments.append(FirstPassageBridge(seg))
        start, level = t, v[t]
    seg = tuple(x - level for x in v[start:])
    segments.append(LatticeBridge(seg))
    return segments


def concat_segments(segments: Iterable[LatticeBridge]) -> CodingWalk:
    """Inverse of :func:`split_at_passage_times`."""
    values = [0]
    for seg in segments:
        base = values[-1]
        values.extend(base + x for x in seg.values[1:])
    return CodingWalk(tuple(values))
