"""Integer lattice paths with downward steps of size at most one.

Bridges end at -1; a first-passage bridge stays nonnegative before its
endpoint.  The rotation lemma (a variant of the cycle lemma) says every
bridge has exactly one cyclic shift that is a first-passage bridge, namely
the shift at the first global minimum.

Each check below is one pass of built-in iterators (``map``, ``itertools``,
``tuple.index``), with no Python loop per step and no temporary as long
as the path.  Since every step is >= -1, a path first goes below -j + 1
where it first equals -j, so ``tuple.index`` finds passage times.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
        if len(v) > 1 and min(map(operator.sub, itertools.islice(v, 1, None), v)) < -1:
            raise MalformedBridge("downward step larger than 1")

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def increments(self) -> tuple[int, ...]:
        v = self.values
        return tuple(map(operator.sub, itertools.islice(v, 1, None), v))

    def to_json(self) -> str:
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
        v = self.values  # its first value below 0 is -1, as steps are >= -1
        if v.index(-1) < len(v) - 1:
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


def _shifted(v: tuple[int, ...], start: int, stop: int | None, by: int) -> Iterator[int]:
    """x + by for each x in v[start:stop]."""
    return map(operator.add, itertools.islice(v, start, stop), itertools.repeat(by))


def walk_from_degrees(degrees: Sequence[int] | np.ndarray) -> CodingWalk:
    """Partial-sum walk W(j) = sum_{i<=j} (degrees[i] - 1)."""
    try:
        degs = tuple(map(operator.index, degrees))
    except TypeError as exc:
        raise NotAWalk(f"degrees must be integers: {exc}") from None
    if degs and min(degs) < 0:
        raise NotAWalk("degrees must be nonnegative")
    values = tuple(itertools.accumulate(map(operator.sub, degs, itertools.repeat(1)), initial=0))
    if values[-1] >= 0:
        raise NotAWalk(f"walk ends at {values[-1]} >= 0")
    return CodingWalk(values)


def cyclic_shift(b: LatticeBridge, k: int) -> LatticeBridge:
    """Bridge b^(k): the increments of b read cyclically from position k, summed from 0."""
    n = b.n
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    inc = b.increments()
    return LatticeBridge(tuple(itertools.accumulate(inc[k:] + inc[:k], initial=0)))


def rotation_index(b: LatticeBridge) -> int:
    """First position attaining the minimum; the unique shift to an FPB."""
    v = b.values[1:]
    m = min(v)
    return v.index(m) + 1


def is_first_passage(b: LatticePath) -> bool:
    """True iff b is a bridge whose first visit to -1 is its endpoint."""
    v = b.values if isinstance(b, LatticePath) else tuple(b)
    return v[-1] == -1 and all(map(operator.ge, itertools.islice(v, len(v) - 1), itertools.repeat(0)))


def split_at_passage_times(w: CodingWalk) -> list[LatticeBridge]:
    """Cut a depth-k coding walk at its first passage times of -1, ..., -(k-1).

    The first k-1 segments are first-passage bridges; the last is a plain
    lattice bridge.  Each segment is re-anchored to start at 0.
    """
    v = w.values
    segments: list[LatticeBridge] = []
    start = 0
    for j in range(1, w.k):
        t = v.index(-j, start)  # first passage to -j; v[start] = -(j - 1)
        segments.append(FirstPassageBridge(tuple(_shifted(v, start, t + 1, j - 1))))
        start = t
    segments.append(LatticeBridge(tuple(_shifted(v, start, None, w.k - 1))))
    return segments


def concat_segments(segments: Iterable[LatticeBridge]) -> CodingWalk:
    """Inverse of :func:`split_at_passage_times`."""
    values = [0]
    for seg in segments:
        values.extend(_shifted(seg.values, 1, None, values[-1]))
    return CodingWalk(tuple(values))
