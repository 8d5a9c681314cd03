"""Plane trees, forests, and the lattice-path codecs.

A plane tree is stored canonically as its lexicographic (depth-first,
children left-to-right) degree sequence; the depth-first walk is the
partial-sum path of those degrees minus one and is a first-passage bridge.
Marked trees biject with lattice bridges through the rotation lemma, and
marked cyclic forests biject with coding walks by cutting at passage times.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .degseq import DegreeSequence, degree_vector, validate
from .errors import MalformedBridge, TooLarge
from .lattice_paths import (
    CodingWalk,
    FirstPassageBridge,
    LatticeBridge,
    LatticePath,
    concat_segments,
    cyclic_shift,
    rotation_index,
    split_at_passage_times,
    walk_from_degrees,
)


@dataclass(frozen=True)
class PlaneTree:
    """Ordered rooted tree; ``lex`` lists node degrees in depth-first order."""

    lex: tuple[int, ...]

    def __post_init__(self):
        try:
            lex = tuple(map(operator.index, self.lex))
        except TypeError as exc:
            raise MalformedBridge(f"lex entries must be integer degrees: {exc}") from None
        object.__setattr__(self, "lex", lex)
        if min(lex, default=0) < 0:
            raise MalformedBridge("lex sequence has a negative degree")
        bal = 0
        for i, d in enumerate(lex):
            bal += d - 1
            if bal < 0 and i < len(lex) - 1:
                raise MalformedBridge("lex sequence closes the tree early")
        if bal != -1:
            raise MalformedBridge("lex sequence does not close the tree")

    @classmethod
    def _unchecked(cls, lex: tuple[int, ...]) -> "PlaneTree":
        """Tree from a tuple of Python ints that the caller has already checked."""
        t = object.__new__(cls)
        object.__setattr__(t, "lex", lex)
        return t

    @property
    def size(self) -> int:
        return len(self.lex)

    def parents(self) -> list[int]:
        """Parent lex position per node; -1 for the root."""
        par = [-1] * self.size
        open_slots: list[int] = []  # one entry per child still expected
        for i, d in enumerate(self.lex):
            if open_slots:
                par[i] = open_slots.pop()
            open_slots.extend([i] * d)
        return par


class _DegreeTokens(dict):
    """Degree -> its JSON text, filled in on first use."""

    def __missing__(self, d: int) -> str:
        self[d] = text = str(d)
        return text


@dataclass(frozen=True)
class PlaneForest:
    """Nonempty sequence of plane trees."""

    trees: tuple[PlaneTree, ...]

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        if not self.trees:
            raise MalformedBridge("forest must contain at least one tree")

    @property
    def size(self) -> int:
        return sum(t.size for t in self.trees)

    def degree_sequence(self) -> DegreeSequence:
        counts: dict[int, int] = {}
        for t in self.trees:
            for d in t.lex:
                counts[d] = counts.get(d, 0) + 1
        return validate(counts)

    @classmethod
    def _from_lex(cls, lex: np.ndarray, sizes: np.ndarray, walk: np.ndarray) -> "PlaneForest":
        """Forest of the consecutive slices of ``lex`` with the given sizes.

        All trees are checked in one pass over the array, against the same
        rules :class:`PlaneTree` applies node by node: integer degrees >= 0,
        and each tree's walk, relative to its start, stays >= 0 before its
        last node and is exactly -1 there.  ``walk``, an int64 array as long
        as ``lex``, is overwritten with the walk.
        """
        lex, sizes = np.asarray(lex), np.asarray(sizes)
        if lex.dtype.kind not in "biu":
            raise MalformedBridge(f"lex entries must be integer degrees, got {lex.dtype}")
        if sizes.size == 0:
            raise MalformedBridge("forest must contain at least one tree")
        if sizes.min() < 1:
            raise MalformedBridge("lex sequence does not close the tree")  # an empty tree
        if sizes.sum() != lex.size:
            raise ValueError(f"tree sizes add up to {sizes.sum()}, not {lex.size}")
        lex = lex.astype(np.int64, copy=False)
        if lex.min() < 0:
            raise MalformedBridge("lex sequence has a negative degree")
        np.subtract(lex, 1, out=walk)
        np.cumsum(walk, out=walk)
        ends = np.cumsum(sizes) - 1
        base = np.zeros(len(ends), dtype=np.int64)  # the walk just before each tree
        base[1:] = walk[ends[:-1]]
        if np.any(walk[ends] != base - 1):
            raise MalformedBridge("lex sequence does not close the tree")
        # Even entries: the walk's minimum over each tree but its last node.
        lows = np.minimum.reduceat(walk, np.column_stack((ends - sizes + 1, ends)).ravel())[::2]
        if np.any((lows < base) & (sizes > 1)):
            raise MalformedBridge("lex sequence closes the tree early")
        slices = np.split(lex, ends[:-1] + 1)
        return cls(tuple(PlaneTree._unchecked(tuple(x.tolist())) for x in slices))

    def to_json(self, mark: tuple[int, int] | None = None) -> str:
        # Byte-identical to json.dumps({"trees": ..., "mark": ...}): every lex
        # entry is a Python int, which JSON writes as its str().
        tokens = _DegreeTokens()
        trees = "], [".join(", ".join(map(tokens.__getitem__, t.lex)) for t in self.trees)
        tail = "" if mark is None else ', "mark": ' + json.dumps(list(mark))
        return '{"trees": [[' + trees + "]]" + tail + "}"

    @staticmethod
    def from_json(text: str) -> "PlaneForest":
        obj = json.loads(text)
        return PlaneForest(tuple(PlaneTree(tuple(t)) for t in obj["trees"]))


@dataclass(frozen=True)
class MarkedCyclicForest:
    """Plane forest with a marked node in its last tree.

    ``mark`` is (tree index, lex position), both 0-based for the tree index
    and 1-based for the position within the tree.
    """

    forest: PlaneForest
    mark: tuple[int, int]

    def __post_init__(self):
        ti, pos = self.mark
        trees = self.forest.trees
        if ti != len(trees) - 1:
            raise MalformedBridge("mark must lie in the last tree")
        if not 1 <= pos <= trees[ti].size:
            raise MalformedBridge("mark position outside the marked tree")

    def to_json(self) -> str:
        return self.forest.to_json(mark=self.mark)


def dfw_encode(t: PlaneTree) -> FirstPassageBridge:
    """Depth-first walk of the tree: partial sums of lex degrees minus one."""
    return FirstPassageBridge(walk_from_degrees(t.lex).values)


def dfw_decode(b: LatticePath) -> PlaneTree:
    """Unique plane tree whose depth-first walk is b; b must be a first-passage bridge.

    PlaneTree checks the first-passage rule and raises MalformedBridge.
    """
    return PlaneTree(tuple(x + 1 for x in b.increments()))


def marked_tree_from_bridge(b: LatticeBridge) -> tuple[PlaneTree, int]:
    """Decode a lattice bridge as a marked tree.

    Rotates at the first-minimum index r, decodes the resulting
    first-passage bridge, and marks the node at lex position |T| - r + 1
    (1-based).
    """
    r = rotation_index(b)
    fpb = cyclic_shift(b, r)
    tree = dfw_decode(fpb)
    return tree, tree.size - r + 1


def bridge_from_marked_tree(t: PlaneTree, mark: int) -> LatticeBridge:
    """Exact inverse of :func:`marked_tree_from_bridge`."""
    n = t.size
    if not 1 <= mark <= n:
        raise ValueError(f"mark {mark} outside [1, {n}]")
    # Shifting the bridge by r = n - mark + 1 gave dfw_encode(t); shifting
    # on by n - r = mark - 1 undoes it, and a shift by n is the identity.
    return cyclic_shift(dfw_encode(t), mark - 1 or n)


def mcf_from_walk(w: CodingWalk) -> MarkedCyclicForest:
    """Decode a coding walk of depth k as k-1 trees plus one marked tree."""
    segments = split_at_passage_times(w)
    trees = [dfw_decode(seg) for seg in segments[:-1]]
    last, pos = marked_tree_from_bridge(segments[-1])
    trees.append(last)
    forest = PlaneForest(tuple(trees))
    return MarkedCyclicForest(forest, (len(trees) - 1, pos))


def walk_from_mcf(m: MarkedCyclicForest) -> CodingWalk:
    """Exact inverse of :func:`mcf_from_walk`."""
    trees = m.forest.trees
    segments: list[LatticeBridge] = [dfw_encode(t) for t in trees[:-1]]
    segments.append(bridge_from_marked_tree(trees[-1], m.mark[1]))
    return concat_segments(segments)


def _locate_node(f: PlaneForest, node: int) -> tuple[int, int]:
    """Global 1-based lex index across trees -> (tree index, 1-based pos)."""
    if not 1 <= node <= f.size:
        raise ValueError(f"node {node} outside [1, {f.size}]")
    acc = 0
    for ti, t in enumerate(f.trees):
        if node <= acc + t.size:
            return ti, node - acc
        acc += t.size
    raise AssertionError("unreachable")


def forest_to_mcf(f: PlaneForest, marked_node: int) -> MarkedCyclicForest:
    """Rotate the trees so the marked node's tree comes last."""
    ti, pos = _locate_node(f, marked_node)
    trees = f.trees[ti + 1 :] + f.trees[: ti + 1]
    return MarkedCyclicForest(PlaneForest(trees), (len(trees) - 1, pos))


def mcf_preimages(m: MarkedCyclicForest) -> list[tuple[PlaneForest, int]]:
    """All (forest, global mark) pairs mapping to m; exactly c of them."""
    trees = m.forest.trees
    c = len(trees)
    pos = m.mark[1]
    out = []
    for k in range(c):
        rotated = trees[k:] + trees[:k]
        # The marked tree sits at position c - 1 - k in the rotated forest.
        before = sum(t.size for t in rotated[: c - 1 - k])
        out.append((PlaneForest(rotated), before + pos))
    return out


def count_mcf(s: DegreeSequence) -> int:
    """n! / prod(counts[i]!), the number of marked cyclic forests."""
    out = math.factorial(s.n)
    for k in s.counts.values():
        out //= math.factorial(k)
    return out


def count_forests(s: DegreeSequence) -> int:
    """(c/n) * count_mcf(s); always an integer by the cycle lemma."""
    total = s.c * count_mcf(s)
    assert total % s.n == 0
    return total // s.n


def _multiset_permutations(items: Sequence[int]) -> Iterator[list[int]]:
    """Distinct permutations of a multiset, in lexicographic order.

    Steps from the sorted list by the next-permutation rule, so the depth
    of the call stack does not grow with len(items).
    """
    a = sorted(items)
    while True:
        yield list(a)
        # The longest non-increasing tail is already the last arrangement of
        # its entries; raise the entry before it to the next larger one.
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def enumerate_walks(s: DegreeSequence) -> Iterator[CodingWalk]:
    """Coding walks of all distinct permutations of d(s); one per MCF."""
    for perm in _multiset_permutations(list(degree_vector(s))):
        yield walk_from_degrees(perm)


def enumerate_mcfs(s: DegreeSequence, cap: int = 10) -> Iterator[MarkedCyclicForest]:
    if s.n > cap:
        raise TooLarge(f"n={s.n} exceeds enumeration cap {cap}")
    for w in enumerate_walks(s):
        yield mcf_from_walk(w)


def enumerate_forests(s: DegreeSequence, cap: int = 10) -> Iterator[PlaneForest]:
    """Every plane forest with degree sequence s, exactly once.

    A permutation of d(s) codes a forest iff its walk first reaches -c at
    the last step, i.e. all c tree segments are first-passage bridges.
    """
    if s.n > cap:
        raise TooLarge(f"n={s.n} exceeds enumeration cap {cap}")
    for w in enumerate_walks(s):
        if min(w.values[:-1]) > -s.c:
            yield PlaneForest(tuple(dfw_decode(seg) for seg in split_at_passage_times(w)))
