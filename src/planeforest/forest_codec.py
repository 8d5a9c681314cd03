"""Plane trees, forests, and the lattice-path codecs.

A plane tree is stored canonically as its lexicographic (depth-first,
children left-to-right) degree sequence; the depth-first walk is the
partial-sum path of those degrees minus one and is a first-passage bridge.
Marked trees biject with lattice bridges through the rotation lemma, and
marked cyclic forests biject with coding walks by cutting at passage times.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .degseq import DegreeSequence, degree_vector, loads, validate
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
        if lex and min(lex) < 0:
            raise MalformedBridge("lex sequence has a negative degree")
        # Nodes 0..i close the tree when their degrees add up to i; only the last may.
        if any(map(operator.lt, itertools.accumulate(lex), range(1, len(lex)))):
            raise MalformedBridge("lex sequence closes the tree early")
        if sum(lex) != len(lex) - 1:
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


_BLOCK = 1 << 16  # nodes per block of to_json: bounds its temporaries
_BRACKETS = np.frombuffer(b"][", dtype=np.uint8)


def _json_lex(lex: np.ndarray, sizes: np.ndarray) -> Iterator[str]:
    """JSON text of the trees' lex lists, without the outermost "[[" and "]]", in blocks.

    Each degree d present has one token "d, ", padded with NUL bytes to the
    fixed width of a whole number of 4-byte words (one word for degrees
    below 100).  The tokens sit in a table indexed by degree, so a block of
    nodes is its degrees' table entries, gathered in one pass, with the
    NULs deleted.  A tree's last token "d, " then becomes "d], [" by
    inserting "]" before its ", " and "[" after it; each token has one
    comma, so the tree ends' commas are found, in blocks that hold a tree
    end, among the block's text.
    """
    degrees = np.flatnonzero(np.bincount(lex))
    tokens = [f"{d}, ".encode() for d in degrees.tolist()]
    width = 4 * -(-max(map(len, tokens)) // 4)
    table = np.zeros(degrees[-1] + 1, dtype=f"V{width}")
    table[degrees] = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in tokens), table.dtype)
    ends = np.cumsum(sizes) - 1
    n = lex.size
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        text = table.take(lex[lo:hi]).tobytes().translate(None, b"\0")
        last = ends[np.searchsorted(ends, lo) : np.searchsorted(ends, hi)] - lo
        if last.size:
            text = np.frombuffer(text, np.uint8)
            comma = np.flatnonzero(text == ord(","))[last]  # of each tree's last token
            at = np.column_stack((comma, comma + 2)).ravel()
            text = np.insert(text, at, np.resize(_BRACKETS, at.size)).tobytes()
        text = text.decode("ascii")
        yield text if hi < n else text[:-4]  # the last "], [" is the close of the list


@dataclass(frozen=True, eq=False, repr=False)
class PlaneForest:
    """Nonempty sequence of plane trees, held as a tuple: the reference forest.

    ``_from_lex`` makes the array forest :class:`_LexForest` instead.
    Equality, hashing and repr are those of ``trees`` for both.
    """

    trees: tuple[PlaneTree, ...]

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        if not self.trees:
            raise MalformedBridge("forest must contain at least one tree")
        for t in self.trees:
            if not isinstance(t, PlaneTree):
                raise MalformedBridge(f"forest entries must be PlaneTree, got {type(t).__name__}")

    def __eq__(self, other):
        return self.trees == other.trees if isinstance(other, PlaneForest) else NotImplemented

    def __hash__(self):
        return hash((self.trees,))

    def __repr__(self):
        return f"PlaneForest(trees={self.trees!r})"

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(lex, sizes) as int64 arrays."""
        lex = itertools.chain.from_iterable(t.lex for t in self.trees)
        sizes = (t.size for t in self.trees)
        return np.fromiter(lex, np.int64), np.fromiter(sizes, np.int64, len(self.trees))

    def _last_tree(self) -> tuple[int, int]:
        """(index, size) of the last tree."""
        return len(self.trees) - 1, self.trees[-1].size

    @property
    def size(self) -> int:
        return sum(t.size for t in self.trees)

    def degree_sequence(self) -> DegreeSequence:
        counts = np.bincount(self._arrays()[0])
        return validate({i: int(k) for i, k in enumerate(counts) if k})

    @staticmethod
    def _from_lex(lex: np.ndarray, sizes: np.ndarray) -> "PlaneForest":
        """Forest of the consecutive slices of ``lex`` with the given sizes.

        All trees are checked in one pass over the array, against the same
        rules :class:`PlaneTree` applies node by node: integer degrees >= 0,
        and each tree's walk, relative to its start, stays >= 0 before its
        last node and is exactly -1 there.  The forest keeps ``lex`` as its
        storage when it is already int64, so the caller must not change it.
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
        walk = lex - 1
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
        f = object.__new__(_LexForest)
        object.__setattr__(f, "_lex", lex)
        object.__setattr__(f, "_sizes", sizes.astype(np.int64, copy=False))
        return f

    def to_json(self, mark: tuple[int, int] | None = None) -> str:
        # Byte-identical to json.dumps({"trees": ..., "mark": ...}).
        tail = "" if mark is None else ', "mark": ' + json.dumps(list(mark))
        return "".join(['{"trees": [[', *_json_lex(*self._arrays()), "]]" + tail + "}"])

    @staticmethod
    def from_json(text: str) -> "PlaneForest":
        obj = loads(text)
        if not isinstance(obj, dict) or not isinstance(obj.get("trees"), list):
            raise MalformedBridge('forest JSON must be an object with a "trees" list')
        if any(isinstance(d, bool) for t in obj["trees"] if isinstance(t, list) for d in t):
            raise MalformedBridge("lex entries must be integer degrees, not true/false")
        return PlaneForest(tuple(map(PlaneTree, obj["trees"])))


class _LexForest(PlaneForest):
    """A forest made by ``PlaneForest._from_lex``: its trees' lex sequences
    end to end in ``_lex`` and their sizes in ``_sizes`` (int64 arrays),
    which answer size, degrees, the mark check and JSON; ``trees`` is built
    on first read.  The property lives here, not on PlaneForest, so that
    forests built from trees keep CPython's specialized attribute loads."""

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._lex, self._sizes

    def _last_tree(self) -> tuple[int, int]:
        return len(self._sizes) - 1, int(self._sizes[-1])

    @property
    def size(self) -> int:
        return self._lex.size

    @functools.cached_property
    def trees(self) -> tuple[PlaneTree, ...]:
        slices = np.split(self._lex, np.cumsum(self._sizes[:-1]))
        return tuple(PlaneTree._unchecked(tuple(x.tolist())) for x in slices)


@dataclass(frozen=True)
class MarkedCyclicForest:
    """Plane forest with a marked node in its last tree.

    ``mark`` is (tree index, lex position), both 0-based for the tree index
    and 1-based for the position within the tree.
    """

    forest: PlaneForest
    mark: tuple[int, int]

    def __post_init__(self):
        try:
            ti, pos = self.mark
            ti, pos = operator.index(ti), operator.index(pos)
        except (TypeError, ValueError):
            raise MalformedBridge(f"mark must be two integers, got {self.mark!r}") from None
        object.__setattr__(self, "mark", (ti, pos))
        if not isinstance(self.forest, PlaneForest):
            raise MalformedBridge(f"forest must be a PlaneForest, got {type(self.forest).__name__}")
        last, size = self.forest._last_tree()
        if ti != last:
            raise MalformedBridge("mark must lie in the last tree")
        if not 1 <= pos <= size:
            raise MalformedBridge("mark position outside the marked tree")

    def to_json(self) -> str:
        return self.forest.to_json(mark=self.mark)


def dfw_encode(t: PlaneTree) -> FirstPassageBridge:
    """Depth-first walk of the tree: partial sums of lex degrees minus one."""
    steps = map(operator.sub, t.lex, itertools.repeat(1))
    return FirstPassageBridge(tuple(itertools.accumulate(steps, initial=0)))


def dfw_decode(b: LatticePath) -> PlaneTree:
    """Unique plane tree whose depth-first walk is b; b must be a first-passage bridge.

    PlaneTree checks the first-passage rule and raises MalformedBridge.
    """
    v = b.values  # degree i is v[i + 1] - (v[i] - 1)
    below = map(operator.sub, v, itertools.repeat(1))
    return PlaneTree(tuple(map(operator.sub, itertools.islice(v, 1, None), below)))


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


def forest_to_mcf(f: PlaneForest, marked_node: int) -> MarkedCyclicForest:
    """Rotate the trees so the marked node (global 1-based lex index) comes last."""
    trees = f.trees
    offsets = list(itertools.accumulate((t.size for t in trees), initial=0))
    try:
        node = operator.index(marked_node)
    except TypeError:
        raise ValueError(f"node {marked_node!r} is not an integer") from None
    if not 1 <= node <= offsets[-1]:
        raise ValueError(f"node {node} outside [1, {offsets[-1]}]")
    ti = bisect.bisect_left(offsets, node) - 1  # offsets[ti] < node <= offsets[ti + 1]
    rotated = trees[ti + 1 :] + trees[: ti + 1]
    return MarkedCyclicForest(PlaneForest(rotated), (len(trees) - 1, node - offsets[ti]))


def mcf_preimages(m: MarkedCyclicForest) -> list[tuple[PlaneForest, int]]:
    """All (forest, global mark) pairs mapping to m; exactly c of them."""
    trees = m.forest.trees
    offsets = list(itertools.accumulate((t.size for t in trees), initial=0))
    # Rotated to start at tree k, the marked (last) tree follows trees k..c-2,
    # which hold offsets[c - 1] - offsets[k] nodes.
    mark = offsets[-2] + m.mark[1]
    return [(PlaneForest(trees[k:] + trees[:k]), mark - offsets[k]) for k in range(len(trees))]


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
