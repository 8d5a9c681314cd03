"""Exact uniform samplers for marked cyclic forests and plane forests.

A uniformly shuffled degree vector codes a uniform marked cyclic forest;
pulling back through the n-to-c marking map (uniform rotation, drop the
mark) gives an exactly uniform plane forest.  Sampling a forest is one O(n)
shuffle.  Every replicate reads the arrangement from one block drawer,
which draws only the blocks its reader takes: the first k entries of a
uniform arrangement of a multiset have multivariate-hypergeometric class
counts and, given them, a uniform order.  So the replicate kernel draws
only the walk's prefix up to the last small tree, O(tau_n).  Everything is deterministic given
(degree sequence, seed): replicate i draws only from ``substream(seed,
i)``, so the replicate loops draw their replicates side by side, one
worker thread per CPU, and yield them in index order with the same bits on
any number of CPUs.
"""

from __future__ import annotations

import collections
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .degseq import DegreeSequence, degree_vector
from .forest_codec import MarkedCyclicForest, PlaneForest


def rng_from_seed(seed: int) -> np.random.Generator:
    """Platform-stable PCG64 generator from a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent substream for replicate ``index`` of run ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def shuffle_degrees(s: DegreeSequence, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random arrangement of d(s) (Fisher-Yates via the generator).

    Shuffled in place: the same draws as ``rng.permutation``, without its copy."""
    perm = degree_vector(s)
    rng.shuffle(perm)
    return perm


def _marked_arrays(s: DegreeSequence, rng: np.random.Generator, uniform_start: bool):
    """(lex, sizes, r) of an exactly uniform marked cyclic forest.

    The shuffled degree vector is the trees' lex sequences laid end to end:
    the first c-1 trees are its slices at the walk's passage times.  The
    marked tree is the last slice, of m nodes, rolled left by r, where r - 1
    is the first argmin of its own walk (the rotation lemma); its mark is
    lex position m - r + 1.  With ``uniform_start`` the trees are rotated to
    start at a uniform tree k, drawn after the shuffle; otherwise k = 0.
    The degree vector is int64, whose shuffle is faster than a narrow one.
    The marked tree's walk is summed in an n-sized output buffer, and the
    trees k..c-2, the rolled marked tree and the trees 0..k-1 are then
    copied into that buffer once.  Each caller checks the arrays it
    returns once, as a whole forest.
    """
    perm = shuffle_degrees(s, rng)
    _, bounds = _tree_boundaries((perm[lo : lo + _BLOCK] for lo in range(0, s.n, _BLOCK)), s.n, s.c)
    sizes = np.diff(bounds, prepend=0)
    marked = s.n - int(sizes[-1])  # the marked tree's first node
    buf = np.empty(s.n, dtype=np.int64)
    walk = buf[marked:]
    np.subtract(perm[marked:], 1, out=walk)
    r = int(np.argmin(np.cumsum(walk, out=walk))) + 1
    k = int(rng.integers(s.c)) if uniform_start else 0
    start = int(bounds[k - 1]) if k else 0  # tree k's first node
    np.concatenate((perm[start:marked], perm[marked + r :], perm[marked : marked + r], perm[:start]), out=buf)
    return buf, np.roll(sizes, -k), r


def sample_mcf(s: DegreeSequence, rng: np.random.Generator) -> MarkedCyclicForest:
    """Exactly uniform marked cyclic forest with degree sequence s."""
    lex, sizes, r = _marked_arrays(s, rng, uniform_start=False)
    return MarkedCyclicForest(PlaneForest._from_lex(lex, sizes), (s.c - 1, int(sizes[-1]) - r + 1))


def sample_forest(s: DegreeSequence, rng: np.random.Generator) -> PlaneForest:
    """Exactly uniform plane forest with degree sequence s: the marked cyclic
    forest's trees rotated to start at a uniform tree k, its mark dropped."""
    lex, sizes, _ = _marked_arrays(s, rng, uniform_start=True)
    return PlaneForest._from_lex(lex, sizes)


_COUNT_BLOCK = 1 << 14  # entries per bincount in _degree_counts


def _degree_counts(degrees: np.ndarray, length: int) -> np.ndarray:
    """``np.bincount(degrees, minlength=length)``, a block at a time:
    bincount copies its input to intp, so a narrow array is counted with no
    copy of its own size."""
    counts = np.zeros(length, dtype=np.int64)
    for i in range(0, len(degrees), _COUNT_BLOCK):
        counts += np.bincount(degrees[i : i + _COUNT_BLOCK], minlength=length)
    return counts


@dataclass
class WalkStatistics:
    """One sampled replicate's summary, without trees; no field is O(n).

    ``perm`` is the drawn prefix of the shuffled degree vector: its first
    ``steps`` entries, in the narrowest unsigned dtype that holds the
    largest degree (one byte per node for degrees up to 255).  ``steps`` is
    the length of the coding walk that the kernel drew and summed: up to
    the end of the 32,768-step block in which the walk first reaches
    -(c-1), min(n, 32,768 ceil(tau_n / 32,768)) steps (0 when c = 1).
    ``boundaries`` are the ends of the c tree segments, each passage time
    found in the block of the walk that reaches it.  ``sizes`` lists tree
    sizes in marked-cyclic-forest order (the marked tree is last);
    ``tau_n`` is the total size of the non-marked trees;
    ``largest_is_marked`` is the event that the marked tree is the strictly
    largest (ties count against, matching the earlier-tree tie rule).
    ``counts`` is the degree sequence's counts (its own dict, not a copy).
    """

    perm: np.ndarray
    steps: int
    boundaries: np.ndarray
    sizes: np.ndarray
    ranked_sizes: np.ndarray
    ranked_order: np.ndarray
    tau_n: int
    largest_is_marked: bool
    counts: dict

    @property
    def walk(self) -> np.ndarray:
        """The coding walk's first ``steps`` values (int64), summed again from
        ``perm`` on each access."""
        walk = np.subtract(self.perm[: self.steps], 1, dtype=np.int64)
        return np.cumsum(walk, out=walk)

    def tree_degree_counts(self, rank: int) -> np.ndarray:
        """Degree histogram of the rank-th largest tree (1-based rank).

        A small tree is counted from the prefix.  The marked tree, whose end
        the prefix need not reach, is the degree sequence's counts minus the
        small trees'; its histogram runs up to the largest degree."""
        if not 1 <= rank <= len(self.sizes):
            raise ValueError(f"tree rank {rank} outside 1..{len(self.sizes)}")
        t = int(self.ranked_order[rank - 1])
        if t == len(self.sizes) - 1:
            counts = np.zeros(max(self.counts) + 1, dtype=np.int64)
            counts[list(self.counts)] = list(self.counts.values())
            return counts - _degree_counts(self.perm[: self.tau_n], len(counts))
        lo = 0 if t == 0 else int(self.boundaries[t - 1])
        tree = self.perm[lo : int(self.boundaries[t])]
        return _degree_counts(tree, int(tree.max()) + 1)


_BLOCK = 1 << 15  # entries drawn and summed at a time: 256 KiB of int64
_HYPERGEOMETRIC_MAX = 10**9  # rng.multivariate_hypergeometric needs fewer items


def _blocks(s: DegreeSequence, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """A uniform arrangement of d(s), yielded ``_BLOCK`` entries at a time in
    the narrowest unsigned dtype that holds the largest degree.

    Each block's degree counts are multivariate hypergeometric from the
    counts not yet drawn, and one shuffle orders them: the first k entries
    of a uniform arrangement of a multiset have those counts and, given
    them, a uniform order (Sanders et al. 2018).  A block is built and
    shuffled in int64, whose shuffle is faster than a narrow one, and
    narrowed before it is yielded, so a suspended drawer holds no int64
    block.  The block that reaches n is the whole remainder, shuffled with
    no hypergeometric draw, so at n <= 32,768 the draws are those of
    ``shuffle_degrees``.  From n = 10**9, past the hypergeometric sampler's
    range, the whole narrow vector is shuffled once (again the draws of
    ``shuffle_degrees``: a shuffle's draws depend only on the vector's
    length) and yielded in slices.  A reader draws only the blocks it takes.
    """
    degrees = sorted(s.counts)
    narrow = np.array(degrees, dtype=np.min_scalar_type(degrees[-1]))
    remaining = np.array([s.counts[i] for i in degrees], dtype=np.int64)
    if s.n >= _HYPERGEOMETRIC_MAX:
        perm = np.repeat(narrow, remaining)
        rng.shuffle(perm)
        for lo in range(0, s.n, _BLOCK):
            yield perm[lo : lo + _BLOCK]
        return
    values = narrow.astype(np.int64)
    for lo in range(0, s.n, _BLOCK):
        size = min(_BLOCK, s.n - lo)
        counts = remaining if lo + size == s.n else rng.multivariate_hypergeometric(remaining, size)
        block = np.repeat(values, counts)
        np.subtract(remaining, counts, out=remaining)
        rng.shuffle(block)
        block = block.astype(narrow.dtype)  # frees the int64 block
        yield block


def _tree_boundaries(blocks: Iterable[np.ndarray], n: int, c: int) -> tuple[list, np.ndarray]:
    """(the blocks read, ends of the c tree segments) of a degree vector of
    length n, given as consecutive blocks.

    Blocks are read until the walk reaches -(c-1), and none past the one in
    which it does.  Each block's walk is summed in a new int64 array (a
    narrow vector would wrap at 0 - 1), started from the walk's value at
    the end of the block before.  The first c-1 boundaries (1-based step
    counts) are the first passage times of -1, ..., -(c-1), found in each
    block from its running minimum, taken in the block's own storage, so
    the search holds one int64 block at a time.  The marked tree's lattice
    bridge may dip below -c early, so its segment always ends at n.
    """
    bounds = np.full(c, n, dtype=np.int64)
    blocks, read = iter(blocks), []
    # The walk before step hi reaches -found and no lower level; last is its value at step hi.
    hi, found, last = 0, 0, 0
    while found < c - 1:
        read.append(next(blocks))
        lo, hi = hi, hi + len(read[-1])
        walk = np.subtract(read[-1], 1, dtype=np.int64)
        np.cumsum(walk, out=walk)
        walk += last
        last = int(walk[-1])
        depth = np.negative(np.minimum.accumulate(walk, out=walk), out=walk)
        reached = max(found, min(int(depth[-1]), c - 1))  # a block may stay above -found
        bounds[found:reached] = np.searchsorted(depth, np.arange(found + 1, reached + 1)) + lo + 1
        found = reached
        del walk, depth  # freed before the next block is drawn
    return read, bounds


def walk_statistics(s: DegreeSequence, rng: np.random.Generator) -> WalkStatistics:
    """Sample one replicate's walk prefix, the blocks of ``_blocks`` up to
    the one in which the walk first reaches -(c-1), and summarize it
    without materializing trees."""
    read, boundaries = _tree_boundaries(_blocks(s, rng), s.n, s.c)
    perm = np.concatenate([np.empty(0, np.min_scalar_type(max(s.counts))), *read])
    sizes = np.diff(boundaries, prepend=0)
    order = np.argsort(-sizes, kind="stable")
    return WalkStatistics(
        perm=perm,
        steps=len(perm),
        boundaries=boundaries,
        sizes=sizes,
        ranked_sizes=sizes[order],
        ranked_order=order,
        tau_n=int(boundaries[s.c - 2]) if s.c >= 2 else 0,
        largest_is_marked=bool(order[0] == s.c - 1),
        counts=s.counts,
    )


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_order(fn: Callable[[int], object], count: int, window: int = 1) -> Iterator:
    """fn(0), ..., fn(count - 1), yielded in index order.

    The calls run on min(count, CPUs) worker threads, at most ``window``
    calls per worker in flight: index i + window * workers is submitted only
    once result i is taken.  A call's exception is raised when its index is
    reached.  When the generator ends or is closed, the calls not yet
    started are cancelled and the pool is shut down.  With one worker the
    calls run in the caller's thread.
    """
    workers = min(count, _cpus())
    if workers <= 1:
        yield from map(fn, range(count))
        return
    # Imported here: through logging it costs about 10 ms, which a run that
    # never maps replicates should not pay.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    try:
        ahead = collections.deque()
        for i in range(count):
            ahead.append(pool.submit(fn, i))
            if len(ahead) == window * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


# Draws in flight per worker thread.  Draw times are heavy-tailed (tau_n
# for a replicate, censoring for a limit draw), so with one draw per worker
# the other workers would wait idle behind a long one; a replicate's record
# is O(tau_n) and a limit draw's result a few floats.
_LOOK_AHEAD = 32


# Up to this n a replicate is bound by the interpreter and worker threads only
# contend for its lock; from about n = 5,000 two workers beat one thread.
_IN_THREAD_MAX_N = 4096


def _map_replicates(draw: Callable[[int], object], reps: int, n: int) -> Iterator:
    """draw(0), ..., draw(reps - 1), yielded in index order: the one
    threading rule of the replicate loops at degree-vector length n.  Up to
    n = ``_IN_THREAD_MAX_N`` the draws run in the caller's thread; past it,
    through ``_in_order`` with up to ``_LOOK_AHEAD`` draws per worker in
    flight."""
    if n <= _IN_THREAD_MAX_N:
        return map(draw, range(reps))
    return _in_order(draw, reps, _LOOK_AHEAD)


def replicates(s: DegreeSequence, seed: int, reps: int) -> Iterator[WalkStatistics]:
    """Replicates 0, ..., reps - 1 of run ``seed``: replicate i is the kernel on
    ``substream(seed, i)``, yielded in index order.  Above n = 4,096 they
    are drawn on one worker thread per CPU, up to 32 per worker ahead of
    the one being read, so the records are the same on any number of CPUs.
    A loop holds up to that many records per worker besides the one it
    reads, each O(tau_n)."""
    yield from _map_replicates(lambda i: walk_statistics(s, substream(seed, i)), reps, s.n)


def forest_summary_csv_header(top_j: int) -> str:
    cols = ["replicate", "tau_n"] + [f"size_{i}" for i in range(1, top_j + 1)]
    return ",".join(cols + ["largest_is_marked"])


def forest_summary_csv_row(rep: int, ws: WalkStatistics, top_j: int) -> str:
    sizes = list(ws.ranked_sizes[:top_j]) + [0] * max(0, top_j - len(ws.ranked_sizes))
    cells = [str(rep), str(ws.tau_n)] + [str(int(x)) for x in sizes]
    cells.append(str(int(ws.largest_is_marked)))
    return ",".join(cells)
