"""Exact uniform samplers for marked cyclic forests and plane forests.

A uniformly shuffled degree vector codes a uniform marked cyclic forest;
pulling back through the n-to-c marking map (uniform rotation, drop the
mark) gives an exactly uniform plane forest.  Each sample is one O(n)
shuffle; the replicate kernel then sums the coding walk only up to the last
small tree, O(tau_n), and sampling a forest adds O(n) for the marked tree.
Everything is deterministic given (degree sequence, seed): replicate i
draws only from ``substream(seed, i)``, so the replicate loops draw their
replicates side by side, one worker thread per CPU, and yield them in
index order with the same bits on any number of CPUs.
"""

from __future__ import annotations

import collections
import os
from dataclasses import dataclass
from typing import Callable, Iterator

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
    _, bounds = _tree_boundaries(perm, s.c)
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


_COUNT_BLOCK = 1 << 14  # entries per bincount in tree_degree_counts


@dataclass
class WalkStatistics:
    """One sampled replicate's summary, without trees.

    ``perm`` is the shuffled degree vector (O(n)), in the narrowest unsigned
    dtype that holds its largest degree: one byte per node for degrees up to
    255.  ``steps`` is the length of the coding walk that the kernel summed:
    up to the end of the doubling window in which the walk first reaches
    -(c-1), at most min(n, 2 tau_n + 4096) steps and 0 when c = 1.
    ``boundaries`` are the ends of the c tree segments, each passage
    time found in the window that reaches it.  ``sizes`` lists tree sizes
    in marked-cyclic-forest order (the marked tree is last); ``tau_n`` is
    the total size of the non-marked trees;
    ``largest_is_marked`` is the event that the marked tree is the strictly
    largest (ties count against, matching the earlier-tree tie rule).
    """

    perm: np.ndarray
    steps: int
    boundaries: np.ndarray
    sizes: np.ndarray
    ranked_sizes: np.ndarray
    ranked_order: np.ndarray
    tau_n: int
    largest_is_marked: bool

    @property
    def walk(self) -> np.ndarray:
        """The coding walk's first ``steps`` values (int64), summed again from
        ``perm`` on each access."""
        walk = np.subtract(self.perm[: self.steps], 1, dtype=np.int64)
        return np.cumsum(walk, out=walk)

    def tree_degree_counts(self, rank: int) -> np.ndarray:
        """Degree histogram of the rank-th largest tree (1-based rank)."""
        t = int(self.ranked_order[rank - 1])
        lo = 0 if t == 0 else int(self.boundaries[t - 1])
        tree = self.perm[lo : int(self.boundaries[t])]
        # bincount copies its input to intp, so a narrow perm is counted a
        # block at a time, with no tree-sized copy.
        counts = np.zeros(int(tree.max()) + 1, dtype=np.int64)
        for i in range(0, len(tree), _COUNT_BLOCK):
            counts += np.bincount(tree[i : i + _COUNT_BLOCK], minlength=len(counts))
        return counts


_FIRST_WINDOW = 4096  # steps summed before the first passage check


def _tree_boundaries(perm: np.ndarray, c: int) -> tuple[int, np.ndarray]:
    """(hi, ends of the c tree segments) of a shuffled degree vector.

    The walk is summed in windows of doubling length until a window reaches
    -(c-1) at step hi.  Each window is a new int64 array (a narrow ``perm``
    would wrap at 0 - 1), started from the walk's value at the end of the
    one before.  The first c-1 boundaries (1-based step counts) are the
    first passage times of -1, ..., -(c-1), found in each window from its
    running minimum, taken in the window's own storage, so the search holds
    one window-sized array at a time.  The marked tree's lattice bridge may
    dip below -c early, so its segment always ends at n.
    """
    n = len(perm)
    bounds = np.full(c, n, dtype=np.int64)
    # The walk before step hi reaches -found and no lower level; last is its value at step hi.
    hi, found, last = 0, 0, 0
    while found < c - 1:
        lo, hi = hi, min(n, 2 * hi + _FIRST_WINDOW)
        window = np.subtract(perm[lo:hi], 1, dtype=np.int64)
        np.cumsum(window, out=window)
        if lo:
            window += last
        last = int(window[-1])
        depth = np.negative(np.minimum.accumulate(window, out=window), out=window)
        reached = max(found, min(int(depth[-1]), c - 1))  # a window may stay above -found
        bounds[found:reached] = np.searchsorted(depth, np.arange(found + 1, reached + 1)) + lo + 1
        found = reached
        del window, depth  # freed before the next, larger window is allocated
    return hi, bounds


def _narrow_degree_vector(s: DegreeSequence) -> np.ndarray:
    """d(s), as ``degree_vector``, in the narrowest unsigned dtype that holds
    its largest degree."""
    degrees = sorted(s.counts)
    values = np.array(degrees, dtype=np.min_scalar_type(degrees[-1]))
    return np.repeat(values, [s.counts[i] for i in degrees])


def walk_statistics(s: DegreeSequence, rng: np.random.Generator) -> WalkStatistics:
    """Sample one replicate and summarize it without materializing trees.

    Its shuffle makes the same draws as ``shuffle_degrees``: they depend
    only on the vector's length, not on its dtype."""
    perm = _narrow_degree_vector(s)
    rng.shuffle(perm)
    steps, boundaries = _tree_boundaries(perm, s.c)
    sizes = np.diff(boundaries, prepend=0)
    order = np.argsort(-sizes, kind="stable")
    ranked = sizes[order]
    tau_n = int(boundaries[s.c - 2]) if s.c >= 2 else 0
    return WalkStatistics(
        perm=perm,
        steps=steps,
        boundaries=boundaries,
        sizes=sizes,
        ranked_sizes=ranked,
        ranked_order=order,
        tau_n=tau_n,
        largest_is_marked=bool(order[0] == s.c - 1),
    )


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_order(fn: Callable[[int], object], count: int) -> Iterator:
    """fn(0), ..., fn(count - 1), yielded in index order.

    The calls run on min(count, CPUs) worker threads, at most one call per
    worker in flight: index i + workers is submitted only once result i is
    taken.  A call's exception is raised when its index is reached.  The
    pool is shut down when the generator ends or is closed.  With one
    worker the calls run in the caller's thread.
    """
    workers = min(count, _cpus())
    if workers <= 1:
        yield from map(fn, range(count))
        return
    # Imported here: through logging it costs about 10 ms, which a run that
    # never maps replicates should not pay.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        ahead = collections.deque()
        for i in range(count):
            ahead.append(pool.submit(fn, i))
            if len(ahead) == workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def replicates(s: DegreeSequence, seed: int, reps: int) -> Iterator[WalkStatistics]:
    """Replicates 0, ..., reps - 1 of run ``seed``: replicate i is the kernel on
    ``substream(seed, i)``, yielded in index order.  They are drawn on one
    worker thread per CPU (at most one in flight per worker), so the records
    are the same on any number of CPUs.  While the caller reads record i, up
    to one record per worker is being drawn; a loop variable that keeps
    record i alive adds one more, ``map`` over the records does not."""
    yield from _in_order(lambda i: walk_statistics(s, substream(seed, i)), reps)


def forest_summary_csv_header(top_j: int) -> str:
    cols = ["replicate", "tau_n"] + [f"size_{i}" for i in range(1, top_j + 1)]
    return ",".join(cols + ["largest_is_marked"])


def forest_summary_csv_row(rep: int, ws: WalkStatistics, top_j: int) -> str:
    sizes = list(ws.ranked_sizes[:top_j]) + [0] * max(0, top_j - len(ws.ranked_sizes))
    cells = [str(rep), str(ws.tau_n)] + [str(int(x)) for x in sizes]
    cells.append(str(int(ws.largest_is_marked)))
    return ",".join(cells)
