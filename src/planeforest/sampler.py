"""Exact uniform samplers for marked cyclic forests and plane forests.

A uniformly shuffled degree vector codes a uniform marked cyclic forest;
pulling back through the n-to-c marking map (uniform rotation, drop the
mark) gives an exactly uniform plane forest.  Each sample is one O(n)
shuffle; the replicate kernel then sums the coding walk only up to the last
small tree, O(tau_n), and sampling a forest adds O(n) for the marked tree.
Everything is deterministic given (degree sequence, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
    The marked tree's walk is summed in the kernel's walk buffer, and the
    trees k..c-2, the rolled marked tree and the trees 0..k-1 are then
    copied into that buffer once.  Each caller checks the arrays it
    returns once, as a whole forest.
    """
    perm = shuffle_degrees(s, rng)
    buf, _, bounds = _tree_boundaries(perm, s.c)
    sizes = np.diff(bounds, prepend=0)
    marked = s.n - int(sizes[-1])  # the marked tree's first node
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


@dataclass
class WalkStatistics:
    """One sampled replicate's summary, without trees.

    ``perm`` is the shuffled degree vector (O(n)); ``walk`` is its coding
    walk up to the end of the doubling window in which the walk first
    reaches -(c-1), at most min(n, 2 tau_n + 4096) steps and empty when
    c = 1; ``boundaries`` are the ends of the c tree segments, each passage
    time found in the window that reaches it.  ``sizes`` lists tree sizes
    in marked-cyclic-forest order (the marked tree is last); ``tau_n`` is
    the total size of the non-marked trees;
    ``largest_is_marked`` is the event that the marked tree is the strictly
    largest (ties count against, matching the earlier-tree tie rule).
    """

    walk: np.ndarray
    perm: np.ndarray
    boundaries: np.ndarray
    sizes: np.ndarray
    ranked_sizes: np.ndarray
    ranked_order: np.ndarray
    tau_n: int
    largest_is_marked: bool

    def tree_degree_counts(self, rank: int) -> np.ndarray:
        """Degree histogram of the rank-th largest tree (1-based rank)."""
        t = int(self.ranked_order[rank - 1])
        lo = 0 if t == 0 else int(self.boundaries[t - 1])
        hi = int(self.boundaries[t])
        return np.bincount(self.perm[lo:hi])


_FIRST_WINDOW = 4096  # steps summed before the first passage check


def _tree_boundaries(perm: np.ndarray, c: int) -> tuple[np.ndarray, int, np.ndarray]:
    """(buf, hi, ends of the c tree segments) of a shuffled degree vector.

    The walk is summed in windows of doubling length, each written into the
    n-sized buffer ``buf``, until a window reaches -(c-1); ``buf[:hi]`` is
    then the walk prefix and the rest of ``buf`` is unset.  The first c-1
    boundaries (1-based step counts) are the first passage times of -1, ...,
    -(c-1), found in each window from that window's own running minimum, so
    the search needs no prefix-sized temporary.  The marked tree's lattice
    bridge may dip below -c early, so its segment always ends at n.
    """
    n = len(perm)
    buf = np.empty(n, dtype=np.int64)
    bounds = np.full(c, n, dtype=np.int64)
    hi, found = 0, 0  # the walk before step hi reaches -found and no lower level
    while found < c - 1:
        lo, hi = hi, min(n, 2 * hi + _FIRST_WINDOW)
        window = buf[lo:hi]
        np.subtract(perm[lo:hi], 1, out=window)
        np.cumsum(window, out=window)
        if lo:
            window += buf[lo - 1]
        depth = np.minimum.accumulate(window)
        np.negative(depth, out=depth)
        reached = max(found, min(int(depth[-1]), c - 1))  # a window may stay above -found
        bounds[found:reached] = np.searchsorted(depth, np.arange(found + 1, reached + 1)) + lo + 1
        found = reached
        del depth
    return buf, hi, bounds


def walk_statistics(s: DegreeSequence, rng: np.random.Generator) -> WalkStatistics:
    """Sample one replicate and summarize it without materializing trees."""
    perm = shuffle_degrees(s, rng)
    buf, hi, boundaries = _tree_boundaries(perm, s.c)
    sizes = np.diff(boundaries, prepend=0)
    order = np.argsort(-sizes, kind="stable")
    ranked = sizes[order]
    tau_n = int(boundaries[s.c - 2]) if s.c >= 2 else 0
    return WalkStatistics(
        walk=buf[:hi],
        perm=perm,
        boundaries=boundaries,
        sizes=sizes,
        ranked_sizes=ranked,
        ranked_order=order,
        tau_n=tau_n,
        largest_is_marked=bool(order[0] == s.c - 1),
    )


def replicates(s: DegreeSequence, seed: int, reps: int) -> Iterator[WalkStatistics]:
    """Replicates 0, ..., reps - 1 of run ``seed``: replicate i is the kernel on
    ``substream(seed, i)``.  A caller's loop variable keeps the previous record's
    O(n) arrays alive while the next is drawn; ``map`` over the records does not."""
    for i in range(reps):
        yield walk_statistics(s, substream(seed, i))


def forest_summary_csv_header(top_j: int) -> str:
    cols = ["replicate", "tau_n"] + [f"size_{i}" for i in range(1, top_j + 1)]
    return ",".join(cols + ["largest_is_marked"])


def forest_summary_csv_row(rep: int, ws: WalkStatistics, top_j: int) -> str:
    sizes = list(ws.ranked_sizes[:top_j]) + [0] * max(0, top_j - len(ws.ranked_sizes))
    cells = [str(rep), str(ws.tau_n)] + [str(int(x)) for x in sizes]
    cells.append(str(int(ws.largest_is_marked)))
    return ",".join(cells)
