"""Exact uniform samplers for marked cyclic forests and plane forests.

A uniformly shuffled degree vector codes a uniform marked cyclic forest;
pulling back through the n-to-c marking map (uniform rotation, drop the
mark) gives an exactly uniform plane forest.  Everything is O(n) per
sample and deterministic given (degree sequence, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Uniformly random arrangement of d(s) (Fisher-Yates via the generator)."""
    return rng.permutation(degree_vector(s))


def sample_mcf(s: DegreeSequence, rng: np.random.Generator) -> MarkedCyclicForest:
    """Exactly uniform marked cyclic forest with degree sequence s.

    The shuffled degree vector is the trees' lex sequences laid end to end:
    the first c-1 trees are its slices at the walk's passage times.  The
    marked tree is the last slice, of m nodes, rolled left by r, where r - 1
    is the first argmin of the walk over it (the rotation lemma); its mark
    is lex position m - r + 1.  The roll happens in place, and the whole
    array is then checked once as a forest.
    """
    ws = walk_statistics(s, rng)
    lex, walk, n, m = ws.perm, ws.walk, s.n, int(ws.sizes[-1])
    r = int(np.argmin(walk[n - m :])) + 1
    # The walk is rewritten by the check below, so its storage holds the copy.
    last = walk[:m]
    last[:] = lex[n - m :]
    lex[n - m : n - r] = last[r:]
    lex[n - r :] = last[:r]
    forest = PlaneForest._from_lex(lex, ws.sizes, walk)
    return MarkedCyclicForest(forest, (s.c - 1, m - r + 1))


def sample_forest(s: DegreeSequence, rng: np.random.Generator) -> PlaneForest:
    """Exactly uniform plane forest with degree sequence s."""
    mcf = sample_mcf(s, rng)
    trees = mcf.forest.trees
    k = int(rng.integers(len(trees)))
    return PlaneForest(trees[k:] + trees[:k])


@dataclass
class WalkStatistics:
    """One sampled replicate's O(n) summary.

    ``sizes`` lists tree sizes in marked-cyclic-forest order (the marked
    tree is last); ``tau_n`` is the total size of the non-marked trees;
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

    def tree_empirical(self, rank: int) -> np.ndarray:
        counts = self.tree_degree_counts(rank)
        return counts / counts.sum()

    def tree_sigma_sq(self, rank: int) -> float:
        """Second moment of the rank-th tree's empirical degree distribution."""
        p = self.tree_empirical(rank)
        i = np.arange(len(p))
        return float((i * i * p).sum())


def _tree_boundaries(walk: np.ndarray, c: int) -> np.ndarray:
    """Ends of the c tree segments of a coding walk (1-based step counts).

    The first c-1 boundaries are the first passage times of -1, ..., -(c-1);
    the marked tree's lattice bridge may dip below -c early, so its segment
    always ends at n.
    """
    depth = np.minimum.accumulate(walk)
    np.negative(depth, out=depth)  # in place: one O(n) temporary fewer per replicate
    bounds = np.searchsorted(depth, np.arange(1, c), side="left") + 1
    return np.append(bounds, len(walk))


def walk_statistics(s: DegreeSequence, rng: np.random.Generator) -> WalkStatistics:
    """Sample one replicate and summarize it without materializing trees."""
    perm = shuffle_degrees(s, rng)
    walk = np.cumsum(perm - 1)
    boundaries = _tree_boundaries(walk, s.c)
    sizes = np.diff(boundaries, prepend=0)
    order = np.argsort(-sizes, kind="stable")
    ranked = sizes[order]
    tau_n = int(boundaries[s.c - 2]) if s.c >= 2 else 0
    return WalkStatistics(
        walk=walk,
        perm=perm,
        boundaries=boundaries,
        sizes=sizes,
        ranked_sizes=ranked,
        ranked_order=order,
        tau_n=tau_n,
        largest_is_marked=bool(order[0] == s.c - 1),
    )


def forest_summary_csv_header(top_j: int) -> str:
    cols = ["replicate", "tau_n"] + [f"size_{i}" for i in range(1, top_j + 1)]
    return ",".join(cols + ["largest_is_marked"])


def forest_summary_csv_row(rep: int, ws: WalkStatistics, top_j: int) -> str:
    sizes = list(ws.ranked_sizes[:top_j]) + [0] * max(0, top_j - len(ws.ranked_sizes))
    cells = [str(rep), str(ws.tau_n)] + [str(int(x)) for x in sizes]
    cells.append(str(int(ws.largest_is_marked)))
    return ",".join(cells)
