"""Exhaustive small cases and the reference oracles shared by the test modules.

Each oracle is the plainest form of one object: loops over tuples, pair by
pair, with no shortcut of the code it checks.  A refactor is tested against
the oracle here; it does not copy the code it replaces into the tests.
"""

import itertools
import operator
import tracemalloc

import numpy as np

from planeforest import (
    LatticeBridge, PlaneForest, PlaneTree, degree_vector, mcf_from_walk, shuffle_degrees,
    validate, walk_from_degrees,
)
from planeforest.errors import MalformedBridge, NotAWalk


def outcome(f, *args):
    """f(*args), or the list [type, message] of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return [type(exc), str(exc)]


def traced_peak(call):
    """tracemalloc's peak, in bytes, while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _partitions(m, max_parts, smallest=1):
    """Partitions of m into at most max_parts parts, in non-decreasing order, each >= smallest."""
    if m == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(smallest, m + 1):
        for rest in _partitions(m - first, max_parts - 1, first):
            yield (first,) + rest


def small_degree_sequences(max_n):
    """All degree sequences with n <= max_n, via partitions of n - c."""
    for n in range(1, max_n + 1):
        for m in range(n):  # m = sum of degrees = n - c, c >= 1
            for parts in _partitions(m, n):
                counts = {0: n - len(parts)}
                for part in parts:
                    counts[part] = counts.get(part, 0) + 1
                yield validate(counts)


def all_plane_trees(max_n):
    """Every plane tree with at most max_n nodes."""
    out, frontier = [], [((), 1)]  # (lex prefix, child slots still open)
    while frontier:
        lex, open_slots = frontier.pop()
        if open_slots == 0:
            out.append(PlaneTree(lex))
            continue
        for d in range(max_n - len(lex) - open_slots + 1):
            frontier.append((lex + (d,), open_slots - 1 + d))
    return out


def bridges_of_length(n):
    """Every lattice bridge of length n.  Its increments plus one are n
    numbers >= 0 adding up to n - 1: the gaps between n - 1 bars placed
    among 2n - 2 slots."""
    for bars in itertools.combinations(range(2 * n - 2), n - 1):
        edges = (-1, *bars, 2 * n - 2)
        inc = [hi - lo - 2 for lo, hi in zip(edges, edges[1:])]
        yield LatticeBridge(tuple(itertools.accumulate(inc, initial=0)))


def all_bridges(max_n):
    """Every lattice bridge of length n <= max_n."""
    for n in range(1, max_n + 1):
        yield from bridges_of_length(n)


def path_values(values):
    """LatticePath's check; each check of a path or tree returns the checked tuple."""
    try:
        v = tuple(map(operator.index, values))
    except TypeError as exc:
        raise MalformedBridge(f"path values must be integers: {exc}") from None
    if not v or v[0] != 0:
        raise MalformedBridge("path must start at 0")
    for a, b in zip(v, v[1:]):
        if b - a < -1:
            raise MalformedBridge("downward step larger than 1")
    return v


def bridge_values(values):
    v = path_values(values)
    if v[-1] != -1:
        raise MalformedBridge("bridge must end at -1")
    return v


def first_passage(values):
    """is_first_passage: the sequence ends at -1 and stays >= 0 before."""
    v = tuple(values)
    return v[-1] == -1 and all(x >= 0 for x in v[:-1])


def first_passage_bridge_values(values):
    v = bridge_values(values)
    if not first_passage(v):
        raise MalformedBridge("hits -1 before the endpoint")
    return v


def coding_walk_values(values):
    v = path_values(values)
    if v[-1] >= 0:
        raise MalformedBridge("coding walk must end strictly below 0")
    return v


def tree_lex(lex):
    try:
        lex = tuple(map(operator.index, lex))
    except TypeError as exc:
        raise MalformedBridge(f"lex entries must be integer degrees: {exc}") from None
    if min(lex, default=0) < 0:
        raise MalformedBridge("lex sequence has a negative degree")
    bal = 0
    for i, d in enumerate(lex):
        bal += d - 1
        if bal < 0 and i < len(lex) - 1:
            raise MalformedBridge("lex sequence closes the tree early")
    if bal != -1:
        raise MalformedBridge("lex sequence does not close the tree")
    return lex


def walk_values_from_degrees(degrees):
    try:
        degs = list(map(operator.index, degrees))
    except TypeError as exc:
        raise NotAWalk(f"degrees must be integers: {exc}") from None
    if any(d < 0 for d in degs):
        raise NotAWalk("degrees must be nonnegative")
    values = list(itertools.accumulate((d - 1 for d in degs), initial=0))
    if values[-1] >= 0:
        raise NotAWalk(f"walk ends at {values[-1]} >= 0")
    return coding_walk_values(values)


def split_values(v):
    """The segments' values of the walk v cut at its first passages to -1, -2, ..."""
    segments, start, level = [], 0, 0
    for j in range(1, -v[-1]):
        t = next(i for i in range(start, len(v)) if v[i] <= -j)
        segments.append(first_passage_bridge_values(x - level for x in v[start : t + 1]))
        start, level = t, v[t]
    segments.append(bridge_values(x - level for x in v[start:]))
    return segments


def extended_path_shift(b, k):
    """The cyclic shift: extend b by b(n + i) = -1 + b(i), read n steps from k."""
    v = b.values
    ext = v + tuple(-1 + x for x in v[1:])
    return tuple(ext[k + i] - ext[k] for i in range(b.n + 1))


def full_walk_statistics(s, rng):
    """walk_statistics from the whole walk, its running minimum and one passage search."""
    perm = rng.permutation(degree_vector(s))
    walk = np.cumsum(perm - 1)
    depth = -np.minimum.accumulate(walk)
    boundaries = np.append(np.searchsorted(depth, np.arange(1, s.c), side="left") + 1, s.n)
    sizes = np.diff(boundaries, prepend=0)
    order = np.argsort(-sizes, kind="stable")
    return perm, walk, boundaries, sizes, order


def tuple_codec_sample(s, rng):
    """sample_mcf's and sample_forest's draw through the tuple codec: the marked
    cyclic forest of the shuffled degrees, the start tree k = rng.integers(c)
    drawn after the shuffle, and the forest of its trees from tree k on."""
    m = mcf_from_walk(walk_from_degrees(shuffle_degrees(s, rng)))
    k = int(rng.integers(s.c))
    trees = m.forest.trees
    return m, k, PlaneForest(trees[k:] + trees[:k])


def euler_tour(t):
    """Contour heights and first visits: an explicit walk over child lists."""
    children = [[] for _ in range(t.size)]
    for v, p in enumerate(t.parents()[1:], start=1):
        children[p].append(v)
    depths, first = [0], [0] * t.size
    stack = [iter(children[0])]
    while stack:
        u = next(stack[-1], None)
        if u is None:
            stack.pop()
            if stack:
                depths.append(len(stack) - 1)
        else:
            first[u] = len(depths)
            depths.append(len(stack))
            stack.append(iter(children[u]))
    return depths, first


def graph_metric(t):
    """Tree distances from the parent list: climb both nodes to their common ancestor."""
    n, par = t.size, t.parents()
    depth = [0] * n
    for v in range(1, n):
        depth[v] = depth[par[v]] + 1
    dist = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        a, b = i, j
        while depth[a] > depth[b]:
            a = par[a]
        while depth[b] > depth[a]:
            b = par[b]
        while a != b:
            a, b = par[a], par[b]
        dist[i, j] = dist[j, i] = depth[i] + depth[j] - 2 * depth[a]
    return dist


def window_min(g, a, b):
    """The minimum of the coding function g over [min(a, b), max(a, b)]."""
    a, b = sorted((a, b))
    m = min(float(np.interp(a, g.times, g.values)), float(np.interp(b, g.times, g.values)))
    inside = (g.times > a) & (g.times < b)
    return min(m, float(g.values[inside].min())) if inside.any() else m


def snapshot(g, sample_times):
    """metric_snapshot's matrix: d_g pair by pair, then the first time of each
    zero-distance class kept."""
    times = list(sample_times)
    m = len(times)
    full = np.zeros((m, m))
    for i, j in itertools.combinations(range(m), 2):
        s, t = times[i], times[j]
        full[i, j] = full[j, i] = g(s) + g(t) - 2.0 * window_min(g, s, t)
    reps = []
    for i in range(m):
        if not any(full[i, r] <= 1e-12 for r in reps):
            reps.append(i)
    return full[np.ix_(reps, reps)]


def metric_check(dist):
    """FiniteMetricSpace's check: np.allclose, then one broadcast comparison per point."""
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.allclose(d, d.T, atol=1e-9) or np.abs(np.diag(d)).max() > 1e-9:
        raise ValueError("matrix is not a metric: symmetry/diagonal")
    for k in range(d.shape[0]):
        if np.any(d > d[:, k, None] + d[None, k, :] + 1e-9):
            raise ValueError("triangle inequality violated")


def four_point_holds(dist, tol=1e-9):
    """The four-point condition of a tree metric on the distance matrix dist."""
    n = len(dist)
    for x, y, z, w in itertools.combinations(range(n), 4):
        sums = sorted(
            [dist[x, y] + dist[z, w], dist[x, z] + dist[y, w], dist[x, w] + dist[y, z]]
        )
        if sums[2] > sums[1] + tol:
            return False
    return True
