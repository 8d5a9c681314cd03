"""Exhaustive small cases shared by the test modules."""

import itertools

from planeforest import PlaneTree, validate


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
