"""Real trees coded by nonnegative functions, at finite resolution.

The coding pseudometric of a function g is
``d(s, t) = g(s) + g(t) - 2 * min g on [s, t]``; quotienting its zero set
yields a real tree.  Here everything is piecewise linear, so minima are
exact.  A plane tree's contour function, sampled at the first visit of
each node, gives back the tree's graph metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forest_codec import PlaneTree

_TRI_TOL = 1e-9
_TRI_CHUNK = 1 << 16  # entries per temporary of the triangle check, or one n x n matrix


@dataclass(frozen=True)
class CodingFunction:
    """Piecewise-linear g >= 0 on an increasing grid with g(0) = 0."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.shape != v.shape or t.ndim != 1 or len(t) == 0:
            raise ValueError("times and values must be equal-length 1-d arrays")
        if t[0] != 0.0 or v[0] != 0.0:
            raise ValueError("coding function must start at (0, 0)")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("coding function must be nonnegative")

    def __call__(self, x: float) -> float:
        return float(np.interp(x, self.times, self.values))

    def window_min(self, a: float, b: float) -> float:
        """Exact minimum of g on [a, b] (linear interpolation between knots)."""
        return float(_window_mins(self, [a, b], [0], [1])[1][0])


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Validated finite distance matrix."""

    dist: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        # np.allclose(d, d.T, atol=_TRI_TOL) written out: equal, or finite and close.
        # Without isfinite, inf against -inf would pass, as inf <= tol + inf.
        with np.errstate(invalid="ignore"):  # inf - inf
            close = (np.abs(d - d.T) <= _TRI_TOL + 1e-5 * np.abs(d.T)) & np.isfinite(d.T) | (d == d.T)
        if not close.all() or np.abs(np.diag(d)).max() > _TRI_TOL:
            raise ValueError("matrix is not a metric: symmetry/diagonal")
        # d[i, j] <= d[i, k] + d[k, j] + tol for every k, a chunk of k at a time.
        n = d.shape[0]
        step = max(1, _TRI_CHUNK // (n * n))  # n >= 1: the diagonal check raised on n = 0
        for k in range(0, n, step):
            via = d.T[k : k + step, :, None] + d[k : k + step, None, :]  # [k, i, j]: d[i, k] + d[k, j]
            via += _TRI_TOL
            if np.any(d > via):
                raise ValueError("triangle inequality violated")

    @property
    def size(self) -> int:
        return self.dist.shape[0]


def _window_mins(g: CodingFunction, x, i, j) -> tuple[np.ndarray, np.ndarray]:
    """g at the times ``x``, and the exact minimum of g between x[i[k]] and x[j[k]] for each k.

    The minimum over a window is that of g at its two ends and at the knots
    strictly inside it.  Those knots are one index range per window; each
    range's minimum is one entry of a ``np.minimum.reduceat`` over the knot
    values, so the work is O(len(i) + len(x) + knots) in one batch.
    """
    x = np.asarray(x, dtype=float)
    gx = np.interp(x, g.times, g.values)
    a, b = np.minimum(x[i], x[j]), np.maximum(x[i], x[j])
    lo, hi = np.searchsorted(g.times, a, "right"), np.searchsorted(g.times, b, "left")
    # Even entries reduce values[lo:hi] when lo < hi; the appended inf keeps
    # an index equal to the knot count in range.
    knots = np.minimum.reduceat(np.append(g.values, np.inf), np.column_stack((lo, hi)).ravel())[::2]
    return gx, np.minimum(np.minimum(gx[i], gx[j]), np.where(lo < hi, knots, np.inf))


def coding_pseudometric(g: CodingFunction, s: float, t: float) -> float:
    """d(s, t) = g(s) + g(t) - 2 * min of g between s and t."""
    gx, low = _window_mins(g, [s, t], [0], [1])
    return float(gx[0] + gx[1] - 2.0 * low[0])


def metric_snapshot(g: CodingFunction, sample_times) -> FiniteMetricSpace:
    """Pairwise coding distances at the sample times, zero-pairs identified.

    A time at distance <= 1e-12 from an earlier kept time is dropped, so
    the points are the first times of the classes, in sample order.
    """
    times = list(sample_times)
    m = len(times)
    full = np.zeros((m, m))
    left, right = np.triu_indices(m, 1)
    gx, low = _window_mins(g, times, left, right)
    full[left, right] = full[right, left] = gx[left] + gx[right] - 2.0 * low
    # Quotient: keep one sample time per class at coding distance ~0.
    reps: list[int] = []
    for i in range(m):
        if not any(full[i, r] <= 1e-12 for r in reps):
            reps.append(i)
    return FiniteMetricSpace(full[np.ix_(reps, reps)])


def _depths(par: list[int]) -> np.ndarray:
    """Depth of each node, in lex order, from its parent list ``PlaneTree.parents()``."""
    depth = [0] * len(par)
    for v in range(1, len(par)):  # lex order guarantees parent index < child index
        depth[v] = depth[par[v]] + 1
    return np.array(depth)


def tree_graph_metric(t: PlaneTree) -> FiniteMetricSpace:
    """Graph distances between the nodes of a plane tree, in lex order."""
    n = t.size
    par = t.parents()
    size = [1] * n  # subtree sizes; v's subtree is lex nodes v .. v + size[v] - 1
    for v in range(n - 1, 0, -1):
        size[par[v]] += size[v]
    dist = np.empty((n, n))
    dist[0] = _depths(par)
    for v in range(1, n):
        # From v's parent to v: one step nearer v's subtree, one further from the rest.
        dist[v] = dist[par[v]] + 1.0
        dist[v, v : v + size[v]] -= 2.0
    return FiniteMetricSpace(dist)


def contour_function(t: PlaneTree) -> CodingFunction:
    """Depth profile of the contour (Euler tour) exploration.

    2(|T|-1)+1 grid points at unit spacing.  Use
    :func:`first_visit_times` to sample one point per node.  Between the
    first visits of lex nodes i and i+1 the contour takes
    depth(i) - depth(i+1) + 1 down-steps and one up-step; after the last
    node it walks back down to the root.
    """
    d = _depths(t.parents())
    down = np.append(d[:-1] - d[1:] + 1, d[-1])
    up = np.ones_like(down)
    up[-1] = 0
    steps = np.repeat(np.tile([-1, 1], t.size), np.column_stack([down, up]).ravel())
    values = np.concatenate([[0.0], np.cumsum(steps)])
    return CodingFunction(np.arange(len(values), dtype=float), values)


def first_visit_times(t: PlaneTree) -> np.ndarray:
    """Contour time of the first visit to each node, in lex order.

    Before node i the contour has crossed the i edges to nodes 1..i: the
    depth(i) edges on the root path once, every other edge twice.
    """
    return (2 * np.arange(t.size) - _depths(t.parents())).astype(float)
