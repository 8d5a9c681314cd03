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
        if a > b:
            a, b = b, a
        lo = float(np.interp(a, self.times, self.values))
        hi = float(np.interp(b, self.times, self.values))
        m = min(lo, hi)
        inside = (self.times > a) & (self.times < b)
        if inside.any():
            m = min(m, float(self.values[inside].min()))
        return m


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Validated finite distance matrix."""

    dist: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.allclose(d, d.T, atol=_TRI_TOL) or np.abs(np.diag(d)).max() > _TRI_TOL:
            raise ValueError("matrix is not a metric: symmetry/diagonal")
        for k in range(d.shape[0]):
            if np.any(d > d[:, k, None] + d[None, k, :] + _TRI_TOL):
                raise ValueError("triangle inequality violated")

    @property
    def size(self) -> int:
        return self.dist.shape[0]


def coding_pseudometric(g: CodingFunction, s: float, t: float) -> float:
    """d(s, t) = g(s) + g(t) - 2 * min of g between s and t."""
    return g(s) + g(t) - 2.0 * g.window_min(s, t)


def metric_snapshot(g: CodingFunction, sample_times) -> FiniteMetricSpace:
    """Pairwise coding distances at the sample times, zero-pairs identified.

    A time at distance <= 1e-12 from an earlier kept time is dropped, so
    the points are the first times of the classes, in sample order.
    """
    times = list(sample_times)
    m = len(times)
    full = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            full[i, j] = full[j, i] = coding_pseudometric(g, times[i], times[j])
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
    depth = _depths(par)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = i, j
            da, db = depth[a], depth[b]
            while da > db:
                a, da = par[a], da - 1
            while db > da:
                b, db = par[b], db - 1
            while a != b:
                a, b = par[a], par[b]
                da -= 1
            dist[i, j] = dist[j, i] = depth[i] + depth[j] - 2 * da
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
