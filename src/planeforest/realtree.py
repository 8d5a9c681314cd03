"""Real trees coded by nonnegative functions, at finite resolution.

The coding pseudometric of a function g is
``d(s, t) = g(s) + g(t) - 2 * min g on [s, t]``; quotienting its zero set
yields a real tree.  Here everything is piecewise linear, so minima are
exact, and small metric spaces admit brute-force Gromov-Hausdorff search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import TooLarge
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

    @property
    def support(self) -> float:
        return float(self.times[-1])

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
    """Distance matrix with optional probability masses."""

    dist: np.ndarray
    masses: np.ndarray | None = None

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.allclose(d, d.T, atol=_TRI_TOL) or np.abs(np.diag(d)).max() > _TRI_TOL:
            raise ValueError("matrix is not a metric: symmetry/diagonal")
        n = d.shape[0]
        for k in range(n):
            if np.any(d > d[:, k, None] + d[None, k, :] + _TRI_TOL):
                raise ValueError("triangle inequality violated")
        if self.masses is not None:
            m = np.asarray(self.masses, dtype=float)
            object.__setattr__(self, "masses", m)
            if m.shape != (n,) or abs(m.sum() - 1.0) > 1e-9 or np.any(m < 0):
                raise ValueError("masses must be a probability vector")

    @property
    def size(self) -> int:
        return self.dist.shape[0]


def coding_pseudometric(g: CodingFunction, s: float, t: float) -> float:
    """d(s, t) = g(s) + g(t) - 2 * min of g between s and t."""
    return g(s) + g(t) - 2.0 * g.window_min(s, t)


def metric_snapshot(g: CodingFunction, sample_times) -> FiniteMetricSpace:
    """Pairwise coding distances at the sample times, zero-pairs identified.

    Masses are uniform over the sample times; identified points accumulate
    the mass of every time that maps to them.
    """
    times = list(sample_times)
    m = len(times)
    full = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            full[i, j] = full[j, i] = coding_pseudometric(g, times[i], times[j])
    # Quotient: group sample times at coding distance ~0.
    reps: list[int] = []
    group = np.empty(m, dtype=int)
    for i in range(m):
        for gi, r in enumerate(reps):
            if full[i, r] <= 1e-12:
                group[i] = gi
                break
        else:
            group[i] = len(reps)
            reps.append(i)
    k = len(reps)
    dist = full[np.ix_(reps, reps)]
    masses = np.bincount(group, minlength=k) / m
    return FiniteMetricSpace(dist, masses)


def _depths(t: PlaneTree) -> np.ndarray:
    """Depth of each node, in lex order."""
    par = t.parents()
    depth = [0] * t.size
    for v in range(1, t.size):  # lex order guarantees parent index < child index
        depth[v] = depth[par[v]] + 1
    return np.array(depth)


def tree_graph_metric(t: PlaneTree) -> FiniteMetricSpace:
    """Graph distances of a plane tree, with uniform node masses."""
    n = t.size
    par = t.parents()
    depth = _depths(t)
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
    masses = np.full(n, 1.0 / n)
    return FiniteMetricSpace(dist, masses / masses.sum())


def contour_function(t: PlaneTree) -> CodingFunction:
    """Depth profile of the contour (Euler tour) exploration.

    2(|T|-1)+1 grid points at unit spacing.  Use
    :func:`first_visit_times` to sample one point per node.  Between the
    first visits of lex nodes i and i+1 the contour takes
    depth(i) - depth(i+1) + 1 down-steps and one up-step; after the last
    node it walks back down to the root.
    """
    d = _depths(t)
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
    return (2 * np.arange(t.size) - _depths(t)).astype(float)


def _map_pairs(dx: np.ndarray, dy: np.ndarray, limit):
    """Branch-and-bound over map pairs (f: X->Y, g: Y->X).

    Every correspondence contains graph(f) union graph(g) for some map
    pair and distortion is monotone under inclusion, so the minimum over
    map pairs equals the minimum over all correspondences.  f is assigned
    point by point, then g; each assignment adds its |dx - dy| terms to
    the running distortion, and a branch is cut once that reaches
    ``limit()``, which the caller may lower between yields.  Yields
    ``(f, g, distortion)`` for each complete pair below the limit.
    """
    nx, ny = dx.shape[0], dy.shape[0]
    f = [-1] * nx
    g = [-1] * ny

    def extend(k: int, cur: float):
        if cur >= limit():
            return
        if k == nx + ny:
            yield tuple(f), tuple(g), cur
        elif k < nx:
            for cand in range(ny):
                f[k] = cand
                terms = [abs(dx[a, k] - dy[f[a], cand]) for a in range(k + 1)]
                yield from extend(k + 1, max(cur, *terms))
        else:
            j = k - nx
            for cand in range(nx):
                g[j] = cand
                terms = [abs(dy[j, b] - dx[cand, g[b]]) for b in range(j + 1)]
                terms += [abs(dx[a, cand] - dy[f[a], j]) for a in range(nx)]
                yield from extend(k + 1, max(cur, *terms))

    yield from extend(0, 0.0)


def gh_distance_bruteforce(x: FiniteMetricSpace, y: FiniteMetricSpace, cap: int = 7) -> float:
    """Gromov-Hausdorff distance: half the minimal correspondence distortion."""
    if x.size > cap or y.size > cap:
        raise TooLarge(f"brute force capped at {cap} points")
    best = np.inf
    for _, _, dis in _map_pairs(x.dist, y.dist, lambda: best):
        best = dis
    return best / 2.0


def _min_coupling_outside(r_mask: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """min over couplings of the mass placed outside the correspondence."""
    nx, ny = r_mask.shape
    cost = (~r_mask).astype(float).ravel()
    a_eq = []
    b_eq = []
    for i in range(nx):
        row = np.zeros(nx * ny)
        row[i * ny : (i + 1) * ny] = 1.0
        a_eq.append(row)
        b_eq.append(mu[i])
    for j in range(ny):
        row = np.zeros(nx * ny)
        row[j::ny] = 1.0
        a_eq.append(row)
        b_eq.append(nu[j])
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"coupling LP failed: {res.message}")
    return float(res.fun)


def ghp_distance_bruteforce(x: FiniteMetricSpace, y: FiniteMetricSpace, cap: int = 7) -> float:
    """Certified upper bound on the Gromov-Hausdorff-Prokhorov distance.

    For a correspondence R with distortion D and a coupling pi of the two
    mass vectors, gluing along R gives Hausdorff term D/2 and Prokhorov
    term at most max(D/2, pi(outside R)), so the bound is
    ``D/2 + max(D/2, min-coupling mass outside R)``.  The minimum is taken
    over all map-pair correspondences, with the coupling solved exactly as
    a transport LP (which dominates any fixed-grid coupling search).  The
    bound is at least D, so only map pairs with D below the best bound so
    far can lower it, and the search stops at an exact 0.
    """
    if x.size > cap or y.size > cap:
        raise TooLarge(f"brute force capped at {cap} points")
    if x.masses is None or y.masses is None:
        raise ValueError("GHP needs mass vectors on both spaces")
    nx, ny = x.size, y.size
    best = np.inf
    for f, g, dis in _map_pairs(x.dist, y.dist, lambda: best):
        mask = np.zeros((nx, ny), dtype=bool)
        mask[range(nx), f] = True
        mask[g, range(ny)] = True
        outside = _min_coupling_outside(mask, x.masses, y.masses)
        best = min(best, dis / 2.0 + max(dis / 2.0, outside))
        if best == 0.0:
            break
    return float(best)


def gh_upper_bound_from_codings(f: CodingFunction, g: CodingFunction) -> float:
    """2 * sup |f - g| after rescaling both supports to [0, 1].

    Standard comparison bound between trees coded by two functions; always
    at least the brute-force GH distance of common snapshots.
    """
    sf = f.support or 1.0
    sg = g.support or 1.0
    grid = np.union1d(f.times / sf, g.times / sg)
    fv = np.interp(grid, f.times / sf, f.values)
    gv = np.interp(grid, g.times / sg, g.values)
    return 2.0 * float(np.abs(fv - gv).max())
