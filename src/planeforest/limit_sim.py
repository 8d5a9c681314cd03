"""Discretized simulation of the Brownian limit objects.

The limit triple is built from a linear Brownian motion B: reflect at the
running minimum to get R, stop at the first passage time tau(x) of level
-x, and rank the excursion intervals of R by decreasing length.  The law
of tau(1/sigma) is known in closed form (one-sided stable-1/2), which
gives both an exact sampler and the reference CDF for every tau check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from .errors import CapExceeded, DomainError

_CHUNK = 1 << 15


@dataclass(frozen=True)
class BrownianPath:
    """Gaussian random walk at step dt, including the start value 0."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values[0] != 0.0:
            raise ValueError("path must start at 0")

    @property
    def duration(self) -> float:
        return (len(self.values) - 1) * self.dt


@dataclass(frozen=True)
class ExcursionInterval:
    start: float
    end: float

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError("need 0 <= start < end")

    @property
    def length(self) -> float:
        return self.end - self.start


def simulate_to_hit(
    x: float,
    dt: float,
    rng: np.random.Generator,
    t_cap: float = 1000.0,
) -> tuple[BrownianPath, float]:
    """Run B until it first reaches -x; tau is interpolated at the crossing.

    Raises CapExceeded once the simulated time passes t_cap: tau has
    infinite mean, so callers must either accept censoring or re-raise.
    """
    if x <= 0 or dt <= 0:
        raise ValueError("x and dt must be positive")
    sqdt = math.sqrt(dt)
    chunks = [np.zeros(1)]
    last = 0.0
    steps = 0
    max_steps = int(t_cap / dt)
    while True:
        m = min(_CHUNK, max_steps - steps)
        if m <= 0:
            raise CapExceeded(f"no passage of -{x} before t_cap={t_cap}")
        block = last + np.cumsum(rng.standard_normal(m) * sqdt)
        hit = np.flatnonzero(block <= -x)
        if hit.size:
            i = int(hit[0])
            chunks.append(block[: i + 1])
            values = np.concatenate(chunks)
            prev = values[-2]
            cur = values[-1]
            # Linear interpolation of the crossing inside the last step.
            frac = (prev + x) / (prev - cur)
            tau = (len(values) - 2 + frac) * dt
            return BrownianPath(dt, values), tau
        chunks.append(block)
        last = float(block[-1])
        steps += m


def reflect_at_min(path: BrownianPath) -> BrownianPath:
    """R(t) = B(t) - running minimum of B; nonnegative by construction."""
    v = path.values
    return BrownianPath(path.dt, v - np.minimum.accumulate(v))


def ranked_excursions(path: BrownianPath) -> list[ExcursionInterval]:
    """Maximal intervals where the reflected path is positive, longest first.

    Zero-set membership is exact at grid points (R = 0 iff a new running
    minimum is attained there).  Grid ties are broken by earlier start.
    """
    r = path.values - np.minimum.accumulate(path.values)
    pos = r > 0
    if not pos.any():
        return []
    # Boundaries of maximal positive runs.
    edges = np.diff(pos.astype(np.int8))
    starts = np.flatnonzero(edges == 1)  # last zero before each excursion
    ends = np.flatnonzero(edges == -1) + 1
    if pos[-1]:
        ends = np.append(ends, len(r) - 1)
    dt = path.dt
    ivals = [ExcursionInterval(s * dt, e * dt) for s, e in zip(starts, ends)]
    ivals.sort(key=lambda iv: (-iv.length, iv.start))
    return ivals


def tau_density(t, sigma: float):
    """Density of tau(1/sigma): (sigma * sqrt(2 pi t^3))^-1 exp(-1/(2 t sigma^2))."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0) or sigma <= 0:
        raise DomainError("t and sigma must be positive")
    out = np.exp(-1.0 / (2.0 * t * sigma**2)) / (sigma * np.sqrt(2.0 * math.pi * t**3))
    return float(out) if out.ndim == 0 else out


def tau_cdf(t, sigma: float):
    """CDF of tau(1/sigma): 2 * (1 - Phi(1 / (sigma sqrt(t))))."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0) or sigma <= 0:
        raise DomainError("t and sigma must be positive")
    out = 2.0 * norm.sf(1.0 / (sigma * np.sqrt(t)))
    return float(out) if out.ndim == 0 else out


def sample_tau_exact(sigma: float, rng: np.random.Generator, size: int | None = None):
    """Exact sampler tau = 1 / (sigma * Z)^2 with Z standard normal."""
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    z = rng.standard_normal(size)
    return 1.0 / (sigma * z) ** 2


@dataclass
class LimitReplicate:
    """One draw of (tau, ranked excursion lengths, shifted excursion paths)."""

    tau: float
    lengths: np.ndarray
    subpaths: list[np.ndarray] = field(default_factory=list)


def sample_limit_vector(
    sigma: float,
    top_j: int,
    dt: float,
    rng: np.random.Generator,
    t_cap: float = 1000.0,
    keep_subpaths: bool = True,
) -> LimitReplicate:
    """Simulate the limit triple's excursion data at level x = 1/sigma.

    Returns tau(1/sigma), the top_j ranked excursion lengths (zero-padded)
    and, optionally, the excursion sub-paths shifted to start at 0; the
    tree coded by twice such a sub-path is the limit of the matching small
    tree.  CapExceeded propagates from the underlying simulation.
    """
    if sigma <= 0 or top_j < 1:
        raise DomainError("need sigma > 0 and top_j >= 1")
    path, tau = simulate_to_hit(1.0 / sigma, dt, rng, t_cap=t_cap)
    ivals = ranked_excursions(path)[:top_j]
    lengths = np.zeros(top_j)
    lengths[: len(ivals)] = [iv.length for iv in ivals]
    subpaths = []
    if keep_subpaths:
        r = path.values - np.minimum.accumulate(path.values)
        for iv in ivals:
            a, b = int(round(iv.start / dt)), int(round(iv.end / dt))
            subpaths.append(r[a : b + 1] - r[a])
    return LimitReplicate(tau=tau, lengths=lengths, subpaths=subpaths)
