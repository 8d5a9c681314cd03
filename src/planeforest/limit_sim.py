"""Discretized simulation of the Brownian limit objects.

The limit triple is built from a linear Brownian motion B: reflect at the
running minimum to get R, stop at the first passage time tau(x) of level
-x, and rank the excursion intervals of R by decreasing length.  The law
of tau(1/sigma) is known in closed form (one-sided stable-1/2), which
gives both an exact sampler and the reference CDF for every tau check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .errors import CapExceeded, DomainError
from .sampler import substream

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


def _first_passage_scan(
    x: float, dt: float, rng: np.random.Generator, t_cap: float, top: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Run B chunk by chunk until it first reaches -x, ranking its excursions.

    Each chunk is drawn, scaled, summed and shifted in one reused buffer,
    so the memory is one chunk however long the draw.  Across chunks the
    scan carries the last value, the running minimum and the index of the
    last running-minimum record; a chunk that stays above the minimum has
    neither a record nor the crossing.  It keeps the ``top`` longest
    excursions above the running minimum as (start, end) step indices.
    Returns (tau, starts, ends).
    """
    if x <= 0 or dt <= 0:
        raise ValueError("x and dt must be positive")
    sqdt = math.sqrt(dt)
    max_steps = int(t_cap / dt)
    buf = np.empty(max(0, min(_CHUNK, max_steps)))
    mins = np.empty_like(buf)
    starts = ends = np.empty(0, dtype=np.int64)
    last = run_min = 0.0
    last_rec = steps = 0
    while True:
        m = min(_CHUNK, max_steps - steps)
        if m <= 0:
            raise CapExceeded(f"no passage of -{x} before t_cap={t_cap}")
        block = buf[:m]
        rng.standard_normal(out=block)
        block *= sqdt
        np.cumsum(block, out=block)
        block += last
        low = block.min()
        if low <= run_min:
            hit = low <= -x
            if hit:
                i = int(np.argmax(block <= -x))
                prev = block[i - 1] if i else last
                # Linear interpolation of the crossing inside the last step.
                frac = (prev + x) / (prev - block[i])
                block = block[: i + 1]
            run = np.minimum.accumulate(block, out=mins[: len(block)])
            np.minimum(run, run_min, out=run)
            zeros = np.flatnonzero(block <= run)
            zeros += steps + 1
            starts, ends = _rank_gaps(np.concatenate(([last_rec], zeros)), dt, top, starts, ends)
            if hit:
                return (steps + i + frac) * dt, starts, ends
            last_rec = int(zeros[-1])
            run_min = min(run_min, low)
        last = block[-1]
        steps += m


def _rank_gaps(zeros, dt, top, starts, ends):
    """Add the excursions between consecutive zeros of B - min B to (starts, ends).

    ``zeros`` are increasing step indices; a gap of at least 2 steps is an
    excursion of length e*dt - s*dt.  Returns the ``top`` longest (all for
    None), longest first, grid ties broken by earlier start.
    """
    s, e = zeros[:-1], zeros[1:]
    wide = e - s >= 2
    starts = np.concatenate((starts, s[wide]))
    ends = np.concatenate((ends, e[wide]))
    order = np.lexsort((starts, -(ends * dt - starts * dt)))[:top]
    return starts[order], ends[order]


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
    max_steps = int(t_cap / dt)
    chunks = [np.zeros(1)]
    steps = 0
    while steps < max_steps:
        # The same chunks as the streamed scan, so the path has the same bits.
        block = rng.standard_normal(min(_CHUNK, max_steps - steps))
        block *= sqdt
        np.cumsum(block, out=block)
        block += chunks[-1][-1]
        below = block <= -x
        if below.any():
            i = int(np.argmax(below))
            prev = block[i - 1] if i else chunks[-1][-1]
            frac = (prev + x) / (prev - block[i])
            chunks.append(block[: i + 1])
            return BrownianPath(dt, np.concatenate(chunks)), (steps + i + frac) * dt
        chunks.append(block)
        steps += len(block)
    raise CapExceeded(f"no passage of -{x} before t_cap={t_cap}")


def reflect_at_min(path: BrownianPath) -> BrownianPath:
    """R(t) = B(t) - running minimum of B; nonnegative by construction."""
    v = path.values
    return BrownianPath(path.dt, v - np.minimum.accumulate(v))


def ranked_excursions(path: BrownianPath) -> list[ExcursionInterval]:
    """Maximal intervals where the reflected path is positive, longest first.

    Zero-set membership is exact at grid points (R = 0 iff a new running
    minimum is attained there).  Grid ties are broken by earlier start.
    """
    dt = path.dt
    r = path.values - np.minimum.accumulate(path.values)
    zeros = np.flatnonzero(r == 0)
    end = len(r) - 1
    # A positive run at the end of the path closes there.
    tail = np.array([zeros[-1], end] if zeros[-1] < end else [], dtype=np.int64)
    starts, ends = _rank_gaps(zeros, dt, None, tail[:1], tail[1:])
    return [ExcursionInterval(s * dt, e * dt) for s, e in zip(starts, ends)]


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
    """One draw of tau and the ranked excursion lengths."""

    tau: float
    lengths: np.ndarray


def sample_limit_vector(
    sigma: float,
    top_j: int,
    dt: float,
    rng: np.random.Generator,
    t_cap: float = 1000.0,
) -> LimitReplicate:
    """Simulate the limit triple's excursion data at level x = 1/sigma.

    Returns tau(1/sigma) and the top_j ranked excursion lengths
    (zero-padded).  CapExceeded propagates from the underlying simulation.
    The excursion sub-paths, whose doubles code the limits of the small
    trees, come from simulate_to_hit, reflect_at_min and ranked_excursions.
    """
    if sigma <= 0 or top_j < 1:
        raise DomainError("need sigma > 0 and top_j >= 1")
    tau, starts, ends = _first_passage_scan(1.0 / sigma, dt, rng, t_cap, top_j)
    lengths = np.zeros(top_j)
    lengths[: len(starts)] = ends * dt - starts * dt
    return LimitReplicate(tau=tau, lengths=lengths)


def uncensored_limit_draws(
    sigma: float,
    top_j: int,
    dt: float,
    count: int,
    seed: int,
    first: int = 0,
    t_cap: float = 1000.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first ``count`` uncensored sample_limit_vector draws.

    The draws run on substreams first, first + 1, ... of ``seed``; one that
    passes t_cap raises CapExceeded and is skipped.  Returns the substream
    index, tau and top_j lengths of each kept draw as arrays of shapes
    (count,), (count,) and (count, top_j); the draws skipped on the way
    number indices[-1] + 1 - first - count.  Once more than count + 20
    draws are censored, sigma is taken to be too small for t_cap and that
    CapExceeded is raised rather than drawing on.
    """
    indices = np.empty(count, dtype=np.int64)
    taus = np.empty(count)
    lengths = np.empty((count, top_j))
    row, idx = 0, first
    while row < count:
        try:
            rep = sample_limit_vector(sigma, top_j, dt, substream(seed, idx), t_cap)
        except CapExceeded:
            if idx + 1 - first - row > count + 20:
                raise
        else:
            indices[row], taus[row], lengths[row] = idx, rep.tau, rep.lengths
            row += 1
        idx += 1
    return indices, taus, lengths
