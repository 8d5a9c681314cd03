"""Discretized simulation of the Brownian limit objects.

The limit triple is built from a linear Brownian motion B: reflect at the
running minimum to get R, stop at the first passage time tau(x) of level
-x, and rank the excursion intervals of R by decreasing length.  The law
of tau(1/sigma) is known in closed form (one-sided stable-1/2), which
gives both an exact sampler and the reference CDF for every tau check.
The excursion draws of the limit side run on one worker thread per CPU,
each on its own substream, and are read in index order, so they are the
same on any number of CPUs.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import CapExceeded, DomainError
from .sampler import _LOOK_AHEAD, _in_order, substream

_CHUNK = 1 << 15
T_CAP = 1000.0  # default censoring time of every limit-side draw
_erfc = np.vectorize(math.erfc, otypes=[float])


def _step_count(dt: float, t_cap: float) -> int:
    """The int(t_cap / dt) steps after which a draw is censored.

    Raises DomainError unless 0 < dt <= t_cap and the count is at most 1e8
    (simulate_to_hit keeps 8 bytes per step).
    """
    # Written so that NaN fails the check.
    if not (0 < dt <= t_cap and t_cap / dt <= 1e8):
        raise DomainError(f"need a positive step dt > 0 with dt <= t_cap and t_cap / dt <= "
                          f"1e8 steps, got dt={dt}, t_cap={t_cap}")
    return int(t_cap / dt)


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


def _chunks(x: float, dt: float, rng: np.random.Generator, t_cap: float):
    """B chunk by chunk until it first reaches -x: yields (steps, chunk, low, tau).

    ``chunk`` holds B at steps + 1, ..., steps + len(chunk) and ``low`` is its
    minimum.  Each chunk is drawn, scaled, summed and shifted in one reused
    buffer, so it holds only until the next is drawn.  tau is None until the
    chunk that first reaches -x; that chunk is cut after the crossing step,
    tau is interpolated linearly inside it, and the stream ends.  Raises
    CapExceeded after int(t_cap / dt) steps.
    """
    max_steps = _step_count(dt, t_cap)
    sqdt = math.sqrt(dt)
    buf = np.empty(min(_CHUNK, max_steps))
    last = 0.0
    for steps in range(0, max_steps, len(buf)):
        block = buf[: max_steps - steps]
        rng.standard_normal(out=block)
        block *= sqdt
        np.cumsum(block, out=block)
        block += last
        low = block.min()
        if low <= -x:
            i = int(np.argmax(block <= -x))
            prev = block[i - 1] if i else last
            frac = (prev + x) / (prev - block[i])
            yield steps, block[: i + 1], block[i], (steps + i + frac) * dt
            return
        last = block[-1]
        yield steps, block, low, None
    raise CapExceeded(f"no passage of -{x} before t_cap={t_cap}")


def simulate_to_hit(x: float, dt: float, rng: np.random.Generator,
                    t_cap: float = T_CAP) -> tuple[np.ndarray, float]:
    """Run B until it first reaches -x; tau is interpolated at the crossing.

    Returns (values, tau): B at steps 0, dt, 2 dt, ..., starting at 0 and
    ending at the first value at or below -x.  Raises CapExceeded once the
    simulated time passes t_cap: tau has infinite mean, so callers must
    either accept censoring or re-raise.
    """
    if not x > 0:  # NaN included
        raise DomainError(f"level x must be positive, got x={x}")
    chunks = [np.zeros(1)]
    for _, block, _, tau in _chunks(x, dt, rng, t_cap):
        chunks.append(block.copy())
        if tau is not None:
            return np.concatenate(chunks), tau


def reflect_at_min(values) -> np.ndarray:
    """R = B - running minimum of B; nonnegative by construction."""
    values = np.asarray(values, dtype=float)
    return values - np.minimum.accumulate(values)


def ranked_excursions(values, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Maximal intervals where the reflected path is positive, longest first.

    ``values`` is a path at step dt.  Returns the (starts, ends) times of
    the intervals.  Zero-set membership is exact at grid points (R = 0 iff
    a new running minimum is attained there), so a path that is already
    reflected gives the same intervals.  Grid ties are broken by earlier
    start.
    """
    zeros = np.flatnonzero(reflect_at_min(values) == 0)
    end = len(values) - 1
    # A positive run at the end of the path closes there.
    tail = np.array([zeros[-1], end] if zeros[-1] < end else [], dtype=np.int64)
    starts, ends = _rank_gaps(zeros, dt, None, tail[:1], tail[1:])
    return starts * dt, ends * dt


def _check_sigma(sigma: float, t=1.0):
    """Raise DomainError unless sigma is positive and finite and every t is positive."""
    # NaN fails every comparison, so it is rejected with the infinities.
    if not 0 < sigma < math.inf or not np.all(np.asarray(t) > 0):
        raise DomainError(f"need 0 < sigma < inf and t > 0, got sigma={sigma}")


def tau_density(t, sigma: float):
    """Density of tau(1/sigma): (sigma * sqrt(2 pi t^3))^-1 exp(-1/(2 t sigma^2))."""
    t = np.asarray(t, dtype=float)
    _check_sigma(sigma, t)
    out = np.exp(-1.0 / (2.0 * t * sigma**2)) / (sigma * np.sqrt(2.0 * math.pi * t**3))
    return float(out) if out.ndim == 0 else out


def tau_cdf(t, sigma: float):
    """CDF of tau(1/sigma): 2 * (1 - Phi(1 / (sigma sqrt(t)))) = erfc(1 / (sigma sqrt(2 t)))."""
    t = np.asarray(t, dtype=float)
    _check_sigma(sigma, t)
    out = _erfc(1.0 / (sigma * np.sqrt(2.0 * t)))
    return float(out) if out.ndim == 0 else out


def sample_tau_exact(sigma: float, rng: np.random.Generator, size: int | None = None):
    """Exact sampler tau = 1 / (sigma * Z)^2 with Z standard normal."""
    _check_sigma(sigma)
    z = rng.standard_normal(size)
    return 1.0 / (sigma * z) ** 2


def sample_limit_vector(sigma: float, top_j: int, dt: float, rng: np.random.Generator,
                        t_cap: float = T_CAP) -> tuple[float, np.ndarray]:
    """Simulate the limit triple's excursion data at level x = 1/sigma.

    Returns (tau, lengths): tau(1/sigma) and the top_j ranked excursion
    lengths (zero-padded).  B comes from the chunk stream that
    simulate_to_hit keeps whole, so the memory is one chunk however long
    the draw.  Across chunks the scan carries the running minimum and the
    index of the last running-minimum record; a chunk that stays above the
    minimum has neither a record nor the crossing.  Only the top_j longest
    excursions are kept, as (start, end) step indices.  Raises CapExceeded once the simulated time passes
    t_cap.  simulate_to_hit and ranked_excursions are the whole-path
    reference for the same bits.
    """
    _check_sigma(sigma)
    if top_j < 1:
        raise DomainError(f"need top_j >= 1, got top_j={top_j}")
    starts = ends = np.empty(0, dtype=np.int64)
    run_min, last_rec = 0.0, 0
    for steps, block, low, tau in _chunks(1.0 / sigma, dt, rng, t_cap):
        if low > run_min:
            continue
        run = np.minimum.accumulate(block)
        np.minimum(run, run_min, out=run)
        zeros = np.flatnonzero(block <= run)
        zeros += steps + 1
        starts, ends = _rank_gaps(np.concatenate(([last_rec], zeros)), dt, top_j, starts, ends)
        if tau is not None:
            lengths = np.zeros(top_j)
            lengths[: len(starts)] = ends * dt - starts * dt
            return tau, lengths
        last_rec = int(zeros[-1])
        run_min = min(run_min, low)


def _limit_draw(sigma, top_j, dt, seed, index, t_cap):
    """sample_limit_vector on substream(seed, index), or, for a censored draw,
    its CapExceeded message.

    A message, not the exception: its traceback would keep the draw's chunk
    buffer alive while the result waits in the look-ahead window.
    """
    try:
        return sample_limit_vector(sigma, top_j, dt, substream(seed, index), t_cap)
    except CapExceeded as exc:
        return str(exc)


def uncensored_limit_draws(sigma: float, top_j: int, dt: float, count: int, seed: int,
                           first: int = 0, t_cap: float = T_CAP) -> tuple[np.ndarray, ...]:
    """The first ``count`` uncensored sample_limit_vector draws.

    The draws run on substreams first, first + 1, ... of ``seed``; one that
    passes t_cap raises CapExceeded and is skipped.  Returns the substream
    index, tau and top_j lengths of each kept draw as arrays of shapes
    (count,), (count,) and (count, top_j); the draws skipped on the way
    number indices[-1] + 1 - first - count.  Once more than count + 20
    draws are censored, sigma is taken to be too small for t_cap and that
    CapExceeded is raised rather than drawing on.

    The draws run on one worker thread per CPU, up to _LOOK_AHEAD per worker
    ahead of the one being read, since a censored draw can take a thousand
    times as long as a typical one.  They are read in index order, so the
    arrays, and the draw that gives up, are the same on any number of CPUs.
    Draws not yet started when the count is reached are cancelled.
    """
    indices = np.empty(count, dtype=np.int64)
    taus = np.empty(count)
    lengths = np.empty((count, top_j))
    row = 0
    # At most count - 1 kept and count + 21 censored draws are read.
    draws = _in_order(lambda i: _limit_draw(sigma, top_j, dt, seed, first + i, t_cap),
                      count and 2 * count + 20, _LOOK_AHEAD)
    with contextlib.closing(draws):
        for i, draw in enumerate(draws):
            if isinstance(draw, str):
                if i + 1 - row > count + 20:
                    raise CapExceeded(draw)
                continue
            indices[row] = first + i
            taus[row], lengths[row] = draw
            row += 1
            if row == count:
                break
    return indices, taus, lengths
