"""Brownian first-passage simulation, excursions, and the tau(1/sigma) law."""

import hashlib
import math
import threading
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from planeforest import (
    ks_one_sample,
    ranked_excursions,
    reflect_at_min,
    rng_from_seed,
    sample_limit_vector,
    sample_tau_exact,
    simulate_to_hit,
    substream,
    tau_cdf,
    tau_density,
    uncensored_limit_draws,
)
from planeforest import limit_sim, sampler
from planeforest.errors import CapExceeded, DomainError
from small_cases import outcome, traced_peak


def test_tau_cdf_closed_form_values():
    # P(tau(1) <= 1) = 2(1 - Phi(1)) for sigma = 1
    assert tau_cdf(1.0, 1.0) == pytest.approx(2 * (1 - norm.cdf(1.0)))
    assert tau_cdf(4.0, 1.0) == pytest.approx(2 * (1 - norm.cdf(0.5)))
    # scaling: tau for sigma is tau for 1 divided by sigma^2 ... in law
    assert tau_cdf(1.0, 2.0) == pytest.approx(tau_cdf(4.0, 1.0))
    # erfc(1 / (sigma sqrt(2 t))) against 2 * norm.sf(1 / (sigma sqrt(t))).
    t = np.geomspace(1e-4, 1e8, 241)
    for sig in (0.5, 1.0, math.sqrt(2.0), 2.3):
        oracle = 2 * norm.sf(1 / (sig * np.sqrt(t)))
        assert np.abs(tau_cdf(t, sig) - oracle).max() <= 1e-15
        scalar = tau_cdf(0.37, sig)
        assert type(scalar) is float
        assert abs(scalar - 2 * norm.sf(1 / (sig * math.sqrt(0.37)))) <= 1e-15


def test_tau_density_matches_formula_and_cdf():
    sig = math.sqrt(2.0)
    t = 0.7
    expect = 1.0 / (sig * math.sqrt(2 * math.pi * t**3)) * math.exp(-1 / (2 * t * sig**2))
    assert tau_density(t, sig) == pytest.approx(expect)
    # numerical derivative of the CDF
    h = 1e-6
    deriv = (tau_cdf(t + h, sig) - tau_cdf(t - h, sig)) / (2 * h)
    assert deriv == pytest.approx(tau_density(t, sig), rel=1e-5)


def test_tau_density_integrates_to_one():
    for sig in (1.0, math.sqrt(2.0), 3.0):
        total, err = quad(lambda t: tau_density(t, sig), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_tau_domain_errors():
    with pytest.raises(DomainError):
        tau_density(0.0, 1.0)
    with pytest.raises(DomainError):
        tau_density(-1.0, 1.0)
    with pytest.raises(DomainError):
        tau_cdf(1.0, -2.0)
    # NaN is not a positive time, alone or inside an array.
    for t in (math.nan, np.array([0.5, math.nan, 2.0])):
        for f in (tau_density, tau_cdf):
            with pytest.raises(DomainError):
                f(t, 1.0)


def test_nan_level_or_step_is_rejected():
    for x, dt in ((math.nan, 1e-2), (1.0, math.nan)):
        with pytest.raises(ValueError, match="positive"):
            simulate_to_hit(x, dt, rng_from_seed(1))
    with pytest.raises(DomainError, match="dt > 0"):
        sample_limit_vector(1.0, 1, math.nan, rng_from_seed(1))


@pytest.mark.parametrize("dt", [2000.0, math.inf])
def test_step_above_t_cap_is_rejected(dt):
    # int(t_cap / dt) would be 0 steps, and every draw would look censored.
    with pytest.raises(ValueError, match="dt <= t_cap"):
        simulate_to_hit(1.0, dt, rng_from_seed(1), t_cap=1000.0)
    with pytest.raises(DomainError, match="dt <= t_cap"):
        sample_limit_vector(1.0, 1, dt, rng_from_seed(1), t_cap=1000.0)


def test_more_than_1e8_steps_are_rejected():
    # dt = 1e-12 at t_cap = 1000 would take up to 1e15 steps, hours of work.
    for call in (lambda dt: simulate_to_hit(1.0, dt, rng_from_seed(1), t_cap=1000.0),
                 lambda dt: sample_limit_vector(1.0, 1, dt, rng_from_seed(1), t_cap=1000.0)):
        with pytest.raises(DomainError, match="1e8 steps"):
            call(1e-12)
        with pytest.raises(DomainError, match="1e8 steps"):
            call(9e-6)  # 1.1e8 steps
    # 1e-5 is the smallest step allowed at t_cap = 1000.
    assert limit_sim._step_count(1e-5, 1000.0) == 99_999_999


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_sigma_must_be_positive_and_finite(sigma):
    calls = [
        lambda: tau_density(1.0, sigma),
        lambda: tau_cdf(1.0, sigma),
        lambda: sample_tau_exact(sigma, rng_from_seed(1), size=3),
        lambda: sample_limit_vector(sigma, 1, 1e-2, rng_from_seed(1)),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="sigma"):
            call()


def test_sample_tau_exact_matches_cdf():
    sig = math.sqrt(2.0)
    samples = sample_tau_exact(sig, rng_from_seed(5), size=20_000)
    ks = ks_one_sample(samples, lambda t: tau_cdf(np.asarray(t), sig))
    assert ks < 0.02
    # construction: tau = 1/(sigma Z)^2, so sigma^2 * tau = 1/Z^2 >= ... > 0
    assert (samples > 0).all()


def test_simulate_to_hit_stops_at_crossing():
    path, tau = simulate_to_hit(1.0, 1e-3, rng_from_seed(0))
    assert path[0] == 0.0
    assert path[-1] <= -1.0
    assert (path[:-1] > -1.0).all()
    # interpolated crossing time sits within the final step
    n_steps = len(path) - 1
    assert (n_steps - 1) * 1e-3 <= tau <= n_steps * 1e-3


def test_simulate_to_hit_cap():
    with pytest.raises(CapExceeded):
        simulate_to_hit(50.0, 1e-3, rng_from_seed(1), t_cap=0.5)


def test_reflect_at_min_properties():
    path, _ = simulate_to_hit(1.0, 1e-3, rng_from_seed(2))
    r = reflect_at_min(path)
    assert (r >= 0.0).all()
    assert r[0] == 0.0
    # reflection vanishes exactly at running-minimum records
    run_min = np.minimum.accumulate(path)
    assert np.array_equal(r == 0.0, path == run_min)
    # reflecting again changes no bit
    assert reflect_at_min(r).tobytes() == r.tobytes()


def test_ranked_excursions_structure():
    path, tau = simulate_to_hit(1.0, 1e-3, rng_from_seed(3))
    starts, ends = ranked_excursions(path, 1e-3)
    lengths = ends - starts
    assert (np.diff(lengths) <= 0).all()
    assert (starts >= 0).all() and (ends > starts).all()
    # intervals are disjoint
    order = np.argsort(starts)
    assert (ends[order][:-1] <= starts[order][1:] + 1e-12).all()
    # excursion lengths tile the zero-free part of [0, tau]
    assert lengths.sum() <= len(path) * 1e-3
    # the reflected path has the same zero set, so the same intervals
    again = ranked_excursions(reflect_at_min(path), 1e-3)
    assert [a.tobytes() for a in again] == [starts.tobytes(), ends.tobytes()]


def test_sample_limit_vector_deterministic_and_ranked():
    sig = math.sqrt(2.0)

    def draw(index):
        # tau is heavy-tailed, so skip (deterministically) past any
        # replicate that would run beyond the time cap
        idx, taus, lengths = uncensored_limit_draws(sig, 3, 1e-3, 1, 4, first=index)
        return int(idx[0]), taus[0], lengths[0]

    i, tau_a, lengths_a = draw(0)
    j, tau_b, lengths_b = draw(i)
    assert j == i and tau_a == tau_b
    assert np.array_equal(lengths_a, lengths_b)
    assert len(lengths_a) == 3
    assert list(lengths_a) == sorted(lengths_a, reverse=True)
    assert tau_a > 0
    assert lengths_a[0] <= tau_a


def test_uncensored_limit_draws_skip_the_censored_substreams():
    # At t_cap = 2 about half of the draws at sigma = 1 are censored.
    sig, dt, t_cap = 1.0, 1e-2, 2.0
    idx, taus, lengths = uncensored_limit_draws(sig, 2, dt, 12, 36, first=5, t_cap=t_cap)
    assert idx.shape == taus.shape == (12,) and lengths.shape == (12, 2)
    assert idx[0] >= 5 and (np.diff(idx) >= 1).all()
    skipped = sorted(set(range(5, int(idx[-1]) + 1)) - set(idx.tolist()))
    assert skipped and len(skipped) == int(idx[-1]) + 1 - 5 - 12
    for i in skipped:
        with pytest.raises(CapExceeded):
            sample_limit_vector(sig, 2, dt, substream(36, i), t_cap=t_cap)
    for i, tau, row in zip(idx, taus, lengths):
        got_tau, got_row = sample_limit_vector(sig, 2, dt, substream(36, int(i)), t_cap=t_cap)
        assert got_tau == tau and got_row.tobytes() == row.tobytes()
    empty = uncensored_limit_draws(sig, 2, dt, 0, 36)
    assert [a.shape for a in empty] == [(0,), (0,), (0, 2)]


def _counted_draws(monkeypatch):
    """The sample_limit_vector calls that uncensored_limit_draws makes, as a list."""
    calls = []
    real = limit_sim.sample_limit_vector

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(limit_sim, "sample_limit_vector", counted)
    return calls


def test_uncensored_limit_draws_give_up_when_most_draws_are_censored(monkeypatch):
    # x = 100 is never reached before t_cap = 1: 3 + 20 draws are skipped,
    # the 24th raises instead of looping for ever.  On one CPU the draws run
    # one at a time in the caller's thread, so no later draw is made.
    monkeypatch.setattr(sampler, "_cpus", lambda: 1)
    calls = _counted_draws(monkeypatch)
    with pytest.raises(CapExceeded):
        uncensored_limit_draws(0.01, 1, 1e-2, 3, 37, t_cap=1.0)
    assert len(calls) == 24


def test_threaded_limit_draws_give_up_on_the_same_draw(monkeypatch):
    # On three CPUs the workers draw ahead of the 24th draw, but no further
    # than the 2 * 3 + 20 draws that the give-up rule can read, and the
    # same CapExceeded is raised with no worker left running.
    monkeypatch.setattr(sampler, "_cpus", lambda: 3)
    calls = _counted_draws(monkeypatch)
    threads = threading.active_count()
    with pytest.raises(CapExceeded, match=r"^no passage of -100.0 before t_cap=1.0$"):
        uncensored_limit_draws(0.01, 1, 1e-2, 3, 37, t_cap=1.0)
    assert 24 <= len(calls) <= 2 * 3 + 21
    assert threading.active_count() == threads


def test_uncensored_limit_draws_are_the_same_on_any_number_of_cpus(monkeypatch):
    # At t_cap = 2 about half of the draws at sigma = 1 are censored.
    got = {}
    for cpus in (1, 3):
        monkeypatch.setattr(sampler, "_cpus", lambda: cpus)
        draws = uncensored_limit_draws(1.0, 2, 1e-2, 40, 38, first=3, t_cap=2.0)
        got[cpus] = [a.tobytes() for a in draws]
    assert got[1] == got[3]
    idx = np.frombuffer(got[1][0], dtype=np.int64)
    assert idx[-1] + 1 - 3 - 40 > 0  # some draws were censored


def test_limit_draws_leave_no_threads(monkeypatch):
    monkeypatch.setattr(sampler, "_cpus", lambda: 3)
    threads = threading.active_count()
    # The count is reached with draws still queued.
    uncensored_limit_draws(1.0, 2, 1e-2, 5, 38, t_cap=2.0)
    assert threading.active_count() == threads
    # The give-up raise.
    with pytest.raises(CapExceeded):
        uncensored_limit_draws(0.01, 1, 1e-2, 2, 37, t_cap=1.0)
    assert threading.active_count() == threads
    # A draw that raises closes the map early.
    with pytest.raises(DomainError):
        uncensored_limit_draws(math.nan, 1, 1e-2, 4, 37, t_cap=1.0)
    assert threading.active_count() == threads


def test_limit_draws_cancel_the_queued_draws_once_the_count_is_reached(monkeypatch):
    # Draw 0 is kept at once and every later draw takes 0.2 s: once draw 0 is
    # read, only the draws already running on the three workers are made,
    # not the 21 queued behind them.
    monkeypatch.setattr(sampler, "_cpus", lambda: 3)
    calls = _counted_draws(monkeypatch)
    real = limit_sim._limit_draw

    def draw(sigma, top_j, dt, seed, index, t_cap):
        if index:
            time.sleep(0.2)
        return real(sigma, top_j, dt, seed, index, t_cap)

    monkeypatch.setattr(limit_sim, "_limit_draw", draw)
    idx, _, _ = uncensored_limit_draws(1.0, 1, 1e-2, 1, 38, t_cap=50.0)
    assert idx.tolist() == [0] and len(calls) <= 1 + 3


def _first_draw_waits_for(monkeypatch, later, timeout=10.0):
    """Make draw 0 wait (up to ``timeout`` seconds, then raise TimeoutError)
    until draw ``later`` has finished; the returned Event is set once it has."""
    done = threading.Event()
    real = limit_sim._limit_draw

    def draw(sigma, top_j, dt, seed, index, t_cap):
        if index == 0 and not done.wait(timeout):
            raise TimeoutError(f"draw {later} was not made while draw 0 ran")
        out = real(sigma, top_j, dt, seed, index, t_cap)
        if index == later:
            done.set()
        return out

    monkeypatch.setattr(limit_sim, "_limit_draw", draw)
    return done


@pytest.mark.parametrize("window", [1, None])
def test_limit_draws_look_ahead_of_a_slow_draw(monkeypatch, window):
    # Draw 0 finishes only after draw 12 has: with one draw in flight per
    # worker, draw 12 would wait for draw 0 to be read, so the window must
    # reach more than four draws per worker past the one being read.
    monkeypatch.setattr(sampler, "_cpus", lambda: 3)
    if window is not None:
        monkeypatch.setattr(limit_sim, "_LOOK_AHEAD", window)
    done = _first_draw_waits_for(monkeypatch, 12, timeout=1.0 if window == 1 else 10.0)
    if window == 1:
        with pytest.raises(TimeoutError):
            uncensored_limit_draws(1.0, 1, 1e-2, 20, 40, t_cap=50.0)
        return
    idx, _, _ = uncensored_limit_draws(1.0, 1, 1e-2, 20, 40, t_cap=50.0)
    assert done.is_set() and idx[0] == 0


def test_censored_draws_waiting_in_the_window_hold_no_chunk(monkeypatch):
    # x = 100 is not reached before t_cap = 40 (40,000 steps, one full chunk
    # buffer per draw).  While draw 0 waits, the other two workers finish
    # draws 1..25; a censored draw that kept its exception, traceback and
    # all, would keep its buffer while it waits to be read.
    monkeypatch.setattr(sampler, "_cpus", lambda: 3)
    list(sampler._in_order(abs, 3))  # imports concurrent.futures before tracing
    _first_draw_waits_for(monkeypatch, 25)

    def give_up():
        with pytest.raises(CapExceeded):
            uncensored_limit_draws(0.01, 1, 1e-3, 3, 41, t_cap=40.0)

    chunk = limit_sim._CHUNK * 8
    assert traced_peak(give_up) < 2 * 3 * chunk


def test_sample_limit_vector_mean_tau():
    # E[tau(1/sigma)] is infinite, but the median is 1/(sigma * z_{0.75})^2;
    # check the sample median against the exact CDF inverse.
    sig = math.sqrt(2.0)
    taus = []
    for i in range(400):
        try:
            taus.append(sample_limit_vector(sig, 1, 2e-3, substream(6, i), t_cap=100.0)[0])
        except CapExceeded:
            taus.append(np.inf)  # censored far above the median
    med = float(np.median(taus))
    exact_med = 1.0 / (sig * norm.ppf(0.75)) ** 2
    assert med == pytest.approx(exact_med, rel=0.25)


def _path_reference(sigma, top_j, dt, rng, t_cap):
    """tau and zero-padded top lengths from the whole path."""
    path, tau = simulate_to_hit(1.0 / sigma, dt, rng, t_cap=t_cap)
    starts, ends = ranked_excursions(path, dt)
    top = (ends - starts)[:top_j]
    lengths = np.zeros(top_j)
    lengths[: len(top)] = top
    return tau, lengths


@pytest.mark.parametrize("chunk,dt,t_cap", [
    (None, 1e-4, 10.0),  # default chunks; paths up to 1e5 steps
    (1, 1e-2, 3.0),
    (2, 1e-2, 3.0),
    (7, 5e-3, 3.0),
])
def test_streamed_draw_equals_path_reference(monkeypatch, chunk, dt, t_cap):
    # Both sides run at the same chunk size, so they see the same path;
    # tiny chunks put hits and running-minimum records on chunk boundaries.
    if chunk is not None:
        monkeypatch.setattr(limit_sim, "_CHUNK", chunk)
    draws, censored = 60, 0
    for i in range(draws):
        sigma = (1.0, math.sqrt(2.0), 0.7)[i % 3]
        top_j = 1 + i % 4
        want = outcome(_path_reference, sigma, top_j, dt, substream(31, i), t_cap)
        got = outcome(sample_limit_vector, sigma, top_j, dt, substream(31, i), t_cap)
        if isinstance(want, list):  # [CapExceeded, its message]
            assert want[0] is CapExceeded and got == want
            censored += 1
            continue
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
    assert 0 < censored < draws


@pytest.mark.parametrize("chunk", [1, None])
def test_simulate_to_hit_equals_one_cumsum(monkeypatch, chunk):
    # With one-step chunks, or a path inside one chunk, the path is the
    # cumulative sum of the same normals taken in one call.
    if chunk is not None:
        monkeypatch.setattr(limit_sim, "_CHUNK", chunk)
    x, dt = 0.5, 1e-3
    for i in range(30):
        try:
            path, tau = simulate_to_hit(x, dt, substream(33, i), t_cap=8.0)
        except CapExceeded:
            continue
        z = substream(33, i).standard_normal(len(path) - 1)
        walk = np.concatenate(([0.0], np.cumsum(z * math.sqrt(dt))))
        assert path.tobytes() == walk.tobytes()
        hit = int(np.argmax(walk <= -x))
        assert hit == len(walk) - 1
        frac = (walk[hit - 1] + x) / (walk[hit - 1] - walk[hit])
        assert tau == (hit - 1 + frac) * dt


def test_simulate_to_hit_is_pinned_across_chunks(monkeypatch):
    # 40 draws of up to 300 steps in 7-step chunks, 13 of them censored: the
    # digest pins every path bit, tau and CapExceeded text.
    monkeypatch.setattr(limit_sim, "_CHUNK", 7)
    h = hashlib.sha256()
    censored = 0
    for i in range(40):
        try:
            path, tau = simulate_to_hit((0.5, 1.0)[i % 2], 1e-2, substream(39, i), t_cap=3.0)
        except CapExceeded as exc:
            censored += 1
            h.update(str(exc).encode())
            continue
        h.update(path.tobytes() + tau.hex().encode())
    assert censored == 13
    assert h.hexdigest() == "61c8a0793fcd9e32ecd0b13dc0f4db0097a76be4bbd0684fadf22ce944c8d83b"


def test_ranked_excursions_match_a_plain_loop():
    # Integer-valued paths have ties in the running minimum and paths that
    # end inside an excursion.
    rng = rng_from_seed(34)
    for _ in range(500):
        v = np.concatenate(([0], np.cumsum(rng.integers(-2, 3, rng.integers(0, 25)))))
        zeros = [k for k in range(len(v)) if v[k] == v[: k + 1].min()]
        gaps = [(s, e) for s, e in zip(zeros, zeros[1:]) if e - s >= 2]
        if zeros[-1] < len(v) - 1:
            gaps.append((zeros[-1], len(v) - 1))
        gaps.sort(key=lambda g: (-(g[1] * 0.5 - g[0] * 0.5), g[0]))
        starts, ends = ranked_excursions(v, 0.5)
        got = list(zip(starts.tolist(), ends.tolist()))
        assert got == [(s * 0.5, e * 0.5) for s, e in gaps]


def test_censored_streamed_draw_holds_one_chunk():
    # x = 100 is not reached before t_cap = 500, so all 5e6 steps are drawn;
    # a path-keeping draw holds 40 MB of them.
    def censored_draw():
        with pytest.raises(CapExceeded):
            sample_limit_vector(0.01, 2, 1e-4, substream(35, 0), t_cap=500.0)

    assert traced_peak(censored_draw) < 3e6


@pytest.mark.parametrize("top_j", [0, -2])
def test_sample_limit_vector_needs_a_rank(top_j):
    with pytest.raises(DomainError, match=f"need top_j >= 1, got top_j={top_j}"):
        sample_limit_vector(1.0, top_j, 1e-2, rng_from_seed(1))
