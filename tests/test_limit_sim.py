"""Brownian first-passage simulation, excursions, and the tau(1/sigma) law."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from planeforest import (
    BrownianPath,
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
from planeforest import limit_sim
from planeforest.errors import CapExceeded, DomainError


def test_tau_cdf_closed_form_values():
    # P(tau(1) <= 1) = 2(1 - Phi(1)) for sigma = 1
    assert tau_cdf(1.0, 1.0) == pytest.approx(2 * (1 - norm.cdf(1.0)))
    assert tau_cdf(4.0, 1.0) == pytest.approx(2 * (1 - norm.cdf(0.5)))
    # scaling: tau for sigma is tau for 1 divided by sigma^2 ... in law
    assert tau_cdf(1.0, 2.0) == pytest.approx(tau_cdf(4.0, 1.0))


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


def test_sample_tau_exact_matches_cdf():
    sig = math.sqrt(2.0)
    samples = sample_tau_exact(sig, rng_from_seed(5), size=20_000)
    ks = ks_one_sample(samples, lambda t: tau_cdf(np.asarray(t), sig))
    assert ks < 0.02
    # construction: tau = 1/(sigma Z)^2, so sigma^2 * tau = 1/Z^2 >= ... > 0
    assert (samples > 0).all()


def test_simulate_to_hit_stops_at_crossing():
    path, tau = simulate_to_hit(1.0, 1e-3, rng_from_seed(0))
    assert path.values[0] == 0.0
    assert path.values[-1] <= -1.0
    assert (path.values[:-1] > -1.0).all()
    # interpolated crossing time sits within the final step
    n_steps = len(path.values) - 1
    assert (n_steps - 1) * path.dt <= tau <= n_steps * path.dt


def test_simulate_to_hit_cap():
    with pytest.raises(CapExceeded):
        simulate_to_hit(50.0, 1e-3, rng_from_seed(1), t_cap=0.5)


def test_reflect_at_min_properties():
    path, _ = simulate_to_hit(1.0, 1e-3, rng_from_seed(2))
    r = reflect_at_min(path)
    assert (r.values >= 0.0).all()
    assert r.values[0] == 0.0
    # reflection vanishes exactly at running-minimum records
    run_min = np.minimum.accumulate(path.values)
    assert np.array_equal(r.values == 0.0, path.values == run_min)


def test_ranked_excursions_structure():
    path, tau = simulate_to_hit(1.0, 1e-3, rng_from_seed(3))
    r = reflect_at_min(path)
    exc = ranked_excursions(r)
    lengths = [e.length for e in exc]
    assert lengths == sorted(lengths, reverse=True)
    for e in exc:
        assert e.end > e.start
        assert e.length == pytest.approx(e.end - e.start)
    # intervals are disjoint
    by_start = sorted(exc, key=lambda e: e.start)
    for a, b in zip(by_start, by_start[1:]):
        assert a.end <= b.start + 1e-12
    # excursion lengths tile the zero-free part of [0, tau]
    assert sum(lengths) <= len(path.values) * path.dt


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
        rep = sample_limit_vector(sig, 2, dt, substream(36, int(i)), t_cap=t_cap)
        assert rep.tau == tau and rep.lengths.tobytes() == row.tobytes()
    empty = uncensored_limit_draws(sig, 2, dt, 0, 36)
    assert [a.shape for a in empty] == [(0,), (0,), (0, 2)]


def test_uncensored_limit_draws_give_up_when_most_draws_are_censored(monkeypatch):
    # x = 100 is never reached before t_cap = 1: 3 + 20 draws are skipped,
    # the 24th raises instead of looping for ever.
    calls = []
    real = limit_sim.sample_limit_vector

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(limit_sim, "sample_limit_vector", counted)
    with pytest.raises(CapExceeded):
        uncensored_limit_draws(0.01, 1, 1e-2, 3, 37, t_cap=1.0)
    assert len(calls) == 24


def test_sample_limit_vector_mean_tau():
    # E[tau(1/sigma)] is infinite, but the median is 1/(sigma * z_{0.75})^2;
    # check the sample median against the exact CDF inverse.
    sig = math.sqrt(2.0)
    taus = []
    for i in range(400):
        try:
            taus.append(sample_limit_vector(sig, 1, 2e-3, substream(6, i), t_cap=100.0).tau)
        except CapExceeded:
            taus.append(np.inf)  # censored far above the median
    med = float(np.median(taus))
    exact_med = 1.0 / (sig * norm.ppf(0.75)) ** 2
    assert med == pytest.approx(exact_med, rel=0.25)


def _path_reference(sigma, top_j, dt, rng, t_cap):
    """tau and zero-padded top lengths from the whole path, or the CapExceeded text."""
    try:
        path, tau = simulate_to_hit(1.0 / sigma, dt, rng, t_cap=t_cap)
    except CapExceeded as exc:
        return str(exc)
    lengths = np.zeros(top_j)
    ivals = ranked_excursions(path)[:top_j]
    lengths[: len(ivals)] = [iv.length for iv in ivals]
    return tau, lengths


def _streamed(sigma, top_j, dt, rng, t_cap):
    try:
        rep = sample_limit_vector(sigma, top_j, dt, rng, t_cap=t_cap)
    except CapExceeded as exc:
        return str(exc)
    return rep.tau, rep.lengths


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
        want = _path_reference(sigma, top_j, dt, substream(31, i), t_cap)
        got = _streamed(sigma, top_j, dt, substream(31, i), t_cap)
        if isinstance(want, str):
            assert got == want
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
        z = substream(33, i).standard_normal(len(path.values) - 1)
        walk = np.concatenate(([0.0], np.cumsum(z * math.sqrt(dt))))
        assert path.values.tobytes() == walk.tobytes()
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
        h.update(path.values.tobytes() + tau.hex().encode())
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
        got = ranked_excursions(BrownianPath(0.5, v))
        assert [(e.start, e.end) for e in got] == [(s * 0.5, e * 0.5) for s, e in gaps]


def test_censored_streamed_draw_holds_one_chunk():
    # x = 100 is not reached before t_cap = 500, so all 5e6 steps are drawn;
    # a path-keeping draw holds 40 MB of them.
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            sample_limit_vector(0.01, 2, 1e-4, substream(35, 0), t_cap=500.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6
