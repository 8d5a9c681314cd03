"""Brownian first-passage simulation, excursions, and the tau(1/sigma) law."""

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
        i = index
        while True:
            try:
                return i, sample_limit_vector(sig, 3, 1e-3, substream(4, i))
            except CapExceeded:
                i += 1

    i, a = draw(0)
    _, b = draw(i)
    assert a.tau == b.tau
    assert np.array_equal(a.lengths, b.lengths)
    assert len(a.lengths) == 3
    assert list(a.lengths) == sorted(a.lengths, reverse=True)
    assert a.tau > 0
    assert a.lengths[0] <= a.tau
    assert len(a.subpaths) == 3
    no_paths = sample_limit_vector(sig, 2, 1e-3, substream(4, 1), keep_subpaths=False)
    assert not no_paths.subpaths


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
        rep = sample_limit_vector(sigma, top_j, dt, rng, t_cap=t_cap, keep_subpaths=False)
    except CapExceeded as exc:
        return str(exc)
    assert not rep.subpaths
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


def test_streamed_subpaths_match_the_path():
    for i in range(40):
        try:
            rep = sample_limit_vector(1.0, 3, 1e-3, substream(32, i), t_cap=5.0)
        except CapExceeded:
            continue
        got = _streamed(1.0, 3, 1e-3, substream(32, i), 5.0)
        assert rep.tau == got[0]
        assert rep.lengths.tobytes() == got[1].tobytes()
        for sub, length in zip(rep.subpaths, rep.lengths):
            assert len(sub) - 1 == round(length / 1e-3)
            assert sub[0] == 0.0 and sub[-1] == 0.0 and (sub[1:-1] > 0).all()


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
            sample_limit_vector(0.01, 2, 1e-4, substream(35, 0), t_cap=500.0, keep_subpaths=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6
