"""Brownian first-passage simulation, excursions, and the tau(1/sigma) law."""

import math

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
)
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
