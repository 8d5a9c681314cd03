"""Statistics helpers and the Monte Carlo experiment harness."""

import json
import math
import re

import numpy as np
import pytest
import scipy.stats
from scipy.stats import norm

from planeforest import ks_one_sample, ks_two_sample
from planeforest import sampler, verify
from planeforest.degseq import geometric_profile
from planeforest.errors import EmptySample
from planeforest.verify import (
    experiment_concentration,
    experiment_degrees,
    experiment_largest_marked,
    experiment_tau,
    experiment_tree_sizes,
    experiment_walk,
)


def test_ks_one_sample_known_value():
    # empirical CDF of {0.5} vs U(0,1): sup gap is 0.5 on either side
    assert ks_one_sample([0.5], lambda t: np.clip(np.asarray(t), 0, 1)) == pytest.approx(0.5)
    # a perfect grid of quantiles leaves only the 1/(2m) discretization gap
    m = 100
    grid = (np.arange(m) + 0.5) / m
    assert ks_one_sample(grid, lambda t: np.clip(np.asarray(t), 0, 1)) == pytest.approx(1 / (2 * m))


def test_ks_one_sample_large_sample_normal():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20_000)
    ks = ks_one_sample(x, lambda t: norm.cdf(np.asarray(t)))
    assert ks < 0.015


def test_ks_two_sample_basics():
    a = np.arange(10.0)
    assert ks_two_sample(a, a) == 0.0
    assert ks_two_sample(a, a + 100.0) == 1.0
    with pytest.raises(EmptySample):
        ks_two_sample([], a)
    # Equal to scipy's statistic bit for bit, with and without ties: at
    # these sizes ks_2samp runs in exact mode and rounds to a multiple of
    # 1 / lcm(n1, n2).
    rng = np.random.default_rng(4)
    for n1, n2 in ((7, 13), (10, 100), (300, 3000)):
        for _ in range(20):
            a, b = rng.standard_normal(n1), 1.1 * rng.standard_normal(n2)
            for x, y in ((a, b), (a.round(1), b.round(1))):
                assert ks_two_sample(x, y) == scipy.stats.ks_2samp(x, y).statistic


def test_experiment_report_json_round_trip():
    rep = experiment_tau(geometric_profile(), 2000, 6, 30, seed=3)
    obj = json.loads(rep.to_json())
    assert obj["name"] == "tau"
    assert obj["params"]["n"] == 2000
    assert set(obj) == {"name", "params", "passed", "runtime", "stats"}
    assert rep.ok == all(rep.passed.values())
    assert rep.runtime > 0


def test_experiment_tau_structure_and_scaling():
    rep = experiment_tau(geometric_profile(), 4000, 8, 60, seed=4)
    assert 0 <= rep.stats["ks_tau"] <= 1
    assert rep.stats["sigma"] == pytest.approx(math.sqrt(2.0), abs=0.05)


def test_experiment_tau_rejects_large_cn():
    with pytest.raises(ValueError):
        experiment_tau(geometric_profile(), 1000, 400, 10, seed=0)


def test_experiment_walk_small_run():
    rep = experiment_walk(geometric_profile(), 4000, 8, 200, seed=5)
    assert set(rep.stats["ks"]) == {"0.5", "1.0", "2.0"}
    # even a small run should land in a loose variance window
    assert 1.2 < rep.stats["variance_ratio_2_over_1"] < 3.0
    assert abs(rep.stats["increment_correlation"]) < 0.3


def test_experiment_degrees_quantiles_shrink_with_n():
    # Only the largest tree (l = 1) grows with n; the second stays O(cn^2).
    p = geometric_profile()
    small = experiment_degrees(p, 1000, 6, 150, seed=6)
    large = experiment_degrees(p, 8000, 12, 150, seed=6)
    for key in [k for k in small.stats["p_quantiles"] if k.endswith("l=1")]:
        assert large.stats["p_quantiles"][key] < small.stats["p_quantiles"][key]
    assert large.stats["sigma_sq_quantiles"]["l=1"] < small.stats["sigma_sq_quantiles"]["l=1"]


def test_experiment_largest_marked_small_run():
    rep = experiment_largest_marked(geometric_profile(), 4000, 6, 200, seed=7)
    freq = rep.stats["frequency"]
    assert 0.5 < freq <= 1.0
    assert rep.stats["ci95_half_width"] == pytest.approx(
        1.96 * math.sqrt(freq * (1 - freq) / 200), rel=1e-9
    )


def test_experiment_concentration_bound_holds_small():
    rep = experiment_concentration(geometric_profile(), 2000, 6, 300, seed=8)
    assert rep.ok
    exceed = rep.stats["exceedance"]["0.5"]
    bound = rep.stats["bound"]["0.5"]
    assert exceed <= bound + 3 * math.sqrt(bound / 300) + 1e-12


def test_experiment_tree_sizes_small_run():
    rep = experiment_tree_sizes(
        geometric_profile(), 4000, 8, reps=60, top_j=2, limit_reps=60, dt=1e-3, seed=9
    )
    ks = rep.stats["ks_per_coordinate"]
    assert len(ks) == 2
    assert all(0 <= v <= 1 for v in ks)
    assert rep.passed["sizes_weakly_decreasing"]


def test_experiment_tree_sizes_report_is_pinned(monkeypatch):
    # t_cap = 20 censors 5 of the 45 limit draws on substreams 10_000_000 + k.
    monkeypatch.setattr(verify, "DEFAULT_T_CAP", 20.0)
    rep = experiment_tree_sizes(
        geometric_profile(), 2000, 6, reps=20, top_j=2, seed=1, limit_reps=40, dt=1e-2
    )
    assert rep.stats == {
        "censored_limit_reps": 5,
        "ks_per_coordinate": [0.275, 0.325],
        "sigma": 1.39427400463467,
        "sum_statistic_mean": 2.756944444444444,
    }
    assert rep.passed == {"ks_top1": False, "sizes_weakly_decreasing": True}
    # Enough to rerun the report: both sides' sizes, dt and t_cap.
    assert {k: v for k, v in rep.params.items() if k != "p"} == {
        "cn": 6, "dt": 1e-2, "limit_reps": 40, "n": 2000, "reps": 20, "seed": 1,
        "t_cap": 20.0, "top_j": 2,
    }


def test_fixed_shape_reports_are_pinned():
    # n = 2000, cn = 6, 20 replicates at seed 1: tau, the walk at t = 0.5, 1, 2,
    # degrees 0-2 of the two largest trees, largest-is-marked, and leaf
    # concentration at 0.3, 0.5.
    p = geometric_profile()
    tau = experiment_tau(p, 2000, 6, 20, seed=1)
    assert tau.stats == {"sigma": 1.39427400463467, "ks_small_mass": 0.2962096692902202,
                         "ks_tau": 0.2962096692902202}
    assert tau.passed == {"ks_small_mass": False}
    largest = experiment_largest_marked(p, 2000, 6, 20, seed=1)
    assert largest.stats == {"frequency": 1.0, "ci95_half_width": 4.3826932358995876e-07}
    assert largest.passed == {"frequency": True}
    walk = experiment_walk(p, 2000, 6, 20, seed=1)
    assert walk.stats == {
        "sigma": 1.39427400463467,
        # Against the Normal CDF 0.5 * erfc(-x / (scale sqrt 2)), as math.erfc computes it.
        "ks": {"0.5": 0.21712141117279216, "1.0": 0.41338055389675743, "2.0": 0.16187652534375532},
        "variance": {"0.5": 0.8207638888888891, "1.0": 2.3197222222222225,
                     "2.0": 3.630208333333333},
        "variance_ratio_2_over_1": 1.564932343431924,
        "increment_correlation": -0.3334681429243434,
    }
    assert walk.passed == {"ks_t=0.5": False, "ks_t=1.0": False, "ks_t=2.0": False,
                           "variance_ratio": False, "increment_independence": True}
    assert walk.params["t_points"] == [0.5, 1.0, 2.0]
    degrees = experiment_degrees(p, 2000, 6, 20, seed=1)
    assert degrees.stats == {
        "p_quantiles": {"i=0,l=1": 0.006339688708581084, "i=0,l=2": 0.4472142857142854,
                        "i=1,l=1": 0.005012657463391747, "i=1,l=2": 0.38375999999999977,
                        "i=2,l=1": 0.006443451694240164, "i=2,l=2": 0.20833333333333331},
        "p_exceedance": {"i=0,l=1": 0.0, "i=0,l=2": 0.5, "i=1,l=1": 0.0, "i=1,l=2": 0.6,
                         "i=2,l=1": 0.0, "i=2,l=2": 0.65},
        "sigma_sq_quantiles": {"l=1": 0.09155077668914197, "l=2": 2.845999999999999},
        "sigma_sq_exceedance": {"l=1": 0.1, "l=2": 0.95},
    }
    assert (degrees.params["degrees"], degrees.params["trees"]) == ([0, 1, 2], [1, 2])
    conc = experiment_concentration(p, 2000, 6, 20, seed=1)
    assert conc.stats == {
        "p_i": 0.4985, "cn": 6, "exceedance": {"0.3": 0.3, "0.5": 0.0},
        "bound": {"0.3": 0.7232502423798425, "0.5": 0.4065696597405991},
    }
    assert conc.passed == {"t=0.3": True, "t=0.5": True}
    # The shared params, so the report can be rerun from them, and its own.
    assert conc.params["p"] == tau.params["p"]
    assert {k: v for k, v in conc.params.items() if k not in ("p", "counts")} == {
        "cn": 6, "degree": 0, "n": 2000, "reps": 20, "seed": 1, "thresholds": [0.3, 0.5],
    }
    rerun = experiment_concentration(*(conc.params[k] for k in ("p", "n", "cn", "reps", "seed")))
    assert rerun.stats == conc.stats


@pytest.mark.parametrize("top_j", [0, -1])
def test_experiment_tree_sizes_rejects_top_j_below_one_before_drawing(monkeypatch, top_j):
    # A top_j below 1 is named before any forest replicate is drawn.
    def no_draws(*args, **kwargs):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr(verify, "replicates", no_draws)
    with pytest.raises(ValueError, match=f"top_j must be at least 1, got {top_j}"):
        experiment_tree_sizes(geometric_profile(), 2000, 6, reps=5, top_j=top_j, seed=1)


def test_experiment_tree_sizes_degenerate_at_one_tree(monkeypatch):
    # With c = 1 there are no small trees, so no limit draw is made.
    def no_draws(*args, **kwargs):
        raise AssertionError("c = 1 needs no limit draws")

    monkeypatch.setattr(verify, "uncensored_limit_draws", no_draws)
    rep = experiment_tree_sizes(geometric_profile(), 100, 1, reps=2, top_j=3, seed=1)
    assert rep.stats["degenerate"] is True
    assert rep.passed == {"degenerate_sizes_zero": True}
    assert rep.ok


@pytest.mark.parametrize("run", [
    lambda p: experiment_tau(p, 1000, 1, 0, seed=1),  # c = 1 takes the degenerate branch
    lambda p: experiment_largest_marked(p, 1000, 6, 0, seed=1),
    lambda p: experiment_degrees(p, 1000, 6, 0, seed=1),
    lambda p: experiment_concentration(p, 1000, 6, 0, seed=1),
    lambda p: experiment_tree_sizes(p, 1000, 6, 0, top_j=2, seed=1),
    lambda p: experiment_walk(p, 1000, 6, 0, seed=1),
], ids=["tau_degenerate", "largest_marked", "degrees", "concentration", "tree_sizes", "walk"])
def test_experiments_reject_zero_reps(run):
    with pytest.raises(EmptySample):
        run(geometric_profile())


@pytest.mark.parametrize("run", [
    lambda p, cn: experiment_tau(p, 1000, cn, 10, seed=1),
    lambda p, cn: experiment_largest_marked(p, 1000, cn, 10, seed=1),
    lambda p, cn: experiment_degrees(p, 1000, cn, 10, seed=1),
    lambda p, cn: experiment_tree_sizes(p, 1000, cn, 10, top_j=2, seed=1),
    lambda p, cn: experiment_walk(p, 1000, cn, 10, seed=1),
    lambda p, cn: experiment_concentration(p, 1000, cn, 10, seed=1),
], ids=["tau", "largest_marked", "degrees", "tree_sizes", "walk", "concentration"])
def test_experiments_reject_cn_above_n_to_the_04(run):
    # 1000^0.4 = 15.8 < 16; cn = 0 is below the regime's floor of one tree.
    for cn in (16, 0):
        with pytest.raises(ValueError, match=f"cn={cn} outside the supercritical"):
            run(geometric_profile(), cn)


@pytest.mark.parametrize("call, error, match", [
    (lambda: ks_one_sample([], norm.cdf), EmptySample, "no samples"),
    (lambda: experiment_walk(geometric_profile(), 1, 1, 2, seed=1), ValueError,
     r"t \* cn\^2 exceeds n"),
    (lambda: experiment_concentration(geometric_profile(), 1, 1, 1, seed=0), ValueError,
     "n > cn, got n=1, cn=1"),
], ids=["ks_no_samples", "walk_time_beyond_n", "concentration_no_window"])
def test_statistics_name_what_they_cannot_compute(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_experiment_concentration_rejects_n_at_most_cn_before_drawing(monkeypatch):
    # At n = cn = 1 the sup over window sizes m in (cn, n] has no term.
    def no_draws(*args, **kwargs):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr(verify, "shuffle_degrees", no_draws)
    with pytest.raises(ValueError, match="concentration needs n > cn, got n=1, cn=1"):
        experiment_concentration(geometric_profile(), 1, 1, 3, seed=0)


def test_experiment_tau_degenerate_at_one_tree():
    # With c = 1 the whole forest is the marked tree: tau_n and the small mass are 0.
    rep = experiment_tau(geometric_profile(), 1000, 1, 3, seed=1)
    assert rep.stats == {"degenerate": True, "sigma": rep.stats["sigma"]}
    assert rep.passed == {"degenerate_tau_zero": True}
    assert rep.ok


@pytest.mark.parametrize("run", [
    lambda p: experiment_tau(p, 5000, 8, 9, seed=4),
    lambda p: experiment_tree_sizes(p, 5000, 8, 9, top_j=3, seed=4, limit_reps=20, dt=1e-3),
    lambda p: experiment_walk(p, 5000, 8, 9, seed=4),
    lambda p: experiment_degrees(p, 5000, 8, 9, seed=4),
    lambda p: experiment_largest_marked(p, 5000, 8, 9, seed=4),
    lambda p: experiment_concentration(p, 5000, 8, 9, seed=4),
], ids=["tau", "tree_sizes", "walk", "degrees", "largest_marked", "concentration"])
def test_reports_do_not_depend_on_the_cpu_count(monkeypatch, run):
    # The replicate loops draw on every CPU and read their replicates in index
    # order: a report is the same bytes on one CPU and on three, apart from
    # its wall-clock runtime.
    texts = []
    for cpus in (1, 3):
        monkeypatch.setattr(sampler, "_cpus", lambda: cpus)
        texts.append(re.sub(r'"runtime": [^,}]*', "", run(geometric_profile()).to_json()))
    assert texts[0] == texts[1]
