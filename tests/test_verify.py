"""Statistics helpers and the Monte Carlo experiment harness."""

import json
import math

import numpy as np
import pytest
from scipy.stats import norm

from planeforest import (
    chi_square_uniform,
    ks_one_sample,
    ks_two_sample,
    make_degree_sequence,
)
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


def test_chi_square_uniform():
    stat, p = chi_square_uniform([100, 100, 100, 100])
    assert stat == 0.0
    assert p == pytest.approx(1.0)
    _, p_bad = chi_square_uniform([400, 0, 0, 0])
    assert p_bad < 1e-6


def test_experiment_report_json_round_trip():
    rep = experiment_tau(geometric_profile(), 2000, 6, 30, seed=3, tol=0.9)
    obj = json.loads(rep.to_json())
    assert obj["name"] == "tau"
    assert obj["params"]["n"] == 2000
    assert set(obj) == {"name", "params", "passed", "runtime", "stats"}
    assert rep.ok == all(rep.passed.values())
    assert rep.runtime > 0


def test_experiment_tau_structure_and_scaling():
    rep = experiment_tau(geometric_profile(), 4000, 8, 60, seed=4, tol=0.9)
    assert 0 <= rep.stats["ks_tau"] <= 1
    assert rep.stats["sigma"] == pytest.approx(math.sqrt(2.0), abs=0.05)


def test_experiment_tau_rejects_large_cn():
    with pytest.raises(ValueError):
        experiment_tau(geometric_profile(), 1000, 400, 10, seed=0)


def test_experiment_walk_small_run():
    rep = experiment_walk(geometric_profile(), 4000, 8, 200, (0.5, 1.0, 2.0), seed=5, tol=0.2)
    assert set(rep.stats["ks"]) == {"0.5", "1.0", "2.0"}
    # even a small run should land in a loose variance window
    assert 1.2 < rep.stats["variance_ratio_2_over_1"] < 3.0
    assert abs(rep.stats["increment_correlation"]) < 0.3


def test_experiment_degrees_quantiles_shrink_with_n():
    p = geometric_profile()
    small = experiment_degrees(p, 1000, 6, 150, degrees=(0, 1), trees=(1,), seed=6)
    large = experiment_degrees(p, 8000, 12, 150, degrees=(0, 1), trees=(1,), seed=6)
    for key in small.stats["p_quantiles"]:
        assert large.stats["p_quantiles"][key] < small.stats["p_quantiles"][key]
    assert large.stats["sigma_sq_quantiles"]["l=1"] < small.stats["sigma_sq_quantiles"]["l=1"]


def test_experiment_largest_marked_small_run():
    rep = experiment_largest_marked(geometric_profile(), 4000, 6, 200, seed=7, tol=0.5)
    freq = rep.stats["frequency"]
    assert 0.5 < freq <= 1.0
    assert rep.stats["ci95_half_width"] == pytest.approx(
        1.96 * math.sqrt(freq * (1 - freq) / 200), rel=1e-9
    )


def test_experiment_concentration_bound_holds_small():
    s = make_degree_sequence(geometric_profile(), 2000, 6, seed=8)
    rep = experiment_concentration(s, 0, (0.5,), 300, seed=8)
    assert rep.ok
    exceed = rep.stats["exceedance"]["0.5"]
    bound = rep.stats["bound"]["0.5"]
    assert exceed <= bound + 3 * math.sqrt(bound / 300) + 1e-12


def test_experiment_tree_sizes_small_run():
    rep = experiment_tree_sizes(
        geometric_profile(), 4000, 8, reps=60, top_j=2, limit_reps=60, dt=1e-3, seed=9, tol=0.9
    )
    ks = rep.stats["ks_per_coordinate"]
    assert len(ks) == 2
    assert all(0 <= v <= 1 for v in ks)
    assert rep.passed["sizes_weakly_decreasing"]


def test_experiment_tree_sizes_report_is_pinned():
    # t_cap = 20 censors 5 of the 45 limit draws on substreams 10_000_000 + k.
    rep = experiment_tree_sizes(
        geometric_profile(), 2000, 6, reps=20, top_j=2, seed=1, limit_reps=40, dt=1e-2, t_cap=20.0
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


@pytest.mark.parametrize("run", [
    lambda p: experiment_tau(p, 1000, 1, 0, seed=1),  # c = 1 takes the degenerate branch
    lambda p: experiment_largest_marked(p, 1000, 6, 0, seed=1),
    lambda p: experiment_degrees(p, 1000, 6, 0, degrees=(0,), trees=(1,), seed=1),
    lambda p: experiment_concentration(make_degree_sequence(p, 1000, 6), 0, (0.5,), 0, seed=1),
    lambda p: experiment_tree_sizes(p, 1000, 6, 0, top_j=2, seed=1),
    lambda p: experiment_walk(p, 1000, 6, 0, (0.5, 1.0), seed=1),
], ids=["tau_degenerate", "largest_marked", "degrees", "concentration", "tree_sizes", "walk"])
def test_experiments_reject_zero_reps(run):
    with pytest.raises(EmptySample):
        run(geometric_profile())


@pytest.mark.parametrize("run", [
    lambda p, cn: experiment_tau(p, 1000, cn, 10, seed=1),
    lambda p, cn: experiment_largest_marked(p, 1000, cn, 10, seed=1),
    lambda p, cn: experiment_degrees(p, 1000, cn, 10, degrees=(0,), trees=(1,), seed=1),
    lambda p, cn: experiment_tree_sizes(p, 1000, cn, 10, top_j=2, seed=1),
    lambda p, cn: experiment_walk(p, 1000, cn, 10, (0.5, 1.0), seed=1),
], ids=["tau", "largest_marked", "degrees", "tree_sizes", "walk"])
def test_experiments_reject_cn_above_n_to_the_04(run):
    # 1000^0.4 = 15.8 < 16
    with pytest.raises(ValueError, match="supercritical"):
        run(geometric_profile(), 16)
