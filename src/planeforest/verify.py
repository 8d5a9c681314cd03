"""Monte Carlo experiments that check the limit theorems at desk scale.

Each experiment is a pure function of (parameters, seed): replicates draw
from per-index substreams, so reports are bit-reproducible and independent
of execution order.  Reference laws are the closed-form first-passage CDF
for tau-type statistics and simulated limit replicates for ranked
excursion lengths.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.stats

from .degseq import DegreeSequence, degree_vector, empirical, limit_sigma, make_degree_sequence
from .errors import EmptySample
from .limit_sim import tau_cdf, uncensored_limit_draws
from .sampler import substream, walk_statistics

DEFAULT_T_CAP = 500.0
LIMIT_FIRST = 10_000_000  # substream index of the first limit draw


# ---------------------------------------------------------------------------
# statistics helpers


def ks_one_sample(samples: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup distance between the empirical CDF and a reference CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 0:
        raise EmptySample("no samples")
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.abs(f - grid).max(), np.abs(f - (grid - 1.0 / n)).max()))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) == 0 or len(b) == 0:
        raise EmptySample("no samples")
    return float(scipy.stats.ks_2samp(a, b).statistic)


def chi_square_uniform(counts: Sequence[int]) -> tuple[float, float]:
    """Pearson chi-square of observed counts against the uniform law."""
    counts = np.asarray(counts, dtype=float)
    if counts.sum() == 0:
        raise EmptySample("no counts")
    res = scipy.stats.chisquare(counts)
    return float(res.statistic), float(res.pvalue)


@dataclass
class ExperimentReport:
    """Statistics plus pass/fail flags for one experiment run."""

    name: str
    params: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    passed: dict = field(default_factory=dict)
    runtime: float = 0.0

    @property
    def ok(self) -> bool:
        return all(self.passed.values())

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "params": self.params,
                "stats": self.stats,
                "passed": self.passed,
                "runtime": round(self.runtime, 3),
            },
            sort_keys=True,
        )


def _check_reps(reps: int):
    if reps < 1:
        raise EmptySample(f"need at least one replicate, got reps={reps}")


def _setup(p, n: int, cn: int, reps: int, seed: int) -> tuple[DegreeSequence, float]:
    """Check reps and the supercritical regime, then build the degree sequence."""
    _check_reps(reps)
    if cn > n**0.4:
        raise ValueError(f"cn={cn} outside the supercritical regime (cn <= n^0.4)")
    s = make_degree_sequence(p, n, cn, seed)
    return s, limit_sigma(s)


def _params(p, extra: Mapping) -> dict:
    base = {"p": {str(i): w for i, w in sorted(dict(p).items())} if isinstance(p, Mapping) else list(p)}
    base.update(extra)
    return base


# ---------------------------------------------------------------------------
# experiments


def experiment_tau(p, n: int, cn: int, reps: int, seed: int, tol: float = 0.12) -> ExperimentReport:
    """KS of (n - largest tree)/cn^2 and tau_n/cn^2 against the tau(1/sigma) CDF."""
    t0 = time.perf_counter()
    s, sigma = _setup(p, n, cn, reps, seed)
    small_mass = np.empty(reps)
    taus = np.empty(reps)
    for rep in range(reps):
        ws = walk_statistics(s, substream(seed, rep))
        small_mass[rep] = (n - ws.sizes.max()) / cn**2
        taus[rep] = ws.tau_n / cn**2
    report = ExperimentReport("tau", _params(p, {"n": n, "cn": cn, "reps": reps, "seed": seed}))
    if s.c == 1:
        report.stats = {"degenerate": True, "sigma": sigma}
        report.passed = {"degenerate_tau_zero": bool(np.all(taus == 0))}
    else:
        cdf = lambda t: tau_cdf(np.maximum(t, 1e-300), sigma)
        ks_small = ks_one_sample(small_mass, cdf)
        ks_tau = ks_one_sample(taus, cdf)
        report.stats = {"sigma": sigma, "ks_small_mass": ks_small, "ks_tau": ks_tau}
        report.passed = {"ks_small_mass": ks_small <= tol}
    report.runtime = time.perf_counter() - t0
    return report


def experiment_tree_sizes(
    p,
    n: int,
    cn: int,
    reps: int,
    top_j: int,
    seed: int,
    limit_reps: int = 3000,
    dt: float = 1e-4,
    tol: float = 0.12,
    t_cap: float = DEFAULT_T_CAP,
) -> ExperimentReport:
    """Ranked small-tree sizes / cn^2 vs simulated ranked excursion lengths."""
    t0 = time.perf_counter()
    s, sigma = _setup(p, n, cn, reps, seed)
    forest_side = np.empty((reps, top_j))
    sums = np.empty(reps)
    for rep in range(reps):
        ranked = walk_statistics(s, substream(seed, rep)).ranked_sizes
        padded = np.zeros(top_j + 1)
        padded[: min(top_j + 1, len(ranked))] = ranked[: top_j + 1]
        forest_side[rep] = padded[1 : top_j + 1] / cn**2
        sums[rep] = (n - ranked[0]) / cn**2

    idx, _, limit_side = uncensored_limit_draws(
        sigma, top_j, dt, limit_reps, seed, first=LIMIT_FIRST, t_cap=t_cap
    )
    ks = [ks_two_sample(forest_side[:, j], limit_side[:, j]) for j in range(top_j)]
    censored = int(idx[-1]) + 1 - LIMIT_FIRST - limit_reps
    monotone = bool(np.all(np.diff(forest_side, axis=1) <= 0))
    report = ExperimentReport(
        "tree_sizes",
        _params(p, {"n": n, "cn": cn, "reps": reps, "top_j": top_j, "seed": seed, "dt": dt,
                    "limit_reps": limit_reps, "t_cap": t_cap}),
        stats={
            "sigma": sigma,
            "ks_per_coordinate": ks,
            "censored_limit_reps": censored,
            "sum_statistic_mean": float(sums.mean()),
        },
        passed={"ks_top1": ks[0] <= tol, "sizes_weakly_decreasing": monotone},
    )
    report.runtime = time.perf_counter() - t0
    return report


def experiment_walk(
    p, n: int, cn: int, reps: int, t_points: Sequence[float], seed: int, tol: float = 0.06
) -> ExperimentReport:
    """Marginals of the rescaled coding walk against Normal(0, sigma^2 t)."""
    t0 = time.perf_counter()
    s, sigma = _setup(p, n, cn, reps, seed)
    dvec = degree_vector(s)
    t_points = [float(t) for t in t_points]
    ks_idx = [math.floor(t * cn**2) for t in t_points]
    if max(ks_idx) > n:
        raise ValueError("t * cn^2 exceeds n")
    vals = np.empty((reps, len(t_points)))
    half = np.empty((reps, 2))  # two disjoint increments for the diagnostic
    kmax = max(max(ks_idx), 1)
    for rep in range(reps):
        perm = substream(seed, rep).permutation(dvec)
        walk = np.cumsum(perm[:kmax] - 1)
        for j, k in enumerate(ks_idx):
            vals[rep, j] = walk[k - 1] / cn if k >= 1 else 0.0
        mid = kmax // 2
        half[rep] = walk[mid - 1], walk[kmax - 1] - walk[mid - 1]
    stats: dict = {"sigma": sigma, "ks": {}, "variance": {}}
    passed: dict = {}
    for j, t in enumerate(t_points):
        if t == 0:
            passed[f"zero_at_t0"] = bool(np.all(vals[:, j] == 0))
            continue
        scale = sigma * math.sqrt(t)
        ks = ks_one_sample(vals[:, j], lambda x: scipy.stats.norm.cdf(x, scale=scale))
        stats["ks"][str(t)] = ks
        stats["variance"][str(t)] = float(vals[:, j].var())
        passed[f"ks_t={t}"] = ks <= tol
    # A sample with no spread leaves a ratio or correlation undefined: it is
    # reported as null and its check fails.
    if 1.0 in t_points and 2.0 in t_points:
        v1, v2 = stats["variance"]["1.0"], stats["variance"]["2.0"]
        ratio = v2 / v1 if v1 > 0 else None
        stats["variance_ratio_2_over_1"] = ratio
        passed["variance_ratio"] = ratio is not None and 1.7 <= ratio <= 2.3
    spread = bool(np.ptp(half, axis=0).all())
    corr = float(np.corrcoef(half[:, 0], half[:, 1])[0, 1]) if spread else None
    stats["increment_correlation"] = corr
    passed["increment_independence"] = spread and abs(corr) <= 3.0 / math.sqrt(reps)
    report = ExperimentReport(
        "walk", _params(p, {"n": n, "cn": cn, "reps": reps, "t_points": t_points, "seed": seed}),
        stats=stats, passed=passed,
    )
    report.runtime = time.perf_counter() - t0
    return report


def experiment_degrees(
    p,
    n: int,
    cn: int,
    reps: int,
    degrees: Sequence[int],
    trees: Sequence[int],
    seed: int,
    delta: float = 0.05,
    quantile: float = 0.99,
) -> ExperimentReport:
    """Per-tree empirical degree distributions against the global one."""
    t0 = time.perf_counter()
    s, _ = _setup(p, n, cn, reps, seed)
    if min(trees) < 1:
        raise ValueError("tree ranks start at 1")
    if max(trees) > s.c:
        raise ValueError(f"tree rank {max(trees)} exceeds the tree count c = {s.c}")
    emp = empirical(s)
    global_p = {i: emp.probs.get(i, 0.0) for i in degrees}
    global_sig = emp.second_moment
    p_diffs = {(i, l): np.empty(reps) for i in degrees for l in trees}
    s_diffs = {l: np.empty(reps) for l in trees}
    for rep in range(reps):
        ws = walk_statistics(s, substream(seed, rep))
        for l in trees:
            counts = ws.tree_degree_counts(l)
            size = int(ws.ranked_sizes[l - 1])
            for i in degrees:
                pi = counts[i] / size if i < len(counts) else 0.0
                p_diffs[(i, l)][rep] = abs(pi - global_p[i])
            idx = np.arange(len(counts))
            s_diffs[l][rep] = abs(float((idx * idx * counts).sum()) / size - global_sig)
    stats = {
        "p_quantiles": {f"i={i},l={l}": float(np.quantile(v, quantile)) for (i, l), v in p_diffs.items()},
        "p_exceedance": {f"i={i},l={l}": float((v > delta).mean()) for (i, l), v in p_diffs.items()},
        "sigma_sq_quantiles": {f"l={l}": float(np.quantile(v, quantile)) for l, v in s_diffs.items()},
        "sigma_sq_exceedance": {f"l={l}": float((v > delta).mean()) for l, v in s_diffs.items()},
    }
    report = ExperimentReport(
        "degrees",
        _params(p, {"n": n, "cn": cn, "reps": reps, "degrees": list(degrees),
                    "trees": list(trees), "seed": seed, "delta": delta}),
        stats=stats,
        passed={},
    )
    report.runtime = time.perf_counter() - t0
    return report


def experiment_largest_marked(p, n: int, cn: int, reps: int, seed: int, tol: float = 0.95) -> ExperimentReport:
    """Frequency of the marked tree being the largest tree, with a CI."""
    t0 = time.perf_counter()
    s, _ = _setup(p, n, cn, reps, seed)
    hits = sum(walk_statistics(s, substream(seed, rep)).largest_is_marked for rep in range(reps))
    freq = hits / reps
    half_ci = 1.96 * math.sqrt(max(freq * (1 - freq), 1e-12) / reps)
    report = ExperimentReport(
        "largest_marked",
        _params(p, {"n": n, "cn": cn, "reps": reps, "seed": seed}),
        stats={"frequency": freq, "ci95_half_width": half_ci},
        passed={"frequency": freq >= tol},
    )
    report.runtime = time.perf_counter() - t0
    return report


def experiment_concentration(
    s: DegreeSequence,
    degree: int,
    thresholds: Sequence[float],
    reps: int,
    seed: int,
) -> ExperimentReport:
    """Empirical check of the prefix-proportion concentration bound.

    Per replicate, computes sup over window sizes m > c(s) of the deviation
    between the global proportion of degree-``degree`` nodes and their
    proportion among the first m entries of a shuffled degree vector; the
    exceedance frequency is compared against exp(-3 t^2 c / 5) plus three
    binomial standard errors.
    """
    t0 = time.perf_counter()
    _check_reps(reps)
    thresholds = list(thresholds)
    if any(not 0 < t < 1 for t in thresholds):
        raise ValueError("thresholds must lie in (0, 1)")
    dvec = degree_vector(s)
    n, cn = s.n, s.c
    p_i = s.counts.get(degree, 0) / n
    base = (dvec == degree).astype(np.int64)
    ms = np.arange(cn + 1, n + 1, dtype=float)
    sups = np.empty(reps)
    for rep in range(reps):
        mask = substream(seed, rep).permutation(base)
        q = np.cumsum(mask)[cn:]
        sups[rep] = np.abs(p_i - q / ms).max()
    stats: dict = {"p_i": p_i, "cn": cn, "exceedance": {}, "bound": {}}
    passed: dict = {}
    for t in thresholds:
        freq = float((sups >= t).mean())
        bound = math.exp(-3.0 * t * t * cn / 5.0)
        slack = 3.0 * math.sqrt(bound / reps)
        stats["exceedance"][str(t)] = freq
        stats["bound"][str(t)] = bound
        passed[f"t={t}"] = freq <= bound + slack
    report = ExperimentReport(
        "concentration",
        {"counts": {str(i): k for i, k in sorted(s.counts.items())},
         "degree": degree, "thresholds": thresholds, "reps": reps, "seed": seed},
        stats=stats,
        passed=passed,
    )
    report.runtime = time.perf_counter() - t0
    return report
