"""Monte Carlo experiments that check the limit theorems at desk scale.

Each experiment is a pure function of (parameters, seed): replicates draw
from per-index substreams, so reports are bit-reproducible and independent
of execution order; the replicate loops draw on every CPU and still read
their replicates in index order.  Reference laws are the closed-form
first-passage CDF for tau-type statistics and simulated limit replicates
for ranked excursion lengths.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .degseq import DegreeSequence, empirical, limit_sigma, make_degree_sequence
from .errors import EmptySample
from .limit_sim import _check_sigma, _erfc, tau_cdf, uncensored_limit_draws
from .sampler import _blocks, _map_replicates, replicates, substream

DEFAULT_T_CAP = 500.0
LIMIT_FIRST = 10_000_000  # substream index of the first limit draw

# Fixed bars of the experiments' statistics.
_KS_TOL = 0.12  # tau and top-1 tree size
_WALK_KS_TOL = 0.06
_LARGEST_MARKED_FREQ = 0.95
_DELTA = 0.05  # degree-deviation threshold
_QUANTILE = 0.99  # degree-deviation quantile

# Fixed shapes of the experiments.
_WALK_T = (0.5, 1.0, 2.0)  # walk times, in units of cn^2
_DEGREES = (0, 1, 2)  # degrees whose per-tree proportions are compared
_TREE_RANKS = (1, 2)  # ranks of the trees compared
_CONC_DEGREE = 0
_CONC_THRESHOLDS = (0.3, 0.5)


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
    """Exact two-sample KS distance: an integer count over lcm(len(a), len(b))."""
    if len(a) == 0 or len(b) == 0:
        raise EmptySample("no samples")
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    g = math.gcd(len(a), len(b))
    x = np.concatenate((a, b))
    diff = (np.searchsorted(a, x, side="right") * (len(b) // g)
            - np.searchsorted(b, x, side="right") * (len(a) // g))
    return int(np.abs(diff).max()) / (len(a) * len(b) // g)


@dataclass
class ExperimentReport:
    """Statistics plus pass/fail flags for one experiment run."""

    name: str
    params: dict
    stats: dict
    passed: dict
    runtime: float

    @property
    def ok(self) -> bool:
        return all(self.passed.values())

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "runtime": round(self.runtime, 3)}, sort_keys=True)


def _setup(p, n: int, cn: int, reps: int, seed: int) -> tuple[DegreeSequence, float, dict]:
    """Reject reps < 1 and cn outside the supercritical regime 1 <= cn <= n^0.4,
    then build the degree sequence (whose c is cn).  Returns it, its limit
    sigma and the report params that every experiment shares.
    """
    if reps < 1:
        raise EmptySample(f"need at least one replicate, got reps={reps}")
    if not 1 <= cn <= n**0.4:
        raise ValueError(f"cn={cn} outside the supercritical regime (1 <= cn <= n^0.4)")
    s = make_degree_sequence(p, n, cn, seed)
    p = {str(i): w for i, w in p.items()}  # to_json sorts the keys
    return s, limit_sigma(s), {"p": p, "n": n, "cn": cn, "reps": reps, "seed": seed}


# ---------------------------------------------------------------------------
# experiments


def experiment_tau(p, n: int, cn: int, reps: int, seed: int) -> ExperimentReport:
    """KS of (n - largest tree)/cn^2 and tau_n/cn^2 against the tau(1/sigma) CDF."""
    t0 = time.perf_counter()
    s, sigma, params = _setup(p, n, cn, reps, seed)
    records = map(lambda ws: (n - ws.sizes.max(), ws.tau_n), replicates(s, seed, reps))
    small_mass, taus = np.array(list(records)).T / cn**2
    if s.c == 1:
        stats = {"degenerate": True, "sigma": sigma}
        passed = {"degenerate_tau_zero": bool(np.all(taus == 0))}
    else:
        cdf = lambda t: tau_cdf(t, sigma)  # both samples are >= 1/cn^2 when c >= 2
        ks_small = ks_one_sample(small_mass, cdf)
        ks_tau = ks_one_sample(taus, cdf)
        stats = {"sigma": sigma, "ks_small_mass": ks_small, "ks_tau": ks_tau}
        passed = {"ks_small_mass": ks_small <= _KS_TOL}
    return ExperimentReport("tau", params, stats, passed, time.perf_counter() - t0)


def experiment_tree_sizes(p, n: int, cn: int, reps: int, top_j: int, seed: int,
                          limit_reps: int = 3000, dt: float = 1e-4) -> ExperimentReport:
    """Ranked small-tree sizes / cn^2 vs simulated ranked excursion lengths.

    The limit draws are censored at DEFAULT_T_CAP, read at call time.
    """
    t0 = time.perf_counter()
    if top_j < 1:
        raise ValueError(f"top_j must be at least 1, got {top_j}")
    s, sigma, params = _setup(p, n, cn, reps, seed)
    params.update(top_j=top_j, dt=dt, limit_reps=limit_reps, t_cap=DEFAULT_T_CAP)
    ranked = np.array(list(map(lambda ws: ws.ranked_sizes, replicates(s, seed, reps))))
    forest_side = np.zeros((reps, top_j))
    forest_side[:, : s.c - 1] = ranked[:, 1 : top_j + 1] / cn**2
    sums = (n - ranked[:, 0]) / cn**2
    if s.c == 1:
        # One tree and no small trees: there is nothing to compare with the limit.
        stats = {"degenerate": True, "sigma": sigma}
        passed = {"degenerate_sizes_zero": bool(np.all(forest_side == 0))}
    else:
        idx, _, limit_side = uncensored_limit_draws(
            sigma, top_j, dt, limit_reps, seed, first=LIMIT_FIRST, t_cap=DEFAULT_T_CAP
        )
        ks = [ks_two_sample(forest_side[:, j], limit_side[:, j]) for j in range(top_j)]
        stats = {
            "sigma": sigma,
            "ks_per_coordinate": ks,
            "censored_limit_reps": int(idx[-1]) + 1 - LIMIT_FIRST - limit_reps,
            "sum_statistic_mean": float(sums.mean()),
        }
        monotone = bool(np.all(np.diff(forest_side, axis=1) <= 0))
        passed = {"ks_top1": ks[0] <= _KS_TOL, "sizes_weakly_decreasing": monotone}
    return ExperimentReport("tree_sizes", params, stats, passed, time.perf_counter() - t0)


def experiment_walk(p, n: int, cn: int, reps: int, seed: int) -> ExperimentReport:
    """Marginals of the rescaled coding walk against Normal(0, sigma^2 t)."""
    t0 = time.perf_counter()
    s, sigma, params = _setup(p, n, cn, reps, seed)
    params["t_points"] = list(_WALK_T)
    ks_idx = [math.floor(t * cn**2) for t in _WALK_T]
    kmax = ks_idx[-1]
    if kmax > n:
        raise ValueError("t * cn^2 exceeds n")
    _check_sigma(sigma)  # the Normal limit needs a spread

    def row(rep: int) -> np.ndarray:
        # W(k) at the t points and at kmax // 2, with W(0) = 0 prepended, from
        # the blocks that hold the first kmax steps.  Summed in int64: a
        # narrow block minus 1 would wrap.
        blocks, head = _blocks(s, substream(seed, rep)), []
        while sum(map(len, head)) < kmax:
            head.append(next(blocks))
        walk = np.cumsum(np.subtract(np.concatenate(head)[:kmax], 1, dtype=np.int64))
        return np.concatenate(([0], walk))[[*ks_idx, kmax // 2]]

    rows = np.array(list(_map_replicates(row, reps, n)))
    vals = rows[:, :-1] / cn
    # Two disjoint increments for the diagnostic: W(kmax // 2) and W(kmax) - W(kmax // 2).
    half = np.column_stack((rows[:, -1], rows[:, -2] - rows[:, -1]))
    stats: dict = {"sigma": sigma, "ks": {}, "variance": {}}
    passed: dict = {}
    for j, t in enumerate(_WALK_T):
        scale = sigma * math.sqrt(t)
        ks = ks_one_sample(vals[:, j], lambda x: 0.5 * _erfc(-x / (scale * math.sqrt(2.0))))
        stats["ks"][str(t)] = ks
        stats["variance"][str(t)] = float(vals[:, j].var())
        passed[f"ks_t={t}"] = ks <= _WALK_KS_TOL
    # A sample with no spread leaves a ratio or correlation undefined: it is
    # reported as null and its check fails.
    v1, v2 = stats["variance"]["1.0"], stats["variance"]["2.0"]
    ratio = v2 / v1 if v1 > 0 else None
    stats["variance_ratio_2_over_1"] = ratio
    passed["variance_ratio"] = ratio is not None and 1.7 <= ratio <= 2.3
    spread = bool(np.ptp(half, axis=0).all())
    corr = float(np.corrcoef(half[:, 0], half[:, 1])[0, 1]) if spread else None
    stats["increment_correlation"] = corr
    passed["increment_independence"] = spread and abs(corr) <= 3.0 / math.sqrt(reps)
    return ExperimentReport("walk", params, stats, passed, time.perf_counter() - t0)


def experiment_degrees(p, n: int, cn: int, reps: int, seed: int) -> ExperimentReport:
    """Per-tree empirical degree distributions against the global one."""
    t0 = time.perf_counter()
    s, _, params = _setup(p, n, cn, reps, seed)
    params.update(degrees=list(_DEGREES), trees=list(_TREE_RANKS), delta=_DELTA)
    if s.c < _TREE_RANKS[-1]:
        raise ValueError(f"tree rank {_TREE_RANKS[-1]} exceeds the tree count c = {s.c}")
    emp = empirical(s)
    reference = [*(emp.probs.get(i, 0.0) for i in _DEGREES), emp.second_moment]

    def tree(counts: np.ndarray) -> list:
        # The tree's shares of _DEGREES, then its sum of i^2 p_i.
        size, idx = counts.sum(), np.arange(len(counts))
        shares = [counts[i] / size if i < len(counts) else 0.0 for i in _DEGREES]
        return [*shares, float((idx * idx * counts).sum()) / size]

    rows = ([tree(ws.tree_degree_counts(l)) for l in _TREE_RANKS] for ws in replicates(s, seed, reps))
    diffs = np.abs(np.array(list(rows)) - reference)
    p_cols = {f"i={i},l={l}": diffs[:, k, j]
              for j, i in enumerate(_DEGREES) for k, l in enumerate(_TREE_RANKS)}
    s_cols = {f"l={l}": diffs[:, k, -1] for k, l in enumerate(_TREE_RANKS)}
    stats = {
        "p_quantiles": {key: float(np.quantile(v, _QUANTILE)) for key, v in p_cols.items()},
        "p_exceedance": {key: float((v > _DELTA).mean()) for key, v in p_cols.items()},
        "sigma_sq_quantiles": {key: float(np.quantile(v, _QUANTILE)) for key, v in s_cols.items()},
        "sigma_sq_exceedance": {key: float((v > _DELTA).mean()) for key, v in s_cols.items()},
    }
    return ExperimentReport("degrees", params, stats, {}, time.perf_counter() - t0)


def experiment_largest_marked(p, n: int, cn: int, reps: int, seed: int) -> ExperimentReport:
    """Frequency of the marked tree being the largest tree, with a CI."""
    t0 = time.perf_counter()
    s, _, params = _setup(p, n, cn, reps, seed)
    freq = sum(map(lambda ws: ws.largest_is_marked, replicates(s, seed, reps))) / reps
    half_ci = 1.96 * math.sqrt(max(freq * (1 - freq), 1e-12) / reps)
    stats = {"frequency": freq, "ci95_half_width": half_ci}
    passed = {"frequency": freq >= _LARGEST_MARKED_FREQ}
    return ExperimentReport("largest_marked", params, stats, passed, time.perf_counter() - t0)


def experiment_concentration(p, n: int, cn: int, reps: int, seed: int) -> ExperimentReport:
    """Empirical check of the prefix-proportion concentration bound.

    Per replicate, computes sup over window sizes m > cn of the deviation
    between the global proportion of leaves (degree-0 nodes) and their
    proportion among the first m entries of a shuffled degree vector; at
    each threshold t the exceedance frequency is compared against
    exp(-3 t^2 cn / 5) plus three binomial standard errors.
    """
    t0 = time.perf_counter()
    s, _, params = _setup(p, n, cn, reps, seed)
    if n <= cn:  # no window size m in (cn, n]
        raise ValueError(f"concentration needs n > cn, got n={n}, cn={cn}")
    p_i = s.counts.get(_CONC_DEGREE, 0) / n

    def sup(rep: int) -> float:
        # The leaves among the first m entries, counted block by block.
        best, m, leaves = 0.0, 0, 0
        for block in _blocks(s, substream(seed, rep)):
            counts = leaves + np.cumsum(block == _CONC_DEGREE)
            ms = np.arange(m + 1, m + len(block) + 1, dtype=float)
            above = np.abs(p_i - counts / ms)[max(0, cn - m) :]  # window sizes m > cn
            best = max(best, float(above.max(initial=0.0)))
            m, leaves = m + len(block), int(counts[-1])
        return best

    sups = np.array(list(_map_replicates(sup, reps, n)))
    stats: dict = {"p_i": p_i, "cn": cn, "exceedance": {}, "bound": {}}
    passed: dict = {}
    for t in _CONC_THRESHOLDS:
        freq = float((sups >= t).mean())
        bound = math.exp(-3.0 * t * t * cn / 5.0)
        slack = 3.0 * math.sqrt(bound / reps)
        stats["exceedance"][str(t)] = freq
        stats["bound"][str(t)] = bound
        passed[f"t={t}"] = freq <= bound + slack
    params.update(counts={str(i): k for i, k in sorted(s.counts.items())},
                  degree=_CONC_DEGREE, thresholds=list(_CONC_THRESHOLDS))
    return ExperimentReport("concentration", params, stats, passed, time.perf_counter() - t0)
