"""Exact uniform sampling and the O(n) replicate summary."""

import collections
import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from planeforest import (
    PlaneForest,
    chi_square_uniform,
    count_forests,
    count_mcf,
    make_degree_sequence,
    mcf_from_walk,
    rng_from_seed,
    sample_forest,
    sample_mcf,
    shuffle_degrees,
    substream,
    validate,
    walk_from_degrees,
    walk_statistics,
)
from planeforest.degseq import geometric_profile
from planeforest.lattice_paths import CodingWalk
from planeforest.sampler import forest_summary_csv_header, forest_summary_csv_row


def test_substream_determinism_and_independence():
    a = substream(7, 0).standard_normal(4)
    b = substream(7, 0).standard_normal(4)
    c = substream(7, 1).standard_normal(4)
    d = substream(8, 0).standard_normal(4)
    assert (a == b).all()
    assert not (a == c).all()
    assert not (a == d).all()


def test_shuffle_degrees_is_a_permutation():
    s = validate({0: 4, 1: 3, 2: 1, 3: 1})
    out = shuffle_degrees(s, rng_from_seed(0))
    assert sorted(out.tolist()) == [0, 0, 0, 0, 1, 1, 1, 2, 3]


def test_sample_mcf_has_right_degree_sequence():
    s = validate({0: 5, 1: 2, 3: 1})
    rng = rng_from_seed(1)
    for _ in range(20):
        m = sample_mcf(s, rng)
        assert m.forest.degree_sequence() == s


def test_sample_mcf_uniform_chi_square():
    s = validate({0: 4, 2: 2})
    rng = rng_from_seed(11)
    counts = collections.Counter(sample_mcf(s, rng).to_json() for _ in range(6000))
    assert len(counts) == count_mcf(s) == 15
    _, p = chi_square_uniform(list(counts.values()))
    assert p > 0.001


def test_sample_forest_uniform_chi_square():
    s = validate({0: 4, 2: 2})
    rng = rng_from_seed(12)
    counts = collections.Counter(sample_forest(s, rng).to_json() for _ in range(5000))
    assert len(counts) == count_forests(s) == 5
    _, p = chi_square_uniform(list(counts.values()))
    assert p > 0.001


@st.composite
def degree_sequences(draw):
    """Degree sequences with up to about 9,000 nodes and 1 to 50 trees."""
    counts = {i: draw(st.integers(0, 600)) for i in range(1, 6)}
    counts[0] = sum((i - 1) * k for i, k in counts.items()) + draw(st.integers(1, 50))
    return validate(counts)


@settings(max_examples=60, deadline=None)
@example(validate({0: 1}), 0)
@example(validate({0: 3, 1: 2, 3: 1}), 1)
@example(validate({0: 4, 2: 2}), 2)
@example(validate({0: 5, 1: 2, 3: 1}), 3)
@given(degree_sequences(), st.integers(0, 2**32))
def test_array_kernel_matches_tuple_codec(s, seed):
    # The tuple codec path is the reference: same draws, same forests.
    rng = substream(seed, 0)
    oracle = mcf_from_walk(walk_from_degrees(shuffle_degrees(s, rng)))
    trees = oracle.forest.trees
    k = int(rng.integers(len(trees)))
    assert sample_mcf(s, substream(seed, 0)) == oracle
    assert sample_forest(s, substream(seed, 0)) == PlaneForest(trees[k:] + trees[:k])


def test_walk_statistics_matches_full_decode():
    s = validate({0: 40, 1: 12, 2: 18, 3: 4, 5: 1})
    for rep in range(25):
        ws = walk_statistics(s, substream(5, rep))
        assert ws.sizes.sum() == s.n
        assert ws.tau_n == ws.sizes[:-1].sum()
        m = mcf_from_walk(CodingWalk((0,) + tuple(int(x) for x in ws.walk)))
        decoded = [t.size for t in m.forest.trees]
        assert decoded == ws.sizes.tolist()
        assert sorted(ws.ranked_sizes.tolist(), reverse=True) == ws.ranked_sizes.tolist()
        largest = max(decoded)
        strictly_last = decoded[-1] == largest and decoded.count(largest) == 1
        assert ws.largest_is_marked == strictly_last


def test_walk_statistics_per_tree_degrees():
    s = validate({0: 8, 2: 4, 3: 1})
    ws = walk_statistics(s, substream(9, 0))
    total = np.zeros(4, dtype=int)
    for rank in range(1, s.c + 1):
        counts = ws.tree_degree_counts(rank)
        total[: len(counts)] += counts
        p = ws.tree_empirical(rank)
        assert p.sum() == 1.0
        i = np.arange(len(p))
        assert ws.tree_sigma_sq(rank) == float((i * i * p).sum())
    assert total.tolist() == [8, 0, 4, 1]


def _hitting_time_law(s, m):
    """Exact law [P(tau = k) for k = 0..n] of the first passage time of -m.

    The first k entries of a shuffled degree vector are exchangeable and
    each step is >= -1, so the hitting-time theorem gives
    P(tau = k) = (m/k) P(S_k = -m). P(S_k = d - k) counts the ways to pick
    k entries of total degree d class by class (multivariate
    hypergeometric), divided by C(n, k).
    """
    n, top = s.n, s.n - s.c  # top = total degree of the whole vector
    ways = np.zeros((n + 1, top + 1), dtype=object)  # ways[k, d]
    ways[0, 0] = 1
    for i, count in s.counts.items():
        new = np.zeros_like(ways)
        for t in range(count + 1):
            if i * t > top:
                break
            new[t:, i * t:] += ways[: n + 1 - t, : top + 1 - i * t] * math.comb(count, t)
        ways = new
    law = [Fraction(0)] * (n + 1)
    for k in range(m, top + m + 1):  # S_k = -m needs degree d = k - m in [0, top]
        law[k] = Fraction(m, k) * Fraction(int(ways[k, k - m]), math.comb(n, k))
    return law


def test_tau_n_matches_hitting_time_law():
    s = make_degree_sequence(geometric_profile(), 120, 6)
    law = _hitting_time_law(s, s.c - 1)
    assert sum(law) == 1
    reps = 40_000
    taus = [walk_statistics(s, substream(21, rep)).tau_n for rep in range(reps)]
    empirical_cdf = np.cumsum(np.bincount(taus, minlength=s.n + 1)) / reps
    exact_cdf = np.array([float(x) for x in itertools.accumulate(law)])
    # 1.36/sqrt(reps) is the 95% Kolmogorov band; it is conservative for
    # a discrete law.
    assert np.abs(empirical_cdf - exact_cdf).max() <= 1.36 / math.sqrt(reps)


def test_single_tree_degenerate_case():
    s = validate({0: 3, 1: 2, 3: 1})  # c = 1
    ws = walk_statistics(s, substream(4, 0))
    assert ws.tau_n == 0
    assert ws.largest_is_marked
    assert len(ws.sizes) == 1 and ws.sizes[0] == s.n


def test_csv_summary_row():
    s = validate({0: 4, 2: 2})
    ws = walk_statistics(s, substream(3, 0))
    header = forest_summary_csv_header(2)
    row = forest_summary_csv_row(0, ws, 2)
    assert header.split(",") == ["replicate", "tau_n", "size_1", "size_2", "largest_is_marked"]
    cells = row.split(",")
    assert len(cells) == len(header.split(","))
    assert int(cells[1]) == ws.tau_n
