"""Exact uniform sampling and the replicate summary."""

import collections
import itertools
import math
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from planeforest import (
    count_forests,
    count_mcf,
    degree_vector,
    ks_two_sample,
    make_degree_sequence,
    replicates,
    rng_from_seed,
    sample_forest,
    sample_mcf,
    sampler,
    shuffle_degrees,
    substream,
    validate,
    verify,
    walk_statistics,
)
from planeforest.degseq import geometric_profile
from planeforest.forest_codec import enumerate_walks
from planeforest.sampler import forest_summary_csv_header, forest_summary_csv_row
from small_cases import full_walk_statistics, traced_peak, tuple_codec_sample


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
    p = scipy.stats.chisquare(list(counts.values())).pvalue
    assert p > 0.001


def test_sample_forest_uniform_chi_square():
    s = validate({0: 4, 2: 2})
    rng = rng_from_seed(12)
    counts = collections.Counter(sample_forest(s, rng).to_json() for _ in range(5000))
    assert len(counts) == count_forests(s) == 5
    p = scipy.stats.chisquare(list(counts.values())).pvalue
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
    m, _, f = tuple_codec_sample(s, substream(seed, 0))
    assert sample_mcf(s, substream(seed, 0)) == m
    assert sample_forest(s, substream(seed, 0)) == f


def test_sample_forest_is_the_reference_rotation_on_200_seeds():
    # The reference of perfbench's forest_1e6 replay, on 200 small sequences;
    # the JSON is compared too.
    picks = rng_from_seed(25)
    starts = collections.Counter()
    for seed in range(200):
        c = int(picks.integers(1, 6))
        counts = {i: int(picks.integers(0, 4)) for i in (1, 2, 3, 5)}
        counts[0] = sum((i - 1) * k for i, k in counts.items()) + c
        s = validate(counts)
        assert s.n <= 50 and s.c == c
        oracle, k, expected = tuple_codec_sample(s, substream(seed, 0))
        starts[k] += 1
        f = sample_forest(s, substream(seed, 0))
        assert f == expected and f.to_json() == expected.to_json(), seed
        m = sample_mcf(s, substream(seed, 0))
        assert m == oracle and m.to_json() == oracle.to_json(), seed
    assert len(starts) == 5  # every start tree k < 5 was drawn


def test_sample_forest_peak_memory_at_1e6():
    # These three peak at 2.01-2.48 x 8n bytes, with or without the two
    # np.roll copies the one-copy rotation replaced: the shuffled vector, the
    # n-sized output buffer (the marked tree's walk, then the rotated forest)
    # and one block.  One more O(n) array would pass 2.75.
    s = make_degree_sequence(geometric_profile(), 1_000_000, 125, seed=1)
    sample_forest(s, substream(1, 0))  # warm-up: first-call allocations
    for i in range(3):
        assert traced_peak(lambda: sample_forest(s, substream(1, i))) <= 2.75 * 8 * s.n, i


def test_walk_statistics_matches_full_decode():
    # Each replicate's record is walk_statistics on its substream, and its
    # tree sizes are those of the tuple codec's marked cyclic forest.
    s = validate({0: 40, 1: 12, 2: 18, 3: 4, 5: 1})
    records = list(replicates(s, 5, 25))
    assert len(records) == 25
    for rep, record in enumerate(records):
        ws = walk_statistics(s, substream(5, rep))
        assert record.sizes.tolist() == ws.sizes.tolist()
        assert ws.sizes.sum() == s.n
        assert ws.tau_n == ws.sizes[:-1].sum()
        m, _, _ = tuple_codec_sample(s, substream(5, rep))
        decoded = [t.size for t in m.forest.trees]
        assert decoded == ws.sizes.tolist()
        assert sorted(ws.ranked_sizes.tolist(), reverse=True) == ws.ranked_sizes.tolist()
        largest = max(decoded)
        strictly_last = decoded[-1] == largest and decoded.count(largest) == 1
        assert ws.largest_is_marked == strictly_last


def _completed(s, prefix):
    """A drawn prefix of d(s) followed by the degrees it did not draw, in
    increasing order."""
    total = np.bincount(degree_vector(s))
    drawn = np.bincount(prefix, minlength=len(total))
    assert len(drawn) == len(total) and (drawn <= total).all()
    return np.concatenate((prefix.astype(np.int64), np.repeat(np.arange(len(total)), total - drawn)))


def _assert_matches_full_walk(s, seed):
    # The record is that of its drawn prefix, completed by the degrees it did
    # not draw in any order: the prefix holds the walk up to its last small tree.
    ws = walk_statistics(s, substream(seed, 0))
    block = sampler._BLOCK
    assert len(ws.perm) == ws.steps == min(s.n, block * math.ceil(ws.tau_n / block))
    full = _completed(s, ws.perm)
    if ws.steps == s.n <= block:
        # One block, the whole vector: the draws of shuffle_degrees.
        assert np.array_equal(full, shuffle_degrees(s, substream(seed, 0)))
    walk, boundaries, sizes, order = full_walk_statistics(full, s.c)
    assert np.array_equal(ws.walk, walk[: ws.steps])
    assert np.array_equal(ws.boundaries, boundaries)
    assert np.array_equal(ws.sizes, sizes)
    assert np.array_equal(ws.ranked_order, order)
    assert ws.tau_n == (boundaries[-2] if s.c >= 2 else 0)
    assert ws.largest_is_marked == (order[0] == s.c - 1)
    for rank in range(1, s.c + 1):
        t = order[rank - 1]
        lo = boundaries[t - 1] if t else 0
        expected = np.bincount(full[lo : boundaries[t]])
        assert np.array_equal(np.trim_zeros(ws.tree_degree_counts(rank), "b"), expected)


@settings(max_examples=40, deadline=None)
@example(validate({0: 1}), 0, 1)
@example(validate({0: 3, 1: 2, 3: 1}), 1, 2)
@example(validate({0: 4, 2: 2}), 2, 1)
@example(validate({0: 300, 2: 2}), 3, 2)
@given(degree_sequences(), st.integers(0, 2**32), st.sampled_from([1, 2, 4096, sampler._BLOCK]))
def test_walk_statistics_matches_full_walk_reference(s, seed, block):
    # Small blocks make the walk break at many points at small n.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_BLOCK", block)
        _assert_matches_full_walk(s, seed)


def test_walk_statistics_matches_full_walk_reference_at_1e6():
    _assert_matches_full_walk(make_degree_sequence(geometric_profile(), 1_000_000, 125, seed=1), 17)


@pytest.mark.parametrize("degree, dtype", [
    (255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32),
])
@pytest.mark.parametrize("block", [1, 4096])
def test_walk_statistics_in_the_narrowest_dtype_matches_full_walk(degree, dtype, block):
    # The record's prefix is stored in the narrowest dtype that holds its
    # largest degree; the walk of such a prefix must not wrap at 0 - 1, at the
    # largest degree or across a block's carried value.  c = 3 and one node
    # of the largest degree, so the walk climbs by degree - 1 in one step.
    s = validate({0: degree + 2, 1: 50, degree: 1})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_BLOCK", block)
        for seed in range(4):
            assert walk_statistics(s, substream(seed, 0)).perm.dtype == dtype
            _assert_matches_full_walk(s, seed)


def test_walk_statistics_peak_memory_at_1e6():
    # Replicate 19 first reaches -124 at tau_n = 999,972, so the kernel draws
    # all n entries, the last block being the whole remainder.  It holds the
    # drawn blocks at one byte per node (1e6 bytes) and then their
    # concatenation, the record's prefix (1e6 more); the draw and the
    # passage search hold one int64 block of 32,768 steps (262,144 bytes) at
    # a time, freed before the concatenation.  One more block held there,
    # or blocks kept in int64, would pass the bound.
    s = make_degree_sequence(geometric_profile(), 1_000_000, 125, seed=1)
    ws = walk_statistics(s, substream(1, 19))  # warm-up: first-call allocations
    assert (ws.tau_n, ws.steps, len(ws.perm)) == (999_972, s.n, s.n)
    bound = 2 * ws.steps + 8 * sampler._BLOCK
    assert traced_peak(lambda: walk_statistics(s, substream(1, 19))) < bound


def test_walk_statistics_shuffles_the_whole_vector_past_the_hypergeometric_range(monkeypatch):
    # rng.multivariate_hypergeometric takes fewer than 10**9 items; from there
    # the drawer shuffles the whole vector and yields it in blocks of 4,096,
    # and the kernel's record keeps the prefix, here of fewer than n steps.
    s = make_degree_sequence(geometric_profile(), 20_000, 12, seed=3)
    monkeypatch.setattr(sampler, "_HYPERGEOMETRIC_MAX", s.n)
    monkeypatch.setattr(sampler, "_BLOCK", 4096)
    blocks = list(sampler._blocks(s, substream(5, 0)))
    assert [len(b) for b in blocks] == [4096] * 4 + [3616]
    assert np.array_equal(np.concatenate(blocks), shuffle_degrees(s, substream(5, 0)))
    ws = walk_statistics(s, substream(5, 0))
    assert ws.steps < s.n
    assert np.array_equal(ws.perm, shuffle_degrees(s, substream(5, 0))[: ws.steps])
    _assert_matches_full_walk(s, 5)


@pytest.mark.parametrize("block", [1, 2])
@pytest.mark.parametrize("counts", [{0: 4, 2: 2}, {0: 5, 1: 1, 2: 1, 3: 1}])
def test_blocks_are_uniform_over_the_distinct_arrangements(monkeypatch, counts, block):
    # The drawer's blocks laid end to end, with a hypergeometric draw for every
    # block but the last: each distinct arrangement of d(s) is equally likely.
    s = validate(counts)
    monkeypatch.setattr(sampler, "_BLOCK", block)
    arrangements = sorted(tuple(np.diff(w.values) + 1) for w in enumerate_walks(s))
    reps = 20 * len(arrangements)
    seen = collections.Counter(tuple(np.concatenate(list(sampler._blocks(s, substream(37, i)))).tolist())
                               for i in range(reps))
    assert set(seen) == set(arrangements)
    assert scipy.stats.chisquare([seen[a] for a in arrangements]).pvalue > 0.001


def _fields(ws):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(ws).items()}


def test_replicates_are_the_same_on_any_number_of_cpus(monkeypatch):
    # Replicate i draws only from substream(seed, i), so drawing them side by
    # side changes no field of any record, nor the records' order.
    s = make_degree_sequence(geometric_profile(), 20_000, 12, seed=3)
    records = {}
    for cpus in (1, 3):
        monkeypatch.setattr(sampler, "_cpus", lambda: cpus)
        records[cpus] = [_fields(ws) for ws in replicates(s, 7, 11)]
    assert records[1] == records[3]
    assert records[1] == [_fields(walk_statistics(s, substream(7, i))) for i in range(11)]


@pytest.mark.parametrize("n,threaded", [(sampler._IN_THREAD_MAX_N, False), (5000, True)])
def test_replicates_thread_only_past_one_window(monkeypatch, n, threaded):
    # Up to n = 4,096 a replicate is bound by the interpreter, so every
    # replicate loop draws in the caller's thread; past it, on workers.
    s = make_degree_sequence(geometric_profile(), n, 6, seed=3)
    monkeypatch.setattr(sampler, "_cpus", lambda: 3)
    real, where = sampler.substream, []

    def stream(seed, i):
        where.append(threading.get_ident() != threading.main_thread().ident)
        return real(seed, i)

    monkeypatch.setattr(sampler, "substream", stream)
    monkeypatch.setattr(verify, "substream", stream)
    assert len(list(replicates(s, 7, 9))) == 9
    for experiment in (verify.experiment_walk, verify.experiment_degrees,
                       verify.experiment_concentration):
        experiment(geometric_profile(), n, 6, 9, 7)
    assert where == [threaded] * 36


def test_replicates_look_ahead_of_a_slow_replicate(monkeypatch):
    # A record is O(tau_n) and tau_n is heavy-tailed, so the workers draw up
    # to 32 records each ahead of the one being read: replicate 0 waits until
    # replicate 12 has been drawn, which one record per worker would never do.
    s = make_degree_sequence(geometric_profile(), 5000, 6, seed=3)
    monkeypatch.setattr(sampler, "_cpus", lambda: 2)
    real, later, index = sampler.walk_statistics, threading.Event(), {}

    def stream(seed, i):
        rng = substream(seed, i)
        index[id(rng)] = i
        return rng

    def kernel(s, rng):
        i = index[id(rng)]
        if i == 12:
            later.set()
        if i == 0 and not later.wait(5):
            raise TimeoutError("replicate 12 was not drawn while replicate 0 waited")
        return real(s, rng)

    monkeypatch.setattr(sampler, "walk_statistics", kernel)
    monkeypatch.setattr(sampler, "substream", stream)
    assert [ws.tau_n for ws in replicates(s, 7, 20)] == [
        walk_statistics(s, substream(7, i)).tau_n for i in range(20)]


class _Raised(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 3])
def test_in_order_raises_in_index_order_and_leaves_no_threads(monkeypatch, cpus):
    # Calls 3 and 5 raise; 5 may finish first on another worker, but the caller
    # sees results 0, 1 and 2 and then the exception of call 3.
    def fn(i):
        if i in (3, 5):
            raise _Raised(i)
        return i * i

    monkeypatch.setattr(sampler, "_cpus", lambda: cpus)
    threads = threading.active_count()
    seen = []
    with pytest.raises(_Raised) as err:
        for x in sampler._in_order(fn, 8):
            seen.append(x)
    assert (seen, err.value.args) == ([0, 1, 4], (3,))
    assert threading.active_count() == threads
    # A generator closed early shuts its pool down too.
    early = sampler._in_order(lambda i: i, 8)
    assert next(early) == 0
    early.close()
    assert threading.active_count() == threads
    assert list(sampler._in_order(lambda i: i, 5)) == [0, 1, 2, 3, 4]


def test_in_order_keeps_one_call_per_worker_in_flight(monkeypatch):
    # While the caller holds result i, calls up to i + workers - 1 may have
    # started, none later: the caller's pause gives idle workers time to
    # start any call that was submitted too early.
    monkeypatch.setattr(sampler, "_cpus", lambda: 3)
    started = []
    for i, x in enumerate(sampler._in_order(lambda j: started.append(j) or j, 12)):
        time.sleep(0.02)
        assert x == i and max(started) <= i + 2


@pytest.mark.parametrize("rank", [0, -1, 5])
def test_tree_degree_counts_rejects_a_rank_outside_one_to_c(rank):
    # c = 4 trees: rank 0 or -1 would otherwise index the smallest tree.
    ws = walk_statistics(validate({0: 5, 1: 2, 2: 1}), substream(1, 0))
    with pytest.raises(ValueError, match=f"tree rank {rank} outside 1..4"):
        ws.tree_degree_counts(rank)


def test_walk_statistics_per_tree_degrees():
    s = validate({0: 8, 2: 4, 3: 1})
    ws = walk_statistics(s, substream(9, 0))
    total = np.zeros(4, dtype=int)
    for rank in range(1, s.c + 1):
        counts = ws.tree_degree_counts(rank)
        total[: len(counts)] += counts
        assert counts.sum() == ws.ranked_sizes[rank - 1]
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


def _assert_tau_n_matches_hitting_time_law():
    s = make_degree_sequence(geometric_profile(), 120, 6)
    law = _hitting_time_law(s, s.c - 1)
    assert sum(law) == 1
    reps = 40_000
    taus = [ws.tau_n for ws in replicates(s, 21, reps)]
    empirical_cdf = np.cumsum(np.bincount(taus, minlength=s.n + 1)) / reps
    exact_cdf = np.array([float(x) for x in itertools.accumulate(law)])
    # 1.36/sqrt(reps) is the 95% Kolmogorov band; it is conservative for
    # a discrete law.
    assert np.abs(empirical_cdf - exact_cdf).max() <= 1.36 / math.sqrt(reps)


def test_tau_n_matches_hitting_time_law():
    # At n = 120 the first block is the whole vector: one shuffle.
    _assert_tau_n_matches_hitting_time_law()


@pytest.mark.parametrize("block", [1, 3])
def test_tau_n_matches_hitting_time_law_over_several_windows(monkeypatch, block):
    # Blocks of 1 or 3 entries: each replicate draws several blocks' counts
    # from the multivariate hypergeometric law.  On one CPU, since at n = 120
    # threads only add their overhead.
    monkeypatch.setattr(sampler, "_BLOCK", block)
    monkeypatch.setattr(sampler, "_cpus", lambda: 1)
    _assert_tau_n_matches_hitting_time_law()


def test_tau_n_matches_exact_law_at_large_n():
    # Leaves and binary nodes only: with j binary nodes among the first k
    # entries the walk is at 2j - k, so by the hitting-time theorem
    # P(tau = k) = ((c-1)/k) P(j = (k - c + 1)/2), j hypergeometric.
    binary = 99_990
    s = validate({0: 100_011, 2: binary})
    assert (s.n, s.c) == (200_001, 21)
    k = np.arange(1, s.n + 1)
    j = (k - s.c + 1) / 2
    law = np.where(j == np.floor(j), (s.c - 1) / k * scipy.stats.hypergeom.pmf(j, s.n, binary, k), 0.0)
    exact_cdf = np.cumsum(np.concatenate(([0.0], law)))
    assert abs(exact_cdf[-1] - 1) < 1e-9
    reps = 20_000
    taus = [ws.tau_n for ws in replicates(s, 4242, reps)]
    empirical_cdf = np.cumsum(np.bincount(taus, minlength=s.n + 1)) / reps
    assert np.abs(empirical_cdf - exact_cdf).max() <= 1.36 / math.sqrt(reps)


@pytest.mark.parametrize("counts", [{0: 4, 2: 2}, {0: 5, 1: 1, 3: 1}, {0: 5, 1: 1, 2: 1, 3: 1}])
def test_walk_prefix_law_matches_enumeration(monkeypatch, counts):
    # Blocks of 1 entry, so that even at n <= 8 a replicate draws several
    # blocks.  Every distinct arrangement of d(s) is equally likely, which
    # gives the exact law of (sizes, the prefix up to tau_n).
    s = validate(counts)
    monkeypatch.setattr(sampler, "_BLOCK", 1)
    monkeypatch.setattr(sampler, "_cpus", lambda: 1)
    exact = collections.Counter()
    for w in enumerate_walks(s):
        degrees = np.diff(w.values) + 1
        _, boundaries, sizes, _ = full_walk_statistics(degrees, s.c)
        exact[tuple(sizes), tuple(degrees[: boundaries[-2]])] += 1
    reps = 20_000
    seen = collections.Counter((tuple(ws.sizes.tolist()), tuple(ws.perm[: ws.tau_n].tolist()))
                               for ws in replicates(s, 31, reps))
    assert set(seen) <= set(exact)
    keys, total = sorted(exact), sum(exact.values())
    p = scipy.stats.chisquare([seen[k] for k in keys],
                              [reps * exact[k] / total for k in keys]).pvalue
    assert p > 0.001


def test_prefix_draw_matches_the_whole_vector_draw_at_large_n():
    # The prefix draw and a whole-vector draw (shuffle_degrees, read by the
    # whole-walk oracle) have the same law of tau_n, |T2| and W(2 c^2).
    # Seeds apart from the acceptance suite's; n and c_n of criterion 8's
    # smaller size.
    s = make_degree_sequence(geometric_profile(), 50_000, 14, seed=5)
    reps, k = 4000, 2 * s.c**2

    def whole(i):
        walk, boundaries, sizes, order = full_walk_statistics(shuffle_degrees(s, substream(4712, i)), s.c)
        return boundaries[-2], sizes[order[1]], walk[k - 1]

    kernel = lambda ws: (ws.tau_n, ws.ranked_sizes[1], ws.walk[k - 1])
    samples = [np.array(list(rows)).T for rows in (
        map(kernel, replicates(s, 4711, reps)), sampler._map_replicates(whole, reps, s.n))]
    # 1.63 sqrt(2/reps) is the 1% two-sample Kolmogorov bound.
    for prefix, full in zip(*samples):
        assert ks_two_sample(prefix, full) <= 1.63 * math.sqrt(2 / reps)


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
