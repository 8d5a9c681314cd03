"""Coding functions, contour codings of plane trees, and metric snapshots."""

import collections

import numpy as np
import pytest

from planeforest import (
    CodingFunction,
    FiniteMetricSpace,
    PlaneTree,
    coding_pseudometric,
    contour_function,
    first_visit_times,
    metric_snapshot,
    tree_graph_metric,
)
from small_cases import (
    all_plane_trees, euler_tour, four_point_holds, graph_metric, metric_check, outcome,
    snapshot, traced_peak, window_min,
)


def test_contour_function_shape():
    t = PlaneTree((2, 1, 0, 0))
    g = contour_function(t)
    assert len(g.times) == 2 * (t.size - 1) + 1
    assert g.values[0] == 0.0 and g.values[-1] == 0.0
    assert g.values.max() == 2.0  # depth of the deepest node
    assert (np.abs(np.diff(g.values)) == 1.0).all()


def test_first_visit_times_are_contour_times():
    t = PlaneTree((2, 1, 0, 0))
    g = contour_function(t)
    fvt = first_visit_times(t)
    assert len(fvt) == t.size
    # the contour height at the first visit equals the node depth
    depths = [0, 1, 2, 1]
    for u, tv in enumerate(fvt):
        assert g(tv) == depths[u]


def test_contour_and_first_visits_match_euler_tour():
    trees = all_plane_trees(7)
    assert len(trees) == 1 + 1 + 2 + 5 + 14 + 42 + 132  # Catalan numbers
    for t in trees:
        depths, first = euler_tour(t)
        assert contour_function(t).values.tolist() == depths
        assert first_visit_times(t).tolist() == first


def test_deep_path_tree_contour_without_recursion_limit():
    n = 5001
    t = PlaneTree((1,) * (n - 1) + (0,))
    g = contour_function(t)
    assert len(g.values) == 2 * n - 1
    assert (np.abs(np.diff(g.values)) == 1.0).all()
    assert g.values[-1] == 0.0
    assert t.parents() == list(range(-1, n - 1))
    depths, first = euler_tour(t)
    assert g.values.tolist() == depths
    assert first_visit_times(t).tolist() == first
    assert [g(tv) for tv in first] == list(range(n))  # node v sits at depth v


def test_coding_pseudometric_simple_cases():
    g = CodingFunction(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), np.array([0.0, 2.0, 0.0, 1.0, 0.0]))
    assert coding_pseudometric(g, 0.0, 1.0) == pytest.approx(2.0)
    assert coding_pseudometric(g, 1.0, 3.0) == pytest.approx(3.0)  # min in between is 0
    assert coding_pseudometric(g, 0.0, 4.0) == pytest.approx(0.0)
    assert coding_pseudometric(g, 2.5, 2.5) == 0.0
    # symmetric
    assert coding_pseudometric(g, 3.0, 1.0) == pytest.approx(3.0)


def test_metric_snapshot_quotients_zero_distances():
    g = CodingFunction(np.arange(5.0), np.array([0.0, 1.0, 0.0, 1.0, 0.0]))
    snap = metric_snapshot(g, np.array([0.0, 2.0, 4.0, 1.0]))
    assert snap.size == 2  # the three zero-height times collapse
    assert np.array_equal(snap.dist, [[0, 1], [1, 0]])


def test_tree_graph_metric_known_tree():
    t = PlaneTree((2, 0, 0))  # root with two leaves
    ms = tree_graph_metric(t)
    expect = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]], dtype=float)
    assert np.array_equal(ms.dist, expect)


def test_contour_snapshot_is_isometric_to_graph_metric():
    for lex in [(0,), (1, 0), (2, 0, 0), (3, 1, 0, 0, 0), (2, 2, 0, 0, 1, 0)]:
        t = PlaneTree(lex)
        ms = tree_graph_metric(t)
        snap = metric_snapshot(contour_function(t), first_visit_times(t))
        assert np.abs(ms.dist - snap.dist).max() == 0.0


def test_tree_metrics_satisfy_four_point():
    for lex in [(3, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (2, 2, 0, 0, 1, 0)]:
        ms = tree_graph_metric(PlaneTree(lex))
        assert four_point_holds(ms.dist)


def test_metric_space_validation():
    with pytest.raises(ValueError):
        FiniteMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))  # not symmetric
    with pytest.raises(ValueError):
        FiniteMetricSpace(np.array([[1.0]]))  # nonzero diagonal
    with pytest.raises(ValueError):
        # triangle inequality violated
        FiniteMetricSpace(
            np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        )


def test_random_coding_snapshots_are_pseudometrics():
    rng = np.random.default_rng(3)
    for _ in range(25):
        steps = rng.standard_normal(64)
        walk = np.concatenate([[0.0], np.cumsum(steps)])
        values = walk - np.minimum.accumulate(walk)
        g = CodingFunction(np.linspace(0.0, 1.0, 65), values)
        snap = metric_snapshot(g, rng.uniform(0.0, 1.0, size=6))
        # constructor re-checks symmetry/triangle; verify four-point on top
        assert four_point_holds(snap.dist)


@pytest.mark.parametrize("make, match", [
    (lambda: CodingFunction([0.0, 1.0], [0.0]), "equal-length 1-d arrays"),
    (lambda: CodingFunction([[0.0]], [[0.0]]), "equal-length 1-d arrays"),
    (lambda: CodingFunction([], []), "equal-length 1-d arrays"),
    (lambda: CodingFunction([0.0, 1.0], [1.0, 0.0]), "start at"),
    (lambda: CodingFunction([0.0, 1.0, 1.0], [0.0, 1.0, 0.0]), "strictly increasing"),
    (lambda: CodingFunction([0.0, 1.0], [0.0, -1.0]), "nonnegative"),
    (lambda: FiniteMetricSpace(np.zeros((2, 3))), "must be square"),
    (lambda: FiniteMetricSpace(np.zeros(3)), "must be square"),
], ids=["lengths_differ", "two_dimensional", "empty", "not_at_origin", "repeated_time",
        "negative_value", "not_square", "one_dimensional"])
def test_coding_functions_and_metrics_name_what_is_wrong(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_snapshot_and_graph_metric_equal_the_pairwise_reference_on_all_trees_n_le_8():
    trees = all_plane_trees(8)
    assert len(trees) == 626
    for t in trees:
        g, times = contour_function(t), first_visit_times(t)
        snap = metric_snapshot(g, times).dist
        want = snapshot(g, times)
        assert snap.shape == want.shape and (snap == want).all(), t.lex
        assert (tree_graph_metric(t).dist == graph_metric(t)).all(), t.lex


def test_snapshot_equals_the_pairwise_reference_on_random_coding_functions():
    # Uneven knots; sample times uniform, on knots, repeated, and at both ends.
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(1, 40))
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, size=k))])
        walk = np.concatenate([[0.0], np.cumsum(rng.standard_normal(k))])
        g = CodingFunction(times, walk - np.minimum.accumulate(walk))
        sample = np.concatenate([
            rng.uniform(0.0, times[-1], size=int(rng.integers(0, 6))),
            rng.choice(times, size=int(rng.integers(0, 4))),
            [0.0, times[-1]][: int(rng.integers(0, 3))],
        ])
        sample = rng.permutation(np.concatenate([sample, sample[: int(rng.integers(0, 2))]]))
        if len(sample) == 0:
            continue
        want = snapshot(g, sample)
        snap = metric_snapshot(g, sample).dist
        assert snap.shape == want.shape and (snap == want).all()
        for s, t in zip(sample, sample[::-1]):
            m = window_min(g, s, t)
            assert g.window_min(s, t) == m
            assert coding_pseudometric(g, s, t) == g(s) + g(t) - 2.0 * m


def test_snapshot_memory_is_linear_in_the_knots():
    # Pairs x knots booleans would be 190 * 1e5 bytes, about 19 MB per mask.
    rng = np.random.default_rng(12)
    walk = np.concatenate([[0.0], np.cumsum(rng.standard_normal(100_000))])
    g = CodingFunction(np.arange(100_001, dtype=float), walk - np.minimum.accumulate(walk))
    sample = rng.uniform(0.0, 100_000.0, size=20)
    assert traced_peak(lambda: metric_snapshot(g, sample)) < 10_000_000


def _metric_check_cases():
    """Tree metrics with one entry, one symmetric pair or one diagonal entry
    changed (by amounts around the tolerances, or to NaN or +-inf), or one
    pair set to inf and -inf, plus random matrices and empty and one-point
    ones."""
    odd = [np.nan, np.inf, -np.inf]
    nudges = [1e-10, 1e-9, 3e-9, 1e-5, 0.5, 1.0, 2.5, -0.5, -3.0]
    for t in all_plane_trees(5):
        base = tree_graph_metric(t).dist
        n = len(base)
        yield base
        for i, j in [(0, n - 1), (n - 1, 0), (n // 2, n // 2), (0, 0)]:
            for x in [*(base[i, j] + e for e in nudges), *odd]:
                one, pair = base.copy(), base.copy()
                one[i, j] = pair[i, j] = pair[j, i] = x
                yield one
                yield pair
            if i != j:  # infinities of opposite signs: no finite entry fails
                signs = base.copy()
                signs[i, j], signs[j, i] = np.inf, -np.inf
                yield signs
        yield np.where(base > 0, np.inf, 0.0)
        yield np.where(base > 0, -np.inf, 0.0)
        yield base * 1e7 + np.triu(np.full((n, n), 50.0), 1)  # asymmetric by rtol's order
    rng = np.random.default_rng(25)
    for n in range(1, 9):
        for _ in range(40):
            a = rng.uniform(0.5, 2.0, (n, n))
            a = np.triu(a, 1) + np.triu(a, 1).T
            a[rng.random((n, n)) < 0.1] = rng.choice(odd)
            yield a
    yield np.zeros((0, 0))
    yield np.zeros((2, 3))
    yield np.zeros((1, 1))
    yield np.array([[np.nan]])
    yield np.array([[-np.inf]])


def test_metric_space_check_matches_the_reference():
    # The same verdict and message on every case, NaN and +-inf entries included.
    verdicts = collections.Counter()
    with np.errstate(all="ignore"):
        for d in _metric_check_cases():
            want = outcome(metric_check, d)  # None: accepted
            got = outcome(FiniteMetricSpace, d)
            assert (got if isinstance(got, list) else None) == want, d
            verdicts[want[1] if want else None, bool(np.isinf(d).any())] += 1
    # Accepted, the three messages, and numpy's for the empty matrix's diagonal.
    assert len({verdict for verdict, _ in verdicts}) == 5
    assert verdicts[None, True] and verdicts["triangle inequality violated", True]


def test_metric_space_check_holds_one_matrix_of_temporaries():
    # A 200-point metric: all points at once would be 200^3 floats, 64 MB.
    n = 200
    d = tree_graph_metric(PlaneTree(tuple([1] * (n - 1) + [0]))).dist
    assert traced_peak(lambda: FiniteMetricSpace(d)) <= 8 * d.nbytes
