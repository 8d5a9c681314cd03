"""Bijections between trees/forests and lattice paths, plus exact counts."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from planeforest import (
    LatticeBridge,
    MarkedCyclicForest,
    PlaneForest,
    PlaneTree,
    bridge_from_marked_tree,
    count_forests,
    count_mcf,
    dfw_decode,
    dfw_encode,
    enumerate_forests,
    enumerate_mcfs,
    forest_to_mcf,
    marked_tree_from_bridge,
    mcf_from_walk,
    mcf_preimages,
    sample_mcf,
    substream,
    validate,
    walk_from_degrees,
    walk_from_mcf,
)
from planeforest.errors import MalformedBridge, PlaneForestError, TooLarge
from planeforest.forest_codec import enumerate_walks


def test_plane_tree_validation():
    PlaneTree((2, 0, 0))
    PlaneTree((0,))
    with pytest.raises(MalformedBridge):
        PlaneTree((1,))  # walk never reaches -1
    with pytest.raises(MalformedBridge):
        PlaneTree((0, 0))  # closes early
    with pytest.raises(MalformedBridge):
        PlaneTree(())


@pytest.mark.parametrize("lex", [
    (1.5, -0.5),  # int() would have made this (1, 0)
    (3, 2, -1, 0, 0),  # its walk closes at the end despite the -1
    ([1],),
    ("2", "0", "0"),
    5,
], ids=["floats", "negative", "nested", "strings", "not_a_sequence"])
def test_plane_tree_rejects_entries_that_are_not_degrees(lex):
    with pytest.raises(MalformedBridge):
        PlaneTree(lex)


def test_plane_tree_takes_numpy_integers_as_python_ints():
    for lex in (np.array([2, 0, 0]), (np.int64(2), np.uint8(0), np.int32(0))):
        t = PlaneTree(lex)
        assert t.lex == (2, 0, 0)
        assert all(type(d) is int for d in t.lex)


def test_plane_tree_structure():
    t = PlaneTree((2, 1, 0, 0))
    assert t.size == 4
    assert t.parents() == [-1, 0, 1, 0]


def test_dfw_encode_known_tree():
    t = PlaneTree((2, 0, 0))
    b = dfw_encode(t)
    assert b.values == (0, 1, 0, -1)
    assert dfw_decode(b) == t
    assert t.lex == (2, 0, 0)


def test_dfw_decode_accepts_any_lattice_path():
    assert dfw_decode(LatticeBridge((0, 1, 0, -1))) == PlaneTree((2, 0, 0))
    with pytest.raises(MalformedBridge):
        dfw_decode(LatticeBridge((0, -1, 0, -1)))


def test_marked_tree_from_bridge_worked_example():
    # minimum -2 attained first at position 3; rotating by 3 yields the
    # depth-first walk of a 7-node tree, and the mark lands at u_5.
    b = LatticeBridge((0, -1, -1, -2, -1, 1, 0, -1))
    tree, mark = marked_tree_from_bridge(b)
    assert tree.lex == (2, 3, 0, 0, 0, 1, 0)
    assert mark == 5
    assert bridge_from_marked_tree(tree, mark).values == b.values


def test_bridge_from_marked_tree_rejects_bad_mark():
    t = PlaneTree((2, 0, 0))
    with pytest.raises(ValueError):
        bridge_from_marked_tree(t, 0)
    with pytest.raises(ValueError):
        bridge_from_marked_tree(t, 4)


def test_mcf_round_trip_single_tree_walk():
    w = walk_from_degrees((1, 1, 3, 0, 0, 0))
    m = mcf_from_walk(w)
    assert [t.lex for t in m.forest.trees] == [(1, 1, 3, 0, 0, 0)]
    assert m.mark == (0, 1)
    assert walk_from_mcf(m).values == w.values


def test_mcf_mark_must_lie_in_last_tree():
    trees = (PlaneTree((0,)), PlaneTree((1, 0)))
    MarkedCyclicForest(PlaneForest(trees), (1, 2))
    with pytest.raises(MalformedBridge):
        MarkedCyclicForest(PlaneForest(trees), (0, 1))
    with pytest.raises(MalformedBridge):
        MarkedCyclicForest(PlaneForest(trees), (1, 3))


def test_counts_worked_example():
    # s = {0:4, 2:2}: 6!/(4!2!) = 15 marked cyclic forests, 15*c/n = 5 forests
    s = validate({0: 4, 2: 2})
    assert count_mcf(s) == 15
    assert count_forests(s) == 5
    assert len(list(enumerate_mcfs(s))) == 15
    assert len(list(enumerate_forests(s))) == 5


def test_forest_to_mcf_and_preimages():
    f = PlaneForest((PlaneTree((2, 0, 0)), PlaneTree((0,)), PlaneTree((1, 0))))
    m = forest_to_mcf(f, 2)  # node u_2 sits in the first tree
    assert [t.lex for t in m.forest.trees] == [(0,), (1, 0), (2, 0, 0)]
    assert m.mark == (2, 2)
    pre = mcf_preimages(m)
    assert len(pre) == f.degree_sequence().c
    assert (f, 2) in [(ff, mk) for ff, mk in pre]
    for ff, mk in pre:
        assert forest_to_mcf(ff, mk) == m


def test_preimage_multiplicity_count():
    # the forest->MCF map is n-to-c: iterating preimages over all MCFs
    # visits every (forest, mark) pair exactly once.
    s = validate({0: 4, 2: 2})
    seen = []
    for m in enumerate_mcfs(s):
        seen.extend(mcf_preimages(m))
    assert len(seen) == count_forests(s) * s.n
    assert len(set(seen)) == len(seen)
    forests = set(f for f, _ in seen)
    assert len(forests) == count_forests(s)


def small_degree_sequences(max_n):
    """All degree sequences with n <= max_n, via partitions of n - c."""
    for n in range(1, max_n + 1):
        for m in range(n):  # m = sum of degrees = n - c, c >= 1
            for parts in partitions(m, n):
                counts = {0: n - len(parts)}
                for part in parts:
                    counts[part] = counts.get(part, 0) + 1
                yield validate(counts)


def partitions(m, max_parts, smallest=1):
    if m == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(smallest, m + 1):
        for rest in partitions(m - first, max_parts - 1, first):
            yield (first,) + rest


def test_codecs_round_trip_exhaustively_n_le_6():
    for s in small_degree_sequences(6):
        walks = list(enumerate_walks(s))
        assert len(walks) == count_mcf(s)
        for w in walks:
            m = mcf_from_walk(w)
            assert walk_from_mcf(m).values == w.values
            assert m.forest.degree_sequence() == s
        forests = list(enumerate_forests(s, cap=s.n))
        assert len(forests) == count_forests(s)


def test_enumeration_order_is_pinned_n_le_7():
    # Every forest and marked cyclic forest, in enumeration order, for all 75
    # degree sequences with n <= 7: the digest pins both the set and the order.
    h = hashlib.sha256()
    for s in small_degree_sequences(7):
        h.update(repr(list(enumerate_forests(s, cap=7))).encode())
        h.update(repr(list(enumerate_mcfs(s, cap=7))).encode())
    assert h.hexdigest() == "64d02e5b46040a04da1536cc55f3e7df1b412e071290d9a7a1015b0ef477660f"


def test_enumerate_walks_has_no_depth_limit():
    # 1,201 distinct permutations of 1,200 zeros and one 1, in lexicographic
    # order: the 1 moves from the last place to the first.
    walks = list(enumerate_walks(validate({0: 1200, 1: 1})))
    assert len(walks) == 1201
    ones = [w.increments().index(0) for w in walks]
    assert ones == list(range(1200, -1, -1))


def test_enumerate_guards_against_large_inputs():
    s = validate({0: 30, 2: 15, 1: 10})
    with pytest.raises(TooLarge):
        list(enumerate_forests(s))


def test_forest_json_round_trip():
    f = PlaneForest((PlaneTree((1, 0)), PlaneTree((0,))))
    obj = json.loads(f.to_json())
    assert obj["trees"] == [[1, 0], [0]]
    assert PlaneForest.from_json(f.to_json()) == f
    m = MarkedCyclicForest(f, (1, 1))
    assert json.loads(m.to_json())["mark"] == [1, 1]


def _whole_forest(lex, sizes):
    return PlaneForest._from_lex(lex, sizes, np.empty(len(lex), dtype=np.int64))


def _tree_by_tree(lex, sizes):
    """The per-tree reference: the forest, or the type of the error raised."""
    try:
        slices = np.split(lex, np.cumsum(sizes)[:-1])
        return PlaneForest(tuple(PlaneTree(tuple(x)) for x in slices))
    except PlaneForestError as exc:
        return type(exc)


@st.composite
def lex_and_sizes(draw):
    """Integer arrays (negative entries included) cut into consecutive slices.

    Half start from the lex sequences of a real forest, which then may get
    one entry or one cut changed, so both verdicts are drawn often.
    """
    if draw(st.booleans()):
        counts = {i: draw(st.integers(0, 4)) for i in range(1, 5)}
        counts[0] = sum((i - 1) * k for i, k in counts.items()) + draw(st.integers(1, 4))
        trees = sample_mcf(validate(counts), substream(draw(st.integers(0, 2**32)), 0)).forest.trees
        lex = [d for t in trees for d in t.lex]
        sizes = [t.size for t in trees]
        if draw(st.booleans()):
            lex[draw(st.integers(0, len(lex) - 1))] = draw(st.integers(-2, 5))
        if len(sizes) > 1 and draw(st.booleans()):
            i = draw(st.integers(0, len(sizes) - 2))
            shift = draw(st.integers(-sizes[i], sizes[i + 1]))
            sizes[i] += shift
            sizes[i + 1] -= shift
    else:
        lex = draw(st.lists(st.integers(-2, 4), max_size=12))
        cuts = sorted(draw(st.lists(st.integers(0, len(lex)), max_size=5)))
        sizes = np.diff([0] + cuts + [len(lex)]).tolist() if lex or cuts else []
    return np.array(lex, dtype=np.int64), np.array(sizes, dtype=np.int64)


@settings(max_examples=400, deadline=None)
@example((np.array([3, 2, -1, 0, 0]), np.array([5])))
@example((np.array([0, 0, 1, 0]), np.array([1, 0, 3])))
@example((np.array([0]), np.array([1])))
@example((np.array([], dtype=np.int64), np.array([], dtype=np.int64)))
@given(lex_and_sizes())
def test_whole_forest_check_agrees_with_tree_by_tree(case):
    lex, sizes = case
    expected = _tree_by_tree(lex, sizes)
    if isinstance(expected, PlaneForest):
        assert _whole_forest(lex, sizes) == expected
    else:
        with pytest.raises(PlaneForestError) as info:
            _whole_forest(lex, sizes)
        assert type(info.value) is expected


def test_whole_forest_check_rejects_float_arrays():
    lex, sizes = np.array([1.0, 0.0]), np.array([2])
    assert _tree_by_tree(lex, sizes) is MalformedBridge
    with pytest.raises(MalformedBridge):
        _whole_forest(lex, sizes)


@st.composite
def marked_cyclic_forests(draw):
    """Sampled forests with degrees up to 14 and 1 to 4 trees."""
    counts = {i: draw(st.integers(0, 3)) for i in (1, 2, 9, 10, 11, 14)}
    counts[0] = sum((i - 1) * k for i, k in counts.items()) + draw(st.integers(1, 4))
    return sample_mcf(validate(counts), substream(draw(st.integers(0, 2**32)), 0))


@settings(max_examples=100, deadline=None)
@example(MarkedCyclicForest(PlaneForest((PlaneTree((0,)),)), (0, 1)))
@given(marked_cyclic_forests())
def test_to_json_equals_json_dumps(m):
    trees = [list(t.lex) for t in m.forest.trees]
    assert m.forest.to_json() == json.dumps({"trees": trees})
    assert m.to_json() == json.dumps({"trees": trees, "mark": list(m.mark)})
