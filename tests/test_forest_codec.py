"""Bijections between trees/forests and lattice paths, plus exact counts."""

import json

import pytest

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
    validate,
    walk_from_degrees,
    walk_from_mcf,
)
from planeforest.errors import MalformedBridge, TooLarge
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
