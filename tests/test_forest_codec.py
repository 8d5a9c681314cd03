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
    sample_forest,
    sample_mcf,
    substream,
    validate,
    walk_from_degrees,
    walk_from_mcf,
)
from planeforest.errors import MalformedBridge, PlaneForestError, TooLarge
from planeforest.forest_codec import _BLOCK, enumerate_walks
from small_cases import all_plane_trees, outcome, small_degree_sequences


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


def test_dfw_encode_matches_coding_walk_on_all_trees_n_le_8():
    # The reference: the tree's lex sequence read as a coding walk of depth 1.
    for t in all_plane_trees(8):
        assert dfw_encode(t).values == walk_from_degrees(t.lex).values


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


@pytest.mark.parametrize("text", ["{}", "[]", '{"trees": 5}', '{"trees": [5]}',
                                  '{"trees": [[false], [true, false]]}'])
def test_forest_from_json_rejects_malformed_json(text):
    with pytest.raises(MalformedBridge):
        PlaneForest.from_json(text)


def test_forest_from_json_rejects_a_key_named_twice():
    with pytest.raises(ValueError, match="same key twice"):
        PlaneForest.from_json('{"trees": [[0]], "trees": [[0], [0]]}')


def _tree_by_tree(lex, sizes):
    """The per-tree reference of PlaneForest._from_lex."""
    return PlaneForest(tuple(PlaneTree(tuple(x)) for x in np.split(lex, np.cumsum(sizes)[:-1])))


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
    # The same forest, or an error of the same PlaneForestError type.
    expected, got = outcome(_tree_by_tree, *case), outcome(PlaneForest._from_lex, *case)
    if isinstance(expected, list):
        assert issubclass(expected[0], PlaneForestError)
        assert isinstance(got, list) and got[0] is expected[0]
    else:
        assert got == expected


def test_whole_forest_check_rejects_float_arrays():
    case = np.array([1.0, 0.0]), np.array([2])
    assert outcome(_tree_by_tree, *case)[0] is MalformedBridge
    assert outcome(PlaneForest._from_lex, *case)[0] is MalformedBridge


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


@pytest.mark.parametrize("counts", [
    {0: 30, 10: 2, 11: 1},
    {0: 400, 100: 2, 150: 1},
    {0: 1_000_000, 999_999: 1},  # "999999], [" fills more than one 8-byte word
    {0: 7},
    {0: 5, 1: 3, 2: 4},
], ids=["two_digit_degrees", "three_digit_degrees", "token_above_8_bytes",
        "single_node_trees", "one_tree"])
def test_to_json_equals_json_dumps_for_large_degrees_and_edge_shapes(counts):
    s = validate(counts)
    for seed in range(2):
        m = sample_mcf(s, substream(seed, 0))
        f = sample_forest(s, substream(seed, 0))
        texts = m.to_json(), f.to_json()
        assert texts == (json.dumps({"trees": [list(t.lex) for t in m.forest.trees],
                                     "mark": list(m.mark)}),
                         json.dumps({"trees": [list(t.lex) for t in f.trees]}))


def _path_tree(size):
    """The tree of ``size`` nodes in one line: lex 1, ..., 1, 0."""
    return [1] * (size - 1) + [0]


def _star_tree(degree):
    return [degree] + [0] * degree


_ENCODER_CASES = {
    # The first tree's last node is the last of block 0; the next starts block 1.
    "tree_ends_at_block_end": [_path_tree(_BLOCK), [0], _star_tree(3)],
    "tree_ends_at_block_start": [_path_tree(_BLOCK - 1), [1, 0], [2, 0, 0]],
    # Single-node trees on both sides of the boundary; the last node ends block 1.
    "single_nodes_across_block_end": [_path_tree(_BLOCK - 5)] + [[0]] * 10 + [_path_tree(_BLOCK - 6), [0]],
    "many_ends_in_one_block": [[0], _star_tree(2), [1, 0], _star_tree(12)] * 300 + [[0]] * 500,
    "degree_99": [_star_tree(99), [0], _star_tree(9), _path_tree(50)],  # 4-byte tokens
    "degrees_99_and_100": [_star_tree(99), [0], _star_tree(100), _path_tree(50)],  # 8-byte tokens
    "token_of_9_bytes": [_star_tree(1_000_000), [0]],  # "1000000, " fills three 4-byte words
}


@pytest.mark.parametrize("trees", list(_ENCODER_CASES.values()), ids=list(_ENCODER_CASES))
def test_to_json_equals_json_dumps_at_block_ends_and_token_widths(trees):
    sizes = np.array([len(t) for t in trees])
    array_forest = PlaneForest._from_lex(np.concatenate([np.array(t) for t in trees]), sizes)
    tuple_forest = PlaneForest(tuple(PlaneTree(tuple(t)) for t in trees))
    mark = (len(trees) - 1, len(trees[-1]))
    for f in array_forest, tuple_forest:
        assert f.to_json() == json.dumps({"trees": trees})
        assert MarkedCyclicForest(f, mark).to_json() == json.dumps({"trees": trees, "mark": list(mark)})


def test_tuple_and_array_forests_agree():
    f = sample_forest(validate({0: 9, 1: 2, 2: 3, 3: 1}), substream(3, 0))
    g = PlaneForest.from_json(f.to_json())  # built from tuples
    assert (g.size, g.degree_sequence()) == (f.size, f.degree_sequence())
    assert g.to_json() == f.to_json()
    mark = (len(g.trees) - 1, 1)
    assert MarkedCyclicForest(f, mark).to_json() == MarkedCyclicForest(g, mark).to_json()
    assert "trees" not in vars(f)  # nothing above built f's trees
    assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
    assert f.trees is f.trees  # built once, then read from the instance
    m = sample_mcf(validate({0: 9, 1: 2, 2: 3, 3: 1}), substream(3, 0))
    n = MarkedCyclicForest(PlaneForest(m.forest.trees), m.mark)
    assert n == m and hash(n) == hash(m) and repr(n) == repr(m) and n.to_json() == m.to_json()


def test_rotations_match_the_reference_on_all_mcfs_n_le_7():
    # forest_to_mcf is n-to-c: every marked cyclic forest has exactly c
    # preimages, distinct, each mapping back to it, and every node of its
    # forest maps to one whose preimages hold it.  The digest pins the
    # preimages' order and marks.
    h = hashlib.sha256()
    mcfs = 0
    for s in small_degree_sequences(7):
        for m in enumerate_mcfs(s, cap=7):
            mcfs += 1
            pre = mcf_preimages(m)
            assert len(set(pre)) == len(pre) == s.c
            assert all(forest_to_mcf(f, node) == m for f, node in pre)
            for node in range(1, s.n + 1):
                assert (m.forest, node) in mcf_preimages(forest_to_mcf(m.forest, node))
            for node in (0, s.n + 1):  # outside the forest
                assert outcome(forest_to_mcf, m.forest, node) == [
                    ValueError, f"node {node} outside [1, {s.n}]"]
            h.update(repr(pre).encode())
    assert mcfs == sum(count_mcf(s) for s in small_degree_sequences(7)) == 2353
    assert h.hexdigest() == "c3c762a3b2ab20e26d53b21c84124ab24edad529be58b95bda1a05eb71596344"


def test_mcf_mark_is_stored_as_a_tuple_of_ints():
    f = PlaneForest((PlaneTree((1, 0)),))
    m = MarkedCyclicForest(f, [0, np.int64(1)])
    assert type(m.mark) is tuple and list(map(type, m.mark)) == [int, int]
    assert m == MarkedCyclicForest(f, (0, 1)) and hash(m) == hash(MarkedCyclicForest(f, (0, 1)))
    assert m.to_json() == '{"trees": [[1, 0]], "mark": [0, 1]}'


@pytest.mark.parametrize("mark", [(0.0, 1.0), (0, 1.5), (0,), (0, 1, 1), 5, "01", None])
def test_mcf_rejects_a_mark_that_is_not_two_integers(mark):
    f = PlaneForest((PlaneTree((1, 0)),))
    with pytest.raises(MalformedBridge, match="mark must be two integers"):
        MarkedCyclicForest(f, mark)


@pytest.mark.parametrize("forest", [[PlaneTree((0,))], (PlaneTree((0,)),), PlaneTree((0,)), None],
                         ids=["list", "tuple", "tree", "none"])
def test_mcf_rejects_a_forest_that_is_not_a_plane_forest(forest):
    name = type(forest).__name__
    with pytest.raises(MalformedBridge, match=f"forest must be a PlaneForest, got {name}$"):
        MarkedCyclicForest(forest, (0, 1))


@pytest.mark.parametrize("entry", [[0], (0,), None])
def test_forest_rejects_entries_that_are_not_trees(entry):
    with pytest.raises(MalformedBridge, match="forest entries must be PlaneTree"):
        PlaneForest([PlaneTree((0,)), entry])


def test_forest_to_mcf_names_a_node_that_is_not_an_integer():
    f = PlaneForest((PlaneTree((0,)), PlaneTree((1, 0))))
    with pytest.raises(ValueError, match="node 1.5 is not an integer"):
        forest_to_mcf(f, 1.5)
    assert forest_to_mcf(f, np.int64(3)) == forest_to_mcf(f, 3)


@pytest.mark.parametrize("call, error, match", [
    (lambda: PlaneForest(()), MalformedBridge, "at least one tree"),
    (lambda: PlaneForest._from_lex(np.array([1, 0, 0]), np.array([1, 1])), ValueError,
     "tree sizes add up to 2, not 3"),
    (lambda: list(enumerate_mcfs(validate({0: 6, 2: 5}))), TooLarge, "n=11 exceeds"),
    (lambda: list(enumerate_mcfs(validate({0: 4, 2: 2}), cap=5)), TooLarge, "cap 5"),
], ids=["empty_forest", "sizes_short_of_lex", "mcf_cap_default", "mcf_cap_given"])
def test_codec_names_what_it_cannot_build(call, error, match):
    with pytest.raises(error, match=match):
        call()
