"""Lattice bridges, cyclic shifts, and the rotation lemma."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from planeforest import (
    CodingWalk,
    FirstPassageBridge,
    LatticeBridge,
    LatticePath,
    PlaneTree,
    cyclic_shift,
    is_first_passage,
    rotation_index,
    split_at_passage_times,
    walk_from_degrees,
)
from planeforest.errors import MalformedBridge, NotAWalk
from planeforest.lattice_paths import concat_segments
from small_cases import (
    all_bridges, bridge_values, bridges_of_length, coding_walk_values, extended_path_shift,
    first_passage, first_passage_bridge_values, outcome, path_values, split_values, tree_lex,
    walk_values_from_degrees,
)


def test_path_validation():
    with pytest.raises(MalformedBridge):
        LatticePath((1, 0))  # must start at 0
    with pytest.raises(MalformedBridge):
        LatticePath((0, -2))  # downstep of 2
    with pytest.raises(MalformedBridge):
        LatticeBridge((0, 1, 0))  # must end at -1
    with pytest.raises(MalformedBridge):
        FirstPassageBridge((0, -1, 0, -1))  # early visit to -1
    with pytest.raises(MalformedBridge):
        CodingWalk((0, 1, 0))  # must end below 0


def test_walk_from_degrees():
    w = walk_from_degrees((1, 1, 3, 0, 0, 0))
    assert w.values == (0, 0, 0, 2, 1, 0, -1)
    assert w.k == 1
    w = walk_from_degrees((2, 0, 0, 2, 0, 0))
    assert w.values == (0, 1, 0, -1, 0, -1, -2)
    assert w.k == 2
    with pytest.raises(NotAWalk):
        walk_from_degrees((1, 1, 1))  # ends at 0
    with pytest.raises(NotAWalk):
        walk_from_degrees((2, -1, 0))
    with pytest.raises(NotAWalk):
        walk_from_degrees((1.5, 0, 0))  # was read as (1, 0, 0)
    assert walk_from_degrees(np.array([2, 0, 0])).values == (0, 1, 0, -1)


@pytest.mark.parametrize("values", [(0, 1.5, 0, -1), (0, 1.0, 0, -1), ([0], -1), 5, ("0", -1)],
                         ids=["fraction", "integral_float", "nested", "not_a_sequence", "string"])
def test_path_values_must_be_integers(values):
    with pytest.raises(MalformedBridge):
        LatticeBridge(values)


def test_path_values_take_numpy_integers_as_python_ints():
    b = FirstPassageBridge(np.array([0, 1, 0, -1]))
    assert b.values == (0, 1, 0, -1)
    assert all(type(x) is int for x in b.values)


def test_rotation_index_worked_example():
    # bridge attaining its minimum -2 first at position 3
    b = LatticeBridge((0, -1, -1, -2, -1, 1, 0, -1))
    r = rotation_index(b)
    assert r == 3
    assert is_first_passage(cyclic_shift(b, r))  # and no other shift is one


def test_cyclic_shift_is_a_group_action():
    b = LatticeBridge((0, -1, -1, -2, -1, 1, 0, -1))
    n = b.n
    assert cyclic_shift(b, n).values == b.values
    for k in range(1, n):
        back = cyclic_shift(cyclic_shift(b, k), n - k)
        assert back.values == b.values


def test_cyclic_shift_rejects_bad_k():
    b = LatticeBridge((0, 0, -1))
    with pytest.raises(ValueError):
        cyclic_shift(b, 0)
    with pytest.raises(ValueError):
        cyclic_shift(b, 3)


def test_first_passage_bridge_shift_is_identity_like():
    # an FPB attains its minimum first at the endpoint, so r = n
    b = FirstPassageBridge((0, 1, 0, 1, 0, -1))
    assert rotation_index(b) == b.n
    assert cyclic_shift(b, b.n).values == b.values


def test_split_at_passage_times_structure():
    w = walk_from_degrees((2, 0, 0, 2, 0, 0, 1, 1, 0))  # ends at -3
    assert w.k == 3
    segments = split_at_passage_times(w)
    assert len(segments) == 3
    assert all(isinstance(s, FirstPassageBridge) for s in segments[:-1])
    assert isinstance(segments[-1], LatticeBridge)
    assert sum(s.n for s in segments) == w.n
    assert concat_segments(segments).values == w.values


def test_split_single_tree_walk():
    w = walk_from_degrees((3, 0, 0, 0))
    segments = split_at_passage_times(w)
    assert len(segments) == 1
    assert segments[0].values == w.values


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_rotation_lemma_small_lengths(n):
    # Every bridge of length n: exactly one shift is a first-passage bridge,
    # the one by r.
    for b in bridges_of_length(n):
        hits = [k for k in range(1, n + 1) if is_first_passage(cyclic_shift(b, k))]
        assert hits == [rotation_index(b)], b.values


def test_cyclic_shift_matches_extended_path_reference():
    # Every bridge of length n <= 8, at every k.
    bridges = shifts = 0
    for b in all_bridges(8):
        bridges += 1
        for k in range(1, b.n + 1):
            assert cyclic_shift(b, k).values == extended_path_shift(b, k)
            shifts += 1
    assert (bridges, shifts) == (4707, 35889)


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12).filter(
        lambda d: sum(d) < len(d)
    )
)
def test_rotation_lemma_random_degree_walks(degrees):
    # degrees with sum < length give a walk ending below 0; the final
    # segment of its passage-time split is a bridge covered by the lemma.
    w = walk_from_degrees(degrees)
    b = split_at_passage_times(w)[-1]
    r = rotation_index(b)
    assert is_first_passage(cyclic_shift(b, r))
    assert sum(is_first_passage(cyclic_shift(b, k)) for k in range(1, b.n + 1)) == 1


_CHECKS = {
    "LatticePath": (lambda x: LatticePath(x).values, path_values),
    "LatticeBridge": (lambda x: LatticeBridge(x).values, bridge_values),
    "FirstPassageBridge": (lambda x: FirstPassageBridge(x).values, first_passage_bridge_values),
    "CodingWalk": (lambda x: CodingWalk(x).values, coding_walk_values),
    "PlaneTree": (lambda x: PlaneTree(x).lex, tree_lex),
    "walk_from_degrees": (lambda x: walk_from_degrees(x).values, walk_values_from_degrees),
}
_GRID = [t for n in range(7) for t in itertools.product(range(-2, 4), repeat=n)]
_ODD_INPUTS = [
    (), (0,), (-1,), (True, False), (0, True, False, -1), (False, -1), (1, 1.0, 0),
    (0, 1.5, 0, -1), (0, 1.0, 0, -1), ([0], -1), ("0", -1), "0", b"\x00", None, 5, 1.5,
    (0, None), np.array([0, 1, 0, -1]), np.array([2, 0, 0]), np.array([0.0, -1.0]),
    (np.int64(0), np.uint8(1), np.int32(0), np.int8(-1)), (2**70, 0), (0, -(2**70)),
]


@pytest.mark.parametrize("name", list(_CHECKS))
def test_checks_match_the_loop_reference(name):
    # Every tuple of length 0-6 with entries in -2..3, plus non-integer, bool
    # and empty inputs: the same output, or the same exception and message.
    check, reference = _CHECKS[name]
    assert len(_GRID) == 55987
    for x in _GRID + _ODD_INPUTS:
        got = outcome(check, x)
        assert got == outcome(reference, x), x
        assert type(got) is not tuple or all(type(d) is int for d in got)


def test_split_matches_the_loop_reference():
    # The walk of every degree tuple of length 1-7 with entries in 0..3 and
    # a sum below its length.
    walks = 0
    for n in range(1, 8):
        for degrees in itertools.product(range(4), repeat=n):
            if sum(degrees) >= n:
                continue
            w = walk_from_degrees(degrees)
            walks += 1
            segments = split_at_passage_times(w)
            assert [s.values for s in segments] == split_values(w.values)
            assert [type(s) for s in segments] == [FirstPassageBridge] * (w.k - 1) + [LatticeBridge]
            assert concat_segments(segments).values == w.values
    assert walks == 2054


def test_is_first_passage_matches_the_generator_reference():
    # As paths where the grid tuple is one, and as plain sequences (empty,
    # NaN, float, string, numpy and non-iterable inputs included): the same
    # answer, or the same exception and message.
    nan = float("nan")
    odd = _ODD_INPUTS + [(nan, -1), (1, nan, -1), (nan,), (0.5, -1), (-0.5, -1), [0, 2, -1],
                         np.array([0.0, nan, -1.0]), range(0, -2, -1)]
    paths = 0
    for x in _GRID + odd:
        assert outcome(is_first_passage, x) == outcome(first_passage, x), x
        b = outcome(LatticePath, x)
        if isinstance(b, LatticePath):
            assert is_first_passage(b) is first_passage(b.values), x
            paths += 1
    assert paths == 1295
    assert is_first_passage(iter((0, -1))) is True
