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
    cyclic_shift,
    is_first_passage,
    rotation_index,
    split_at_passage_times,
    walk_from_degrees,
)
from planeforest.errors import MalformedBridge, NotAWalk
from planeforest.lattice_paths import concat_segments


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
    shifted = cyclic_shift(b, r)
    assert is_first_passage(shifted)
    # every other shift fails
    for k in range(1, b.n + 1):
        if k != r:
            assert not is_first_passage(cyclic_shift(b, k))


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


def exhaustive_bridges(n):
    """All bridges of length n with increments in {-1, 0, 1, 2}."""
    for inc in itertools.product((-1, 0, 1, 2), repeat=n):
        if sum(inc) != -1:
            continue
        vals = [0]
        for x in inc:
            vals.append(vals[-1] + x)
        yield LatticeBridge(tuple(vals))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rotation_lemma_small_lengths(n):
    for b in exhaustive_bridges(n):
        hits = [k for k in range(1, n + 1) if is_first_passage(cyclic_shift(b, k))]
        assert hits == [rotation_index(b)]


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
