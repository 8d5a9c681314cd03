"""Lattice bridges, cyclic shifts, and the rotation lemma."""

import itertools
import operator

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


def _extended_path_shift(b, k):
    """The reference shift: extend b by b(n + i) = -1 + b(i), read n steps from k."""
    v = b.values
    ext = v + tuple(-1 + x for x in v[1:])
    return tuple(ext[k + i] - ext[k] for i in range(b.n + 1))


def test_cyclic_shift_matches_extended_path_reference():
    # Every bridge of length n <= 8, at every k.  Its increments plus one are
    # n numbers >= 0 adding up to n - 1: the gaps between n - 1 bars placed
    # among 2n - 2 slots.
    bridges = shifts = 0
    for n in range(1, 9):
        for bars in itertools.combinations(range(2 * n - 2), n - 1):
            edges = (-1, *bars, 2 * n - 2)
            inc = [hi - lo - 2 for lo, hi in zip(edges, edges[1:])]
            b = LatticeBridge(tuple(itertools.accumulate(inc, initial=0)))
            bridges += 1
            for k in range(1, n + 1):
                assert cyclic_shift(b, k).values == _extended_path_shift(b, k)
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


# Loop-based copies of the checks, as they were before each became one pass
# of built-in iterators.  Each returns the checked tuple.
def _reference_path(values):
    try:
        v = tuple(map(operator.index, values))
    except TypeError as exc:
        raise MalformedBridge(f"path values must be integers: {exc}") from None
    if not v or v[0] != 0:
        raise MalformedBridge("path must start at 0")
    for a, b in zip(v, v[1:]):
        if b - a < -1:
            raise MalformedBridge("downward step larger than 1")
    return v


def _reference_bridge(values):
    v = _reference_path(values)
    if v[-1] != -1:
        raise MalformedBridge("bridge must end at -1")
    return v


def _reference_first_passage_bridge(values):
    v = _reference_bridge(values)
    if min(v[:-1], default=0) < 0:
        raise MalformedBridge("hits -1 before the endpoint")
    return v


def _reference_coding_walk(values):
    v = _reference_path(values)
    if v[-1] >= 0:
        raise MalformedBridge("coding walk must end strictly below 0")
    return v


def _reference_tree(lex):
    try:
        lex = tuple(map(operator.index, lex))
    except TypeError as exc:
        raise MalformedBridge(f"lex entries must be integer degrees: {exc}") from None
    if min(lex, default=0) < 0:
        raise MalformedBridge("lex sequence has a negative degree")
    bal = 0
    for i, d in enumerate(lex):
        bal += d - 1
        if bal < 0 and i < len(lex) - 1:
            raise MalformedBridge("lex sequence closes the tree early")
    if bal != -1:
        raise MalformedBridge("lex sequence does not close the tree")
    return lex


def _reference_walk_from_degrees(degrees):
    try:
        degs = list(map(operator.index, degrees))
    except TypeError as exc:
        raise NotAWalk(f"degrees must be integers: {exc}") from None
    if any(d < 0 for d in degs):
        raise NotAWalk("degrees must be nonnegative")
    values = [0]
    for d in degs:
        values.append(values[-1] + d - 1)
    if values[-1] >= 0:
        raise NotAWalk(f"walk ends at {values[-1]} >= 0")
    return _reference_coding_walk(tuple(values))


def _reference_split(values):
    v, k = values, -values[-1]
    segments, start, level = [], 0, 0
    for j in range(1, k):
        t = next(i for i in range(start, len(v)) if v[i] <= -j)
        segments.append(_reference_first_passage_bridge(tuple(x - level for x in v[start : t + 1])))
        start, level = t, v[t]
    segments.append(_reference_bridge(tuple(x - level for x in v[start:])))
    return segments


def _checked(f, x):
    """f's output tuple, or a list of the type and message of the exception it raised."""
    try:
        return f(x)
    except Exception as exc:
        return [type(exc), str(exc)]


_CHECKS = {
    "LatticePath": (lambda x: LatticePath(x).values, _reference_path),
    "LatticeBridge": (lambda x: LatticeBridge(x).values, _reference_bridge),
    "FirstPassageBridge": (lambda x: FirstPassageBridge(x).values, _reference_first_passage_bridge),
    "CodingWalk": (lambda x: CodingWalk(x).values, _reference_coding_walk),
    "PlaneTree": (lambda x: PlaneTree(x).lex, _reference_tree),
    "walk_from_degrees": (lambda x: walk_from_degrees(x).values, _reference_walk_from_degrees),
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
        got, want = _checked(check, x), _checked(reference, x)
        assert got == want, x
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
            assert [s.values for s in segments] == _reference_split(w.values)
            assert [type(s) for s in segments] == [FirstPassageBridge] * (w.k - 1) + [LatticeBridge]
            assert concat_segments(segments).values == w.values
    assert walks == 2054


def _reference_is_first_passage(b):
    v = b.values if isinstance(b, LatticePath) else tuple(b)
    return v[-1] == -1 and all(x >= 0 for x in v[:-1])


def test_is_first_passage_matches_the_generator_reference():
    # As paths where the grid tuple is one, and as plain sequences (empty,
    # NaN, float, string, numpy and non-iterable inputs included): the same
    # answer, or the same exception and message.
    nan = float("nan")
    odd = _ODD_INPUTS + [(nan, -1), (1, nan, -1), (nan,), (0.5, -1), (-0.5, -1), [0, 2, -1],
                         np.array([0.0, nan, -1.0]), range(0, -2, -1)]
    paths = 0
    for x in _GRID + odd:
        assert _checked(is_first_passage, x) == _checked(_reference_is_first_passage, x), x
        b = _checked(LatticePath, x)
        if isinstance(b, LatticePath):
            assert is_first_passage(b) is _reference_is_first_passage(b), x
            paths += 1
    assert paths == 1295
    assert is_first_passage(iter((0, -1))) is True
