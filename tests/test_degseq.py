"""Degree-sequence container, moments, and profile-matching construction."""

import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from planeforest import (
    DegreeSequence,
    degree_vector,
    empirical,
    geometric_profile,
    limit_sigma,
    make_degree_sequence,
    validate,
)
from planeforest.errors import EmptySequence, Infeasible, NotAForest
from small_cases import outcome


def test_validate_basic_counts():
    s = validate({0: 4, 2: 2})
    assert s.n == 6
    assert s.c == 2

    s = validate({0: 3, 1: 2, 3: 1})
    assert s.n == 6
    assert s.c == 1


def test_validate_drops_zero_entries():
    s = validate({0: 2, 1: 1, 5: 0})
    assert 5 not in s.counts
    assert s.n == 3


def test_validate_rejects_bad_input():
    with pytest.raises(EmptySequence):
        validate({})
    with pytest.raises(NotAForest):
        validate({2: 3})  # c = 3 - 6 < 1
    with pytest.raises(NotAForest):
        validate({1: 4})  # c = 0, no tree can close
    with pytest.raises(NotAForest):
        validate({-1: 2, 0: 3})
    with pytest.raises(NotAForest):
        validate({0: -2})
    with pytest.raises(NotAForest):
        validate({"0": 1.5, "1": 2})  # was read as {0: 1, 1: 2}
    with pytest.raises(NotAForest):
        validate({0: "3"})
    with pytest.raises(NotAForest):
        validate({0: 2, 1.5: 1})  # was read as {0: 2, 1: 1}
    with pytest.raises(NotAForest):
        validate({"0": 2, "1.5": 1})


@pytest.mark.parametrize("counts", [
    {0: 3, "0": 4},  # one degree named twice
    {True: 3, 0: 4},  # a bool is not a degree
    {"0": 3, "1": 5, "01": 2},  # only the canonical decimal string names a degree
    {"0": 12, "1_0": 1},
    {" 0": 3},
])
def test_validate_rejects_non_canonical_or_repeated_degrees(counts):
    with pytest.raises(NotAForest, match="degree"):
        validate(counts)


def test_from_json_rejects_a_repeated_key():
    with pytest.raises(ValueError, match="twice"):
        DegreeSequence.from_json('{"counts": {"0": 3, "0": 5, "1": 1}}')


def test_validate_takes_integer_like_counts():
    s = validate({0: np.int64(4), "2": 2})
    assert s.counts == {0: 4, 2: 2}
    assert all(type(k) is int for k in s.counts.values())


def test_degree_vector_weakly_increasing():
    # s^0=3, s^1=2, s^3=1 has d(s) = (0,0,0,1,1,3).
    s = validate({0: 3, 1: 2, 3: 1})
    assert degree_vector(s).tolist() == [0, 0, 0, 1, 1, 3]


def test_empirical_moments_exact():
    s = validate({0: 4, 2: 2})
    e = empirical(s)
    assert e.probs[0] == pytest.approx(4 / 6)
    assert e.probs[2] == pytest.approx(2 / 6)
    assert e.mean == pytest.approx(4 / 6)  # (0*4 + 2*2)/6
    assert e.second_moment == pytest.approx(8 / 6)


def test_limit_sigma_matches_factorial_moment():
    s = validate({0: 4, 2: 2})
    assert limit_sigma(s) == pytest.approx(math.sqrt(4 / 6))
    # sum j(j-1) s^j / n is the second moment minus the mean.
    e = empirical(s)
    assert limit_sigma(s) ** 2 == pytest.approx(e.second_moment - e.mean)


def test_geometric_profile_shape():
    p = geometric_profile()
    assert p[0] == pytest.approx(0.5)
    ratios = [p[i + 1] / p[i] for i in range(10)]
    assert all(r == pytest.approx(0.5) for r in ratios)
    assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)
    # mean 1, factorial second moment 2 (up to truncation of the tail)
    mean = sum(i * w for i, w in p.items())
    fact = sum(i * (i - 1) * w for i, w in p.items())
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert fact == pytest.approx(2.0, abs=1e-9)


def test_make_degree_sequence_hits_target():
    p = geometric_profile()
    s = make_degree_sequence(p, 10_000, 23, seed=5)
    assert s.n == 10_000
    assert s.c == 23
    # the empirical profile stays close to the requested one
    e = empirical(s)
    for i in (0, 1, 2, 3):
        assert abs(e.probs.get(i, 0.0) - p[i]) < 0.02


def test_make_degree_sequence_deterministic():
    p = geometric_profile()
    a = make_degree_sequence(p, 3000, 11, seed=42)
    b = make_degree_sequence(p, 3000, 11, seed=42)
    assert a.counts == b.counts


def test_make_degree_sequence_infeasible_target():
    # c = n would require every node to be a leaf-root: profile can't bend
    # that far within the allowed number of swaps.
    with pytest.raises(Infeasible):
        make_degree_sequence(geometric_profile(), 10_000, 10_000, seed=0)


@pytest.mark.parametrize("weight", [None, "x", math.nan, math.inf, -math.inf, -0.1,
                                    pytest.param(10**400, id="int_above_float_max")])
def test_make_degree_sequence_rejects_bad_weights(weight):
    # A bad weight is named, not dropped or left to fail further on.
    with pytest.raises(ValueError, match="weight of degree 2"):
        make_degree_sequence({0: 0.5, 1: 0.25, 2: weight}, 1000, 6)


def test_make_degree_sequence_rejects_boolean_weights():
    # True was read as the weight 1.0.
    with pytest.raises(ValueError, match="weight of degree 0"):
        make_degree_sequence({0: True, 2: 1}, 1000, 5)


def test_make_degree_sequence_rejects_fractional_degrees():
    # A fractional degree is named, not truncated to the integer below it.
    with pytest.raises(ValueError, match="degree 1.7"):
        make_degree_sequence({0: 0.5, 1.7: 0.25, 2: 0.25}, 1000, 250)
    # numpy integer degrees are integers.
    p = {np.int64(i): w for i, w in {0: 0.5, 1: 0.25, 2: 0.25}.items()}
    assert make_degree_sequence(p, 1000, 250).counts == {0: 500, 1: 250, 2: 250}


def test_json_round_trip():
    s = validate({0: 4, 2: 2})
    text = s.to_json()
    obj = json.loads(text)
    assert obj["counts"] == {"0": 4, "2": 2}
    assert DegreeSequence.from_json(text) == s


@st.composite
def degree_counts(draw):
    counts = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=8),
            min_size=1,
            max_size=5,
        )
    )
    n = sum(counts.values())
    c = sum((1 - i) * v for i, v in counts.items())
    if n == 0 or c < 1:
        counts = {0: max(1, c if c > 0 else 1), **{k: v for k, v in counts.items() if k > 0}}
    return counts


@given(degree_counts())
def test_degree_vector_properties(counts):
    n = sum(counts.values())
    c = sum((1 - i) * v for i, v in counts.items())
    if n == 0 or c < 1:
        return
    s = validate(counts)
    d = degree_vector(s)
    assert len(d) == s.n
    assert (np.diff(d) >= 0).all()
    assert d.sum() == s.n - s.c


def test_degree_sequence_derives_n_and_c():
    assert [f.name for f in dataclasses.fields(DegreeSequence) if f.init] == ["counts"]
    with pytest.raises(TypeError):
        DegreeSequence({0: 3, 2: 1}, 4, 1)  # its c is 2: n and c are not given
    s = DegreeSequence({0: 3, 2: 1})
    assert (s.n, s.c) == (4, 2)
    assert validate({0: 3, 2: 1}) == s


def _fields(counts):
    """(counts items, n, c) of validate's degree sequence, or [type, message] of its error."""
    s = outcome(validate, counts)
    return s if isinstance(s, list) else (list(s.counts.items()), s.n, s.c)


_BAD_DEGREE = "is not an integer >= 0 or its canonical string"
# Every counts map that the tests above give validate, with its fields.
_COUNTS_FED = [
    ({0: 4, 2: 2}, ([(0, 4), (2, 2)], 6, 2)),
    ({0: 3, 1: 2, 3: 1}, ([(0, 3), (1, 2), (3, 1)], 6, 1)),
    ({0: 2, 1: 1, 5: 0}, ([(0, 2), (1, 1)], 3, 2)),
    ({}, [EmptySequence, "degree sequence has no nodes"]),
    ({2: 3}, [NotAForest, "tree count c(s) = -3 <= 0"]),
    ({1: 4}, [NotAForest, "tree count c(s) = 0 <= 0"]),
    ({-1: 2, 0: 3}, [NotAForest, f"degree -1 {_BAD_DEGREE}"]),
    ({0: -2}, [NotAForest, "count of degree 0 must be an integer >= 0, got -2"]),
    ({"0": 1.5, "1": 2}, [NotAForest, "count of degree 0 must be an integer >= 0, got 1.5"]),
    ({0: "3"}, [NotAForest, "count of degree 0 must be an integer >= 0, got '3'"]),
    ({0: 2, 1.5: 1}, [NotAForest, f"degree 1.5 {_BAD_DEGREE}"]),
    ({"0": 2, "1.5": 1}, [NotAForest, f"degree '1.5' {_BAD_DEGREE}"]),
    ({0: 3, "0": 4}, [NotAForest, "degree 0 is named twice"]),
    ({True: 3, 0: 4}, [NotAForest, f"degree True {_BAD_DEGREE}"]),
    ({"0": 3, "1": 5, "01": 2}, [NotAForest, f"degree '01' {_BAD_DEGREE}"]),
    ({"0": 12, "1_0": 1}, [NotAForest, f"degree '1_0' {_BAD_DEGREE}"]),
    ({" 0": 3}, [NotAForest, f"degree ' 0' {_BAD_DEGREE}"]),
    ({0: np.int64(4), "2": 2}, ([(0, 4), (2, 2)], 6, 2)),
    ({0: 3, 2: 1}, ([(0, 3), (2, 1)], 4, 2)),
    ([1], [NotAForest, "expected a map of degree -> value, got list"]),
    ({0: 3, 2: None}, [NotAForest, "count of degree 2 must be an integer >= 0, got None"]),
]


@pytest.mark.parametrize("counts, fields", _COUNTS_FED, ids=[repr(c) for c, _ in _COUNTS_FED])
def test_validate_matches_the_three_field_reference(counts, fields):
    assert _fields(counts) == fields


@given(degree_counts())
def test_validate_matches_the_three_field_reference_on_drawn_counts(counts):
    # Zero counts dropped, the rest in the order given; n and c from them.
    n = sum(counts.values())
    c = sum((1 - i) * k for i, k in counts.items())
    want = [(i, k) for i, k in counts.items() if k > 0], n, c
    assert _fields(counts) == (want if c > 0 else [NotAForest, f"tree count c(s) = {c} <= 0"])


def test_make_degree_sequence_matches_the_reference_on_a_grid():
    # Degrees 0-4 with weights in {0, 0.5, 1, 2}, 1 <= c <= n <= 12, and the
    # two repair cases.  The digest pins every outcome: the counts in their
    # order, or the exception type and message.
    cases = [(dict(zip(range(5), ws)), n, c)
             for ws in itertools.product((0, 0.5, 1, 2), repeat=5)
             for n in range(1, 13) for c in range(1, n + 1)]
    cases += [({2: 0.5, 3: 0.5}, 3, 1), ({0: 0.5, 2: 0.5}, 3, 1)]
    h = hashlib.sha256()
    errors = set()
    for p, n, c in cases:
        got = outcome(make_degree_sequence, p, n, c)
        if isinstance(got, list):
            errors.add(got[1])
            got = [got[0].__name__, got[1]]
        else:
            assert (got.n, got.c) == (n, c)
            got = list(got.counts.items())
        h.update(repr(got).encode())
    assert {"p must have positive mass", "cannot repair node total"} <= errors
    assert h.hexdigest() == "0e04e0082af09a5bcfd2ebd8df4c60d5cf82075acf80c15ca39a6792828143be"


def test_make_degree_sequence_repairs_the_total_then_lowers_a_degree():
    # n * p rounds to {0: 2, 2: 2}, one node too many: a leaf is shed, then
    # c = -1 is raised to 1 by lowering a degree 2 and promoting the 1 made.
    s = make_degree_sequence({0: 0.5, 2: 0.5}, 3, 1)
    assert list(s.counts.items()) == [(0, 2), (2, 1)]


@pytest.mark.parametrize("p, n, c_target, error, match", [
    ({0: 0}, 5, 1, ValueError, "p must have positive mass"),
    ({0: 0.5, 2: 0.5}, 5, 0, Infeasible, r"c_target=0 outside \[1, 5\]"),
    ({0: 0.5, 2: 0.5}, 5, 6, Infeasible, r"c_target=6 outside \[1, 5\]"),
    ({2: 0.5, 3: 0.5}, 3, 1, Infeasible, "cannot repair node total"),
    ({0: 1e308, 2: 1e308}, 10, 2, ValueError, "overflow"),
    ({0: 1e308, 2: 1}, 10, 2, ValueError, "overflow"),
], ids=["no_mass", "c_below_1", "c_above_n", "no_leaf_to_shed", "sum_overflows",
        "share_overflows"])
def test_make_degree_sequence_names_what_it_cannot_build(p, n, c_target, error, match):
    with pytest.raises(error, match=match):
        make_degree_sequence(p, n, c_target)


@pytest.mark.parametrize("n, c_target, name", [
    (10.5, 2, "n"), (10.0, 2, "n"), (True, 1, "n"), ("10", 2, "n"), (None, 2, "n"),
    (10, 2.5, "c_target"), (10, 2.0, "c_target"), (10, True, "c_target"),
    (10, np.float64(2), "c_target"),
], ids=["n_fraction", "n_integral_float", "n_bool", "n_string", "n_none",
        "c_fraction", "c_integral_float", "c_bool", "c_numpy_float"])
def test_make_degree_sequence_names_a_size_that_is_not_an_integer(n, c_target, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        make_degree_sequence({0: 0.5, 2: 0.5}, n, c_target)
    s = make_degree_sequence({0: 0.5, 2: 0.5}, np.int64(10), np.int32(2))
    assert s == make_degree_sequence({0: 0.5, 2: 0.5}, 10, 2)
