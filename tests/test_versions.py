"""Pragma constraint parsing and range algebra."""

import pytest

from solbuglab.taxonomy import kind_by_id
from solbuglab.versions import (
    ANY_VERSION,
    VersionSyntaxError,
    parse_constraint,
    parse_version,
    version_applies,
)


@pytest.mark.parametrize("text,expected", [
    ("0.4.24", (0, 4, 24)),
    ("0.6.0", (0, 6, 0)),
    ("1.2.3", (1, 2, 3)),
])
def test_parse_version(text, expected):
    assert parse_version(text) == expected


@pytest.mark.parametrize("text,lower,upper", [
    ("^0.4.24", (0, 4, 24), (0, 5, 0)),
    ("~0.4.24", (0, 4, 24), (0, 5, 0)),
    ("0.4.24", (0, 4, 24), (0, 4, 25)),
    ("=0.4.24", (0, 4, 24), (0, 4, 25)),
    (">=0.4.0", (0, 4, 0), None),
    (">0.4.0", (0, 4, 1), None),
    ("<0.6.0", None, (0, 6, 0)),
    ("<=0.4.26", None, (0, 4, 27)),
    (">=0.4.24 <0.6.0", (0, 4, 24), (0, 6, 0)),
    (">= 0.4.22 < 0.6.0", (0, 4, 22), (0, 6, 0)),
    (">=0.4.22<0.6.0", (0, 4, 22), (0, 6, 0)),
    # a partial version is npm's X.Y.x: "next" bumps the last written part
    ("0.4", (0, 4, 0), (0, 5, 0)),
    ("=0.4", (0, 4, 0), (0, 5, 0)),
    (">0.4", (0, 5, 0), None),
    (">=0.4", (0, 4, 0), None),
    ("<=0.4", None, (0, 5, 0)),
    ("<0.4", None, (0, 4, 0)),
    ("^0.4", (0, 4, 0), (0, 5, 0)),
    ("~0.4", (0, 4, 0), (0, 5, 0)),
    ("0", (0, 0, 0), (1, 0, 0)),
    ("^0", (0, 0, 0), (1, 0, 0)),
    ("~0", (0, 0, 0), (1, 0, 0)),
    (">0", (1, 0, 0), None),
    ("<=0", None, (1, 0, 0)),
    (">=0.4 <=0.5", (0, 4, 0), (0, 6, 0)),
    # a caret bumps the leftmost non-zero written part, else the last one
    ("^1.2.3", (1, 2, 3), (2, 0, 0)),
    ("^1.2", (1, 2, 0), (2, 0, 0)),
    ("^0.0.3", (0, 0, 3), (0, 0, 4)),
    ("^0.0", (0, 0, 0), (0, 1, 0)),
])
def test_parse_constraint_bounds(text, lower, upper):
    constraint = parse_constraint(text)
    assert constraint.lower == lower
    assert constraint.upper == upper
    assert constraint.raw_text == text


@pytest.mark.parametrize("text", ["*", ""])
def test_unbounded_forms(text):
    constraint = parse_constraint(text)
    assert constraint.is_unbounded()
    assert not constraint.is_empty()


@pytest.mark.parametrize("text", [
    "nope", "pragma", ">=x.y.z", "foo 1.2", "0.4.24.1", "0.4.x", "^0.4.20 || ^0.5.0",
    "0.4 . x", "^0.4.24 *",
])
def test_rejects_clause_free_text(text):
    with pytest.raises(VersionSyntaxError):
        parse_constraint(text)


def test_equal_texts_share_one_constraint_and_errors_repeat():
    assert parse_constraint("^0.4.24") is parse_constraint("^0.4.24")
    for _ in range(3):  # an error is never cached as a result
        with pytest.raises(VersionSyntaxError):
            parse_constraint("^0.4.x")


def test_contains_respects_half_open_upper():
    constraint = parse_constraint("^0.4.24")
    assert constraint.contains((0, 4, 24))
    assert constraint.contains((0, 4, 26))
    assert not constraint.contains((0, 5, 0))
    assert not constraint.contains((0, 4, 23))


def test_intersection_narrows_and_empties():
    a = parse_constraint(">=0.4.0")
    b = parse_constraint("<0.5.0")
    both = a.intersect(b)
    assert both.contains((0, 4, 26))
    assert not both.contains((0, 5, 0))
    empty = parse_constraint("^0.6.0").intersect(parse_constraint("^0.4.0"))
    assert empty.is_empty()
    assert not empty.overlaps(ANY_VERSION)


# the three contract/detector pairings the version gate has to get right
@pytest.mark.parametrize("pragma,affected,expected", [
    ("^0.4.24", "<=0.4.26", True),
    ("0.6.2", "<=0.4.26", False),
    ("*", "<=0.4.26", True),
    (">0.4", "<=0.4.26", False),  # >0.4 starts at 0.5.0
    ("0.4", "<=0.4.26", True),
])
def test_version_applies(pragma, affected, expected):
    assert version_applies(parse_constraint(pragma),
                           parse_constraint(affected)) is expected


# Every clause operator at a few versions, any version and an empty range.
_GRID = [parse_constraint(op + v)
         for op in ("^", "~", "=", "", ">=", ">", "<=", "<")
         for v in ("0", "0.4", "0.4.24", "0.4.26", "0.5.0", "1.2.3")]
_GRID += [ANY_VERSION, parse_constraint("*"),
          parse_constraint("^0.6.0").intersect(parse_constraint("^0.4.0"))]


def test_overlaps_is_a_non_empty_intersection():
    for a in _GRID:
        for b in _GRID:
            assert a.overlaps(b) is (not a.intersect(b).is_empty()), (a, b)


def test_gate_lookup_of_an_unknown_kind_raises_key_error():
    with pytest.raises(KeyError):
        kind_by_id("Z-z-ZZ")


def test_overlap_is_symmetric():
    pairs = [("^0.4.24", "<=0.4.26"), ("0.6.2", "<=0.4.26"),
             (">=0.5.0", "<0.5.0"), ("*", "0.4.25")]
    for left, right in pairs:
        a, b = parse_constraint(left), parse_constraint(right)
        assert a.overlaps(b) == b.overlaps(a)


def test_describe_round_trips_meaning():
    assert parse_constraint("*").describe() == "*"
    described = parse_constraint("<=0.4.26").describe()
    again = parse_constraint(described)
    assert again.upper == (0, 4, 27)
    assert again.lower is None
