"""Topic name/filter rules and the multi-level wildcard matcher."""

import pytest
from hypothesis import example, given, strategies as st

from tdmqtt.packets import (
    MalformedFilter,
    matched,
    matching_filters,
    topic_matches,
    validate_filter,
    validate_topic,
)


def naive_matches(filt: str, name: str) -> bool:
    """Slow reference matcher: walk levels side by side."""
    f = filt.split("/")
    n = name.split("/")
    i = 0
    while True:
        if i == len(f):
            return i == len(n)
        if f[i] == "#":
            return True  # absorbs the rest, including zero levels
        if i == len(n) or f[i] != n[i]:
            return False
        i += 1


CASES = [
    ("#", "a", True),
    ("#", "a/b/c", True),
    ("a", "a", True),
    ("a", "b", False),
    ("a", "a/b", False),
    ("a/b", "a/b", True),
    ("a/b", "a", False),
    ("a/#", "a", True),       # '#' also covers the parent level
    ("a/#", "a/b", True),
    ("a/#", "a/b/c", True),
    ("a/#", "ab", False),
    ("a/#", "b/a", False),
    ("a/b/#", "a/b/c/d", True),
    ("a/b/#", "a/c", False),
    ("sensors/room1/temp", "sensors/room1/temp", True),
    ("sensors/room1/temp", "sensors/room1/hum", False),
]


@pytest.mark.parametrize("filt,name,expected", CASES)
def test_matcher_against_enumerated_cases(filt, name, expected):
    assert topic_matches(filt, name) is expected
    assert naive_matches(filt, name) is expected  # the oracle agrees


level = st.text(alphabet="abc", min_size=0, max_size=3)
name_st = st.lists(level, min_size=1, max_size=4).map("/".join)
filter_st = st.one_of(
    name_st,
    st.lists(level, min_size=0, max_size=3).map(
        lambda ls: "/".join(ls + ["#"])),
)


@given(filter_st, name_st)
def test_matcher_agrees_with_naive_reference(filt, name):
    assert topic_matches(filt, name) == naive_matches(filt, name)


@given(name_st)
def test_every_name_matches_itself_and_hash(name):
    assert topic_matches(name, name)
    assert topic_matches("#", name)


@given(filter_st, name_st)
def test_matching_filters_are_exactly_the_matching_filters(filt, name):
    assert (filt in matching_filters(name)) == naive_matches(filt, name)


@given(name_st)
def test_matching_filters_has_levels_plus_two_distinct_entries(name):
    filters = matching_filters(name)
    assert len(set(filters)) == len(filters) == name.count("/") + 3


@given(filter_st, st.frozensets(name_st, max_size=12))
@example("#", frozenset({"a", "/", "a/b"}))
@example("/#", frozenset({"/", "", "/a", "a", "a/"}))
@example("a//#", frozenset({"a/", "a//", "a//b", "a/b", "a"}))
@example("a/b/#", frozenset({"a/b", "a/b/c", "a/bc", "a"}))  # stem is a topic
# topics that sort just before and after '/' around the stem
@example("a/#", frozenset({"a", "a.b", "a/", "a/b", "a0"}))
@example("a.0/#", frozenset({"a.", "a.0", "a.0.", "a.0/", "a.0/a", "a.00"}))
@example("a", frozenset({"a", "a.", "a/", "a0"}))
def test_matched_are_those_topic_matches_accepts(filt, topics):
    """packets.covered, through matched's bisection, against
    topic_matches: each covered topic once, in order."""
    expected = sorted(t for t in topics if topic_matches(filt, t))
    assert matched(sorted(topics), filt) == expected


def test_matching_filters_of_a_two_level_name():
    assert matching_filters("a/b") == ["a/b", "#", "a/#", "a/b/#"]


def test_validate_filter_accepts_hash_forms():
    for ok in ("#", "a/#", "a/b/#", "a", "a/b", "a//b", "/"):
        assert validate_filter(ok) == ok


@pytest.mark.parametrize("bad", [
    "", "a#", "#/a", "x/#/y", "a/b#", "#a",
    "+", "a/+", "+/a", "a/+/b",
    "a\x00b",
])
def test_validate_filter_rejections(bad):
    with pytest.raises(MalformedFilter):
        validate_filter(bad)


@pytest.mark.parametrize("bad", ["", "a/#", "#", "a/+/b", "a\x00b"])
def test_validate_topic_rejections(bad):
    with pytest.raises(MalformedFilter):
        validate_topic(bad)


def test_validate_topic_accepts_plain_names():
    for ok in ("a", "a/b", "sensors/room1/temp", "/leading", "trailing/"):
        assert validate_topic(ok) == ok
