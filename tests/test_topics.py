import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from continuum.bus import (
    RouteTable,
    topic_matches,
    validate_filter,
    validate_node_id,
    validate_topic,
)


def reference_match(filter_levels: list[str], topic_levels: list[str]) -> bool:
    """Recursive MQTT matcher used as the ground truth; no regexes, no shortcuts."""
    if not filter_levels:
        return not topic_levels
    head, *rest = filter_levels
    if head == "#":
        return True  # '#' absorbs the remaining levels, including none
    if not topic_levels:
        return False
    if head == "+" or head == topic_levels[0]:
        return reference_match(rest, topic_levels[1:])
    return False


def all_filters(max_levels: int, alphabet: tuple[str, ...]) -> list[str]:
    symbols = alphabet + ("+", "#")
    filters = []
    for depth in range(1, max_levels + 1):
        for combo in itertools.product(symbols, repeat=depth):
            if any(level == "#" for level in combo[:-1]):
                continue  # '#' is only legal as the final level
            filters.append("/".join(combo))
    return filters


def all_topics(max_levels: int, alphabet: tuple[str, ...]) -> list[str]:
    return [
        "/".join(combo)
        for depth in range(1, max_levels + 1)
        for combo in itertools.product(alphabet, repeat=depth)
    ]


def test_single_level_wildcard():
    assert topic_matches("factory/+/images", "factory/cam1/images")
    assert not topic_matches("factory/+/images", "factory/cam1/cam2/images")


def test_multi_level_wildcard_includes_parent():
    assert topic_matches("factory/#", "factory/cam1/images/raw")
    assert topic_matches("factory/#", "factory")
    assert topic_matches("#", "a/b/c")


def test_exact_and_level_count_rules():
    assert not topic_matches("factory/cam1", "factory/cam2")
    assert not topic_matches("+", "a/b")
    assert not topic_matches("a/+", "a")
    assert topic_matches("a/b", "a/b")


def test_exhaustive_against_reference_matcher():
    filters = all_filters(4, ("a", "b"))
    topics = all_topics(4, ("a", "b"))
    assert len(filters) * len(topics) > 4000
    for filt in filters:
        flevels = filt.split("/")
        for topic in topics:
            expected = reference_match(flevels, topic.split("/"))
            assert topic_matches(filt, topic) == expected, (filt, topic)


@given(
    st.lists(st.sampled_from(["a", "b", "c", "+", "#"]), min_size=1, max_size=6),
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=6),
)
def test_random_filters_agree_with_reference(filter_levels, topic_levels):
    if any(level == "#" for level in filter_levels[:-1]):
        filter_levels = [lv for lv in filter_levels if lv != "#"] or ["a"]
    filt = "/".join(filter_levels)
    topic = "/".join(topic_levels)
    assert topic_matches(filt, topic) == reference_match(filt.split("/"), topic.split("/"))


route_filters = st.builds(
    lambda levels, tail: "/".join(levels + tail),
    st.lists(st.sampled_from(["a", "b", "+"]), min_size=0, max_size=3),
    st.sampled_from([[], ["#"]]),
).filter(bool)
route_topics = st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=3).map("/".join)
route_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sub"), st.integers(0, 5), route_filters),
        st.tuples(st.just("unsub"), st.integers(0, 5)),
        st.tuples(st.just("pub"), route_topics),
    ),
    max_size=60,
)


@given(route_ops)
def test_route_table_agrees_with_a_full_scan(ops):
    table = RouteTable()
    subs: list[tuple[str, int]] = []  # (filter, target) in subscription order
    for op in ops:
        if op[0] == "sub":
            table.add(op[1], op[2])
            subs.append((op[2], op[1]))
        elif op[0] == "unsub":
            table.remove(op[1])
            subs = [(f, t) for f, t in subs if t != op[1]]
        else:
            expected = list(dict.fromkeys(t for f, t in subs if topic_matches(f, op[1])))
            assert table.route(op[1]) == expected


def test_filter_validation():
    validate_filter("a/+/b")
    validate_filter("a/#")
    validate_filter("#")
    with pytest.raises(ValueError):
        validate_filter("")
    with pytest.raises(ValueError):
        validate_filter("a/#/b")
    with pytest.raises(ValueError):
        validate_filter("a+/b")
    with pytest.raises(ValueError):
        validate_filter("a/b#")


def test_topic_validation():
    validate_topic("factory/cam1/images")
    with pytest.raises(ValueError):
        validate_topic("")
    with pytest.raises(ValueError):
        validate_topic("factory/+/images")
    with pytest.raises(ValueError):
        validate_topic("factory/#")


def test_node_id_validation():
    validate_node_id("edge:cam1")
    validate_node_id("fog:worker-0")
    validate_node_id("cloud:server")
    for bad in ("cam1", "edge:", ":name", "core:x", ""):
        with pytest.raises(ValueError):
            validate_node_id(bad)
