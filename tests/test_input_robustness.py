"""Malformed input is refused with a PosetAlgebraError, never another
exception."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from posetalg import MultiplicationTable, ParseError, PosetAlgebraError, parse_poset


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": 2, "entries": 5}',
        '{"dim": 2, "entries": {"0": [0, 0, "1", 0]}}',
        '{"dim": 2, "entries": null}',
        '{"dim": true, "entries": []}',
        '{"dim": 2, "entries": [[false, false, "1", false]]}',
        '{"dim": true, "entries": [[false, false, "1", false]]}',
        '{"dim": 2, "entries": [[0, true, "1", 0]]}',
        pytest.param(
            '{"dim": ' + "1" * 5000 + ', "entries": []}', id="5000-digit-dim"
        ),
        pytest.param("[" * 100000, id="deep-nesting"),
        pytest.param(
            '{"dim": 1, "entries": [[0, 0, "1e4000000", 0]]}', id="1e4000000"
        ),
        pytest.param(
            '{"dim": 1, "entries": [[0, 0, "1e-4000000", 0]]}', id="1e-4000000"
        ),
    ],
)
def test_table_json_shapes_are_refused(text):
    with pytest.raises(ParseError):
        MultiplicationTable.from_json_text(text)


def test_small_exponent_coefficient_still_parses():
    T = MultiplicationTable.from_json_text('{"dim": 1, "entries": [[0, 0, "1e3", 0]]}')
    assert T.entries == {(0, 0): (1000, 0)}


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)

table_documents = st.one_of(
    json_values,
    st.fixed_dictionaries({"dim": json_values, "entries": json_values}),
    st.fixed_dictionaries(
        {
            "dim": st.integers(0, 4),
            "entries": st.lists(
                st.lists(json_values | st.integers(0, 4), min_size=3, max_size=5),
                max_size=4,
            ),
        }
    ),
).map(json.dumps)


@settings(max_examples=300, deadline=None)
@given(st.one_of(table_documents, st.text(max_size=40)))
def test_table_json_parses_or_raises_library_error(text):
    try:
        MultiplicationTable.from_json_text(text)
    except PosetAlgebraError:
        pass


label_chars = st.sampled_from(["a", "b", "<", "#", " ", "\t", "\x85", " ", "é"])
poset_lines = st.one_of(
    st.text(max_size=12),
    st.builds(
        lambda words: "elements: " + " ".join(words),
        st.lists(st.text(label_chars, max_size=3), max_size=4),
    ),
    st.builds(
        lambda words: "relations: " + " ".join(words),
        st.lists(st.text(label_chars, max_size=4), max_size=4),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(poset_lines, max_size=4).map("\n".join))
def test_poset_text_parses_or_raises_library_error(text):
    try:
        parse_poset(text)
    except PosetAlgebraError:
        pass
