"""Malformed input is refused with a PosetAlgebraError, never another
exception, and a table's coefficients parse as written however often each
text repeats."""

from collections import Counter
from fractions import Fraction
import json

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from posetalg import (
    IncidenceAlgebra,
    MultiplicationTable,
    NotMonomial,
    ParseError,
    PosetAlgebraError,
    chain,
    parse_poset,
    scramble,
)
from posetalg import algebra

from _strategies import posets


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


@pytest.mark.parametrize("coeff", ["1e4300", "15e4299", "1e-4300"])
def test_coefficient_that_cannot_be_written_back_is_refused(coeff):
    # inside the exponent budget, but more digits than str() will write
    text = '{"dim": 1, "entries": [[0, 0, "%s", 0]]}' % coeff
    with pytest.raises(ParseError) as e:
        MultiplicationTable.from_json_text(text)
    assert str(e.value) == "coefficient too long to write back in [0, 0, %r, 0]" % coeff


def test_longest_writable_coefficient_roundtrips():
    T = MultiplicationTable.from_json_text('{"dim": 1, "entries": [[0, 0, "9e4299", 0]]}')
    assert T.entries == {(0, 0): (9 * 10**4299, 0)}
    assert MultiplicationTable.from_json_text(T.to_json_text()) == T


def spellings(c):
    """JSON values that Fraction(str(value)) reads as c."""
    p, q = c.numerator, c.denominator
    out = ["%d/%d" % (p, q), "%d/%d" % (2 * p, 2 * q)]
    if p > 0:
        out.append("+%d/%d" % (p, q))
    if float(c) == c:  # a dyadic ratio: its shortest decimal is exact
        out += [repr(float(c)), float(c)]
    return out


@settings(max_examples=60, deadline=None)
@given(posets(max_n=5), st.integers(0, 2**16), st.data())
def test_respelled_coefficients_parse_as_written(P, seed, data):
    T = scramble(IncidenceAlgebra(P, "reflexive").multiplication_table(), seed)
    rows = [
        [i, j, data.draw(st.sampled_from(spellings(c))), k]
        for (i, j), (c, k) in sorted(T.entries.items())
    ]
    text = json.dumps({"dim": T.dim, "entries": rows})
    reference = {(i, j): (Fraction(str(c)), k) for i, j, c, k in rows}
    assert MultiplicationTable.from_json_text(text).entries == reference == T.entries


# the first rows spell "1/2" twice and then the JSON number 1, so a failing
# row whose coefficient is "1/2", or true (which hashes like 1), meets a
# value that has been read before, in its own table and in a table parsed
# earlier
@pytest.mark.parametrize(
    "row, error, message",
    [
        ([0, 5, "1/2", 0], ParseError, "entry indices out of range in [0, 5, '1/2', 0]"),
        (
            [1, 1, "0/3", 1],
            ParseError,
            "zero coefficient in [1, 1, '0/3', 1] (omit zero products)",
        ),
        ([0, 1, "1/2", 1], NotMonomial, "duplicate entry for product (0, 1)"),
        ([0, 0, "3", 0], NotMonomial, "duplicate entry for product (0, 0)"),
        ([1, 1, True, 1], ParseError, "bad coefficient True"),
        (
            [1, 1, "1/2e4301", 1],
            ParseError,
            "coefficient exponent past 4300 in [1, 1, '1/2e4301', 1]",
        ),
    ],
)
def test_repeated_coefficient_does_not_mask_later_errors(row, error, message):
    first = [[0, 0, "1/2", 0], [0, 1, "1/2", 1], [1, 0, 1, 0]]
    MultiplicationTable.from_json_text(json.dumps({"dim": 2, "entries": first}))
    rows = first + [row]
    with pytest.raises(error) as e:
        MultiplicationTable.from_json_text(json.dumps({"dim": 2, "entries": rows}))
    assert type(e.value) is error and str(e.value) == message


def test_each_distinct_coefficient_text_is_read_once(monkeypatch):
    T = scramble(IncidenceAlgebra(chain(30), "reflexive").multiplication_table(), 3)
    text = T.to_json_text()
    calls = Counter()

    def counting(*args):
        calls[args] += 1
        return Fraction(*args)

    monkeypatch.setattr(algebra, "Fraction", counting)
    assert MultiplicationTable.from_json_text(text) == T
    distinct = {c for _, _, c, _ in json.loads(text)["entries"]}
    assert len(distinct) < len(T.entries)
    assert calls == Counter({(c,): 1 for c in distinct})


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
