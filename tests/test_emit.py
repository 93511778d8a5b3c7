"""The CLI's JSON writer, whole and in pieces, against json.dumps(indent=2, sort_keys=True)."""

import enum
import json
from collections import OrderedDict

import pytest

from cmhodge.cli import _json_pieces, _json_text

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# any text; text that may hold lone surrogates; text over characters json escapes
TEXT = (
    st.text()
    | st.text(st.characters(exclude_categories=()))
    | st.text(st.sampled_from("\x00\x1f\x7f\"\\/e\u00e9\u2028\ud800\udfff\U0001f600"))
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | TEXT
)
KEYS = st.one_of(TEXT, st.integers(), st.booleans(), st.none())


def _json_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _pieces_text(obj):
    pieces = []
    _json_pieces(obj, "\n", pieces)
    return "".join(pieces)


def _documents(keys):
    return st.recursive(
        SCALARS,
        lambda children: (
            st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(keys, children, max_size=5)
        ),
        max_leaves=40,
    )


@settings(max_examples=200, database=None)
@given(_documents(TEXT) | _documents(st.integers()))
def test_writer_equals_json_dumps(obj):
    assert _json_text(obj) == _pieces_text(obj) == _json_dumps(obj)


@settings(max_examples=200, database=None)
@given(_documents(KEYS))
def test_writer_fails_where_json_dumps_fails(obj):
    # mixed key types in one dict cannot be sorted: both raise TypeError
    try:
        expected = _json_dumps(obj)
    except TypeError:
        with pytest.raises(TypeError):
            _json_text(obj)
        with pytest.raises(TypeError):
            _pieces_text(obj)
    else:
        assert _json_text(obj) == _pieces_text(obj) == expected


class Kind(enum.IntEnum):
    ONE = 1


class Label(str):
    pass


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": ()},
        {10: "x", 9: "y", -1: None},
        {True: 1},
        {False: [True, False, None]},
        {None: 0},
        2**64,
        -(10**300),
        "\x00\x1f\x7fé \ud800\U0001f600\"\\",
        {"é": 1, "e": 2, "\x00": 3},
        [Kind.ONE, {Kind.ONE: Kind.ONE}],
        [Label("z\n"), {Label("k"): Label("v")}],
        OrderedDict([("b", 1), ("a", 2)]),
        [[[[]]], [{}], {"x": [{"y": [1, (2, 3)]}]}],
    ],
)
def test_writer_equals_json_dumps_on_edge_cases(obj):
    assert _json_text(obj) == _pieces_text(obj) == _json_dumps(obj)


@pytest.mark.parametrize("obj", [1.5, {"a": {1, 2}}, b"x", object(), {(1,): 2}, {1.5: 2}])
def test_writer_refuses_types_outside_its_subset(obj):
    with pytest.raises(TypeError):
        _json_text(obj)
    with pytest.raises(TypeError):
        _pieces_text(obj)
