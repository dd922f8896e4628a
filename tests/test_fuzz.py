"""The text parsers raise only their documented error on any input."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gf4msd.enumerators import Enumerator, ParseError
from gf4msd.gf4 import Gf4Code, parse_database

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=6) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=20,
)
COEFF = st.integers() | st.text(alphabet="-0123456789/ .e", max_size=6) | JSON
ENUMERATOR_OBJECTS = st.fixed_dictionaries(
    {"n": st.integers(-2, 8) | JSON, "coeffs": st.lists(COEFF, max_size=9) | JSON}
)
# code files: headers, rows and comments from the format's own symbols
CODE_TEXT = st.text(alphabet="0123wWxz #-\n", max_size=80)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=80) | CODE_TEXT)
def test_parse_database_raises_only_parse_error(text):
    try:
        codes = parse_database(text)
    except ParseError:
        return
    for code in codes:
        assert isinstance(code, Gf4Code)
        assert parse_database(code.to_text())[0] == code


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=40) | JSON.map(json.dumps) | ENUMERATOR_OBJECTS.map(json.dumps))
def test_enumerator_from_json_raises_only_parse_error(text):
    try:
        A = Enumerator.from_json(text)
    except ParseError:
        return
    assert Enumerator.from_json(A.to_json()) == A
