"""Values the library builds unchecked, with _of, would pass their checks.

Each function that skips the constructor's validation because its
result is valid by construction is run on operands up to 5000 bits,
det -1 matrices and zero entries.  Rebuilding the result through its
public constructor must succeed and give an equal value.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisaut import aut, gl2, heis
from heisaut.aut import Automorphism, InnerVector
from heisaut.gl2 import Gl2Matrix, Letter
from heisaut.heis import HeisElement

# one coordinate: zero, small, or up to 2^5000 in size
coords = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3),
                   st.integers(min_value=-2**5000, max_value=2**5000))
exponents = st.integers(min_value=-12, max_value=12)
letter_pairs = st.lists(st.tuples(st.sampled_from(tuple(Letter)), coords),
                        max_size=5)
# words with huge exponents, and the small det -1 matrices with zero entries
matrices = st.one_of(
    letter_pairs.map(gl2.eval_letters),
    st.sampled_from((gl2.D, Gl2Matrix(0, 1, 1, 0), Gl2Matrix(0, -1, -1, 0),
                     Gl2Matrix(1, 0, 7, -1))),
)
elements = st.builds(HeisElement, coords, coords, coords)
vectors = st.builds(InnerVector, coords, coords)
automorphisms = st.builds(Automorphism, matrices, coords, coords)

CASES = [
    ("heis.multiply", heis.multiply, (elements, elements)),
    ("heis.inverse", heis.inverse, (elements,)),
    ("heis.power", heis.power, (elements, coords)),
    ("gl2.mat_multiply", gl2.mat_multiply, (matrices, matrices)),
    ("gl2.mat_inverse", gl2.mat_inverse, (matrices,)),
    ("Gl2Matrix.__pow__", Gl2Matrix.__pow__, (matrices, exponents)),
    ("gl2.eval_letters", gl2.eval_letters, (letter_pairs,)),
    ("aut.apply", aut.apply, (automorphisms, elements)),
    ("aut.compose", aut.compose, (automorphisms, automorphisms)),
    ("aut.invert", aut.invert, (automorphisms,)),
    ("aut.rd", aut.rd, (coords,)),
    ("aut.inner", aut.inner, (vectors,)),
    ("aut.section", aut.section, (matrices,)),
    ("aut.power", aut.power, (automorphisms, exponents)),
]


def assert_rebuilds(value):
    fields = [getattr(value, name) for name in value.__match_args__]
    assert type(value)(*fields) == value
    if isinstance(value, Automorphism):
        assert_rebuilds(value.matrix)


@pytest.mark.parametrize("fn, operands", [
    pytest.param(fn, operands, id=name) for name, fn, operands in CASES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_unchecked_result_passes_its_checks(fn, operands, data):
    args = [data.draw(operand) for operand in operands]
    assert_rebuilds(fn(*args))
