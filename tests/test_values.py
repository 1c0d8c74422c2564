"""What the value constructors accept and reject, field by field.

Plain ints take a fast path in each constructor; everything else goes
through heis._check_int.  These tests pin the observable behaviour of
both routes: the exception type, the field it names, and the messages.
"""

import pytest

from collections import namedtuple

from heisaut import gl2
from heisaut.aut import ZERO_VECTOR, Automorphism, InnerVector
from heisaut.cocycles import Cocycle, SectionOnGenerators, canonical_section
from heisaut.gl2 import GeneratorWord, Gl2Matrix, Letter, eval_letters
from heisaut.heis import AbPair, HeisElement


class Big(int):
    """An int subclass; accepted wherever an int is."""


# (class, field names, a valid plain-int argument tuple)
INT_FIELDS = [
    (HeisElement, ("a", "b", "c"), (1, -2, 3)),
    (AbPair, ("h", "p"), (4, -5)),
    (Gl2Matrix, ("m11", "m12", "m21", "m22"), (1, 0, 0, 1)),
    (Automorphism, ("r", "u"), (7, -8)),
    (InnerVector, ("p", "q"), (9, -10)),
]

BAD_VALUES = [1.0, "1", None, True, False]


def build(cls, args):
    # Automorphism's int fields follow its matrix
    if cls is Automorphism:
        return Automorphism(gl2.A, *args)
    return cls(*args)


def cases():
    for cls, names, good in INT_FIELDS:
        for i, name in enumerate(names):
            yield pytest.param(cls, i, name, good, id=f"{cls.__name__}.{name}")


@pytest.mark.parametrize("cls, index, name, good", cases())
@pytest.mark.parametrize("bad", BAD_VALUES,
                         ids=lambda v: type(v).__name__ + repr(v))
def test_non_int_field_rejected_by_name(cls, index, name, good, bad):
    args = list(good)
    args[index] = bad
    with pytest.raises(TypeError, match=rf"^{name} must be an int, got "
                       rf"{type(bad).__name__}$"):
        build(cls, args)


@pytest.mark.parametrize("cls, index, name, good", cases())
def test_int_subclass_field_accepted(cls, index, name, good):
    args = list(good)
    args[index] = Big(good[index])
    value = build(cls, args)
    assert getattr(value, name) == good[index]
    assert value == build(cls, good)


@pytest.mark.parametrize("cls, names, good", INT_FIELDS,
                         ids=[c[0].__name__ for c in INT_FIELDS])
def test_first_bad_field_is_the_one_named(cls, names, good):
    # fields are checked in declaration order
    with pytest.raises(TypeError, match=rf"^{names[0]} must be an int"):
        build(cls, [None] * len(good))


@pytest.mark.parametrize("entries, det", [
    ((0, 0, 0, 0), 0),
    ((2, 0, 0, 1), 2),
    ((1, 1, 1, 1), 0),
    ((Big(2), 0, 0, 1), 2),
])
def test_matrix_determinant_message(entries, det):
    with pytest.raises(ValueError) as info:
        Gl2Matrix(*entries)
    assert str(info.value) == f"matrix must have determinant +1 or -1, got {det}"


def test_matrix_type_checked_before_determinant():
    with pytest.raises(TypeError, match="^m22 must be an int, got float$"):
        Gl2Matrix(2, 0, 0, 1.0)


@pytest.mark.parametrize("matrix", [
    (1, 0, 0, 1), [[1, 0], [0, 1]], None, "[[1,0],[0,1]]",
], ids=["tuple", "list", "none", "str"])
def test_automorphism_needs_a_matrix(matrix):
    with pytest.raises(TypeError, match="^matrix must be a Gl2Matrix$"):
        Automorphism(matrix, 0, 0)


def test_automorphism_matrix_checked_before_offsets():
    with pytest.raises(TypeError, match="^matrix must be a Gl2Matrix$"):
        Automorphism((1, 0, 0, 1), 1.0, None)


@pytest.mark.parametrize("bad", BAD_VALUES,
                         ids=lambda v: type(v).__name__ + repr(v))
def test_word_exponents(bad):
    with pytest.raises(TypeError, match="^exponent must be an int"):
        GeneratorWord(((Letter.RHO, bad),))
    with pytest.raises(TypeError, match="^exponent must be an int"):
        eval_letters(((Letter.TAU, bad),))


def test_word_exponent_int_subclass_accepted():
    raw = ((Letter.RHO, Big(2)), (Letter.KAPPA, Big(3)))
    assert GeneratorWord(raw) == GeneratorWord(((Letter.RHO, 2), (Letter.KAPPA, 1)))
    assert eval_letters(raw) == gl2.A ** 2 * gl2.D


# (class, field names, a valid argument tuple, the field type's name)
VALUE_FIELDS = [
    (Cocycle, ("v_rho", "v_tau", "v_kappa"), (ZERO_VECTOR,) * 3, "InnerVector"),
    (SectionOnGenerators, ("alpha_rho", "alpha_tau", "alpha_kappa"),
     (canonical_section().alpha_rho, canonical_section().alpha_tau,
      canonical_section().alpha_kappa), "Automorphism"),
]

# a namedtuple with fields p and q used to pass Cocycle's relator check
P = namedtuple("P", "p q")


def value_cases():
    for cls, names, good, kind in VALUE_FIELDS:
        for i, name in enumerate(names):
            for bad in (P(0, 0), (0, 0), AbPair(0, 0), None, gl2.A):
                yield pytest.param(cls, i, name, good, kind, bad,
                                   id=f"{cls.__name__}.{name}-{bad!r}")


@pytest.mark.parametrize("cls, index, name, good, kind, bad", value_cases())
def test_value_field_type_rejected_by_name(cls, index, name, good, kind, bad):
    args = list(good)
    args[index] = bad
    with pytest.raises(TypeError, match=rf"^{name} must be an {kind}$"):
        cls(*args)


def test_section_rejects_bare_matrices():
    with pytest.raises(TypeError, match="^alpha_rho must be an Automorphism$"):
        SectionOnGenerators(gl2.A, gl2.B, gl2.D)


def test_value_field_subclass_accepted():
    class V(InnerVector):
        pass

    assert Cocycle(V(0, 0), ZERO_VECTOR, ZERO_VECTOR).v_rho.q == 0
