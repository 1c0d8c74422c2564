"""What the value constructors accept and reject, field by field, and
the contract every value class keeps.

Each constructor checks its fields through heis._check_fields: a value
of the field's exact type passes at once, and everything else goes
through heis._check_int or heis._expect.  These tests pin the observable
behaviour of both routes: the exception type, the field it names, and
the messages.  An AST walk pins that no constructor checks a field type
another way.
The contract tests pin what the classes share: the constructor's
parameters, messages and validation hook, the unchecked _of of the
classes with a hook, keyword construction, repr, == and hash within one
class only, pickling and copying, frozen fields and no instance
__dict__.  A walk over the public functions of heis, gl2, aut, cocycles
and zlattice pins the boundary: object() in any required parameter
raises a TypeError that names it.
"""

import ast
import copy
import inspect
import operator
import pickle

import pytest

from collections import namedtuple
from pathlib import Path

from heisaut import aut, cocycles, gl2, heis, verify, zlattice
from heisaut.aut import ZERO_VECTOR, Automorphism, InnerVector
from heisaut.cocycles import (
    ZERO_COCYCLE,
    Cocycle,
    LatticeReport,
    SectionOnGenerators,
    canonical_section,
)
from heisaut.gl2 import (
    EMPTY_WORD,
    GeneratorWord,
    Gl2Matrix,
    Letter,
    RelatorCheck,
    eval_letters,
)
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
    with pytest.raises(TypeError, match=rf"^matrix must be a Gl2Matrix, "
                                        rf"got {type(matrix).__name__}$"):
        Automorphism(matrix, 0, 0)


def test_automorphism_matrix_checked_before_offsets():
    with pytest.raises(TypeError, match="^matrix must be a Gl2Matrix, got tuple$"):
        Automorphism((1, 0, 0, 1), 1.0, None)


@pytest.mark.parametrize("bad", BAD_VALUES,
                         ids=lambda v: type(v).__name__ + repr(v))
def test_word_exponents(bad):
    with pytest.raises(TypeError, match="^exponent must be an int"):
        GeneratorWord(((Letter.RHO, bad),))
    with pytest.raises(TypeError, match="^exponent must be an int"):
        eval_letters(((Letter.TAU, bad),))


@pytest.mark.parametrize("build", [GeneratorWord, eval_letters],
                         ids=["GeneratorWord", "eval_letters"])
def test_word_text_rejected(build):
    # a str would iterate as characters, each unpacked as a pair
    with pytest.raises(TypeError, match="not a str; .*gl2.parse_word$"):
        build("A B")


@pytest.mark.parametrize("build, name", [
    (GeneratorWord, "letters"),
    (eval_letters, "pairs"),
    (canonical_section().eval_letters, "pairs"),
], ids=["GeneratorWord", "eval_letters", "section-eval_letters"])
@pytest.mark.parametrize("letters", [
    [(Letter.RHO, 1, 2)],
    [(Letter.RHO,)],
    [5],
    b"AB",
    # past gl2._RUN letters, where eval_letters folds in runs
    [(Letter.RHO, 1), (Letter.TAU, 1)] * 20 + [(Letter.KAPPA, 1, 0)],
], ids=["triple", "single", "int", "bytes", "long-word"])
def test_word_letter_shape_rejected(build, name, letters):
    # a letter that does not unpack as (symbol, exponent) is a TypeError
    # naming the parameter, not the interpreter's unpacking error; an
    # iterator is read once, by another route through eval_letters
    for arg in (letters, iter(letters)):
        with pytest.raises(TypeError, match=rf"^{name} must be an iterable of "
                                            r"\(Letter, int\) pairs; "):
            build(arg)


def test_section_eval_letters_checks_its_argument():
    alpha = canonical_section()
    with pytest.raises(TypeError, match="not a str; .*gl2.parse_word$"):
        alpha.eval_letters("A B")
    with pytest.raises(TypeError, match="^pairs must be an iterable of "
                                        r"\(Letter, int\) pairs, got int$"):
        alpha.eval_letters(5)


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
    with pytest.raises(TypeError, match=rf"^{name} must be an {kind}, "
                                        rf"got {type(bad).__name__}$"):
        cls(*args)


def test_section_rejects_bare_matrices():
    with pytest.raises(TypeError, match="^alpha_rho must be an Automorphism, "
                                        "got Gl2Matrix$"):
        SectionOnGenerators(gl2.A, gl2.B, gl2.D)


def test_value_field_subclass_accepted():
    class V(InnerVector):
        pass

    assert Cocycle(V(0, 0), ZERO_VECTOR, ZERO_VECTOR).v_rho.q == 0


def test_section_types_checked_before_projections():
    # alpha_rho projects wrongly, but alpha_tau's type is named first
    with pytest.raises(TypeError, match="^alpha_tau must be an Automorphism, "
                                        "got Gl2Matrix$"):
        SectionOnGenerators(Automorphism(gl2.B, 0, 0), gl2.B, gl2.D)


def _called(node):
    # the name a call calls, bare or as an attribute; None for any other node
    if isinstance(node, ast.Call):
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return None


def test_value_fields_checked_only_through_check_fields():
    # one field rule: every __post_init__ of the package checks its
    # fields' types through heis._check_fields alone, never by its own
    # call of _check_int, _expect or isinstance or a test of type(...)
    through_rule, by_hand = set(), []
    for path in sorted(Path(heis.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for hook in cls.body:
                if not (isinstance(hook, ast.FunctionDef) and hook.name == "__post_init__"):
                    continue
                for node in ast.walk(hook):
                    if _called(node) == "_check_fields":
                        through_rule.add(cls.name)
                    elif _called(node) in ("_check_int", "_expect", "isinstance") or (
                            isinstance(node, ast.Compare)
                            and "type" in map(_called, [node.left, *node.comparators])):
                        by_hand.append(f"{path.name}:{node.lineno}")
    assert by_hand == []
    assert through_rule == {cls.__name__ for cls in VALIDATING} - {"GeneratorWord"}


# ---------------------------------------------------------------------------
# the value-class contract, for every value class of the package

FAILURE = verify.Failure(sample=2, inputs="g=(1,2,3)", expected="(0,0,0)",
                         actual="(0,0,1)")
RESULT = verify.SuiteResult(suite="relations", samples=1, seed=0, elapsed=0.5,
                            failures=(FAILURE,))
# a twist of the canonical section: its kept vector is (3,-2), not zero
TWISTED = dict(alpha_rho=Automorphism(gl2.A, 0, -2),
               alpha_tau=Automorphism(gl2.B, 3, 0),
               alpha_kappa=Automorphism(gl2.D, 0, -7))
M_A = "Gl2Matrix(m11=1, m12=1, m21=0, m22=1)"
M_B = "Gl2Matrix(m11=1, m12=0, m21=-1, m22=1)"
M_D = "Gl2Matrix(m11=-1, m12=0, m21=0, m22=1)"
FAILURE_REPR = ("Failure(sample=2, inputs='g=(1,2,3)', expected='(0,0,0)', "
                "actual='(0,0,1)')")
RESULT_REPR = ("SuiteResult(suite='relations', samples=1, seed=0, "
               f"elapsed=0.5, failures=({FAILURE_REPR},))")

# (class, keyword arguments in field order, exact repr)
VALUES = [
    (HeisElement, dict(a=1, b=-2, c=3), "HeisElement(a=1, b=-2, c=3)"),
    (AbPair, dict(h=4, p=-5), "AbPair(h=4, p=-5)"),
    (Gl2Matrix, dict(m11=1, m12=1, m21=0, m22=1), M_A),
    (GeneratorWord, dict(letters=((Letter.RHO, 2), (Letter.KAPPA, 1))),
     "GeneratorWord(letters=((<Letter.RHO: 'A'>, 2), (<Letter.KAPPA: 'D'>, 1)))"),
    (RelatorCheck, dict(name="kappa^2 = 1", product=gl2.A, ok=False),
     f"RelatorCheck(name='kappa^2 = 1', product={M_A}, ok=False)"),
    (Automorphism, dict(matrix=gl2.D, r=0, u=-1),
     f"Automorphism(matrix={M_D}, r=0, u=-1)"),
    (InnerVector, dict(p=9, q=-10), "InnerVector(p=9, q=-10)"),
    (Cocycle, dict(v_rho=InnerVector(-2, 0), v_tau=InnerVector(0, -3),
                   v_kappa=InnerVector(-6, 0)),
     "Cocycle(v_rho=InnerVector(p=-2, q=0), v_tau=InnerVector(p=0, q=-3), "
     "v_kappa=InnerVector(p=-6, q=0))"),
    (LatticeReport, dict(rank=1, basis=((1, 0),), coboundary_basis=((0, 1),),
                         equals_coboundary_lattice=False),
     "LatticeReport(rank=1, basis=((1, 0),), coboundary_basis=((0, 1),), "
     "equals_coboundary_lattice=False)"),
    (SectionOnGenerators, TWISTED,
     f"SectionOnGenerators(alpha_rho=Automorphism(matrix={M_A}, r=0, u=-2), "
     f"alpha_tau=Automorphism(matrix={M_B}, r=3, u=0), "
     f"alpha_kappa=Automorphism(matrix={M_D}, r=0, u=-7))"),
    (verify.Failure, dict(sample=2, inputs="g=(1,2,3)", expected="(0,0,0)",
                          actual="(0,0,1)"), FAILURE_REPR),
    (verify.SuiteResult, dict(suite="relations", samples=1, seed=0,
                              elapsed=0.5, failures=(FAILURE,)), RESULT_REPR),
    (verify.VerifyReport, dict(seed=0, results=(RESULT,)),
     f"VerifyReport(seed=0, results=({RESULT_REPR},))"),
    (verify._Suite, dict(name="len", fn=len, static=True),
     "_Suite(name='len', fn=<built-in function len>, static=True)"),
]

contract = pytest.mark.parametrize("cls, kwargs, text", VALUES,
                                   ids=[v[0].__name__ for v in VALUES])


@contract
def test_constructor_parameters_are_the_fields(cls, kwargs, text):
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls.__match_args__
    defaults = {name: p.default for name, p in params.items()
                if p.default is not p.empty}
    assert defaults == ({"letters": ()} if cls is GeneratorWord else {})
    assert cls.__init__.__module__ == cls.__module__


@contract
def test_constructor_argument_errors(cls, kwargs, text):
    prefix = f"{cls.__qualname__}.__init__() "
    args = list(kwargs.values())
    calls = [lambda: cls(*args, None), lambda: cls(**kwargs, extra=None)]
    if cls is not GeneratorWord:
        calls.append(lambda: cls(*args[:-1]))
    for call in calls:
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value).startswith(prefix)


def test_subclass_without_fields_keeps_the_constructor():
    class V(InnerVector):
        pass

    assert V.__init__ is InnerVector.__init__
    assert V(1, 2).q == 2


# the classes that validate in __post_init__, which perfbench's tracer
# wraps on the class to count each construction
VALIDATING = (HeisElement, AbPair, Gl2Matrix, GeneratorWord, Automorphism,
              InnerVector, Cocycle, SectionOnGenerators)


HOOKED = [(cls, kwargs) for cls, kwargs, _ in VALUES if cls in VALIDATING]


def test_validating_classes_are_the_ones_with_the_hook():
    hooked = {cls for cls, _, _ in VALUES if hasattr(cls, "__post_init__")}
    assert hooked == set(VALIDATING)


@pytest.mark.parametrize("cls, kwargs", HOOKED,
                         ids=[cls.__name__ for cls, _ in HOOKED])
def test_hook_runs_once_per_construction(cls, kwargs, monkeypatch):
    hook, calls = cls.__post_init__, []

    def counting(self):
        calls.append(self)
        hook(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    first = cls(**kwargs)
    second = cls(*kwargs.values())
    assert len(calls) == 2
    assert calls[0] is first and calls[1] is second


def test_of_is_on_the_generated_classes_with_the_hook():
    # GeneratorWord writes its own __init__ and still gets _of
    built = {cls for cls, _, _ in VALUES if "_of" in vars(cls)}
    assert built == set(VALIDATING)
    assert not any(hasattr(cls, "_of") for cls, _, _ in VALUES
                   if cls not in built)
    assert not hasattr(heis._Value, "_of")


@pytest.mark.unchecked_of
@pytest.mark.parametrize("cls, kwargs", HOOKED,
                         ids=[cls.__name__ for cls, _ in HOOKED])
def test_of_skips_the_hook(cls, kwargs, monkeypatch):
    assert tuple(inspect.signature(cls._of).parameters) == cls.__match_args__
    assert cls._of.__qualname__ == f"{cls.__qualname__}._of"
    expected = cls(**kwargs)
    calls = []
    monkeypatch.setattr(cls, "__post_init__", calls.append)
    for value in (cls._of(**kwargs), cls._of(*kwargs.values())):
        assert type(value) is cls
        assert value == expected
        assert repr(value) == repr(expected)
    assert calls == []


@pytest.mark.unchecked_of
@pytest.mark.parametrize("cls, kwargs", HOOKED,
                         ids=[cls.__name__ for cls, _ in HOOKED])
def test_of_builds_the_subclass_it_is_called_on(cls, kwargs):
    class V(cls):
        __slots__ = ()

    value = V._of(**kwargs)
    assert type(value) is V
    assert fields(value) == fields(cls(**kwargs))
    assert value == V(**kwargs)


@contract
def test_keyword_construction_and_repr(cls, kwargs, text):
    value = cls(**kwargs)
    assert value == cls(*kwargs.values())
    assert repr(value) == text
    assert cls.__match_args__ == tuple(kwargs)


@contract
def test_equal_values_hash_equally(cls, kwargs, text):
    assert hash(cls(**kwargs)) == hash(cls(*kwargs.values()))


@contract
def test_pickle_and_copy_round_trip(cls, kwargs, text):
    value = cls(**kwargs)
    for restored in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
        assert type(restored) is cls
        assert restored == value
        assert repr(restored) == text


@contract
def test_fields_are_frozen(cls, kwargs, text):
    value = cls(**kwargs)
    for name, field in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is not None
    assert not hasattr(value, "__dict__")


def test_section_keeps_its_vector_through_pickle_and_copy():
    section = SectionOnGenerators(**TWISTED)
    assert section._a == InnerVector(3, -2)
    for restored in (pickle.loads(pickle.dumps(section)), copy.copy(section),
                     copy.deepcopy(section)):
        assert restored._a == InnerVector(3, -2)


def test_equality_is_per_class():
    assert InnerVector(1, 2) != AbPair(1, 2)
    assert AbPair(1, 2) != InnerVector(1, 2)
    assert InnerVector(1, 2) != (1, 2)
    assert (1, 2) != InnerVector(1, 2)
    assert InnerVector(1, 2).__eq__(AbPair(1, 2)) is NotImplemented


def fields(value):
    return tuple(getattr(value, name) for name in value.__match_args__)


def with_fields(cls, values):
    # a value of cls holding exactly these fields, built without __init__
    # or its hook, so any field may hold anything
    value = object.__new__(cls)
    for name, field in zip(cls.__match_args__, values):
        getattr(cls, name).__set__(value, field)
    return value


@contract
def test_equality_compares_the_field_tuples(cls, kwargs, text):
    value = cls(**kwargs)
    for i, field in enumerate(fields(value)):
        # a foreign object, and an equal field of another type where there is one
        for other_field in (object(), *([float(field)] if type(field) is int else [])):
            changed = list(fields(value))
            changed[i] = other_field
            other = with_fields(cls, changed)
            same = fields(value) == fields(other)
            assert (value == other) is same and (other == value) is same
            assert (value != other) is not same
            if same:
                assert hash(value) == hash(other)


@contract
def test_equal_values_need_not_share_their_fields(cls, kwargs, text):
    # deepcopy rebuilds every nested value, so the fields are equal, not
    # identical, wherever a field is a value
    value, twin = cls(**kwargs), cls(**copy.deepcopy(kwargs))
    assert value == twin and twin == value and not value != twin
    assert hash(value) == hash(twin)
    for name, field in kwargs.items():
        if isinstance(field, heis._Value):
            assert getattr(value, name) is not getattr(twin, name)


def test_equality_keeps_the_identity_shortcut_of_tuples():
    nan = float("nan")
    result = verify.SuiteResult("relations", 1, 0, nan, ())
    assert result == verify.SuiteResult("relations", 1, 0, nan, ())
    assert result != verify.SuiteResult("relations", 1, 0, float("nan"), ())


@contract
def test_a_subclass_value_is_unequal_both_ways(cls, kwargs, text):
    class V(cls):
        __slots__ = ()

    value, sub = cls(**kwargs), V(**kwargs)
    assert type(sub) is V and fields(sub) == fields(value)
    assert value != sub and sub != value
    assert not value == sub and not sub == value


# (operator, a value, an operand of a foreign type)
FOREIGN_OPERANDS = [
    (operator.mul, HeisElement(1, 2, 3), 5),
    (operator.mul, HeisElement(1, 2, 3), (1, 2, 3)),
    (operator.add, AbPair(1, 2), (1, 2)),
    (operator.add, AbPair(1, 2), InnerVector(1, 2)),
    (operator.mul, gl2.A, 3),
    (operator.mul, gl2.A, Automorphism(gl2.A, 0, 0)),
    (operator.mul, EMPTY_WORD, "A"),
    (operator.mul, Automorphism(gl2.A, 0, 0), gl2.A),
    (operator.add, InnerVector(1, 2), (1, 2)),
    (operator.add, InnerVector(1, 2), AbPair(1, 2)),
    (operator.sub, InnerVector(1, 2), (1, 2)),
    (operator.add, Cocycle(ZERO_VECTOR, ZERO_VECTOR, ZERO_VECTOR), 0),
    (operator.sub, Cocycle(ZERO_VECTOR, ZERO_VECTOR, ZERO_VECTOR), ZERO_VECTOR),
]


@pytest.mark.parametrize(
    "op, value, other", FOREIGN_OPERANDS,
    ids=[f"{type(v).__name__}{op.__name__}{type(o).__name__}"
         for op, v, o in FOREIGN_OPERANDS])
def test_foreign_operand_is_unsupported(op, value, other):
    # a str or tuple operand then tries its own repetition, which refuses
    # a non-int with a TypeError of its own
    with pytest.raises(TypeError,
                       match="^(unsupported operand type|can't multiply sequence)"):
        op(value, other)


# (library call, its arguments with one of a foreign type, the message)
FOREIGN_ARGUMENTS = [
    pytest.param(aut.apply, (aut.rd(1), 5), "g must be a HeisElement, got int",
                 id="apply-int"),
    pytest.param(aut.apply, (aut.rd(1), (0, 1, 0)),
                 "g must be a HeisElement, got tuple", id="apply-tuple"),
    pytest.param(aut.apply, (gl2.A, HeisElement(0, 1, 0)),
                 "omega must be an Automorphism, got Gl2Matrix",
                 id="apply-matrix"),
    pytest.param(aut.rd(1), (AbPair(0, 1),),
                 "g must be a HeisElement, got AbPair", id="call-AbPair"),
    pytest.param(aut.act, (gl2.A, (1, 2)),
                 "v must be an InnerVector, got tuple", id="act-tuple"),
    pytest.param(aut.act, (gl2.A, AbPair(1, 2)),
                 "v must be an InnerVector, got AbPair", id="act-AbPair"),
    pytest.param(aut.act, ((1, 1, 0, 1), ZERO_VECTOR),
                 "m must be a Gl2Matrix, got tuple", id="act-matrix-tuple"),
    pytest.param(gl2.eval_word, ("A B",), "w must be a GeneratorWord, got str",
                 id="eval_word-str"),
    pytest.param(gl2.eval_word, (((Letter.RHO, 1),),),
                 "w must be a GeneratorWord, got tuple", id="eval_word-tuple"),
    pytest.param(cocycles.extend, (ZERO_COCYCLE, gl2.A),
                 "w must be a GeneratorWord, got Gl2Matrix",
                 id="extend-matrix"),
    pytest.param(heis.multiply, (heis.X, 5), "g2 must be a HeisElement, got int",
                 id="multiply-int"),
    pytest.param(heis.multiply, ((1, 0, 0), heis.X),
                 "g1 must be a HeisElement, got tuple", id="multiply-tuple"),
    pytest.param(heis.inverse, ((1, 2, 3),), "g must be a HeisElement, got tuple",
                 id="inverse-tuple"),
    pytest.param(heis.power, (AbPair(1, 2), 3),
                 "g must be a HeisElement, got AbPair", id="power-AbPair"),
    pytest.param(gl2.mat_multiply, (gl2.A, 5), "m2 must be a Gl2Matrix, got int",
                 id="mat_multiply-int"),
    pytest.param(gl2.mat_multiply, ((1, 0, 0, 1), gl2.A),
                 "m1 must be a Gl2Matrix, got tuple", id="mat_multiply-tuple"),
    pytest.param(gl2.mat_inverse, ((1, 0, 0, 1),),
                 "m must be a Gl2Matrix, got tuple", id="mat_inverse-tuple"),
    pytest.param(aut.compose, (aut.rd(1), 5),
                 "omega1 must be an Automorphism, got int", id="compose-int"),
    pytest.param(aut.compose, (gl2.A, aut.rd(1)),
                 "omega2 must be an Automorphism, got Gl2Matrix",
                 id="compose-matrix"),
    pytest.param(aut.invert, (gl2.A,),
                 "omega must be an Automorphism, got Gl2Matrix", id="invert-matrix"),
    pytest.param(aut.power, (gl2.A, 2),
                 "omega must be an Automorphism, got Gl2Matrix", id="power-matrix"),
    pytest.param(aut.normal_form, (5,), "omega must be an Automorphism, got int",
                 id="normal_form-int"),
    pytest.param(aut.inner, ((1, 2),), "v must be an InnerVector, got tuple",
                 id="inner-tuple"),
    pytest.param(aut.inner, (P(1.5, 2),), "v must be an InnerVector, got P",
                 id="inner-duck"),
    pytest.param(aut.section, ((1, 0, 0, 1),), "m must be a Gl2Matrix, got tuple",
                 id="section-tuple"),
    pytest.param(gl2.decompose, ((1, 0, 0, 1),), "m must be a Gl2Matrix, got tuple",
                 id="decompose-tuple"),
    pytest.param(gl2.format_word, ("A B",), "w must be a GeneratorWord, got str",
                 id="format_word-str"),
    pytest.param(cocycles.extend, ((0, 0), EMPTY_WORD),
                 "phi must be a Cocycle, got tuple", id="extend-tuple"),
    pytest.param(cocycles.solve_coboundary, ((0, 0),),
                 "phi must be a Cocycle, got tuple", id="solve_coboundary-tuple"),
    *(pytest.param(parse, (5,), "text must be a str, got int",
                   id=f"{parse.__name__}-int")
      for parse in (heis.parse_element, gl2.parse_matrix, gl2.parse_word,
                    aut.parse_pair, aut.parse_automorphism,
                    cocycles.parse_cocycle, cocycles.parse_section)),
]


@pytest.mark.parametrize("fn, args, message", FOREIGN_ARGUMENTS)
def test_foreign_argument_is_a_type_error(fn, args, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        fn(*args)


def test_argument_subclass_accepted():
    class H(HeisElement):
        pass

    class V(InnerVector):
        pass

    class W(GeneratorWord):
        pass

    class O(Automorphism):
        pass

    class M(Gl2Matrix):
        pass

    omega = aut.rd(1)
    assert omega(H(0, 1, 0)) == omega(HeisElement(0, 1, 0))
    assert aut.act(gl2.A, V(1, 2)) == InnerVector(3, 2)
    assert gl2.eval_word(W(((Letter.RHO, 1),))) == gl2.A
    assert aut.compose(O(gl2.A, 1, 2), omega) == aut.compose(
        Automorphism(gl2.A, 1, 2), omega)
    assert aut.section(M(1, 1, 0, 1)) == Automorphism(M(1, 1, 0, 1), 0, 0)


def test_operand_subclass_accepted():
    class V(InnerVector):
        pass

    class H(HeisElement):
        pass

    assert InnerVector(1, 2) + V(3, 4) == InnerVector(4, 6)
    assert InnerVector(1, 2) - V(3, 4) == InnerVector(-2, -2)
    assert HeisElement(1, 0, 0) * H(0, 1, 0) == HeisElement(1, 1, 1)


# One valid value per parameter annotation of the public API.  A public
# function with a parameter type missing here fails the walk below with
# a KeyError, so a new function is covered once its types are listed.
VALID_BY_ANNOTATION = {
    "HeisElement": heis.X,
    "int": 3,
    "str": "(1,2,3)",
    "Gl2Matrix": gl2.A,
    "GeneratorWord": gl2.parse_word("A B"),
    "Sequence[LetterPair]": ((Letter.RHO, 1),),
    "Automorphism": aut.rd(1),
    "InnerVector": InnerVector(1, 2),
    "Cocycle": ZERO_COCYCLE,
    "LatticeReport": cocycles.cocycle_lattice(),
    "SectionOnGenerators": canonical_section(),
    "Sequence[int]": (1, 2),
    "Sequence[Sequence[int]]": [(1, 0), (0, 1)],
}


def _public_parameters():
    for mod in (heis, gl2, aut, cocycles, zlattice):
        for name, fn in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            required = [p for p in inspect.signature(fn).parameters.values()
                        if p.default is p.empty]
            for param in required:
                yield pytest.param(fn, required, param.name,
                                   id=f"{mod.__name__.split('.')[-1]}.{name}-{param.name}")


@pytest.mark.parametrize("fn, required, name", list(_public_parameters()))
def test_foreign_argument_names_its_parameter(fn, required, name):
    args = [object() if p.name == name else VALID_BY_ANNOTATION[p.annotation]
            for p in required]
    with pytest.raises(TypeError, match=f"^{name} must be "):
        fn(*args)


@pytest.mark.unchecked_of
@contract
def test_generated_code_names_its_class(cls, kwargs, text):
    # tracebacks and profiles tell the generated functions apart by it;
    # GeneratorWord writes its own __init__ and gets only __eq__
    filename = f"<{cls.__module__}.{cls.__qualname__}>"
    assert cls.__eq__.__code__.co_filename == filename
    assert cls.__eq__.__qualname__ == f"{cls.__qualname__}.__eq__"
    assert (cls.__init__.__code__.co_filename == filename) is (cls is not GeneratorWord)
    if "_of" in vars(cls):
        assert cls._of.__code__.co_filename == filename
