"""Exact arithmetic in the discrete Heisenberg group.

Elements are integer triples (a, b, c) with the group law

    (a1, b1, c1) * (a2, b2, c2) = (a1 + a2, b1 + b2, c1 + c2 + a1*b2),

the upper-triangular matrix group [[1, a, c], [0, 1, b], [0, 0, 1]]
in coordinates.  With the generators x = (1,0,0), y = (0,1,0),
z = (0,0,1) every element factors as

    (a, b, c) = z^c * y^b * x^a

and the triple reads off directly.  Beware the order: y^b * x^a is
(a, b, 0) while x^a * y^b is (a, b, ab).  This convention is fixed
library-wide.

All coordinates are plain Python ints, so arithmetic is exact at any
size.  Values are immutable and safe to share between threads.

Every value class of the package (HeisElement, AbPair, and those of gl2,
aut, cocycles and verify) derives from the private base _Value.  A class
declares its fields in __match_args__, its own __slots__, and an optional
__post_init__ where it validates; it checks its fields' types there
through _check_fields and nowhere else.  The base writes the constructor: an
__init__ over the fields, in order, that sets each one through its
slot's setter, bound into the generated code when the class is made,
and then calls self.__post_init__() if the class has that hook.  The
hook is looked up on the class at each call, so perfbench's tracer can
wrap it there to count validations.  The base also adds what a frozen
dataclass would: == over the fields, generated per class as one tuple
comparison and for the same class only, hash over the fields, a repr
Name(field=value, ...), pickling and copying through the constructor
(so an unpickled value is checked again), and AttributeError on
assigning or deleting a field.

A class with a __post_init__ also gets a private classmethod _of over
the same fields, which sets them and skips the hook.  This is the one
statement of the rule for calling it, which the rest of the package
points to: only library code that builds a value from values already
checked calls _of, and each call carries a one-line proof beside it,
in its function's docstring or a comment, that the value meets the
class's check by construction (a product of valid matrices is valid,
say).  The rule covers verify's samplers too: they build from the ints
they draw and from the det +-1 column operations they fold.  Such a
function first checks the type of each value argument with _expect, so
a foreign argument raises TypeError naming the parameter instead of
coming back inside a value no constructor would accept.
tests/checked_of.py re-runs the check on every _of build, in
the tests under HEISAUT_CHECK_OF=1 and in tools/checked_verify.py, and
tests/test_unchecked.py rebuilds each such result through its
validating constructor at 5000-bit operands.  Public constructors,
parse_* and unpickling always validate.
"""

from __future__ import annotations

import re
from operator import attrgetter


def _check_int(value: object, name: str) -> None:
    # bool is an int subclass; reject it so True never sneaks in as 1.
    # Value constructors reach this only through _check_fields, for a
    # field that is not a plain int.
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _expect(value: object, cls: type, name: str) -> None:
    # the boundary check of a function that builds its result with _of
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{name} must be {article} {cls.__name__}, "
                        f"got {type(value).__name__}")


def _check_fields(value: object, names: tuple[str, ...], cls: type = int) -> None:
    # The one field rule of the value classes, called from __post_init__:
    # each named field, in order, must be a cls.  A field of type cls
    # exactly passes at once; any other goes to _check_int for int
    # fields (so an int subclass passes and bool does not) and to
    # _expect for class fields (so a subclass passes), which raise.
    for name in names:
        field = getattr(value, name)
        if type(field) is not cls:
            if cls is int:
                _check_int(field, name)
            else:
                _expect(field, cls, name)


class _Value:
    """Immutable value over the fields named in ``__match_args__``.

    A subclass that declares ``__match_args__`` and writes no ``__init__``
    gets one with exactly those parameters, generated from source as
    dataclasses does: a generic ``*args`` constructor costs about twice
    as much per value, and value construction dominates verify.  It sets
    each field through the slot's ``__set__``, bound when the class is
    made, not through ``object.__setattr__``, which looks the name up on
    every call.  A subclass that declares no fields keeps its parent's
    ``__init__``.

    Every class that declares ``__match_args__`` gets ``__eq__`` from
    the same generated source, one comparison of two field tuples, even
    when it writes its own ``__init__``.  ``__hash__`` stays here.

    A class with a ``__post_init__`` also gets ``_of``, a classmethod
    with the same parameters that builds the value without running the
    hook, even when it writes its own ``__init__``.  Who may call it,
    and how each call is proved and re-checked, is stated once, in the
    module docstring.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__match_args__
        # the fields in one C call, for hash
        cls._fields = attrgetter(*fields)
        if "__match_args__" in vars(cls):
            _make_methods(cls, fields, init="__init__" not in vars(cls))

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name)
                                     for name in self.__match_args__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _make_methods(cls: type, fields: tuple[str, ...], init: bool) -> None:
    params = ", ".join(fields)
    mine = ", ".join(f"self.{name}" for name in fields)
    theirs = ", ".join(f"other.{name}" for name in fields)
    # the trailing commas make a one-field tuple
    source = ("def __eq__(self, other):\n"
              "    if other.__class__ is self.__class__:\n"
              f"        return ({mine},) == ({theirs},)\n"
              "    return NotImplemented\n")
    # each field is set by its slot's own setter, bound once here: it
    # skips the name lookup of object.__setattr__ on every call
    sets = "".join(f"    _set_{name}(self, {name})\n" for name in fields)
    hooked = hasattr(cls, "__post_init__")
    if init:
        source += f"def __init__(self, {params}):\n{sets}"
        if hooked:
            source += "    self.__post_init__()\n"
    if hooked:
        source += f"def _of(cls, {params}):\n    self = _new(cls)\n{sets}    return self\n"
    # __name__ makes the functions' __module__ the class's, and the
    # filename names the class in tracebacks and profiles
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in fields}
    namespace.update(_new=object.__new__, __name__=cls.__module__)
    # all functions in one exec, which has a fixed cost per call
    exec(compile(source, f"<{cls.__module__}.{cls.__qualname__}>", "exec"), namespace)
    for name in ("__eq__", "__init__", "_of"):
        if name in namespace:
            function = namespace[name]
            # TypeError messages name a function by it: "HeisElement.__init__()"
            function.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, classmethod(function) if name == "_of" else function)


class HeisElement(_Value):
    """A group element (a, b, c).  Any integer triple is valid."""

    __match_args__ = ("a", "b", "c")
    __slots__ = __match_args__

    def __post_init__(self) -> None:
        _check_fields(self, self.__match_args__)

    def __mul__(self, other: "HeisElement") -> "HeisElement":
        if not isinstance(other, HeisElement):
            return NotImplemented
        return multiply(self, other)

    def __pow__(self, n: int) -> "HeisElement":
        return power(self, n)

    def inverse(self) -> "HeisElement":
        return inverse(self)

    def __str__(self) -> str:
        return format_element(self)


class AbPair(_Value):
    """An element of the abelianization Z + Z, the image of lambda."""

    __match_args__ = ("h", "p")
    __slots__ = __match_args__

    def __post_init__(self) -> None:
        _check_fields(self, self.__match_args__)

    # sums and negatives of int pairs are int pairs

    def __add__(self, other: "AbPair") -> "AbPair":
        if not isinstance(other, AbPair):
            return NotImplemented
        return AbPair._of(self.h + other.h, self.p + other.p)

    def __neg__(self) -> "AbPair":
        return AbPair._of(-self.h, -self.p)

    def __str__(self) -> str:
        return f"({self.h},{self.p})"


IDENTITY = HeisElement(0, 0, 0)
X = HeisElement(1, 0, 0)
Y = HeisElement(0, 1, 0)
Z = HeisElement(0, 0, 1)


def multiply(g1: HeisElement, g2: HeisElement) -> HeisElement:
    """Product under the group law.

    >>> str(multiply(HeisElement(2, 0, 0), HeisElement(0, 3, 0)))
    '(2,3,6)'
    >>> str(multiply(X, Y))
    '(1,1,1)'
    """
    # the group law of the module docstring; any integer triple is valid
    _expect(g1, HeisElement, "g1")
    _expect(g2, HeisElement, "g2")
    a1, b2 = g1.a, g2.b
    return HeisElement._of(a1 + g2.a, g1.b + b2, g1.c + g2.c + a1 * b2)


def inverse(g: HeisElement) -> HeisElement:
    """The unique h with g*h = h*g = identity: (-a, -b, ab - c).

    >>> str(inverse(HeisElement(1, 1, 0)))
    '(-1,-1,1)'
    """
    _expect(g, HeisElement, "g")
    a, b = g.a, g.b
    return HeisElement._of(-a, -b, a * b - g.c)


def power(g: HeisElement, n: int) -> HeisElement:
    """n-th power, any integer n: (na, nb, nc + (n(n-1)/2)*ab).

    With (P, Q) = (na, nb), the c-coordinate is nc + P*(Q - b)/2:
    P*(Q - b) = na*(n - 1)b = n(n-1)*ab, so it reuses the image's
    coordinates, and n(n-1) is always even, so the division is exact.

    >>> str(power(HeisElement(1, 1, 0), 2))
    '(2,2,1)'
    >>> str(power(Y, -1))
    '(0,-1,0)'
    """
    _expect(g, HeisElement, "g")
    _check_int(n, "n")
    p, q = n * g.a, n * g.b
    return HeisElement._of(p, q, n * g.c + (p * (q - g.b) >> 1))


def commutator(g1: HeisElement, g2: HeisElement) -> HeisElement:
    """g1 * g2 * g1^-1 * g2^-1, which is always central: (0, 0, a1*b2 - a2*b1).

    >>> str(commutator(X, Y))
    '(0,0,1)'
    """
    # Expanding the group law collapses everything but the corner entry;
    # any integer triple is valid.
    _expect(g1, HeisElement, "g1")
    _expect(g2, HeisElement, "g2")
    return HeisElement._of(0, 0, g1.a * g2.b - g2.a * g1.b)


def lambda_project(g: HeisElement) -> AbPair:
    """Abelianization (a, b, c) -> (a, b); kernel is exactly the center.

    >>> str(lambda_project(HeisElement(3, -2, 9)))
    '(3,-2)'
    """
    # a valid element has int coordinates
    _expect(g, HeisElement, "g")
    return AbPair._of(g.a, g.b)


def is_central(g: HeisElement) -> bool:
    """True iff g commutes with everything, i.e. a = b = 0.

    >>> is_central(HeisElement(0, 0, -4))
    True
    >>> is_central(HeisElement(1, 0, 5))
    False
    """
    _expect(g, HeisElement, "g")
    return g.a == 0 and g.b == 0


# The integer grammar of every value syntax and of the CLI's integer
# arguments, as one capturing group.  int() alone would also read
# underscores, a plus sign, surrounding space and non-ASCII digits.
_INT = r"(-?[0-9]+)"


def _read(pattern: re.Pattern[str], text: str, shape: str) -> re.Match[str]:
    # The one rule of the value syntaxes that parse_* read: the text must
    # be a str, surrounding space is ignored, and the rest must match
    # pattern whole, else ValueError "not <shape>: <text>".  Each parser
    # keeps only the conversion of the groups.  parse_word keeps its own
    # rule, one match per space-separated token with a message that names
    # the token, and so does cli.integer: it strips nothing, and argparse
    # writes its message.
    _expect(text, str, "text")
    m = pattern.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not {shape}: {text!r}")
    return m


_ELEMENT_RE = re.compile(rf"\(\s*{_INT}\s*,\s*{_INT}\s*,\s*{_INT}\s*\)")


def parse_element(text: str) -> HeisElement:
    """Parse "(a,b,c)" with optional whitespace.

    >>> parse_element(" ( 1, -2,3 ) ") == HeisElement(1, -2, 3)
    True
    """
    m = _read(_ELEMENT_RE, text, "an element triple '(a,b,c)'")
    return HeisElement(int(m.group(1)), int(m.group(2)), int(m.group(3)))


def format_element(g: HeisElement) -> str:
    """Inverse of parse_element, canonical form with no spaces."""
    _expect(g, HeisElement, "g")
    return f"({g.a},{g.b},{g.c})"
