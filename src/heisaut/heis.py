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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ._backend import kernels


def _check_int(value: object, name: str) -> None:
    # bool is an int subclass; reject it so True never sneaks in as 1.
    # Value constructors call this only when some field fails the
    # `type(x) is int` fast path, so plain ints are checked once.
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class HeisElement:
    """A group element (a, b, c).  Any integer triple is valid."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if not (type(a) is int and type(b) is int and type(c) is int):
            _check_int(a, "a")
            _check_int(b, "b")
            _check_int(c, "c")

    def __mul__(self, other: "HeisElement") -> "HeisElement":
        return multiply(self, other)

    def __pow__(self, n: int) -> "HeisElement":
        return power(self, n)

    def inverse(self) -> "HeisElement":
        return inverse(self)

    def __str__(self) -> str:
        return format_element(self)


@dataclass(frozen=True, slots=True)
class AbPair:
    """An element of the abelianization Z + Z, the image of lambda."""

    h: int
    p: int

    def __post_init__(self) -> None:
        h, p = self.h, self.p
        if not (type(h) is int and type(p) is int):
            _check_int(h, "h")
            _check_int(p, "p")

    def __add__(self, other: "AbPair") -> "AbPair":
        return AbPair(self.h + other.h, self.p + other.p)

    def __neg__(self) -> "AbPair":
        return AbPair(-self.h, -self.p)

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
    return HeisElement(*kernels.heis_mul(g1.a, g1.b, g1.c, g2.a, g2.b, g2.c))


def inverse(g: HeisElement) -> HeisElement:
    """The unique h with g*h = h*g = identity: (-a, -b, ab - c).

    >>> str(inverse(HeisElement(1, 1, 0)))
    '(-1,-1,1)'
    """
    return HeisElement(*kernels.heis_inv(g.a, g.b, g.c))


def power(g: HeisElement, n: int) -> HeisElement:
    """n-th power, any integer n: (na, nb, nc + (n(n-1)/2)*ab).

    n(n-1) is always even, so the division is exact.

    >>> str(power(HeisElement(1, 1, 0), 2))
    '(2,2,1)'
    >>> str(power(Y, -1))
    '(0,-1,0)'
    """
    _check_int(n, "n")
    return HeisElement(*kernels.heis_pow(g.a, g.b, g.c, n))


def commutator(g1: HeisElement, g2: HeisElement) -> HeisElement:
    """g1 * g2 * g1^-1 * g2^-1, which is always central: (0, 0, a1*b2 - a2*b1).

    >>> str(commutator(X, Y))
    '(0,0,1)'
    """
    # Expanding the group law collapses everything but the corner entry.
    return HeisElement(0, 0, g1.a * g2.b - g2.a * g1.b)


def lambda_project(g: HeisElement) -> AbPair:
    """Abelianization (a, b, c) -> (a, b); kernel is exactly the center.

    >>> str(lambda_project(HeisElement(3, -2, 9)))
    '(3,-2)'
    """
    return AbPair(g.a, g.b)


def is_central(g: HeisElement) -> bool:
    """True iff g commutes with everything, i.e. a = b = 0.

    >>> is_central(HeisElement(0, 0, -4))
    True
    >>> is_central(HeisElement(1, 0, 5))
    False
    """
    return g.a == 0 and g.b == 0


# The integer grammar of every value syntax and of the CLI's integer
# arguments, as one capturing group.  int() alone would also read
# underscores, a plus sign, surrounding space and non-ASCII digits.
_INT = r"(-?[0-9]+)"

_ELEMENT_RE = re.compile(rf"\(\s*{_INT}\s*,\s*{_INT}\s*,\s*{_INT}\s*\)")


def parse_element(text: str) -> HeisElement:
    """Parse "(a,b,c)" with optional whitespace.

    >>> parse_element(" ( 1, -2,3 ) ") == HeisElement(1, -2, 3)
    True
    """
    m = _ELEMENT_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not an element triple '(a,b,c)': {text!r}")
    return HeisElement(int(m.group(1)), int(m.group(2)), int(m.group(3)))


def format_element(g: HeisElement) -> str:
    """Inverse of parse_element, canonical form with no spaces."""
    return f"({g.a},{g.b},{g.c})"
