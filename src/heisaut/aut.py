"""The automorphism group of the discrete Heisenberg group.

An automorphism is determined by where it sends the generators x and
y, because x and y generate the group.  The canonical data is a matrix
M in GL(2,Z) together with two center offsets r, u:

    omega(x) = (m11, m21, r)
    omega(y) = (m12, m22, u)
    omega(z) = (0, 0, det M)

M is the matrix induced on the abelianization Z + Z, i.e. the image of
omega under the projection Aut(G) -> GL(2,Z).  Conversely every such
triple (M, r, u) is an automorphism, so equality of automorphisms is
just equality of data.

The projection splits: section() sends a matrix to an automorphism by
a closed form in its entries, the unique homomorphism that sends the
generators A, B, D to fixed generator images.  The kernel of the
projection is the inner automorphisms, identified with Z + Z by
inner(); every automorphism factors uniquely as inner(v) composed with
section(M), so Aut(G) is the semidirect product Z^2 x| GL(2,Z).

normal_form() finds that factorization in closed form.  M is the
projection; inner(v) o section(M) moves the two center offsets of
section(M) by (p*m21 - q*m11, p*m22 - q*m12), a linear system in
v = (p, q) with determinant det M = +-1, so v is one 2x2 unimodular
solve (the proof is in normal_form's docstring).  power() works through
that factorization instead of composing bit by bit, and takes M^n and
S_n v by the conjugacy type of M: O(1) big-int operations for parabolic
M (every rd(d)) and finite-order M, O(log n) only for hyperbolic M.

apply(), compose() and invert() share one formula for a center offset,
the c-coordinate omega gives (a, b, 0).  They build it from the column
products that the image is made of, proved in apply's docstring: with
(P1, Q1) = a (m11, m21) and (P2, Q2) = b (m12, m22), the image is
(P1 + P2, Q1 + Q2) and the offset is

    a*r + b*u + (P1*(Q1 - m21) + P2*(Q2 - m22 + 2*Q1)) / 2.

compose takes the eight products of N's entries with M's as both the
entries of N*M and its offsets.  invert's offsets follow from the same
form in closed form, with no det M in them (proved in its docstring).

The formulas multiply by det M = +-1, which gl2._unit_det reads from
the entries mod 4 instead of from the two entry-sized products of
m11*m22 - m12*m21 (the proof is in its docstring).

compose and invert run on the plain-int data (m11, m12, m21, m22, r, u)
of an automorphism, in the private cores _compose_data and _invert_data.
The word folds (_compose_power and SectionOnGenerators.eval_letters,
both through _product_of_powers) fold that data through the same cores
and build one value at the end; they stay "compose only", independent
of section() and power().
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from . import gl2
from .gl2 import Gl2Matrix, _power_by_type, _unit_det
from .heis import _INT, HeisElement, _check_fields, _check_int, _expect, _read, _Value


class Automorphism(_Value):
    """Automorphism data (M, r, u); see the module docstring."""

    __match_args__ = ("matrix", "r", "u")
    __slots__ = __match_args__

    def __post_init__(self) -> None:
        _check_fields(self, ("matrix",), Gl2Matrix)
        _check_fields(self, ("r", "u"))

    def __call__(self, g: HeisElement) -> HeisElement:
        return apply(self, g)

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        if not isinstance(other, Automorphism):
            return NotImplemented
        return compose(self, other)

    def __pow__(self, n: int) -> "Automorphism":
        return power(self, n)

    def __str__(self) -> str:
        return format_automorphism(self)


class InnerVector(_Value):
    """The class of (p, q, 0) in G modulo its center, i.e. a pair in Z + Z."""

    __match_args__ = ("p", "q")
    __slots__ = __match_args__

    def __post_init__(self) -> None:
        _check_fields(self, self.__match_args__)

    # sums, differences and negatives of int pairs are int pairs

    def __add__(self, other: "InnerVector") -> "InnerVector":
        if not isinstance(other, InnerVector):
            return NotImplemented
        return InnerVector._of(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "InnerVector") -> "InnerVector":
        if not isinstance(other, InnerVector):
            return NotImplemented
        return InnerVector._of(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "InnerVector":
        return InnerVector._of(-self.p, -self.q)

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


IDENTITY_AUT = Automorphism(gl2.IDENTITY, 0, 0)

ZERO_VECTOR = InnerVector(0, 0)


def act(m: Gl2Matrix, v: InnerVector) -> InnerVector:
    """The natural GL(2,Z) action on Z + Z: matrix times column vector."""
    # an int matrix times an int vector is an int vector
    _expect(m, Gl2Matrix, "m")
    _expect(v, InnerVector, "v")
    return InnerVector._of(m.m11 * v.p + m.m12 * v.q, m.m21 * v.p + m.m22 * v.q)


def apply(omega: Automorphism, g: HeisElement) -> HeisElement:
    """omega(g), computed by the closed form

        (P, Q, det*c + t),  (P, Q) = M (a, b),
        t = a*r + b*u + C(a,2)*m11*m21 + C(b,2)*m12*m22 + a*b*m12*m21,

    which is the expansion of omega(z)^c * omega(y)^b * omega(x)^a;
    every integer triple is an element.  The image and t are built from
    the column products P1 = a*m11, Q1 = a*m21, P2 = b*m12, Q2 = b*m22:
    (P, Q) = (P1 + P2, Q1 + Q2) and

        t = a*r + b*u + (P1*(Q1 - m21) + P2*(Q2 - m22 + 2*Q1)) / 2.

    Proof.  P1*(Q1 - m21) = a*(a - 1)*m11*m21 = 2*C(a,2)*m11*m21,
    P2*(Q2 - m22) = 2*C(b,2)*m12*m22 and 2*P2*Q1 = 2*a*b*m12*m21, so the
    bracket is twice the C(a,2) terms of t.  Both of its summands are
    even, as a*(a - 1) and b*(b - 1) are, so the division is exact.

    >>> str(apply(section(gl2.A), HeisElement(1, -1, 0)))
    '(0,-1,1)'
    >>> str(apply(section(gl2.D), HeisElement(1, 1, -1)))
    '(-1,1,0)'
    """
    _expect(omega, Automorphism, "omega")
    _expect(g, HeisElement, "g")
    m = omega.matrix
    m11, m12, m21, m22 = m.m11, m.m12, m.m21, m.m22
    a, b = g.a, g.b
    p1, q1, p2, q2 = a * m11, a * m21, b * m12, b * m22
    return HeisElement._of(p1 + p2, q1 + q2, _unit_det(m11, m12, m21, m22) * g.c
                           + a * omega.r + b * omega.u
                           + (p1 * (q1 - m21) + p2 * (q2 - m22 + 2 * q1) >> 1))


def compose(omega2: Automorphism, omega1: Automorphism) -> Automorphism:
    """The automorphism g -> omega2(omega1(g)); matrix part is N*M for
    N = M2 and M = M1.

    Its offsets are omega2 applied to omega1's generator images: the
    c-coordinate of omega2((m11, m21, r1)) is det N * r1 plus the
    offset t that apply() gives for (a, b) = (m11, m21), and likewise
    for y with (m12, m22).  In apply's column-product form for that
    (a, b), P1 + P2 and Q1 + Q2 are the matching column of N*M, so the
    eight products of N's entries with M's give both the entries of N*M
    and both offsets.  N*M has det +-1, and any integer offsets make an
    automorphism.  The formula runs on the plain-int data in
    _compose_data, the core the word folds share.

    >>> compose(IDENTITY_AUT, rd(7)) == rd(7)
    True
    """
    _expect(omega2, Automorphism, "omega2")
    _expect(omega1, Automorphism, "omega1")
    return _of_data(_compose_data(_data(omega2), _data(omega1)))


_IDENTITY_DATA = (1, 0, 0, 1, 0, 0)


def _data(omega: Automorphism) -> tuple[int, ...]:
    m = omega.matrix
    return m.m11, m.m12, m.m21, m.m22, omega.r, omega.u


def _of_data(t: tuple[int, ...]) -> Automorphism:
    # the data comes from valid automorphisms through _compose_data and
    # _invert_data, whose results are automorphisms (see compose, invert)
    m11, m12, m21, m22, r, u = t
    return Automorphism._of(Gl2Matrix._of(m11, m12, m21, m22), r, u)


def _compose_data(n: tuple[int, ...], m: tuple[int, ...]) -> tuple[int, ...]:
    # compose's column-product form on data (m11, m12, m21, m22, r, u):
    # n is omega2's, m is omega1's.  Column k of M times N's entries,
    # laid out as N is, gives [[ak, bk], [ck, dk]]: the k-th column of
    # N*M is (ak + bk, ck + dk), and (ak, ck, bk, dk) are apply's
    # (P1, Q1, P2, Q2) for (a, b) = that column of M
    n11, n12, n21, n22, r2, u2 = n
    m11, m12, m21, m22, r1, u1 = m
    a1, b1, c1, d1 = n11 * m11, n12 * m21, n21 * m11, n22 * m21
    a2, b2, c2, d2 = n11 * m12, n12 * m22, n21 * m12, n22 * m22
    det = _unit_det(n11, n12, n21, n22)
    return (a1 + b1, a2 + b2, c1 + d1, c2 + d2,
            det * r1 + m11 * r2 + m21 * u2
            + (a1 * (c1 - n21) + b1 * (d1 - n22 + 2 * c1) >> 1),
            det * u1 + m12 * r2 + m22 * u2
            + (a2 * (c2 - n21) + b2 * (d2 - n22 + 2 * c2) >> 1))


def invert(omega: Automorphism) -> Automorphism:
    """omega^-1.  The matrix part is M^-1 = det * adj(M), and the
    offsets are

        r' = u*m21 - r*m22 - m21*m22*(m12 - m11 + 1)/2,
        u' = r*m12 - u*m11 - m11*m12*(m21 - m22 + 1)/2.

    Proof.  Write d = det M.  The offset r' of omega^-1 is pinned by one
    linear equation with unit coefficient d: omega((n11, n21, r')) = x,
    where (n11, n21) = (d*m22, -d*m21) is the first column of M^-1, and
    r' enters that c-coordinate as d*r'.  So r' = -d*t, where t is the
    offset apply() gives for (a, b) = (n11, n21).  As d^2 = 1,
    2*C(a,2) = m22^2 - d*m22, 2*C(b,2) = m21^2 + d*m21 and
    a*b = -m21*m22, so the quadratic terms of t sum to
    m21*m22*(m11*m22 - m12*m21 - d*m11 + d*m12)/2, which is
    d*m21*m22*(m12 - m11 + 1)/2; with -d*(a*r + b*u) = u*m21 - r*m22
    this gives r'.  u' follows likewise from the second column
    d*(-m12, m11).  The divisions are exact: if m21 and m22 are both
    odd, d = m11*m22 - m12*m21 is congruent to m11 - m12 mod 2, and d
    is odd, so m12 - m11 + 1 is even; likewise for u'.  They are
    evaluated as r' = m21*(2*u - m22*(m12 - m11 + 1))/2 - r*m22 and
    u' = m12*(2*r - m11*(m21 - m22 + 1))/2 - u*m11, three products
    each.  Integer offsets make an automorphism.

    >>> invert(section(gl2.D)) == section(gl2.D)
    True
    """
    _expect(omega, Automorphism, "omega")
    return _of_data(_invert_data(_data(omega)))


def _invert_data(t: tuple[int, ...]) -> tuple[int, ...]:
    # invert's closed form on data (m11, m12, m21, m22, r, u)
    m11, m12, m21, m22, r, u = t
    d = _unit_det(m11, m12, m21, m22)
    return (d * m22, -d * m12, -d * m21, d * m11,
            (m21 * (2 * u - m22 * (m12 - m11 + 1)) >> 1) - r * m22,
            (m12 * (2 * r - m11 * (m21 - m22 + 1)) >> 1) - u * m11)


def power(omega: Automorphism, n: int) -> Automorphism:
    """omega composed with itself n times; negative n inverts first.

    With (v, M) = normal_form(omega), in closed form:

        omega^n = inner(S_n v) o section(M^n),  S_n = I + M + ... + M^(n-1).

    Proof by induction on n >= 0.  For n = 0 both sides are the
    identity.  Given the claim for n, naturality section(M) o inner(w) =
    inner(M.w) o section(M), additivity of inner and multiplicativity of
    section give

        omega^(n+1) = inner(v) o section(M) o inner(S_n v) o section(M^n)
                    = inner(v + M S_n v) o section(M^(n+1)),

    and v + M S_n v = S_(n+1) v.  (M^n, S_n v) is the n-th power of the
    affine map x -> M x + v, computed by gl2._power_by_type on plain ints:
    O(1) big-int operations for parabolic and finite-order M, O(log n)
    only for hyperbolic M.  The offsets of inner(S_n v) o section(M^n)
    then follow from section's, as in normal_form's proof.

    >>> power(rd(3), 5) == rd(15)
    True
    >>> power(inner(InnerVector(1, 2)), -4) == inner(InnerVector(-4, -8))
    True
    """
    _expect(omega, Automorphism, "omega")
    _check_int(n, "n")
    t = _data(omega)
    if n < 0:
        t, n = _invert_data(t), -n
    mn, (p, q) = _power_by_type(t[:4], _normal_vector(t), n)
    # M^n has det (det M)^n = +-1; inner((p, q)) moves section(M^n)'s
    # offsets as in normal_form's proof
    m11, m12, m21, m22 = mn
    r, u = _section_offsets(m11, m12, m21, m22, _unit_det(m11, m12, m21, m22))
    return Automorphism._of(Gl2Matrix._of(m11, m12, m21, m22),
                            r + p * m21 - q * m11, u + p * m22 - q * m12)


def _compose_power(omega: Automorphism, n: int) -> Automorphism:
    """omega^n by square-and-multiply over compose, one compose per bit.

    The generic route, independent of section() and normal_form(): the
    oracle for power() in verify.  n = 0 gives the identity.
    """
    return _product_of_powers(((omega, n),))


def _product_of_powers(factors: Iterable[tuple[Automorphism, int]]) -> Automorphism:
    # the product of omega^n over the (omega, n) in order, folded on data
    # through compose's core and built once; no factors give the identity
    result = None
    for omega, n in factors:
        factor = _power_data(_data(omega), n)
        result = factor if result is None else _compose_data(result, factor)
    return IDENTITY_AUT if result is None else _of_data(result)


def _power_data(t: tuple[int, ...], n: int) -> tuple[int, ...]:
    # t^n on data: negative n inverts first; the product starts from its
    # first factor, so |n| = 1 makes no compose at all
    if type(n) is not int:
        _check_int(n, "n")
    if n < 0:
        t, n = _invert_data(t), -n
    result = None
    while n:
        if n & 1:
            result = t if result is None else _compose_data(result, t)
        n >>= 1
        if n:
            t = _compose_data(t, t)
    return _IDENTITY_DATA if result is None else result


def rd(d: int) -> Automorphism:
    """The shear (a, b, c) -> (a + d*b, b, c + b(b-1)d/2).

    >>> str(apply(rd(1), HeisElement(0, 2, 0)))
    '(2,2,1)'
    """
    _check_int(d, "d")
    # [[1,d],[0,1]] has det 1
    return Automorphism._of(Gl2Matrix._of(1, d, 0, 1), 0, 0)


def inner(v: InnerVector) -> Automorphism:
    """Conjugation by (p, q, 0): (a, b, c) -> (a, b, c + p*b - a*q).

    As data: (I, -q, p), read off the images of x and y; a valid
    InnerVector has int coordinates, so this is an automorphism.

    >>> str(apply(inner(InnerVector(1, 0)), HeisElement(0, 1, 0)))
    '(0,1,1)'
    """
    _expect(v, InnerVector, "v")
    return Automorphism._of(gl2.IDENTITY, -v.q, v.p)


def project(omega: Automorphism) -> Gl2Matrix:
    """The induced matrix on the abelianization; a homomorphism onto
    GL(2,Z) whose kernel is exactly the inner automorphisms."""
    _expect(omega, Automorphism, "omega")
    return omega.matrix


def section(m: Gl2Matrix) -> Automorphism:
    """The homomorphic section of the projection, in closed form:

        section(M) = (M, f(m11, m21), f(m12, m22)),
        f(p, q) = (p*q - p - q + det M) / 2.

    Proof.  The division is exact: det M - 1 is 0 or -2, and the columns
    of a unimodular matrix are primitive, so p or q is odd and
    (p - 1)(q - 1) = p*q - p - q + 1 is even.  The formula gives the
    generator images (A, 0, 0), (B, 0, 0) and (D, 0, -1).  It is
    multiplicative: by apply(), the offset that compose(section(N),
    section(M)) puts on the image of a column (p, q) of M is

        det N * f_M(p, q) + p*f_N(n11, n21) + q*f_N(n12, n22)
            + C(p,2)*n11*n21 + C(q,2)*n12*n22 + p*q*n12*n21,

    and twice it expands to P*Q - P - Q + det N * det M with
    (P, Q) = N (p, q), i.e. to twice the offset section(N*M) puts on the
    matching column of N*M (the p*q terms collect to
    (det N + 2*n12*n21) p*q = (n11*n22 + n12*n21) p*q).  A homomorphism
    is fixed by its values on generators, so this is the section.

    >>> section(gl2.IDENTITY) == IDENTITY_AUT
    True
    >>> section(gl2.D) == Automorphism(gl2.D, 0, -1)
    True
    >>> str(apply(section(gl2.B), HeisElement(1, 1, 0)))
    '(1,0,0)'
    """
    _expect(m, Gl2Matrix, "m")
    m11, m12, m21, m22 = m.m11, m.m12, m.m21, m.m22
    return Automorphism._of(m, *_section_offsets(m11, m12, m21, m22,
                                                 _unit_det(m11, m12, m21, m22)))


def _section_offsets(m11: int, m12: int, m21: int, m22: int,
                     d: int) -> tuple[int, int]:
    # section's offsets (f(m11, m21), f(m12, m22)) on plain ints, d = det M
    return (m11 * m21 - m11 - m21 + d) >> 1, (m12 * m22 - m12 - m22 + d) >> 1


def normal_form(omega: Automorphism) -> tuple[InnerVector, Gl2Matrix]:
    """The unique (v, M) with omega = inner(v) composed with section(M),
    in closed form: with s = section(M), x = r - s.r and y = u - s.u,

        v = det M * (m11*y - m12*x, m21*y - m22*x).

    Proof.  M is the projection of omega.  inner(v) for v = (p, q) adds
    p*b - a*q to the c-coordinate, so inner(v) o section(M) sends x and
    y to (m11, m21, s.r + p*m21 - q*m11) and (m12, m22, s.u + p*m22 -
    q*m12).  Matching omega's offsets is the linear system

        m21*p - m11*q = x,    m22*p - m12*q = y

    in (p, q), whose determinant is det M = +-1; its inverse is det M
    times the adjugate, which gives the formula, and the solution is
    unique and integral.

    >>> normal_form(Automorphism(gl2.IDENTITY, 3, -2))
    (InnerVector(p=-2, q=-3), Gl2Matrix(m11=1, m12=0, m21=0, m22=1))
    >>> swap = Gl2Matrix(0, 1, 1, 0)   # det -1
    >>> normal_form(Automorphism(swap, 5, 7))
    (InnerVector(p=6, q=-8), Gl2Matrix(m11=0, m12=1, m21=1, m22=0))
    >>> compose(inner(InnerVector(6, -8)), section(swap)) == Automorphism(swap, 5, 7)
    True
    """
    _expect(omega, Automorphism, "omega")
    return InnerVector._of(*_normal_vector(_data(omega))), omega.matrix


def _normal_vector(t: tuple[int, ...]) -> tuple[int, int]:
    # normal_form's v on data (m11, m12, m21, m22, r, u)
    m11, m12, m21, m22, r, u = t
    d = _unit_det(m11, m12, m21, m22)
    sr, su = _section_offsets(m11, m12, m21, m22, d)
    x, y = r - sr, u - su
    return d * (m11 * y - m12 * x), d * (m21 * y - m22 * x)


def center_image(omega: Automorphism) -> int:
    """c-coordinate of omega((0,0,1)); always equals det(M).

    Proof.  For g = (0, 0, 1), apply's a and b are 0, so every term of
    its c-coordinate but det M * c = det M vanishes.  verify's
    center-det keeps apply itself as the oracle.

    >>> center_image(section(gl2.D))
    -1
    """
    _expect(omega, Automorphism, "omega")
    return _unit_det(*omega.matrix.entries())


def is_aut_plus(omega: Automorphism) -> bool:
    """True iff the matrix lands in SL(2,Z); these are exactly the
    automorphisms acting as the identity on the center."""
    _expect(omega, Automorphism, "omega")
    return _unit_det(*omega.matrix.entries()) == 1


# "(p,q)", shared with the cocycle syntax
_PAIR = rf"\(\s*{_INT}\s*,\s*{_INT}\s*\)"
_PAIR_RE = re.compile(_PAIR)


def parse_pair(text: str) -> InnerVector:
    """Parse "(p,q)" with optional whitespace.

    >>> parse_pair("(3, -2)")
    InnerVector(p=3, q=-2)
    """
    m = _read(_PAIR_RE, text, "a pair '(p,q)'")
    return InnerVector(int(m.group(1)), int(m.group(2)))


_AUT_RE = re.compile(
    r"\{\s*M\s*=\s*(\[\[.*?\]\])\s*,\s*r\s*=\s*" + _INT
    + r"\s*,\s*u\s*=\s*" + _INT + r"\s*\}"
)


def parse_automorphism(text: str) -> Automorphism:
    """Parse "{M=[[m11,m12],[m21,m22]], r=<int>, u=<int>}".

    >>> parse_automorphism("{M=[[1,0],[0,1]], r=3, u=-2}").r
    3
    """
    m = _read(_AUT_RE, text, "an automorphism '{M=[[..]], r=.., u=..}'")
    return Automorphism(gl2.parse_matrix(m.group(1)), int(m.group(2)), int(m.group(3)))


def format_automorphism(omega: Automorphism) -> str:
    _expect(omega, Automorphism, "omega")
    return f"{{M={gl2.format_matrix(omega.matrix)}, r={omega.r}, u={omega.u}}}"
