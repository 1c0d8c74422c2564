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
that factorization instead of composing bit by bit.
"""

from __future__ import annotations

import re

from . import gl2
from ._backend import kernels
from .gl2 import Gl2Matrix, _affine_power
from .heis import _INT, HeisElement, _check_int, _expect, _Value


class Automorphism(_Value):
    """Automorphism data (M, r, u); see the module docstring."""

    __match_args__ = ("matrix", "r", "u")
    __slots__ = __match_args__

    def __post_init__(self) -> None:
        if not isinstance(self.matrix, Gl2Matrix):
            raise TypeError("matrix must be a Gl2Matrix")
        r, u = self.r, self.u
        if not (type(r) is int and type(u) is int):
            _check_int(r, "r")
            _check_int(u, "u")

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
        p, q = self.p, self.q
        if not (type(p) is int and type(q) is int):
            _check_int(p, "p")
            _check_int(q, "q")

    def __add__(self, other: "InnerVector") -> "InnerVector":
        if not isinstance(other, InnerVector):
            return NotImplemented
        return InnerVector(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "InnerVector") -> "InnerVector":
        if not isinstance(other, InnerVector):
            return NotImplemented
        return InnerVector(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "InnerVector":
        return InnerVector(-self.p, -self.q)

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


IDENTITY_AUT = Automorphism(gl2.IDENTITY, 0, 0)

ZERO_VECTOR = InnerVector(0, 0)


def act(m: Gl2Matrix, v: InnerVector) -> InnerVector:
    """The natural GL(2,Z) action on Z + Z: matrix times column vector."""
    _expect(m, Gl2Matrix, "m")
    _expect(v, InnerVector, "v")
    return InnerVector(m.m11 * v.p + m.m12 * v.q, m.m21 * v.p + m.m22 * v.q)


def apply(omega: Automorphism, g: HeisElement) -> HeisElement:
    """omega(g), computed by the closed form

        (a*m11 + b*m12, a*m21 + b*m22,
         det*c + a*r + b*u + C(a,2)*m11*m21 + C(b,2)*m12*m22 + a*b*m12*m21)

    which is the expansion of omega(z)^c * omega(y)^b * omega(x)^a;
    every integer triple is an element.

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
    return HeisElement._of(
        a * m11 + b * m12, a * m21 + b * m22,
        (m11 * m22 - m12 * m21) * g.c
        + kernels.aut_offset(m11, m12, m21, m22, omega.r, omega.u, a, b))


def compose(omega2: Automorphism, omega1: Automorphism) -> Automorphism:
    """The automorphism g -> omega2(omega1(g)); matrix part is M2*M1.

    Its offsets are omega2 applied to omega1's generator images: the
    c-coordinate of omega2((m11, m21, r1)) is det M2 * r1 plus the
    offset omega2 gives (m11, m21, 0), and likewise for y.  M2*M1 has
    det +-1, and any integer offsets make an automorphism.

    >>> compose(IDENTITY_AUT, rd(7)) == rd(7)
    True
    """
    _expect(omega2, Automorphism, "omega2")
    _expect(omega1, Automorphism, "omega1")
    n, m = omega2.matrix, omega1.matrix
    n11, n12, n21, n22 = n.m11, n.m12, n.m21, n.m22
    m11, m12, m21, m22 = m.m11, m.m12, m.m21, m.m22
    r2, u2 = omega2.r, omega2.u
    d = n11 * n22 - n12 * n21
    return Automorphism._of(
        Gl2Matrix._of(*kernels.mat_mul(n11, n12, n21, n22, m11, m12, m21, m22)),
        d * omega1.r + kernels.aut_offset(n11, n12, n21, n22, r2, u2, m11, m21),
        d * omega1.u + kernels.aut_offset(n11, n12, n21, n22, r2, u2, m12, m22))


def invert(omega: Automorphism) -> Automorphism:
    """omega^-1.  The matrix part is M^-1; each center offset is pinned
    by one linear equation with unit coefficient det(M), e.g. the
    offset r' of omega^-1 must satisfy omega((n11, n21, r')) = x where
    (n11, n21) is the first column of M^-1, and r' enters that
    c-coordinate as det * r'.  So r' = -det * t, where t is the offset
    omega gives (n11, n21, 0); integer offsets make an automorphism.

    >>> invert(section(gl2.D)) == section(gl2.D)
    True
    """
    _expect(omega, Automorphism, "omega")
    m, r, u = omega.matrix, omega.r, omega.u
    n = gl2.mat_inverse(m)
    d = m.det
    m11, m12, m21, m22 = m.m11, m.m12, m.m21, m.m22
    return Automorphism._of(
        n, -d * kernels.aut_offset(m11, m12, m21, m22, r, u, n.m11, n.m21),
        -d * kernels.aut_offset(m11, m12, m21, m22, r, u, n.m12, n.m22))


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
    affine map x -> M x + v, computed by gl2._affine_power on plain ints in
    O(log n) steps; one compose assembles the result.

    >>> power(rd(3), 5) == rd(15)
    True
    >>> power(inner(InnerVector(1, 2)), -4) == inner(InnerVector(-4, -8))
    True
    """
    _expect(omega, Automorphism, "omega")
    _check_int(n, "n")
    if n < 0:
        omega, n = invert(omega), -n
    v, m = normal_form(omega)
    mn, sv = _affine_power(m.entries(), (v.p, v.q), n)
    # M^n has det (det M)^n = +-1
    return compose(inner(InnerVector(*sv)), section(Gl2Matrix._of(*mn)))


def _compose_power(omega: Automorphism, n: int) -> Automorphism:
    """omega^n by square-and-multiply over compose, one compose per bit.

    The generic route, independent of section() and normal_form(): the
    oracle for power() in verify and the power behind
    SectionOnGenerators.eval_letters.  The product starts from its first
    factor, not from a compose with IDENTITY_AUT, so |n| = 1 makes no
    compose at all; n = 0 gives IDENTITY_AUT.
    """
    _check_int(n, "n")
    if n < 0:
        omega, n = invert(omega), -n
    result, base = None, omega
    while n:
        if n & 1:
            result = base if result is None else compose(result, base)
        n >>= 1
        if n:
            base = compose(base, base)
    return IDENTITY_AUT if result is None else result


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
    d = m.det
    return Automorphism._of(m, (m.m11 * m.m21 - m.m11 - m.m21 + d) // 2,
                            (m.m12 * m.m22 - m.m12 - m.m22 + d) // 2)


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
    m = omega.matrix
    s = section(m)
    m11, m12, m21, m22 = m.m11, m.m12, m.m21, m.m22
    x, y = omega.r - s.r, omega.u - s.u
    d = m11 * m22 - m12 * m21
    return InnerVector(d * (m11 * y - m12 * x), d * (m21 * y - m22 * x)), m


def center_image(omega: Automorphism) -> int:
    """c-coordinate of omega((0,0,1)); always equals det(M)."""
    return apply(omega, HeisElement(0, 0, 1)).c


def is_aut_plus(omega: Automorphism) -> bool:
    """True iff the matrix lands in SL(2,Z); these are exactly the
    automorphisms acting as the identity on the center."""
    return omega.matrix.det == 1


# "(p,q)", shared with the cocycle syntax
_PAIR = rf"\(\s*{_INT}\s*,\s*{_INT}\s*\)"
_PAIR_RE = re.compile(_PAIR)


def parse_pair(text: str) -> InnerVector:
    """Parse "(p,q)" with optional whitespace.

    >>> parse_pair("(3, -2)")
    InnerVector(p=3, q=-2)
    """
    m = _PAIR_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a pair '(p,q)': {text!r}")
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
    m = _AUT_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not an automorphism '{{M=[[..]], r=.., u=..}}': {text!r}")
    return Automorphism(gl2.parse_matrix(m.group(1)), int(m.group(2)), int(m.group(3)))


def format_automorphism(omega: Automorphism) -> str:
    return f"{{M={gl2.format_matrix(omega.matrix)}, r={omega.r}, u={omega.u}}}"
