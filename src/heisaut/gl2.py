"""Exact GL(2,Z) arithmetic, generator words, and decomposition.

The group is generated by

    A = [[1,1],[0,1]]    (word letter rho)
    B = [[1,0],[-1,1]]   (word letter tau)
    D = [[-1,0],[0,1]]   (word letter kappa)

subject to the relations

    rho tau rho = tau rho tau
    (rho tau rho)^4 = 1
    kappa tau kappa^-1 = tau^-1
    kappa rho kappa^-1 = rho^-1
    kappa^2 = 1.

Every matrix with determinant +-1 factors into these generators;
decompose() produces such a word by Euclidean reduction.  Words are
lightly normalized (adjacent equal symbols merged, zero exponents
dropped, kappa exponents reduced mod 2) but are not canonical: two
words for the same matrix need not be equal, only eval_word-equal.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, Sequence

from ._backend import kernels
from .heis import _INT, _check_int, _expect, _Value


class Gl2Matrix(_Value):
    """An integer 2x2 matrix with determinant +1 or -1."""

    __match_args__ = ("m11", "m12", "m21", "m22")
    __slots__ = __match_args__

    def __post_init__(self) -> None:
        m11, m12, m21, m22 = self.m11, self.m12, self.m21, self.m22
        if not (type(m11) is int and type(m12) is int
                and type(m21) is int and type(m22) is int):
            _check_int(m11, "m11")
            _check_int(m12, "m12")
            _check_int(m21, "m21")
            _check_int(m22, "m22")
        det = m11 * m22 - m12 * m21
        if det != 1 and det != -1:
            raise ValueError(
                f"matrix must have determinant +1 or -1, got {det}"
            )

    @property
    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    def __mul__(self, other: "Gl2Matrix") -> "Gl2Matrix":
        if not isinstance(other, Gl2Matrix):
            return NotImplemented
        return mat_multiply(self, other)

    def __pow__(self, n: int) -> "Gl2Matrix":
        _check_int(n, "n")
        m = self if n >= 0 else mat_inverse(self)
        # a power of a det +-1 matrix has det (+-1)^n
        return Gl2Matrix._of(*_affine_power(m.entries(), (0, 0), abs(n))[0])

    def inverse(self) -> "Gl2Matrix":
        return mat_inverse(self)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.m11, self.m12, self.m21, self.m22)

    def __str__(self) -> str:
        return format_matrix(self)


IDENTITY = Gl2Matrix(1, 0, 0, 1)
A = Gl2Matrix(1, 1, 0, 1)
B = Gl2Matrix(1, 0, -1, 1)
D = Gl2Matrix(-1, 0, 0, 1)


def mat_multiply(m1: Gl2Matrix, m2: Gl2Matrix) -> Gl2Matrix:
    """Exact matrix product.

    >>> str(mat_multiply(A, B))
    '[[0,1],[-1,1]]'
    >>> mat_multiply(D, D) == IDENTITY
    True
    """
    # det(m1*m2) = det m1 * det m2 = +-1
    _expect(m1, Gl2Matrix, "m1")
    _expect(m2, Gl2Matrix, "m2")
    return Gl2Matrix._of(*kernels.mat_mul(*m1.entries(), *m2.entries()))


def mat_inverse(m: Gl2Matrix) -> Gl2Matrix:
    """Exact inverse; integer because det = +-1.

    >>> str(mat_inverse(A))
    '[[1,-1],[0,1]]'
    """
    # d times the adjugate; its det is d^2 * det m = d
    _expect(m, Gl2Matrix, "m")
    d = m.det
    return Gl2Matrix._of(d * m.m22, -d * m.m12, -d * m.m21, d * m.m11)


def _affine_power(
    m: tuple[int, ...], v: tuple[int, int], n: int
) -> tuple[tuple[int, ...], tuple[int, int]]:
    """(M^n, S_n v) for n >= 0, S_n = I + M + ... + M^(n-1), on plain ints.

    Square-and-multiply over the bits of n: the recurrence
    (S_(j+k) v, M^(j+k)) = (S_j v + M^j S_k v, M^j M^k) both squares the
    base power and multiplies it into the result.
    """
    p, s = (1, 0, 0, 1), (0, 0)
    base_p, base_s = m, v
    while n:
        if n & 1:
            s = (s[0] + p[0] * base_s[0] + p[1] * base_s[1],
                 s[1] + p[2] * base_s[0] + p[3] * base_s[1])
            p = kernels.mat_mul(*p, *base_p)
        n >>= 1
        if n:
            base_s = (base_s[0] + base_p[0] * base_s[0] + base_p[1] * base_s[1],
                      base_s[1] + base_p[2] * base_s[0] + base_p[3] * base_s[1])
            base_p = kernels.mat_mul(*base_p, *base_p)
    return p, s


class Letter(enum.Enum):
    """Word symbols; the enum value is the display character."""

    RHO = "A"
    TAU = "B"
    KAPPA = "D"


# Each letter's matrix, in the order rho, tau, kappa that value triples
# and samplers follow.
GENERATORS = {Letter.RHO: A, Letter.TAU: B, Letter.KAPPA: D}

LetterPair = tuple[Letter, int]


def _reject_str(pairs: Iterable[LetterPair]) -> None:
    # a str iterates as characters, which then fail to unpack as pairs
    if isinstance(pairs, str):
        raise TypeError("word letters must be (Letter, int) pairs, not a "
                        "str; read a word's text with gl2.parse_word")


def _normalize(letters: Iterable[LetterPair]) -> tuple[LetterPair, ...]:
    _reject_str(letters)
    stack: list[LetterPair] = []
    for sym, exp in letters:
        if not isinstance(sym, Letter):
            raise TypeError(f"word symbol must be a Letter, got {sym!r}")
        if type(exp) is not int:
            _check_int(exp, "exponent")
        if sym is Letter.KAPPA:
            exp %= 2
        if exp == 0:
            continue
        if stack and stack[-1][0] is sym:
            merged = stack[-1][1] + exp
            if sym is Letter.KAPPA:
                merged %= 2
            stack.pop()
            if merged != 0:
                stack.append((sym, merged))
            # a cancelled pair cannot expose two equal symbols: the
            # entries beneath were already adjacent and distinct
        else:
            stack.append((sym, exp))
    return tuple(stack)


class GeneratorWord(_Value):
    """A word in rho/tau/kappa, normalized on construction.

    >>> w = GeneratorWord(((Letter.RHO, 2), (Letter.RHO, -2), (Letter.KAPPA, 3)))
    >>> str(w)
    'D'
    """

    __match_args__ = ("letters",)
    __slots__ = __match_args__

    def __init__(self, letters: Iterable[LetterPair] = ()) -> None:
        object.__setattr__(self, "letters", letters)
        self.__post_init__()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", _normalize(self.letters))

    def __mul__(self, other: "GeneratorWord") -> "GeneratorWord":
        if not isinstance(other, GeneratorWord):
            return NotImplemented
        return GeneratorWord(self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


EMPTY_WORD = GeneratorWord()


def eval_letters(pairs: Sequence[LetterPair]) -> Gl2Matrix:
    """Product of generator powers in order, without normalizing first.

    Each letter multiplies the running product on the right, which is a
    column operation on plain ints: rho^e adds e times column 1 to
    column 2, tau^e subtracts e times column 2 from column 1, and kappa^e
    negates column 1 when e is odd.  Each step keeps det = +-1, so the
    one Gl2Matrix built at the end skips the determinant check.  A str,
    a symbol that is not a Letter, or an exponent that is not an
    int raises TypeError.

    >>> eval_letters(((Letter.RHO, 2), (Letter.TAU, 1))) == A ** 2 * B
    True
    """
    _reject_str(pairs)
    m11, m12, m21, m22 = 1, 0, 0, 1
    for sym, exp in pairs:
        if type(exp) is not int:
            _check_int(exp, "exponent")
        if sym is Letter.RHO:
            m12, m22 = m12 + exp * m11, m22 + exp * m21
        elif sym is Letter.TAU:
            m11, m21 = m11 - exp * m12, m21 - exp * m22
        elif sym is Letter.KAPPA:
            if exp % 2:
                m11, m21 = -m11, -m21
        else:
            raise TypeError(f"word symbol must be a Letter, got {sym!r}")
    return Gl2Matrix._of(m11, m12, m21, m22)


def eval_word(w: GeneratorWord) -> Gl2Matrix:
    """The matrix a word evaluates to; the empty word gives I.

    >>> str(eval_word(parse_word("A B A")))
    '[[0,1],[-1,0]]'
    >>> eval_word(parse_word("D D")) == IDENTITY
    True
    """
    _expect(w, GeneratorWord, "w")
    return eval_letters(w.letters)


# rho tau rho = [[0,1],[-1,0]], of order 4
_RHO_TAU_RHO: tuple[LetterPair, ...] = (
    (Letter.RHO, 1), (Letter.TAU, 1), (Letter.RHO, 1))

# Relator words of the presentation; each must evaluate to I.  Checks
# evaluate the raw letter sequences so that normalization (which uses
# kappa^2 = 1 itself) cannot make a check vacuous.
RELATORS: tuple[tuple[str, tuple[LetterPair, ...]], ...] = (
    (
        "rho tau rho = tau rho tau",
        _RHO_TAU_RHO + ((Letter.TAU, -1), (Letter.RHO, -1), (Letter.TAU, -1)),
    ),
    ("(rho tau rho)^4 = 1", _RHO_TAU_RHO * 4),
    (
        "kappa tau kappa^-1 = tau^-1",
        ((Letter.KAPPA, 1), (Letter.TAU, 1), (Letter.KAPPA, -1), (Letter.TAU, 1)),
    ),
    (
        "kappa rho kappa^-1 = rho^-1",
        ((Letter.KAPPA, 1), (Letter.RHO, 1), (Letter.KAPPA, -1), (Letter.RHO, 1)),
    ),
    ("kappa^2 = 1", ((Letter.KAPPA, 2),)),
)


class RelatorCheck(_Value):
    __match_args__ = ("name", "product", "ok")
    __slots__ = __match_args__


def check_presentation_relations() -> tuple[RelatorCheck, ...]:
    """Evaluate each relator at the matrix level and report per relator.

    >>> all(check.ok for check in check_presentation_relations())
    True
    """
    return tuple(
        RelatorCheck(name, product, product == IDENTITY)
        for name, product in (
            (name, eval_letters(pairs)) for name, pairs in RELATORS
        )
    )


def _residual_upper(diag: int, off: int) -> list[LetterPair]:
    # [[1,m],[0,1]] = rho^m; [[-1,m],[0,-1]] = (rho tau rho)^2 rho^-m
    if diag == 1:
        return [(Letter.RHO, off)]
    return [*_RHO_TAU_RHO * 2, (Letter.RHO, -off)]


def _residual_lower(diag: int, off: int) -> list[LetterPair]:
    # [[1,0],[m,1]] = tau^-m; [[-1,0],[m,-1]] = (rho tau rho)^2 tau^m
    if diag == 1:
        return [(Letter.TAU, -off)]
    return [*_RHO_TAU_RHO * 2, (Letter.TAU, off)]


def _decompose_left(m: Gl2Matrix) -> list[LetterPair]:
    # Collect left factors L1..Lt with Lt*...*L1*M upper triangular; then
    # M = L1^-1*...*Lt^-1 * residual, so inverses are emitted in
    # application order, followed by the residual word.
    out: list[LetterPair] = []
    m11, m12, m21, m22 = m.entries()
    if m.det == -1:
        # M = D * (D*M); emit kappa and reduce the det +1 remainder
        out.append((Letter.KAPPA, 1))
        m11, m12 = -m11, -m12
    prefix: list[LetterPair] = []
    while m21 != 0:
        if m11 == 0:
            # det forces m21 = +-1; one row addition makes the corner +-1
            m11, m12 = m11 + m21, m12 + m22  # left A
            prefix.append((Letter.RHO, -1))
            continue
        q = m21 // m11
        if q != 0:
            m21, m22 = m21 - q * m11, m22 - q * m12  # left B^q
            prefix.append((Letter.TAU, -q))
        if m21 == 0:
            break
        q = m11 // m21
        m11, m12 = m11 - q * m21, m12 - q * m22  # left A^-q
        prefix.append((Letter.RHO, q))
    return out + prefix + _residual_upper(m11, m12)


def _decompose_right(m: Gl2Matrix) -> list[LetterPair]:
    # Same idea on columns: collect right factors R1..Rt with
    # M*R1*...*Rt lower triangular; then M = residual * Rt^-1*...*R1^-1,
    # so inverses are emitted in reverse application order.
    tail: list[LetterPair] = []
    m11, m12, m21, m22 = m.entries()
    if m.det == -1:
        # M = (M*D) * D; reduce the det +1 part, then append kappa
        tail.append((Letter.KAPPA, 1))
        m11, m21 = -m11, -m21
    factors: list[LetterPair] = []
    while m12 != 0:
        if m11 == 0:
            # det forces m12 = +-1; one column addition makes the corner +-1
            m11, m21 = m11 + m12, m21 + m22  # right B^-1
            factors.append((Letter.TAU, -1))
            continue
        q = m12 // m11
        if q != 0:
            m12, m22 = m12 - q * m11, m22 - q * m21  # right A^-q
            factors.append((Letter.RHO, -q))
        if m12 == 0:
            break
        q = m11 // m12
        m11, m21 = m11 - q * m12, m21 - q * m22  # right B^q
        factors.append((Letter.TAU, q))
    inverted = [(sym, -exp) for sym, exp in reversed(factors)]
    return _residual_lower(m11, m21) + inverted + tail


def decompose(m: Gl2Matrix, strategy: str = "left") -> GeneratorWord:
    """A word w with eval_word(w) = m.  Not canonical.

    Both strategies are Euclidean: "left" reduces the first column by
    row operations, "right" reduces the first row by column operations.
    They generally return different words for the same matrix, which is
    what makes them useful as independent cross-checks.

    >>> str(decompose(Gl2Matrix(1, 5, 0, 1)))
    'A^5'
    >>> eval_word(decompose(Gl2Matrix(0, 1, -1, 0))) == Gl2Matrix(0, 1, -1, 0)
    True
    """
    if strategy == "left":
        return GeneratorWord(tuple(_decompose_left(m)))
    if strategy == "right":
        return GeneratorWord(tuple(_decompose_right(m)))
    raise ValueError(f"unknown strategy {strategy!r} (expected 'left' or 'right')")


_MATRIX_RE = re.compile(
    rf"\[\s*\[\s*{_INT}\s*,\s*{_INT}\s*\]\s*,"
    rf"\s*\[\s*{_INT}\s*,\s*{_INT}\s*\]\s*\]"
)


def parse_matrix(text: str) -> Gl2Matrix:
    """Parse "[[a,b],[c,d]]" with optional whitespace.

    >>> parse_matrix("[[1, 1], [0, 1]]") == A
    True
    """
    m = _MATRIX_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a matrix '[[a,b],[c,d]]': {text!r}")
    return Gl2Matrix(*(int(m.group(i)) for i in range(1, 5)))


def format_matrix(m: Gl2Matrix) -> str:
    return f"[[{m.m11},{m.m12}],[{m.m21},{m.m22}]]"


_TOKEN_RE = re.compile(rf"([ABD])(?:\^{_INT})?")

_CHAR_TO_LETTER = {letter.value: letter for letter in Letter}


def parse_word(text: str) -> GeneratorWord:
    """Parse a word like "A B A D A^-3"; the empty string is the empty word.

    >>> str(parse_word("A B  A^0 D^2"))
    'A B'
    """
    pairs: list[LetterPair] = []
    for token in text.split():
        m = _TOKEN_RE.fullmatch(token)
        if m is None:
            raise ValueError(f"bad word letter {token!r} (expected A, B or D"
                             " with optional ^exponent)")
        exp = int(m.group(2)) if m.group(2) is not None else 1
        pairs.append((_CHAR_TO_LETTER[m.group(1)], exp))
    return GeneratorWord(tuple(pairs))


def format_word(w: GeneratorWord) -> str:
    """Inverse of parse_word on normalized words; empty word prints ''."""
    return " ".join(
        sym.value if exp == 1 else f"{sym.value}^{exp}"
        for sym, exp in w.letters
    )
