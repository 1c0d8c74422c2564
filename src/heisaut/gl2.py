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
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import islice

from ._backend import kernels
from .heis import _INT, _check_fields, _check_int, _expect, _read, _Value


def _unit_det(m11: int, m12: int, m21: int, m22: int) -> int:
    """det M of a matrix known to have det +-1, read from its entries
    mod 4: two products of numbers below 4 in place of two products of
    the entries.  The entries must come from a Gl2Matrix or from
    automorphism data; anything else gives a meaningless +-1.

    Proof.  det M is +1 or -1, and +1 and -1 differ mod 4 (they are 1
    and 3).  det M = m11*m22 - m12*m21 is congruent mod 4 to
    (m11 mod 4)(m22 mod 4) - (m12 mod 4)(m21 mod 4), and Python's x & 3
    is x mod 4 for negative x too.  So the masked difference is 1 or 3,
    and 2 minus it is det M.

    >>> _unit_det(2, 3, 3, 5), _unit_det(-2, 3, 3, -4)
    (1, -1)
    """
    return 2 - (((m11 & 3) * (m22 & 3) - (m12 & 3) * (m21 & 3)) & 3)


class Gl2Matrix(_Value):
    """An integer 2x2 matrix with determinant +1 or -1."""

    __match_args__ = ("m11", "m12", "m21", "m22")
    __slots__ = __match_args__

    def __post_init__(self) -> None:
        _check_fields(self, self.__match_args__)
        det = self.m11 * self.m22 - self.m12 * self.m21
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
        """M^n; negative n inverts first.  O(1) big-int operations for
        parabolic and finite-order M, O(log n) only for hyperbolic M
        (see _power_by_type)."""
        _check_int(n, "n")
        m = self if n >= 0 else mat_inverse(self)
        # a power of a det +-1 matrix has det (+-1)^n
        return Gl2Matrix._of(*_power_by_type(m.entries(), (0, 0), abs(n))[0])

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
    d = _unit_det(m.m11, m.m12, m.m21, m.m22)
    return Gl2Matrix._of(d * m.m22, -d * m.m12, -d * m.m21, d * m.m11)


def _affine_power(
    m: tuple[int, ...], v: tuple[int, int], n: int
) -> tuple[tuple[int, ...], tuple[int, int]]:
    """(M^n, S_n v) for n >= 0, S_n = I + M + ... + M^(n-1), on plain ints.

    (M^k, S_k v) is the k-th power of the affine map F(x) = M x + v.
    Square-and-multiply over the bits of n from the top, from k = 0:
    each bit doubles k by F^(2k) = F^k o F^k, i.e.
    (P, s) -> (P^2, s + P s), and a set bit adds one by
    F^(k+1) = F o F^k, i.e. (P, s) -> (M P, M s + v).  The entries stay
    in locals, and P^2 takes five products: its diagonal is
    p11^2 + p12 p21 and p22^2 + p12 p21, its off-diagonal p12 and p21
    times the trace.
    """
    m11, m12, m21, m22 = m
    v1, v2 = v
    p11, p12, p21, p22, s1, s2 = 1, 0, 0, 1, 0, 0
    for bit in bin(n)[2:]:
        t, tr = p12 * p21, p11 + p22
        s1, s2 = s1 + p11 * s1 + p12 * s2, s2 + p21 * s1 + p22 * s2
        p11, p12, p21, p22 = p11 * p11 + t, p12 * tr, p21 * tr, p22 * p22 + t
        if bit == "1":
            s1, s2 = m11 * s1 + m12 * s2 + v1, m21 * s1 + m22 * s2 + v2
            p11, p12, p21, p22 = (m11 * p11 + m12 * p21, m11 * p12 + m12 * p22,
                                  m21 * p11 + m22 * p21, m21 * p12 + m22 * p22)
    return (p11, p12, p21, p22), (s1, s2)


def _power_by_type(
    m: tuple[int, ...], v: tuple[int, int], n: int
) -> tuple[tuple[int, ...], tuple[int, int]]:
    """(M^n, S_n v) for n >= 0, as _affine_power gives it, by a formula
    picked from det M and t = tr M: O(1) big-int operations for
    parabolic and finite-order M, _affine_power's O(log n) steps for the
    rest.  Those are hyperbolic (det 1 and |t| > 2, or det -1 and t != 0):
    an eigenvalue has |lambda| > 1, so the entries of M^n grow
    exponentially and n stays small.

    Parabolic: det 1 and t = 2e, e = +-1 (this includes +-I).  eM has
    trace 2 and det 1, so by Cayley-Hamilton N = eM - I has
    N^2 = (eM)^2 - 2eM + I = 0, and M^k = e^k (I + N)^k = e^k (I + kN).
    Summing over k < n, S_n = a I + b N with a = sum e^k and
    b = sum k e^k.  For e = 1, (a, b) = (n, n(n-1)/2).  For e = -1 the
    terms k = 2j, 2j + 1 add 0 to a and -1 to b, and an odd n leaves the
    term k = n - 1, which adds 1 and n - 1: so a = n mod 2, and b is -n/2
    for even n and -(n-1)/2 + n - 1 = (n-1)/2 for odd n.

    Finite order: det 1 and |t| <= 1, or det -1 and t = 0.  Cayley-Hamilton
    M^2 = tM - det I gives M^2 = I for det -1, so p = 2, and for det 1
    M^4 = I (t = 0), M^3 = M^2 - M = -I (t = 1) or M^3 = -M^2 - M = I
    (t = -1), so p = 4, 6, 3.  F(x) = Mx + v then has F^p(x) = x + S_p v,
    and for n = qp + r, F^n = F^(qp) o F^r gives
    (M^n, S_n v) = (M^r, S_r v + q S_p v), with r < p <= 6.  For det 1,
    S_p = 0: (M - I) S_p = M^p - I = 0, and M - I is invertible, as
    det(M - I) = det M - t + 1 = 2 - t > 0.  For det -1, S_2 = I + M.
    """
    m11, m12, m21, m22 = m
    t, det = m11 + m22, _unit_det(m11, m12, m21, m22)
    if det == 1 and (t == 2 or t == -2):
        e, odd = t >> 1, n & 1
        v1, v2 = v
        n11, n12, n21, n22 = e * m11 - 1, e * m12, e * m21, e * m22 - 1
        if e == 1:
            a, b = n, n * (n - 1) >> 1
        else:
            a, b = odd, n >> 1 if odd else -(n >> 1)
        en = e if odd else 1
        c = en * n
        w1, w2 = n11 * v1 + n12 * v2, n21 * v1 + n22 * v2
        return ((en + c * n11, c * n12, c * n21, en + c * n22),
                (a * v1 + b * w1, a * v2 + b * w2))
    if det == 1 and -1 <= t <= 1 or det == -1 and t == 0:
        # the order p: 2 for det -1, else 4, 6, 3 at t = 0, 1, -1
        q, r = divmod(n, 2 if det == -1 else (4, 6, 3)[t])
        mr, (s1, s2) = _affine_power(m, v, r)
        if det == -1:  # S_2 v = v + M v
            v1, v2 = v
            s1 += q * (v1 + m11 * v1 + m12 * v2)
            s2 += q * (v2 + m21 * v1 + m22 * v2)
        return mr, (s1, s2)
    return _affine_power(m, v, n)


class Letter(enum.Enum):
    """Word symbols; the enum value is the display character."""

    RHO = "A"
    TAU = "B"
    KAPPA = "D"


# The members as plain globals for the per-letter loops: on Python 3.10
# and 3.11 a Letter.RHO read goes through the enum metaclass's
# __getattr__ and costs about five global reads.
_RHO, _TAU, _KAPPA = Letter.RHO, Letter.TAU, Letter.KAPPA

# Each letter's matrix, in the order rho, tau, kappa that value triples
# and samplers follow.
GENERATORS = {Letter.RHO: A, Letter.TAU: B, Letter.KAPPA: D}

LetterPair = tuple[Letter, int]


def _iter_pairs(pairs: Iterable[LetterPair], name: str) -> Iterator[LetterPair]:
    # a str iterates as characters, which then fail to unpack as pairs
    if isinstance(pairs, str):
        raise TypeError("word letters must be (Letter, int) pairs, not a "
                        "str; read a word's text with gl2.parse_word")
    try:
        return iter(pairs)
    except TypeError:  # cheaper than isinstance(pairs, Iterable) first
        raise TypeError(f"{name} must be an iterable of (Letter, int) pairs, "
                        f"got {type(pairs).__name__}") from None


def _raise_if_unpacking(error: Exception, name: str) -> None:
    # The letter loops unpack each letter as `sym, exp` with no check of
    # their own, so a valid word pays nothing per letter.  Their handler
    # calls this: the interpreter's error on a letter that is not a pair
    # becomes a TypeError naming the parameter, and any other error,
    # such as the symbol and exponent checks', is left to its bare raise.
    if str(error).startswith(("cannot unpack", "too many values", "not enough values")):
        raise TypeError(f"{name} must be an iterable of (Letter, int) pairs; "
                        f"{error}") from None


def _emit(word: list[LetterPair], sym: Letter, exp: int) -> None:
    # append sym^exp to a reduced word: merge it into an equal last
    # symbol, reduce a kappa exponent mod 2, and drop an exponent 0
    if word and word[-1][0] is sym:
        exp += word.pop()[1]
    if sym is _KAPPA:
        exp %= 2
    if exp:
        word.append((sym, exp))


def _normalize(letters: Iterable[LetterPair]) -> tuple[LetterPair, ...]:
    stack: list[LetterPair] = []
    try:
        for sym, exp in _iter_pairs(letters, "letters"):
            if not isinstance(sym, Letter):
                raise TypeError(f"word symbol must be a Letter, got {sym!r}")
            if type(exp) is not int:
                _check_int(exp, "exponent")
            # a cancelled pair cannot expose two equal symbols: the
            # entries beneath were already adjacent and distinct
            _emit(stack, sym, exp)
    except (TypeError, ValueError) as error:
        _raise_if_unpacking(error, "letters")
        raise
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


# the letters folded in one pass by eval_letters; see there
_RUN = 32


def _fold_columns(pairs: Iterable[LetterPair]) -> tuple[int, int, int, int]:
    m11, m12, m21, m22 = 1, 0, 0, 1
    for sym, exp in pairs:
        if type(exp) is not int:
            _check_int(exp, "exponent")
        if sym is _RHO:
            m12, m22 = m12 + exp * m11, m22 + exp * m21
        elif sym is _TAU:
            m11, m21 = m11 - exp * m12, m21 - exp * m22
        elif sym is _KAPPA:
            if exp % 2:
                m11, m21 = -m11, -m21
        else:
            raise TypeError(f"word symbol must be a Letter, got {sym!r}")
    return m11, m12, m21, m22


def eval_letters(pairs: Sequence[LetterPair]) -> Gl2Matrix:
    """Product of generator powers in order, without normalizing first.

    Each letter multiplies the running product on the right, which is a
    column operation on plain ints: rho^e adds e times column 1 to
    column 2, tau^e subtracts e times column 2 from column 1, and kappa^e
    negates column 1 when e is odd.  The entries grow with the word, so
    one pass costs time quadratic in its length; a word of more than _RUN
    letters is therefore folded in runs of _RUN letters, and the run
    products are multiplied pairwise, as a balanced tree whose large
    products Python's Karatsuba multiplication speeds up.  A non-sequence
    iterable is read once.
    Each step keeps det = +-1, so the one Gl2Matrix built at the end
    skips the determinant check.  A str, a letter that is not a pair, a
    symbol that is not a Letter, or an exponent that is not an int
    raises TypeError.

    >>> eval_letters(((Letter.RHO, 2), (Letter.TAU, 1))) == A ** 2 * B
    True
    """
    it = _iter_pairs(pairs, "pairs")
    try:
        n = len(pairs)
    except TypeError:  # an iterator: read it once
        pairs = tuple(it)
        n, it = len(pairs), iter(pairs)
    try:
        if n <= _RUN:
            return Gl2Matrix._of(*_fold_columns(it))
        runs = [_fold_columns(islice(it, _RUN)) for _ in range(0, n, _RUN)]
    except (TypeError, ValueError) as error:
        _raise_if_unpacking(error, "pairs")
        raise
    while len(runs) > 1:
        tail = runs[-1:] if len(runs) % 2 else []
        runs = [kernels.mat_mul(*x, *y) for x, y in zip(runs[::2], runs[1::2])] + tail
    return Gl2Matrix._of(*runs[0])


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
        return [(_RHO, off)]
    return [*_RHO_TAU_RHO * 2, (_RHO, -off)]


def _residual_lower_reversed(diag: int, off: int) -> list[LetterPair]:
    # [[1,0],[m,1]] = tau^-m; [[-1,0],[m,-1]] = (rho tau rho)^2 tau^m,
    # each read back to front (rho tau rho is a palindrome)
    if diag == 1:
        return [(_TAU, -off)]
    return [(_TAU, off), *_RHO_TAU_RHO * 2]


def _euclid(m11: int, m12: int, m21: int, m22: int, first: Letter, second: Letter,
            sign: int, residual: Callable[[int, int], list[LetterPair]]
            ) -> list[LetterPair]:
    # The Euclid reduction of both decompose strategies, by row
    # operations.  It collects left factors L1..Lt with Lt*...*L1*M
    # upper triangular; then M = L1^-1*...*Lt^-1 * residual, so the
    # inverses are emitted in application order, followed by the letters
    # residual(m11, m12) gives for the triangular rest.  A det -1 matrix
    # is M = D * (D*M): kappa comes first, and row 1 is negated.  "left"
    # passes first, second, sign = tau, rho, +1: subtracting q times row
    # 1 from row 2 is left B^q, emitted tau^-q, and q times row 2 from
    # row 1 is left A^-q, emitted rho^q.
    #
    # "right" reduces by column operations, and those are row operations
    # on the transpose: M*R is the transpose of R^T * M^T, with
    # A^T = B^-1, B^T = A^-1, D^T = D and (XY)^T = Y^T X^T.  So it passes
    # the transposed entries, the letters swapped and sign -1, and
    # reverses the word: the steps are right A^-q, emitted rho^q, and
    # right B^q, emitted tau^-q, and negating row 1 of M^T negates column
    # 1 of M.  Its residual keeps a table of its own, read back to front:
    # for diagonal -1 the transposed left residual is the word
    # tau^m (tau^-1 rho^-1 tau^-1)^2, not the (rho tau rho)^2 tau^m of
    # the lower table, so one table for both would change the words.
    #
    # The word comes out reduced, and a word is reduced exactly when its
    # reverse is.  The Euclid steps alternate the two step letters with
    # nonzero exponents: after the first step each quotient divides a
    # larger entry by a smaller one of the same sign.  Only an m11 == 0
    # step after a second-letter step, and the residual, can put two
    # equal symbols side by side or an exponent 0, so only they go
    # through _emit; an m11 == 0 step at the start follows nothing or
    # kappa.  The loop ends on a first-letter step, and the residual
    # starts with the second letter.
    #
    # The letters depend on the first column alone, so the loop reduces
    # only (m11, m21); the second column is needed once, for the
    # residual's offset x.  Let O be the matrix after the kappa step and
    # the first m11 == 0 step (the only one that reads m22; a later one
    # changes m11 alone), so o11 != 0.  The loop's row operations
    # U1..Us end at R = Us*...*U1*O = [[e, x], [0, e]] with e = +-1, so
    # V = U1^-1*...*Us^-1 = O*R^-1 has row 1 (e*o11, e*o12 - x*o11).
    # U1^-1, if a B^q step, is lower and leaves row 1 unchanged.  Every
    # later Ui^-1 is [[1, q], [0, 1]] or [[1, 0], [q, 1]] with q >= 0,
    # once each later m11 == 0 step (inverse A^-1) is merged with the
    # A^-q step before it (inverse A^q, q >= 1).  So row 1 of V is row 1
    # of their product P >= 0, and e*o11 = p11 >= 1, that is
    # e = sign(o11), and p12 >= 0.  The loop ends on a B^q step, so
    # P = I (p12 = 0 < 1 = p11) or P = X*[[1, 0], [q, 1]] with q >= 1,
    # X >= 0 and x11 >= 1, where p12 = x12 < x11 + q*x12 = p11.  So
    # 0 <= e*o12 - x*o11 < e*o11, and dividing by e*o11 > 0 gives
    # e*x = floor(o12/o11), that is x = e*(o12 // o11): one floor
    # division in place of a multiply-subtract per step.
    word: list[LetterPair] = []
    if _unit_det(m11, m12, m21, m22) == -1:
        word.append((_KAPPA, 1))
        m11, m12 = -m11, -m12
    if not m11:
        # det forces m21 = +-1; one row addition makes the corner +-1
        m11, m12 = m21, m12 + m22  # left A
        word.append((second, -sign))
    o11, o12 = m11, m12
    while m21:
        if not m11:
            m11 = m21  # left A, as above, after a second-letter step
            _emit(word, second, -sign)
            continue
        q, m21 = divmod(m21, m11)  # left B^q
        if q:
            word.append((first, -sign * q))
        if not m21:
            break
        q, m11 = divmod(m11, m21)  # left A^-q
        word.append((second, sign * q))
    for sym, exp in residual(m11, m11 * (o12 // o11)):
        _emit(word, sym, exp)
    return word


def _decompose_left(m11: int, m12: int, m21: int, m22: int) -> list[LetterPair]:
    # reduce the first column by row operations
    return _euclid(m11, m12, m21, m22, _TAU, _RHO, 1, _residual_upper)


def _decompose_right(m11: int, m12: int, m21: int, m22: int) -> list[LetterPair]:
    # reduce the first row by column operations: the row operations on
    # the transpose, with the word read back to front
    word = _euclid(m11, m21, m12, m22, _RHO, _TAU, -1, _residual_lower_reversed)
    word.reverse()
    return word


def decompose(m: Gl2Matrix, strategy: str = "left") -> GeneratorWord:
    """A word w with eval_word(w) = m.  Not canonical.

    Both strategies are one Euclidean reduction, dual under
    transposition: "left" reduces the first column by row operations,
    "right" reduces the first row by column operations, which are the
    row operations on the transpose (see _euclid).  The reduction
    carries only the first column (row), and the off-diagonal entry of
    the triangular rest comes from one floor division at the end.  The
    strategies generally return different words for the same matrix, so
    each checks the other.

    >>> str(decompose(Gl2Matrix(1, 5, 0, 1)))
    'A^5'
    >>> eval_word(decompose(Gl2Matrix(0, 1, -1, 0))) == Gl2Matrix(0, 1, -1, 0)
    True
    """
    _expect(m, Gl2Matrix, "m")
    m11, m12, m21, m22 = m.entries()
    if strategy == "left":
        letters = _decompose_left(m11, m12, m21, m22)
    elif strategy == "right":
        letters = _decompose_right(m11, m12, m21, m22)
    else:
        raise ValueError(f"unknown strategy {strategy!r} (expected 'left' or 'right')")
    # _euclid returns a reduced word, which GeneratorWord's
    # normalization would not change; so the word is built unchecked
    return GeneratorWord._of(tuple(letters))


_MATRIX_RE = re.compile(
    rf"\[\s*\[\s*{_INT}\s*,\s*{_INT}\s*\]\s*,"
    rf"\s*\[\s*{_INT}\s*,\s*{_INT}\s*\]\s*\]"
)


def parse_matrix(text: str) -> Gl2Matrix:
    """Parse "[[a,b],[c,d]]" with optional whitespace.

    >>> parse_matrix("[[1, 1], [0, 1]]") == A
    True
    """
    m = _read(_MATRIX_RE, text, "a matrix '[[a,b],[c,d]]'")
    return Gl2Matrix(*(int(m.group(i)) for i in range(1, 5)))


def format_matrix(m: Gl2Matrix) -> str:
    _expect(m, Gl2Matrix, "m")
    return f"[[{m.m11},{m.m12}],[{m.m21},{m.m22}]]"


_TOKEN_RE = re.compile(rf"([ABD])(?:\^{_INT})?")

_CHAR_TO_LETTER = {letter.value: letter for letter in Letter}
_LETTER_TO_CHAR = {letter: char for char, letter in _CHAR_TO_LETTER.items()}


def parse_word(text: str) -> GeneratorWord:
    """Parse a word like "A B A D A^-3"; the empty string is the empty word.

    >>> str(parse_word("A B  A^0 D^2"))
    'A B'
    """
    _expect(text, str, "text")
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
    _expect(w, GeneratorWord, "w")
    return " ".join(
        _LETTER_TO_CHAR[sym] if exp == 1 else f"{_LETTER_TO_CHAR[sym]}^{exp}"
        for sym, exp in w.letters
    )
