"""The word folds on plain ints against the value-level folds they replace.

gl2.eval_letters, cocycles._extend_values, aut._compose_power and
SectionOnGenerators.eval_letters fold a word on plain ints and build one
value at the end; gl2.eval_letters also splits a long word into runs and
multiplies the run products as a balanced tree.  The references below
are the same folds written one value per step: the single-pass column
fold, the cocycle identity through act and mat_multiply, and square-and-
multiply through compose.  Both must agree everywhere, including at
5000-bit values, exponents up to 2^70 and words of the run lengths.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisaut import aut, cocycles, gl2
from heisaut.aut import (
    IDENTITY_AUT, ZERO_VECTOR, Automorphism, InnerVector, act, compose, invert)
from heisaut.gl2 import Gl2Matrix, Letter

LETTERS = tuple(Letter)


# -- value-level references --------------------------------------------------

def column_fold(pairs) -> Gl2Matrix:
    # every letter a column operation on the running product, in one pass
    m11, m12, m21, m22 = 1, 0, 0, 1
    for sym, exp in pairs:
        if sym is Letter.RHO:
            m12, m22 = m12 + exp * m11, m22 + exp * m21
        elif sym is Letter.TAU:
            m11, m21 = m11 - exp * m12, m21 - exp * m22
        elif exp % 2:
            m11, m21 = -m11, -m21
    return Gl2Matrix(m11, m12, m21, m22)


def phi_power(mat: Gl2Matrix, val: InnerVector, exp: int):
    # (phi(l^exp), L^exp) as values: S_k val and L^k, and
    # phi(l^-k) = -L^-k.phi(l^k)
    entries, (vp, vq) = gl2._affine_power(mat.entries(), (val.p, val.q), abs(exp))
    v, p = InnerVector(vp, vq), Gl2Matrix(*entries)
    if exp < 0:
        pinv = gl2.mat_inverse(p)
        return -act(pinv, v), pinv
    return v, p


def extend_by_values(v_rho, v_tau, v_kappa, pairs) -> InnerVector:
    # phi(g l^e) = phi(g) + g.phi(l^e), one InnerVector and one Gl2Matrix
    # per letter
    values = {Letter.RHO: v_rho, Letter.TAU: v_tau, Letter.KAPPA: v_kappa}
    total, prefix = ZERO_VECTOR, gl2.IDENTITY
    for sym, exp in pairs:
        contrib, mat_power = phi_power(gl2.GENERATORS[sym], values[sym], exp)
        total = total + act(prefix, contrib)
        prefix = gl2.mat_multiply(prefix, mat_power)
    return total


def power_by_compose(omega: Automorphism, n: int) -> Automorphism:
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


def section_by_compose(alpha, pairs) -> Automorphism:
    result = None
    for sym, exp in pairs:
        factor = power_by_compose(alpha.value(sym), exp)
        result = factor if result is None else compose(result, factor)
    return IDENTITY_AUT if result is None else result


# -- data ----------------------------------------------------------------------

small_exps = st.integers(-9, 9)
huge_exps = st.integers(-2**70, 2**70)
raw_words = st.lists(st.tuples(st.sampled_from(LETTERS),
                               st.one_of(small_exps, huge_exps)), max_size=12)
coords = st.one_of(st.integers(-10**9, 10**9), st.integers(-2**5000, 2**5000))
vectors = st.builds(InnerVector, coords, coords)
twisted_sections = vectors.map(lambda a: cocycles.twist(
    cocycles.canonical_section(), cocycles.coboundary(a)))
automorphisms = st.builds(
    lambda pairs, r, u: Automorphism(gl2.eval_letters(pairs), r, u),
    st.lists(st.tuples(st.sampled_from(LETTERS), small_exps), max_size=6),
    coords, coords)

# conjugates of matrices with no eigenvalue off the unit circle, whose
# 2^70-th powers stay small enough to write down
P = gl2.eval_word(gl2.parse_word("A^3 B^-2 D A B^5 A^-1 B"))
CORES = (gl2.A ** 5, gl2.mat_multiply(gl2.D, gl2.A ** -2),
         gl2.eval_word(gl2.parse_word("A B")), gl2.IDENTITY)
tame_automorphisms = st.builds(
    lambda core, r, u: Automorphism(P * core * P.inverse(), r, u),
    st.sampled_from(CORES), coords, coords)

BIG = 2**5000 - 3


def word(length: int, det: int, seed: int = 0) -> list:
    # neighbouring letters differ, so nothing cancels; a kappa letter
    # last sets the determinant
    rng = random.Random(seed)
    pairs, prev = [], None
    for _ in range(length):
        sym = rng.choice([s for s in LETTERS if s is not prev])
        pairs.append((sym, rng.choice((1, -1)) * rng.randint(1, 9)))
        prev = sym
    if pairs:
        odd = sum(exp for sym, exp in pairs[:-1] if sym is Letter.KAPPA) % 2
        pairs[-1] = (Letter.KAPPA, 1 if odd == (det == 1) else 2)
    return pairs


LENGTHS = (0, 1, 31, 32, 33, 64, 65, 3000)
CASES = [(n, det) for n in LENGTHS for det in (1, -1) if n or det == 1]


# -- gl2.eval_letters ------------------------------------------------------------

class TestEvalLetters:
    @pytest.mark.parametrize("length, det", CASES)
    def test_run_lengths(self, length, det):
        raw = word(length, det, seed=length)
        m = gl2.eval_letters(raw)
        assert m.det == det
        assert m == column_fold(raw)

    @given(raw_words)
    def test_random_words(self, raw):
        assert gl2.eval_letters(raw) == column_fold(raw)

    @given(st.lists(st.tuples(st.sampled_from(LETTERS), huge_exps),
                    min_size=33, max_size=140))
    @settings(max_examples=settings().max_examples // 5)
    def test_long_words_with_huge_exponents(self, raw):
        assert gl2.eval_letters(raw) == column_fold(raw)

    @pytest.mark.parametrize("name, pairs", gl2.RELATORS)
    def test_relators(self, name, pairs):
        assert gl2.eval_letters(pairs) == column_fold(pairs) == gl2.IDENTITY

    @pytest.mark.parametrize("length", [10, 100])
    def test_iterators_are_read_once(self, length):
        raw = word(length, -1, seed=7)
        assert gl2.eval_letters(iter(raw)) == column_fold(raw)
        assert gl2.eval_letters(pair for pair in raw) == column_fold(raw)

    @pytest.mark.parametrize("length", [5, 100])
    def test_str_rejected(self, length):
        with pytest.raises(TypeError, match="not a str"):
            gl2.eval_letters("A" * length)

    @pytest.mark.parametrize("wrap", [list, tuple, iter], ids=lambda f: f.__name__)
    def test_first_bad_letter_raises(self, wrap):
        # a bad symbol at letter 40, in the second run, raises as the
        # single pass would, before the bad exponent at letter 50
        raw = word(100, 1)
        raw[39], raw[49] = ("A", 1), (Letter.RHO, 1.0)
        with pytest.raises(TypeError, match="word symbol must be a Letter, got 'A'"):
            gl2.eval_letters(wrap(raw))
        raw[39] = (Letter.TAU, True)
        with pytest.raises(TypeError, match="exponent must be an int, got bool"):
            gl2.eval_letters(wrap(raw))

    def test_one_run_makes_no_product(self, monkeypatch):
        calls = []
        mat_mul = gl2.kernels.mat_mul
        monkeypatch.setattr(gl2.kernels, "mat_mul",
                            lambda *a: calls.append(1) or mat_mul(*a))
        gl2.eval_letters(word(gl2._RUN, 1))
        assert calls == []
        gl2.eval_letters(word(4 * gl2._RUN + 1, 1))
        assert len(calls) == 4  # five runs, multiplied in pairs


# -- cocycles._extend_values -------------------------------------------------------

class TestExtendValues:
    @given(vectors, vectors, vectors, raw_words)
    def test_any_triple(self, v_rho, v_tau, v_kappa, raw):
        # the fold is defined for every triple, a cocycle or not
        assert cocycles._extend_values(v_rho, v_tau, v_kappa, raw) == \
            extend_by_values(v_rho, v_tau, v_kappa, raw)

    @pytest.mark.parametrize("name, pairs", gl2.RELATORS)
    def test_relators(self, name, pairs):
        v = InnerVector
        for triple in ((v(BIG, -BIG), v(3, 0), v(0, -BIG)),
                       (v(0, 1), ZERO_VECTOR, ZERO_VECTOR),
                       (ZERO_VECTOR, ZERO_VECTOR, v(0, 1))):
            assert cocycles._extend_values(*triple, pairs) == \
                extend_by_values(*triple, pairs)

    @pytest.mark.parametrize("length, det", CASES)
    def test_run_lengths(self, length, det):
        triple = (InnerVector(BIG, 7), InnerVector(-3, BIG), InnerVector(1, -1))
        raw = word(length, det, seed=length)
        assert cocycles._extend_values(*triple, raw) == extend_by_values(*triple, raw)


# -- aut._compose_power and SectionOnGenerators.eval_letters -----------------------

class TestComposeFolds:
    @given(automorphisms, st.integers(-40, 40))
    def test_compose_power(self, omega, n):
        assert aut._compose_power(omega, n) == power_by_compose(omega, n)

    @given(tame_automorphisms, huge_exps)
    def test_compose_power_huge_exponents(self, omega, n):
        assert aut._compose_power(omega, n) == power_by_compose(omega, n)

    @given(twisted_sections, raw_words)
    @settings(max_examples=settings().max_examples // 2)
    def test_twisted_sections(self, alpha, raw):
        assert alpha.eval_letters(raw) == section_by_compose(alpha, raw)

    @pytest.mark.parametrize("name, pairs", gl2.RELATORS)
    def test_relators(self, name, pairs):
        for alpha in (cocycles.canonical_section(),
                      cocycles.twist(cocycles.canonical_section(),
                                     cocycles.coboundary(InnerVector(BIG, -BIG)))):
            assert alpha.eval_letters(pairs) == section_by_compose(alpha, pairs) \
                == IDENTITY_AUT

    @pytest.mark.parametrize("length, det", CASES)
    def test_run_lengths(self, length, det):
        alpha = cocycles.twist(cocycles.canonical_section(),
                               cocycles.coboundary(InnerVector(-BIG, 5)))
        raw = word(length, det, seed=length)
        folded = alpha.eval_letters(raw)
        assert folded == section_by_compose(alpha, raw)
        assert aut.project(folded) == column_fold(raw)

    def test_errors(self):
        alpha = cocycles.canonical_section()
        with pytest.raises(TypeError, match="word symbol must be a Letter"):
            alpha.eval_letters(((Letter.RHO, 1), ("A", 1)))
        with pytest.raises(TypeError, match="n must be an int, got float"):
            alpha.eval_letters(((Letter.RHO, 1), (Letter.TAU, 1.0)))
        with pytest.raises(TypeError, match="n must be an int, got bool"):
            alpha.eval_letters(((Letter.RHO, True),))
        with pytest.raises(TypeError, match="n must be an int, got bool"):
            aut._compose_power(aut.rd(1), True)
        with pytest.raises(TypeError, match="n must be an int, got float"):
            aut._compose_power(aut.rd(1), 1.0)
