import dis
import random
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heisaut import cocycles, gl2, verify
from heisaut.gl2 import (
    A,
    B,
    D,
    EMPTY_WORD,
    IDENTITY,
    GeneratorWord,
    Gl2Matrix,
    Letter,
    check_presentation_relations,
    decompose,
    eval_letters,
    eval_word,
    format_matrix,
    format_word,
    mat_inverse,
    mat_multiply,
    parse_matrix,
    parse_word,
)

letter_pairs = st.tuples(
    st.sampled_from(tuple(Letter)),
    st.integers(min_value=-9, max_value=9),
)
raw_words = st.lists(letter_pairs, max_size=20)
# every matrix in the group is a word in the generators, so this
# sampler covers GL(2,Z) without rejection
matrices = st.builds(lambda raw: eval_letters(raw), raw_words)


def generator_product(raw) -> Gl2Matrix:
    # oracle for eval_letters: Gl2Matrix powers through mat_multiply
    generator = {Letter.RHO: A, Letter.TAU: B, Letter.KAPPA: D}
    product = IDENTITY
    for sym, exp in raw:
        product = mat_multiply(product, generator[sym] ** exp)
    return product


class TestMatrix:
    def test_constants(self):
        assert A == Gl2Matrix(1, 1, 0, 1)
        assert B == Gl2Matrix(1, 0, -1, 1)
        assert D == Gl2Matrix(-1, 0, 0, 1)
        assert (A.det, B.det, D.det) == (1, 1, -1)

    def test_rejects_wrong_determinant(self):
        with pytest.raises(ValueError):
            Gl2Matrix(0, 0, 0, 0)
        with pytest.raises(ValueError):
            Gl2Matrix(2, 0, 0, 1)

    def test_products(self):
        assert mat_multiply(IDENTITY, D) == D
        # hand product: rows of A against columns of B
        assert mat_multiply(A, B) == Gl2Matrix(0, 1, -1, 1)
        assert mat_multiply(D, D) == IDENTITY

    def test_inverses(self):
        assert mat_inverse(IDENTITY) == IDENTITY
        assert mat_inverse(A) == Gl2Matrix(1, -1, 0, 1)
        assert mat_inverse(D) == D

    @given(matrices, matrices)
    def test_det_multiplicative(self, m1, m2):
        assert mat_multiply(m1, m2).det == m1.det * m2.det

    @given(matrices)
    def test_inverse_roundtrip(self, m):
        assert mat_multiply(m, mat_inverse(m)) == IDENTITY
        assert mat_multiply(mat_inverse(m), m) == IDENTITY

    @given(matrices, st.integers(min_value=-6, max_value=6))
    def test_pow_matches_repeated_product(self, m, n):
        base = m if n >= 0 else mat_inverse(m)
        acc = IDENTITY
        for _ in range(abs(n)):
            acc = mat_multiply(acc, base)
        assert m ** n == acc


class TestWordNormalization:
    def test_merges_and_drops(self):
        w = GeneratorWord((
            (Letter.RHO, 2), (Letter.RHO, 3), (Letter.TAU, 0),
            (Letter.KAPPA, 1), (Letter.KAPPA, 1), (Letter.TAU, 1),
        ))
        assert w.letters == ((Letter.RHO, 5), (Letter.TAU, 1))

    def test_cancellation_cascades(self):
        w = GeneratorWord((
            (Letter.RHO, 1), (Letter.TAU, 2), (Letter.TAU, -2), (Letter.RHO, -1),
        ))
        assert w == EMPTY_WORD

    def test_kappa_exponents_fold_mod_two(self):
        assert GeneratorWord(((Letter.KAPPA, -3),)).letters == ((Letter.KAPPA, 1),)
        assert GeneratorWord(((Letter.KAPPA, 4),)) == EMPTY_WORD

    @given(raw_words)
    def test_idempotent_and_evaluation_invariant(self, raw):
        w = GeneratorWord(tuple(raw))
        assert GeneratorWord(w.letters) == w
        assert eval_word(w) == eval_letters(raw)

    @given(raw_words)
    def test_normal_form_invariants(self, raw):
        w = GeneratorWord(tuple(raw))
        for i, (sym, exp) in enumerate(w.letters):
            assert exp != 0
            if sym is Letter.KAPPA:
                assert exp == 1
            if i > 0:
                assert w.letters[i - 1][0] is not sym

    @given(raw_words, raw_words)
    def test_concatenation_is_multiplicative(self, raw1, raw2):
        w1, w2 = GeneratorWord(tuple(raw1)), GeneratorWord(tuple(raw2))
        assert eval_word(w1 * w2) == mat_multiply(eval_word(w1), eval_word(w2))


class TestEvalWord:
    def test_fixed_values(self):
        assert eval_word(EMPTY_WORD) == IDENTITY
        # matrix-product oracle: A*B = [[0,1],[-1,1]], then *A
        assert eval_word(parse_word("A B A")) == Gl2Matrix(0, 1, -1, 0)
        assert eval_letters(((Letter.KAPPA, 1), (Letter.KAPPA, 1))) == IDENTITY

    @given(st.sampled_from(tuple(Letter)), st.integers(-30, 30))
    def test_letter_powers_match_repeated_product(self, sym, exp):
        single = eval_letters(((sym, 1),))
        assert eval_letters(((sym, exp),)) == single ** exp

    @given(raw_words)
    def test_matches_product_of_generator_powers(self, raw):
        assert eval_letters(raw) == generator_product(raw)

    def test_long_word_with_huge_exponents(self):
        syms = (Letter.RHO, Letter.TAU, Letter.KAPPA)
        raw = [(syms[i % 3], (-1) ** i * ((1 << 2000) + i)) for i in range(30)]
        raw += [(syms[i % 3], i % 7 - 3) for i in range(3000)]
        assert eval_letters(raw) == generator_product(raw)

    @pytest.mark.parametrize("raw", [
        (("X", 1),),
        (("A", 1),),  # the display character, not the Letter
        ((Letter.RHO, 1), (None, 2)),
        ((Letter.KAPPA, True),),
        ((Letter.RHO, False),),
        ((Letter.TAU, 1.0),),
    ], ids=["unknown", "display-char", "none", "kappa-bool", "rho-bool",
            "float"])
    def test_rejects_non_letter_symbols_and_exponents(self, raw):
        with pytest.raises(TypeError):
            eval_letters(raw)

    @given(raw_words)
    def test_det_counts_kappa_letters(self, raw):
        kappa_exp = sum(exp for sym, exp in raw if sym is Letter.KAPPA)
        assert eval_letters(raw).det == (-1 if kappa_exp % 2 else 1)


class TestDecompose:
    def test_identity_gives_empty_word(self):
        assert decompose(IDENTITY) == EMPTY_WORD

    def test_generator_power_stays_single_letter(self):
        assert decompose(Gl2Matrix(1, 5, 0, 1)) == parse_word("A^5")

    def test_quarter_turn_roundtrips(self):
        m = Gl2Matrix(0, 1, -1, 0)
        assert eval_word(decompose(m)) == m

    @given(matrices)
    def test_left_strategy_roundtrip(self, m):
        assert eval_word(decompose(m, "left")) == m

    @given(matrices)
    def test_right_strategy_roundtrip(self, m):
        assert eval_word(decompose(m, "right")) == m

    def test_negative_identity(self):
        m = Gl2Matrix(-1, 0, 0, -1)
        for strategy in ("left", "right"):
            assert eval_word(decompose(m, strategy)) == m

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            decompose(A, "diagonal")


def two_pass_decompose(m: Gl2Matrix, strategy: str) -> tuple:
    # decompose as it was first written, the reference for the one-pass
    # word: the raw Euclid letters with // and explicit remainders, the
    # residual appended, then GeneratorWord's normalization
    rtr2 = [(Letter.RHO, 1), (Letter.TAU, 1), (Letter.RHO, 1)] * 2
    m11, m12, m21, m22 = m.entries()
    raw = []
    if strategy == "left":
        if m.det == -1:
            raw.append((Letter.KAPPA, 1))
            m11, m12 = -m11, -m12
        while m21 != 0:
            if m11 == 0:
                m11, m12 = m11 + m21, m12 + m22
                raw.append((Letter.RHO, -1))
                continue
            q = m21 // m11
            m21, m22 = m21 - q * m11, m22 - q * m12
            raw.append((Letter.TAU, -q))
            if m21 == 0:
                break
            q = m11 // m21
            m11, m12 = m11 - q * m21, m12 - q * m22
            raw.append((Letter.RHO, q))
        raw += [(Letter.RHO, m12)] if m11 == 1 else rtr2 + [(Letter.RHO, -m12)]
    else:
        tail = []
        if m.det == -1:
            tail.append((Letter.KAPPA, 1))
            m11, m21 = -m11, -m21
        factors = []
        while m12 != 0:
            if m11 == 0:
                m11, m21 = m11 + m12, m21 + m22
                factors.append((Letter.TAU, -1))
                continue
            q = m12 // m11
            m12, m22 = m12 - q * m11, m22 - q * m21
            factors.append((Letter.RHO, -q))
            if m12 == 0:
                break
            q = m11 // m12
            m11, m21 = m11 - q * m12, m21 - q * m22
            factors.append((Letter.TAU, q))
        residual = ([(Letter.TAU, -m21)] if m11 == 1
                    else rtr2 + [(Letter.TAU, m21)])
        raw = residual + [(sym, -exp) for sym, exp in reversed(factors)] + tail
    return GeneratorWord(tuple(raw)).letters, len(raw)


def box_matrices(bound: int):
    # every matrix of GL(2,Z) with entries in [-bound, bound]
    span = range(-bound, bound + 1)
    return [Gl2Matrix(a, b, c, d) for a in span for b in span for c in span
            for d in span if a * d - b * c in (1, -1)]


def long_word(length: int, seed: int):
    # neighbouring letters differ, so nothing cancels
    rng = random.Random(seed)
    pairs, prev = [], None
    for _ in range(length):
        sym = rng.choice([s for s in Letter if s is not prev])
        pairs.append((sym, rng.choice((1, -1)) * rng.randint(1, 9)))
        prev = sym
    return pairs


STRATEGIES = ("left", "right")


class TestDecomposeMatchesTwoPass:
    """The one-pass word equals the raw Euclid word after normalization."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_box(self, strategy):
        # zero corners, det -1, q == 0 first steps and both residuals
        merged = 0
        for m in box_matrices(5):
            want, raw_length = two_pass_decompose(m, strategy)
            assert decompose(m, strategy).letters == want
            merged += raw_length > len(want)
        # the box reaches the merging steps, not only clean Euclid runs
        assert merged > 100

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("length", [1000, 3000])
    @pytest.mark.parametrize("det", [1, -1])
    def test_long_words(self, strategy, length, det):
        m = eval_letters(long_word(length, seed=length + det))
        if m.det != det:
            m = mat_multiply(m, D)
        assert decompose(m, strategy).letters == two_pass_decompose(m, strategy)[0]

    @given(matrices, st.sampled_from(STRATEGIES))
    def test_random(self, m, strategy):
        assert decompose(m, strategy).letters == two_pass_decompose(m, strategy)[0]

    @given(st.lists(st.tuples(st.sampled_from(tuple(Letter)),
                              st.integers(-2**70, 2**70)), max_size=8),
           st.sampled_from(STRATEGIES))
    def test_huge_quotients(self, raw, strategy):
        m = eval_letters(raw)
        assert decompose(m, strategy).letters == two_pass_decompose(m, strategy)[0]


class TestRelations:
    def test_all_five_relators_hold(self):
        checks = check_presentation_relations()
        assert len(checks) == 5
        for check in checks:
            assert check.ok, check.name
            assert check.product == IDENTITY

    def test_relator_names_cover_presentation(self):
        names = [c.name for c in check_presentation_relations()]
        assert names == [
            "rho tau rho = tau rho tau",
            "(rho tau rho)^4 = 1",
            "kappa tau kappa^-1 = tau^-1",
            "kappa rho kappa^-1 = rho^-1",
            "kappa^2 = 1",
        ]

    def test_braid_equality_directly(self):
        aba = mat_multiply(mat_multiply(A, B), A)
        bab = mat_multiply(mat_multiply(B, A), B)
        assert aba == bab
        assert aba ** 4 == IDENTITY

    def test_kappa_conjugation_inverts_generators(self):
        for g in (A, B):
            assert mat_multiply(mat_multiply(D, g), mat_inverse(D)) == \
                mat_inverse(g)


class TestSyntax:
    def test_matrix_roundtrip_fixed(self):
        for text in ["[[1,0],[0,1]]", "[[0,1],[-1,0]]", "[[1,-5],[0,1]]"]:
            assert format_matrix(parse_matrix(text)) == text

    def test_word_roundtrip_fixed(self):
        assert format_word(parse_word("A B A D A^-3")) == "A B A D A^-3"
        assert parse_word("") == EMPTY_WORD
        assert parse_word("   ") == EMPTY_WORD

    @given(matrices)
    def test_matrix_roundtrip(self, m):
        assert parse_matrix(format_matrix(m)) == m

    @given(raw_words)
    def test_word_roundtrip(self, raw):
        w = GeneratorWord(tuple(raw))
        assert parse_word(format_word(w)) == w

    @pytest.mark.parametrize("bad", ["[[1,0],[0]]", "[[1,0],[0,2]]", "[1,0,0,1]",
                                     "[[a,0],[0,1]]"])
    def test_bad_matrix_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_matrix(bad)

    @pytest.mark.parametrize("bad", ["E", "A^", "A^x", "AB^2C", "rho"])
    def test_bad_word_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_word(bad)


@given(matrices)
def test_decomposition_word_only_uses_presentation_letters(m):
    for sym, exp in decompose(m).letters:
        assert sym in (Letter.RHO, Letter.TAU, Letter.KAPPA)
        assert exp != 0


def _attribute_loads(code):
    # the attribute names a function loads, its nested code included
    for ins in dis.get_instructions(code):
        if ins.opname in ("LOAD_ATTR", "LOAD_METHOD"):
            yield ins.argval
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _attribute_loads(const)


@pytest.mark.parametrize("fn", [
    gl2.eval_letters, gl2._normalize, gl2._decompose_left, gl2._decompose_right,
    gl2.format_word, cocycles._by_letter, verify._rand_pairs,
], ids=lambda fn: fn.__qualname__)
def test_hot_loops_read_no_enum_attribute(fn):
    # on Python 3.10 and 3.11 each Letter.X read goes through the enum
    # metaclass, which made these loops 1.3-2x slower; they use the
    # module constants _RHO, _TAU and _KAPPA instead
    loads = set(_attribute_loads(fn.__code__))
    assert not loads & {"RHO", "TAU", "KAPPA", "value"}
