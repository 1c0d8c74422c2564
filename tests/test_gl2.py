import dis
import random
import types

import pytest
from hypothesis import given, settings
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
    _affine_power,
    _power_by_type,
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


# one matrix of each conjugacy class of finite order in GL(2,Z), with
# its order p; -I has trace -2 and takes the parabolic branch
FINITE_ORDER = (
    (4, Gl2Matrix(0, 1, -1, 0)), (6, Gl2Matrix(0, 1, -1, 1)),
    (3, Gl2Matrix(0, 1, -1, -1)), (2, Gl2Matrix(-1, 0, 0, -1)),
    (2, Gl2Matrix(0, 1, 1, 0)), (2, D),
)
FINITE_IDS = ["order-4", "order-6", "order-3", "minus-I", "swap", "D"]
# conjugators for the fixed cases, both determinants
CONJUGATORS = (IDENTITY, eval_word(parse_word("A^3 B^-2 D A B^5 A^-1 B")),
               eval_word(parse_word("B^7 A^-4 B A^2")))
BIG_V = (2**5000 + 1, -(3**3100))
huge = st.integers(min_value=-2**5000, max_value=2**5000)
# small exponents, and exponents up to 2^2000
exponents = st.one_of(st.integers(0, 70), st.integers(0, 2**2000))


def conjugate(p: Gl2Matrix, core: Gl2Matrix) -> Gl2Matrix:
    return mat_multiply(mat_multiply(p, core), mat_inverse(p))


def shear(sign: int, d: int) -> Gl2Matrix:
    # +-rd(d)'s matrix, parabolic of trace 2 * sign
    return Gl2Matrix(sign, sign * d, 0, sign)


class TestPowerByType:
    # _power_by_type against the generic square-and-multiply

    @settings(max_examples=settings().max_examples // 4, deadline=None)
    @given(matrices, st.sampled_from((1, -1)),
           st.integers(min_value=-2**2000, max_value=2**2000), huge, huge, exponents)
    def test_parabolic(self, p, sign, d, v1, v2, n):
        m = conjugate(p, shear(sign, d)).entries()
        assert _power_by_type(m, (v1, v2), n) == _affine_power(m, (v1, v2), n)

    @settings(max_examples=settings().max_examples // 2, deadline=None)
    @given(matrices, st.sampled_from(FINITE_ORDER), huge, huge, exponents)
    def test_finite_order(self, p, core, v1, v2, n):
        m = conjugate(p, core[1]).entries()
        assert _power_by_type(m, (v1, v2), n) == _affine_power(m, (v1, v2), n)

    @pytest.mark.parametrize("p, core", FINITE_ORDER, ids=FINITE_IDS)
    def test_finite_order_edges(self, p, core):
        for conj in CONJUGATORS:
            m = conjugate(conj, core)
            assert m ** p == IDENTITY
            for n in (0, 1, p - 1, p, p + 1):
                got = _power_by_type(m.entries(), BIG_V, n)
                assert got == _affine_power(m.entries(), BIG_V, n)
                product = IDENTITY
                for _ in range(n):
                    product = mat_multiply(product, m)
                assert m ** n == product
                assert m ** -n == mat_inverse(product)

    @given(matrices, huge, huge, st.integers(0, 40))
    def test_hyperbolic_falls_through(self, m, v1, v2, n):
        # every matrix a word gives, hyperbolic ones among them
        assert _power_by_type(m.entries(), (v1, v2), n) == \
            _affine_power(m.entries(), (v1, v2), n)

    def test_hyperbolic_runs_the_generic_route(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gl2, "_affine_power",
                            lambda *args: calls.append(args) or ((1, 0, 0, 1), (0, 0)))
        for m in (Gl2Matrix(2, 1, 1, 1), Gl2Matrix(1, 1, 1, 0),
                  Gl2Matrix(2, 1, 1, 0), Gl2Matrix(0, 1, -1, 3)):
            calls.clear()
            _power_by_type(m.entries(), (5, 7), 9)
            assert calls == [(m.entries(), (5, 7), 9)]

    @settings(max_examples=settings().max_examples // 2, deadline=None)
    @given(matrices, st.sampled_from([core for _, core in FINITE_ORDER]
                                     + [shear(1, 3**500), shear(-1, -(5**300))]),
           st.integers(0, 2**2000))
    def test_negative_pow(self, p, core, n):
        m = conjugate(p, core)
        inverse_power = _affine_power(mat_inverse(m).entries(), (0, 0), n)[0]
        assert m ** -n == Gl2Matrix(*inverse_power)
        assert mat_multiply(m ** n, m ** -n) == IDENTITY


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

    def test_len_counts_normalized_letters(self):
        w = GeneratorWord(((Letter.RHO, 2), (Letter.RHO, 3), (Letter.KAPPA, 1)))
        assert len(w) == len(w.letters) == 2
        assert len(EMPTY_WORD) == 0

    def test_rejects_non_letter_symbol(self):
        with pytest.raises(TypeError) as info:
            GeneratorWord([("A", 1)])
        assert str(info.value) == "word symbol must be a Letter, got 'A'"

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

# (unit, k) -> matrix, for unit = +-1 and |k| <= 30
EDGE_FAMILIES = {
    # a zero corner at the start, reached with m22 != 0, at det 1 and -1
    "zero-corner": lambda unit, k: Gl2Matrix(0, unit, -unit, k),
    "zero-corner-det-minus-1": lambda unit, k: Gl2Matrix(0, unit, unit, k),
    # already triangular: the residual alone, or one step then the residual
    "upper": lambda unit, k: Gl2Matrix(unit, k, 0, unit),
    "lower": lambda unit, k: Gl2Matrix(unit, 0, k, unit),
}


class TestDecomposeMatchesTwoPass:
    """The one-pass word equals the raw Euclid word after normalization."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_box(self, strategy):
        # zero corners, det -1, q == 0 first steps and both residuals
        merged = 0
        for m in box_matrices(10):
            want, raw_length = two_pass_decompose(m, strategy)
            assert decompose(m, strategy).letters == want
            merged += raw_length > len(want)
        # the box reaches the merging steps, not only clean Euclid runs
        assert merged > 100

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("family", sorted(EDGE_FAMILIES))
    def test_edge_families(self, family, strategy):
        for unit in (1, -1):
            for k in range(-30, 31):
                m = EDGE_FAMILIES[family](unit, k)
                assert decompose(m, strategy).letters == two_pass_decompose(m, strategy)[0], m

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
    gl2.eval_letters, gl2._normalize, gl2._emit, gl2._euclid,
    gl2._decompose_left, gl2._decompose_right,
    gl2.format_word, cocycles._by_letter, verify._rand_pairs,
], ids=lambda fn: fn.__qualname__)
def test_hot_loops_read_no_enum_attribute(fn):
    # on Python 3.10 and 3.11 each Letter.X read goes through the enum
    # metaclass, which made these loops 1.3-2x slower; they use the
    # module constants _RHO, _TAU and _KAPPA instead
    loads = set(_attribute_loads(fn.__code__))
    assert not loads & {"RHO", "TAU", "KAPPA", "value"}
