import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisaut import gl2
from heisaut.aut import (
    IDENTITY_AUT,
    _compose_power,
    Automorphism,
    InnerVector,
    act,
    apply,
    center_image,
    compose,
    format_automorphism,
    inner,
    invert,
    is_aut_plus,
    normal_form,
    parse_automorphism,
    parse_pair,
    power,
    project,
    rd,
    section,
)
from heisaut.cocycles import canonical_section
from heisaut.gl2 import Letter, _affine_power, _power_by_type
from heisaut.heis import IDENTITY, X, Y, Z, HeisElement, inverse, multiply
from heisaut.heis import power as elem_power
from test_gl2 import long_word

ints = st.integers()
coords = st.integers(min_value=-10**9, max_value=10**9)
elements = st.builds(HeisElement, coords, coords, coords)
small_elements = st.builds(
    HeisElement, *(st.integers(min_value=-30, max_value=30),) * 3)
letter_pairs = st.tuples(st.sampled_from(tuple(Letter)),
                         st.integers(min_value=-9, max_value=9))
matrices = st.builds(
    lambda raw: gl2.eval_letters(raw), st.lists(letter_pairs, max_size=12))
small_matrices = st.builds(
    lambda raw: gl2.eval_letters(raw), st.lists(letter_pairs, max_size=5))
vectors = st.builds(InnerVector, coords, coords)
automorphisms = st.builds(Automorphism, matrices, coords, coords)
small_automorphisms = st.builds(
    Automorphism, small_matrices,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30))

SIGMA_A = section(gl2.A)
SIGMA_B = section(gl2.B)
SIGMA_D = section(gl2.D)


def word_expansion(omega: Automorphism, g: HeisElement) -> HeisElement:
    # independent oracle: push z^c y^b x^a through the generator images
    m = omega.matrix
    image_x = HeisElement(m.m11, m.m21, omega.r)
    image_y = HeisElement(m.m12, m.m22, omega.u)
    image_z = HeisElement(0, 0, m.det)
    return multiply(
        multiply(elem_power(image_z, g.c), elem_power(image_y, g.b)),
        elem_power(image_x, g.a),
    )


class TestApply:
    def test_generator_images_read_off_data(self):
        omega = Automorphism(gl2.Gl2Matrix(0, 1, -1, 0), 5, -7)
        assert apply(omega, X) == HeisElement(0, -1, 5)
        assert apply(omega, Y) == HeisElement(1, 0, -7)
        assert apply(omega, Z) == HeisElement(0, 0, 1)

    def test_fixed_section_values(self):
        assert apply(SIGMA_A, HeisElement(1, -1, 0)) == HeisElement(0, -1, 1)
        assert apply(SIGMA_D, HeisElement(1, 1, -1)) == HeisElement(-1, 1, 0)
        assert apply(SIGMA_B, HeisElement(1, 1, 0)) == HeisElement(1, 0, 0)
        assert apply(SIGMA_D, HeisElement(0, 1, -1)) == HeisElement(0, 1, 0)

    @given(elements)
    def test_identity_automorphism(self, g):
        assert apply(IDENTITY_AUT, g) == g

    @given(small_automorphisms, small_elements)
    def test_matches_word_expansion(self, omega, g):
        assert apply(omega, g) == word_expansion(omega, g)

    @given(automorphisms, elements, elements)
    def test_homomorphism(self, omega, g1, g2):
        assert apply(omega, multiply(g1, g2)) == \
            multiply(apply(omega, g1), apply(omega, g2))


class TestCompose:
    def test_identity_neutral(self):
        omega = Automorphism(gl2.B, 3, -4)
        assert compose(IDENTITY_AUT, omega) == omega
        assert compose(omega, IDENTITY_AUT) == omega

    def test_section_composite_tracks_center(self):
        # sigma(A) after sigma(B) on x: B sends x to (1,-1,0), then A
        # sends that to (0,-1,1), so the composite picks up r = 1
        composite = compose(SIGMA_A, SIGMA_B)
        assert apply(composite, X) == HeisElement(0, -1, 1)
        assert composite == Automorphism(gl2.Gl2Matrix(0, 1, -1, 1), 1, 0)

    @given(automorphisms, automorphisms, elements)
    def test_pointwise(self, omega2, omega1, g):
        assert apply(compose(omega2, omega1), g) == \
            apply(omega2, apply(omega1, g))

    @given(automorphisms, automorphisms)
    def test_matrix_part_multiplies(self, omega2, omega1):
        assert project(compose(omega2, omega1)) == \
            gl2.mat_multiply(project(omega2), project(omega1))

    @given(automorphisms, automorphisms)
    def test_mul_operator_is_compose(self, omega2, omega1):
        assert omega2 * omega1 == compose(omega2, omega1)


class TestInvert:
    def test_fixed_values(self):
        assert invert(IDENTITY_AUT) == IDENTITY_AUT
        assert invert(SIGMA_D) == SIGMA_D

    @given(automorphisms)
    def test_two_sided(self, omega):
        assert compose(invert(omega), omega) == IDENTITY_AUT
        assert compose(omega, invert(omega)) == IDENTITY_AUT

    @given(automorphisms, st.integers(min_value=-8, max_value=8))
    def test_power_matches_repeated_compose(self, omega, n):
        base = omega if n >= 0 else invert(omega)
        acc = IDENTITY_AUT
        for _ in range(abs(n)):
            acc = compose(acc, base)
        assert power(omega, n) == acc

    @given(automorphisms, st.integers(min_value=-8, max_value=8))
    def test_pow_operator_is_power(self, omega, n):
        assert omega ** n == power(omega, n)


class TestRd:
    def test_fixed_values(self):
        assert rd(0) == IDENTITY_AUT
        assert apply(rd(5), HeisElement(0, 1, 0)) == HeisElement(5, 1, 0)
        assert apply(rd(1), HeisElement(0, 2, 0)) == HeisElement(2, 2, 1)

    @given(st.integers(min_value=-10**6, max_value=10**6),
           st.integers(min_value=-10**6, max_value=10**6))
    def test_homomorphism_in_d(self, d1, d2):
        assert compose(rd(d1), rd(d2)) == rd(d1 + d2)

    @given(st.integers(min_value=-10**6, max_value=10**6), elements)
    def test_shear_formula(self, d, g):
        expected = HeisElement(
            g.a + d * g.b, g.b, g.c + (g.b * (g.b - 1) // 2) * d)
        assert apply(rd(d), g) == expected

    @given(st.integers(min_value=-10**6, max_value=10**6))
    def test_always_special(self, d):
        assert is_aut_plus(rd(d))
        assert project(rd(d)) == gl2.Gl2Matrix(1, d, 0, 1)


class TestInner:
    def test_fixed_values(self):
        assert inner(InnerVector(0, 0)) == IDENTITY_AUT
        assert apply(inner(InnerVector(1, 0)), Y) == HeisElement(0, 1, 1)

    def test_conjugator_coordinates(self):
        c1, c2 = 4, -9
        omega = inner(InnerVector(c2, -c1))
        assert apply(omega, X) == HeisElement(1, 0, c1)
        assert apply(omega, Y) == HeisElement(0, 1, c2)

    @given(vectors, elements)
    def test_matches_conjugation(self, v, g):
        h = HeisElement(v.p, v.q, 0)
        assert apply(inner(v), g) == multiply(multiply(h, g), inverse(h))

    @given(vectors)
    def test_projects_to_identity(self, v):
        assert project(inner(v)) == gl2.IDENTITY
        assert center_image(inner(v)) == 1

    @given(vectors, vectors)
    def test_theta_injective_homomorphism(self, v1, v2):
        assert compose(inner(v1), inner(v2)) == inner(v1 + v2)
        assert (inner(v1) == inner(v2)) == (v1 == v2)


class TestSection:
    def test_identity(self):
        assert section(gl2.IDENTITY) == IDENTITY_AUT

    def test_generator_images(self):
        assert SIGMA_A == Automorphism(gl2.A, 0, 0)
        assert SIGMA_B == Automorphism(gl2.B, 0, 0)
        assert SIGMA_D == Automorphism(gl2.D, 0, -1)

    def test_relator_suite_at_automorphism_level(self):
        aba = compose(SIGMA_A, compose(SIGMA_B, SIGMA_A))
        bab = compose(SIGMA_B, compose(SIGMA_A, SIGMA_B))
        assert aba == bab
        assert power(aba, 4) == IDENTITY_AUT
        assert compose(SIGMA_D, compose(SIGMA_A, invert(SIGMA_D))) == \
            invert(SIGMA_A)
        assert compose(SIGMA_D, compose(SIGMA_B, invert(SIGMA_D))) == \
            invert(SIGMA_B)
        assert compose(SIGMA_D, SIGMA_D) == IDENTITY_AUT

    def test_fixed_application_values(self):
        aba = compose(SIGMA_A, compose(SIGMA_B, SIGMA_A))
        dad = compose(SIGMA_D, compose(SIGMA_A, invert(SIGMA_D)))
        dbd = compose(SIGMA_D, compose(SIGMA_B, invert(SIGMA_D)))
        assert apply(aba, X) == HeisElement(0, -1, 1)
        assert apply(aba, Y) == HeisElement(1, 0, 0)
        assert apply(dad, Y) == HeisElement(-1, 1, 0)
        assert apply(dbd, X) == HeisElement(1, 1, 0)

    def test_quarter_turn_squared_by_direct_computation(self):
        # (ABA)^2 sends x to (-1,0,1); its fourth power is the identity
        aba = compose(SIGMA_A, compose(SIGMA_B, SIGMA_A))
        assert apply(power(aba, 2), X) == HeisElement(-1, 0, 1)
        assert elem_power(Y, -1) == HeisElement(0, -1, 0)

    @given(matrices, matrices)
    @settings(max_examples=settings().max_examples * 3 // 5)
    def test_homomorphism(self, m1, m2):
        assert section(gl2.mat_multiply(m1, m2)) == \
            compose(section(m1), section(m2))

    @given(matrices)
    def test_strategies_agree(self, m):
        # the closed form against the generator fold over both words
        alpha0 = canonical_section()
        for strategy in ("left", "right"):
            word = gl2.decompose(m, strategy)
            assert section(m) == alpha0.eval_letters(word.letters)

    @given(matrices)
    def test_projection_retracts(self, m):
        assert project(section(m)) == m


class TestExactness:
    @given(coords, coords)
    def test_kernel_elements_are_inner(self, r, u):
        omega = Automorphism(gl2.IDENTITY, r, u)
        assert omega == inner(InnerVector(u, -r))

    @given(automorphisms)
    def test_only_kernel_elements_are_inner(self, omega):
        v, m = normal_form(omega)
        assert (m == gl2.IDENTITY) == (omega == inner(v))


def compose_route(omega: Automorphism):
    # the residual omega o section(M)^-1 is inner(v), with offsets (-q, p)
    m = omega.matrix
    delta = compose(omega, invert(section(m)))
    assert delta.matrix == gl2.IDENTITY
    return InnerVector(delta.u, -delta.r), m


class TestNormalForm:
    def test_fixed_values(self):
        assert normal_form(SIGMA_D) == (InnerVector(0, 0), gl2.D)
        omega = Automorphism(gl2.IDENTITY, 3, -2)
        assert normal_form(omega) == (InnerVector(-2, -3), gl2.IDENTITY)

    @given(vectors, matrices)
    def test_roundtrip_from_pair(self, v, m):
        omega = compose(inner(v), section(m))
        assert normal_form(omega) == (v, m)

    @given(automorphisms)
    def test_roundtrip_from_automorphism(self, omega):
        v, m = normal_form(omega)
        assert compose(inner(v), section(m)) == omega

    @given(automorphisms)
    def test_closed_form_matches_compose_route(self, omega):
        assert normal_form(omega) == compose_route(omega)

    @pytest.mark.parametrize("det", [1, -1])
    def test_closed_form_at_large_size(self, det):
        # 3000-letter words and 5000-bit offsets, each determinant
        word = long_word(3000, seed=det)
        m = gl2.eval_letters(word)
        if m.det != det:
            m = gl2.mat_multiply(m, gl2.D)
        assert m.det == det
        assert max(abs(e) for e in m.entries()).bit_length() > 1000
        for r, u in ((2**5000 + 1, -(3**3100)), (0, 7), (-(5**2200), 0)):
            omega = Automorphism(m, r, u)
            v, got_m = normal_form(omega)
            assert (v, got_m) == compose_route(omega)
            assert compose(inner(v), section(m)) == omega

    @given(matrices, vectors)
    @settings(max_examples=settings().max_examples * 3 // 5)
    def test_naturality_of_matrix_action(self, m, v):
        sigma_m = section(m)
        conjugated = compose(sigma_m, compose(inner(v), invert(sigma_m)))
        assert conjugated == inner(act(m, v))


class TestCenterAndAutPlus:
    def test_fixed_values(self):
        assert center_image(IDENTITY_AUT) == 1
        assert center_image(SIGMA_D) == -1
        assert is_aut_plus(IDENTITY_AUT)
        assert not is_aut_plus(SIGMA_D)

    @given(automorphisms)
    def test_center_image_is_determinant(self, omega):
        assert center_image(omega) == project(omega).det
        assert apply(omega, Z) == HeisElement(0, 0, project(omega).det)

    @given(automorphisms)
    def test_aut_plus_iff_fixes_center(self, omega):
        assert is_aut_plus(omega) == (apply(omega, Z) == Z)


class TestSyntax:
    def test_fixed(self):
        text = "{M=[[1,0],[0,1]], r=3, u=-2}"
        omega = parse_automorphism(text)
        assert omega == Automorphism(gl2.IDENTITY, 3, -2)
        assert format_automorphism(omega) == text

    @given(automorphisms)
    def test_roundtrip(self, omega):
        assert parse_automorphism(format_automorphism(omega)) == omega

    def test_pair_parsing(self):
        assert parse_pair("(3, -2)") == InnerVector(3, -2)
        with pytest.raises(ValueError):
            parse_pair("(3, -2, 1)")

    @pytest.mark.parametrize("bad", ["{M=[[1,0],[0,1]], r=3}", "",
                                     "{M=[[1,0],[0,1]], r=x, u=0}"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_automorphism(bad)


class TestLargeSize:
    # the 4165-bit matrix of a 6000-letter word, and 5000-bit offsets
    BIG = gl2.eval_word(gl2.parse_word("A B^-1 " * 3000))
    V = InnerVector(2**5000 + 1, -(3**3100))

    @pytest.mark.parametrize("strategy", ["left", "right"])
    def test_closed_form_matches_word_fold(self, strategy):
        word = gl2.decompose(self.BIG, strategy)
        assert section(self.BIG) == \
            canonical_section().eval_letters(word.letters)

    def test_normal_form(self):
        omega = compose(inner(self.V), section(self.BIG))
        assert normal_form(omega) == (self.V, self.BIG)
        assert normal_form(invert(omega))[1] == gl2.mat_inverse(self.BIG)


class TestPowerAtLargeSize:
    # 2001-bit exponents; the matrices have no eigenvalue off the unit
    # circle (unipotent or of finite order), so M^n stays small enough
    # to write down
    N = (1 << 2000) + 3**1200
    P = gl2.eval_word(gl2.parse_word("A^3 B^-2 D A B^5 A^-1 B"))
    P_INV = gl2.mat_inverse(P)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rd(self, sign):
        n, d = sign * self.N, 3**2000 + 1
        assert power(rd(d), n) == _compose_power(rd(d), n) == rd(d * n)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("core", [
        gl2.A ** 5,                              # unipotent
        gl2.mat_multiply(gl2.D, gl2.A ** -2),    # a reflection, det -1
        gl2.eval_word(gl2.parse_word("A B")),    # order 6
        gl2.IDENTITY,                            # inner automorphisms
    ], ids=["unipotent", "reflection", "order-6", "identity"])
    def test_offsets_match_compose(self, sign, core):
        m = gl2.mat_multiply(gl2.mat_multiply(self.P, core), self.P_INV)
        omega = Automorphism(m, 2**5000 + 1, -(3**3100))
        n = sign * self.N
        assert power(omega, n) == _compose_power(omega, n)


def expansion_offset(m: gl2.Gl2Matrix, r: int, u: int, a: int, b: int) -> int:
    # the offset omega gives (a, b, 0), in the C(a,2) expansion of
    # omega(y)^b * omega(x)^a that apply() was first written with
    return (a * r + b * u + a * (a - 1) // 2 * m.m11 * m.m21
            + b * (b - 1) // 2 * m.m12 * m.m22 + a * b * m.m12 * m.m21)


# 5000-bit coordinates, zero, and small ones
big = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3),
                st.integers(min_value=-2**5000, max_value=2**5000))
# long-word matrices of both determinants, words with 5000-bit
# exponents, and small det -1 matrices with zero entries
big_matrices = st.one_of(
    st.builds(lambda length, seed, kappa: gl2.eval_letters(
        long_word(length, seed) + [(Letter.KAPPA, kappa)]),
        st.integers(0, 1500), st.integers(0, 2**32), st.integers(0, 1)),
    st.lists(st.tuples(st.sampled_from(tuple(Letter)), big),
             max_size=5).map(gl2.eval_letters),
    st.sampled_from((gl2.D, gl2.Gl2Matrix(0, 1, 1, 0),
                     gl2.Gl2Matrix(0, -1, -1, 0), gl2.Gl2Matrix(1, 0, 7, -1))),
)
big_automorphisms = st.builds(Automorphism, big_matrices, big, big)


def expected_apply(omega: Automorphism, a: int, b: int, c: int) -> HeisElement:
    m = omega.matrix
    return HeisElement(a * m.m11 + b * m.m12, a * m.m21 + b * m.m22,
                       m.det * c + expansion_offset(m, omega.r, omega.u, a, b))


def expected_compose(omega2: Automorphism, omega1: Automorphism) -> Automorphism:
    n, m = omega2.matrix, omega1.matrix
    offset = lambda a, b: expansion_offset(n, omega2.r, omega2.u, a, b)
    return Automorphism(gl2.mat_multiply(n, m),
                        n.det * omega1.r + offset(m.m11, m.m21),
                        n.det * omega1.u + offset(m.m12, m.m22))


def expected_invert(omega: Automorphism) -> Automorphism:
    m, inv = omega.matrix, gl2.mat_inverse(omega.matrix)
    offset = lambda a, b: expansion_offset(m, omega.r, omega.u, a, b)
    return Automorphism(inv, -m.det * offset(inv.m11, inv.m21),
                        -m.det * offset(inv.m12, inv.m22))


class TestProductFormOffsets:
    """apply, compose and invert equal the C(a,2) expansion of the offsets."""

    @settings(deadline=None)
    @given(big_automorphisms, big, big, big)
    def test_apply(self, omega, a, b, c):
        assert apply(omega, HeisElement(a, b, c)) == expected_apply(omega, a, b, c)

    @settings(deadline=None)
    @given(big_automorphisms, big_automorphisms)
    def test_compose(self, omega2, omega1):
        assert compose(omega2, omega1) == expected_compose(omega2, omega1)

    @settings(deadline=None)
    @given(big_automorphisms)
    def test_invert(self, omega):
        assert invert(omega) == expected_invert(omega)

    @pytest.mark.parametrize("det", [1, -1])
    def test_at_5000_bits(self, det):
        # 1000- and 3000-letter words, 5000-bit offsets and coordinates
        rng = random.Random(det)
        big_int = lambda: rng.choice((1, -1)) * (rng.getrandbits(5000) | 1 << 4999)
        omegas = []
        for length in (1000, 3000):
            m = gl2.eval_letters(long_word(length, seed=length + det))
            if m.det != det:
                m = gl2.mat_multiply(m, gl2.D)
            omegas.append(Automorphism(m, big_int(), big_int()))
        for omega in omegas:
            a, b, c = big_int(), big_int(), big_int()
            assert apply(omega, HeisElement(a, b, c)) == expected_apply(omega, a, b, c)
            assert invert(omega) == expected_invert(omega)
        for omega2, omega1 in (omegas, omegas[::-1]):
            assert compose(omega2, omega1) == expected_compose(omega2, omega1)


# every det +-1 matrix with entries in [-10, 10] (2024 of them): zero
# entries and every parity pattern, where the halvings in the column
# product forms could go wrong; and the 40 with entries in [-1, 1]
BOX = [gl2.Gl2Matrix(*e) for e in itertools.product(range(-10, 11), repeat=4)
       if e[0] * e[3] - e[1] * e[2] in (1, -1)]
UNIT_BOX = [m for m in BOX if max(map(abs, m.entries())) <= 1]
SMALL = range(-2, 3)


class TestOffsetsOnTheBox:
    """apply, compose and invert equal the C(a,2) expansion on every box
    matrix, with offsets and coordinates from -2 to 2."""

    def test_box_size(self):
        assert (len(BOX), len(UNIT_BOX)) == (2024, 40)

    def test_apply(self):
        # every (a, b) on every matrix; r, u and c enter linearly and
        # cycle through their values
        rest = itertools.cycle(itertools.product(SMALL, repeat=3))
        for m in BOX:
            for a, b in itertools.product(SMALL, SMALL):
                r, u, c = next(rest)
                omega = Automorphism(m, r, u)
                assert apply(omega, HeisElement(a, b, c)) == \
                    expected_apply(omega, a, b, c), (omega, a, b, c)

    def test_compose(self):
        # every box matrix on either side of every unit-box matrix
        offsets = itertools.cycle(itertools.product(SMALL, repeat=4))
        for m in BOX:
            for k in UNIT_BOX:
                for n2, n1 in ((m, k), (k, m)):
                    r2, u2, r1, u1 = next(offsets)
                    omega2, omega1 = Automorphism(n2, r2, u2), Automorphism(n1, r1, u1)
                    assert compose(omega2, omega1) == \
                        expected_compose(omega2, omega1), (omega2, omega1)

    def test_invert(self):
        for m in BOX:
            for r, u in itertools.product(SMALL, SMALL):
                omega = Automorphism(m, r, u)
                assert invert(omega) == expected_invert(omega), omega


def naive_affine_power(m, v, n):
    # (M^n, S_n v) by n steps of x -> M x + v
    p, s = (1, 0, 0, 1), (0, 0)
    for _ in range(n):
        s = (s[0] + p[0] * v[0] + p[1] * v[1], s[1] + p[2] * v[0] + p[3] * v[1])
        p = (p[0] * m[0] + p[1] * m[2], p[0] * m[1] + p[1] * m[3],
             p[2] * m[0] + p[3] * m[2], p[2] * m[1] + p[3] * m[3])
    return p, s


class TestAffinePower:
    @given(matrices, big, big, st.integers(0, 70))
    def test_matches_naive_loop(self, m, v1, v2, n):
        assert _affine_power(m.entries(), (v1, v2), n) == \
            naive_affine_power(m.entries(), (v1, v2), n)

    @pytest.mark.parametrize("n", [0, 1, 2, 2**2000 - 1, 2**2000, 3**1300],
                             ids=["0", "1", "2", "2^2000-1", "2^2000", "3^1300"])
    def test_shear_at_large_exponents(self, n):
        # A^n = [[1, n], [0, 1]], so S_n v = (n v1 + C(n,2) v2, n v2)
        v1, v2 = 2**5000 + 1, -(3**3100)
        assert _affine_power(gl2.A.entries(), (v1, v2), n) == \
            ((1, n, 0, 1), (n * v1 + n * (n - 1) // 2 * v2, n * v2))


# one matrix of each conjugacy class of finite order in GL(2,Z), with
# its order p (-I takes the parabolic branch), and two parabolic cores
FINITE_ORDER = (
    (4, gl2.Gl2Matrix(0, 1, -1, 0)), (6, gl2.Gl2Matrix(0, 1, -1, 1)),
    (3, gl2.Gl2Matrix(0, 1, -1, -1)), (2, gl2.Gl2Matrix(-1, 0, 0, -1)),
    (2, gl2.Gl2Matrix(0, 1, 1, 0)), (2, gl2.D),
)
FINITE_IDS = ["order-4", "order-6", "order-3", "minus-I", "swap", "D"]
cores = st.one_of(
    st.sampled_from([m for _, m in FINITE_ORDER]),
    st.builds(lambda sign, d: gl2.Gl2Matrix(sign, sign * d, 0, sign),
              st.sampled_from((1, -1)),
              st.integers(min_value=-2**2000, max_value=2**2000)))


def typed_automorphism(p: gl2.Gl2Matrix, core: gl2.Gl2Matrix, r: int, u: int):
    # an automorphism over the conjugate P C P^-1
    return Automorphism(gl2.mat_multiply(gl2.mat_multiply(p, core),
                                         gl2.mat_inverse(p)), r, u)


def affine_route_power(omega: Automorphism, n: int) -> Automorphism:
    # power() as it was before the conjugacy types: _affine_power for
    # (M^n, S_n v), and one compose
    if n < 0:
        omega, n = invert(omega), -n
    v, m = normal_form(omega)
    mn, sv = _affine_power(m.entries(), (v.p, v.q), n)
    return compose(inner(InnerVector(*sv)), section(gl2.Gl2Matrix(*mn)))


class TestPowerByType:
    # the closed forms for parabolic and finite-order M in power(),
    # against _affine_power, the naive loop and compose only

    @settings(max_examples=settings().max_examples // 2)
    @given(small_matrices, cores, big, big, st.integers(0, 40))
    def test_matches_naive_loop(self, p, core, v1, v2, n):
        m = typed_automorphism(p, core, 0, 0).matrix.entries()
        assert _power_by_type(m, (v1, v2), n) == naive_affine_power(m, (v1, v2), n)

    @settings(max_examples=settings().max_examples // 4, deadline=None)
    @given(matrices, cores, big, big,
           st.integers(min_value=-2**2000, max_value=2**2000))
    def test_power_matches_affine_route(self, p, core, r, u, n):
        omega = typed_automorphism(p, core, r, u)
        assert power(omega, n) == affine_route_power(omega, n)

    @settings(max_examples=settings().max_examples // 2, deadline=None)
    @given(small_matrices, cores, coords, coords, st.integers(-300, 300))
    def test_power_matches_compose(self, p, core, r, u, n):
        omega = typed_automorphism(p, core, r, u)
        assert power(omega, n) == _compose_power(omega, n)

    @pytest.mark.parametrize("p, core", FINITE_ORDER, ids=FINITE_IDS)
    def test_finite_order_edges(self, p, core):
        conj = gl2.eval_word(gl2.parse_word("A^3 B^-2 D A B^5 A^-1 B"))
        omega = typed_automorphism(conj, core, 2**5000 + 1, -(3**3100))
        for n in (0, 1, p - 1, p, p + 1):
            for signed in (n, -n):
                assert power(omega, signed) == _compose_power(omega, signed)

    @settings(max_examples=settings().max_examples // 2, deadline=None)
    @given(automorphisms, st.integers(-20, 20))
    def test_hyperbolic_unchanged(self, omega, n):
        # any word matrix, hyperbolic ones among them
        assert power(omega, n) == affine_route_power(omega, n)
