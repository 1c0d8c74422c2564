import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisaut.heis import (
    IDENTITY,
    X,
    Y,
    Z,
    AbPair,
    HeisElement,
    commutator,
    format_element,
    inverse,
    is_central,
    lambda_project,
    multiply,
    parse_element,
    power,
)

ints = st.integers()
elements = st.builds(HeisElement, ints, ints, ints)


def iterated_power(g: HeisElement, n: int) -> HeisElement:
    # brute-force oracle: n-fold multiply
    base = g if n >= 0 else inverse(g)
    acc = IDENTITY
    for _ in range(abs(n)):
        acc = multiply(acc, base)
    return acc


class TestMultiply:
    def test_identity_absorbed(self):
        g = HeisElement(5, -3, 7)
        assert multiply(IDENTITY, g) == g
        assert multiply(g, IDENTITY) == g

    def test_corner_picks_up_cross_term(self):
        assert multiply(HeisElement(2, 0, 0), HeisElement(0, 3, 0)) == \
            HeisElement(2, 3, 6)
        assert multiply(X, Y) == HeisElement(1, 1, 1)

    @given(elements, elements, elements)
    def test_associative(self, g1, g2, g3):
        assert multiply(multiply(g1, g2), g3) == multiply(g1, multiply(g2, g3))

    @given(elements)
    def test_identity_laws(self, g):
        assert multiply(g, IDENTITY) == g
        assert multiply(IDENTITY, g) == g

    def test_rejects_non_integer_coordinates(self):
        with pytest.raises(TypeError):
            HeisElement(1.5, 0, 0)
        with pytest.raises(TypeError):
            HeisElement(True, 0, 0)


class TestInverse:
    def test_fixed_values(self):
        assert inverse(IDENTITY) == IDENTITY
        assert inverse(X) == HeisElement(-1, 0, 0)
        assert inverse(HeisElement(1, 1, 0)) == HeisElement(-1, -1, 1)

    @given(elements)
    def test_two_sided(self, g):
        assert multiply(g, inverse(g)) == IDENTITY
        assert multiply(inverse(g), g) == IDENTITY


class TestPower:
    def test_fixed_values(self):
        assert power(HeisElement(1, 1, 0), 0) == IDENTITY
        # iterated multiply: (1,1,0)*(1,1,0) = (2,2,0+0+1)
        assert power(HeisElement(1, 1, 0), 2) == HeisElement(2, 2, 1)
        assert power(Y, -1) == HeisElement(0, -1, 0)

    @given(elements, st.integers(min_value=-50, max_value=50))
    def test_matches_iterated_multiply(self, g, n):
        assert power(g, n) == iterated_power(g, n)

    @given(elements, ints, ints)
    def test_exponent_addition(self, g, m, n):
        assert multiply(power(g, m), power(g, n)) == power(g, m + n)


def closed_power(g: HeisElement, n: int) -> HeisElement:
    # the closed form power() was first written with
    return HeisElement(n * g.a, n * g.b,
                       n * g.c + (n * (n - 1) // 2) * g.a * g.b)


big = st.integers(min_value=-2**5000, max_value=2**5000)


def big_int(rng: random.Random, bits: int = 5000) -> int:
    # a signed int of exactly `bits` bits
    return rng.choice((1, -1)) * (rng.getrandbits(bits) | 1 << (bits - 1))


class TestPowerClosedForm:
    """power() reuses (na, nb) for its c-coordinate; it must equal
    n*c + C(n,2)*a*b at every size and sign."""

    @settings(deadline=None)
    @given(st.builds(HeisElement, big, big, big),
           st.integers(min_value=-2**2000, max_value=2**2000))
    def test_at_5000_bits(self, g, n):
        assert power(g, n) == closed_power(g, n)

    @pytest.mark.parametrize("n", range(-2, 3))
    def test_small_exponents(self, n):
        rng = random.Random(n)
        cases = [HeisElement(*t) for t in itertools.product(range(-3, 4), repeat=3)]
        cases += [HeisElement(big_int(rng), big_int(rng), big_int(rng))
                  for _ in range(20)]
        for g in cases:
            assert power(g, n) == closed_power(g, n)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_2000_bit_exponents(self, sign):
        rng = random.Random(sign)
        for _ in range(20):
            g = HeisElement(big_int(rng), big_int(rng), big_int(rng))
            n = sign * abs(big_int(rng, 2000))
            assert power(g, n) == closed_power(g, n)


class TestCommutator:
    def test_generators_generate_center(self):
        assert commutator(X, Y) == Z

    def test_fixed_values(self):
        g = HeisElement(4, -1, 9)
        assert commutator(g, g) == IDENTITY
        assert commutator(HeisElement(2, 0, 0), HeisElement(0, 3, 0)) == \
            HeisElement(0, 0, 6)

    @given(elements, elements)
    def test_matches_expansion(self, g1, g2):
        expanded = multiply(
            multiply(multiply(g1, g2), inverse(g1)), inverse(g2))
        assert commutator(g1, g2) == expanded
        assert is_central(commutator(g1, g2))


class TestGeneratorConvention:
    @given(elements)
    def test_triple_reads_off_z_y_x_chain(self, g):
        chain = multiply(
            multiply(power(Z, g.c), power(Y, g.b)), power(X, g.a))
        assert chain == g

    def test_order_matters(self):
        a, b = 3, 4
        assert multiply(power(Y, b), power(X, a)) == HeisElement(a, b, 0)
        assert multiply(power(X, a), power(Y, b)) == HeisElement(a, b, a * b)


class TestLambdaAndCenter:
    def test_fixed_values(self):
        assert lambda_project(HeisElement(0, 0, 7)) == AbPair(0, 0)
        assert lambda_project(X) == AbPair(1, 0)
        assert lambda_project(HeisElement(3, -2, 9)) == AbPair(3, -2)
        assert is_central(HeisElement(0, 0, -4))
        assert is_central(IDENTITY)
        assert not is_central(HeisElement(1, 0, 5))

    def test_noncentral_element_has_witness(self):
        # (1,0,5) fails to commute with y
        g = HeisElement(1, 0, 5)
        assert multiply(g, Y) != multiply(Y, g)

    @given(elements, elements)
    def test_homomorphism(self, g1, g2):
        assert lambda_project(multiply(g1, g2)) == \
            lambda_project(g1) + lambda_project(g2)

    @given(elements)
    def test_kernel_is_center(self, g):
        assert (lambda_project(g) == AbPair(0, 0)) == is_central(g)

    @given(ints)
    def test_central_elements_commute_with_generators(self, c):
        g = HeisElement(0, 0, c)
        assert multiply(g, X) == multiply(X, g)
        assert multiply(g, Y) == multiply(Y, g)


class TestSyntax:
    def test_roundtrip_fixed(self):
        for text in ["(0,0,0)", "(1,-2,3)", "(123456789123456789,-5,0)"]:
            assert format_element(parse_element(text)) == text

    def test_whitespace_tolerated(self):
        assert parse_element(" ( 1 , -2 , 3 ) ") == HeisElement(1, -2, 3)

    @given(elements)
    def test_roundtrip(self, g):
        assert parse_element(format_element(g)) == g

    @pytest.mark.parametrize("bad", ["", "(1,2)", "(1,2,3", "[1,2,3]",
                                     "(1, 2, x)", "(1,2,3) junk"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_element(bad)


class TestOperatorSugar:
    def test_mul_pow_match_functions(self):
        g, h = HeisElement(1, 2, 3), HeisElement(-4, 5, -6)
        assert g * h == multiply(g, h)
        assert g ** -7 == power(g, -7)
        assert g.inverse() == inverse(g)
        assert str(g) == "(1,2,3)"

    def test_abpair_neg_is_the_additive_inverse(self):
        v = AbPair(3, -2)
        assert -v == AbPair(-3, 2)
        assert v + -v == AbPair(0, 0)
