"""Acceptance gate: one test per release criterion.

Every test prints a single ``acceptance NN <name>: PASS`` (or FAIL)
line so the gate can be read off a plain ``pytest -v`` run.  All checks
are integer-exact; the only tolerances anywhere are the two wall-clock
budgets, which are part of the criteria themselves.
"""

import random
import time

import pytest

from heisaut import aut, gl2, verify
from heisaut.aut import (
    IDENTITY_AUT,
    Automorphism,
    InnerVector,
    apply,
    center_image,
    compose,
    inner,
    invert,
    is_aut_plus,
    normal_form,
    power,
    project,
    rd,
    section,
)
from heisaut.cocycles import (
    canonical_section,
    coboundary,
    cocycle_lattice,
    section_difference,
    solve_coboundary,
    twist,
    validate_cocycle,
)
from heisaut.heis import X, Y, Z, HeisElement, commutator
from heisaut.verify import D_BOUND, ELEMENT_BOUND

SEED = 20260815


def gate(number: int, name: str):
    def decorate(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {number:02d} {name}: FAIL")
                raise
            print(f"acceptance {number:02d} {name}: PASS")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


def rand_element(rng):
    return HeisElement(*(rng.randint(-ELEMENT_BOUND, ELEMENT_BOUND)
                         for _ in range(3)))


def rand_matrix(rng, max_len=20):
    letters = tuple(
        (rng.choice(tuple(gl2.Letter)), rng.randint(-9, 9))
        for _ in range(rng.randint(0, max_len)))
    return gl2.eval_letters(letters)


def rand_aut(rng):
    return Automorphism(rand_matrix(rng, max_len=8),
                        rng.randint(-ELEMENT_BOUND, ELEMENT_BOUND),
                        rng.randint(-ELEMENT_BOUND, ELEMENT_BOUND))


@gate(1, "group axioms on 10^4 random triples under 1s")
def test_01_group_axioms():
    result = verify.run_suite("group-axioms", samples=10_000, seed=SEED)
    assert result.ok, result.failures
    assert result.elapsed < 1.0, f"took {result.elapsed:.3f}s"


@gate(2, "commutator of the two generators is the central generator")
def test_02_commutator_constant():
    assert commutator(X, Y) == Z
    assert commutator(X, Y) == HeisElement(0, 0, 1)


@gate(3, "shear family is a homomorphism with the closed-form action")
def test_03_rd_homomorphism():
    rng = random.Random(SEED)
    for _ in range(1000):
        d1 = rng.randint(-D_BOUND, D_BOUND)
        d2 = rng.randint(-D_BOUND, D_BOUND)
        assert compose(rd(d1), rd(d2)) == rd(d1 + d2)
    for _ in range(1000):
        d = rng.randint(-D_BOUND, D_BOUND)
        g = rand_element(rng)
        expected = HeisElement(g.a + d * g.b, g.b,
                               g.c + g.b * (g.b - 1) * d // 2)
        assert apply(rd(d), g) == expected


@gate(4, "section satisfies the five relators and the printed values")
def test_04_relator_suite():
    sa, sb, sd = section(gl2.A), section(gl2.B), section(gl2.D)
    aba = compose(sa, compose(sb, sa))
    bab = compose(sb, compose(sa, sb))
    dad = compose(sd, compose(sa, invert(sd)))
    dbd = compose(sd, compose(sb, invert(sd)))
    assert aba == bab
    assert power(aba, 4) == IDENTITY_AUT
    assert dad == invert(sa)
    assert dbd == invert(sb)
    assert compose(sd, sd) == IDENTITY_AUT
    assert apply(aba, HeisElement(1, 0, 0)) == HeisElement(0, -1, 1)
    assert apply(aba, HeisElement(0, 1, 0)) == HeisElement(1, 0, 0)
    assert apply(dad, HeisElement(0, 1, 0)) == HeisElement(-1, 1, 0)
    assert apply(dbd, HeisElement(1, 0, 0)) == HeisElement(1, 1, 0)
    static = verify.run_suite("relations", samples=1, seed=SEED)
    assert static.ok, static.failures


@gate(5, "section is a well-defined homomorphism splitting the projection")
def test_05_section_homomorphism():
    rng = random.Random(SEED)
    for _ in range(1000):
        m1, m2 = rand_matrix(rng), rand_matrix(rng)
        assert section(gl2.mat_multiply(m1, m2)) == \
            compose(section(m1), section(m2))
    alpha0 = canonical_section()
    for _ in range(1000):
        m = rand_matrix(rng)
        # the closed form equals the generator fold over two different words
        for strategy in ("left", "right"):
            word = gl2.decompose(m, strategy)
            assert section(m) == alpha0.eval_letters(word.letters)
        assert project(section(m)) == m


@gate(6, "kernel of the projection is exactly the inner automorphisms")
def test_06_exactness():
    rng = random.Random(SEED)
    for _ in range(1000):
        r = rng.randint(-ELEMENT_BOUND, ELEMENT_BOUND)
        u = rng.randint(-ELEMENT_BOUND, ELEMENT_BOUND)
        omega = Automorphism(gl2.IDENTITY, r, u)
        assert project(omega) == gl2.IDENTITY
        assert omega == inner(InnerVector(u, -r))
    vectors = set()
    images = set()
    for _ in range(1000):
        v = InnerVector(rng.randint(-ELEMENT_BOUND, ELEMENT_BOUND),
                        rng.randint(-ELEMENT_BOUND, ELEMENT_BOUND))
        omega = inner(v)
        assert solve_inner(omega) == v
        vectors.add(v)
        images.add(omega)
    assert len(images) == len(vectors)


def solve_inner(omega):
    # theta is injective: recover the vector and confirm uniqueness
    v, m = normal_form(omega)
    assert m == gl2.IDENTITY
    return v


@gate(7, "semidirect normal form is a natural bijection")
def test_07_normal_form():
    rng = random.Random(SEED)
    for _ in range(1000):
        omega = rand_aut(rng)
        v, m = normal_form(omega)
        assert compose(inner(v), section(m)) == omega
        v2 = InnerVector(rng.randint(-ELEMENT_BOUND, ELEMENT_BOUND),
                         rng.randint(-ELEMENT_BOUND, ELEMENT_BOUND))
        assert normal_form(compose(inner(v2), section(m))) == (v2, m)
    for _ in range(1000):
        m = rand_matrix(rng, max_len=8)
        v = InnerVector(rng.randint(-ELEMENT_BOUND, ELEMENT_BOUND),
                        rng.randint(-ELEMENT_BOUND, ELEMENT_BOUND))
        sigma = section(m)
        assert compose(sigma, compose(inner(v), invert(sigma))) == \
            inner(aut.act(m, v))


@gate(8, "center scales by the determinant; plus part fixes it")
def test_08_center_determinant():
    rng = random.Random(SEED)
    for _ in range(1000):
        omega = rand_aut(rng)
        det = project(omega).det
        assert apply(omega, Z) == HeisElement(0, 0, det)
        assert center_image(omega) == det
        assert is_aut_plus(omega) == (apply(omega, Z) == Z)


@gate(9, "cocycle lattice is rank 2 and coincides with coboundaries")
def test_09_cohomology():
    report = cocycle_lattice()
    assert report.rank == 2
    assert report.equals_coboundary_lattice
    rng = random.Random(SEED)
    alpha0 = canonical_section()
    for _ in range(1000):
        a = InnerVector(rng.randint(-ELEMENT_BOUND, ELEMENT_BOUND),
                        rng.randint(-ELEMENT_BOUND, ELEMENT_BOUND))
        assert solve_coboundary(coboundary(a)) == a
        phi = coboundary(a)
        difference = section_difference(twist(alpha0, phi), alpha0)
        assert difference == phi
        assert validate_cocycle(difference.v_rho, difference.v_tau,
                                difference.v_kappa) == difference


@gate(10, "word engine roundtrips and full verification fits the budget")
def test_10_word_engine():
    rng = random.Random(SEED)
    for _ in range(1000):
        m = rand_matrix(rng, max_len=20)
        for strategy in ("left", "right"):
            assert gl2.eval_word(gl2.decompose(m, strategy)) == m
    start = time.perf_counter()
    report = verify.run(samples=1000, seed=SEED)
    elapsed = time.perf_counter() - start
    assert report.ok, [r.suite for r in report.results if not r.ok]
    assert elapsed < 30.0, f"verify-all took {elapsed:.1f}s"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
