import pickle
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisaut import aut, gl2
from heisaut.aut import Automorphism, InnerVector, act, compose, inner, project
from heisaut.cocycles import (
    ZERO_COCYCLE,
    _extend_values,
    _relator_rows,
    Cocycle,
    RelatorViolation,
    SectionOnGenerators,
    canonical_section,
    coboundary,
    cocycle_lattice,
    extend,
    format_cocycle,
    format_section,
    in_cocycle_lattice,
    parse_cocycle,
    parse_section,
    section_difference,
    solve_coboundary,
    twist,
    validate_cocycle,
)
from heisaut.gl2 import Letter
from heisaut.zlattice import in_lattice

coords = st.integers(min_value=-10**9, max_value=10**9)
vectors = st.builds(InnerVector, coords, coords)
cocycles = st.builds(coboundary, vectors)
letter_pairs = st.tuples(st.sampled_from(tuple(Letter)),
                         st.integers(min_value=-9, max_value=9))
raw_words = st.lists(letter_pairs, max_size=12)
words = st.builds(gl2.GeneratorWord, st.builds(tuple, raw_words))
matrices = st.builds(lambda raw: gl2.eval_letters(raw), raw_words)


def brute_extend(phi: Cocycle, raw) -> InnerVector:
    # oracle: expand every power into single letters and fold the
    # cocycle identity one letter at a time
    total = InnerVector(0, 0)
    acc = gl2.IDENTITY
    for sym, exp in raw:
        base = gl2.eval_letters(((sym, 1),))
        step = 1 if exp >= 0 else -1
        for _ in range(abs(exp)):
            letter = base if step > 0 else gl2.mat_inverse(base)
            value = phi.value(sym) if step > 0 else \
                InnerVector(0, 0) - act(gl2.mat_inverse(base), phi.value(sym))
            total = total + act(acc, value)
            acc = gl2.mat_multiply(acc, letter)
    return total


class TestValidation:
    def test_zero_and_coboundaries_pass(self):
        zero = InnerVector(0, 0)
        assert validate_cocycle(zero, zero, zero) == ZERO_COCYCLE
        phi = coboundary(InnerVector(7, -3))
        assert validate_cocycle(phi.v_rho, phi.v_tau, phi.v_kappa) == phi

    def test_braid_relator_rejects_bad_values(self):
        with pytest.raises(RelatorViolation) as info:
            Cocycle(InnerVector(0, 1), InnerVector(0, 0), InnerVector(0, 0))
        assert info.value.relator == "rho tau rho = tau rho tau"
        assert "(1,1)" in str(info.value)

    def test_huge_violation_keeps_relator_and_value(self):
        # under the default int-to-str limit a 5001-digit value cannot be
        # printed in decimal; the message gives its bit length instead
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        big = 10**5000
        try:
            with pytest.raises(RelatorViolation) as info:
                Cocycle(InnerVector(0, big), InnerVector(0, 0), InnerVector(0, 0))
        finally:
            sys.set_int_max_str_digits(limit)
        assert info.value.relator == "rho tau rho = tau rho tau"
        assert info.value.value == \
            _extend_values(InnerVector(0, big), InnerVector(0, 0),
                           InnerVector(0, 0), gl2.RELATORS[0][1])
        assert f"<{info.value.value.p.bit_length()}-bit int>" in str(info.value)

    def test_violation_survives_pickle(self):
        with pytest.raises(RelatorViolation) as info:
            Cocycle(InnerVector(0, 1), InnerVector(0, 0), InnerVector(0, 0))
        exc = info.value
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is RelatorViolation
        assert back.relator == exc.relator == "rho tau rho = tau rho tau"
        assert back.value == exc.value == InnerVector(1, 1)
        assert str(back) == str(exc)
        assert back.args == exc.args

    def test_kappa_conjugation_relator(self):
        # a bad kappa value passes both braid checks but trips the
        # first conjugation relator
        with pytest.raises(RelatorViolation) as info:
            Cocycle(InnerVector(0, 0), InnerVector(0, 0), InnerVector(1, 0))
        assert info.value.relator == "kappa tau kappa^-1 = tau^-1"

    @given(cocycles, cocycles)
    def test_closed_under_addition(self, phi1, phi2):
        # construction re-checks the relators, so arithmetic staying
        # inside the valid set is exactly "these lines do not raise"
        total = phi1 + phi2
        assert total.v_rho == phi1.v_rho + phi2.v_rho
        assert total - phi2 == phi1
        assert phi1 - phi2 == phi1 + (-phi2)
        assert -(-phi1) == phi1
        assert phi1 + ZERO_COCYCLE == phi1

    def test_value_lookup(self):
        phi = coboundary(InnerVector(2, 5))
        assert phi.value(Letter.RHO) == phi.v_rho
        assert phi.value(Letter.TAU) == phi.v_tau
        assert phi.value(Letter.KAPPA) == phi.v_kappa

    @pytest.mark.parametrize("sym", ["A", "D", None, 0, gl2.D],
                             ids=["char-A", "char-D", "none", "int", "matrix"])
    def test_value_rejects_non_letters(self, sym):
        # a non-Letter symbol used to fall through to the kappa value
        message = f"^word symbol must be a Letter, got {re.escape(repr(sym))}$"
        for holder in (ZERO_COCYCLE, canonical_section()):
            with pytest.raises(TypeError, match=message):
                holder.value(sym)
        with pytest.raises(TypeError, match=message):
            canonical_section().eval_letters(((Letter.RHO, 1), (sym, 1)))


class TestCoboundary:
    def test_fixed_values(self):
        assert coboundary(InnerVector(0, 1)).v_rho == InnerVector(1, 0)
        assert coboundary(InnerVector(1, 0)).v_tau == InnerVector(0, -1)
        assert coboundary(InnerVector(0, 0)) == ZERO_COCYCLE

    @given(vectors, vectors)
    def test_additive(self, a1, a2):
        assert coboundary(a1 + a2) == coboundary(a1) + coboundary(a2)

    @given(vectors)
    def test_solve_roundtrip(self, a):
        assert solve_coboundary(coboundary(a)) == a

    def test_solve_fixed(self):
        phi = coboundary(InnerVector(3, -2))
        assert solve_coboundary(phi) == InnerVector(3, -2)

    @given(vectors, matrices)
    @settings(max_examples=settings().max_examples * 3 // 5)
    def test_matches_group_formula(self, a, m):
        # coboundary of a evaluated on any word w is w.a - a
        phi = coboundary(a)
        w = gl2.decompose(m)
        assert extend(phi, w) == act(m, a) - a


class TestExtend:
    def test_empty_word(self):
        assert extend(coboundary(InnerVector(5, 9)),
                      gl2.EMPTY_WORD) == InnerVector(0, 0)

    def test_generator_values(self):
        phi = coboundary(InnerVector(1, 2))
        for sym, text in ((Letter.RHO, "A"), (Letter.TAU, "B"),
                          (Letter.KAPPA, "D")):
            assert extend(phi, gl2.parse_word(text)) == phi.value(sym)

    @given(cocycles, words, words)
    @settings(max_examples=settings().max_examples * 3 // 5)
    def test_cocycle_identity_on_concatenation(self, phi, w1, w2):
        lhs = extend(phi, w1 * w2)
        rhs = extend(phi, w1) + act(gl2.eval_word(w1), extend(phi, w2))
        assert lhs == rhs

    @given(cocycles, st.lists(letter_pairs, max_size=8))
    def test_matches_single_letter_oracle(self, phi, raw):
        assert extend(phi, gl2.GeneratorWord(tuple(raw))) == \
            brute_extend(phi, raw)

    @given(cocycles, matrices)
    @settings(max_examples=settings().max_examples * 3 // 5)
    def test_word_independent(self, phi, m):
        left = gl2.decompose(m, strategy="left")
        right = gl2.decompose(m, strategy="right")
        assert extend(phi, left) == extend(phi, right)

    @pytest.mark.parametrize("k", [1100, 2000])
    @pytest.mark.parametrize("sym", tuple(Letter), ids=lambda s: s.name)
    def test_huge_exponents(self, sym, k):
        # the exponent has more bits than the interpreter's recursion limit
        a = InnerVector(3, -5)
        phi = coboundary(a)
        for n in (1 << k, -(1 << k), (1 << k) + 1):
            m = gl2.eval_letters(((sym, n),))
            assert extend(phi, gl2.GeneratorWord(((sym, n),))) == \
                act(m, a) - a


class TestExtendAtLargeSize:
    # the closed form M.a - a against the relator fold it replaced
    A_BIG = InnerVector(2**5000 - 3, -(3**3150))

    def test_long_word(self):
        syms = (Letter.RHO, Letter.TAU, Letter.KAPPA)
        raw = tuple((syms[i % 3], (-1) ** (i // 3) * (i % 9 + 1))
                    for i in range(3000))
        phi = coboundary(self.A_BIG)
        assert extend(phi, gl2.GeneratorWord(raw)) == \
            _extend_values(phi.v_rho, phi.v_tau, phi.v_kappa, raw)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("sym", tuple(Letter), ids=lambda s: s.name)
    def test_huge_letter_exponents(self, sym, sign):
        phi = coboundary(self.A_BIG)
        others = tuple(s for s in Letter if s is not sym)
        for raw in (((sym, sign << 2000),),
                    ((sym, sign << 2000), (others[0], 5),
                     (sym, -sign * ((1 << 2000) + 1)), (others[1], 1))):
            assert extend(phi, gl2.GeneratorWord(raw)) == \
                _extend_values(phi.v_rho, phi.v_tau, phi.v_kappa, raw)


class TestLattice:
    def test_report(self):
        report = cocycle_lattice()
        assert report.rank == 2
        assert report.equals_coboundary_lattice
        assert len(report.basis) == 2
        assert len(report.coboundary_basis) == 2

    def test_membership(self):
        report = cocycle_lattice()
        assert in_cocycle_lattice(coboundary(InnerVector(17, -40)), report)
        # flattened value assignments that violate the relator system
        assert not in_lattice((0, 1, 0, 0, 0, 0), report.basis)
        assert not in_lattice((0, 0, 0, 1, 1, 0), report.basis)

    @given(cocycles)
    def test_every_valid_cocycle_in_lattice(self, phi):
        assert in_cocycle_lattice(phi, cocycle_lattice())


def fold_violation(triple):
    # oracle: the first relator whose cocycle-identity fold is not (0,0)
    for name, pairs in gl2.RELATORS:
        value = _extend_values(*triple, pairs)
        if value != InnerVector(0, 0):
            return name, value
    return None


huge = st.integers(min_value=-2**5000, max_value=2**5000)
huge_vectors = st.builds(InnerVector, huge, huge)


def linear_violation(coords):
    # oracle: the first relator whose pair of rows in the relator system
    # gives a nonzero (row_p . x, row_q . x)
    for name, row_p, row_q in _relator_rows():
        p = sum(r * x for r, x in zip(row_p, coords))
        q = sum(r * x for r, x in zip(row_q, coords))
        if p or q:
            return name, InnerVector(p, q)
    return None


# one coordinate: zero, small, or up to 2^5000 in size
mixed = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9), huge)


class TestLinearCheckAtLargeSize:
    # arbitrary triples; "lattice" forces the draw onto the coboundary
    # lattice (a1 = -tau.q, a2 = rho.p), "nudged" then shifts one slot by 1
    @given(st.lists(mixed, min_size=6, max_size=6),
           st.sampled_from(("free", "lattice", "nudged")),
           st.integers(min_value=0, max_value=5), st.sampled_from((1, -1)))
    @settings(max_examples=settings().max_examples * 3 // 2)
    def test_accepts_exactly_the_lattice(self, coords, kind, slot, delta):
        if kind != "free":
            coords[1] = coords[2] = coords[5] = 0
            coords[4] = 2 * coords[3]
            if kind == "nudged":
                coords[slot] += delta
        triple = tuple(InnerVector(coords[2 * i], coords[2 * i + 1])
                       for i in range(3))
        member = in_lattice(tuple(coords), cocycle_lattice().basis)
        expected = linear_violation(coords)
        try:
            phi = Cocycle(*triple)
        except RelatorViolation as exc:
            assert not member
            assert (exc.relator, exc.value) == expected
        else:
            assert member and expected is None
            assert coboundary(solve_coboundary(phi)) == phi

    @given(huge_vectors)
    @settings(max_examples=settings().max_examples * 2 // 5)
    def test_accepts_coboundaries(self, a):
        phi = coboundary(a)
        triple = (phi.v_rho, phi.v_tau, phi.v_kappa)
        assert fold_violation(triple) is None
        assert Cocycle(*triple) == phi
        assert solve_coboundary(phi) == a

    # slot 0 (rho.p) is left out: shifting it adds the coboundary of (0, 1)
    @given(huge_vectors, st.integers(min_value=1, max_value=5),
           huge.filter(bool))
    @settings(max_examples=settings().max_examples * 3 // 5)
    def test_rejects_perturbed_like_the_fold(self, a, slot, delta):
        phi = coboundary(a)
        coords = [c for v in (phi.v_rho, phi.v_tau, phi.v_kappa)
                  for c in (v.p, v.q)]
        coords[slot] += delta
        triple = tuple(InnerVector(coords[2 * i], coords[2 * i + 1])
                       for i in range(3))
        expected = fold_violation(triple)
        assert expected is not None
        with pytest.raises(RelatorViolation) as info:
            Cocycle(*triple)
        name, value = expected
        assert info.value.relator == name
        assert str(info.value).endswith(f"extension gives {value}, not (0,0)")


class TestSections:
    def test_canonical_matches_section_map(self):
        alpha = canonical_section()
        assert alpha.value(Letter.RHO) == aut.section(gl2.A)
        assert alpha.value(Letter.KAPPA) == aut.section(gl2.D)

    @given(matrices)
    def test_at_agrees_with_section(self, m):
        alpha = canonical_section()
        assert alpha.at(m) == aut.section(m)
        for strategy in ("left", "right"):
            word = gl2.decompose(m, strategy)
            assert alpha.eval_letters(word.letters) == aut.section(m)

    def test_canonical_is_one_instance(self):
        assert canonical_section() is canonical_section()
        fresh = SectionOnGenerators(
            Automorphism(gl2.A, 0, 0),
            Automorphism(gl2.B, 0, 0),
            Automorphism(gl2.D, 0, -1),
        )
        assert canonical_section() == fresh
        assert hash(canonical_section()) == hash(fresh)

    def test_kept_vector_is_not_part_of_the_value(self):
        # a section with a corrupted kept vector still compares, hashes
        # and prints as before, and pickling rebuilds it from its values
        alpha = twist(canonical_section(), coboundary(InnerVector(3, -4)))
        corrupt = SectionOnGenerators(
            alpha.alpha_rho, alpha.alpha_tau, alpha.alpha_kappa)
        object.__setattr__(corrupt, "_a", InnerVector(5, 5))
        assert corrupt == alpha and hash(corrupt) == hash(alpha)
        assert repr(corrupt) == repr(alpha) and "_a" not in repr(alpha)
        assert str(corrupt) == str(alpha)
        back = pickle.loads(pickle.dumps(corrupt))
        assert back == alpha
        assert back.at(gl2.A) == alpha.at(gl2.A) != corrupt.at(gl2.A)
        assert pickle.dumps(corrupt) == pickle.dumps(alpha)

    def test_rejects_wrong_projection(self):
        good = canonical_section()
        with pytest.raises(ValueError):
            SectionOnGenerators(good.alpha_tau, good.alpha_rho,
                                good.alpha_kappa)

    def test_accepts_twisted_generator_values(self):
        # shifting alpha_rho by the inner automorphism of a valid
        # cocycle value keeps every relator intact
        good = canonical_section()
        shifted = Automorphism(gl2.A, 0, 1)
        alpha = SectionOnGenerators(shifted, good.alpha_tau,
                                    good.alpha_kappa)
        assert alpha == twist(good, coboundary(InnerVector(0, 1)))

    def test_rejects_broken_relators(self):
        good = canonical_section()
        bad_rho = Automorphism(gl2.A, -1, 0)
        with pytest.raises(RelatorViolation):
            SectionOnGenerators(bad_rho, good.alpha_tau, good.alpha_kappa)


class TestTwist:
    @given(cocycles)
    def test_difference_recovers_cocycle(self, phi):
        alpha0 = canonical_section()
        assert section_difference(twist(alpha0, phi), alpha0) == phi

    def test_self_difference_is_zero(self):
        alpha0 = canonical_section()
        assert section_difference(alpha0, alpha0) == ZERO_COCYCLE

    @staticmethod
    def difference_by_compose(alpha2, alpha1):
        # oracle: alpha2(l) o alpha1(l)^-1 per generator is the inner
        # automorphism (I, r, u) of the vector (u, -r)
        values = []
        for sym in Letter:
            delta = compose(alpha2.value(sym), aut.invert(alpha1.value(sym)))
            assert delta.matrix == gl2.IDENTITY
            values.append(InnerVector(delta.u, -delta.r))
        return Cocycle(*values)

    @given(huge_vectors, huge_vectors)
    @settings(max_examples=settings().max_examples * 2 // 5, deadline=None)
    def test_difference_closed_form_matches_compose_route(self, a1, a2):
        alpha1 = twist(canonical_section(), coboundary(a1))
        alpha2 = twist(canonical_section(), coboundary(a2))
        for left, right in ((alpha2, alpha1), (alpha1, alpha2)):
            assert (section_difference(left, right)
                    == self.difference_by_compose(left, right))
        assert section_difference(alpha2, alpha1) == coboundary(a2 - a1)

    @given(cocycles, matrices)
    @settings(max_examples=settings().max_examples * 3 // 5)
    def test_twisted_section_still_splits(self, phi, m):
        twisted = twist(canonical_section(), phi)
        assert project(twisted.at(m)) == m

    @given(cocycles, matrices)
    @settings(max_examples=settings().max_examples * 3 // 5)
    def test_twisted_at_matches_word_fold(self, phi, m):
        twisted = twist(canonical_section(), phi)
        for strategy in ("left", "right"):
            word = gl2.decompose(m, strategy)
            assert twisted.at(m) == twisted.eval_letters(word.letters)

    @given(cocycles, matrices)
    @settings(max_examples=settings().max_examples * 2 // 5)
    def test_twisted_section_formula(self, phi, m):
        # the twisted section differs from the canonical one by the
        # inner automorphism attached to the extended cocycle value
        twisted = twist(canonical_section(), phi)
        w = gl2.decompose(m)
        assert twisted.at(m) == compose(inner(extend(phi, w)),
                                        aut.section(m))


class TestSyntax:
    def test_fixed(self):
        text = "{rho=(0,0), tau=(0,0), kappa=(0,0)}"
        assert parse_cocycle(text) == ZERO_COCYCLE
        assert format_cocycle(ZERO_COCYCLE) == text

    @given(cocycles)
    def test_cocycle_roundtrip(self, phi):
        assert parse_cocycle(format_cocycle(phi)) == phi

    def test_section_roundtrip(self):
        for alpha in (canonical_section(),
                      twist(canonical_section(),
                            coboundary(InnerVector(2, -3)))):
            assert parse_section(format_section(alpha)) == alpha

    @pytest.mark.parametrize("bad", ["", "{rho=(0,0)}",
                                     "{rho=(0,0), tau=(0,0), kappa=(x,0)}"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_cocycle(bad)

    def test_section_rejects_garbage(self):
        text = "{rho={M=[[1,0],[0,1]], r=0, u=0}}"
        with pytest.raises(ValueError) as info:
            parse_section(text)
        assert str(info.value) == \
            f"not a section '{{rho={{..}}, tau={{..}}, kappa={{..}}}}': {text!r}"

    def test_parse_validates(self):
        with pytest.raises(RelatorViolation):
            parse_cocycle("{rho=(0,1), tau=(0,0), kappa=(0,0)}")
