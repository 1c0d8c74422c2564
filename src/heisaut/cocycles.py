"""1-cocycles GL(2,Z) -> Z + Z and the sections they classify.

For the natural action of GL(2,Z) on Z + Z, a 1-cocycle is a map phi
with phi(gh) = phi(g) + g.phi(h).  Such a map is determined by its
values on the generators rho, tau, kappa, and a value triple defines a
cocycle exactly when extending it along each defining relator of
GL(2,Z) gives (0,0).  That extension is linear in the six value
coordinates: a 10 x 6 integer system, derived once by the relator fold,
whose kernel cocycle_lattice() computes and finds equal to the
coboundary lattice.  So Cocycle validates at construction with four
integer conditions that say the triple is a coboundary, and folds the
relators only to name the one a bad triple breaks; the 10 x 6 system is
left to cocycle_lattice() and to the oracle in verify.  Because every
cocycle is a coboundary, solve_coboundary() reads its vector off and
extend() is the closed form M.a - a, with the fold as its oracle.
A section given on generators is validated the same way: its values
differ from the canonical section's by inner automorphisms, and those
differences must form a cocycle, the coboundary of a vector a that the
section keeps.  The difference of two sections is then the coboundary
of the difference of their vectors; the generator-wise compose route
is its oracle in verify.

The punchline this module makes computable: the cocycle lattice has
rank 2 and every cocycle is a coboundary phi(g) = g.a - a, so the
homomorphic sections of the projection Aut(G) -> GL(2,Z) form a single
orbit under twisting by Z + Z.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from functools import cache

from . import gl2
from .aut import (
    ZERO_VECTOR,
    Automorphism,
    InnerVector,
    _PAIR,
    _product_of_powers,
    act,
    compose,
    inner,
    normal_form,
    parse_automorphism,
    section,
)
from .gl2 import (
    _KAPPA, _RHO, _TAU, GeneratorWord, Gl2Matrix, Letter, LetterPair, _affine_power,
    _iter_pairs, _raise_if_unpacking)
from .heis import _expect, _read, _Value
from .zlattice import Vector, in_lattice, kernel_basis, lattices_equal


class RelatorViolation(ValueError):
    """A generator assignment breaks a defining relator of GL(2,Z).

    ``relator`` names the first relator violated and ``value`` is the
    nonzero (p,q) that extending the assignment along it gives.  The
    message spells a coordinate in decimal when the process's int-to-str
    digit limit allows, and by its bit length otherwise.
    """

    def __init__(self, relator: str, value: InnerVector):
        self.relator = relator
        self.value = value
        shown = ",".join(_decimal_or_bits(c) for c in (value.p, value.q))
        super().__init__(
            f"relator '{relator}' violated: extension gives ({shown}), not (0,0)")

    def __reduce__(self):
        # rebuild from both arguments; the default passes only the message
        return type(self), (self.relator, self.value)


def _decimal_or_bits(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # over sys.get_int_max_str_digits()
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit int>"


# the entries of A, B and D, in the order rho, tau, kappa
_GENERATOR_ENTRIES = tuple(m.entries() for m in gl2.GENERATORS.values())


def _phi_power(
    mat: tuple[int, ...], val: tuple[int, int], exp: int
) -> tuple[tuple[int, int], tuple[int, ...]]:
    """(phi(l^exp), L^exp) given phi(l) = val, by the cocycle identity, on
    plain ints: L's entries (m11, m12, m21, m22) and pairs (p, q).

    phi(l^j l^k) = phi(l^j) + L^j.phi(l^k) is the recurrence of the
    powers of the affine map x -> L x + val, so for k >= 0 the pair is
    (S_k val, L^k) from gl2._affine_power, in O(log k) exact steps; and
    phi(l^-k) = -L^-k.phi(l^k).  It stays on that generic route, not
    gl2._power_by_type, because its fold, _extend_values, is the oracle
    for extend's closed form.
    """
    p, (vp, vq) = _affine_power(mat, val, abs(exp))
    if exp < 0:
        m11, m12, m21, m22 = p
        d = m11 * m22 - m12 * m21
        n11, n12, n21, n22 = d * m22, -d * m12, -d * m21, d * m11
        return (-(n11 * vp + n12 * vq), -(n21 * vp + n22 * vq)), (n11, n12, n21, n22)
    return (vp, vq), p


def _extend_values(
    v_rho: InnerVector,
    v_tau: InnerVector,
    v_kappa: InnerVector,
    pairs: tuple[LetterPair, ...],
) -> InnerVector:
    # phi(g l^e) = phi(g) + g.phi(l^e), folded left to right over raw
    # letters (no normalization, so relator checks stay meaningful), on
    # plain ints: the running total (t1, t2) and the prefix matrix g
    data = [(m, (v.p, v.q)) for m, v in
            zip(_GENERATOR_ENTRIES, (v_rho, v_tau, v_kappa))]
    t1, t2, g11, g12, g21, g22 = 0, 0, 1, 0, 0, 1
    for sym, exp in pairs:
        (c1, c2), (l11, l12, l21, l22) = _phi_power(*_by_letter(sym, *data), exp)
        t1, t2 = t1 + g11 * c1 + g12 * c2, t2 + g21 * c1 + g22 * c2
        g11, g12, g21, g22 = (g11 * l11 + g12 * l21, g11 * l12 + g12 * l22,
                              g21 * l11 + g22 * l21, g21 * l12 + g22 * l22)
    return InnerVector._of(t1, t2)


@cache
def _relator_rows() -> tuple[tuple[str, Vector, Vector], ...]:
    """(name, p-row, q-row) per relator of gl2.RELATORS: the extension of
    a value triple along the relator is (p-row . x, q-row . x) for the
    flattened triple x, read off by extending the six unit triples."""
    units = []
    for slot in range(6):
        coords = [0] * 6
        coords[slot] = 1
        units.append(tuple(
            InnerVector(coords[2 * i], coords[2 * i + 1]) for i in range(3)))
    rows = []
    for name, pairs in gl2.RELATORS:
        images = [_extend_values(*unit, pairs) for unit in units]
        rows.append((name, tuple(v.p for v in images),
                     tuple(v.q for v in images)))
    return tuple(rows)


def _first_violation(
    v_rho: InnerVector, v_tau: InnerVector, v_kappa: InnerVector
) -> tuple[str, InnerVector]:
    # the first relator whose cocycle-identity fold is not (0,0), with
    # that fold; Cocycle calls it only on a triple off the coboundary
    # lattice, and such a triple breaks some relator (see Cocycle)
    for name, pairs in gl2.RELATORS:
        value = _extend_values(v_rho, v_tau, v_kappa, pairs)
        if value != ZERO_VECTOR:
            return name, value
    raise AssertionError("a triple off the coboundary lattice broke no relator")


def _by_letter(sym: Letter, on_rho, on_tau, on_kappa):
    if sym is _RHO:
        return on_rho
    if sym is _TAU:
        return on_tau
    if sym is _KAPPA:
        return on_kappa
    raise TypeError(f"word symbol must be a Letter, got {sym!r}")


class Cocycle(_Value):
    """Generator values of a 1-cocycle; relator-checked at construction.

    A value triple is accepted exactly when

        v_rho.q == 0, v_tau.p == 0, v_kappa.q == 0, v_kappa.p == 2 v_tau.q,

    and then it is coboundary(a) for a = (-v_tau.q, v_rho.p).

    Proof.  coboundary(a) has the values (A - I)a = (a2, 0),
    (B - I)a = (0, -a1) and (D - I)a = (-2 a1, 0).  So the four
    conditions cut out exactly the coboundaries, and a triple that meets
    them is coboundary(a) for the a read off above.  cocycle_lattice()
    shows that the kernel of the relator system, i.e. the set of
    triples that extend to (0,0) along every relator, is the coboundary
    lattice (H^1 = 0).  So the four conditions hold if and only if
    every relator holds.  Only a rejected triple is folded over the
    relators, to name the first one it breaks and the nonzero value it
    gives there.
    """

    __match_args__ = ("v_rho", "v_tau", "v_kappa")
    __slots__ = __match_args__

    def __post_init__(self) -> None:
        v_rho, v_tau, v_kappa = self.v_rho, self.v_tau, self.v_kappa
        if not (type(v_rho) is InnerVector and type(v_tau) is InnerVector
                and type(v_kappa) is InnerVector):
            for name, v in (("v_rho", v_rho), ("v_tau", v_tau),
                            ("v_kappa", v_kappa)):
                if not isinstance(v, InnerVector):
                    raise TypeError(f"{name} must be an InnerVector")
        if v_rho.q or v_tau.p or v_kappa.q or v_kappa.p != 2 * v_tau.q:
            raise RelatorViolation(*_first_violation(v_rho, v_tau, v_kappa))

    def value(self, sym: Letter) -> InnerVector:
        return _by_letter(sym, self.v_rho, self.v_tau, self.v_kappa)

    def __add__(self, other: "Cocycle") -> "Cocycle":
        if not isinstance(other, Cocycle):
            return NotImplemented
        return Cocycle(
            self.v_rho + other.v_rho,
            self.v_tau + other.v_tau,
            self.v_kappa + other.v_kappa,
        )

    def __neg__(self) -> "Cocycle":
        return Cocycle(-self.v_rho, -self.v_tau, -self.v_kappa)

    def __sub__(self, other: "Cocycle") -> "Cocycle":
        if not isinstance(other, Cocycle):
            return NotImplemented
        return self + (-other)

    def __str__(self) -> str:
        return format_cocycle(self)


ZERO_COCYCLE = Cocycle(ZERO_VECTOR, ZERO_VECTOR, ZERO_VECTOR)


def validate_cocycle(
    v_rho: InnerVector, v_tau: InnerVector, v_kappa: InnerVector
) -> Cocycle:
    """Build a Cocycle, raising RelatorViolation on a bad value triple.

    >>> validate_cocycle(ZERO_VECTOR, ZERO_VECTOR, ZERO_VECTOR) == ZERO_COCYCLE
    True
    >>> try:
    ...     validate_cocycle(InnerVector(0, 1), ZERO_VECTOR, ZERO_VECTOR)
    ... except RelatorViolation as exc:
    ...     print(exc.relator)
    rho tau rho = tau rho tau
    """
    return Cocycle(v_rho, v_tau, v_kappa)


def extend(phi: Cocycle, w: GeneratorWord) -> InnerVector:
    """phi evaluated on M = eval_word(w), in closed form: M.a - a with
    a = solve_coboundary(phi).

    Proof.  phi passed the check at construction, so it has the
    generator values of coboundary(a) for the a that solve_coboundary
    reads off (see Cocycle).  Evaluating a cocycle on a word folds the
    cocycle identity phi(g l^e) = phi(g) + g.phi(l^e) letter by letter
    (_extend_values), and each step depends only on the generator
    values; g -> g.a - a satisfies the identity, so the fold gives
    M.a - a.  In particular the value depends only on the matrix, not on
    the word.

    >>> extend(ZERO_COCYCLE, gl2.parse_word("A B A")) == ZERO_VECTOR
    True
    >>> extend(coboundary(InnerVector(1, 2)), gl2.parse_word("A^3"))
    InnerVector(p=6, q=0)
    """
    a = solve_coboundary(phi)
    return act(gl2.eval_word(w), a) - a


def coboundary(a: InnerVector) -> Cocycle:
    """The cocycle g -> g.a - a.

    >>> coboundary(InnerVector(0, 1)).v_rho
    InnerVector(p=1, q=0)
    >>> coboundary(InnerVector(1, 0)).v_tau
    InnerVector(p=0, q=-1)
    """
    _expect(a, InnerVector, "a")
    return Cocycle(
        act(gl2.A, a) - a,
        act(gl2.B, a) - a,
        act(gl2.D, a) - a,
    )


def solve_coboundary(phi: Cocycle) -> InnerVector:
    """The unique a with coboundary(a) = phi.

    (A - I)a = (a2, 0) and (B - I)a = (0, -a1), so the rho and tau
    values determine a = (-phi(tau)_2, phi(rho)_1).  That a exists for
    every Cocycle, because construction accepts exactly the
    coboundaries (see Cocycle): this is the computable content of
    H^1 = 0 here.

    >>> solve_coboundary(coboundary(InnerVector(3, -2)))
    InnerVector(p=3, q=-2)
    """
    _expect(phi, Cocycle, "phi")
    return InnerVector(-phi.v_tau.q, phi.v_rho.p)


def _flatten(phi_values: tuple[InnerVector, InnerVector, InnerVector]) -> Vector:
    return tuple(c for v in phi_values for c in (v.p, v.q))


class LatticeReport(_Value):
    """Solution lattice of the relator system on generator value triples,
    flattened as (rho.p, rho.q, tau.p, tau.q, kappa.p, kappa.q)."""

    __match_args__ = ("rank", "basis", "coboundary_basis",
                      "equals_coboundary_lattice")
    __slots__ = __match_args__


def cocycle_lattice() -> LatticeReport:
    """Solve the relator constraints over Z and compare against the
    coboundary lattice.

    Each relator extension is linear in the six unknown coordinates, so
    the five relators give a 10 x 6 integer system whose kernel is the
    cocycle lattice.  Its equality with the coboundary lattice is what
    lets Cocycle validate by four closed-form conditions.

    >>> report = cocycle_lattice()
    >>> report.rank, report.equals_coboundary_lattice
    (2, True)
    """
    rows = [row for _, row_p, row_q in _relator_rows() for row in (row_p, row_q)]
    basis = tuple(kernel_basis(rows))
    cob_basis = tuple(
        _flatten((phi.v_rho, phi.v_tau, phi.v_kappa))
        for phi in (coboundary(InnerVector(1, 0)), coboundary(InnerVector(0, 1)))
    )
    return LatticeReport(
        rank=len(basis),
        basis=basis,
        coboundary_basis=cob_basis,
        equals_coboundary_lattice=lattices_equal(basis, cob_basis),
    )


def in_cocycle_lattice(phi: Cocycle, report: LatticeReport) -> bool:
    """Membership of a cocycle's flattened values in the solution lattice."""
    _expect(phi, Cocycle, "phi")
    _expect(report, LatticeReport, "report")
    return in_lattice(_flatten((phi.v_rho, phi.v_tau, phi.v_kappa)), report.basis)


class SectionOnGenerators(_Value):
    """A homomorphic section of the projection Aut(G) -> GL(2,Z), given
    by its values on rho, tau, kappa.

    Construction checks that each value is an Automorphism projecting
    onto the matching generator matrix L, so it is inner(phi(l)) o
    section(L) for a vector phi(l), and that these differences from
    canonical_section() form a Cocycle phi.  That is exactly the five
    relators at the automorphism level: the product of inner(phi(l)) o
    section(L) over a relator word is inner of phi extended over the
    word, because section is a homomorphism and section(M) o inner(v) =
    inner(M.v) o section(M).

    The check derives the coboundary vector a of phi, and the section
    keeps it for at().  It takes no part in ==, hash, repr or pickle:
    unpickling rebuilds the section through the constructor."""

    __match_args__ = ("alpha_rho", "alpha_tau", "alpha_kappa")
    __slots__ = (*__match_args__, "_a")

    def __post_init__(self) -> None:
        for sym, want in gl2.GENERATORS.items():
            value = self.value(sym)
            if not isinstance(value, Automorphism):
                raise TypeError(f"alpha_{sym.name.lower()} must be an Automorphism")
            got = value.matrix
            if got != want:
                raise ValueError(
                    f"value on {sym.name.lower()} must project to {want}, got {got}"
                )
        object.__setattr__(
            self, "_a", solve_coboundary(_canonical_difference(self)))

    def value(self, sym: Letter) -> Automorphism:
        return _by_letter(sym, self.alpha_rho, self.alpha_tau, self.alpha_kappa)

    def at(self, m: Gl2Matrix) -> Automorphism:
        """The section evaluated on an arbitrary matrix.

        It is the canonical section twisted by the coboundary of the
        kept vector a, i.e. inner(M.a - a) o section(M).
        """
        a = self._a
        return compose(inner(act(m, a) - a), section(m))

    def eval_letters(self, pairs: Sequence[LetterPair]) -> Automorphism:
        """Product of the generator values' powers in order, over raw
        letters (no normalization, so kappa^2 stays a real check).  The
        generic word route, kept as the oracle for at() and section(); its
        powers and products go through compose's plain-int core only, not
        through the closed forms, and the one Automorphism is built at the
        end.  No letters give IDENTITY_AUT."""
        try:
            return _product_of_powers(
                (self.value(sym), exp) for sym, exp in _iter_pairs(pairs, "pairs"))
        except (TypeError, ValueError) as error:
            _raise_if_unpacking(error, "pairs")
            raise

    def __str__(self) -> str:
        return format_section(self)


def canonical_section() -> SectionOnGenerators:
    """The section with the standard generator images: A and B act with
    zero center offsets, D sends y to (0, 1, -1).  One shared immutable
    instance, built at import.

    >>> canonical_section() is canonical_section()
    True
    """
    return _CANONICAL_SECTION


def _canonical_difference(alpha: SectionOnGenerators) -> Cocycle:
    # alpha's differences from the canonical section, without building
    # it: its values are section(A), section(B), section(D), and
    # normal_form divides exactly those out
    return Cocycle(*(normal_form(alpha.value(sym))[0] for sym in gl2.GENERATORS))


_CANONICAL_SECTION = SectionOnGenerators(
    Automorphism(gl2.A, 0, 0),
    Automorphism(gl2.B, 0, 0),
    Automorphism(gl2.D, 0, -1),
)


def section_difference(
    alpha2: SectionOnGenerators, alpha1: SectionOnGenerators
) -> Cocycle:
    """The cocycle g -> alpha2(g) * alpha1(g)^-1, in closed form: the
    coboundary of the difference of the two sections' kept vectors.

    The difference lands in the kernel of the projection, i.e. in the
    inner automorphisms (I, r, u), identified with Z + Z as (u, -r).

    Proof.  With phi_i = coboundary(a_i) for the vector a_i that
    alpha_i keeps, each value is alpha_i(l) = inner(phi_i(l)) o
    section(L), by construction.  So alpha2(l) o alpha1(l)^-1 =
    inner(phi2(l)) o section(L) o section(L)^-1 o inner(-phi1(l)) =
    inner(phi2(l) - phi1(l)), because inner is additive; and coboundary
    is additive, so phi2 - phi1 = coboundary(a2 - a1).

    >>> alpha = twist(canonical_section(), coboundary(InnerVector(3, -2)))
    >>> section_difference(alpha, canonical_section()) == coboundary(InnerVector(3, -2))
    True
    """
    _expect(alpha2, SectionOnGenerators, "alpha2")
    _expect(alpha1, SectionOnGenerators, "alpha1")
    return coboundary(alpha2._a - alpha1._a)


def twist(sigma0: SectionOnGenerators, phi: Cocycle) -> SectionOnGenerators:
    """The section g -> inner(phi(g)) * sigma0(g).  Twisting by a valid
    cocycle preserves all five relators; together with
    section_difference this makes the set of sections a single Z + Z
    orbit.

    >>> twist(canonical_section(), ZERO_COCYCLE) == canonical_section()
    True
    """
    _expect(sigma0, SectionOnGenerators, "sigma0")
    _expect(phi, Cocycle, "phi")
    return SectionOnGenerators(
        *(compose(inner(phi.value(sym)), sigma0.value(sym)) for sym in gl2.GENERATORS)
    )


_COCYCLE_RE = re.compile(
    r"\{\s*rho\s*=\s*" + _PAIR + r"\s*,\s*tau\s*=\s*" + _PAIR
    + r"\s*,\s*kappa\s*=\s*" + _PAIR + r"\s*\}"
)


def parse_cocycle(text: str) -> Cocycle:
    """Parse "{rho=(p,q), tau=(p,q), kappa=(p,q)}" (validates on build).

    >>> parse_cocycle("{rho=(0,0), tau=(0,0), kappa=(0,0)}") == ZERO_COCYCLE
    True
    """
    m = _read(_COCYCLE_RE, text, "a cocycle '{rho=(p,q), tau=(p,q), kappa=(p,q)}'")
    nums = [int(g) for g in m.groups()]
    return Cocycle(
        InnerVector(nums[0], nums[1]),
        InnerVector(nums[2], nums[3]),
        InnerVector(nums[4], nums[5]),
    )


def format_cocycle(phi: Cocycle) -> str:
    _expect(phi, Cocycle, "phi")
    return f"{{rho={phi.v_rho}, tau={phi.v_tau}, kappa={phi.v_kappa}}}"


_SECTION_RE = re.compile(
    r"\{\s*rho\s*=\s*(\{.*?\})\s*,\s*tau\s*=\s*(\{.*?\})\s*,\s*kappa\s*=\s*(\{.*?\})\s*\}"
)


def parse_section(text: str) -> SectionOnGenerators:
    """Parse "{rho={M=..,r=..,u=..}, tau={..}, kappa={..}}"."""
    m = _read(_SECTION_RE, text, "a section '{rho={..}, tau={..}, kappa={..}}'")
    return SectionOnGenerators(*(parse_automorphism(g) for g in m.groups()))


def format_section(alpha: SectionOnGenerators) -> str:
    _expect(alpha, SectionOnGenerators, "alpha")
    return (
        f"{{rho={alpha.alpha_rho}, tau={alpha.alpha_tau}, "
        f"kappa={alpha.alpha_kappa}}}"
    )
