"""Seeded randomized verification of every library invariant.

Each suite replays one invariant on freshly sampled inputs.  Sampling
is deterministic: sample i of suite s under seed k uses its own
random.Random(f"{k}:{s}:{i}"), so a report is reproducible from (seed,
suite, samples) alone and independent samples could be sharded across
workers without changing the outcome (the current runner is
sequential; merging is by sample index).

Sampling ranges: element coordinates and center offsets are uniform in
[-10^9, 10^9]; matrices are built as random generator words of length
at most 20 (guaranteeing determinant +-1); shear parameters d are
uniform in [-10^6, 10^6].  Failures carry the sampled inputs plus the
expected and actual values; at most three failures are recorded per
suite before it stops early.  run() checks every suite name, the
sample count and the seed before it runs any suite.

Where the library uses a closed form, the suites check it against the
generic route it replaced: word folds for section() and extend(), the
compose route for normal_form(), power() and section_difference(), and
the 10 x 6 relator system for Cocycle's four lattice conditions and the
violation it reports.
"""

from __future__ import annotations

import random
import time
from operator import mul
from typing import Callable, Iterable, Optional

from . import aut, cocycles, gl2, heis

MAX_RECORDED_FAILURES = 3

ELEMENT_BOUND = 10**9
D_BOUND = 10**6
WORD_LENGTH = 20
WORD_EXPONENT = 9


class Failure(heis._Value):
    __match_args__ = ("sample", "inputs", "expected", "actual")
    __slots__ = __match_args__


class SuiteResult(heis._Value):
    __match_args__ = ("suite", "samples", "seed", "elapsed", "failures")
    __slots__ = __match_args__

    @property
    def ok(self) -> bool:
        return not self.failures


class VerifyReport(heis._Value):
    __match_args__ = ("seed", "results")
    __slots__ = __match_args__

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


# a sample function returns None on success or (inputs, expected, actual)
Outcome = Optional[tuple[str, str, str]]


class _Suite(heis._Value):
    __match_args__ = ("name", "fn", "static")
    __slots__ = __match_args__


_SUITES: dict[str, _Suite] = {}


def _sampled(name: str):
    def register(fn: Callable[[random.Random], Outcome]):
        _SUITES[name] = _Suite(name, fn, static=False)
        return fn

    return register


def _static(name: str):
    def register(fn: Callable[[], Iterable[tuple[str, str, str]]]):
        _SUITES[name] = _Suite(name, fn, static=True)
        return fn

    return register


def available_suites() -> tuple[str, ...]:
    return tuple(_SUITES)


def _check_arguments(names: Iterable[str], samples: int, seed: int) -> None:
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; available: "
                             + ", ".join(available_suites()))
    heis._check_int(samples, "samples")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    heis._check_int(seed, "seed")


def run_suite(name: str, samples: int, seed: int) -> SuiteResult:
    _check_arguments((name,), samples, seed)
    suite = _SUITES[name]
    start = time.perf_counter()
    failures: list[Failure] = []
    ran = 0
    if suite.static:
        ran = 1
        failures = [Failure(0, *f) for f in suite.fn()]
    else:
        for i in range(samples):
            ran += 1
            outcome = suite.fn(random.Random(f"{seed}:{name}:{i}"))
            if outcome is not None:
                failures.append(Failure(i, *outcome))
                if len(failures) >= MAX_RECORDED_FAILURES:
                    break
    elapsed = time.perf_counter() - start
    return SuiteResult(name, ran, seed, elapsed, tuple(failures[:MAX_RECORDED_FAILURES]))


def run(
    names: Optional[Iterable[str]] = None, samples: int = 1000, seed: int = 0
) -> VerifyReport:
    """Run the named suites (all of them by default).  Every argument
    is checked before any suite runs."""
    if isinstance(names, str):
        raise TypeError("names must be an iterable of suite names, not a str")
    selected = list(names) if names is not None else list(_SUITES)
    _check_arguments(selected, samples, seed)
    return VerifyReport(seed, tuple(run_suite(n, samples, seed) for n in selected))


# ---------------------------------------------------------------------------
# samplers

def _rand_int(rng: random.Random, bound: int = ELEMENT_BOUND) -> int:
    # what randint(-bound, bound) does, without its extra call
    return rng.randrange(-bound, bound + 1)


def _rand_element(rng: random.Random, bound: int = ELEMENT_BOUND) -> heis.HeisElement:
    return heis.HeisElement(
        _rand_int(rng, bound), _rand_int(rng, bound), _rand_int(rng, bound)
    )


_LETTERS = tuple(gl2.GENERATORS)


def _rand_pairs(
    rng: random.Random, max_len: int = WORD_LENGTH, max_exp: int = WORD_EXPONENT
) -> list[gl2.LetterPair]:
    length = rng.randint(0, max_len)
    pairs = []
    for _ in range(length):
        sym = rng.choice(_LETTERS)
        exp = rng.choice((1, -1)) * rng.randint(1, max_exp)
        pairs.append((sym, exp))
    return pairs


def _rand_word(rng: random.Random, max_len: int = WORD_LENGTH) -> gl2.GeneratorWord:
    return gl2.GeneratorWord(tuple(_rand_pairs(rng, max_len)))


def _rand_matrix(rng: random.Random, max_len: int = WORD_LENGTH) -> gl2.Gl2Matrix:
    # the draws of _rand_word, evaluated without normalizing them first
    return gl2.eval_letters(_rand_pairs(rng, max_len))


def _rand_aut(rng: random.Random, max_len: int = WORD_LENGTH) -> aut.Automorphism:
    return aut.Automorphism(_rand_matrix(rng, max_len), _rand_int(rng), _rand_int(rng))


def _rand_vector(rng: random.Random, bound: int = ELEMENT_BOUND) -> aut.InnerVector:
    return aut.InnerVector(_rand_int(rng, bound), _rand_int(rng, bound))


def _mismatch(inputs: str, expected: object, actual: object) -> Outcome:
    return (inputs, str(expected), str(actual))


# ---------------------------------------------------------------------------
# element suites

@_sampled("group-axioms")
def _group_axioms(rng: random.Random) -> Outcome:
    g1, g2, g3 = (_rand_element(rng) for _ in range(3))
    left = heis.multiply(heis.multiply(g1, g2), g3)
    right = heis.multiply(g1, heis.multiply(g2, g3))
    if left != right:
        return _mismatch(f"associativity g1={g1} g2={g2} g3={g3}", left, right)
    for g in (g1, g2, g3):
        if heis.multiply(g, heis.IDENTITY) != g or heis.multiply(heis.IDENTITY, g) != g:
            return _mismatch(f"identity law g={g}", g, heis.multiply(g, heis.IDENTITY))
        inv = heis.inverse(g)
        if (heis.multiply(g, inv) != heis.IDENTITY
                or heis.multiply(inv, g) != heis.IDENTITY):
            return _mismatch(
                f"inverse law g={g}", heis.IDENTITY, heis.multiply(g, inv))
    return None


@_sampled("power-oracle")
def _power_oracle(rng: random.Random) -> Outcome:
    g = _rand_element(rng)
    n = rng.randint(-50, 50)
    base = g if n >= 0 else heis.inverse(g)
    acc = heis.IDENTITY
    for _ in range(abs(n)):
        acc = heis.multiply(acc, base)
    got = heis.power(g, n)
    if got != acc:
        return _mismatch(f"g={g} n={n}", acc, got)
    return None


@_sampled("generator-decomposition")
def _generator_decomposition(rng: random.Random) -> Outcome:
    g = _rand_element(rng)
    chain = heis.multiply(
        heis.multiply(heis.power(heis.Z, g.c), heis.power(heis.Y, g.b)),
        heis.power(heis.X, g.a),
    )
    if chain != g:
        return _mismatch(f"z^c y^b x^a for g={g}", g, chain)
    return None


@_sampled("lambda-hom")
def _lambda_hom(rng: random.Random) -> Outcome:
    g1, g2 = _rand_element(rng), _rand_element(rng)
    if rng.random() < 0.25:
        g1 = heis.HeisElement(0, 0, g1.c)
    lam = heis.lambda_project
    if lam(heis.multiply(g1, g2)) != lam(g1) + lam(g2):
        return _mismatch(
            f"homomorphism g1={g1} g2={g2}",
            lam(g1) + lam(g2),
            lam(heis.multiply(g1, g2)),
        )
    in_kernel = lam(g1) == heis.AbPair(0, 0)
    if in_kernel != heis.is_central(g1):
        return _mismatch(
            f"kernel=center g={g1}", heis.is_central(g1), in_kernel)
    return None


@_sampled("central-commute")
def _central_commute(rng: random.Random) -> Outcome:
    g = _rand_element(rng)
    if rng.random() < 0.5:
        g = heis.HeisElement(0, 0, g.c)
    commutes = all(
        heis.multiply(g, h) == heis.multiply(h, g) for h in (heis.X, heis.Y)
    )
    if commutes != heis.is_central(g):
        return _mismatch(
            f"g={g}", f"is_central={heis.is_central(g)}", f"commutes={commutes}")
    return None


@_sampled("commutator-oracle")
def _commutator_oracle(rng: random.Random) -> Outcome:
    g1, g2 = _rand_element(rng), _rand_element(rng)
    expanded = heis.multiply(
        heis.multiply(heis.multiply(g1, g2), heis.inverse(g1)), heis.inverse(g2)
    )
    got = heis.commutator(g1, g2)
    if got != expanded:
        return _mismatch(f"g1={g1} g2={g2}", expanded, got)
    if not heis.is_central(got):
        return _mismatch(f"centrality g1={g1} g2={g2}", "central", str(got))
    return None


# ---------------------------------------------------------------------------
# GL(2,Z) word suites

@_sampled("word-roundtrip")
def _word_roundtrip(rng: random.Random) -> Outcome:
    m = _rand_matrix(rng)
    for strategy in ("left", "right"):
        w = gl2.decompose(m, strategy)
        back = gl2.eval_word(w)
        if back != m:
            return _mismatch(f"strategy={strategy} M={m} word={w}", m, back)
    return None


@_sampled("word-det")
def _word_det(rng: random.Random) -> Outcome:
    pairs = _rand_pairs(rng)
    m = gl2.eval_letters(pairs)
    kappa_exp = sum(exp for sym, exp in pairs if sym is gl2.Letter.KAPPA)
    expected = -1 if kappa_exp % 2 else 1
    if m.det != expected:
        word = gl2.format_word(gl2.GeneratorWord(tuple(pairs)))
        return _mismatch(f"word={word!r}", expected, m.det)
    return None


@_sampled("word-normalize")
def _word_normalize(rng: random.Random) -> Outcome:
    pairs = tuple(_rand_pairs(rng))
    # the plain-int column fold of eval_letters against matrix products
    product = gl2.IDENTITY
    for sym, exp in pairs:
        product = gl2.mat_multiply(product, gl2.GENERATORS[sym] ** exp)
    if gl2.eval_letters(pairs) != product:
        return _mismatch(f"generator powers raw={pairs}", product,
                         gl2.eval_letters(pairs))
    w = gl2.GeneratorWord(pairs)
    if gl2.eval_word(w) != gl2.eval_letters(pairs):
        return _mismatch(
            f"evaluation invariance raw={pairs}", gl2.eval_letters(pairs),
            gl2.eval_word(w))
    if gl2.GeneratorWord(w.letters) != w:
        return _mismatch(f"idempotence w={w}", w, gl2.GeneratorWord(w.letters))
    for i, (sym, exp) in enumerate(w.letters):
        bad = (
            exp == 0
            or (sym is gl2.Letter.KAPPA and exp != 1)
            or (i > 0 and w.letters[i - 1][0] is sym)
        )
        if bad:
            return _mismatch(f"normal form w={w}", "normalized letters", str(w.letters))
    return None


@_static("matrix-relations")
def _matrix_relations() -> list[tuple[str, str, str]]:
    return [
        (check.name, str(gl2.IDENTITY), str(check.product))
        for check in gl2.check_presentation_relations()
        if not check.ok
    ]


# ---------------------------------------------------------------------------
# automorphism suites

@_sampled("apply-hom")
def _apply_hom(rng: random.Random) -> Outcome:
    omega = _rand_aut(rng)
    g1, g2 = _rand_element(rng), _rand_element(rng)
    lhs = aut.apply(omega, heis.multiply(g1, g2))
    rhs = heis.multiply(aut.apply(omega, g1), aut.apply(omega, g2))
    if lhs != rhs:
        return _mismatch(f"omega={omega} g1={g1} g2={g2}", rhs, lhs)
    return None


@_sampled("apply-closed-form")
def _apply_closed_form(rng: random.Random) -> Outcome:
    # moderate sizes: the oracle expands the generator word z^c y^b x^a
    omega = aut.Automorphism(
        _rand_matrix(rng, max_len=6), _rand_int(rng, 30), _rand_int(rng, 30)
    )
    g = _rand_element(rng, bound=30)
    m = omega.matrix
    gx = heis.HeisElement(m.m11, m.m21, omega.r)
    gy = heis.HeisElement(m.m12, m.m22, omega.u)
    gz = heis.HeisElement(0, 0, m.det)
    expected = heis.multiply(
        heis.multiply(heis.power(gz, g.c), heis.power(gy, g.b)),
        heis.power(gx, g.a),
    )
    got = aut.apply(omega, g)
    if got != expected:
        return _mismatch(f"omega={omega} g={g}", expected, got)
    return None


@_sampled("compose-pointwise")
def _compose_pointwise(rng: random.Random) -> Outcome:
    omega1, omega2 = _rand_aut(rng), _rand_aut(rng)
    g = _rand_element(rng)
    lhs = aut.apply(aut.compose(omega2, omega1), g)
    rhs = aut.apply(omega2, aut.apply(omega1, g))
    if lhs != rhs:
        return _mismatch(f"omega2={omega2} omega1={omega1} g={g}", rhs, lhs)
    return None


@_sampled("invert-roundtrip")
def _invert_roundtrip(rng: random.Random) -> Outcome:
    omega = _rand_aut(rng)
    inv = aut.invert(omega)
    for left, right in ((inv, omega), (omega, inv)):
        if aut.compose(left, right) != aut.IDENTITY_AUT:
            return _mismatch(
                f"omega={omega}", aut.IDENTITY_AUT, aut.compose(left, right))
    if aut.invert(inv) != omega:
        return _mismatch(f"double inverse omega={omega}", omega, aut.invert(inv))
    return None


@_sampled("rd-hom")
def _rd_hom(rng: random.Random) -> Outcome:
    d1, d2 = _rand_int(rng, D_BOUND), _rand_int(rng, D_BOUND)
    if aut.compose(aut.rd(d1), aut.rd(d2)) != aut.rd(d1 + d2):
        return _mismatch(
            f"d1={d1} d2={d2}", aut.rd(d1 + d2), aut.compose(aut.rd(d1), aut.rd(d2)))
    g = _rand_element(rng)
    expected = heis.HeisElement(
        g.a + d1 * g.b, g.b, g.c + (g.b * (g.b - 1) // 2) * d1
    )
    got = aut.apply(aut.rd(d1), g)
    if got != expected:
        return _mismatch(f"shear formula d={d1} g={g}", expected, got)
    return None


@_sampled("inner-conjugation")
def _inner_conjugation(rng: random.Random) -> Outcome:
    v = _rand_vector(rng)
    g = _rand_element(rng)
    h = heis.HeisElement(v.p, v.q, 0)
    conjugated = heis.multiply(heis.multiply(h, g), heis.inverse(h))
    got = aut.apply(aut.inner(v), g)
    if got != conjugated:
        return _mismatch(f"v={v} g={g}", conjugated, got)
    if aut.project(aut.inner(v)) != gl2.IDENTITY:
        return _mismatch(f"projection v={v}", gl2.IDENTITY, aut.project(aut.inner(v)))
    return None


@_static("relations")
def _relations() -> list[tuple[str, str, str]]:
    failures = []
    sigma = {sym: aut.section(m) for sym, m in gl2.GENERATORS.items()}
    on_generators = cocycles.canonical_section()
    for sym, value in sigma.items():
        if on_generators.value(sym) != value:
            failures.append((f"canonical value on {sym.name.lower()}",
                             str(value), str(on_generators.value(sym))))
    for name, pairs in gl2.RELATORS:
        product = on_generators.eval_letters(pairs)
        if product != aut.IDENTITY_AUT:
            failures.append(
                (f"section relator {name}", str(aut.IDENTITY_AUT), str(product)))
    aba = aut.compose(sigma[gl2.Letter.RHO],
                      aut.compose(sigma[gl2.Letter.TAU], sigma[gl2.Letter.RHO]))
    dad = aut.compose(
        sigma[gl2.Letter.KAPPA],
        aut.compose(sigma[gl2.Letter.RHO], aut.invert(sigma[gl2.Letter.KAPPA])),
    )
    dbd = aut.compose(
        sigma[gl2.Letter.KAPPA],
        aut.compose(sigma[gl2.Letter.TAU], aut.invert(sigma[gl2.Letter.KAPPA])),
    )
    fixed_values = (
        ("ABA on x", aba, heis.X, heis.HeisElement(0, -1, 1)),
        ("ABA on y", aba, heis.Y, heis.HeisElement(1, 0, 0)),
        ("DAD^-1 on y", dad, heis.Y, heis.HeisElement(-1, 1, 0)),
        ("DBD^-1 on x", dbd, heis.X, heis.HeisElement(1, 1, 0)),
    )
    for label, omega, arg, expected in fixed_values:
        got = aut.apply(omega, arg)
        if got != expected:
            failures.append((label, str(expected), str(got)))
    dd = aut.compose(sigma[gl2.Letter.KAPPA], sigma[gl2.Letter.KAPPA])
    if dd != aut.IDENTITY_AUT:
        failures.append(("sigma(D)^2", str(aut.IDENTITY_AUT), str(dd)))
    return failures


@_sampled("section-hom")
def _section_hom(rng: random.Random) -> Outcome:
    m1, m2 = _rand_matrix(rng), _rand_matrix(rng)
    lhs = aut.section(gl2.mat_multiply(m1, m2))
    rhs = aut.compose(aut.section(m1), aut.section(m2))
    if lhs != rhs:
        return _mismatch(f"M1={m1} M2={m2}", rhs, lhs)
    return None


@_sampled("section-welldef")
def _section_welldef(rng: random.Random) -> Outcome:
    # the closed form against the generic fold over two different words
    m = _rand_matrix(rng)
    closed = aut.section(m)
    sigma0 = cocycles.canonical_section()
    for strategy in ("left", "right"):
        w = gl2.decompose(m, strategy)
        folded = sigma0.eval_letters(w.letters)
        if folded != closed:
            return _mismatch(f"strategy={strategy} M={m} word={w}", folded, closed)
    return None


@_sampled("project-section")
def _project_section(rng: random.Random) -> Outcome:
    m = _rand_matrix(rng)
    got = aut.project(aut.section(m))
    if got != m:
        return _mismatch(f"M={m}", m, got)
    return None


@_sampled("exactness")
def _exactness(rng: random.Random) -> Outcome:
    r, u = _rand_int(rng), _rand_int(rng)
    omega = aut.Automorphism(gl2.IDENTITY, r, u)
    expected = aut.inner(aut.InnerVector(u, -r))
    if omega != expected:
        return _mismatch(f"kernel element r={r} u={u}", expected, omega)
    v1, v2 = _rand_vector(rng), _rand_vector(rng)
    if (aut.inner(v1) == aut.inner(v2)) != (v1 == v2):
        return _mismatch(f"injectivity v1={v1} v2={v2}", v1 == v2,
                         aut.inner(v1) == aut.inner(v2))
    return None


@_sampled("normal-form")
def _normal_form(rng: random.Random) -> Outcome:
    v, m = _rand_vector(rng), _rand_matrix(rng)
    omega = aut.compose(aut.inner(v), aut.section(m))
    got_v, got_m = aut.normal_form(omega)
    if (got_v, got_m) != (v, m):
        return _mismatch(f"v={v} M={m}", (v, m), (got_v, got_m))
    omega2 = _rand_aut(rng, max_len=8)
    v2, m2 = aut.normal_form(omega2)
    # the closed-form solve against the compose route: the residual
    # omega * section(M)^-1 is inner(v), with offsets (-q, p)
    delta = aut.compose(omega2, aut.invert(aut.section(m2)))
    via_compose = aut.InnerVector(delta.u, -delta.r)
    if v2 != via_compose:
        return _mismatch(f"compose route omega={omega2}", via_compose, v2)
    rebuilt = aut.compose(aut.inner(v2), aut.section(m2))
    if rebuilt != omega2:
        return _mismatch(f"rebuild omega={omega2}", omega2, rebuilt)
    # power's closed form inner(S_n v) o section(M^n) against compose
    n = rng.randint(-50, 50)
    got, expected = aut.power(omega2, n), aut._compose_power(omega2, n)
    if got != expected:
        return _mismatch(f"power omega={omega2} n={n}", expected, got)
    return None


@_sampled("naturality")
def _naturality(rng: random.Random) -> Outcome:
    m, v = _rand_matrix(rng), _rand_vector(rng)
    sigma_m = aut.section(m)
    lhs = aut.compose(sigma_m, aut.compose(aut.inner(v), aut.invert(sigma_m)))
    rhs = aut.inner(aut.act(m, v))
    if lhs != rhs:
        return _mismatch(f"M={m} v={v}", rhs, lhs)
    return None


@_sampled("center-det")
def _center_det(rng: random.Random) -> Outcome:
    omega = _rand_aut(rng)
    if aut.center_image(omega) != omega.matrix.det:
        return _mismatch(
            f"omega={omega}", omega.matrix.det, aut.center_image(omega))
    fixes_z = aut.apply(omega, heis.Z) == heis.Z
    if aut.is_aut_plus(omega) != fixes_z:
        return _mismatch(f"omega={omega}", f"fixes z: {fixes_z}",
                         f"is_aut_plus: {aut.is_aut_plus(omega)}")
    return None


# ---------------------------------------------------------------------------
# cohomology suites

@_static("cocycle-lattice")
def _cocycle_lattice() -> list[tuple[str, str, str]]:
    failures = []
    report = cocycles.cocycle_lattice()
    if report.rank != 2:
        failures.append(("lattice rank", "2", str(report.rank)))
    if not report.equals_coboundary_lattice:
        failures.append(
            ("lattice = coboundary lattice", "equal",
             f"basis={report.basis} coboundary={report.coboundary_basis}"))
    for a in (aut.InnerVector(1, 0), aut.InnerVector(0, 1)):
        phi = cocycles.coboundary(a)
        if not cocycles.in_cocycle_lattice(phi, report):
            failures.append((f"coboundary({a}) in lattice", "member", str(phi)))
    # Cocycle's closed-form check, and the violation it reports, against
    # the linear relator system, on coboundaries and on triples that
    # break each relator
    v, zero = aut.InnerVector, aut.ZERO_VECTOR
    cob = cocycles.coboundary(v(3, -2))
    good = (cob.v_rho, cob.v_tau, cob.v_kappa)
    triples = [
        good,
        (v(1, 0), zero, zero), (v(0, 1), zero, zero),
        (zero, v(1, 0), zero), (zero, v(0, 1), zero),
        (zero, zero, v(1, 0)), (zero, zero, v(0, 1)),
        (good[0] + v(0, 1), good[1], good[2]),
        (good[0], good[1] + v(5, 0), good[2]),
        (good[0], good[1], good[2] + v(0, -7)),
    ]
    for triple in triples:
        expected = _linear_violation(triple)
        try:
            cocycles.Cocycle(*triple)
            raised = None
        except cocycles.RelatorViolation as exc:
            raised = exc.relator, exc.value
        if raised != expected:
            failures.append((
                "Cocycle = linear relator check on " + ", ".join(map(str, triple)),
                str(expected), f"Cocycle raised {raised}"))
    return failures


def _linear_violation(
    triple: tuple[aut.InnerVector, aut.InnerVector, aut.InnerVector]
) -> Optional[tuple[str, aut.InnerVector]]:
    # the first relator whose pair of rows in the relator system gives a
    # nonzero (row_p . x, row_q . x) on the flattened triple x
    x = cocycles._flatten(triple)
    for name, row_p, row_q in cocycles._relator_rows():
        p, q = sum(map(mul, row_p, x)), sum(map(mul, row_q, x))
        if p or q:
            return name, aut.InnerVector(p, q)
    return None


@_sampled("coboundary-roundtrip")
def _coboundary_roundtrip(rng: random.Random) -> Outcome:
    a1, a2 = _rand_vector(rng), _rand_vector(rng)
    got = cocycles.solve_coboundary(cocycles.coboundary(a1))
    if got != a1:
        return _mismatch(f"a={a1}", a1, got)
    additive = cocycles.coboundary(a1) + cocycles.coboundary(a2)
    if additive != cocycles.coboundary(a1 + a2):
        return _mismatch(
            f"additivity a1={a1} a2={a2}", cocycles.coboundary(a1 + a2), additive)
    return None


def _fold(phi: cocycles.Cocycle, w: gl2.GeneratorWord) -> aut.InnerVector:
    # the cocycle identity folded over the word's letters
    return cocycles._extend_values(phi.v_rho, phi.v_tau, phi.v_kappa, w.letters)


@_sampled("cocycle-extend")
def _cocycle_extend(rng: random.Random) -> Outcome:
    # the closed form M.a - a against the relator fold
    a = _rand_vector(rng)
    phi = cocycles.coboundary(a)
    w1 = _rand_word(rng, max_len=10)
    w2 = _rand_word(rng, max_len=10)
    m1 = gl2.eval_word(w1)
    expected = _fold(phi, w1)
    got = cocycles.extend(phi, w1)
    if got != expected:
        return _mismatch(f"fold over w for a={a} w={w1}", expected, got)
    # cocycle identity over concatenation
    lhs = cocycles.extend(phi, w1 * w2)
    rhs = cocycles.extend(phi, w1) + aut.act(m1, cocycles.extend(phi, w2))
    if lhs != rhs:
        return _mismatch(f"concatenation a={a} w1={w1} w2={w2}", rhs, lhs)
    # word independence: the fold over another word for the same matrix
    alt = gl2.decompose(m1, "right")
    got_alt = _fold(phi, alt)
    if got_alt != got:
        return _mismatch(f"word independence a={a} M={m1} word={alt}", got, got_alt)
    return None


def _difference_by_compose(
    alpha2: cocycles.SectionOnGenerators, alpha1: cocycles.SectionOnGenerators
) -> cocycles.Cocycle:
    # alpha2(l) o alpha1(l)^-1 per generator: an inner automorphism
    # (I, r, u), i.e. the vector (u, -r)
    deltas = (aut.compose(alpha2.value(sym), aut.invert(alpha1.value(sym)))
              for sym in gl2.GENERATORS)
    return cocycles.Cocycle(*(aut.InnerVector(d.u, -d.r) for d in deltas))


@_sampled("section-twist")
def _section_twist(rng: random.Random) -> Outcome:
    a = _rand_vector(rng)
    phi = cocycles.coboundary(a)
    sigma0 = cocycles.canonical_section()
    twisted = cocycles.twist(sigma0, phi)  # constructor re-checks relators
    diff = cocycles.section_difference(twisted, sigma0)
    if diff != phi:
        return _mismatch(f"twist/diff roundtrip a={a}", phi, diff)
    # the closed form against the generator-wise compose route
    for order, alpha2, alpha1 in (("twisted, sigma0", twisted, sigma0),
                                  ("sigma0, twisted", sigma0, twisted)):
        expected = _difference_by_compose(alpha2, alpha1)
        got = cocycles.section_difference(alpha2, alpha1)
        if got != expected:
            return _mismatch(f"diff({order}) by compose a={a}", expected, got)
    if cocycles.section_difference(sigma0, sigma0) != cocycles.ZERO_COCYCLE:
        return _mismatch("diff(sigma, sigma)", cocycles.ZERO_COCYCLE,
                         cocycles.section_difference(sigma0, sigma0))
    m = _rand_matrix(rng, max_len=8)
    if aut.project(twisted.at(m)) != m:
        return _mismatch(f"twisted section over M={m}", m,
                         aut.project(twisted.at(m)))
    # the closed form of at() against the generic fold over a word, and
    # the relators at the automorphism level through the same fold
    w = gl2.decompose(m, "right")
    folded = twisted.eval_letters(w.letters)
    if twisted.at(m) != folded:
        return _mismatch(f"twisted at a={a} M={m} word={w}", folded, twisted.at(m))
    for name, pairs in gl2.RELATORS:
        product = twisted.eval_letters(pairs)
        if product != aut.IDENTITY_AUT:
            return _mismatch(f"twisted relator {name} a={a}",
                             aut.IDENTITY_AUT, product)
    return None


# ---------------------------------------------------------------------------
# syntax suite

@_sampled("parse-roundtrip")
def _parse_roundtrip(rng: random.Random) -> Outcome:
    g = _rand_element(rng)
    if heis.parse_element(heis.format_element(g)) != g:
        return _mismatch(f"element {g}", g, heis.parse_element(heis.format_element(g)))
    m = _rand_matrix(rng)
    if gl2.parse_matrix(gl2.format_matrix(m)) != m:
        return _mismatch(f"matrix {m}", m, gl2.parse_matrix(gl2.format_matrix(m)))
    w = _rand_word(rng)
    if gl2.parse_word(gl2.format_word(w)) != w:
        return _mismatch(f"word {w}", w, gl2.parse_word(gl2.format_word(w)))
    omega = _rand_aut(rng)
    if aut.parse_automorphism(aut.format_automorphism(omega)) != omega:
        return _mismatch(f"automorphism {omega}", omega,
                         aut.parse_automorphism(aut.format_automorphism(omega)))
    phi = cocycles.coboundary(_rand_vector(rng))
    if cocycles.parse_cocycle(cocycles.format_cocycle(phi)) != phi:
        return _mismatch(f"cocycle {phi}", phi,
                         cocycles.parse_cocycle(cocycles.format_cocycle(phi)))
    alpha = cocycles.twist(cocycles.canonical_section(), phi)
    if cocycles.parse_section(cocycles.format_section(alpha)) != alpha:
        return _mismatch(f"section {alpha}", alpha,
                         cocycles.parse_section(cocycles.format_section(alpha)))
    return None
