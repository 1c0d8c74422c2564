"""Seeded randomized verification of every library invariant.

Each suite replays one invariant on freshly sampled inputs.  Sampling
is deterministic: sample i of suite s under seed k starts from the
state of random.Random(f"{k}:{s}:{i}"), so a report is reproducible
from (seed, suite, samples) alone and independent samples could be
sharded across workers without changing the outcome (the current
runner is sequential; merging is by sample index).  A suite run makes
one generator, Random(key) for sample 0, and reseeds it with seed(key)
for each later sample; Random(key) is seed(key), so the stream is the
same as with a new generator per sample, without building one.  The
samplers take their draws straight from getrandbits, exactly as
randint() and choice() made them, so a report depends only on the seed
and the Mersenne Twister stream, not on random.py's helper code.

Sampling ranges: element coordinates and center offsets are uniform in
[-10^9, 10^9]; matrices are built as random generator words of length
at most 20 (guaranteeing determinant +-1), and word-long's words have
33 to 129 letters; shear parameters d are uniform in [-10^6, 10^6].

Every suite has one failure path: a check that fails raises
_Mismatch(inputs, expected, actual) with the two sides it compared, so
the first failed check of a sample ends that sample and becomes its
Failure.  An equality check goes through _check_equal, which takes the
inputs label as a str.format template and its values and formats it
only when the check fails: a passing check never turns its 10^9-sized
elements or 20-letter words into text.  The few checks that are not an
equality, or that report strings other than the two sides they
compare, raise _Mismatch themselves.  Any other exception is a failure
too, one that names the exception and the sample's RNG key.  A static
suite (matrix-relations, relations, cocycle-lattice) checks fixed
values: it runs as one sample, index 0, takes that sample's RNG like
every suite and draws nothing from it.  At most three failures are
recorded per suite, and a suite stops at the third.  run() checks every
suite name, the sample count and the seed before it runs any suite.

Where the library uses a closed form, the suites check it against the
generic route it replaced: word folds for section() and extend(), the
compose route for normal_form(), power() and section_difference() (for
power() also at each conjugacy type of its matrix, in power-types),
act and the validating Cocycle constructor for coboundary(), the
relator folds and the validating SectionOnGenerators constructor (in
parse-roundtrip) for twist(), and the 10 x 6 relator system for
Cocycle's four lattice conditions and the violation it reports.
word-long checks the product tree by which eval_letters multiplies the
runs of a word of more than 32 letters against one column fold over
all its letters.

The suites that guard each closed form, to run at many samples after
changing it:
- the column-product offsets of apply, compose, invert and heis.power:
  apply-hom, apply-closed-form, compose-pointwise, invert-roundtrip and
  power-oracle, against the homomorphism laws, iterated multiplication
  and gl2's own matrix product;
- every formula that reads det M from its entries mod 4 (normal_form,
  section): center-det, normal-form, section-hom and project-section,
  on matrices of det 1 and -1, against Gl2Matrix.det;
- the vector and cocycle builders that skip the constructors' checks
  (act, the arithmetic of vectors and cocycles, coboundary,
  solve_coboundary, extend, twist): exactness, inner-conjugation,
  naturality, coboundary-roundtrip, lambda-hom and parse-roundtrip,
  besides cocycle-extend and section-twist.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Iterable
from operator import mul

from . import aut, cocycles, gl2, heis
from .gl2 import _KAPPA

MAX_RECORDED_FAILURES = 3

ELEMENT_BOUND = 10**9
D_BOUND = 10**6
WORD_LENGTH = 20
WORD_EXPONENT = 9
LONG_WORD_LENGTH = 129


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


class _Mismatch(Exception):
    """A failed check of a suite; args are (inputs, expected, actual),
    the two sides as the check compared them."""


def _check_equal(expected, actual, inputs: str, *args) -> None:
    # the equality check of a suite: the label is formatted from
    # its template only when the check fails, never for a passing one
    if actual != expected:
        raise _Mismatch(inputs.format(*args), expected, actual)


class _Suite(heis._Value):
    __match_args__ = ("name", "fn", "static")
    __slots__ = __match_args__


_SUITES: dict[str, _Suite] = {}


def _sampled(name: str, static: bool = False):
    def register(fn: Callable[[random.Random], None]):
        _SUITES[name] = _Suite(name, fn, static)
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
    rng = None
    for i in range(1 if suite.static else samples):
        ran += 1
        key = f"{seed}:{name}:{i}"
        # one generator per suite run, reseeded per sample: Random(key)
        # is seed(key), so sample i starts from Random(key)'s state
        if rng is None:
            rng = random.Random(key)
        else:
            rng.seed(key)
        try:
            suite.fn(rng)
            continue
        except _Mismatch as exc:
            failures.append(Failure(i, *map(str, exc.args)))
        except Exception as exc:
            failures.append(Failure(i, f"rng key {key}", *_raised(exc)))
        if len(failures) >= MAX_RECORDED_FAILURES:
            break
    elapsed = time.perf_counter() - start
    return SuiteResult(name, ran, seed, elapsed, tuple(failures))


def _raised(exc: Exception) -> tuple[str, str]:
    # (expected, actual) of a suite that raised something other than a
    # _Mismatch: a library defect may show as an exception, and then it
    # is a FAIL of that sample, not the end of the run; KeyboardInterrupt
    # still ends it
    return "no exception", f"{type(exc).__name__}: {exc}"


def run(
    names: Iterable[str] | None = None, samples: int = 1000, seed: int = 0
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
    # randint(-bound, bound), drawn as Random._randbelow draws it: k bits
    # from getrandbits, again while out of range
    n = 2 * bound + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r - bound


def _rand_element(rng: random.Random, bound: int = ELEMENT_BOUND) -> heis.HeisElement:
    return heis.HeisElement(
        _rand_int(rng, bound), _rand_int(rng, bound), _rand_int(rng, bound)
    )


_LETTERS = tuple(gl2.GENERATORS)


def _rand_pairs(
    rng: random.Random, max_len: int = WORD_LENGTH, max_exp: int = WORD_EXPONENT
) -> list[gl2.LetterPair]:
    # the draws of randint(0, max_len), then per letter choice(_LETTERS),
    # choice((1, -1)) and randint(1, max_exp), each made inline as in
    # _rand_int (a choice of 3 or of 2 takes 2 bits); a helper call per
    # draw would cost most of the gain
    getrandbits = rng.getrandbits
    n = max_len + 1
    k = n.bit_length()
    length = getrandbits(k)
    while length >= n:
        length = getrandbits(k)
    k = max_exp.bit_length()
    pairs = []
    for _ in range(length):
        sym = getrandbits(2)
        while sym >= 3:
            sym = getrandbits(2)
        sign = getrandbits(2)
        while sign >= 2:
            sign = getrandbits(2)
        exp = getrandbits(k)
        while exp >= max_exp:
            exp = getrandbits(k)
        pairs.append((_LETTERS[sym], -1 - exp if sign else 1 + exp))
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


# ---------------------------------------------------------------------------
# element suites

@_sampled("group-axioms")
def _group_axioms(rng: random.Random) -> None:
    g1, g2, g3 = (_rand_element(rng) for _ in range(3))
    left = heis.multiply(heis.multiply(g1, g2), g3)
    right = heis.multiply(g1, heis.multiply(g2, g3))
    _check_equal(left, right, "associativity g1={} g2={} g3={}", g1, g2, g3)
    e = heis.IDENTITY
    for g in (g1, g2, g3):
        inv = heis.inverse(g)
        for law, product, expected in (
            ("identity law g*e", heis.multiply(g, e), g),
            ("identity law e*g", heis.multiply(e, g), g),
            ("inverse law g*g^-1", heis.multiply(g, inv), e),
            ("inverse law g^-1*g", heis.multiply(inv, g), e),
        ):
            _check_equal(expected, product, "{} g={}", law, g)


@_sampled("power-oracle")
def _power_oracle(rng: random.Random) -> None:
    g = _rand_element(rng)
    n = _rand_int(rng, 50)
    base = g if n >= 0 else heis.inverse(g)
    acc = heis.IDENTITY
    for _ in range(abs(n)):
        acc = heis.multiply(acc, base)
    _check_equal(acc, heis.power(g, n), "g={} n={}", g, n)


@_sampled("generator-decomposition")
def _generator_decomposition(rng: random.Random) -> None:
    g = _rand_element(rng)
    chain = heis.multiply(
        heis.multiply(heis.power(heis.Z, g.c), heis.power(heis.Y, g.b)),
        heis.power(heis.X, g.a),
    )
    _check_equal(g, chain, "z^c y^b x^a for g={}", g)


@_sampled("lambda-hom")
def _lambda_hom(rng: random.Random) -> None:
    g1, g2 = _rand_element(rng), _rand_element(rng)
    if rng.random() < 0.25:
        g1 = heis.HeisElement(0, 0, g1.c)
    lam = heis.lambda_project
    product, summed = lam(heis.multiply(g1, g2)), lam(g1) + lam(g2)
    _check_equal(summed, product, "homomorphism g1={} g2={}", g1, g2)
    in_kernel = lam(g1) == heis.AbPair(0, 0)
    central = heis.is_central(g1)
    _check_equal(central, in_kernel, "kernel=center g={}", g1)


@_sampled("central-commute")
def _central_commute(rng: random.Random) -> None:
    g = _rand_element(rng)
    if rng.random() < 0.5:
        g = heis.HeisElement(0, 0, g.c)
    commutes = all(
        heis.multiply(g, h) == heis.multiply(h, g) for h in (heis.X, heis.Y)
    )
    central = heis.is_central(g)
    if commutes != central:
        raise _Mismatch(f"g={g}", f"is_central={central}", f"commutes={commutes}")


@_sampled("commutator-oracle")
def _commutator_oracle(rng: random.Random) -> None:
    g1, g2 = _rand_element(rng), _rand_element(rng)
    expanded = heis.multiply(
        heis.multiply(heis.multiply(g1, g2), heis.inverse(g1)), heis.inverse(g2)
    )
    got = heis.commutator(g1, g2)
    _check_equal(expanded, got, "g1={} g2={}", g1, g2)
    if not heis.is_central(got):
        raise _Mismatch(f"centrality g1={g1} g2={g2}", "central", got)


# ---------------------------------------------------------------------------
# GL(2,Z) word suites

@_sampled("word-roundtrip")
def _word_roundtrip(rng: random.Random) -> None:
    drawn = _rand_matrix(rng)
    # short words rarely give a zero corner m11 == 0 with m22 != 0, where
    # the Euclid reduction starts with a step that reads m22; this matrix
    # has one, at the drawn det, under both strategies (its transpose
    # has the zero corner too), and needs no draws of its own
    corner = gl2.Gl2Matrix(0, -drawn.det, 1, drawn.m22)
    for m in (drawn, corner):
        for strategy in ("left", "right"):
            w = gl2.decompose(m, strategy)
            _check_equal(m, gl2.eval_word(w), "strategy={} M={} word={}", strategy, m, w)
            # decompose builds its word unchecked, so it must be normalized
            _check_equal(gl2.GeneratorWord(w.letters), w, "normalized strategy={} M={}",
                         strategy, m)


@_sampled("word-det")
def _word_det(rng: random.Random) -> None:
    pairs = _rand_pairs(rng)
    m = gl2.eval_letters(pairs)
    kappa_exp = sum(exp for sym, exp in pairs if sym is _KAPPA)
    expected = -1 if kappa_exp % 2 else 1
    if m.det != expected:
        word = gl2.format_word(gl2.GeneratorWord(tuple(pairs)))
        raise _Mismatch(f"word={word!r}", expected, m.det)


class _RawLetters:
    """Letter pairs as a label shows them, quoted: 'A^-4 B^3', and '' for
    none.  The text is made only when a failing check formats it."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[gl2.LetterPair]) -> None:
        self.pairs = pairs

    def __str__(self) -> str:
        return repr(" ".join(f"{sym.value}^{exp}" for sym, exp in self.pairs))


@_sampled("word-normalize")
def _word_normalize(rng: random.Random) -> None:
    pairs = tuple(_rand_pairs(rng))
    # the plain-int column fold of eval_letters against matrix products
    product = gl2.IDENTITY
    for sym, exp in pairs:
        product = gl2.mat_multiply(product, gl2.GENERATORS[sym] ** exp)
    folded = gl2.eval_letters(pairs)
    raw = _RawLetters(pairs)
    _check_equal(product, folded, "generator powers raw={}", raw)
    w = gl2.GeneratorWord(pairs)
    _check_equal(folded, gl2.eval_word(w), "evaluation invariance raw={}", raw)
    _check_equal(w, gl2.GeneratorWord(w.letters), "idempotence w={}", w)
    for i, (sym, exp) in enumerate(w.letters):
        bad = (
            exp == 0
            or (sym is _KAPPA and exp != 1)
            or (i > 0 and w.letters[i - 1][0] is sym)
        )
        if bad:
            raise _Mismatch(f"normal form w={w}", "normalized letters", w.letters)


@_sampled("word-long")
def _word_long(rng: random.Random) -> None:
    # gl2._RUN + 1 to LONG_WORD_LENGTH letters, uniformly, drawn in
    # chunks of _rand_pairs: eval_letters folds them in two to five runs
    # and multiplies those by its product tree, where an odd count leaves
    # a tail.  Checked against one column fold over all the letters.
    half = (LONG_WORD_LENGTH - gl2._RUN - 1) // 2
    n = gl2._RUN + 1 + half + _rand_int(rng, half)
    pairs: list[gl2.LetterPair] = []
    while len(pairs) < n:
        pairs += _rand_pairs(rng)
    del pairs[n:]
    folded = gl2.Gl2Matrix(*gl2._fold_columns(pairs))
    got = gl2.eval_letters(pairs)
    _check_equal(folded, got, "{} letters raw={}", n, _RawLetters(pairs))


@_sampled("matrix-relations", static=True)
def _matrix_relations(rng: random.Random) -> None:
    for check in gl2.check_presentation_relations():
        _check_equal(gl2.IDENTITY, check.product, "{}", check.name)


# ---------------------------------------------------------------------------
# automorphism suites

@_sampled("apply-hom")
def _apply_hom(rng: random.Random) -> None:
    omega = _rand_aut(rng)
    g1, g2 = _rand_element(rng), _rand_element(rng)
    lhs = aut.apply(omega, heis.multiply(g1, g2))
    rhs = heis.multiply(aut.apply(omega, g1), aut.apply(omega, g2))
    _check_equal(rhs, lhs, "omega={} g1={} g2={}", omega, g1, g2)


@_sampled("apply-closed-form")
def _apply_closed_form(rng: random.Random) -> None:
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
    _check_equal(expected, aut.apply(omega, g), "omega={} g={}", omega, g)


@_sampled("compose-pointwise")
def _compose_pointwise(rng: random.Random) -> None:
    omega1, omega2 = _rand_aut(rng), _rand_aut(rng)
    g = _rand_element(rng)
    lhs = aut.apply(aut.compose(omega2, omega1), g)
    rhs = aut.apply(omega2, aut.apply(omega1, g))
    _check_equal(rhs, lhs, "omega2={} omega1={} g={}", omega2, omega1, g)


@_sampled("invert-roundtrip")
def _invert_roundtrip(rng: random.Random) -> None:
    omega = _rand_aut(rng)
    inv = aut.invert(omega)
    for order, left, right in (("invert(omega) o omega", inv, omega),
                               ("omega o invert(omega)", omega, inv)):
        _check_equal(aut.IDENTITY_AUT, aut.compose(left, right), "{} omega={}",
                     order, omega)
    _check_equal(omega, aut.invert(inv), "double inverse omega={}", omega)


@_sampled("rd-hom")
def _rd_hom(rng: random.Random) -> None:
    d1, d2 = _rand_int(rng, D_BOUND), _rand_int(rng, D_BOUND)
    composed, summed = aut.compose(aut.rd(d1), aut.rd(d2)), aut.rd(d1 + d2)
    _check_equal(summed, composed, "d1={} d2={}", d1, d2)
    g = _rand_element(rng)
    expected = heis.HeisElement(
        g.a + d1 * g.b, g.b, g.c + (g.b * (g.b - 1) // 2) * d1
    )
    _check_equal(expected, aut.apply(aut.rd(d1), g), "shear formula d={} g={}", d1, g)


@_sampled("inner-conjugation")
def _inner_conjugation(rng: random.Random) -> None:
    v = _rand_vector(rng)
    g = _rand_element(rng)
    h = heis.HeisElement(v.p, v.q, 0)
    conjugated = heis.multiply(heis.multiply(h, g), heis.inverse(h))
    inner = aut.inner(v)
    _check_equal(conjugated, aut.apply(inner, g), "v={} g={}", v, g)
    _check_equal(gl2.IDENTITY, aut.project(inner), "projection v={}", v)


@_sampled("relations", static=True)
def _relations(rng: random.Random) -> None:
    sigma = {sym: aut.section(m) for sym, m in gl2.GENERATORS.items()}
    on_generators = cocycles.canonical_section()
    for sym, value in sigma.items():
        _check_equal(value, on_generators.value(sym), "canonical value on {}",
                     sym.name.lower())
    for name, pairs in gl2.RELATORS:
        _check_equal(aut.IDENTITY_AUT, on_generators.eval_letters(pairs),
                     "section relator {}", name)
    rho, tau, kappa = sigma.values()
    aba = aut.compose(rho, aut.compose(tau, rho))
    dad = aut.compose(kappa, aut.compose(rho, aut.invert(kappa)))
    dbd = aut.compose(kappa, aut.compose(tau, aut.invert(kappa)))
    for label, omega, arg, expected in (
        ("ABA on x", aba, heis.X, heis.HeisElement(0, -1, 1)),
        ("ABA on y", aba, heis.Y, heis.HeisElement(1, 0, 0)),
        ("DAD^-1 on y", dad, heis.Y, heis.HeisElement(-1, 1, 0)),
        ("DBD^-1 on x", dbd, heis.X, heis.HeisElement(1, 1, 0)),
    ):
        _check_equal(expected, aut.apply(omega, arg), label)
    _check_equal(aut.IDENTITY_AUT, aut.compose(kappa, kappa), "sigma(D)^2")


@_sampled("section-hom")
def _section_hom(rng: random.Random) -> None:
    m1, m2 = _rand_matrix(rng), _rand_matrix(rng)
    lhs = aut.section(gl2.mat_multiply(m1, m2))
    rhs = aut.compose(aut.section(m1), aut.section(m2))
    _check_equal(rhs, lhs, "M1={} M2={}", m1, m2)


@_sampled("section-welldef")
def _section_welldef(rng: random.Random) -> None:
    # the closed form against the generic fold over two different words
    m = _rand_matrix(rng)
    closed = aut.section(m)
    sigma0 = cocycles.canonical_section()
    for strategy in ("left", "right"):
        w = gl2.decompose(m, strategy)
        _check_equal(sigma0.eval_letters(w.letters), closed, "strategy={} M={} word={}",
                     strategy, m, w)


@_sampled("project-section")
def _project_section(rng: random.Random) -> None:
    # project is a homomorphism: compose's matrix part against gl2's own
    # product, and invert's against the identity
    m, omega = _rand_matrix(rng), _rand_aut(rng)
    _check_equal(gl2.mat_multiply(m, omega.matrix),
                 aut.project(aut.compose(aut.section(m), omega)),
                 "project(section(M) o omega) M={} omega={}", m, omega)
    _check_equal(gl2.IDENTITY,
                 gl2.mat_multiply(aut.project(aut.invert(omega)), omega.matrix),
                 "project(omega^-1) * M omega={}", omega)


@_sampled("exactness")
def _exactness(rng: random.Random) -> None:
    r, u = _rand_int(rng), _rand_int(rng)
    omega = aut.Automorphism(gl2.IDENTITY, r, u)
    _check_equal(aut.inner(aut.InnerVector(u, -r)), omega, "kernel element r={} u={}",
                 r, u)
    v1, v2 = _rand_vector(rng), _rand_vector(rng)
    same, same_image = v1 == v2, aut.inner(v1) == aut.inner(v2)
    _check_equal(same, same_image, "injectivity v1={} v2={}", v1, v2)


@_sampled("normal-form")
def _normal_form(rng: random.Random) -> None:
    v, m = _rand_vector(rng), _rand_matrix(rng)
    omega = aut.compose(aut.inner(v), aut.section(m))
    got_v, got_m = aut.normal_form(omega)
    _check_equal(v, got_v, "vector v={} M={}", v, m)
    _check_equal(m, got_m, "matrix v={} M={}", v, m)
    omega2 = _rand_aut(rng, max_len=8)
    v2, m2 = aut.normal_form(omega2)
    # the closed-form solve against the compose route: the residual
    # omega * section(M)^-1 is inner(v), with offsets (-q, p)
    delta = aut.compose(omega2, aut.invert(aut.section(m2)))
    via_compose = aut.InnerVector(delta.u, -delta.r)
    _check_equal(via_compose, v2, "compose route omega={}", omega2)
    _check_equal(omega2, aut.compose(aut.inner(v2), aut.section(m2)), "rebuild omega={}",
                 omega2)
    # power's closed form inner(S_n v) o section(M^n) against compose
    n = _rand_int(rng, 50)
    got, expected = aut.power(omega2, n), aut._compose_power(omega2, n)
    _check_equal(expected, got, "power omega={} n={}", omega2, n)


# the cores C of power-types, by index: +rd(d) and -rd(d) (None, built
# per sample); one matrix of each conjugacy class of finite order in
# GL(2,Z), of orders 4, 6, 3, 2 (-I, parabolic), 2 and 2 (det -1); and
# hyperbolic controls of det -1 (traces 1 and 2) and det 1
_POWER_CORES = (None, None, (0, 1, -1, 0), (0, 1, -1, 1), (0, 1, -1, -1),
                (-1, 0, 0, -1), (0, 1, 1, 0), (-1, 0, 0, 1),
                (1, 1, 1, 0), (2, 1, 1, 0), (2, 1, 1, 1))


@_sampled("power-types")
def _power_types(rng: random.Random) -> None:
    # power's and **'s formulas by conjugacy type against compose only,
    # on a conjugate P C P^-1 with P a word of at most 3 letters
    kind = _rand_int(rng, 5) + 5
    core = _POWER_CORES[kind]
    if core is None:
        s, d = 1 - 2 * kind, _rand_int(rng, D_BOUND)
        core = (s, s * d, 0, s)
    p = _rand_matrix(rng, max_len=3)
    m = gl2.mat_multiply(gl2.mat_multiply(p, gl2.Gl2Matrix(*core)), gl2.mat_inverse(p))
    omega = aut.Automorphism(m, _rand_int(rng), _rand_int(rng))
    n = _rand_int(rng, 256)
    expected = aut._compose_power(omega, n)
    _check_equal(expected, aut.power(omega, n), "power omega={} n={}", omega, n)
    _check_equal(expected.matrix, m ** n, "matrix power M={} n={}", m, n)


@_sampled("naturality")
def _naturality(rng: random.Random) -> None:
    m, v = _rand_matrix(rng), _rand_vector(rng)
    sigma_m = aut.section(m)
    lhs = aut.compose(sigma_m, aut.compose(aut.inner(v), aut.invert(sigma_m)))
    rhs = aut.inner(aut.act(m, v))
    _check_equal(rhs, lhs, "M={} v={}", m, v)


@_sampled("center-det")
def _center_det(rng: random.Random) -> None:
    omega = _rand_aut(rng)
    image = aut.center_image(omega)
    _check_equal(omega.matrix.det, image, "omega={}", omega)
    fixes_z = aut.apply(omega, heis.Z) == heis.Z
    plus = aut.is_aut_plus(omega)
    if plus != fixes_z:
        raise _Mismatch(f"omega={omega}", f"fixes z: {fixes_z}", f"is_aut_plus: {plus}")


# ---------------------------------------------------------------------------
# cohomology suites

@_sampled("cocycle-lattice", static=True)
def _cocycle_lattice(rng: random.Random) -> None:
    report = cocycles.cocycle_lattice()
    _check_equal(2, report.rank, "lattice rank")
    if not report.equals_coboundary_lattice:
        raise _Mismatch("lattice = coboundary lattice", "equal",
                        f"basis={report.basis} coboundary={report.coboundary_basis}")
    for a in (aut.InnerVector(1, 0), aut.InnerVector(0, 1)):
        phi = cocycles.coboundary(a)
        if not cocycles.in_cocycle_lattice(phi, report):
            raise _Mismatch(f"coboundary({a}) in lattice", "member", phi)
    # Cocycle's closed-form check, and the violation it reports, against
    # the linear relator system, on coboundaries and on triples that
    # break each relator
    v, zero = aut.InnerVector, aut.ZERO_VECTOR
    cob = cocycles.coboundary(v(3, -2))
    good = (cob.v_rho, cob.v_tau, cob.v_kappa)
    for triple in (
        good,
        (v(1, 0), zero, zero), (v(0, 1), zero, zero),
        (zero, v(1, 0), zero), (zero, v(0, 1), zero),
        (zero, zero, v(1, 0)), (zero, zero, v(0, 1)),
        (good[0] + v(0, 1), good[1], good[2]),
        (good[0], good[1] + v(5, 0), good[2]),
        (good[0], good[1], good[2] + v(0, -7)),
    ):
        expected = _linear_violation(triple)
        try:
            cocycles.Cocycle(*triple)
            raised = None
        except cocycles.RelatorViolation as exc:
            raised = exc.relator, exc.value
        if raised != expected:
            raise _Mismatch(
                "Cocycle = linear relator check on " + ", ".join(map(str, triple)),
                expected, f"Cocycle raised {raised}")


def _linear_violation(
    triple: tuple[aut.InnerVector, aut.InnerVector, aut.InnerVector]
) -> tuple[str, aut.InnerVector] | None:
    # the first relator whose pair of rows in the relator system gives a
    # nonzero (row_p . x, row_q . x) on the flattened triple x
    x = cocycles._flatten(triple)
    for name, row_p, row_q in cocycles._relator_rows():
        p, q = sum(map(mul, row_p, x)), sum(map(mul, row_q, x))
        if p or q:
            return name, aut.InnerVector(p, q)
    return None


@_sampled("coboundary-roundtrip")
def _coboundary_roundtrip(rng: random.Random) -> None:
    a1, a2 = _rand_vector(rng), _rand_vector(rng)
    # the closed form against (L - I)a through act and the validating
    # constructor
    cob = cocycles.coboundary(a1)
    _check_equal(cocycles.Cocycle(*(aut.act(m, a1) - a1 for m in (gl2.A, gl2.B, gl2.D))),
                 cob, "act route a={}", a1)
    _check_equal(a1, cocycles.solve_coboundary(cob), "a={}", a1)
    additive = cob + cocycles.coboundary(a2)
    _check_equal(cocycles.coboundary(a1 + a2), additive, "additivity a1={} a2={}",
                 a1, a2)


def _fold(phi: cocycles.Cocycle, w: gl2.GeneratorWord) -> aut.InnerVector:
    # the cocycle identity folded over the word's letters
    return cocycles._extend_values(phi.v_rho, phi.v_tau, phi.v_kappa, w.letters)


@_sampled("cocycle-extend")
def _cocycle_extend(rng: random.Random) -> None:
    # the closed form M.a - a against the relator fold
    a = _rand_vector(rng)
    phi = cocycles.coboundary(a)
    w1 = _rand_word(rng, max_len=10)
    w2 = _rand_word(rng, max_len=10)
    m1 = gl2.eval_word(w1)
    expected = _fold(phi, w1)
    got = cocycles.extend(phi, w1)
    _check_equal(expected, got, "fold over w for a={} w={}", a, w1)
    # cocycle identity over concatenation
    lhs = cocycles.extend(phi, w1 * w2)
    rhs = cocycles.extend(phi, w1) + aut.act(m1, cocycles.extend(phi, w2))
    _check_equal(rhs, lhs, "concatenation a={} w1={} w2={}", a, w1, w2)
    # word independence: the fold over another word for the same matrix
    alt = gl2.decompose(m1, "right")
    _check_equal(got, _fold(phi, alt), "word independence a={} M={} word={}", a, m1, alt)


def _difference_by_compose(
    alpha2: cocycles.SectionOnGenerators, alpha1: cocycles.SectionOnGenerators
) -> cocycles.Cocycle:
    # alpha2(l) o alpha1(l)^-1 per generator: an inner automorphism
    # (I, r, u), i.e. the vector (u, -r)
    deltas = (aut.compose(alpha2.value(sym), aut.invert(alpha1.value(sym)))
              for sym in gl2.GENERATORS)
    return cocycles.Cocycle(*(aut.InnerVector(d.u, -d.r) for d in deltas))


@_sampled("section-twist")
def _section_twist(rng: random.Random) -> None:
    a = _rand_vector(rng)
    phi = cocycles.coboundary(a)
    sigma0 = cocycles.canonical_section()
    # built unchecked; the relator folds below and parse-roundtrip's
    # validating rebuild check it
    twisted = cocycles.twist(sigma0, phi)
    _check_equal(phi, cocycles.section_difference(twisted, sigma0),
                 "twist/diff roundtrip a={}", a)
    # the closed form against the generator-wise compose route
    for order, alpha2, alpha1 in (("twisted, sigma0", twisted, sigma0),
                                  ("sigma0, twisted", sigma0, twisted)):
        _check_equal(_difference_by_compose(alpha2, alpha1),
                     cocycles.section_difference(alpha2, alpha1),
                     "diff({}) by compose a={}", order, a)
    _check_equal(cocycles.ZERO_COCYCLE, cocycles.section_difference(sigma0, sigma0),
                 "diff(sigma, sigma)")
    m = _rand_matrix(rng, max_len=8)
    at_m = twisted.at(m)
    _check_equal(m, aut.project(at_m), "twisted section over M={}", m)
    # the closed form of at() against the generic fold over a word, and
    # the relators at the automorphism level through the same fold
    w = gl2.decompose(m, "right")
    _check_equal(twisted.eval_letters(w.letters), at_m, "twisted at a={} M={} word={}",
                 a, m, w)
    for name, pairs in gl2.RELATORS:
        _check_equal(aut.IDENTITY_AUT, twisted.eval_letters(pairs),
                     "twisted relator {} a={}", name, a)


# ---------------------------------------------------------------------------
# syntax suite

@_sampled("parse-roundtrip")
def _parse_roundtrip(rng: random.Random) -> None:
    g, m, w, omega = (_rand_element(rng), _rand_matrix(rng), _rand_word(rng),
                      _rand_aut(rng))
    phi = cocycles.coboundary(_rand_vector(rng))
    alpha = cocycles.twist(cocycles.canonical_section(), phi)
    for kind, value, format_, parse in (
        ("element", g, heis.format_element, heis.parse_element),
        ("matrix", m, gl2.format_matrix, gl2.parse_matrix),
        ("word", w, gl2.format_word, gl2.parse_word),
        ("automorphism", omega, aut.format_automorphism, aut.parse_automorphism),
        ("cocycle", phi, cocycles.format_cocycle, cocycles.parse_cocycle),
        ("section", alpha, cocycles.format_section, cocycles.parse_section),
    ):
        _check_equal(value, parse(format_(value)), "{} {}", kind, value)
