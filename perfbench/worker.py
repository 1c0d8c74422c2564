"""Runs one benchmark workload against heisaut and prints one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1

perfbench/run.py starts this in a child process, so that peak RSS is the
worker's own.  Each workload is a closed loop with one caller: the next
operation starts after the previous one returns.  Inputs are generated
from the seed and outputs are checked between operations, outside the
timed intervals; the loop stops once T seconds of wall time have passed.

With --trace 1 the loop runs under the tracer, and the same operations are
then repeated untraced: the ratio of the two is ``trace.overhead``, and
both runs must give the same outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import heisaut
from heisaut import aut, cocycles, gl2, heis, verify
from heisaut.aut import Automorphism, InnerVector
from heisaut.gl2 import Gl2Matrix, Letter
from heisaut.heis import HeisElement

import reference
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

# bigint: the large-size profile of the roadmap
OPERAND_BITS = 5000          # element coordinates and centre offsets
EXPONENT_BITS = 2000         # powers, shear parameters
EXTEND_EXPONENT_BITS = 900   # A^n / B^n / D^n letters given to extend
WORD_LETTERS = (1000, 3000)  # random words that build the matrices
LONGEST_WORDS = 0.5          # share of each kind's calls at the longest words
WORD_EXPONENT = 9            # letter exponents inside those words

# verify: shipped sampler bounds; one operation is one verify.run call
VERIFY_SAMPLES_MAX = 20

# cli: the verify sampler's bounds, and a few samples per verify call
SMALL_BOUND = 10**9
SMALL_WORD = 20
CLI_VERIFY_SAMPLES = 3
CLI_TIMEOUT_S = 60  # a child still running then is killed and counts as failed


class Wrong(Exception):
    """An operation returned a value its check rejects."""


# ---------------------------------------------------------------------------
# reference arithmetic on plain int triples, independent of the library

def _ref_mul(g, h):
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])


def _ref_inv(g):
    return (-g[0], -g[1], g[0] * g[1] - g[2])


def _ref_pow(g, n):
    return (n * g[0], n * g[1], n * g[2] + n * (n - 1) // 2 * g[0] * g[1])


def _ref_apply(omega: Automorphism, g):
    # omega(z^c y^b x^a) = omega(z)^c omega(y)^b omega(x)^a
    m = omega.matrix
    gx = (m.m11, m.m21, omega.r)
    gy = (m.m12, m.m22, omega.u)
    gz = (0, 0, m.m11 * m.m22 - m.m12 * m.m21)
    a, b, c = g
    return _ref_mul(_ref_mul(_ref_pow(gz, c), _ref_pow(gy, b)), _ref_pow(gx, a))


def _triple(g: HeisElement):
    return (g.a, g.b, g.c)


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Wrong(what)


# ---------------------------------------------------------------------------
# input generators

def _long_pairs(rng: random.Random, length: int) -> tuple:
    # no two neighbours share a symbol, so normalization keeps every letter
    pairs, sym = [], None
    for _ in range(length):
        sym = rng.choice(_OTHER_LETTERS[sym])
        exp = 1 if sym is Letter.KAPPA else rng.choice((1, -1)) * rng.randint(1, WORD_EXPONENT)
        pairs.append((sym, exp))
    return tuple(pairs)


_OTHER_LETTERS = {prev: tuple(s for s in Letter if s is not prev)
                  for prev in (None, *Letter)}


def _ref_eval(pairs) -> Gl2Matrix:
    """The matrix of a word, multiplied out on plain ints."""
    m11, m12, m21, m22 = 1, 0, 0, 1
    for sym, e in pairs:
        if sym is Letter.RHO:      # right factor [[1,e],[0,1]]
            m12, m22 = m12 + e * m11, m22 + e * m21
        elif sym is Letter.TAU:    # right factor [[1,0],[-e,1]]
            m11, m21 = m11 - e * m12, m21 - e * m22
        elif e % 2:                # right factor [[-1,0],[0,1]]
            m11, m21 = -m11, -m21
    return Gl2Matrix(m11, m12, m21, m22)


def _ref_section(m: Gl2Matrix) -> tuple[int, int]:
    """Centre offsets (r, u) of section(m), in closed form.

    Each column (p, q) of a unimodular matrix is primitive, so
    p*q - p - q + det is even; the form agrees with the section on A, B
    and D and is multiplicative.  The benchmark uses it only as an oracle.
    """
    det = m.det
    return ((m.m11 * m.m21 - m.m11 - m.m21 + det) // 2,
            (m.m12 * m.m22 - m.m12 - m.m22 + det) // 2)


class _Draw:
    """Random inputs of one bigint operation at that operation's sizes."""

    def __init__(self, rng: random.Random, letters: int, bits: int, exp_bits: int):
        self.rng, self.letters, self.bits, self.exp_bits = rng, letters, bits, exp_bits

    def _signed(self, bits: int) -> int:
        n = self.rng.getrandbits(bits) | 1 << (bits - 1)
        return -n if self.rng.random() < 0.5 else n

    def big(self) -> int:
        return self._signed(self.bits)

    def exponent(self) -> int:
        return self._signed(self.exp_bits)

    def extend_exponent(self) -> int:
        return self._signed(1 + (self.exp_bits - 1) * EXTEND_EXPONENT_BITS // EXPONENT_BITS)

    def element(self) -> HeisElement:
        return HeisElement(self.big(), self.big(), self.big())

    def vector(self) -> InnerVector:
        return InnerVector(self.big(), self.big())

    def pairs(self) -> tuple:
        return _long_pairs(self.rng, self.letters)

    def matrix(self) -> Gl2Matrix:
        return _ref_eval(self.pairs())

    def automorphism(self) -> Automorphism:
        return Automorphism(self.matrix(), self.big(), self.big())


def _act(m: Gl2Matrix, v: InnerVector):
    return (m.m11 * v.p + m.m12 * v.q - v.p, m.m21 * v.p + m.m22 * v.q - v.q)


# ---------------------------------------------------------------------------
# bigint: one library call per operation, at the large-size profile.  Each
# kind is (make(_Draw) -> args, call(args) -> result,
# check(args, result)); check raises Wrong.

def _check_mul(args, got):
    _expect(_triple(got) == _ref_mul(_triple(args[0]), _triple(args[1])), "g1*g2")


def _check_inv(args, got):
    _expect(_ref_mul(_triple(args[0]), _triple(got)) == (0, 0, 0), "g*g^-1")


def _check_pow(args, got):
    _expect(_triple(got) == _ref_pow(_triple(args[0]), args[1]), "g^n")


def _check_comm(args, got):
    g, h = _triple(args[0]), _triple(args[1])
    want = _ref_mul(_ref_mul(_ref_mul(g, h), _ref_inv(g)), _ref_inv(h))
    _expect(_triple(got) == want, "[g1,g2]")


def _check_apply(args, got):
    _expect(_triple(got) == _ref_apply(args[0], _triple(args[1])), "omega(g)")


def _check_compose(args, got):
    omega2, omega1, g = args[0], args[1], _triple(args[2])
    _expect(_ref_apply(got, g) == _ref_apply(omega2, _ref_apply(omega1, g)),
            "(omega2 omega1)(g)")


def _check_invert(args, got):
    omega, g = args[0], _triple(args[1])
    _expect(_ref_apply(omega, _ref_apply(got, g)) == g, "omega(omega^-1(g))")
    _expect(_ref_apply(got, _ref_apply(omega, g)) == g, "omega^-1(omega(g))")


def _check_rd_pow(args, got):
    d, n = args
    _expect((got.matrix.entries(), got.r, got.u) == ((1, d * n, 0, 1), 0, 0),
            "rd(d)^n = rd(dn)")


def _check_section(args, got):
    m = args[0]
    _expect((got.matrix, got.r, got.u) == (m, *_ref_section(m)), "section(M)")


def _check_normal_form(args, got):
    omega, g = args[0], _triple(args[1])
    v, m = got
    _expect(m == omega.matrix, "normal form matrix")
    # omega = inner(v) o section(M), compared pointwise on a random element
    sigma = Automorphism(m, *_ref_section(m))
    p, q = v.p, v.q
    a, b, c = _ref_apply(sigma, g)
    _expect((a, b, c + p * b - a * q) == _ref_apply(omega, g),
            "inner(v) section(M) = omega")


def _check_decompose(args, got):
    _expect(_ref_eval(got.letters) == args[0], "eval_word(decompose(M))")


def _check_extend(args, got):
    phi, w, a = args
    _expect((got.p, got.q) == _act(_ref_eval(w.letters), a),
            "extend(coboundary(a), w) = M.a - a")


def _make_extend_long(d: _Draw):
    a = d.vector()
    return cocycles.coboundary(a), gl2.GeneratorWord(d.pairs()), a


def _make_extend_letters(d: _Draw):
    # one to three A^n / B^n / D^n letters, exponents up to 2^900
    a = d.vector()
    pairs = tuple((d.rng.choice(tuple(Letter)), d.extend_exponent())
                  for _ in range(d.rng.randint(1, 3)))
    return cocycles.coboundary(a), gl2.GeneratorWord(pairs), a


# cocycles._phi_power recurses once per exponent bit, so extend over a
# letter with an exponent of about 2^990 or more raises RecursionError
# (roadmap item 3).  The timed loop stays below that (EXTEND_EXPONENT_BITS),
# so that no timed operation fails; this fixed probe runs after it, untimed,
# on every bigint run, and reports the defect for as long as it lasts.
DEFECT_PROBE_BITS = (1100, 2000)


def defect_probe() -> dict:
    """extend(coboundary(a), l^(2^k)) for every letter l and k in
    DEFECT_PROBE_BITS: calls made, exceptions raised, and wrong values."""
    a = InnerVector(3, -5)
    phi = cocycles.coboundary(a)
    raised: dict[str, int] = {}
    calls = wrong = 0
    for bits in DEFECT_PROBE_BITS:
        for sym in Letter:
            word = gl2.GeneratorWord(((sym, 1 << bits),))
            calls += 1
            try:
                got = cocycles.extend(phi, word)
            except Exception as exc:  # the defect: reported, not a timed failure
                name = type(exc).__name__
                raised[name] = raised.get(name, 0) + 1
                continue
            try:
                _check_extend((phi, word, a), got)
            except Wrong:
                wrong += 1
    return {"calls": calls, "raised": raised, "wrong": wrong}


BIGINT_KINDS = {
    "elem_mul": (lambda d: (d.element(), d.element()),
                 lambda x: heis.multiply(*x), _check_mul),
    "elem_inv": (lambda d: (d.element(),), lambda x: heis.inverse(*x), _check_inv),
    "elem_pow": (lambda d: (d.element(), d.exponent()),
                 lambda x: heis.power(*x), _check_pow),
    "elem_comm": (lambda d: (d.element(), d.element()),
                  lambda x: heis.commutator(*x), _check_comm),
    "aut_apply": (lambda d: (d.automorphism(), d.element()),
                  lambda x: aut.apply(*x), _check_apply),
    "aut_compose": (lambda d: (d.automorphism(), d.automorphism(), d.element()),
                    lambda x: aut.compose(x[0], x[1]), _check_compose),
    "aut_invert": (lambda d: (d.automorphism(), d.element()),
                   lambda x: aut.invert(x[0]), _check_invert),
    "rd_pow": (lambda d: (d.exponent(), d.exponent()),
               lambda x: aut.power(aut.rd(x[0]), x[1]), _check_rd_pow),
    "section": (lambda d: (d.matrix(),), lambda x: aut.section(x[0]), _check_section),
    "normal_form": (lambda d: (d.automorphism(), d.element()),
                    lambda x: aut.normal_form(x[0]), _check_normal_form),
    "decompose_left": (lambda d: (d.matrix(),), lambda x: gl2.decompose(x[0], "left"),
                       _check_decompose),
    "decompose_right": (lambda d: (d.matrix(),), lambda x: gl2.decompose(x[0], "right"),
                        _check_decompose),
    "extend_long": (_make_extend_long, lambda x: cocycles.extend(x[0], x[1]),
                    _check_extend),
    "extend_letters": (_make_extend_letters, lambda x: cocycles.extend(x[0], x[1]),
                       _check_extend),
}

# The automorphism calls run twice per cycle.  Latencies fall in clusters
# (element calls ~20 us, automorphism calls ~0.4 ms, word algorithms
# 1-200 ms); with these weights the median lies inside the automorphism
# cluster instead of on the edge between two clusters, where it would jump
# from run to run.
BIGINT_CYCLE = (
    "elem_mul", "elem_inv", "elem_pow", "elem_comm",
    "aut_apply", "aut_compose", "aut_invert", "aut_apply", "aut_compose",
    "aut_invert", "rd_pow", "section", "normal_form", "decompose_left",
    "decompose_right", "extend_long", "extend_letters",
)

# Sizes follow low-discrepancy sequences (fractional parts of j * alpha, for
# the j-th call of a kind and one irrational alpha per size, from a seeded
# phase), so every run covers each kind's size ranges evenly and the slow
# tail does not hang on a few random draws.
_ALPHAS = (0.6180339887498949, 0.4142135623730951, 0.7320508075688772)


class Bigint:
    unit = "calls"
    gauge = reference.IN_PROCESS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(f"{seed}:bigint")
        self.phases = [rng.random() for _ in _ALPHAS]

    def make(self, i: int):
        kind = BIGINT_CYCLE[i % len(BIGINT_CYCLE)]
        j = i // len(BIGINT_CYCLE)  # this kind's j-th call in the run
        f = [(p + j * a) % 1.0 for p, a in zip(self.phases, _ALPHAS)]
        lo, hi = WORD_LETTERS
        # the slowest calls then form a cluster of equal size, and the tail
        # latency (the 11th largest) lies inside it rather than at the edge
        # of a continuum of sizes
        longest = min(f[0] / (1 - LONGEST_WORDS), 1.0)
        draw = _Draw(random.Random(f"{self.seed}:bigint:{i}"),
                     letters=lo + int(longest * (hi - lo)),
                     bits=1 + int(f[1] * OPERAND_BITS),
                     exp_bits=1 + int(f[2] * EXPONENT_BITS))
        return kind, BIGINT_KINDS[kind][0](draw)

    def call(self, op):
        kind, args = op
        return BIGINT_KINDS[kind][1](args)

    def check(self, op, out) -> tuple[int, int, int]:
        kind, args = op
        BIGINT_KINDS[kind][2](args, out)
        return 1, 0, 0

    @staticmethod
    def outcome(out):
        return out


# ---------------------------------------------------------------------------
# verify: the paper's own check, all suites at the shipped sampler bounds

class Verify:
    unit = "samples"
    gauge = reference.IN_PROCESS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.phase = random.Random(f"{seed}:verify").random()

    def make(self, i: int):
        # samples per suite run 1..VERIFY_SAMPLES_MAX along a low-discrepancy
        # sequence: call latencies then spread over a range much wider than
        # the shared machine's slow spells scale them by, so the median
        # moves smoothly with the share of the run those spells cover
        # instead of jumping between two modes
        frac = (self.phase + i * _ALPHAS[0]) % 1.0
        return self.seed * 1_000_003 + i, 1 + int(frac * VERIFY_SAMPLES_MAX)

    def call(self, op):
        seed, samples = op
        return verify.run(samples=samples, seed=seed)

    def check(self, op, report) -> tuple[int, int, int]:
        samples = op[1]
        attempted = failed = 0
        for r in report.results:
            # a static suite runs once (a sampled one runs at least two
            # samples when asked for two or more); a sampled suite that hit
            # the failure cap stopped early, and its unrun samples count as
            # failed
            want = 1 if r.samples == 1 else samples
            attempted += want
            failed += min(want, len(r.failures) + (want - r.samples))
        return attempted, failed, failed

    @staticmethod
    def outcome(report):
        return tuple((r.suite, r.samples, r.failures) for r in report.results)


# ---------------------------------------------------------------------------
# cli: one `python -m heisaut.cli` process per operation, small operands

def _small_int(rng: random.Random, bound: int = SMALL_BOUND) -> int:
    return rng.randint(-bound, bound)


def _small_word(rng: random.Random) -> gl2.GeneratorWord:
    return gl2.GeneratorWord(tuple(
        (rng.choice(tuple(Letter)), rng.choice((1, -1)) * rng.randint(1, WORD_EXPONENT))
        for _ in range(rng.randint(0, SMALL_WORD))))


def _small_matrix(rng: random.Random) -> Gl2Matrix:
    return gl2.eval_word(_small_word(rng))


def _small_element(rng: random.Random) -> HeisElement:
    return HeisElement(*(_small_int(rng) for _ in range(3)))


def _small_vector(rng: random.Random) -> InnerVector:
    return InnerVector(_small_int(rng), _small_int(rng))


def _small_aut(rng: random.Random) -> Automorphism:
    return Automorphism(_small_matrix(rng), _small_int(rng), _small_int(rng))


def _cli_cases(rng: random.Random):
    """Every family of the CLI: (argv, expected stdout, expected exit code)."""
    g1, g2 = _small_element(rng), _small_element(rng)
    o1, o2 = _small_aut(rng), _small_aut(rng)
    m1, m2 = _small_matrix(rng), _small_matrix(rng)
    word = _small_word(rng)
    v = _small_vector(rng)
    n = rng.randint(-50, 50)
    d = _small_int(rng, 10**6)
    strategy = rng.choice(("left", "right"))
    phi = cocycles.coboundary(v)
    bad = (_small_vector(rng), _small_vector(rng), _small_vector(rng))
    s = str
    cases = [
        (["elem", "mul", s(g1), s(g2)], s(g1 * g2)),
        (["elem", "inv", s(g1)], s(g1.inverse())),
        (["elem", "pow", s(g1), s(n)], s(g1 ** n)),
        (["elem", "comm", s(g1), s(g2)], s(heis.commutator(g1, g2))),
        (["elem", "lambda", s(g1)], s(heis.lambda_project(g1))),
        (["elem", "central", s(g1)], "true" if heis.is_central(g1) else "false"),
        (["aut", "apply", s(o1), s(g1)], s(aut.apply(o1, g1))),
        (["aut", "compose", s(o1), s(o2)], s(aut.compose(o1, o2))),
        (["aut", "compose", s(o1), s(o2), "--apply", s(g1)],
         s(aut.apply(aut.compose(o1, o2), g1))),
        (["aut", "invert", s(o1)], s(aut.invert(o1))),
        (["aut", "section", s(m1), "--strategy", strategy], s(aut.section(m1))),
        (["aut", "project", s(o1)], s(o1.matrix)),
        (["aut", "inner", s(v)], s(aut.inner(v))),
        (["aut", "rd", s(d)], s(aut.rd(d))),
        (["aut", "normal-form", s(o1)], "v={}, M={}".format(*aut.normal_form(o1))),
        (["aut", "center-image", s(o1)], s(aut.center_image(o1))),
        (["aut", "is-plus", s(o1)], "true" if aut.is_aut_plus(o1) else "false"),
        (["gl2", "mul", s(m1), s(m2)], s(m1 * m2)),
        (["gl2", "inv", s(m1)], s(m1.inverse())),
        (["gl2", "eval-word", s(word)], s(gl2.eval_word(word))),
        (["gl2", "decompose", s(m1), "--strategy", strategy],
         s(gl2.decompose(m1, strategy))),
        (["gl2", "normalize", s(word)], s(word)),
        (["gl2", "relations"],
         "\n".join(f"PASS {name}" for name, _ in gl2.RELATORS)),
        (["cocycle", "check", s(phi)], "valid"),
        (["cocycle", "solve", s(phi)], f"a={cocycles.solve_coboundary(phi)}"),
        (["cocycle", "coboundary", s(v)], s(phi)),
        (["cocycle", "extend", s(phi), s(word)], s(cocycles.extend(phi, word))),
        (["cocycle", "lattice"], "rank=2, equals coboundary lattice"),
        (["cocycle", "twist", s(phi)],
         s(cocycles.twist(cocycles.canonical_section(), phi))),
        (["cocycle", "diff", s(cocycles.twist(cocycles.canonical_section(), phi)),
          s(cocycles.canonical_section())], s(phi)),
    ]
    out = [(argv, text + "\n", 0) for argv, text in cases]
    bad_text = "{{rho={}, tau={}, kappa={}}}".format(*bad)
    try:
        cocycles.parse_cocycle(bad_text)
        out.append((["cocycle", "check", bad_text], "valid\n", 0))
    except cocycles.RelatorViolation as exc:
        out.append((["cocycle", "check", bad_text], f"invalid: {exc}\n", 2))
    return out


def _scrub(report: dict) -> dict:
    for suite in report["suites"]:
        suite["elapsed"] = 0.0
    return report


class Cli:
    unit = "processes"
    # the work runs in child processes while the worker waits; a kernel timed
    # in a worker that has just been idle does not gauge their speed, so the
    # gauge is a child process too (reference.measure_process)
    gauge = reference.CHILD_PROCESS

    def __init__(self, seed: int, tracer: Tracer | None = None) -> None:
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.suites = verify.available_suites()
        self.tracer = tracer

    def make(self, i: int):
        rng = random.Random(f"{self.seed}:cli:{i}")
        # one verify call per round of the other families
        cases = _cli_cases(rng)
        j = i % (len(cases) + 1)
        if j < len(cases):
            return cases[j]
        suite = self.suites[(i // (len(cases) + 1)) % len(self.suites)]
        seed = rng.randrange(10**6)
        report = verify.run([suite], samples=CLI_VERIFY_SAMPLES, seed=seed)
        argv = ["verify", suite, "--samples", str(CLI_VERIFY_SAMPLES),
                "--seed", str(seed), "--json"]
        want = {
            "seed": seed, "ok": report.ok, "backend": heisaut.backend_name(),
            "suites": [{"suite": r.suite, "samples": r.samples, "ok": r.ok,
                        "elapsed": 0.0,
                        "failures": [{"sample": f.sample, "inputs": f.inputs,
                                      "expected": f.expected, "actual": f.actual}
                                     for f in r.failures]}
                       for r in report.results],
        }
        return argv, want, 0 if report.ok else 2

    def call(self, op):
        argv = op[0]
        if self.tracer is not None:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_probe.py")), *argv]
        else:
            cmd = [sys.executable, "-m", "heisaut.cli", *argv]
        spawned = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, check=False, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr, spawned

    def check(self, op, out) -> tuple[int, int, int]:
        """Exit code and stdout against the library; when traced, also folds
        the child's report (its last stderr line) into the tracer."""
        argv, want, code = op
        got_code, stdout, stderr, spawned = out
        if self.tracer is not None:
            child = json.loads(stderr.rstrip("\n").rsplit("\n", 1)[-1])
            self.tracer.merge(child["trace"])
            self.tracer.extra_s["interpreter"] += child["entered"] - spawned
            self.tracer.extra_s["import"] += child["import_s"]
        if isinstance(want, dict):
            try:
                ok = _scrub(json.loads(stdout)) == want
            except ValueError:
                ok = False
        else:
            ok = stdout == want
        ok = ok and got_code == code
        return 1, int(not ok), int(not ok)

    @staticmethod
    def outcome(out):
        code, stdout = out[:2]
        if stdout.startswith("{\""):  # verify --json carries elapsed times
            stdout = json.dumps(_scrub(json.loads(stdout)), sort_keys=True)
        return code, stdout


# ---------------------------------------------------------------------------
# loop

def _percentile_tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its value."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - 11, 0)
    return 100.0 * k / (n - 1) if n > 1 else 100.0, xs[k]


def _digest(outcome) -> str:
    """A compact fingerprint of an operation's outcome (big results are not
    kept, and str() of them can exceed Python's int-to-str digit limit)."""
    if isinstance(outcome, Exception):
        return "raised " + type(outcome).__name__
    return hashlib.sha256(pickle.dumps(outcome)).hexdigest()


def run_loop(workload, seconds: float, call, limit: int | None = None,
             digests: bool = False, gauges: list[float] | None = None) -> list[tuple]:
    """Closed loop: make, time, check, until `seconds` of wall time or
    `limit` operations.  Returns per-operation records
    (kind, seconds, attempted, failed, wrong, error, digest, gauge).

    With a `gauges` list, the workload's gauge of the machine's speed is
    measured into it before the first operation, every `gauge.every_s` of
    wall time and after the last one; an operation's `gauge` is the index
    of the last measurement taken before it (otherwise None)."""
    records = []
    gauge = workload.gauge
    start = time.perf_counter()
    if gauges is not None:
        gauges.append(gauge.measure())
        gauged = time.perf_counter()
    i = 0
    while (time.perf_counter() - start < seconds) if limit is None else i < limit:
        if gauges is not None and time.perf_counter() - gauged >= gauge.every_s:
            gauges.append(gauge.measure())
            gauged = time.perf_counter()
        op = workload.make(i)
        out, dt = call(workload.call, op)
        if isinstance(out, Exception):
            attempted, failed, wrong = 1, 1, 0
            err = type(out).__name__
        else:
            try:
                attempted, failed, wrong = workload.check(op, out)
                err = "wrong" if wrong else None
            except Wrong as exc:
                attempted, failed, wrong, err = 1, 1, 1, f"wrong: {exc}"
        kind = op[0] if isinstance(workload, Bigint) else None
        digest = _digest(out if isinstance(out, Exception) else workload.outcome(out)) \
            if digests else None
        last = len(gauges) - 1 if gauges is not None else None
        records.append((kind, dt, attempted, failed, wrong, err, digest, last))
        i += 1
    if gauges is not None:
        gauges.extend(gauge.measure() for _ in range(gauge.window))
    return records


def scaled_latencies(records: list[tuple], gauges: list[float],
                     gauge: reference.Gauge) -> list[float]:
    """Each operation's latency at the gauge's nominal speed, by the median
    of the `gauge.window` measurements on either side of it."""
    w = gauge.window
    return [r[1] * gauge.scale(gauges[max(r[7] - w + 1, 0):r[7] + w + 1])
            for r in records]


def _plain_call(fn, op):
    start = time.perf_counter()
    try:
        out = fn(op)
    except Exception as exc:  # counted as a failed operation
        out = exc
    return out, time.perf_counter() - start


def _build(name: str, seed: int, tracer: Tracer | None = None):
    if name == "verify":
        return Verify(seed)
    if name == "bigint":
        return Bigint(seed)
    return Cli(seed, tracer)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("verify", "bigint", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    result: dict = {"workload": args.workload}
    gauges: list[float] = []
    if not args.trace:
        workload = _build(args.workload, args.seed)
        records = run_loop(workload, args.seconds, _plain_call, gauges=gauges)
    else:
        tracer = Tracer().install()
        workload = _build(args.workload, args.seed, tracer)
        records = run_loop(workload, args.seconds, tracer.call, digests=True)
        tracer.uninstall()
        again = run_loop(_build(args.workload, args.seed), 0, _plain_call,
                         limit=len(records), digests=True)
        metrics = tracer.metrics(
            verify.available_suites(),
            cli_calls=len(records) if args.workload == "cli" else 0)
        metrics["trace.overhead"] = sum(r[1] for r in records) / sum(r[1] for r in again)
        result["trace"] = {
            "metrics": metrics,
            "mismatches": sum(a[6] != b[6] for a, b in zip(records, again)),
        }

    raw = [r[1] for r in records]
    # the end-to-end figures are taken at the gauge's nominal speed; the
    # traced run reports raw times
    lat = scaled_latencies(records, gauges, workload.gauge) if gauges else raw
    errors: dict[str, int] = {}
    per_kind: dict[str, int] = {}
    for r in records:
        if r[5]:
            errors[r[5]] = errors.get(r[5], 0) + 1
        if r[0]:
            per_kind[r[0]] = per_kind.get(r[0], 0) + 1
    attempted = sum(r[2] for r in records)
    pct, tail = _percentile_tail(lat)
    raw_tail = _percentile_tail(raw)[1]
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result.update({
        "unit": workload.unit,
        "operations": len(records),
        "attempted": attempted,
        "failed": sum(r[3] for r in records),
        "wrong": sum(r[4] for r in records),
        "errors": errors,
        "per_kind": per_kind,
        "busy_s": sum(lat),
        "ops_per_s": attempted / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "tail_percentile": round(pct, 2),
        "latency_samples": len(lat),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        "backend": heisaut.backend_name(),
        "raw": {"busy_s": sum(raw), "ops_per_s": attempted / sum(raw),
                "latency_p50_ms": statistics.median(raw) * 1e3,
                "latency_tail_ms": raw_tail * 1e3},
        "gauge": {"nominal_s": workload.gauge.nominal, "runs": len(gauges),
                  "median_s": statistics.median(gauges) if gauges else None},
    })
    if args.workload == "bigint":
        probe = defect_probe()
        result["defect_probe"] = probe
        result["wrong"] += probe["wrong"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
