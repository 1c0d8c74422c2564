"""The verify runner's argument checks, its report of a sample that
raises or fails a check, and its samplers' random stream."""

import ast
import hashlib
import random
from pathlib import Path

import pytest

from heisaut import aut, cli, cocycles, gl2, heis, verify


@pytest.fixture
def counted(monkeypatch):
    # group-axioms, wrapped to count the samples it runs
    calls = []
    suite = verify._SUITES["group-axioms"]

    def sample(rng):
        calls.append(rng)
        return suite.fn(rng)

    monkeypatch.setitem(verify._SUITES, "group-axioms",
                        verify._Suite("group-axioms", sample, static=False))
    return calls


@pytest.fixture
def raising(monkeypatch):
    # group-axioms, with sample 1 raising as a library defect would
    calls = []
    suite = verify._SUITES["group-axioms"]

    def sample(rng):
        calls.append(rng)
        if len(calls) == 2:
            raise cocycles.RelatorViolation("kappa^2 = 1", aut.InnerVector(0, 1))
        return suite.fn(rng)

    monkeypatch.setitem(verify._SUITES, "group-axioms",
                        verify._Suite("group-axioms", sample, static=False))
    return calls


def test_counted_suite_runs(counted):
    assert verify.run(["group-axioms"], samples=3).ok
    assert len(counted) == 3


@pytest.mark.parametrize("names", [["group-axioms", "no-such-suite"],
                                   ["no-such-suite", "group-axioms"]])
def test_unknown_name_runs_no_suite(counted, names):
    with pytest.raises(ValueError) as info:
        verify.run(names, samples=5)
    assert str(info.value) == ("unknown suite 'no-such-suite'; available: "
                               + ", ".join(verify.available_suites()))
    assert counted == []


@pytest.mark.parametrize("samples", [True, False, 2.0, "3", None],
                         ids=repr)
def test_samples_must_be_an_int(counted, samples):
    name = type(samples).__name__
    with pytest.raises(TypeError, match=f"^samples must be an int, got {name}$"):
        verify.run(["group-axioms"], samples=samples)
    with pytest.raises(TypeError, match=f"^samples must be an int, got {name}$"):
        verify.run_suite("group-axioms", samples, 0)
    assert counted == []


@pytest.mark.parametrize("samples", [0, -1])
def test_samples_must_be_positive(counted, samples):
    with pytest.raises(ValueError, match="^samples must be at least 1$"):
        verify.run(["group-axioms", "relations"], samples=samples)
    assert counted == []


@pytest.mark.parametrize("seed", [True, "1", 1.0, None], ids=repr)
def test_seed_must_be_an_int(counted, seed):
    # "1" used to replay seed 1's samples under another name, and True
    # or 1.0 keyed streams of their own
    name = type(seed).__name__
    with pytest.raises(TypeError, match=f"^seed must be an int, got {name}$"):
        verify.run(["group-axioms"], samples=2, seed=seed)
    with pytest.raises(TypeError, match=f"^seed must be an int, got {name}$"):
        verify.run_suite("group-axioms", 2, seed)
    assert counted == []


def test_names_must_not_be_a_str(counted):
    # a str is an iterable of one-letter names: it used to fail on 'g'
    with pytest.raises(TypeError, match="^names must be an iterable of suite "
                                        "names, not a str$"):
        verify.run("group-axioms", samples=2)
    assert counted == []


def test_raising_sample_is_a_failure(raising):
    report = verify.run(["group-axioms"], samples=4, seed=3)
    assert not report.ok
    assert len(raising) == 4  # the samples after it still ran
    (failure,) = report.results[0].failures
    assert failure == verify.Failure(
        1, "rng key 3:group-axioms:1", "no exception",
        "RelatorViolation: relator 'kappa^2 = 1' violated: "
        "extension gives (0,1), not (0,0)")


def test_raising_sample_exits_2(raising, capsys):
    code = cli.main(["verify", "group-axioms", "--samples", "3"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("FAIL group-axioms: samples=3 seed=0 ")
    assert "  sample 1: rng key 0:group-axioms:1\n" in out
    assert "    actual:   RelatorViolation: relator 'kappa^2 = 1'" in out


def test_raising_static_suite_is_a_failure(monkeypatch):
    def suite(rng):
        raise ValueError("boom")

    monkeypatch.setitem(verify._SUITES, "relations",
                        verify._Suite("relations", suite, static=True))
    (result,) = verify.run(["relations"], samples=5).results
    assert (result.samples, result.failures) == (
        1, (verify.Failure(0, "rng key 0:relations:0", "no exception",
                           "ValueError: boom"),))


STATIC = [name for name in verify.available_suites() if verify._SUITES[name].static]


def test_the_static_suites():
    assert STATIC == ["matrix-relations", "relations", "cocycle-lattice"]


@pytest.mark.parametrize("name", STATIC)
def test_static_suite_is_one_sample(name, capsys, monkeypatch):
    # sample 0's RNG, from which the suite draws nothing
    suite, states = verify._SUITES[name], []

    def sample(rng):
        before = rng.getstate()
        suite.fn(rng)
        states.append((before, rng.getstate()))

    monkeypatch.setitem(verify._SUITES, name, verify._Suite(name, sample, static=True))
    code = cli.main(["verify", name, "--samples", "7"])
    assert code == 0
    assert capsys.readouterr().out.startswith(f"PASS {name}: samples=1 seed=0 ")
    ((before, after),) = states
    assert before == after == random.Random(f"0:{name}:0").getstate()


@pytest.fixture
def entry_states(monkeypatch):
    # every suite wrapped to record the state of the generator each
    # sample receives, on entry
    states = {}
    for name, suite in verify._SUITES.items():
        def sample(rng, name=name, fn=suite.fn):
            states.setdefault(name, []).append(rng.getstate())
            fn(rng)

        monkeypatch.setitem(verify._SUITES, name,
                            verify._Suite(name, sample, suite.static))
    return states


@pytest.mark.parametrize("seed", [0, -5])
def test_each_sample_starts_from_its_keyed_state(entry_states, seed):
    # the replay contract: sample i of a suite under a seed starts from
    # Random("seed:suite:i"), whatever the samples before it drew
    assert verify.run(samples=3, seed=seed).ok
    assert list(entry_states) == list(verify.available_suites())
    for name, states in entry_states.items():
        count = 1 if name in STATIC else 3
        assert states == [random.Random(f"{seed}:{name}:{i}").getstate()
                          for i in range(count)], name


def test_gauss_leaves_nothing_for_the_next_sample(monkeypatch):
    # gauss() caches its second normal draw in the generator; the next
    # sample must not see it
    suite, seen = verify._SUITES["group-axioms"], []

    def sample(rng):
        seen.append((rng.getstate(), rng.gauss_next))
        rng.gauss()
        suite.fn(rng)

    monkeypatch.setitem(verify._SUITES, "group-axioms",
                        verify._Suite("group-axioms", sample, static=False))
    assert verify.run(["group-axioms"], samples=3, seed=0).ok
    assert seen == [(random.Random(f"0:group-axioms:{i}").getstate(), None)
                    for i in range(3)]


@pytest.fixture
def broken_relators(monkeypatch):
    # (rho tau rho)^2 and kappa in place of (rho tau rho)^4 and kappa^2:
    # both checks fail, and a static suite reports the first
    relators = dict(gl2.RELATORS)
    relators["(rho tau rho)^4 = 1"] = gl2._RHO_TAU_RHO * 2
    relators["kappa^2 = 1"] = ((gl2.Letter.KAPPA, 1),)
    monkeypatch.setattr(gl2, "RELATORS", tuple(relators.items()))


@pytest.mark.parametrize("name, failure", [
    ("matrix-relations",
     verify.Failure(0, "(rho tau rho)^4 = 1", "[[1,0],[0,1]]", "[[-1,0],[0,-1]]")),
    ("relations",
     verify.Failure(0, "section relator (rho tau rho)^4 = 1",
                    "{M=[[1,0],[0,1]], r=0, u=0}", "{M=[[-1,0],[0,-1]], r=1, u=1}")),
])
def test_static_suite_reports_its_first_failed_check(broken_relators, name, failure):
    (result,) = verify.run([name], samples=7).results
    assert (result.samples, result.failures) == (1, (failure,))


def test_identity_law_reports_the_failed_product(monkeypatch):
    # only e*g is wrong: the report used to show g*e, which equals g
    multiply = heis.multiply

    def wrong_left_identity(g, h):
        return multiply(heis.Z if g == heis.IDENTITY else g, h)

    monkeypatch.setattr(heis, "multiply", wrong_left_identity)
    (failure,) = verify.run(["group-axioms"], samples=1, seed=0).results[0].failures
    assert failure.actual != failure.expected
    assert failure.inputs.startswith("identity law e*g ")


@pytest.mark.parametrize("order", ["g*g^-1", "g^-1*g"])
def test_inverse_law_reports_the_failed_order(monkeypatch, order):
    # only the product with the inverse on one side is wrong
    multiply, inverse = heis.multiply, heis.inverse
    inverses = []

    def recorded_inverse(g):
        inverses.append(inverse(g))
        return inverses[-1]

    def wrong_on_one_side(g, h):
        side = h if order == "g*g^-1" else g
        if any(side is inv for inv in inverses):
            return multiply(multiply(g, h), heis.Z)
        return multiply(g, h)

    monkeypatch.setattr(heis, "inverse", recorded_inverse)
    monkeypatch.setattr(heis, "multiply", wrong_on_one_side)
    (failure,) = verify.run(["group-axioms"], samples=1, seed=0).results[0].failures
    assert failure.inputs.startswith(f"inverse law {order} ")
    assert (failure.expected, failure.actual) == ("(0,0,0)", "(0,0,1)")


class _Unprintable:
    def __format__(self, spec=""):
        raise AssertionError("formatted")

    __str__ = __repr__ = __format__


def test_passing_check_never_formats_its_label():
    verify._check_equal(1, 1, "x={} y={!r}", _Unprintable(), _Unprintable())


def test_failing_check_formats_its_label():
    with pytest.raises(verify._Mismatch) as info:
        verify._check_equal((1, "a"), 2, "x={} y={!r}", 3, "b")
    assert info.value.args == ("x=3 y='b'", (1, "a"), 2)


def _shifted_r(compose):
    # compose with r off by one
    def wrong(omega2, omega1):
        omega = compose(omega2, omega1)
        return aut.Automorphism(omega.matrix, omega.r + 1, omega.u)
    return wrong


def _column_1_negated(eval_letters):
    # eval_letters with det M flipped
    def wrong(pairs):
        m = eval_letters(pairs)
        return gl2.Gl2Matrix(-m.m11, m.m12, -m.m21, m.m22)
    return wrong


def _lattice_unequal(cocycle_lattice):
    # the report with equals_coboundary_lattice False
    def wrong():
        report = cocycle_lattice()
        return cocycles.LatticeReport(report.rank, report.basis,
                                      report.coboundary_basis, False)
    return wrong


def _violation_negated(first_violation):
    # the right relator with the negated value
    def wrong(*values):
        relator, value = first_violation(*values)
        return relator, -value
    return wrong


# the whole Failure of one sample under a wrong library function: its
# label, and both sides as the report prints them
@pytest.mark.parametrize("suite, seed, patch, failure", [
    # two-argument labels
    ("rd-hom", 0, (aut, "compose", _shifted_r),
     verify.Failure(0, "d1=188968 d2=-877643",
                    "{M=[[1,-688675],[0,1]], r=0, u=0}",
                    "{M=[[1,-688675],[0,1]], r=1, u=0}")),
    ("invert-roundtrip", 0, (aut, "compose", _shifted_r),
     verify.Failure(0, "invert(omega) o omega omega={M=[[1309,2802],[-249,-533]], "
                       "r=266950608, u=294967156}",
                    "{M=[[1,0],[0,1]], r=0, u=0}", "{M=[[1,0],[0,1]], r=1, u=0}")),
    # the two parts of (v, M), each checked and shown on its own
    ("normal-form", 233,
     (aut, "normal_form", lambda nf: lambda omega: (
         lambda v, m: (aut.InnerVector(v.p + 1, v.q), m))(*nf(omega))),
     verify.Failure(0, "vector v=(869016180,-9704013) M=[[1,0],[0,1]]",
                    "(869016180,-9704013)", "(869016181,-9704013)")),
    ("normal-form", 233,
     (aut, "normal_form", lambda nf: lambda omega: (
         lambda v, m: (v, gl2.mat_multiply(m, gl2.D)))(*nf(omega))),
     verify.Failure(0, "matrix v=(869016180,-9704013) M=[[1,0],[0,1]]",
                    "[[1,0],[0,1]]", "[[-1,0],[0,1]]")),
    # the raw pairs as letters: eval_letters transposed
    ("word-normalize", 34,
     (gl2, "eval_letters", lambda ev: lambda pairs: (
         lambda m: gl2.Gl2Matrix(m.m11, m.m21, m.m12, m.m22))(ev(pairs))),
     verify.Failure(0, "generator powers raw='A^-4'",
                    "[[1,-4],[0,1]]", "[[1,0],[-4,1]]")),
    # the checks of a property, each against the value it must have
    ("central-commute", 1, (heis, "is_central", lambda _: lambda g: True),
     verify.Failure(0, "commutes with x and y g=(515381135,146636583,574602874)",
                    "True", "False")),
    ("commutator-oracle", 0, (heis, "is_central", lambda _: lambda g: False),
     verify.Failure(0, "centrality of (0,0,88530978915650025) "
                       "g1=(-824383825,200257763,780423877) "
                       "g2=(321427550,-185471059,-156017274)", "True", "False")),
    ("word-det", 0, (gl2, "eval_letters", _column_1_negated),
     verify.Failure(0, "raw='A^-7 A^2 A^8 A^7 B^-1 D^1 B^-2 D^-8 D^-3 A^-9'",
                    "1", "-1")),
    ("word-normalize", 0, (gl2, "_normalize", lambda _: lambda letters: tuple(letters)),
     verify.Failure(0, "first unreduced letter w=B^6 B^-3 D^4", "None", "1")),
    ("center-det", 4, (aut, "is_aut_plus", lambda _: lambda omega: True),
     verify.Failure(0, "is_aut_plus against fixing z omega={M=[[-2232408,-169733],"
                       "[-2138381,-162584]], r=965679009, u=63611461}",
                    "False", "True")),
    ("cocycle-lattice", 0, (cocycles, "cocycle_lattice", _lattice_unequal),
     verify.Failure(0, "lattice = coboundary lattice basis=((1, 0, 0, 0, 0, 0), "
                       "(0, 0, 0, 1, 2, 0)) coboundary=((0, 0, 0, -1, -2, 0), "
                       "(1, 0, 0, 0, 0, 0))", "True", "False")),
    ("cocycle-lattice", 0,
     (cocycles, "in_cocycle_lattice", lambda _: lambda phi, report: False),
     verify.Failure(0, "coboundary((1,0)) in lattice", "True", "False")),
    ("cocycle-lattice", 0, (cocycles, "_first_violation", _violation_negated),
     verify.Failure(0, "Cocycle = linear relator check on (0,1), (0,0), (0,0)",
                    "rho tau rho = tau rho tau: (1,1)",
                    "rho tau rho = tau rho tau: (-1,-1)")),
], ids=["rd-hom", "invert-roundtrip", "normal-form", "normal-form-matrix",
        "word-normalize", "central-commute", "commutator-oracle", "word-det",
        "word-normalize-letters", "center-det", "cocycle-lattice-equal",
        "cocycle-lattice-member", "cocycle-lattice-relator"])
def test_failure_fields_are_pinned(monkeypatch, suite, seed, patch, failure):
    module, name, wrong = patch
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    (result,) = verify.run([suite], samples=1, seed=seed).results
    assert result.failures == (failure,)


def _mismatch_raises(node):
    # the lines of the raise statements under node that raise _Mismatch
    lines = []
    for child in ast.walk(node):
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "_Mismatch":
                lines.append(child.lineno)
    return lines


def test_only_check_equal_raises_mismatch():
    # one failure path: every check goes through _check_equal, so each
    # failure has the fixed label of its check
    tree = ast.parse(Path(verify.__file__).read_text())
    (check_equal,) = (node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "_check_equal")
    assert _mismatch_raises(tree) == _mismatch_raises(check_equal) != []


# sha256 of the samplers' output below, as the code gave it when the
# samplers last changed; a report is only reproducible from (seed,
# suite, samples) while the samplers draw and build exactly this
SAMPLER_DIGEST = "0211c9b80939160301fac0affc0eb68ffb147af3c00b036354aa9ba4a093a899"


def test_sampler_stream_is_pinned():
    digest = hashlib.sha256()
    for i in range(300):
        rng = random.Random(f"0:pin:{i}")
        for value in (verify._rand_matrix(rng), verify._rand_aut(rng),
                      verify._rand_element(rng), verify._rand_vector(rng),
                      verify._rand_word(rng), verify._rand_int(rng, verify.D_BOUND)):
            digest.update(f"{value}\n".encode())
    assert digest.hexdigest() == SAMPLER_DIGEST


def _reference_pairs(rng, max_len):
    # the samplers as they drew through random's helpers
    length = rng.randint(0, max_len)
    pairs = []
    for _ in range(length):
        sym = rng.choice(verify._LETTERS)
        exp = rng.choice((1, -1)) * rng.randint(1, verify.WORD_EXPONENT)
        pairs.append((sym, exp))
    return pairs


def _same_draws(sample, reference, seeds=2000):
    # equal values, and the generator left in the same state after them
    for i in range(seeds):
        ours, theirs = random.Random(f"draws:{i}"), random.Random(f"draws:{i}")
        assert sample(ours) == reference(theirs), i
        assert ours.getstate() == theirs.getstate(), i


@pytest.mark.parametrize("max_len", [6, 8, 10, 20])
def test_rand_pairs_draws_what_random_drew(max_len):
    _same_draws(lambda rng: verify._rand_pairs(rng, max_len),
                lambda rng: _reference_pairs(rng, max_len))


@pytest.mark.parametrize("bound", [1, 30, 50, 10**6, 10**9])
def test_rand_int_draws_what_randint_drew(bound):
    # 50 is the exponent draw of power-oracle and normal-form
    _same_draws(lambda rng: verify._rand_int(rng, bound),
                lambda rng: rng.randint(-bound, bound))


# sha256 of the samplers' output at every size the suites draw, computed
# before the samplers folded and built as they draw; it pins the stream
# that SAMPLER_DIGEST's default sizes leave out
SIZED_SAMPLER_DIGEST = "4ab55cd2c632e674d9e557396f2b7273c2ec40f2dac41f30fa4a64c2983d405e"


def test_sampler_stream_is_pinned_at_every_size():
    digest = hashlib.sha256()
    for i in range(300):
        rng = random.Random(f"0:pin-sizes:{i}")
        values = []
        for max_len in (3, 6, 8, 10):
            values += [verify._rand_matrix(rng, max_len), verify._rand_word(rng, max_len)]
        values.append(verify._rand_element(rng, 30))
        values += [verify._rand_int(rng, bound)
                   for bound in (5, 30, 50, 256, verify.D_BOUND)]
        for value in values:
            digest.update(f"{value}\n".encode())
    assert digest.hexdigest() == SIZED_SAMPLER_DIGEST


def _reference_int(rng, bound=verify.ELEMENT_BOUND):
    return rng.randint(-bound, bound)


def _reference_matrix(rng, max_len):
    return gl2.eval_letters(_reference_pairs(rng, max_len))


@pytest.mark.parametrize("max_len", [3, 6, 8, 10, 20])
def test_rand_matrix_draws_what_the_word_fold_drew(max_len):
    # the column fold made as the letters are drawn against the pairs
    # evaluated afterwards
    _same_draws(lambda rng: verify._rand_matrix(rng, max_len),
                lambda rng: _reference_matrix(rng, max_len))


@pytest.mark.parametrize("bound", [30, 10**9])
def test_rand_element_draws_what_randint_drew(bound):
    _same_draws(lambda rng: verify._rand_element(rng, bound),
                lambda rng: heis.HeisElement(*(_reference_int(rng, bound)
                                              for _ in range(3))))


def test_rand_vector_draws_what_randint_drew():
    _same_draws(verify._rand_vector,
                lambda rng: aut.InnerVector(_reference_int(rng), _reference_int(rng)))


@pytest.mark.parametrize("max_len", [8, 20])
def test_rand_aut_draws_what_randint_drew(max_len):
    _same_draws(lambda rng: verify._rand_aut(rng, max_len),
                lambda rng: aut.Automorphism(_reference_matrix(rng, max_len),
                                             _reference_int(rng), _reference_int(rng)))
