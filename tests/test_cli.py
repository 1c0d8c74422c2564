import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisaut import aut, cli, cocycles, gl2, heis, verify
from heisaut.cocycles import canonical_section, format_section
from test_gl2 import long_word


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scrub(report: dict) -> dict:
    for suite in report["suites"]:
        suite["elapsed"] = 0.0
    return report


class TestElem:
    def test_mul(self, capsys):
        assert run(capsys, "elem", "mul", "(1,0,0)", "(0,1,0)") == \
            (0, "(1,1,1)\n", "")

    def test_comm(self, capsys):
        assert run(capsys, "elem", "comm", "(1,0,0)", "(0,1,0)") == \
            (0, "(0,0,1)\n", "")

    def test_inv(self, capsys):
        assert run(capsys, "elem", "inv", "(0,0,0)") == (0, "(0,0,0)\n", "")

    def test_pow_lambda_central(self, capsys):
        assert run(capsys, "elem", "pow", "(1,1,0)", "3")[1] == "(3,3,3)\n"
        assert run(capsys, "elem", "lambda", "(4,5,6)")[1] == "(4,5)\n"
        assert run(capsys, "elem", "central", "(0,0,7)")[1] == "true\n"
        assert run(capsys, "elem", "central", "(1,0,0)")[1] == "false\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "elem", "mul", "--json",
                           "(1,0,0)", "(0,1,0)")
        assert code == 0
        assert json.loads(out) == {"element": "(1,1,1)"}

    def test_parse_error_exits_1(self, capsys):
        code, out, err = run(capsys, "elem", "mul", "(1,0,0)", "oops")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["elem", "mul", "(1,0,0)"])
        assert info.value.code == 1


class TestErrors:
    # no traceback leaves main(): every error is one line, or none when
    # the reader has closed stdout

    def test_unexpected_exception_is_one_line(self, capsys, monkeypatch):
        def inverse(g):
            raise RuntimeError("boom")

        monkeypatch.setattr(heis, "inverse", inverse)
        assert run(capsys, "elem", "inv", "(0,0,0)") == \
            (1, "", "heis-aut: error: RuntimeError: boom\n")

    def test_broken_pipe_is_silent(self, capsys, monkeypatch):
        def inverse(g):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(heis, "inverse", inverse)
        assert run(capsys, "elem", "inv", "(0,0,0)") == (1, "", "")

    def test_usage_error_stays_on_one_line(self, capsys):
        # argparse echoes unrecognized arguments raw; each character that
        # splitlines breaks on is written as its backslash escape
        breaks = [c for c in map(chr, range(0x110000))
                  if len(f"x{c}y".splitlines()) > 1]
        assert len(breaks) == 10
        for c in breaks:
            with pytest.raises(SystemExit) as info:
                cli.main(["elem", "inv", "(1,0,0)", f"x{c}y"])
            assert info.value.code == 1
            assert capsys.readouterr().err.splitlines()[-1] == (
                f"heis-aut: error: unrecognized arguments: x{ascii(c)[1:-1]}y")

    @pytest.mark.parametrize("argv", [
        # over the 8 KiB stdout buffer: print() itself hits the closed pipe
        ("elem", "pow", "(1,1,0)", "1" + "0" * 6000),
        # buffered whole: the pipe error comes from the final flush
        ("elem", "mul", "(1,0,0)", "(0,1,0)"),
    ], ids=["large-output", "small-output"])
    def test_closed_stdout(self, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "heisaut.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestDigitLimit:
    # results and arguments past Python's 4300-digit int<->str limit;
    # the expected strings are built without converting an int
    def test_pow_result_over_4300_digits(self, capsys):
        limit = sys.get_int_max_str_digits()
        n = "1" + "0" * 2200
        half = "4" + "9" * 2199 + "5" + "0" * 2199  # n(n-1)/2, 4400 digits
        assert run(capsys, "elem", "pow", "(1,1,0)", n) == \
            (0, f"({n},{n},{half})\n", "")
        assert sys.get_int_max_str_digits() == limit

    def test_matrix_entry_of_5000_digits(self, capsys):
        limit = sys.get_int_max_str_digits()
        nines, power = "9" * 5000, "1" + "0" * 5000
        assert run(capsys, "gl2", "inv", f"[[{power},{nines}],[1,1]]") == \
            (0, f"[[1,-{nines}],[-1,{power}]]\n", "")
        assert sys.get_int_max_str_digits() == limit


class TestAut:
    def test_section_apply(self, capsys):
        assert run(capsys, "aut", "section", "[[-1,0],[0,1]]",
                   "--apply", "(1,1,-1)")[1] == "(-1,1,0)\n"

    def test_rd_identity(self, capsys):
        assert run(capsys, "aut", "rd", "0", "--apply", "(5,7,9)")[1] == \
            "(5,7,9)\n"

    def test_normal_form(self, capsys):
        code, out, _ = run(capsys, "aut", "normal-form",
                           "{M=[[1,0],[0,1]], r=3, u=-2}")
        assert code == 0
        assert out == "v=(-2,-3), M=[[1,0],[0,1]]\n"

    def test_section_prints_data(self, capsys):
        assert run(capsys, "aut", "section", "[[0,1],[-1,0]]")[1] == \
            "{M=[[0,1],[-1,0]], r=1, u=0}\n"

    def test_compose_apply(self, capsys):
        # section(A) after section(B): x -> (1,-1,0) -> (0,-1,1)
        code, out, _ = run(capsys, "aut", "compose",
                           "{M=[[1,1],[0,1]], r=0, u=0}",
                           "{M=[[1,0],[-1,1]], r=0, u=0}",
                           "--apply", "(1,0,0)")
        assert (code, out) == (0, "(0,-1,1)\n")

    def test_invert_roundtrip(self, capsys):
        omega = "{M=[[0,1],[-1,1]], r=5, u=-3}"
        _, inv_text, _ = run(capsys, "aut", "invert", omega)
        code, out, _ = run(capsys, "aut", "compose", omega,
                           inv_text.strip())
        assert (code, out) == (0, "{M=[[1,0],[0,1]], r=0, u=0}\n")

    def test_inner_project_center(self, capsys):
        assert run(capsys, "aut", "inner", "(1,0)",
                   "--apply", "(0,1,0)")[1] == "(0,1,1)\n"
        assert run(capsys, "aut", "project",
                   "{M=[[1,1],[0,1]], r=5, u=7}")[1] == "[[1,1],[0,1]]\n"
        assert run(capsys, "aut", "center-image",
                   "{M=[[-1,0],[0,1]], r=0, u=-1}")[1] == "-1\n"
        assert run(capsys, "aut", "is-plus",
                   "{M=[[-1,0],[0,1]], r=0, u=-1}")[1] == "false\n"

    def test_section_strategies_match(self, capsys):
        left = run(capsys, "aut", "section", "[[2,7],[1,4]]",
                   "--strategy", "left")
        right = run(capsys, "aut", "section", "[[2,7],[1,4]]",
                    "--strategy", "right")
        assert left == right


class TestGl2:
    def test_eval_empty_word(self, capsys):
        assert run(capsys, "gl2", "eval-word", "") == \
            (0, "[[1,0],[0,1]]\n", "")

    def test_decompose_roundtrips(self, capsys):
        code, word, _ = run(capsys, "gl2", "decompose", "[[0,1],[-1,0]]")
        assert code == 0
        assert word == "A^-1 B^-1 A B A^2 B\n"
        assert run(capsys, "gl2", "eval-word", word.strip())[1] == \
            "[[0,1],[-1,0]]\n"

    @pytest.mark.parametrize("strategy", ["left", "right"])
    def test_decompose_at_benchmark_size(self, capsys, strategy):
        # the matrix of one seeded 3000-letter word, which nothing
        # cancels, through decompose and back through eval-word
        m = str(gl2.eval_letters(long_word(3000, seed=3000)))
        code, word, err = run(capsys, "gl2", "decompose", "--strategy",
                              strategy, m)
        assert (code, err) == (0, "")
        assert run(capsys, "gl2", "eval-word", word.rstrip("\n")) == \
            (0, m + "\n", "")

    def test_normalize(self, capsys):
        assert run(capsys, "gl2", "normalize", "A A^2 B B^-1 D^3")[1] == \
            "A^3 D\n"

    def test_mul_inv(self, capsys):
        assert run(capsys, "gl2", "mul", "[[1,1],[0,1]]",
                   "[[1,0],[-1,1]]")[1] == "[[0,1],[-1,1]]\n"
        assert run(capsys, "gl2", "inv", "[[0,1],[-1,0]]")[1] == \
            "[[0,-1],[1,0]]\n"

    def test_relations_all_pass(self, capsys):
        code, out, _ = run(capsys, "gl2", "relations")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.startswith("PASS ") for line in lines)

    def test_relations_json(self, capsys):
        code, out, _ = run(capsys, "gl2", "relations", "--json")
        assert code == 0
        checks = json.loads(out)["relations"]
        assert [c["ok"] for c in checks] == [True] * 5
        assert all(c["product"] == "[[1,0],[0,1]]" for c in checks)


class TestCocycle:
    ZERO = "{rho=(0,0), tau=(0,0), kappa=(0,0)}"

    def test_solve_zero(self, capsys):
        assert run(capsys, "cocycle", "solve", self.ZERO) == \
            (0, "a=(0,0)\n", "")

    def test_coboundary_solve_roundtrip(self, capsys):
        code, phi_text, _ = run(capsys, "cocycle", "coboundary", "(3,-2)")
        assert code == 0
        assert phi_text == "{rho=(-2,0), tau=(0,-3), kappa=(-6,0)}\n"
        assert run(capsys, "cocycle", "solve", phi_text.strip())[1] == \
            "a=(3,-2)\n"

    def test_lattice(self, capsys):
        assert run(capsys, "cocycle", "lattice") == \
            (0, "rank=2, equals coboundary lattice\n", "")

    def test_check_valid_and_invalid(self, capsys):
        assert run(capsys, "cocycle", "check", self.ZERO) == \
            (0, "valid\n", "")
        code, out, _ = run(capsys, "cocycle", "check",
                           "{rho=(0,1), tau=(0,0), kappa=(0,0)}")
        assert code == 2
        assert out.startswith("invalid: relator 'rho tau rho = tau rho tau'")

    def test_invalid_cocycle_argument_exits_1(self, capsys):
        code, _, err = run(capsys, "cocycle", "extend",
                           "{rho=(0,0), tau=(0,0), kappa=(1,0)}", "D")
        assert code == 1
        assert "violated" in err

    def test_extend(self, capsys):
        phi = "{rho=(-2,0), tau=(0,-3), kappa=(-6,0)}"
        assert run(capsys, "cocycle", "extend", phi, "D")[1] == "(-6,0)\n"
        assert run(capsys, "cocycle", "extend", phi, "")[1] == "(0,0)\n"

    @pytest.mark.parametrize("k", [1100, 2000])
    def test_extend_huge_exponent(self, capsys, k):
        phi = "{rho=(-2,0), tau=(0,-3), kappa=(-6,0)}"  # coboundary of (3,-2)
        n = 1 << k
        assert run(capsys, "cocycle", "extend", phi, f"A^{n}") == \
            (0, f"({-2 * n},0)\n", "")

    def test_twist_diff_roundtrip(self, capsys):
        phi = "{rho=(-2,0), tau=(0,-3), kappa=(-6,0)}"
        code, twisted, _ = run(capsys, "cocycle", "twist", phi)
        assert code == 0
        base = format_section(canonical_section())
        code, out, _ = run(capsys, "cocycle", "diff", twisted.strip(), base)
        assert (code, out) == (0, phi + "\n")

    @pytest.mark.parametrize("text", ["", "  "])
    def test_twist_parses_an_empty_section(self, capsys, text):
        # an empty --section is a section to parse, as --apply "" is an
        # element to parse, not the canonical section's default
        phi = "{rho=(-2,0), tau=(0,-3), kappa=(-6,0)}"
        code, out, err = run(capsys, "cocycle", "twist", phi, "--section", text)
        assert (code, out) == (1, "")
        assert err.startswith("heis-aut: error: not a section ")
        assert err.endswith(f": {text!r}\n")


class TestVerify:
    def test_static_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "relations", "--samples", "1")
        assert code == 0
        assert out.startswith("PASS relations: samples=1 seed=0")

    def test_sampled_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "section-hom",
                           "--samples", "25", "--seed", "3")
        assert code == 0
        assert out.startswith("PASS section-hom: samples=25 seed=3")

    def test_suite_flag_merges(self, capsys):
        code, out, _ = run(capsys, "verify", "group-axioms",
                           "--suite", "lambda-hom", "--samples", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("PASS group-axioms")
        assert lines[1].startswith("PASS lambda-hom")

    def test_unknown_suite_exits_1(self, capsys):
        code, _, err = run(capsys, "verify", "no-such-suite")
        assert code == 1
        assert "unknown suite" in err

    @pytest.mark.parametrize("names", [("all", "no-such-suite"),
                                       ("no-such-suite", "all"),
                                       ("all", "--suite", "no-such-suite")])
    def test_unknown_suite_next_to_all_exits_1(self, capsys, names):
        code, out, err = run(capsys, "verify", *names, "--samples", "1")
        assert (code, out) == (1, "")
        assert err == ("heis-aut: error: unknown suite 'no-such-suite'; "
                       "available: " + ", ".join(verify.available_suites())
                       + "\n")

    def test_deterministic_given_seed(self, capsys):
        argv = ("verify", "all", "--samples", "2", "--seed", "1", "--json")
        first = scrub(json.loads(run(capsys, *argv)[1]))
        second = scrub(json.loads(run(capsys, *argv)[1]))
        assert first == second
        assert first["ok"]
        assert first["backend"] == "pure"
        assert len(first["suites"]) == len(verify.available_suites())

    def test_failing_suite_exits_2(self, capsys, monkeypatch):
        def bad_sample(rng):
            raise verify._Mismatch(f"n={rng.randint(0, 9)}", "0", "1")

        monkeypatch.setitem(
            verify._SUITES, "always-fails",
            verify._Suite("always-fails", bad_sample, static=False))
        code, out, _ = run(capsys, "verify", "always-fails",
                           "--samples", "5")
        assert code == 2
        assert out.startswith("FAIL always-fails")
        assert "expected: 0" in out


SECTION = format_section(canonical_section())


@pytest.mark.parametrize("zero", [0x0660, 0xFF10],
                         ids=["arabic-indic", "full-width"])
@pytest.mark.parametrize("parse, text, argv", [
    # each argv takes the text with foreign digits in place of the None
    pytest.param(heis.parse_element, "(1,-2,3)", ("elem", "inv", None),
                 id="element"),
    pytest.param(gl2.parse_matrix, "[[2,1],[1,1]]", ("gl2", "inv", None),
                 id="matrix"),
    pytest.param(gl2.parse_word, "A^2 B^-1", ("gl2", "eval-word", None),
                 id="word"),
    pytest.param(aut.parse_pair, "(3,-2)", ("cocycle", "coboundary", None),
                 id="pair"),
    pytest.param(aut.parse_automorphism, "{M=[[1,0],[0,1]], r=3, u=-2}",
                 ("aut", "invert", None), id="automorphism"),
    pytest.param(cocycles.parse_cocycle,
                 "{rho=(-2,0), tau=(0,-3), kappa=(-6,0)}",
                 ("cocycle", "solve", None), id="cocycle"),
    pytest.param(cocycles.parse_section, SECTION,
                 ("cocycle", "diff", None, SECTION), id="section"),
    pytest.param(cli.integer, "7", ("elem", "pow", "(1,0,0)", None),
                 id="integer-argument"),
])
def test_non_ascii_digits_rejected(capsys, zero, parse, text, argv):
    parse(text)  # the ASCII spelling is valid
    foreign = text.translate({ord("0") + i: zero + i for i in range(10)})
    assert foreign != text
    with pytest.raises(ValueError):
        parse(foreign)
    try:
        code = cli.main([foreign if a is None else a for a in argv])
    except SystemExit as exc:  # argparse rejects integer arguments
        code = exc.code
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error" in captured.err


@pytest.mark.parametrize("text", ["1_0", "+3", " 3", "3 ", "0x3"])
@pytest.mark.parametrize("argv", [("elem", "pow", "(1,0,0)", None),
                                  ("aut", "rd", None)], ids=["pow", "rd"])
def test_integer_argument_grammar(capsys, text, argv):
    # integer arguments read the -?[0-9]+ of the value syntaxes, which
    # int() widens with underscores, a plus sign and surrounding space
    with pytest.raises(ValueError):
        cli.integer(text)
    with pytest.raises(SystemExit) as info:
        cli.main([text if a is None else a for a in argv])
    captured = capsys.readouterr()
    assert info.value.code == 1
    assert captured.out == ""
    assert f"invalid integer value: '{text}'" in captured.err


def test_integer_accepts_the_value_grammar():
    assert [cli.integer(t) for t in ("0", "-0", "007", "-12")] == [0, 0, 7, -12]


# patches the library in a fresh interpreter before aut is imported, then
# runs the verify command line; reports the exit code on stdout
_VERIFY_IMPORT_PROBE = """
import sys
from heisaut import gl2
{patch}
from heisaut import cli
print(cli.main({argv!r}))
"""


_IMPORT_FAILURES = [
    # the sign-flipped residue determinant: cocycles' canonical section,
    # built at import, fails its relator check
    ("unit_det = gl2._unit_det\n"
     "gl2._unit_det = lambda *m: -unit_det(*m)", 2,
     "heis-aut: property violated while loading verify: RelatorViolation: "
     "relator "),
    ("sys.modules['heisaut.verify'] = None", 1,
     "heis-aut: error: ModuleNotFoundError: "),
]


# --help lists the suites, so it loads verify as the command does
@pytest.mark.parametrize("patch, code, err, argv", [
    (*case, argv)
    for argv in (["verify", "relations", "--samples", "1"], ["verify", "--help"])
    for case in _IMPORT_FAILURES
], ids=["defect", "missing-module", "help-defect", "help-missing-module"])
def test_verify_import_failure(patch, code, err, argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c",
                           _VERIFY_IMPORT_PROBE.format(patch=patch, argv=argv)],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == f"{code}\n"
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(err)


def test_verify_not_imported_by_cli():
    # verify is the largest module; only the verify command loads it.
    # dataclasses would pull in inspect, ast, dis and tokenize at start-up
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    loaded = ("print(*(m in sys.modules for m in "
              "('heisaut.verify', 'json', 'dataclasses', 'inspect')))")
    for module, expected in (("heisaut.cli", "False False False False\n"),
                             ("heisaut.verify", "True False False False\n")):
        probe = f"import sys, {module}; {loaded}"
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout == expected, module
    probe = "import heisaut; print(heisaut.verify.run.__module__)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "heisaut.verify\n"


# the heisaut modules a process loads, by the command it runs
_HEIS = {"heisaut", "heisaut.cli", "heisaut.heis"}
_GL2 = _HEIS | {"heisaut.gl2", "heisaut._backend", "heisaut._kernels"}
_AUT = _GL2 | {"heisaut.aut"}
_COCYCLE = _AUT | {"heisaut.cocycles", "heisaut.zlattice"}
_VERIFY = _COCYCLE | {"heisaut.verify"}

# runs cli.main on its arguments, or only imports the package given none;
# reports the exit code and the loaded heisaut modules as stderr's last line
_LOADED_PROBE = """
import sys
code = 0
if len(sys.argv) == 1:
    import heisaut
else:
    import heisaut.cli
    try:
        code = heisaut.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "heisaut"),
      file=sys.stderr)
"""


@pytest.mark.parametrize("argv, code, modules", [
    ((), 0, {"heisaut"}),
    (("--help",), 0, _HEIS),
    (("elem", "mul", "(1,0,0)"), 1, _HEIS),
    (("elem", "mul", "(1,0,0)", "(0,1,0)"), 0, _HEIS),
    (("gl2", "decompose", "[[2,1],[1,1]]"), 0, _GL2),
    (("aut", "compose", "{M=[[0,1],[-1,1]], r=5, u=-3}",
      "{M=[[2,1],[1,1]], r=-1, u=4}", "--apply", "(1,2,3)"), 0, _AUT),
    (("cocycle", "extend", "{rho=(-2,0), tau=(0,-3), kappa=(-6,0)}", "A B"),
     0, _COCYCLE),
    (("verify", "relations", "--samples", "1"), 0, _VERIFY),
], ids=["import heisaut", "--help", "usage error", "elem", "gl2", "aut",
        "cocycle", "verify"])
def test_command_loads_only_its_modules(argv, code, modules):
    # a fresh interpreter without site, whose start-up imports nothing of
    # its own: a module-level import that loads more fails here
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", _LOADED_PROBE, *argv],
                          env=env, capture_output=True, text=True, check=True)
    last = proc.stderr.splitlines()[-1].split()
    assert (int(last[0]), set(last[1:])) == (code, modules)


def test_console_script_installed():
    exe = shutil.which("heis-aut")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "elem", "mul", "(1,0,0)", "(0,1,0)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "(1,1,1)\n"


# ---------------------------------------------------------------------------
# the whole command surface on fixed inputs: exact plain stdout, exact
# --json text, exit code, and the usage line of every --help

O1 = "{M=[[0,1],[-1,1]], r=5, u=-3}"
O2 = "{M=[[2,1],[1,1]], r=-1, u=4}"
PHI = "{rho=(-2,0), tau=(0,-3), kappa=(-6,0)}"
CANONICAL = ("{rho={M=[[1,1],[0,1]], r=0, u=0}, tau={M=[[1,0],[-1,1]], r=0, u=0}, "
             "kappa={M=[[-1,0],[0,1]], r=0, u=-1}}")
TWISTED = ("{rho={M=[[1,1],[0,1]], r=0, u=-2}, tau={M=[[1,0],[-1,1]], r=3, u=0}, "
           "kappa={M=[[-1,0],[0,1]], r=0, u=-7}}")
TWICE = ("{rho={M=[[1,1],[0,1]], r=0, u=-4}, tau={M=[[1,0],[-1,1]], r=6, u=0}, "
         "kappa={M=[[-1,0],[0,1]], r=0, u=-13}}")
RELATORS = ["rho tau rho = tau rho tau", "(rho tau rho)^4 = 1",
            "kappa tau kappa^-1 = tau^-1", "kappa rho kappa^-1 = rho^-1",
            "kappa^2 = 1"]
INVALID = "{rho=(0,1), tau=(0,0), kappa=(0,0)}"
REASON = ("relator 'rho tau rho = tau rho tau' violated: "
          "extension gives (1,1), not (0,0)")

SURFACE = [
    # (argv, plain stdout without its newline, --json object, exit code)
    (("elem", "mul", "(1,2,3)", "(4,-5,6)"), "(5,-3,4)", {"element": "(5,-3,4)"}, 0),
    (("elem", "inv", "(1,2,3)"), "(-1,-2,-1)", {"element": "(-1,-2,-1)"}, 0),
    (("elem", "pow", "(1,2,3)", "3"), "(3,6,15)", {"element": "(3,6,15)"}, 0),
    (("elem", "comm", "(1,2,3)", "(4,-5,6)"), "(0,0,-13)",
     {"element": "(0,0,-13)"}, 0),
    (("elem", "lambda", "(1,2,3)"), "(1,2)", {"pair": "(1,2)"}, 0),
    (("elem", "central", "(0,0,7)"), "true", {"central": True}, 0),
    (("elem", "central", "(1,0,0)"), "false", {"central": False}, 0),
    (("aut", "apply", O1, "(1,2,3)"), "(2,1,1)", {"element": "(2,1,1)"}, 0),
    (("aut", "compose", O1, O2), "{M=[[1,1],[-1,0]], r=4, u=5}",
     {"automorphism": "{M=[[1,1],[-1,0]], r=4, u=5}"}, 0),
    (("aut", "compose", O1, O2, "--apply", "(1,2,3)"), "(3,-1,15)",
     {"element": "(3,-1,15)"}, 0),
    (("aut", "invert", O1), "{M=[[1,-1],[1,0]], r=-1, u=5}",
     {"automorphism": "{M=[[1,-1],[1,0]], r=-1, u=5}"}, 0),
    (("aut", "invert", O1, "--apply", "(1,2,3)"), "(-1,1,10)",
     {"element": "(-1,1,10)"}, 0),
    (("aut", "section", "[[2,7],[1,4]]", "--strategy", "right"),
     "{M=[[2,7],[1,4]], r=0, u=9}",
     {"automorphism": "{M=[[2,7],[1,4]], r=0, u=9}"}, 0),
    (("aut", "section", "[[2,7],[1,4]]", "--apply", "(1,2,3)"), "(16,9,63)",
     {"element": "(16,9,63)"}, 0),
    (("aut", "project", O1), "[[0,1],[-1,1]]", {"matrix": "[[0,1],[-1,1]]"}, 0),
    (("aut", "inner", "(1,-2)"), "{M=[[1,0],[0,1]], r=2, u=1}",
     {"automorphism": "{M=[[1,0],[0,1]], r=2, u=1}"}, 0),
    (("aut", "inner", "(1,-2)", "--apply", "(1,2,3)"), "(1,2,7)",
     {"element": "(1,2,7)"}, 0),
    (("aut", "rd", "3"), "{M=[[1,3],[0,1]], r=0, u=0}",
     {"automorphism": "{M=[[1,3],[0,1]], r=0, u=0}"}, 0),
    (("aut", "rd", "3", "--apply", "(1,2,3)"), "(7,2,6)",
     {"element": "(7,2,6)"}, 0),
    (("aut", "normal-form", O1), "v=(-4,-1), M=[[0,1],[-1,1]]",
     {"v": "(-4,-1)", "matrix": "[[0,1],[-1,1]]"}, 0),
    (("aut", "center-image", O1), "1", {"center_image": 1}, 0),
    (("aut", "center-image", "{M=[[-1,0],[0,1]], r=0, u=-1}"), "-1",
     {"center_image": -1}, 0),
    (("aut", "is-plus", O1), "true", {"is_aut_plus": True}, 0),
    (("aut", "is-plus", "{M=[[-1,0],[0,1]], r=0, u=-1}"), "false",
     {"is_aut_plus": False}, 0),
    (("gl2", "mul", "[[2,1],[1,1]]", "[[0,1],[-1,0]]"), "[[-1,2],[-1,1]]",
     {"matrix": "[[-1,2],[-1,1]]"}, 0),
    (("gl2", "inv", "[[2,7],[1,4]]"), "[[4,-7],[-1,2]]",
     {"matrix": "[[4,-7],[-1,2]]"}, 0),
    (("gl2", "eval-word", "A B^-2 D"), "[[-3,1],[-2,1]]",
     {"matrix": "[[-3,1],[-2,1]]"}, 0),
    (("gl2", "decompose", "[[2,7],[1,4]]", "--strategy", "right"),
     "A B^-1 A^3", {"word": "A B^-1 A^3"}, 0),
    (("gl2", "normalize", "A A^2 B B^-1 D^3"), "A^3 D", {"word": "A^3 D"}, 0),
    (("gl2", "relations"), "\n".join(f"PASS {r}" for r in RELATORS),
     {"relations": [{"ok": True, "product": "[[1,0],[0,1]]", "relator": r}
                    for r in RELATORS]}, 0),
    (("cocycle", "check", PHI), "valid", {"cocycle": PHI, "valid": True}, 0),
    (("cocycle", "check", INVALID), f"invalid: {REASON}",
     {"reason": REASON, "valid": False}, 2),
    (("cocycle", "solve", PHI), "a=(3,-2)", {"a": "(3,-2)"}, 0),
    (("cocycle", "coboundary", "(3,-2)"), PHI, {"cocycle": PHI}, 0),
    (("cocycle", "extend", PHI, "A B^-2 D"), "(-14,-6)", {"value": "(-14,-6)"}, 0),
    (("cocycle", "lattice"), "rank=2, equals coboundary lattice",
     {"basis": [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 2, 0]],
      "coboundary_basis": [[0, 0, 0, -1, -2, 0], [1, 0, 0, 0, 0, 0]],
      "equals_coboundary_lattice": True, "rank": 2}, 0),
    (("cocycle", "twist", PHI), TWISTED, {"section": TWISTED}, 0),
    (("cocycle", "twist", PHI, "--section", TWISTED), TWICE,
     {"section": TWICE}, 0),
    (("cocycle", "diff", TWISTED, CANONICAL), PHI, {"cocycle": PHI}, 0),
    (("verify", "relations", "--samples", "1"),
     "PASS relations: samples=1 seed=0 elapsed=0.000s",
     {"backend": "pure", "ok": True, "seed": 0,
      "suites": [{"elapsed": 0.0, "failures": [], "ok": True, "samples": 1,
                  "suite": "relations"}]}, 0),
]


def _surface_id(case):
    argv = case[0]
    return "-".join(argv[:2] + tuple(a.lstrip("-") for a in argv
                                     if a.startswith("--")))


@pytest.mark.parametrize("argv, plain, data, code", [
    pytest.param(*case, id=f"{_surface_id(case)}-{i}")
    for i, case in enumerate(SURFACE)
])
def test_command_surface(capsys, argv, plain, data, code):
    got_code, out, err = run(capsys, *argv)
    if argv[0] == "verify":
        out = re.sub(r"elapsed=[0-9.]+s", "elapsed=0.000s", out)
    assert (got_code, out, err) == (code, plain + "\n", "")
    got_code, out, err = run(capsys, *argv, "--json")
    assert (got_code, err) == (code, "")
    if argv[0] == "verify":
        assert scrub(json.loads(out)) == data
    else:
        assert out == json.dumps(data, sort_keys=True) + "\n"


USAGE = {
    (): "heis-aut [-h] {elem,aut,gl2,cocycle,verify} ...",
    ("elem",): "heis-aut elem [-h] {mul,inv,pow,comm,lambda,central} ...",
    ("aut",): "heis-aut aut [-h] {apply,compose,invert,section,project,inner,"
              "rd,normal-form,center-image,is-plus} ...",
    ("gl2",): "heis-aut gl2 [-h] {mul,inv,eval-word,decompose,normalize,"
              "relations} ...",
    ("cocycle",): "heis-aut cocycle [-h] {check,solve,coboundary,extend,"
                  "lattice,twist,diff} ...",
    ("elem", "mul"): "heis-aut elem mul [-h] [--json] g1 g2",
    ("elem", "inv"): "heis-aut elem inv [-h] [--json] g",
    ("elem", "pow"): "heis-aut elem pow [-h] [--json] g n",
    ("elem", "comm"): "heis-aut elem comm [-h] [--json] g1 g2",
    ("elem", "lambda"): "heis-aut elem lambda [-h] [--json] g",
    ("elem", "central"): "heis-aut elem central [-h] [--json] g",
    ("aut", "apply"): "heis-aut aut apply [-h] [--json] omega g",
    ("aut", "compose"):
        "heis-aut aut compose [-h] [--json] [--apply G] omega2 omega1",
    ("aut", "invert"): "heis-aut aut invert [-h] [--json] [--apply G] omega",
    ("aut", "section"): "heis-aut aut section [-h] [--json] "
                        "[--strategy {left,right}] [--apply G] matrix",
    ("aut", "project"): "heis-aut aut project [-h] [--json] omega",
    ("aut", "inner"): "heis-aut aut inner [-h] [--json] [--apply G] (p,q)",
    ("aut", "rd"): "heis-aut aut rd [-h] [--json] [--apply G] d",
    ("aut", "normal-form"): "heis-aut aut normal-form [-h] [--json] omega",
    ("aut", "center-image"): "heis-aut aut center-image [-h] [--json] omega",
    ("aut", "is-plus"): "heis-aut aut is-plus [-h] [--json] omega",
    ("gl2", "mul"): "heis-aut gl2 mul [-h] [--json] m1 m2",
    ("gl2", "inv"): "heis-aut gl2 inv [-h] [--json] m",
    ("gl2", "eval-word"): "heis-aut gl2 eval-word [-h] [--json] word",
    ("gl2", "decompose"):
        "heis-aut gl2 decompose [-h] [--json] [--strategy {left,right}] m",
    ("gl2", "normalize"): "heis-aut gl2 normalize [-h] [--json] word",
    ("gl2", "relations"): "heis-aut gl2 relations [-h] [--json]",
    ("cocycle", "check"): "heis-aut cocycle check [-h] [--json] phi",
    ("cocycle", "solve"): "heis-aut cocycle solve [-h] [--json] phi",
    ("cocycle", "coboundary"): "heis-aut cocycle coboundary [-h] [--json] (p,q)",
    ("cocycle", "extend"): "heis-aut cocycle extend [-h] [--json] phi word",
    ("cocycle", "lattice"): "heis-aut cocycle lattice [-h] [--json]",
    ("cocycle", "twist"):
        "heis-aut cocycle twist [-h] [--json] [--section SECTION] phi",
    ("cocycle", "diff"): "heis-aut cocycle diff [-h] [--json] alpha2 alpha1",
    ("verify",): "heis-aut verify [-h] [--json] [--suite NAME] "
                 "[--samples SAMPLES] [--seed SEED] [SUITE ...]",
}


def _help(capsys, *path):
    with pytest.raises(SystemExit) as info:
        cli.main([*path, "--help"])
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


@pytest.mark.parametrize("path, usage", list(USAGE.items()),
                         ids=[" ".join(p) or "heis-aut" for p in USAGE])
def test_help_usage(capsys, path, usage):
    # the usage block, with argparse's line wrapping undone
    block = _help(capsys, *path).split("\n\n")[0]
    assert " ".join(block.split()) == "usage: " + usage


def test_every_command_has_a_pinned_usage():
    parser = cli.build_parser()

    def commands(p):
        return next((a.choices for a in p._actions
                     if isinstance(a, argparse._SubParsersAction)), {})

    paths = {(fam,) for fam in commands(parser)}
    paths |= {(fam, cmd) for fam, p in commands(parser).items()
              for cmd in commands(p)}
    assert paths | {()} == set(USAGE)
    assert len({p for p in paths if len(p) == 2} | {("verify",)}) == 30


def test_verify_help_lists_every_suite(capsys):
    # argparse may wrap the list at any space or hyphen
    text = "".join(_help(capsys, "verify").split())
    assert "available:" + ",".join(verify.available_suites()) in text
    assert len(verify.available_suites()) == 31


# ---------------------------------------------------------------------------
# main builds only the branch its first two words name; every command
# line parses as it does with the whole tree

def _branch_corpus():
    yield from ([], ["--help"], ["nope"], ["elem"], ["elem", "--help"],
                ["elem", "nope"], ["elem", "--json", "mul", "(1,0,0)", "(0,1,0)"],
                ["verify", "--json", "relations", "--samples", "1"])
    for family, command, _, _, _, positionals, options in cli._commands():
        head = [family] + ([command] if command else [])
        args = ["3" if parse is cli.integer else "x" for _, parse in positionals]
        yield head + args
        yield head + ["--help"]
        yield head + args + ["--json", "extra"]
        if args:
            yield head + args[:-1]
        yield head + ["--bogus"] + args
        for flag, _ in options:
            if flag.startswith("--"):
                yield head + args + [flag]


def _parse(capsys, parser, argv):
    try:
        namespace, code = vars(parser.parse_args(argv)), None
        namespace.pop("handler")
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


@pytest.mark.parametrize("argv", [pytest.param(argv, id=" ".join(argv) or "-")
                                  for argv in _branch_corpus()])
def test_branch_parser_parses_as_the_whole_tree(capsys, argv):
    assert _parse(capsys, cli.build_parser(argv[:2]), argv) == \
        _parse(capsys, cli.build_parser(), argv)


# -- fuzzing the exit-code contract -------------------------------------------

FUZZ_TOKENS = (
    "--json", "--apply", "--strategy", "left", "right", "--section", "--suite",
    "--samples", "--seed", "-h", "all", "relations", "cocycle-lattice", "",
    "(1,2,3)", "(0,1,0)", "(3,-2)", "[[1,1],[0,1]]", "[[2,1],[1,1]]",
    "[[2,0],[0,1]]", "A B D^-1", "A^x", "{M=[[0,1],[1,0]], r=5, u=7}",
    "{rho=(0,0), tau=(0,0), kappa=(0,0)}", "{rho=(0,1), tau=(0,0), kappa=(0,0)}",
    format_section(canonical_section()),
)
# the characters of every value syntax, so that near misses are drawn
FUZZ_ALPHABET = "()[]{},=^-+ 0123456789ABDMruhotaokp_x\n\t\u0663"


def command_lines():
    # a real family and command, then a few tokens; verify starts with a
    # small sample count, which the drawn tokens can only keep small
    def line(row, tail):
        family, command = row
        if command is None:
            return [family, "--samples", "2", *tail]
        return [family, command, *tail]

    rows = [(family, command) for family, command, *_ in cli._commands()]
    tokens = st.one_of(st.sampled_from(FUZZ_TOKENS),
                       st.integers(-5, 20).map(str),
                       st.text(FUZZ_ALPHABET, max_size=24),
                       st.text(max_size=6))
    return st.builds(line, st.sampled_from(rows), st.lists(tokens, max_size=5))


@settings(max_examples=settings().max_examples * 3, deadline=None)
@given(command_lines())
def test_fuzzed_command_lines_keep_the_exit_contract(argv):
    # exit 0, 1 or 2, never a traceback, and an error is one line after
    # argparse's usage text
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code:
        lines = [line for line in err.getvalue().splitlines()
                 if not line.startswith(("usage:", " "))]
        assert len(lines) <= 1, lines
