import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from heisaut import aut, cli, cocycles, gl2, heis, verify
from heisaut.cocycles import canonical_section, format_section


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
        def handler(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_elem_inv", handler)
        assert run(capsys, "elem", "inv", "(0,0,0)") == \
            (1, "", "heis-aut: error: RuntimeError: boom\n")

    def test_broken_pipe_is_silent(self, capsys, monkeypatch):
        def handler(args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "_cmd_elem_inv", handler)
        assert run(capsys, "elem", "inv", "(0,0,0)") == (1, "", "")

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
            return (f"n={rng.randint(0, 9)}", "0", "1")

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


def test_console_script_installed():
    exe = shutil.which("heis-aut")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "elem", "mul", "(1,0,0)", "(0,1,0)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "(1,1,1)\n"
