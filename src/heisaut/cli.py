"""Command line interface.

    heis-aut <elem|aut|gl2|cocycle|verify> ...

Exit codes: 0 on success, 1 on usage or parse errors, 2 when a checked
property fails (a relator reported FAIL, an invalid cocycle, a verify
suite with failures).  Any other error also exits 1 with a one-line
message, and a reader that closes stdout early (``| head``) ends the
output silently with exit 1; no traceback reaches the terminal.

One output rule covers every command that prints a single value: plain
text is ``str(result)``, or ``true``/``false`` for a bool; --json prints
``{key: str(result)}``, except that a bool or an int stays a JSON
boolean or number.  The few commands with their own output or exit code
(normal-form, relations, check, solve, lattice, decompose, twist,
verify) print the same fields in both forms.

The commands are described once, in the table of ``_commands()``;
``build_parser()`` turns it into the argparse tree.  ``main`` asks it
for the branch of the one command its first two words name, and for the
whole tree when they name none (no command, ``--help``, a family's own
help, an unknown name, or an option before the command); the output is
the same either way.

A command imports only the modules it calls: the table names each
library function and value parser as "module.name", looked up when the
command runs, and each ``_cmd_*`` handler imports its module itself.
Building the parser, ``--help`` and usage errors load heis alone (for
the integer grammar).  README's "CLI" section has the table of the
heisaut modules each family loads; tests/test_readme.py checks it
against the modules tests/test_cli.py sees a process load.  ``json``
is imported only by --json.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from collections.abc import Sequence

from . import heis

_SUITES_HELP = "suite names, or 'all' (default: all); available: "


# each character that str.splitlines breaks on, as its backslash escape
_LINE_BREAKS = str.maketrans(
    {c: ascii(c)[1:-1] for c in "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"})


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here
    # reserves 2 for property violations, so remap to 1.  The message
    # echoes unrecognized arguments raw: escape their line breaks, so
    # that it stays on one line
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message.translate(_LINE_BREAKS)}\n")

    def format_help(self) -> str:
        # the suite list needs the verify module: read it only when the
        # help is shown
        for action in self._actions:
            if action.dest == "suites":
                action.help = _SUITES_HELP + ", ".join(_verify().available_suites())
        return super().format_help()


_INTEGER = re.compile(heis._INT)


def integer(text: str) -> int:
    # the integer grammar of the value syntaxes
    if not _INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _emit(args: argparse.Namespace, plain: str, data: dict) -> None:
    if args.json:
        import json
        print(json.dumps(data, sort_keys=True))
    else:
        print(plain)


def _library(ref: str):
    # "module.name": the name as heisaut.module holds it now; the package
    # namespace imports the module on first use
    module, name = ref.split(".")
    return getattr(getattr(sys.modules[__package__], module), name)


def _run(fn: str, key: str, positionals, args) -> int:
    # parse each positional in order, call the library function, print
    # the result; integers arrive parsed by argparse, raw text as it is
    result = _library(fn)(*(
        getattr(args, name) if parse in (str, integer)
        else _library(parse)(getattr(args, name))
        for name, parse in positionals))
    if getattr(args, "apply", None) is not None:
        from . import aut
        result = aut.apply(result, heis.parse_element(args.apply))
        key = "element"
    if isinstance(result, bool):
        plain = "true" if result else "false"
    else:
        plain = str(result)
    _emit(args, plain, {key: result if isinstance(result, int) else plain})
    return 0


# ---------------------------------------------------------------------------
# commands with their own output or exit code

def _cmd_normal_form(args) -> int:
    from . import aut
    v, m = aut.normal_form(aut.parse_automorphism(args.omega))
    _emit(args, f"v={v}, M={m}", {"v": str(v), "matrix": str(m)})
    return 0


def _cmd_decompose(args) -> int:
    from . import gl2
    w = gl2.decompose(gl2.parse_matrix(args.m), args.strategy)
    _emit(args, str(w), {"word": str(w)})
    return 0


def _cmd_relations(args) -> int:
    from . import gl2
    checks = gl2.check_presentation_relations()
    _emit(args,
          "\n".join(f"{'PASS' if c.ok else 'FAIL'} {c.name}" for c in checks),
          {"relations": [
              {"relator": c.name, "ok": c.ok, "product": str(c.product)}
              for c in checks
          ]})
    return 0 if all(c.ok for c in checks) else 2


def _cmd_check(args) -> int:
    from . import cocycles
    try:
        phi = cocycles.parse_cocycle(args.phi)
    except cocycles.RelatorViolation as exc:
        _emit(args, f"invalid: {exc}", {"valid": False, "reason": str(exc)})
        return 2
    _emit(args, "valid", {"valid": True, "cocycle": str(phi)})
    return 0


def _cmd_solve(args) -> int:
    from . import cocycles
    a = cocycles.solve_coboundary(cocycles.parse_cocycle(args.phi))
    _emit(args, f"a={a}", {"a": str(a)})
    return 0


def _cmd_lattice(args) -> int:
    from . import cocycles
    report = cocycles.cocycle_lattice()
    relation = "equals" if report.equals_coboundary_lattice else "differs from"
    plain = f"rank={report.rank}, {relation} coboundary lattice"
    _emit(args, plain, {
        "rank": report.rank,
        "equals_coboundary_lattice": report.equals_coboundary_lattice,
        "basis": [list(v) for v in report.basis],
        "coboundary_basis": [list(v) for v in report.coboundary_basis],
    })
    return 0 if report.rank == 2 and report.equals_coboundary_lattice else 2


def _cmd_twist(args) -> int:
    from . import cocycles
    sigma0 = (cocycles.parse_section(args.section) if args.section is not None
              else cocycles.canonical_section())
    twisted = cocycles.twist(sigma0, cocycles.parse_cocycle(args.phi))
    _emit(args, str(twisted), {"section": str(twisted)})
    return 0


class _LoadViolation(Exception):
    """The library raised while verify loaded; the message is the one
    stderr line, and the exit code is 2."""


def _verify():
    # the verify module, for the command and for its --help alike
    try:
        from . import verify
    except ImportError:
        raise
    except Exception as exc:
        # a defect that raises while the library loads (cocycles builds
        # the canonical section at import) violates a property, as a
        # failed suite does; a missing module stays a usage error
        raise _LoadViolation(
            f"heis-aut: property violated while loading verify: "
            f"{type(exc).__name__}: {str(exc).translate(_LINE_BREAKS)}") from exc
    return verify


def _cmd_verify(args) -> int:
    verify = _verify()
    from ._backend import backend_name

    available = verify.available_suites()
    names = list(args.suites) + list(args.suite or [])
    if not names or "all" in names:
        # unknown names stay for verify.run to reject, next to 'all' too
        names = [*available, *(n for n in names
                               if n != "all" and n not in available)]
    report = verify.run(names, samples=args.samples, seed=args.seed)
    lines = []
    for r in report.results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{status} {r.suite}: samples={r.samples} "
                     f"seed={r.seed} elapsed={r.elapsed:.3f}s")
        for f in r.failures:
            lines += [f"  sample {f.sample}: {f.inputs}",
                      f"    expected: {f.expected}",
                      f"    actual:   {f.actual}"]
    _emit(args, "\n".join(lines), {
        "seed": report.seed,
        "ok": report.ok,
        "backend": backend_name(),
        "suites": [
            {"suite": r.suite, "samples": r.samples, "ok": r.ok,
             "elapsed": round(r.elapsed, 6),
             "failures": [{"sample": f.sample, "inputs": f.inputs,
                           "expected": f.expected, "actual": f.actual}
                          for f in r.failures]}
            for r in report.results
        ],
    })
    return 0 if report.ok else 2


# ---------------------------------------------------------------------------
# the command table

_FAMILIES = {
    "elem": "Heisenberg group elements (a,b,c)",
    "aut": "automorphisms {M=..., r=..., u=...}",
    "gl2": "GL(2,Z) matrices and generator words",
    "cocycle": "1-cocycles {rho=(p,q), tau=..., kappa=...}",
}


def _commands() -> list:
    """Every command as (family, command, help, function, JSON key,
    positionals, options).

    A positional is (name, parser): a library parser, ``integer``, or
    ``str`` for the raw text.  With a JSON key, the function is the library
    call that ``_run`` makes on the parsed positionals; without one, it
    is a ``_cmd_*`` handler that reads the raw ``args``.  A library
    function or parser is named "module.name" and looked up when the
    command runs, so that each entry is the function its module holds
    then, and building the parser imports no module beyond heis.  An
    option is (flag, add_argument keywords).  ``verify`` is a family
    without subcommands.

    Built on each call, so that its ``integer`` is the one this module
    holds when the command runs.
    """
    element = "heis.parse_element"
    matrix, word = "gl2.parse_matrix", "gl2.parse_word"
    omega, pair = "aut.parse_automorphism", "aut.parse_pair"
    cocycle, section = "cocycles.parse_cocycle", "cocycles.parse_section"
    apply = ("--apply", {"metavar": "G", "help": "apply the result to an element"})
    strategy = {"choices": ("left", "right"), "default": "left"}
    return [
        ("elem", "mul", "product g1*g2", "heis.multiply", "element",
         [("g1", element), ("g2", element)], []),
        ("elem", "inv", "inverse", "heis.inverse", "element", [("g", element)], []),
        ("elem", "pow", "n-th power", "heis.power", "element",
         [("g", element), ("n", integer)], []),
        ("elem", "comm", "commutator g1 g2 g1^-1 g2^-1", "heis.commutator",
         "element", [("g1", element), ("g2", element)], []),
        ("elem", "lambda", "abelianization (a,b,c) -> (a,b)",
         "heis.lambda_project", "pair", [("g", element)], []),
        ("elem", "central", "whether the element is central", "heis.is_central",
         "central", [("g", element)], []),
        ("aut", "apply", "omega(g)", "aut.apply", "element",
         [("omega", omega), ("g", element)], []),
        ("aut", "compose", "omega2 after omega1", "aut.compose", "automorphism",
         [("omega2", omega), ("omega1", omega)], [apply]),
        ("aut", "invert", "omega^-1", "aut.invert", "automorphism",
         [("omega", omega)], [apply]),
        ("aut", "section", "the section over a matrix", "aut.section",
         "automorphism", [("matrix", matrix)],
         [("--strategy", {**strategy,
                          "help": "ignored: the section is computed in closed "
                                  "form; the flag is kept for compatibility"}),
          apply]),
        ("aut", "project", "induced matrix on the abelianization", "aut.project",
         "matrix", [("omega", omega)], []),
        ("aut", "inner", "conjugation by (p,q,0)", "aut.inner", "automorphism",
         [("(p,q)", pair)], [apply]),
        ("aut", "rd", "the shear automorphism R_d", "aut.rd", "automorphism",
         [("d", integer)], [apply]),
        ("aut", "normal-form", "unique (v, M) with omega = inner(v) o section(M)",
         _cmd_normal_form, None, [("omega", str)], []),
        ("aut", "center-image", "c-coordinate of omega((0,0,1))",
         "aut.center_image", "center_image", [("omega", omega)], []),
        ("aut", "is-plus", "whether omega projects into SL(2,Z)",
         "aut.is_aut_plus", "is_aut_plus", [("omega", omega)], []),
        ("gl2", "mul", "matrix product", "gl2.mat_multiply", "matrix",
         [("m1", matrix), ("m2", matrix)], []),
        ("gl2", "inv", "matrix inverse", "gl2.mat_inverse", "matrix",
         [("m", matrix)], []),
        ("gl2", "eval-word", "evaluate a word like 'A B A D A^-3'",
         "gl2.eval_word", "matrix", [("word", word)], []),
        ("gl2", "decompose", "a generator word for the matrix", _cmd_decompose,
         None, [("m", str)], [("--strategy", strategy)]),
        ("gl2", "normalize", "normalize a word", "gl2.parse_word", "word",
         [("word", str)], []),
        ("gl2", "relations", "check the five defining relators", _cmd_relations,
         None, [], []),
        ("cocycle", "check", "validate generator values against the relators",
         _cmd_check, None, [("phi", str)], []),
        ("cocycle", "solve", "the unique a with g.a - a = phi(g)", _cmd_solve,
         None, [("phi", str)], []),
        ("cocycle", "coboundary", "the cocycle g -> g.a - a",
         "cocycles.coboundary", "cocycle", [("(p,q)", pair)], []),
        ("cocycle", "extend", "evaluate a cocycle on a word", "cocycles.extend",
         "value", [("phi", cocycle), ("word", word)], []),
        ("cocycle", "lattice", "solution lattice of the relator system",
         _cmd_lattice, None, [], []),
        ("cocycle", "twist", "twist a section by a cocycle", _cmd_twist, None,
         [("phi", str)],
         [("--section", {"metavar": "SECTION",
                         "help": "base section (default: the canonical one)"})]),
        ("cocycle", "diff", "cocycle difference alpha2 * alpha1^-1",
         "cocycles.section_difference", "cocycle",
         [("alpha2", section), ("alpha1", section)], []),
        ("verify", None, "run randomized invariant suites", _cmd_verify, None, [],
         [("suites", {"nargs": "*", "metavar": "SUITE", "help": _SUITES_HELP}),
          ("--suite", {"action": "append", "metavar": "NAME",
                       "help": "additional suite to run (repeatable)"}),
          ("--samples", {"type": integer, "default": 1000}),
          ("--seed", {"type": integer, "default": 0})]),
    ]


def build_parser(words: Sequence[str] = ()) -> _Parser:
    """The argparse tree of ``_commands()``.

    Given the first words of a command line, only the rows of the command
    they name are built, if they name one: its family, and its command
    where the family has commands.  The top-level usage still lists every
    family, as an unrecognized argument prints it.
    """
    table = _commands()
    first, second = (*words, None, None)[:2]
    rows = [row for row in table
            if row[0] == first and row[1] in (None, second)] or table
    parser = _Parser(
        prog="heis-aut",
        description="Exact arithmetic for the discrete Heisenberg group, "
                    "its automorphism group, and GL(2,Z) generator words.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if rows is table
        else "{" + ",".join(dict.fromkeys(row[0] for row in table)) + "}")
    families = {}
    for family, command, summary, fn, key, positionals, options in rows:
        if command is None:
            p = sub.add_parser(family, help=summary)
        else:
            if family not in families:
                families[family] = sub.add_parser(
                    family, help=_FAMILIES[family]
                ).add_subparsers(dest="subcommand", required=True)
            p = families[family].add_parser(command, help=summary)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON object instead of plain text")
        for name, parse in positionals:
            # value parsers run in _run, where their ValueError keeps its
            # message; argparse would replace it with "invalid ... value"
            p.add_argument(name, type=integer if parse is integer else None)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=fn if key is None
                       else functools.partial(_run, fn, key, positionals))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # values are exact at any size, so lift Python's int<->str digit
    # limit (Python 3.10.7 on; 0 means none) for this call only; library
    # callers keep their own setting
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = build_parser(argv[:2]).parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        _drop_stdout()
        return 1
    except _LoadViolation as exc:
        print(exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"heis-aut: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"heis-aut: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _drop_stdout() -> None:
    # the reader has gone: point stdout's descriptor at devnull, so the
    # flush of what is still buffered at exit cannot raise again
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a descriptor (a captured or closed stream)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
