"""Command line interface.

    heis-aut <elem|aut|gl2|cocycle|verify> ...

Exit codes: 0 on success, 1 on usage or parse errors, 2 when a checked
property fails (a relator reported FAIL, an invalid cocycle, a verify
suite with failures).  Any other error also exits 1 with a one-line
message, and a reader that closes stdout early (``| head``) ends the
output silently with exit 1; no traceback reaches the terminal.  Plain
output uses the textual value syntaxes; --json emits the same fields as
a JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import aut, cocycles, gl2, heis, verify
from ._backend import backend_name


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here
    # reserves 2 for property violations, so remap to 1
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def integer(text: str) -> int:
    # int() also reads non-ASCII decimal digits such as "\u0661"; the
    # value syntaxes accept ASCII digits only
    if not text.isascii():
        raise ValueError(text)
    return int(text)


def _emit(args: argparse.Namespace, plain: str, data: dict) -> None:
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(plain)


# ---------------------------------------------------------------------------
# elem

def _cmd_elem_mul(args) -> int:
    g = heis.multiply(heis.parse_element(args.g1), heis.parse_element(args.g2))
    _emit(args, str(g), {"element": str(g)})
    return 0


def _cmd_elem_inv(args) -> int:
    g = heis.inverse(heis.parse_element(args.g))
    _emit(args, str(g), {"element": str(g)})
    return 0


def _cmd_elem_pow(args) -> int:
    g = heis.power(heis.parse_element(args.g), args.n)
    _emit(args, str(g), {"element": str(g)})
    return 0


def _cmd_elem_comm(args) -> int:
    g = heis.commutator(heis.parse_element(args.g1), heis.parse_element(args.g2))
    _emit(args, str(g), {"element": str(g)})
    return 0


def _cmd_elem_lambda(args) -> int:
    pair = heis.lambda_project(heis.parse_element(args.g))
    _emit(args, str(pair), {"pair": str(pair)})
    return 0


def _cmd_elem_central(args) -> int:
    central = heis.is_central(heis.parse_element(args.g))
    _emit(args, "true" if central else "false", {"central": central})
    return 0


# ---------------------------------------------------------------------------
# aut

def _emit_aut(args, omega: aut.Automorphism) -> int:
    # --apply turns "print the automorphism" into "apply it"
    applied = getattr(args, "apply", None)
    if applied is not None:
        g = aut.apply(omega, heis.parse_element(applied))
        _emit(args, str(g), {"element": str(g)})
    else:
        _emit(args, str(omega), {"automorphism": str(omega)})
    return 0


def _cmd_aut_apply(args) -> int:
    g = aut.apply(aut.parse_automorphism(args.omega), heis.parse_element(args.g))
    _emit(args, str(g), {"element": str(g)})
    return 0


def _cmd_aut_compose(args) -> int:
    omega = aut.compose(
        aut.parse_automorphism(args.omega2), aut.parse_automorphism(args.omega1)
    )
    return _emit_aut(args, omega)


def _cmd_aut_invert(args) -> int:
    return _emit_aut(args, aut.invert(aut.parse_automorphism(args.omega)))


def _cmd_aut_section(args) -> int:
    return _emit_aut(args, aut.section(gl2.parse_matrix(args.matrix)))


def _cmd_aut_project(args) -> int:
    m = aut.project(aut.parse_automorphism(args.omega))
    _emit(args, str(m), {"matrix": str(m)})
    return 0


def _cmd_aut_inner(args) -> int:
    return _emit_aut(args, aut.inner(aut.parse_pair(args.v)))


def _cmd_aut_rd(args) -> int:
    return _emit_aut(args, aut.rd(args.d))


def _cmd_aut_normal_form(args) -> int:
    v, m = aut.normal_form(aut.parse_automorphism(args.omega))
    _emit(args, f"v={v}, M={m}", {"v": str(v), "matrix": str(m)})
    return 0


def _cmd_aut_center_image(args) -> int:
    value = aut.center_image(aut.parse_automorphism(args.omega))
    _emit(args, str(value), {"center_image": value})
    return 0


def _cmd_aut_is_plus(args) -> int:
    plus = aut.is_aut_plus(aut.parse_automorphism(args.omega))
    _emit(args, "true" if plus else "false", {"is_aut_plus": plus})
    return 0


# ---------------------------------------------------------------------------
# gl2

def _cmd_gl2_mul(args) -> int:
    m = gl2.mat_multiply(gl2.parse_matrix(args.m1), gl2.parse_matrix(args.m2))
    _emit(args, str(m), {"matrix": str(m)})
    return 0


def _cmd_gl2_inv(args) -> int:
    m = gl2.mat_inverse(gl2.parse_matrix(args.m))
    _emit(args, str(m), {"matrix": str(m)})
    return 0


def _cmd_gl2_eval_word(args) -> int:
    m = gl2.eval_word(gl2.parse_word(args.word))
    _emit(args, str(m), {"matrix": str(m)})
    return 0


def _cmd_gl2_decompose(args) -> int:
    w = gl2.decompose(gl2.parse_matrix(args.m), args.strategy)
    _emit(args, str(w), {"word": str(w)})
    return 0


def _cmd_gl2_normalize(args) -> int:
    w = gl2.parse_word(args.word)
    _emit(args, str(w), {"word": str(w)})
    return 0


def _cmd_gl2_relations(args) -> int:
    checks = gl2.check_presentation_relations()
    if args.json:
        print(json.dumps(
            {"relations": [
                {"relator": c.name, "ok": c.ok, "product": str(c.product)}
                for c in checks
            ]},
            sort_keys=True,
        ))
    else:
        for c in checks:
            print(f"{'PASS' if c.ok else 'FAIL'} {c.name}")
    return 0 if all(c.ok for c in checks) else 2


# ---------------------------------------------------------------------------
# cocycle

def _cmd_cocycle_check(args) -> int:
    try:
        phi = cocycles.parse_cocycle(args.phi)
    except cocycles.RelatorViolation as exc:
        _emit(args, f"invalid: {exc}", {"valid": False, "reason": str(exc)})
        return 2
    _emit(args, "valid", {"valid": True, "cocycle": str(phi)})
    return 0


def _cmd_cocycle_solve(args) -> int:
    a = cocycles.solve_coboundary(cocycles.parse_cocycle(args.phi))
    _emit(args, f"a={a}", {"a": str(a)})
    return 0


def _cmd_cocycle_coboundary(args) -> int:
    phi = cocycles.coboundary(aut.parse_pair(args.a))
    _emit(args, str(phi), {"cocycle": str(phi)})
    return 0


def _cmd_cocycle_extend(args) -> int:
    value = cocycles.extend(
        cocycles.parse_cocycle(args.phi), gl2.parse_word(args.word)
    )
    _emit(args, str(value), {"value": str(value)})
    return 0


def _cmd_cocycle_lattice(args) -> int:
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


def _cmd_cocycle_twist(args) -> int:
    sigma0 = (cocycles.parse_section(args.section) if args.section
              else cocycles.canonical_section())
    twisted = cocycles.twist(sigma0, cocycles.parse_cocycle(args.phi))
    _emit(args, str(twisted), {"section": str(twisted)})
    return 0


def _cmd_cocycle_diff(args) -> int:
    phi = cocycles.section_difference(
        cocycles.parse_section(args.alpha2), cocycles.parse_section(args.alpha1)
    )
    _emit(args, str(phi), {"cocycle": str(phi)})
    return 0


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    names = list(args.suites) + list(args.suite or [])
    if not names or "all" in names:
        names = list(verify.available_suites())
    report = verify.run(names, samples=args.samples, seed=args.seed)
    if args.json:
        print(json.dumps({
            "seed": report.seed,
            "ok": report.ok,
            "backend": backend_name(),
            "suites": [
                {
                    "suite": r.suite,
                    "samples": r.samples,
                    "ok": r.ok,
                    "elapsed": round(r.elapsed, 6),
                    "failures": [
                        {
                            "sample": f.sample,
                            "inputs": f.inputs,
                            "expected": f.expected,
                            "actual": f.actual,
                        }
                        for f in r.failures
                    ],
                }
                for r in report.results
            ],
        }, sort_keys=True))
    else:
        for r in report.results:
            status = "PASS" if r.ok else "FAIL"
            print(f"{status} {r.suite}: samples={r.samples} "
                  f"seed={r.seed} elapsed={r.elapsed:.3f}s")
            for f in r.failures:
                print(f"  sample {f.sample}: {f.inputs}")
                print(f"    expected: {f.expected}")
                print(f"    actual:   {f.actual}")
    return 0 if report.ok else 2


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    parser = _Parser(
        prog="heis-aut",
        description="Exact arithmetic for the discrete Heisenberg group, "
                    "its automorphism group, and GL(2,Z) generator words.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON object instead of plain text")
    sub = parser.add_subparsers(dest="command", required=True)

    elem = sub.add_parser("elem", help="Heisenberg group elements (a,b,c)")
    elem_sub = elem.add_subparsers(dest="subcommand", required=True)
    p = elem_sub.add_parser("mul", parents=[common], help="product g1*g2")
    p.add_argument("g1")
    p.add_argument("g2")
    p.set_defaults(handler=_cmd_elem_mul)
    p = elem_sub.add_parser("inv", parents=[common], help="inverse")
    p.add_argument("g")
    p.set_defaults(handler=_cmd_elem_inv)
    p = elem_sub.add_parser("pow", parents=[common], help="n-th power")
    p.add_argument("g")
    p.add_argument("n", type=integer)
    p.set_defaults(handler=_cmd_elem_pow)
    p = elem_sub.add_parser("comm", parents=[common],
                            help="commutator g1 g2 g1^-1 g2^-1")
    p.add_argument("g1")
    p.add_argument("g2")
    p.set_defaults(handler=_cmd_elem_comm)
    p = elem_sub.add_parser("lambda", parents=[common],
                            help="abelianization (a,b,c) -> (a,b)")
    p.add_argument("g")
    p.set_defaults(handler=_cmd_elem_lambda)
    p = elem_sub.add_parser("central", parents=[common],
                            help="whether the element is central")
    p.add_argument("g")
    p.set_defaults(handler=_cmd_elem_central)

    aut_p = sub.add_parser("aut", help="automorphisms {M=..., r=..., u=...}")
    aut_sub = aut_p.add_subparsers(dest="subcommand", required=True)
    p = aut_sub.add_parser("apply", parents=[common], help="omega(g)")
    p.add_argument("omega")
    p.add_argument("g")
    p.set_defaults(handler=_cmd_aut_apply)
    p = aut_sub.add_parser("compose", parents=[common],
                           help="omega2 after omega1")
    p.add_argument("omega2")
    p.add_argument("omega1")
    p.add_argument("--apply", metavar="G", help="apply the result to an element")
    p.set_defaults(handler=_cmd_aut_compose)
    p = aut_sub.add_parser("invert", parents=[common], help="omega^-1")
    p.add_argument("omega")
    p.add_argument("--apply", metavar="G")
    p.set_defaults(handler=_cmd_aut_invert)
    p = aut_sub.add_parser("section", parents=[common],
                           help="the section over a matrix")
    p.add_argument("matrix")
    p.add_argument("--strategy", choices=("left", "right"), default="left",
                   help="ignored: the section is computed in closed form; "
                        "the flag is kept for compatibility")
    p.add_argument("--apply", metavar="G")
    p.set_defaults(handler=_cmd_aut_section)
    p = aut_sub.add_parser("project", parents=[common],
                           help="induced matrix on the abelianization")
    p.add_argument("omega")
    p.set_defaults(handler=_cmd_aut_project)
    p = aut_sub.add_parser("inner", parents=[common],
                           help="conjugation by (p,q,0)")
    p.add_argument("v", metavar="(p,q)")
    p.add_argument("--apply", metavar="G")
    p.set_defaults(handler=_cmd_aut_inner)
    p = aut_sub.add_parser("rd", parents=[common],
                           help="the shear automorphism R_d")
    p.add_argument("d", type=integer)
    p.add_argument("--apply", metavar="G")
    p.set_defaults(handler=_cmd_aut_rd)
    p = aut_sub.add_parser("normal-form", parents=[common],
                           help="unique (v, M) with omega = inner(v) o section(M)")
    p.add_argument("omega")
    p.set_defaults(handler=_cmd_aut_normal_form)
    p = aut_sub.add_parser("center-image", parents=[common],
                           help="c-coordinate of omega((0,0,1))")
    p.add_argument("omega")
    p.set_defaults(handler=_cmd_aut_center_image)
    p = aut_sub.add_parser("is-plus", parents=[common],
                           help="whether omega projects into SL(2,Z)")
    p.add_argument("omega")
    p.set_defaults(handler=_cmd_aut_is_plus)

    gl2_p = sub.add_parser("gl2", help="GL(2,Z) matrices and generator words")
    gl2_sub = gl2_p.add_subparsers(dest="subcommand", required=True)
    p = gl2_sub.add_parser("mul", parents=[common], help="matrix product")
    p.add_argument("m1")
    p.add_argument("m2")
    p.set_defaults(handler=_cmd_gl2_mul)
    p = gl2_sub.add_parser("inv", parents=[common], help="matrix inverse")
    p.add_argument("m")
    p.set_defaults(handler=_cmd_gl2_inv)
    p = gl2_sub.add_parser("eval-word", parents=[common],
                           help="evaluate a word like 'A B A D A^-3'")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_gl2_eval_word)
    p = gl2_sub.add_parser("decompose", parents=[common],
                           help="a generator word for the matrix")
    p.add_argument("m")
    p.add_argument("--strategy", choices=("left", "right"), default="left")
    p.set_defaults(handler=_cmd_gl2_decompose)
    p = gl2_sub.add_parser("normalize", parents=[common],
                           help="normalize a word")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_gl2_normalize)
    p = gl2_sub.add_parser("relations", parents=[common],
                           help="check the five defining relators")
    p.set_defaults(handler=_cmd_gl2_relations)

    co = sub.add_parser("cocycle", help="1-cocycles {rho=(p,q), tau=..., kappa=...}")
    co_sub = co.add_subparsers(dest="subcommand", required=True)
    p = co_sub.add_parser("check", parents=[common],
                          help="validate generator values against the relators")
    p.add_argument("phi")
    p.set_defaults(handler=_cmd_cocycle_check)
    p = co_sub.add_parser("solve", parents=[common],
                          help="the unique a with g.a - a = phi(g)")
    p.add_argument("phi")
    p.set_defaults(handler=_cmd_cocycle_solve)
    p = co_sub.add_parser("coboundary", parents=[common],
                          help="the cocycle g -> g.a - a")
    p.add_argument("a", metavar="(p,q)")
    p.set_defaults(handler=_cmd_cocycle_coboundary)
    p = co_sub.add_parser("extend", parents=[common],
                          help="evaluate a cocycle on a word")
    p.add_argument("phi")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_cocycle_extend)
    p = co_sub.add_parser("lattice", parents=[common],
                          help="solution lattice of the relator system")
    p.set_defaults(handler=_cmd_cocycle_lattice)
    p = co_sub.add_parser("twist", parents=[common],
                          help="twist a section by a cocycle")
    p.add_argument("phi")
    p.add_argument("--section", metavar="SECTION",
                   help="base section (default: the canonical one)")
    p.set_defaults(handler=_cmd_cocycle_twist)
    p = co_sub.add_parser("diff", parents=[common],
                          help="cocycle difference alpha2 * alpha1^-1")
    p.add_argument("alpha2")
    p.add_argument("alpha1")
    p.set_defaults(handler=_cmd_cocycle_diff)

    v = sub.add_parser("verify", parents=[common],
                       help="run randomized invariant suites")
    v.add_argument("suites", nargs="*", metavar="SUITE",
                   help="suite names, or 'all' (default: all); available: "
                        + ", ".join(verify.available_suites()))
    v.add_argument("--suite", action="append", metavar="NAME",
                   help="additional suite to run (repeatable)")
    v.add_argument("--samples", type=integer, default=1000)
    v.add_argument("--seed", type=integer, default=0)
    v.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # values are exact at any size, so lift Python's int<->str digit
    # limit (Python 3.10.7 on; 0 means none) for this call only; library
    # callers keep their own setting
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        _drop_stdout()
        return 1
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
