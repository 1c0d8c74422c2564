"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

Checks that
* traced and untraced runs of each workload give identical outputs on one
  seed, and the traced outputs pass the workload's own checks;
* calls made through names bound by ``from ... import`` and through
  dataclass ``__post_init__`` are counted;
* for a fixed matrix, ``aut.section`` makes exactly ``len(decompose(M))``
  calls to ``aut.compose``;
* layer self times plus the unattributed remainder add up to the traced
  wall time;
* uninstalling restores every patched name.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from heisaut import aut, cocycles, gl2, verify  # noqa: E402
from heisaut.aut import InnerVector  # noqa: E402

import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 0
FAILURES: list[str] = []


def check(name: str, ok: bool, detail: object = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if not ok and detail != "" else ""))
    if not ok:
        FAILURES.append(name)


def traced_equals_untraced() -> None:
    cli_cycle = len(worker._cli_cases(worker.random.Random(0))) + 1
    for name, ops in (("verify", 2), ("bigint", 2 * len(worker.BIGINT_CYCLE)),
                      ("cli", cli_cycle)):
        tracer = Tracer().install()
        traced = worker.run_loop(worker._build(name, SEED, tracer), 0, tracer.call,
                                 limit=ops, digests=True)
        tracer.uninstall()
        plain = worker.run_loop(worker._build(name, SEED), 0, worker._plain_call,
                                limit=ops, digests=True)
        check(f"{name}: traced and untraced outputs are identical over {ops} operations",
              [r[6] for r in traced] == [r[6] for r in plain])
        wrong = sum(r[4] for r in traced)
        check(f"{name}: traced outputs pass the workload checks", wrong == 0, wrong)


def aliases_and_post_init() -> None:
    original_compose = aut.compose
    tracer = Tracer().install()
    check("alias cocycles.compose is the wrapped aut.compose",
          cocycles.compose is aut.compose and aut.compose is not original_compose)

    phi, _ = tracer.call(cocycles.coboundary, InnerVector(3, -2))
    calls, validations = tracer.key_calls["aut.act"], tracer.validations
    revalidations, aut_values = tracer.revalidations, tracer.values["aut"]
    tracer.reset()
    tracer.call(lambda v: cocycles.Cocycle(*v), (phi.v_rho, phi.v_tau, phi.v_kappa))
    # coboundary makes three act calls of its own, the rest are its validation's
    check("cocycles.coboundary: three aut.act calls through the imported alias",
          calls - tracer.key_calls["aut.act"] == 3, (calls, tracer.key_calls["aut.act"]))
    check("cocycles.coboundary: one Cocycle validation counted via __post_init__",
          validations == 1 and tracer.validations == 1, validations)
    check("a validation inside a library call counts as a revalidation, "
          "one made by the caller does not",
          revalidations == 1 and tracer.revalidations == 0,
          (revalidations, tracer.revalidations))
    check("InnerVector.__post_init__ counted in aut.values",
          aut_values >= 4, aut_values)

    tracer.reset()
    tracer.call(lambda _: cocycles.cocycle_lattice(), None)
    check("cocycles.kernel_basis alias counted as a zlattice call",
          tracer.key_calls["zlattice.kernel_basis"] == 1,
          tracer.key_calls["zlattice.kernel_basis"])

    tracer.reset()
    m = gl2.Gl2Matrix(2017, 1117, 567, 314)
    letters = len(gl2.decompose(m))
    tracer.call(aut.section, m)
    check(f"aut.section on {m}: {letters} aut.compose calls, one per letter",
          tracer.key_calls["aut.compose"] == letters, tracer.key_calls["aut.compose"])
    check("aut.section: one decompose call and its letters counted",
          tracer.key_calls["gl2.decompose"] == 1 and tracer.letters == letters,
          (tracer.key_calls["gl2.decompose"], tracer.letters))

    tracer.reset()
    tracer.call(lambda _: verify.run(samples=2, seed=SEED), None)
    metrics = tracer.metrics(verify.available_suites())
    layers = sum(v for k, v in metrics.items()
                 if k.endswith(".self_s") and k.count(".") == 1)
    check("layer self times plus unattributed add up to the traced wall time",
          abs(layers + metrics["trace.unattributed_s"] - metrics["trace.wall_s"]) < 1e-9,
          (layers, metrics["trace.unattributed_s"], metrics["trace.wall_s"]))
    check("every verify suite has a timed span",
          all(metrics[f"verify.{s}.s"] > 0 for s in verify.available_suites()))

    tracer.uninstall()
    check("uninstall restores the original functions",
          aut.compose is original_compose and cocycles.compose is original_compose)


def main() -> int:
    traced_equals_untraced()
    aliases_and_post_init()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
