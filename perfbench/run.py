"""The heisaut benchmark: one seeded workload, its metrics, and a correctness verdict.

    python3 perfbench/run.py --workload verify|bigint|cli --seed N --seconds T --trace 0|1

Run from the root of a checkout.  heisaut is pure Python and is imported
from ``src``, so nothing is built.  The run

1. runs the workload in a child process (perfbench/worker.py) for T
   seconds, checking every output;
2. times ``import heisaut`` in SETUP_REPEATS fresh interpreters, half
   before and half after the workload (setup_s is the median); like the
   workload's latencies, the times are rescaled by a gauge of the machine's
   speed (perfbench/reference.py);
3. prints a readable summary, one JSON line of provenance and details,
   and as its last line the result object
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from the traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify", "bigint", "cli")
SETUP_REPEATS = 20
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import heisaut; "
    "print(time.perf_counter() - t)"
)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _run_child(cmd: list[str], timeout: float) -> str:
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {cmd[1]} exited with {proc.returncode}")
    return proc.stdout


def time_imports(repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of `import heisaut`, each in a fresh interpreter: raw, and
    rescaled by the median of the reference processes run between them."""
    cmd = [sys.executable, "-c", _IMPORT_TIMER]
    gauge = reference.CHILD_PROCESS
    raw, gauges = [], [gauge.measure()]
    for _ in range(repeats):
        raw.append(float(_run_child(cmd, 60)))
        gauges.append(gauge.measure())
    factor = gauge.scale(gauges)
    return raw, [t * factor for t in raw]


def git_sha() -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "heisaut" / "__init__.py").is_file():
        print(f"perfbench: no heisaut package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    if not args.trace:
        # the first import writes __pycache__, which users do not pay per run;
        # half the timed imports run after the workload, so that one slow
        # spell of a shared machine does not set the median alone
        time_imports(1)
        setup_raw, setup_times = time_imports(SETUP_REPEATS // 2)
    out = _run_child(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        CHILD_TIMEOUT_S)
    w = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        raw, scaled = time_imports(SETUP_REPEATS - SETUP_REPEATS // 2)
        setup_raw += raw
        setup_times += scaled

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": w["backend"],
        "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": os.cpu_count(), "operations": w["operations"],
        "unit": w["unit"], "attempted": w["attempted"], "failed": w["failed"],
        "per_kind": w["per_kind"],
    }
    detail = {
        "error_rate": {"value": w["failed"] / w["attempted"],
                       "failed": w["failed"], "attempted": w["attempted"],
                       "errors": w["errors"]},
        "latency_tail": {"percentile": w["tail_percentile"],
                         "samples": w["latency_samples"]},
        "busy_s": w["busy_s"],
        "gauge": w["gauge"],
    }
    if "defect_probe" in w:
        detail["defect_probe"] = w["defect_probe"]
    if args.trace:
        metrics = {k: {"value": v, "unit": _per_layer_unit(k)}
                   for k, v in w["trace"]["metrics"].items()}
        provenance["trace.overhead"] = w["trace"]["metrics"]["trace.overhead"]
        detail["trace_mismatches"] = w["trace"]["mismatches"]
    else:
        values = {k: w[k] for k in END_TO_END_UNITS if k != "setup_s"}
        values["setup_s"] = statistics.median(setup_times)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
        detail["setup_s"] = {"median_of": SETUP_REPEATS, "values": setup_times,
                             "raw_values": setup_raw}
        detail["raw"] = dict(w["raw"], setup_s=statistics.median(setup_raw))

    print(f"workload={args.workload} seed={args.seed} backend={w['backend']} "
          f"python={provenance['python']} nproc={provenance['nproc']} "
          f"git={provenance['git_sha'] or 'unknown'}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':32s} {detail['error_rate']['value']:.6g} "
          f"({w['failed']} of {w['attempted']} {w['unit']})")
    if not args.trace:
        print(f"  latency_tail_ms is p{w['tail_percentile']} of "
              f"{w['latency_samples']} operations")
        gauge = w["gauge"]
        if gauge["runs"]:
            print(f"  latencies are at the speed gauge's nominal "
                  f"{gauge['nominal_s'] * 1e3:g} ms; it took a median "
                  f"{gauge['median_s'] * 1e3:.4g} ms over {gauge['runs']} runs")
    if "defect_probe" in w:
        probe = w["defect_probe"]
        print(f"  known defect: {sum(probe['raised'].values())} of {probe['calls']} "
              f"untimed extend calls over l^(2^k) raised {probe['raised'] or 'nothing'}")
    print(json.dumps({"provenance": provenance, "detail": detail}))
    print(json.dumps({"correct": w["wrong"] == 0, "attempted": w["attempted"],
                      "failed": w["failed"], "metrics": metrics}))
    return 0


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("operand_bits"):
        return "bit"
    if name.endswith("share") or name.endswith("overhead"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
