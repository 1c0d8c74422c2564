"""Traced stand-in for `python -m heisaut.cli ARGS...`, used by the traced cli run.

Runs ``heisaut.cli.main(ARGS)`` under the tracer with the same stdout and
exit code, and writes one JSON line to stderr: the wall-clock time at
which this script started (the parent subtracts its spawn time to get the
interpreter start-up), the time ``import heisaut.cli`` took, and the
tracer's totals for the call.
"""

import time

entered = time.time()

import json  # noqa: E402
import sys  # noqa: E402

start = time.perf_counter()
import heisaut.cli  # noqa: E402

import_s = time.perf_counter() - start

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer().install()
    code, _ = tracer.call(heisaut.cli.main, sys.argv[1:])
    tracer.uninstall()
    sys.stdout.flush()
    if isinstance(code, Exception):
        raise code
    print(json.dumps({"entered": entered, "import_s": import_s,
                      "trace": tracer.snapshot()}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
