"""Run verify with every unchecked build checked.

    python3 tools/checked_verify.py [--samples N] [--seed S]

Applies the wrap of tests/checked_of.py, so that each value the library
builds with _of is also checked as its constructor would check it, and
then runs every verify suite (1000 samples, seed 0 unless given) as
`heis-aut verify all` does, with its report and exit status: an invalid
build fails its sample with the constructor's own error.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]

from checked_of import check_every_of  # noqa: E402
from heisaut import cli  # noqa: E402

if __name__ == "__main__":
    check_every_of()
    sys.exit(cli.main(["verify", "all", "--samples", "1000", *sys.argv[1:]]))
