"""The arithmetic kernels used by gl2 and aut.

``heisaut._kernels`` is the only backend: it holds the plain-int
formulas that have more than one caller, which is now only the matrix
product ``mat_mul``.  This module stays as the one
place the value modules import them from, because perfbench's tracer
reads the kernel layer as ``heisaut._backend.kernels``; it goes once
the tracer reads that layer elsewhere.  ``backend_name()`` and the
``backend`` key of ``heis-aut verify --json`` are kept for the reports
that record them; both always say ``"pure"``.
"""

from . import _kernels as kernels


def backend_name() -> str:
    """Name of the kernel backend: always 'pure'."""
    return "pure"
