"""The arithmetic kernels used by heis, gl2 and aut.

``heisaut._kernels`` is the only backend.  This module stays as the one
place the value modules import their kernels from, so the kernel layer
can be found (and traced) under a single name.  ``backend_name()`` and
the ``backend`` key of ``heis-aut verify --json`` are kept for the
reports that record them; both always say ``"pure"``.
"""

from . import _kernels as kernels


def backend_name() -> str:
    """Name of the kernel backend: always 'pure'."""
    return "pure"
