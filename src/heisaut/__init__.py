"""Exact arithmetic for the discrete Heisenberg group Heis(3,Z), its
automorphism group (Z+Z) semidirect GL(2,Z), generator words in
GL(2,Z), and the 1-cocycle calculus classifying the sections.

The submodules are the API surface:

    heis      group elements (a,b,c), center, abelianization
    gl2       GL(2,Z) matrices, generator words, decomposition
    aut       automorphisms (M,r,u), section, normal form
    cocycles  1-cocycles, coboundaries, twists, the cocycle lattice
    zlattice  tiny exact integer linear algebra helpers
    verify    seeded randomized invariant suites
    cli       the heis-aut entry point

All arithmetic is integer-exact pure Python; backend_name() always
returns "pure" and is kept for the reports that record it.

``verify`` is imported on first use (``heisaut.verify`` or ``from heisaut
import verify``), so that a heis-aut command that runs no suite does not
load it.
"""

import importlib

from . import aut, cocycles, gl2, heis, zlattice
from ._backend import backend_name
from .aut import Automorphism, InnerVector
from .cocycles import Cocycle, SectionOnGenerators
from .gl2 import GeneratorWord, Gl2Matrix
from .heis import AbPair, HeisElement

__all__ = [
    "AbPair",
    "Automorphism",
    "Cocycle",
    "GeneratorWord",
    "Gl2Matrix",
    "HeisElement",
    "InnerVector",
    "SectionOnGenerators",
    "aut",
    "backend_name",
    "cocycles",
    "gl2",
    "heis",
    "verify",
    "zlattice",
]


def __getattr__(name: str):
    # PEP 562; import_module, not "from . import verify", which would
    # call this hook again while resolving the name and never return
    if name == "verify":
        return importlib.import_module(".verify", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
