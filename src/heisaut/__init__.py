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

``import heisaut`` loads no submodule.  Each name of ``__all__`` is
resolved on first use, through the one table ``_HOMES``: ``heisaut.gl2``
or ``from heisaut import gl2`` imports the gl2 module (and what it
imports), and ``heisaut.Gl2Matrix`` is the class that module holds.  So
a heis-aut command loads only the modules it calls.
"""

import sys

# each public name -> the submodule that holds it; a submodule maps to
# itself
_HOMES = {
    "AbPair": "heis",
    "HeisElement": "heis",
    "GeneratorWord": "gl2",
    "Gl2Matrix": "gl2",
    "Automorphism": "aut",
    "InnerVector": "aut",
    "Cocycle": "cocycles",
    "SectionOnGenerators": "cocycles",
    "backend_name": "_backend",
    "heis": "heis",
    "gl2": "gl2",
    "aut": "aut",
    "cocycles": "cocycles",
    "zlattice": "zlattice",
    "verify": "verify",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # PEP 562: called only for a name not bound here.  __import__, not
    # "from . import", which would call this hook again while resolving
    # the name and never return; importing a submodule binds it here, so
    # the hook runs once per submodule
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    return module if home == name else getattr(module, name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
