"""Small exact integer linear algebra: kernels and lattice membership.

Everything here works over Z with unimodular column operations only
(swap, negate, add an integer multiple of one column to another), so
the integer row space / solution set is preserved exactly.  The
matrices involved are tiny (the relator system is 10 x 6), so clarity
beats asymptotics; no normal-form library is warranted for this.
"""

from __future__ import annotations

from collections.abc import Sequence

from .heis import _expect

Vector = tuple[int, ...]


def _echelon(cols: list[list[int]], nrows: int) -> tuple[list[int], list[int]]:
    """Column-reduce the first nrows entries of cols in place.

    Returns (pivots, zero): the indices of the nonzero reduced columns,
    whose leading indices strictly increase in that order, and of the
    columns that became zero on those rows.
    """
    active = list(range(len(cols)))
    pivots: list[int] = []
    for row in range(nrows):
        # gcd-eliminate within the active columns until at most one has
        # a nonzero entry at `row`; pivot-by-smallest-absolute-value
        while True:
            live = [j for j in active if cols[j][row] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda j: abs(cols[j][row]))
            piv = live[0]
            for j in live[1:]:
                q = cols[j][row] // cols[piv][row]
                if q:
                    for i in range(len(cols[j])):
                        cols[j][i] -= q * cols[piv][i]
            # exact multiples vanish in one pass; otherwise entries
            # shrank, so the loop terminates by descent on min |entry|
        if live:
            active.remove(live[0])
            pivots.append(live[0])
    return pivots, active


def kernel_basis(rows: Sequence[Sequence[int]]) -> list[Vector]:
    """Basis of the integer solutions x of A x = 0 for the given rows.

    Column-reduces A with unimodular operations mirrored on an identity
    matrix U; columns of U over zero columns of the reduced A are a
    basis of the full kernel lattice (every integer solution is an
    integer combination of them, because U is invertible over Z and the
    nonzero reduced columns are echelon, hence independent).

    >>> kernel_basis([[1, 1, 0], [0, 0, 0]])
    [(-1, 1, 0), (0, 0, 1)]
    """
    _expect(rows, Sequence, "rows")
    nrows = len(rows)
    ncols = len(rows[0])
    cols: list[list[int]] = [
        [rows[i][j] for i in range(nrows)] + [int(i == j) for i in range(ncols)]
        for j in range(ncols)
    ]
    _, zero = _echelon(cols, nrows)
    # the zero columns have zero image; their U-parts are the kernel
    return [tuple(cols[j][nrows:]) for j in zero]


def column_echelon(vectors: Sequence[Sequence[int]]) -> list[Vector]:
    """An echelon basis (strictly increasing leading indices) of the
    lattice generated by the given vectors.  Column operations only, so
    the lattice is unchanged."""
    _expect(vectors, Sequence, "vectors")
    if not vectors:
        return []
    cols = [list(v) for v in vectors]
    pivots, _ = _echelon(cols, len(cols[0]))
    return [tuple(cols[j]) for j in pivots]


def in_lattice(vector: Sequence[int], basis: Sequence[Sequence[int]]) -> bool:
    """Whether the vector is an integer combination of the basis vectors.

    >>> in_lattice((2, 4), [(1, 2)])
    True
    >>> in_lattice((1, 1), [(0, 2), (1, 0)])
    False
    """
    _expect(vector, Sequence, "vector")
    _expect(basis, Sequence, "basis")
    target = list(vector)
    for col in column_echelon(basis):
        lead = next((i for i, e in enumerate(col) if e != 0), None)
        if lead is None:
            continue
        q, rem = divmod(target[lead], col[lead])
        if rem != 0:
            # leading indices strictly increase, so no later column can
            # fix this coordinate
            return False
        if q:
            for i in range(len(target)):
                target[i] -= q * col[i]
    return not any(target)


def lattices_equal(
    basis1: Sequence[Sequence[int]], basis2: Sequence[Sequence[int]]
) -> bool:
    """Mutual membership of two generating sets."""
    _expect(basis1, Sequence, "basis1")
    _expect(basis2, Sequence, "basis2")
    return all(in_lattice(v, basis2) for v in basis1) and all(
        in_lattice(v, basis1) for v in basis2
    )
