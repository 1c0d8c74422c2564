"""Small exact integer linear algebra: kernels and lattice membership.

Everything here works over Z with unimodular column operations only
(swap, negate, add an integer multiple of one column to another), so
the integer row space / solution set is preserved exactly.  The
matrices involved are tiny (the relator system is 10 x 6), so clarity
beats asymptotics; no normal-form library is warranted for this.

The public functions check their input once, at the boundary: a vector
is a Sequence of ints (a bool or any other entry raises TypeError), and
the vectors of one call all have one length (else ValueError), as do
the rows of kernel_basis, which needs at least one.
"""

from __future__ import annotations

from collections.abc import Sequence

from .heis import _check_int, _expect

Vector = tuple[int, ...]


def _check_vector(v: object, name: str, length: int | None) -> None:
    # the boundary check of one integer vector: a Sequence of ints
    # (TypeError, through _check_int for an entry, so a bool fails too)
    # with length entries unless length is None (ValueError)
    _expect(v, Sequence, name)
    if length is not None and len(v) != length:
        raise ValueError(f"{name} has {len(v)} entries, expected {length}")
    for j, e in enumerate(v):
        if type(e) is not int:
            _check_int(e, f"{name}[{j}]")


def _check_vectors(vectors: Sequence[object], name: str,
                   length: int | None = None) -> int | None:
    # _check_vector on each vector, all of one length; returns that
    # length, or the given one when there are no vectors
    for i, v in enumerate(vectors):
        _check_vector(v, f"{name}[{i}]", length)
        length = len(v)
    return length


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
    if not rows:
        raise ValueError("rows must hold at least one row")
    nrows = len(rows)
    ncols = _check_vectors(rows, "rows")
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
    _check_vectors(vectors, "vectors")
    return _column_echelon(vectors)


def _column_echelon(vectors: Sequence[Sequence[int]]) -> list[Vector]:
    # column_echelon on checked vectors
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
    _check_vector(vector, "vector", None)
    _expect(basis, Sequence, "basis")
    _check_vectors(basis, "basis", len(vector))
    return _in_echelon(vector, _column_echelon(basis))


def _in_echelon(vector: Sequence[int], echelon: list[Vector]) -> bool:
    # in_lattice against an echelon basis of the lattice
    target = list(vector)
    for col in echelon:
        # _echelon returns only pivot columns, and the pivot column of row
        # r is zero above r and nonzero at r, so every column has a lead
        lead = next(i for i, e in enumerate(col) if e != 0)
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
    """Mutual membership of two generating sets of vectors of one length."""
    _expect(basis1, Sequence, "basis1")
    _expect(basis2, Sequence, "basis2")
    _check_vectors(basis2, "basis2", _check_vectors(basis1, "basis1"))
    echelon1, echelon2 = _column_echelon(basis1), _column_echelon(basis2)
    return all(_in_echelon(v, echelon2) for v in basis1) and all(
        _in_echelon(v, echelon1) for v in basis2
    )
