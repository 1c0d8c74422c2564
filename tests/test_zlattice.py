import pytest
from hypothesis import given
from hypothesis import strategies as st

from heisaut.zlattice import (
    column_echelon,
    in_lattice,
    kernel_basis,
    lattices_equal,
)

small_ints = st.integers(min_value=-50, max_value=50)


def dot(row, vec):
    return sum(r * v for r, v in zip(row, vec))


class TestKernelBasis:
    def test_zero_map_has_full_kernel(self):
        basis = kernel_basis([(0, 0, 0)])
        assert len(basis) == 3
        assert lattices_equal(basis, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_sum_constraint(self):
        basis = kernel_basis([(1, 1, 1)])
        assert len(basis) == 2
        assert all(sum(v) == 0 for v in basis)
        assert in_lattice((1, -1, 0), basis)
        assert in_lattice((0, 1, -1), basis)
        assert not in_lattice((1, 0, 0), basis)

    def test_injective_map_has_trivial_kernel(self):
        assert kernel_basis([(1, 0), (0, 1)]) == []
        assert kernel_basis([(2, 1), (1, 1)]) == []

    def test_scaled_constraint_keeps_integrality(self):
        # kernel of (2, 4) over the integers is generated by (2, -1)
        basis = kernel_basis([(2, 4)])
        assert lattices_equal(basis, [(2, -1)])
        assert not in_lattice((1, 0), basis)

    @given(st.lists(st.tuples(small_ints, small_ints, small_ints),
                    min_size=1, max_size=4))
    def test_basis_vectors_satisfy_rows(self, rows):
        for vec in kernel_basis(rows):
            assert all(dot(row, vec) == 0 for row in rows)

    @given(st.lists(st.tuples(small_ints, small_ints, small_ints),
                    min_size=1, max_size=3),
           small_ints, small_ints, small_ints)
    def test_membership_detects_kernel_vectors(self, rows, x, y, z):
        vec = (x, y, z)
        basis = kernel_basis(rows)
        if all(dot(row, vec) == 0 for row in rows):
            assert in_lattice(vec, basis)
        elif basis:
            assert not in_lattice(vec, basis)


class TestEchelonAndMembership:
    def test_echelon_fixed(self):
        assert column_echelon([(2, 0), (3, 0)]) == [(1, 0)]
        assert column_echelon([(0, 0), (0, 0)]) == []

    def test_zero_vector_always_member(self):
        assert in_lattice((0, 0), [])
        assert in_lattice((0, 0, 0), [(1, 2, 3)])

    def test_divisibility(self):
        basis = [(2, 0), (0, 3)]
        assert in_lattice((4, -3), basis)
        assert not in_lattice((1, 0), basis)
        assert not in_lattice((0, 1), basis)

    @given(st.lists(st.tuples(small_ints, small_ints), min_size=1,
                    max_size=3),
           small_ints, small_ints)
    def test_closed_under_combinations(self, gens, c1, c2):
        picked = (gens * 2)[:2]
        vec = tuple(c1 * a + c2 * b for a, b in zip(*picked))
        assert in_lattice(vec, gens)

    @given(st.lists(st.tuples(small_ints, small_ints, small_ints),
                    min_size=1, max_size=4))
    def test_echelon_spans_same_lattice(self, gens):
        assert lattices_equal(gens, column_echelon(gens))


class TestLatticesEqual:
    def test_fixed(self):
        assert lattices_equal([(1, 0), (0, 1)], [(1, 1), (0, 1)])
        assert not lattices_equal([(2, 0), (0, 1)], [(1, 0), (0, 1)])
        assert lattices_equal([], [(0, 0)])

    @given(st.lists(st.tuples(small_ints, small_ints), max_size=3))
    def test_reflexive_and_shuffle_invariant(self, gens):
        assert lattices_equal(gens, gens)
        assert lattices_equal(gens, list(reversed(gens)))


class TestBoundary:
    """Bad input raises at the boundary, naming what is wrong, instead of
    a float result or an IndexError from inside the reduction."""

    @pytest.mark.parametrize("fn, args, name", [
        pytest.param(kernel_basis, ([[1, 1.5]],), r"rows\[0\]\[1\]", id="float"),
        pytest.param(kernel_basis, ([[1, 2], [True, 0]],), r"rows\[1\]\[0\]",
                     id="bool"),
        pytest.param(kernel_basis, ([5],), r"rows\[0\]", id="row-not-sequence"),
        pytest.param(column_echelon, ([(1, 2), (3, "4")],), r"vectors\[1\]\[1\]",
                     id="echelon-str"),
        pytest.param(in_lattice, ((1, 2.0), [(1, 2)]), r"vector\[1\]",
                     id="vector-float"),
        pytest.param(in_lattice, ((1, 2), [(False, 1)]), r"basis\[0\]\[0\]",
                     id="basis-bool"),
        pytest.param(lattices_equal, ([(1, 2)], [(1, None)]), r"basis2\[0\]\[1\]",
                     id="basis2-none"),
    ])
    def test_non_int_entry_raises_type_error(self, fn, args, name):
        with pytest.raises(TypeError, match=f"^{name} must be "):
            fn(*args)

    def test_no_rows_raises_value_error(self):
        with pytest.raises(ValueError, match="at least one row"):
            kernel_basis([])

    @pytest.mark.parametrize("fn, args, name", [
        pytest.param(kernel_basis, ([[1, 2], [3]],), r"rows\[1\]", id="rows"),
        pytest.param(column_echelon, ([(1, 2), (3,)],), r"vectors\[1\]",
                     id="vectors"),
        pytest.param(in_lattice, ((1, 2), [(1,)]), r"basis\[0\]", id="basis-short"),
        pytest.param(in_lattice, ((1, 2), [(1, 0), (0, 1, 0)]), r"basis\[1\]",
                     id="basis-long"),
        pytest.param(lattices_equal, ([(1, 2)], [(1,)]), r"basis2\[0\]",
                     id="basis2"),
        pytest.param(lattices_equal, ([(1, 2), (1,)], []), r"basis1\[1\]",
                     id="basis1"),
    ])
    def test_unequal_lengths_raise_value_error(self, fn, args, name):
        with pytest.raises(ValueError, match=f"^{name} has "):
            fn(*args)

    def test_valid_edge_cases_still_answer(self):
        # an empty basis is the zero lattice; a row with no columns has
        # the trivial kernel
        assert not in_lattice((0, 1), [])
        assert kernel_basis([[]]) == []
        assert lattices_equal([], [])
