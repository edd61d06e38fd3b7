from hypothesis import given, settings
from hypothesis import strategies as st

from extremenu.geometry import as_vec, nullspace_basis
from extremenu.kernels import BACKEND, nullspace, rref_sparse


def to_sparse(rows):
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def test_identity_rref():
    pivots, reduced = rref_sparse(to_sparse([[1, 0], [0, 1]]), 2)
    assert pivots == [0, 1]
    assert reduced == [{0: 1}, {1: 1}]


def test_dependent_rows():
    pivots, reduced = rref_sparse(to_sparse([[1, 1], [2, 2]]), 2)
    assert pivots == [0]
    assert reduced == [{0: 1, 1: 1}]


def test_rows_kept_primitive_and_pivot_positive():
    pivots, reduced = rref_sparse(to_sparse([[-4, 8, 0], [0, 6, 9]]), 3)
    assert pivots == [0, 1]
    for pc, row in zip(pivots, reduced):
        assert row[pc] > 0
        from math import gcd
        g = 0
        for v in row.values():
            g = gcd(g, v)
        assert g == 1


def test_backend_is_reported():
    assert BACKEND == "python"


def test_nullspace_without_rows_is_the_unit_basis():
    assert nullspace([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_nullspace_vectors_are_primitive_and_positive_in_free_column():
    basis = nullspace(to_sparse([[2, 3, 0, 4]]), 4)
    assert basis == [(-3, 2, 0, 0), (0, 0, 1, 0), (-2, 0, 0, 1)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=5)))
def test_nullspace_matches_dense_basis(matrix):
    n = len(matrix[0])
    basis = nullspace(to_sparse(matrix), n)
    assert [as_vec(v) for v in basis] == nullspace_basis(matrix)
    assert len(basis) + len(rref_sparse(to_sparse(matrix), n)[0]) == n
    for v in basis:
        for row in matrix:
            assert sum(a * b for a, b in zip(row, v)) == 0
