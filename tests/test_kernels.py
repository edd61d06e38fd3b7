from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from extremenu.geometry import as_vec, nullspace_basis, rank
from extremenu.kernels import BACKEND, det, nullspace, rref_sparse


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


# -- determinant ---------------------------------------------------------


def det_by_permutations(rows):
    """Leibniz formula: the sum over permutations, signed by inversion count."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for i, c in enumerate(perm):
            term *= rows[i][c]
        total += term
    return total


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n >= 2:  # a zero row, a repeated row, or a multiple of another row
        i, j = draw(st.permutations(range(n)))[:2]
        kind = draw(st.sampled_from(["none", "zero", "repeat", "multiple"]))
        if kind == "zero":
            rows[j] = [0] * n
        elif kind == "repeat":
            rows[j] = list(rows[i])
        elif kind == "multiple":
            rows[j] = [-3 * v for v in rows[i]]
    return rows


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_det_matches_leibniz_and_rank(rows):
    before = [list(r) for r in rows]
    value = det(rows)
    assert rows == before  # input not mutated
    assert value == det_by_permutations(rows)
    assert (value != 0) == (rank(rows) == len(rows))


def test_det_swaps_rows_on_a_zero_pivot():
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 2, 1], [0, 1, 3], [4, 0, 0]]) == 20
    assert det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0  # no pivot in column 0
    assert det([]) == 1
