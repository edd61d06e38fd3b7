from extremenu.kernels import BACKEND, rref_sparse


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
