"""Exact sparse integer row reduction, nullspace bases and determinants.

Rows are dicts mapping column index -> nonzero int. All arithmetic is exact
and integer-only; rows are kept primitive (content 1) after every update so
entries stay small, in the spirit of fraction-free (Bareiss) elimination.
"""

from math import gcd

BACKEND = "python"  # the only implementation; named in benchmark environment records


def _normalize(row):
    """Divide a sparse row by the gcd of its entries. Mutates and returns row."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def rref_sparse(rows, ncols):
    """Reduced row echelon form of a sparse integer matrix.

    rows: iterable of dicts {col: int, value != 0}. Input rows are not mutated.
    Returns (pivots, reduced): pivot columns in ascending order and one primitive
    integer row per pivot, fully reduced (each pivot column appears in exactly
    one row, with positive pivot entry). Deterministic: pivot row per column is
    the sparsest candidate, ties broken by insertion order.
    """
    work = []
    for r in rows:
        nr = _normalize({c: v for c, v in r.items() if v != 0})
        if nr:
            work.append(nr)
    reduced = []
    pivots = []
    for col in range(ncols):
        best = -1
        best_len = -1
        for i in range(len(work)):
            row = work[i]
            if col in row:
                n = len(row)
                if best < 0 or n < best_len:
                    best = i
                    best_len = n
        if best < 0:
            continue
        prow = work.pop(best)
        p = prow[col]
        if p < 0:
            prow = {c: -v for c, v in prow.items()}
            p = -p
        others = []
        for row in work:
            if col in row:
                others.append(_eliminate(row, prow, col, p))
            else:
                others.append(row)
        work = [r for r in others if r]
        for i in range(len(reduced)):
            row = reduced[i]
            if col in row:
                reduced[i] = _eliminate(row, prow, col, p)
        reduced.append(prow)
        pivots.append(col)
    return pivots, reduced


def det(rows):
    """Determinant of a square integer matrix by Bareiss elimination: step k
    leaves (k+1)-minors, so dividing by the previous pivot is exact (Bareiss
    1968). A zero pivot swaps in a lower row; with none the determinant is 0."""
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        p, tail = m[k][k], m[k][k + 1:]
        for row in m[k + 1:]:
            f = row[k]
            row[k + 1:] = [(v * p - f * w) // prev for v, w in zip(row[k + 1:], tail)]
        prev = p
    return sign * m[-1][-1] if m else 1


def nullspace(rows, ncols):
    """Basis of {x : r . x = 0 for every row r}, as primitive integer tuples.

    rows: sparse integer rows as for rref_sparse. Deterministic: one vector per
    free column in ascending order, positive in its free coordinate, and
    otherwise zero on the other free columns; with no rows every column is
    free and the basis is the unit vectors.
    """
    pivots, reduced = rref_sparse(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        # x[f] = s, x[pc] = -row[f] * s / row[pc]; s clears the pivot entries
        hits = [(pc, row) for pc, row in zip(pivots, reduced) if f in row]
        s = 1
        for pc, row in hits:
            s = s * row[pc] // gcd(s, row[pc])
        x = _normalize({f: s, **{pc: -row[f] * (s // row[pc]) for pc, row in hits}})
        basis.append(tuple(x.get(c, 0) for c in range(ncols)))
    return basis


def _eliminate(row, prow, col, p):
    """Return primitive p*row - row[col]*prow (cancels column col)."""
    f = row[col]
    out = {}
    for c, v in row.items():
        if c != col:
            out[c] = p * v
    for c, v in prow.items():
        if c == col:
            continue
        nv = out.get(c, 0) - f * v
        if nv:
            out[c] = nv
        elif c in out:
            del out[c]
    return _normalize(out)
