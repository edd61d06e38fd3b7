"""Exact sparse integer row reduction.

Rows are dicts mapping column index -> nonzero int. All arithmetic is exact;
rows are kept primitive (content 1) after every update so entries stay small.
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
