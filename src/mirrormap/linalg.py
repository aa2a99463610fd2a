"""Exact linear algebra: fraction-free echelon form and nullspaces."""

from __future__ import annotations

from .series import Q, ZERO, _integer_window, rat


def _to_int_rows(rows):
    return [_integer_window(row)[0] for row in rows]


def row_echelon(rows):
    """Fraction-free (Bareiss) row echelon form over the integers.

    Returns (echelon_rows, pivot_cols); input rows are rationals.
    """
    m = _to_int_rows(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    piv_cols = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if all(x == 0 for x in m[i]):
                continue
            mic = m[i][c]
            mrc = m[r][c]
            for j in range(ncols):
                m[i][j] = (m[i][j] * mrc - mic * m[r][j]) // prev
        prev = m[r][c]
        piv_cols.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], piv_cols


def nullspace(rows, ncols=None):
    """Basis of the exact rational nullspace of the row matrix.

    Each basis vector has one free coordinate set to 1 (back substitution
    through the fraction-free echelon form). With no rows every vector of
    the ``ncols``-dimensional space is in the nullspace.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    ech, piv_cols = row_echelon(rows)
    piv_set = set(piv_cols)
    free_cols = [c for c in range(ncols) if c not in piv_set]
    basis = []
    for fc in free_cols:
        x = [ZERO] * ncols
        x[fc] = Q(1)
        for i in range(len(piv_cols) - 1, -1, -1):
            p = piv_cols[i]
            acc = ZERO
            for j in range(p + 1, ncols):
                if ech[i][j] != 0 and x[j] != 0:
                    acc += rat(ech[i][j]) * x[j]
            x[p] = -acc / ech[i][p]
        basis.append(x)
    return basis
