"""Exact linear algebra: integer nullspaces by fraction-free elimination."""

from __future__ import annotations

from math import gcd
from operator import mul

from .series import _integer_window


def nullspace(rows, ncols=None):
    """Basis of the exact nullspace of the rational row matrix.

    Each row is scaled to integers and brought to echelon form by
    fraction-free (Bareiss) elimination; back substitution stays in the
    integers. There is one basis vector per free column: it is primitive,
    its own free coordinate is positive and the other free coordinates are
    zero. With no rows every vector of the ``ncols``-dimensional space is
    in the nullspace.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    m = [_integer_window(row)[0] for row in rows]
    pivots = []  # (column, echelon row)
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, len(m)):
            row = m[i]
            if any(row):
                a = row[c]
                # Sylvester's identity makes the division exact
                m[i] = [(u * p - a * v) // prev for u, v in zip(row, top)]
        prev = p
        pivots.append((c, top))
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        x = [0] * ncols
        x[free] = 1
        for c, row in reversed(pivots):
            # row is zero left of c, and x is still zero at c and at every
            # pivot left of it: solve row . x = 0 for x[c] after scaling x
            # by the least factor that keeps it integral, which also keeps
            # it primitive
            acc = sum(map(mul, row, x))
            g = gcd(acc, row[c])
            scale = abs(row[c]) // g
            x = [v * scale for v in x]
            x[c] = -acc // g if row[c] > 0 else acc // g
        basis.append(x)
    return basis
