"""Exact linear algebra: integer nullspaces by fraction-free elimination,
and the rank screen modulo a prime with which the relation search decides
its full-rank strata."""

from __future__ import annotations

from math import gcd
from operator import mul

from .series import _integer_window

#: The modulus of the rank screen, the Mersenne prime 2^61 - 1.
PRIME = (1 << 61) - 1


def _rank_mod_prime(rows, ncols, echelon=None):
    """The rank modulo PRIME of the rational rows, counted up to ``ncols``.

    Each row is scaled to integers and reduced against an echelon basis
    whose pivots are 1; each pivot row is stored reduced from its pivot
    column on, and the scan stops as soon as the rank is full. A row being
    reduced is only reduced modulo PRIME where it is read: its entries
    grow by less than PRIME^2 per step. ``echelon`` (column -> pivot row)
    holds the basis of rows screened before, which these rows extend in
    place, so a matrix can be screened block by block.
    """
    pivots = {} if echelon is None else echelon
    for row in rows:
        row = [v % PRIME for v in _integer_window(row)[0]]
        c = 0
        while True:
            k = next((j for j, v in enumerate(row) if v % PRIME), None)
            if k is None:
                break
            c += k
            row = row[k:]
            f = row[0] % PRIME
            top = pivots.get(c)
            if top is None:
                inv = pow(f, -1, PRIME)
                pivots[c] = [v * inv % PRIME for v in row]
                if len(pivots) == ncols:
                    return ncols
                break
            row = [a - f * b for a, b in zip(row, top)]
    return len(pivots)


def nullspace(rows, ncols):
    """Basis of the exact nullspace of the rational row matrix.

    Each row is scaled to integers, the matrix is brought to echelon form
    by fraction-free (Bareiss) elimination, and back substitution stays in
    the integers. No rank screen runs here: a caller with many rows and a
    likely full rank, as the relation search, screens with
    ``_rank_mod_prime`` first and hands on only what the screen left open.
    There is one basis vector per free column: it is primitive, its own
    free coordinate is positive and the other free coordinates are zero.
    With no rows every vector of the ``ncols``-dimensional space is in the
    nullspace.
    """
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
