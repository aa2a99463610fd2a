"""Exact nullspaces against a plain-Fraction Gauss-Jordan reference, and
the rank screen modulo a prime that the relation search runs before it
hands a stratum to them."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrormap import linalg
from mirrormap.linalg import PRIME, nullspace

_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _matrices(draw):
    """(rows, ncols) of 0-8 rows by 0-8 columns; some columns are rational
    combinations of earlier ones, so that kernels occur."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    cols = []
    for _ in range(ncols):
        if cols and draw(st.booleans()):
            weights = draw(st.lists(_rationals, min_size=len(cols),
                                    max_size=len(cols)))
            cols.append([sum(w * col[i] for w, col in zip(weights, cols))
                         for i in range(nrows)])
        else:
            cols.append(draw(st.lists(_rationals, min_size=nrows,
                                      max_size=nrows)))
    return [[col[i] for col in cols] for i in range(nrows)], ncols


def _reference_basis(rows, ncols):
    """Canonical nullspace basis by Gauss-Jordan reduction in Fractions:
    one vector per free column, that coordinate 1, the other free ones 0."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for r, c in enumerate(pivots):
            x[c] = -m[r][free]
        basis.append(x)
    return basis


def _primitive(vec):
    d = lcm(*(v.denominator for v in vec))
    ints = [int(v * d) for v in vec]
    g = gcd(*ints)
    return [v // g for v in ints]


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_nullspace_matches_fraction_reference(matrix):
    rows, ncols = matrix
    basis = nullspace(rows, ncols)
    assert basis == [_primitive(x) for x in _reference_basis(rows, ncols)]
    for x in basis:
        assert all(type(v) is int for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) == 0 for row in rows)


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_full_rank_mod_prime_implies_exact_full_rank(matrix):
    rows, ncols = matrix
    m = [[int(v * lcm(*(u.denominator for u in row))) for v in row]
         for row in rows]
    if linalg._rank_mod_prime(m, ncols) == ncols:
        assert _reference_basis(rows, ncols) == []


@settings(max_examples=200, deadline=None)
@given(_matrices(), st.integers(min_value=0, max_value=8))
def test_rank_mod_prime_in_blocks(matrix, split):
    # screening a matrix block by block into one echelon basis gives the
    # rank of screening it at once, capped at the column count
    rows, ncols = matrix
    echelon = {}
    first = linalg._rank_mod_prime(rows[:split], ncols, echelon)
    assert first == linalg._rank_mod_prime(rows[:split], ncols)
    assert linalg._rank_mod_prime(rows[split:], ncols, echelon) == \
        linalg._rank_mod_prime(rows, ncols) == \
        ncols - len(_reference_basis(rows, ncols))


@pytest.mark.parametrize("rows, ncols", [
    ([[PRIME]], 1),
    ([[1, 1], [1, PRIME + 1]], 2),
    ([[PRIME, 0], [0, 3 * PRIME]], 2),
    ([[PRIME * 2 ** 700 + 1, 1], [1, 1]], 2),
])
def test_unlucky_prime_falls_through_to_exact(rows, ncols):
    # the rank drops modulo the prime but not over Q: the screen leaves the
    # matrix open, and the exact elimination finds no kernel
    assert linalg._rank_mod_prime(rows, ncols) < ncols
    assert nullspace(rows, ncols) == []


@pytest.mark.parametrize("rows, ncols, basis", [
    ([[1, 2, 3], [2, 4, 6]], 3, [[-2, 1, 0], [-3, 0, 1]]),
    ([[PRIME, 2 * PRIME], [1, 2]], 2, [[-2, 1]]),
    ([[Fraction(1, 2), Fraction(-1, 3)], [3, -2]], 2, [[2, 3]]),
    ([[0, 0, 0]], 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
])
def test_rank_deficient_keeps_canonical_basis(rows, ncols, basis):
    assert nullspace(rows, ncols) == basis
