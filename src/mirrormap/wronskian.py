"""Wronskian formalism: determinants, the R[t] operator, the Schwarzian."""

from __future__ import annotations

from itertools import combinations
from math import comb

from .linalg import nullspace
from .series import LogSeries, PowerSeries, Q, TruncationError, ladder, rat


class IndeterminateWronskian(Exception):
    """The determinant vanishes to the working order but no exact linear
    dependence certifies it; raise the order instead of trusting zero."""


def _as_log(f):
    return f if isinstance(f, LogSeries) else LogSeries.from_power(f)


def _det(matrix):
    """Cofactor expansion; entries support +, -, * (LogSeries etc.)."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * _det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def coefficient_rows(fs):
    """One row per exponent and log part of the series' common known
    window, holding that coefficient of each series in turn."""
    fs = [_as_log(f) for f in fs]
    deg = max(f.log_degree for f in fs)
    order = min(f.order for f in fs)
    val = min(min(p.val for p in f.parts) for f in fs)
    # rows past every stored coefficient are zero and constrain nothing;
    # this bound also keeps exact (order-less) inputs finite
    end = max((p.val + len(p.coeffs) for f in fs for p in f.parts
               if p.coeffs), default=val)
    rows = []
    for n in range(val, min(order, end)):
        for j in range(deg + 1):
            rows.append([f.part(j).coeff(n) for f in fs])
    return rows


def coefficient_dependence(fs):
    """Exact dependence among the series over their known window: the
    primitive integer nullspace basis of their coefficient rows (empty
    list = independent to the order)."""
    return nullspace(coefficient_rows(fs), len(fs))


def wronskian(fs, decide=True):
    """W(f_0,...,f_{m-1}) = det(d^k f_j / dz^k).

    If the determinant is zero to the working order, an exact dependence
    check decides whether that is structural; otherwise
    IndeterminateWronskian is raised (truncation must never masquerade as
    a theorem).
    """
    fs = [_as_log(f) for f in fs]
    towers = [ladder(f, len(fs) - 1, LogSeries.deriv) for f in fs]
    w = _det(list(zip(*towers)))
    if decide and w.is_zero():
        if not coefficient_dependence(fs):
            raise IndeterminateWronskian(
                f"zero to order {w.order} without an exact dependence")
    return w


def schwarzian(f: PowerSeries) -> PowerSeries:
    """{f, t} = f'''/f' - (3/2)(f''/f')^2 with ' = delta_q (t = log q)."""
    f1, f2, f3 = ladder(f.euler(), 2)
    inv = f1.inverse()
    r = f2 * inv
    return f3 * inv - Q(3, 2) * (r * r)


def chain_ring(chains):
    """The symbols and quasi-weights of a differential-polynomial ring given
    as chains (base, base weight, length): base, base', base'', ... in ASCII
    primes, each one weight heavier than the last."""
    symbols, weights = [], []
    for base, weight, length in chains:
        symbols += [base + "'" * k for k in range(length)]
        weights += range(weight, weight + length)
    return tuple(symbols), tuple(weights)


class DiffPolynomial:
    """Exact polynomial in indexed derivative symbols with quasi-weights.

    ``terms`` maps exponent tuples (one slot per symbol) to coefficients;
    coefficients may be rationals or series objects.
    """

    __slots__ = ("symbols", "weights", "terms")

    def __init__(self, symbols, weights, terms):
        self.symbols = tuple(symbols)
        self.weights = tuple(weights)
        self.terms = {e: c for e, c in terms.items() if not _coeff_zero(c)}

    @classmethod
    def zero(cls, symbols, weights):
        return cls(symbols, weights, {})

    @classmethod
    def monomial(cls, symbols, weights, exps, coeff=1):
        return cls(symbols, weights, {tuple(exps): coeff})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return DiffPolynomial(self.symbols, self.weights, terms)

    def __neg__(self):
        return DiffPolynomial(self.symbols, self.weights,
                              {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, DiffPolynomial):
            if _coeff_zero(other):
                return DiffPolynomial.zero(self.symbols, self.weights)
            return DiffPolynomial(self.symbols, self.weights,
                                  {e: c * other for e, c in self.terms.items()})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return DiffPolynomial(self.symbols, self.weights, terms)

    __rmul__ = __mul__

    def total_derivative(self):
        """The ring's derivation for constant coefficients: each symbol to
        its successor in its chain, the name with one more prime. A term at
        the end of a chain raises, never drops or crosses into the next."""
        index = {s: i for i, s in enumerate(self.symbols)}
        succ = [index.get(s + "'") for s in self.symbols]
        terms = {}
        for e, c in self.terms.items():
            for i, k in enumerate(e):
                if not k:
                    continue
                j = succ[i]
                if j is None:
                    raise TruncationError(
                        f"the derivative of {self.symbols[i]} is past the "
                        "end of its chain")
                d = list(e)
                d[i], d[j] = k - 1, d[j] + 1
                d = tuple(d)
                terms[d] = terms.get(d, 0) + k * c
        return DiffPolynomial(self.symbols, self.weights, terms)

    def map_coeffs(self, fn):
        return DiffPolynomial(self.symbols, self.weights,
                              {e: fn(c) for e, c in self.terms.items()})

    def coefficient(self, exps):
        return self.terms.get(tuple(exps))

    def monomial_weight(self, exps):
        return sum(w * e for w, e in zip(self.weights, exps))

    def weight_set(self):
        return sorted({self.monomial_weight(e) for e in self.terms})

    def is_quasi_homogeneous(self):
        return len(self.weight_set()) <= 1

    def degree_set(self):
        return sorted({sum(e) for e in self.terms})

    def evaluate(self, values):
        """Substitute a value per symbol; values must support + and *."""
        acc, memo = None, {}
        for e, c in self.terms.items():
            term = c * monomial_value(e, values, memo) if any(e) else c
            acc = term if acc is None else acc + term
        return acc

    def to_records(self):
        out = []
        for e, c in sorted(self.terms.items()):
            out.append({
                "exponents": {self.symbols[i]: int(x)
                              for i, x in enumerate(e) if x},
                "coefficient": str(c),
                "weight": self.monomial_weight(e),
            })
        return out

    def __repr__(self):
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"{s}^{x}" if x > 1 else s
                            for s, x in zip(self.symbols, e) if x)
            bits.append(f"({c})*{mono or '1'}")
        return " + ".join(bits) or "0"


def monomial_value(exps, values, memo):
    """prod values[i]^exps[i] for a nonconstant monomial.

    ``memo`` maps exponent tuples to values already formed from the same
    ``values``; a new monomial is its parent (the last nonzero exponent
    lowered by one) times one value, so each costs one product.
    """
    value = memo.get(exps)
    if value is None:
        i = max(k for k, e in enumerate(exps) if e)
        parent = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
        value = values[i]
        if any(parent):
            value = monomial_value(parent, values, memo) * value
        memo[exps] = value
    return value


def _coeff_zero(c):
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return c == 0


def r_operator(basis):
    """The nonlinear operator R[t] annihilating ratios of solutions.

    Computed straight from the defining 2m x 2m determinant
    W(t f_0,...,t f_{m-1}, f_0,...,f_{m-1}) / W(f_0,...,f_{m-1})^2:
    subtracting t times the f-columns leaves symbolic entries
    sum_{l>=1} C(k,l) t^(l) d^{k-l}f_j/dz^{k-l} in the first block, and a
    Laplace expansion along those columns pairs each symbolic m x m minor
    with a plain series minor from the f-block (the row-0 entries vanish,
    killing half the subsets).  Normalized so the leading monomial (the
    reverse-lex greatest one containing t^(2m-1), whose coefficient is a
    constant) has coefficient 1.  Returns a DiffPolynomial in the symbols
    t', t'', ..., t^(2m-1) with log-free series coefficients.
    """
    basis = [_as_log(f) for f in basis]
    m = len(basis)
    nsym = 2 * m - 1
    symbols, weights = chain_ring((("t'", 1, nsym),))
    derivs = [ladder(f, nsym, LogSeries.deriv) for f in basis]

    def sym_entry(k, j):
        entry = DiffPolynomial.zero(symbols, weights)
        for l in range(1, k + 1):
            exps = [0] * nsym
            exps[l - 1] = 1
            entry = entry + DiffPolynomial.monomial(
                symbols, weights, exps, comb(k, l) * derivs[j][k - l])
        return entry

    det = DiffPolynomial.zero(symbols, weights)
    # row 0 of the symbolic block is identically zero, so only subsets
    # drawn from rows 1..2m-1 contribute
    for rows in combinations(range(1, 2 * m), m):
        comp = [k for k in range(2 * m) if k not in rows]
        plain = _det([[derivs[j][k] for j in range(m)] for k in comp])
        if plain.is_zero():
            continue
        sym = _det([[sym_entry(k, j) for j in range(m)] for k in rows])
        sign = -1 if sum(rows) % 2 else 1
        det = det + sym.map_coeffs(lambda c, p=plain, s=sign: c * p * s)
    w = wronskian(basis).power_part()
    w2 = w * w
    # log terms in the minors cancel only in the full sum; power_part
    # certifies that they did
    det = det.map_coeffs(lambda c: (c / w2).power_part())
    top = [e for e in det.terms if e[nsym - 1] > 0]
    if not top:
        raise ArithmeticError("top-order symbol missing from R[t]")
    lead_exps = max(top, key=lambda e: tuple(reversed(e)))
    lead = det.terms[lead_exps]
    c0 = lead.coeff(0)
    if c0 == 0 or not (lead - c0 * PowerSeries.one(lead.var)).is_zero():
        raise ArithmeticError("leading coefficient of R[t] is not constant")
    return det.map_coeffs(lambda c: c * (1 / rat(c0)))


def r_substitute(rt: DiffPolynomial, t):
    """Evaluate R[t] at a concrete ratio t(z): symbols become d^l t/dz^l."""
    values = ladder(_as_log(t), len(rt.symbols), LogSeries.deriv)[1:]
    return rt.evaluate(values)
