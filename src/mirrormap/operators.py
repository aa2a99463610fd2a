"""Hypergeometric delta-operators, Frobenius bases, and normal forms.

Operators are stored as polynomials in the Euler derivation delta = z d/dz
with polynomial-in-z coefficients. ``change_derivation`` rewrites them in
another derivation D with delta = r D: d/dz (r = z) here, d/dt along the
mirror map in ``relations``. A polynomial in z is an exact PowerSeries
(order BIG_ORDER), so all polynomial arithmetic runs on the series product.
"""

from __future__ import annotations

from math import comb, gcd

from .series import (BIG_ORDER, LogSeries, PowerSeries, Q, ZERO, ONE,
                     ladder, rat)


def poly(coeffs) -> PowerSeries:
    """The polynomial sum_k coeffs[k] z^k as an exact series."""
    return PowerSeries("z", 0, coeffs, BIG_ORDER)


def _as_poly(x) -> PowerSeries:
    if isinstance(x, PowerSeries):
        return x
    return poly(x if isinstance(x, (list, tuple)) else [x])


class RationalFunction:
    """Exact, unreduced quotient of two polynomials in z (exact series).

    No polynomial gcd is taken: only the common power of z is stripped,
    the denominator is scaled monic, and zero is 0/1. Equality
    cross-multiplies, and every evaluation is exact, so a common factor
    left in num and den changes no value. When the denominator vanishes
    at z = 0, the order ``eval_series`` reports depends only on its
    z-valuation, which the strip makes canonical.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = poly([1])
        k = min(num.val, den.val)
        num, den = num.shift(-k), den.shift(-k)
        lead = den.coeffs[-1]
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Q, PowerSeries)):
            other = RationalFunction(other)
        return (isinstance(other, RationalFunction)
                and (self.num * other.den) == (other.num * self.den))

    __hash__ = None

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"

    def __add__(self, other):
        other = _coerce_rf(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_coerce_rf(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce_rf(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rf(other)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce_rf(other) / self

    def deriv(self):
        return RationalFunction(
            self.num.deriv() * self.den - self.num * self.den.deriv(),
            self.den * self.den)

    def series(self, var="z", order=32) -> PowerSeries:
        """Laurent expansion about z = 0 valid through the given order."""
        slack = order + 2 * self.den.val + 1
        num_s = self.num.relabel(var).truncate(slack)
        den_s = self.den.relabel(var).truncate(slack)
        return (num_s / den_s).truncate(order)

    def eval_series(self, s: PowerSeries) -> PowerSeries:
        """Evaluate at a power series argument (Laurent division allowed)."""
        return self.num.compose(s) / self.den.compose(s)


def _coerce_rf(x):
    return x if isinstance(x, RationalFunction) else RationalFunction(x)


class DeltaOperator:
    """sum_k c_k(z) * delta^k with polynomial coefficients c_k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [_as_poly(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        if not cs:
            raise ValueError("zero operator")
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __repr__(self):
        return f"DeltaOperator{list(self.coeffs)}"

    def apply(self, f):
        """Apply to a LogSeries (or PowerSeries); returns a LogSeries."""
        if isinstance(f, PowerSeries):
            f = LogSeries.from_power(f)
        acc = None
        for c, dk in zip(self.coeffs, ladder(f, self.degree)):
            if not c.is_zero():
                term = dk * c
                acc = term if acc is None else acc + term
        return acc

    def to_dz(self):
        """[b_0, ..., b_m] with the operator equal to sum_j b_j (d/dz)^j."""
        return change_derivation(self.coeffs, poly([0, 1]), PowerSeries.deriv)


def change_derivation(coeffs, r, step):
    """[b_0, ..., b_m] with sum_k c_k (r D)^k = sum_j b_j D^j, D = step,
    for coefficients c_k and r in one differential ring: (r D)^k is
    expanded by the Leibniz rule r D (P D^j) = r (P' D^j + P D^(j+1))."""
    zero = coeffs[0] * 0
    power, b = [zero + 1], [zero] * len(coeffs)  # (r D)^k, the sum
    for k, c in enumerate(coeffs):
        if k:
            power = [r * (step(e) + lower)
                     for e, lower in zip(power + [zero], [zero] + power)]
        b = [bj + c * e for bj, e in zip(b, power)] + b[k + 1:]
    return b


def mirror_operator(s: int) -> DeltaOperator:
    """delta^{s-1} - s*z*(s delta + 1)...(s delta + s - 1)."""
    if s < 3:
        raise ValueError("mirror operators need s >= 3")
    prod = PowerSeries.one("delta")
    for k in range(1, s):
        prod = prod * PowerSeries("delta", 0, (k, s), BIG_ORDER)
    coeffs = [poly([0, -s * prod.coeff(i)]) for i in range(s)]
    coeffs[s - 1] = coeffs[s - 1] + 1
    return DeltaOperator(coeffs)


def eighth_operator() -> DeltaOperator:
    """delta^2 - 4z(8 delta + 1)(8 delta + 3): the square root of the s=4 case."""
    # (8d+1)(8d+3) = 64 d^2 + 32 d + 3
    return DeltaOperator([[0, -12], [0, -128], [1, -256]])


def frobenius_basis(s: int, order: int):
    """Fundamental solutions f_0..f_{s-2} of the mirror operator at z=0.

    Built from the H-jet of the deformed coefficient ratio
    prod_{k<=s*l}(sH+k) / prod_{k<=l}(H+k)^s modulo H^r, r = s-1, kept as
    integer numerators over one denominator. Step l multiplies by sH+k for
    s(l-1) < k <= sl, and by 1/(l+H)^s = sum_m (-1)^m C(s+m-1, m) H^m/l^(s+m):
    the numerators by sum_{m<r} (-1)^m C(s+m-1, m) l^(r-1-m) H^m, the
    denominator by l^(s+r-1). The jet component g_m gives
    f_j = sum_m g_m log^{j-m} z/(j-m)!.
    """
    if s < 3:
        raise ValueError("s >= 3 required")
    r = s - 1
    signed = [(-1) ** m * comb(s + m - 1, m) for m in range(r)]
    num, den = [1] + [0] * (r - 1), 1
    g = [[Q(c)] for c in num]
    for l in range(1, order):
        for k in range(s * (l - 1) + 1, s * l + 1):
            num = [k * c + s * lower for c, lower in zip(num, [0] + num)]
        inv = [c * l ** (r - 1 - m) for m, c in enumerate(signed)]
        num = [sum(num[i] * inv[m - i] for i in range(m + 1))
               for m in range(r)]
        den *= l ** (s + r - 1)
        common = gcd(den, *num)
        num, den = [c // common for c in num], den // common
        for m in range(r):
            g[m].append(Q(num[m], den))
    gs = [PowerSeries("z", 0, g[m], order) for m in range(r)]
    basis = []
    for j in range(r):
        parts = [gs[j - k] for k in range(j + 1)]
        basis.append(LogSeries(parts))
    return basis


def g_functions(s: int, order: int):
    """The analytic components g_0..g_{s-2} of the Frobenius basis."""
    basis = frobenius_basis(s, order)
    top = basis[-1]
    return [top.part(s - 2 - m) for m in range(s - 1)]


def pfq_series(upper, lower, scale, order: int, var: str = "z") -> PowerSeries:
    """Generalized hypergeometric series sum_l (prod (a)_l / prod (b)_l) (c z)^l / l!."""
    upper = [rat(a) for a in upper]
    lower = [rat(b) for b in lower]
    scale = rat(scale)
    for b in lower:
        if b.denominator == 1 and b <= 0:
            raise ValueError("nonpositive integer lower parameter")
    cs = [ZERO] * order
    term = ONE
    for l in range(order):
        cs[l] = term
        num = ONE
        for a in upper:
            num *= a + l
        den = ONE
        for b in lower:
            den *= b + l
        term = term * num * scale / (den * (l + 1))
    return PowerSeries(var, 0, cs, order)


def symmetric_square_check(order: int) -> PowerSeries:
    """Residual of: analytic s=4 solution minus (2F1(1/8,3/8;1;256z))^2."""
    f0 = g_functions(4, order)[0]
    h = pfq_series([Q(1, 8), Q(3, 8)], [1], 256, order)
    return f0 - h * h


def second_order_normal_form(op: DeltaOperator) -> RationalFunction:
    """Normal-form potential of a second-order operator.

    Writing the operator as y'' + p y' + r y = 0 in d/dz form, returns
    Q = r - p^2/4 - p'/2, so the ratio of any two solutions t satisfies
    the Schwarzian relation {t, z} = 2Q(z).
    """
    if op.degree != 2:
        raise ValueError("second-order operator required")
    b = op.to_dz()
    lead = RationalFunction(b[2])
    p = RationalFunction(b[1]) / lead
    r = RationalFunction(b[0]) / lead
    return r - p * p * Q(1, 4) - p.deriv() * Q(1, 2)


def fourth_order_normal_form(op: DeltaOperator):
    """(Q2, Q0) of a fourth-order operator written in d/dz form."""
    if op.degree != 4:
        raise ValueError("fourth-order operator required")
    *low, lead = map(RationalFunction, op.to_dz())
    a4, a3, a2, a1 = (b / lead for b in low)
    return fourth_order_reduction(a1, a2, a3, a4, RationalFunction.deriv)


def fourth_order_reduction(a1, a2, a3, a4, step):
    """(Q2, Q0) of Y'''' + Q2 Y'' + Q2' Y' + Q0 Y, the reduction of
    y'''' + a1 y''' + a2 y'' + a3 y' + a4 y by y = w Y with w'/w = -a1/4;
    ' = step, a derivation of the coefficients (RationalFunction,
    PowerSeries, DiffPolynomial). Q1 = Q2' is checked here."""
    u, u1, u2, u3 = ladder(a1 * Q(-1, 4), 3, step)
    q2 = 6 * u1 + 6 * u * u + 3 * a1 * u + a2
    q1 = (4 * u2 + 12 * u * u1 + 4 * u * u * u
          + a1 * (3 * u1 + 3 * u * u) + 2 * a2 * u + a3)
    q0 = (u3 + 4 * u * u2 + 3 * u1 * u1 + 6 * u * u * u1 + u * u * u * u
          + a1 * (u2 + 3 * u * u1 + u * u * u)
          + a2 * (u1 + u * u) + a3 * u + a4)
    if not (q1 - step(q2)).is_zero():
        raise ArithmeticError(
            "reduction did not produce the self-adjoint-like shape")
    return q2, q0
