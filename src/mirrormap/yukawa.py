"""Yukawa coupling, instanton numbers, prepotential and t-functions (s=5).

Polynomials in t with q-series coefficients are LogSeries in q under
t = log q: part k holds k! [t^k], and d/dt is LogSeries.euler.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .mirror import hodge_ratio, integrality_report, mirror_data
from .series import LogSeries, PowerSeries, Q, ZERO, rat


class InstantonTable(namedtuple("InstantonTable", "n N")):
    """Lambert-inverted instanton numbers n_l and N_l = [q^l]F = [q^l]K/l^3."""
    __slots__ = ()


def yukawa_from_definition(order: int) -> PowerSeries:
    """K(q) = 5 (delta_q z/z)^3 / ((1 - 5^5 z(q)) f0~^2); K(0) = 5.

    Formed as 5 (delta_q z)^3 / (z^3 (1 - 5^5 z) f0~^2), with one inverse."""
    md = mirror_data(5, order)
    z, f0t = md.z_of_q, md.f0_tilde
    denominator = z ** 3 * (1 - 5 ** 5 * z) * (f0t * f0t)
    return (5 * z.euler() ** 3 * denominator.inverse()).known_to(order)


@lru_cache(maxsize=8)
def yukawa_coupling(order: int) -> PowerSeries:
    return yukawa_from_definition(order)


def verify_yukawa_identity(order: int) -> PowerSeries:
    """Residual of f0~^2 = (delta_q z/z)^3 / (1 - 5^5 z) * 5/K."""
    md = mirror_data(5, order + 1)
    rhs = hodge_ratio(md) * 5 * yukawa_coupling(order + 1).inverse()
    return (md.f0_tilde * md.f0_tilde - rhs).known_to(order)


def integrality_suite(order: int):
    """Integrality of z(q), q(z)/z and f0~ for s = 3, 4, 5 and of K/5,
    each through the given exponent: one report item per series."""
    slack = order + 1
    items = []
    for s in (3, 4, 5):
        md = mirror_data(s, slack)
        for name, f in (("z_of_q", md.z_of_q),
                        ("q_of_z/z", md.q_of_z.shift(-1)),
                        ("f0_tilde", md.f0_tilde)):
            items.append({"item": f"s{s}.{name}",
                          **integrality_report(f, order)})
    k5 = yukawa_coupling(slack) * Q(1, 5)
    items.append({"item": "K/5", **integrality_report(k5, order)})
    return items


def _cover_sums(K: PowerSeries, count: int) -> list:
    """[N_1, ..., N_count] with N_m = [q^m]K / m^3: for
    K = K(0) + sum n_l l^3 q^l/(1-q^l) this is sum_{k|m} n_{m/k} / k^3."""
    return [K.coeff(m) / m ** 3 for m in range(1, count + 1)]


def instanton_numbers(K: PowerSeries, count: int) -> InstantonTable:
    """Divisor-sum inversion of K = 5 + sum n_l l^3 q^l/(1-q^l).

    A non-integral n_m signals a corrupted K and raises.
    """
    if K.coeff(0) != 5:
        raise ValueError("Yukawa coupling must have constant term 5")
    n = [ZERO] * (count + 1)
    for m in range(1, count + 1):
        acc = K.coeff(m)
        for l in range(1, m):
            if m % l == 0:
                acc -= n[l] * l ** 3
        nm = acc / m ** 3
        if nm.denominator != 1:
            raise ArithmeticError(f"non-integral instanton number at l={m}: {nm}")
        n[m] = nm
    return InstantonTable(n=tuple(n[1:]), N=tuple(_cover_sums(K, count)))


def lambert_expand(n, order: int, constant=5) -> PowerSeries:
    """Re-expand constant + sum n_l l^3 q^l/(1-q^l) through the order."""
    cs = [rat(constant)] + [ZERO] * (order - 1)
    for l in range(1, order):
        nl = n[l - 1] if l - 1 < len(n) else ZERO
        if nl == 0:
            continue
        for m in range(l, order, l):
            cs[m] += nl * l ** 3
    return PowerSeries("q", 0, cs, order)


def _cubic_potential(K: PowerSeries) -> LogSeries:
    """F = K(0) t^3/6 + sum_{m>=1} ([q^m]K/m^3) q^m, known to K's order, as
    a LogSeries in q (part 3 holds 3! [t^3] = K(0)): d^3F/dt^3 = K."""
    zero = PowerSeries.zero(K.var)
    qpart = PowerSeries(K.var, 1, _cover_sums(K, K.order - 1), K.order)
    cubic = PowerSeries.monomial(K.var, 0, K.coeff(0))
    return LogSeries([qpart, zero, zero, cubic])


def prepotential(order: int) -> LogSeries:
    """F(t) = (5/6) t^3 + sum N_l q^l, with d^3F/dt^3 = K(q)."""
    return _cubic_potential(yukawa_coupling(order))


def t_functions(order: int):
    """t_0 = 1, t_1 = t, t_2 = (1/5) F', t_3 = (1/5) t F' - (2/5) F."""
    F = prepotential(order)
    Fp = F.euler()
    t = LogSeries([PowerSeries.zero("q"), PowerSeries.one("q")])
    t0 = LogSeries.from_power(PowerSeries.one("q", order))
    t1 = t + PowerSeries.zero("q", order)
    t2 = Q(1, 5) * Fp
    t3 = Q(1, 5) * (t * Fp) - Q(2, 5) * F
    return [t0, t1, t2, t3]


def verify_pandharipande(order: int):
    """Residuals of d^2/dt^2 (1/K) d^2/dt^2 t_j for j = 0..3."""
    kinv = yukawa_coupling(order + 1).inverse()
    residuals = [(tj.euler(2) * kinv).euler(2)
                 for tj in t_functions(order + 1)]
    return [LogSeries([p.known_to(order) for p in r.parts]) for r in residuals]


def eisenstein_analog(order: int):
    """K0 = 1 + 240 sum sigma_3(n) q^n and F0 = t^3/6 + 240 sum sum q^{kl}/k^3."""
    K0 = lambert_expand([rat(240)] * order, order, constant=1)
    return K0, _cubic_potential(K0)


def evaluate_F0_at(t_value: float, order: int = 12) -> float:
    """Float evaluation of the truncated F0 at q = e^t; needs e^t < 1.

    The q-coefficients are bounded by 240*zeta(3) < 289, so the dropped
    tail is below 289 * q^order / (1-q); at t = -2pi and order 12 that is
    under 1e-30, far below double rounding error.
    """
    qv = math.exp(min(t_value, 0.0))  # e^t overflows past t = 709.78
    if not qv < 1:
        raise ValueError("q = e^t must lie inside the unit disc")
    _, F0 = eisenstein_analog(order)
    total = 0.0
    for k, part in enumerate(F0.parts):
        acc = 0.0
        for n, c in (part / math.factorial(k)).known_coeffs():
            acc += float(c.numerator) / float(c.denominator) * qv ** n
        try:
            total += acc * t_value ** k
        except OverflowError:
            raise ValueError(f"t^{k} overflows a float") from None
    return total
