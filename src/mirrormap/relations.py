"""Coupled nonlinear identities linking z(q) and K(q), and the
quasi-homogeneous differential-polynomial relation search."""

from __future__ import annotations

from collections import namedtuple
from itertools import count
from math import isqrt
from operator import mul

from .linalg import _rank_mod_prime, nullspace
from .mirror import mirror_data
from .operators import (RationalFunction, change_derivation,
                        eighth_operator, fourth_order_reduction,
                        mirror_operator, poly, second_order_normal_form)
from .series import PowerSeries, Q, ladder, rat
from .wronskian import DiffPolynomial, chain_ring, monomial_value, schwarzian
from .yukawa import yukawa_coupling

C5 = 5 ** 5  # the natural scale of the quintic family's singular point


def rational_q() -> RationalFunction:
    """The double-pole potential of the second-order normal form:
    (5^8/4)(25 - 34(5^5 z) + 24(5^5 z)^2) / ((5^5 z)^2 (1-5^5 z)^2)."""
    num = poly([25, -34 * C5, 24 * C5 ** 2]) * Q(5 ** 8, 4)
    den = poly([0, 0, C5 ** 2]) * poly([1, -C5]) ** 2
    return RationalFunction(num, den)


def rational_q_tilde() -> RationalFunction:
    """The fourth-order counterpart,
    -(5750z + 63671875z^2 + 19531250000z^3) / (1-5^5 z)^4 = 100 z^4 theta_4,
    theta_4 = Q0 - (3/10)Q2'' - (9/100)Q2^2 the Laguerre-Forsyth invariant
    of the quintic's normal form (A. R. Forsyth, Phil. Trans. R. Soc. A 179
    (1888) 377-489). Built from (Q2, Q0) it is unreduced, 86 over 86 in z,
    slower, and nonzero at z = 0, where ``eval_series`` may lose orders."""
    num = poly([0, -5750, -63671875, -19531250000])
    return RationalFunction(num, poly([1, -C5]) ** 4)


def b_quantities(u1, step=PowerSeries.euler):
    """B2 = 2u'' - u'^2/2 and B4 = u''''/2 + u''^2/4 - u''u'^2/2 + u'^4/16,
    the (Q2, Q0) of d^2/dt^2 (1/K) d^2/dt^2, whose coefficients over 1/K
    are (-2u', u'^2 - u'', 0, 0); u1 = u' = K'/K, ' = step = d/dt."""
    zero = u1 * 0
    return fourth_order_reduction(-2 * u1, u1 * u1 - step(u1), zero, zero,
                                  step)


def a_quantities(z: PowerSeries):
    """A2 = Q2(z)z'^2 + 5{z,t} and A4, the (Q2, Q0) of the quintic operator
    pulled back to t = log q, ' = delta_q, at a series z(q) of valuation 1:
    delta_z = r delta_q with r = z/z', so sum_k c_k(z) delta_z^k is the
    change of derivation to delta_q."""
    coeffs = [c.compose(z) for c in mirror_operator(5).coeffs]
    *low, lead = change_derivation(coeffs, z / z.euler(), PowerSeries.euler)
    inv = 1 / lead
    a4, a3, a2, a1 = (b * inv for b in low)
    return fourth_order_reduction(a1, a2, a3, a4, PowerSeries.euler)


def _quintic_pair(order: int):
    """z(q) and K(q) with the slack the coupled identities need to be
    known through the given order."""
    slack = order + 1
    return mirror_data(5, slack).z_of_q, yukawa_coupling(slack)


def verify_duality(order: int):
    """Residuals A2 - B2 and A4 - B4 on the actual mirror map / Yukawa pair:
    the normal forms of the quintic operator pulled back to t and of
    d^2/dt^2 (1/K) d^2/dt^2. Both vanish: z(t) and K(t) carry one
    fourth-order equation, the mirror-map side of the coupled identities."""
    z, K = _quintic_pair(order)
    a2, a4 = a_quantities(z)
    b2, b4 = b_quantities(K.euler() / K)  # u = log K itself is irrational
    return (a2 - b2).known_to(order), (a4 - b4).known_to(order)


def _schwarzian_form(q_rf: RationalFunction, z: PowerSeries) -> PowerSeries:
    """2Q(z)(dz/dt)^2 + {z,t} with d/dt = delta_q."""
    z1 = z.euler()
    return 2 * q_rf.eval_series(z) * z1 * z1 + schwarzian(z)


def verify_eq_schwarzian(s: int, order: int) -> PowerSeries:
    """Residual of 2Q(z)(dz/dt)^2 + {z,t} = 0 in the modular cases.

    For s = 3 the operator is already second order; for s = 4 its
    third-order equation is the symmetric square of a second-order one,
    whose normal form supplies Q (the ratio t only rescales, which the
    Schwarzian equation tolerates).
    """
    if s == 3:
        op = mirror_operator(3)
    elif s == 4:
        op = eighth_operator()
    else:
        raise ValueError("the Schwarzian case needs s in {3, 4}")
    z = mirror_data(s, order + 1).z_of_q
    return _schwarzian_form(second_order_normal_form(op), z).known_to(order)


def _theta4_pair(x2, x4):
    """(X2, theta_4) of a (Q2, Q0) pair in delta_q, with theta_4 =
    X4 - (3/10)X2'' - (9/100)X2^2 the Laguerre-Forsyth invariant."""
    return x2, x4 - Q(3, 10) * x2.euler(2) - Q(9, 100) * x2 * x2


def _mirror_side(z):
    """(A2, theta_4) on a series z(q) of valuation 1 from the z-side closed
    forms, with no pullback: A2 = 5(2Q(z)z'^2 + {z,t}) and
    theta_4 = Qtilde(z)(z'/z)^4/100."""
    return (5 * _schwarzian_form(rational_q(), z),
            rational_q_tilde().eval_series(z) * (z.euler() / z) ** 4 / 100)


def _yukawa_side(K):
    """(B2, theta_4) of a Yukawa coupling K(q), from u' = K'/K."""
    return _theta4_pair(*b_quantities(K.euler() / K))


def verify_eq_second(order: int) -> PowerSeries:
    """Residual of 2Q(z)(dz/dt)^2 + {z,t} = (2/5)u'' - (1/10)u'^2,
    u = log K; the Laurent principal parts on the left cancel exactly.
    This is the second-order half of the duality divided by 5: the left
    side is A2/5 (Q2 = 10Q), the right side B2/5."""
    z, K = _quintic_pair(order)
    (a2, _), (b2, _) = _mirror_side(z), _yukawa_side(K)
    return ((a2 - b2) / 5).known_to(order)


def verify_eq_fourth(order: int) -> PowerSeries:
    """Residual of Qtilde(z)(z'/z)^4 =
    (175K'^4 - 280KK'^2K'' + 49K^2K''^2 + 70K^2K'K''' - 10K^3K'''')/K^4,
    the duality's Laguerre-Forsyth invariant: each side is 100 theta_4,
    theta_4 = X4 - (3/10)X2'' - (9/100)X2^2, of (A2, A4) and (B2, B4)."""
    z, K = _quintic_pair(order)
    (_, theta_a), (_, theta_b) = _mirror_side(z), _yukawa_side(K)
    return (100 * (theta_a - theta_b)).known_to(order)


# ---------------------------------------------------------------------------
# relation search

#: Each ring as chains (base, base weight, length), which ``chain_ring``
#: names base, base', base'', ... p2 holds the second- and fourth-order
#: invariants with five and three derivatives; the jet ring
#: Q[u', ..., u^(7)] is where B2''''' and B4''' end. p1 holds A2, A2' and
#: T4 = theta_4 with three derivatives: the A2 and theta_4 chains generate
#: the ring of the (A2, A4) chains, and p1's relations form a principal
#: ideal whose generator uses only these six symbols (see README). They
#: are Laurent polynomials in the jets z', ..., z'''' of an arbitrary z.
P2_CHAINS = (("B2", 2, 6), ("B4", 4, 4))
P1_CHAINS = (("A2", 2, 2), ("T4", 4, 4))
JET_CHAINS = (("u'", 1, 7),)
Z_JET_CHAINS = (("z'", 1, 4),)


class RelationSearchResult(namedtuple(
        "RelationSearchResult", "mode found weights_scanned seed weight "
        "polynomial stratum_size degree_set verified_fresh verified_dual",
        defaults=(None, None, None, None, False, False))):
    """A scan's outcome; the last six fields describe the relation found."""
    __slots__ = ()

    def summary(self):
        out = {
            "mode": self.mode,
            "found": self.found,
            "weights_scanned": list(self.weights_scanned),
            "seed": self.seed,
        }
        if self.found:
            out.update({
                "quasi_weight": self.weight,
                "stratum_size": self.stratum_size,
                "monomial_degrees": list(self.degree_set),
                "term_count": len(self.polynomial.terms),
                "verified_fresh": self.verified_fresh,
                "verified_dual": self.verified_dual,
                "relation": self.polynomial.to_records(),
            })
        return out


def _monomials(weights, target):
    """All exponent vectors with sum(w_i e_i) == target, excluding 1."""
    out = []

    def rec(i, remaining, exps):
        if i == len(weights):
            if remaining == 0 and any(exps):
                out.append(tuple(exps))
            return
        w = weights[i]
        for e in range(remaining // w + 1):
            exps[i] = e
            rec(i + 1, remaining - e * w, exps)
        exps[i] = 0

    rec(0, target, [0] * len(weights))
    return out


def _chain_values(chains, bases, step=PowerSeries.euler):
    """The values the chains' symbols stand for: one base per chain, then
    its derivatives by ``step``."""
    return [value for (_, _, length), base in zip(chains, bases)
            for value in ladder(base, length - 1, step)]


def _jet_symbol_values():
    """The p2 symbols in the jet ring, with ' the total derivative
    u^(k) -> u^(k+1)."""
    jets, weights = chain_ring(JET_CHAINS)
    d = DiffPolynomial.total_derivative
    u1 = DiffPolynomial.monomial(jets, weights, (1,) + (0,) * (len(jets) - 1))
    return _chain_values(P2_CHAINS, b_quantities(u1, d), d)


def _z_jet_symbol_values():
    """The p1 symbols over Q(z), Laurent polynomials in the jets z', ...,
    z'''' with RationalFunction coefficients: A2 = 10Q(z)z'^2 + 5z'''/z'
    - (15/2)(z''/z')^2 and theta_4 = Qtilde(z)z'^4/(100z^4), the closed
    forms of ``_mirror_side``, with ' the total derivative
    D(c(z)m) = c'(z)z'm + c(z)D(m)."""
    jets, weights = chain_ring(Z_JET_CHAINS)

    def jet(exps, coeff):
        return DiffPolynomial.monomial(jets, weights, exps, coeff)

    z1 = jet((1, 0, 0, 0), 1)

    def d(f):
        return f.total_derivative() + f.map_coeffs(RationalFunction.deriv) * z1

    a2 = (jet((2, 0, 0, 0), 10 * rational_q())
          + jet((-1, 0, 1, 0), RationalFunction(5))
          + jet((-2, 2, 0, 0), RationalFunction(Q(-15, 2))))
    theta4 = jet((4, 0, 0, 0), rational_q_tilde() / poly([0, 0, 0, 0, 100]))
    return _chain_values(P1_CHAINS, (a2, theta4), d)


def _value_at(rf: RationalFunction, r):
    """rf(r) at a rational r off its poles, by Horner's rule."""
    def value(p):
        acc = 0
        for c in reversed(p.coeffs):
            acc = acc * r + c
        return acc * r ** p.val
    return value(rf.num) / value(rf.den)


def _z_points(values):
    """The p1 symbols at z = 1/7, -2/11, 3/13, -4/17, ...: k/p at the k-th
    prime p from 7. No such point is z = 0 or 5^-5, the poles of Q and
    Qtilde, and with them of every coefficient of the symbols."""
    primes = (n for n in count(7)
              if all(n % d for d in range(2, isqrt(n) + 1)))
    for k, p in enumerate(primes):
        r = Q((-1) ** k * (k + 1), p)
        yield [v.map_coeffs(lambda c: _value_at(c, r)) for v in values]


#: mode -> (chains, the symbols in the jet ring the search decides in, its
#: points: the symbols at each point whose rows the search stacks, and the
#: bases of the dual side at an order, built from that side alone: (A2, A4)
#: of the actual mirror map for p2, (B2, theta_4) of the actual log-Yukawa
#: coupling for p1). The u-jet ring has rational coefficients and is its
#: own one point. The library functions they call are looked up at call
#: time, so a tracer that rebinds them sees the calls.
_SEARCH_MODES = {
    "p2": (P2_CHAINS, _jet_symbol_values, lambda values: [values],
           lambda order: a_quantities(mirror_data(5, order + 1).z_of_q)),
    "p1": (P1_CHAINS, _z_jet_symbol_values, _z_points,
           lambda order: _yukawa_side(yukawa_coupling(order + 1))),
}


def _stack_rows(monos, values, memo):
    """The coefficient rows of the monomials, at one point's symbol values,
    on the jet monomials. ``memo`` keeps the point's monomials across
    strata, as long as a later stratum may extend them."""
    fs = [monomial_value(e, values, memo) for e in monos]
    keys = sorted(set().union(*(f.terms for f in fs)))
    return [[f.terms.get(k, 0) for f in fs] for k in keys]


def relation_search(mode: str = "p2", weight_bound: int = 12,
                    order: int = 40, seed: int = 0) -> RelationSearchResult:
    """Scan quasi-weight strata for a differential polynomial in the mode's
    symbols that vanishes identically on its native side (arbitrary u for
    mode p2, arbitrary z for mode p1), then check it there and certify it
    on the actual mirror-map data of the dual side.

    Each stratum is decided in a jet ring: p2 in Q[u', u'', ...], p1 in
    Q(z)[z', 1/z', z'', ...] at rational points z = r. A point's rows are
    the monomials' coefficients on the jet monomials. Points are added
    while the stratum's rank modulo the screen's prime is short and grew
    with the last one; full rank proves that it has no relation. Otherwise
    the exact nullspace of the stacked rows runs once, and a kernel vector
    is checked on the ring's own symbols (over Q(z) for p1), which sets
    ``verified_fresh``. ``order`` sets only the dual certificate's,
    max(16, order // 2), and ``seed`` is only echoed. The lowest
    quasi-weight is 2, so a ``weight_bound`` below 2 is refused.
    """
    if mode not in _SEARCH_MODES:
        raise ValueError(f"unknown search mode {mode!r}")
    if weight_bound < 2:
        raise ValueError(f"weight bound {weight_bound} is below the lowest "
                         "quasi-weight 2")
    chains, ring_values, at_points, dual_bases = _SEARCH_MODES[mode]
    symbols, weights = chain_ring(chains)
    ring = ring_values()
    points = iter(at_points(ring))
    value_sets, found = [], {}
    for weight in range(2, weight_bound + 1):
        monos = _monomials(weights, weight)
        rows, echelon, rank = [], {}, None
        for k in count():
            if k == len(value_sets):
                values = next(points, None)
                if values is None:
                    break
                value_sets.append((values, {}))
            more = _stack_rows(monos, *value_sets[k])
            rows += more
            last, rank = rank, _rank_mod_prime(more, len(monos), echelon)
            if rank in (last, len(monos)):
                break
        # the next stratum's monomials extend parents at most the heaviest
        # symbol's weight lighter than themselves; drop the rest
        lightest = weight + 1 - max(weights)
        value_sets = [
            (values, {e: v for e, v in memo.items()
                      if sum(map(mul, weights, e)) >= lightest})
            for values, memo in value_sets]
        if rank == len(monos):
            continue
        basis = nullspace(rows, len(monos))
        if not basis:
            continue
        poly = DiffPolynomial(symbols, weights,
                              dict(zip(monos, map(rat, basis[0]))))
        # the coupled-equation content, not a formal consequence of the
        # search: the relation must also kill the dual side's symbols
        dual_order = max(16, order // 2)
        dual = poly.evaluate(_chain_values(chains, [
            b.known_to(dual_order) for b in dual_bases(dual_order)])).is_zero()
        found = {"weight": weight, "polynomial": poly,
                 "stratum_size": len(monos),
                 "degree_set": tuple(poly.degree_set()),
                 "verified_fresh": poly.evaluate(ring).is_zero(),
                 "verified_dual": dual}
        break
    return RelationSearchResult(
        mode=mode, found=bool(found),
        weights_scanned=tuple(range(2, weight + 1)),
        seed=seed, **found)
