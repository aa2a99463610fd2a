"""Mirror maps: q(z), its inverse z(q), pullbacks and integrality checks."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .operators import g_functions
from .series import PowerSeries


class MirrorData(namedtuple("MirrorData",
                             "s order q_of_z z_of_q f0_tilde g")):
    """The mirror-map bundle at one truncation order.

    q_of_z has valuation 1 in z; z_of_q is its compositional inverse,
    valuation 1 in q with unit leading coefficient; f0_tilde is the
    analytic solution pulled back through z(q); g holds the analytic
    Frobenius components g_0..g_{s-2} in z; ``_replace`` copies it.
    """
    __slots__ = ()


def mirror_pipeline(s: int, order: int) -> MirrorData:
    """q(z) = z exp(g1/g0), z(q) = revert(q(z)), f0~ = g0(z(q))."""
    if s < 3:
        raise ValueError("s >= 3 required")
    if order < 1:
        raise ValueError(f"mirror pipeline needs order >= 1, got {order}")
    gs = g_functions(s, order)
    g0, g1 = gs[0], gs[1]
    q_over_z = (g1 / g0).exp()
    q_of_z = q_over_z.shift(1)
    z_of_q = q_of_z.revert("q")
    f0_tilde = g0.compose(z_of_q)
    return MirrorData(s=s, order=order, q_of_z=q_of_z, z_of_q=z_of_q,
                      f0_tilde=f0_tilde, g=tuple(gs))


@lru_cache(maxsize=32)
def mirror_data(s: int, order: int) -> MirrorData:
    """Cached mirror pipeline (everything downstream shares this)."""
    return mirror_pipeline(s, order)


def integrality_report(f: PowerSeries, through: int):
    """'pass' if every coefficient up to the exponent bound is an integer,
    else the first failing exponent. Sound because coefficients are kept
    normalized (lowest terms, positive denominator)."""
    f = f.known_to(through + 1)
    for n in range(min(f.val, 0), through + 1):
        if f.coeff(n).denominator != 1:
            return {"pass": False, "first_failure": n}
    return {"pass": True}


def hodge_ratio(md: MirrorData) -> PowerSeries:
    """(delta_q z/z)^{s-2} / (1 - s^s z(q)) of one mirror-map bundle."""
    z = md.z_of_q
    return (z.euler() / z) ** (md.s - 2) * (1 - md.s ** md.s * z).inverse()


def verify_hodge_identity(s: int, order: int) -> PowerSeries:
    """Residual of f0~^2 = hodge_ratio for s in {3, 4}."""
    if s not in (3, 4):
        raise ValueError("the s=5 variant defines the Yukawa coupling; "
                         "use the yukawa module")
    md = mirror_data(s, order + 1)
    return (md.f0_tilde * md.f0_tilde - hodge_ratio(md)).known_to(order)
