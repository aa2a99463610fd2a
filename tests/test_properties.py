"""Randomized structural properties, exact over the rationals."""

import random

from mirrormap.series import PowerSeries, rat
from mirrormap.wronskian import schwarzian, wronskian

CASES = 100


def _rand_series(rng, val, length, var="z", nonzero_lead=True):
    lead = rng.choice([c for c in range(-9, 10) if c]) if nonzero_lead \
        else rng.randint(-9, 9)
    coeffs = [rat(lead)] + [rat(rng.randint(-9, 9))
                            for _ in range(length - 1)]
    return PowerSeries(var, val, coeffs, val + length)


def test_reversion_round_trip():
    rng = random.Random(101)
    for _ in range(CASES):
        f = PowerSeries("z", 1,
                        [rat(1)] + [rat(rng.randint(-9, 9))
                                    for _ in range(7)], 9)
        g = f.revert("q")
        assert g.order == f.order
        back = g.compose(f.relabel("q"))
        ident = PowerSeries("q", 1, [rat(1)], back.order)
        assert (back - ident).is_zero()


def test_exp_log_round_trip():
    rng = random.Random(102)
    for _ in range(CASES):
        f = PowerSeries("z", 1,
                        [rat(rng.randint(-9, 9)) for _ in range(8)], 9)
        assert (f.exp().log() - f).is_zero()
        g = 1 + f
        assert (g.log().exp() - g).is_zero()


def test_wronskian_vanishes_exactly_on_dependence():
    rng = random.Random(103)
    for _ in range(CASES):
        f = _rand_series(rng, 0, 8)
        g = _rand_series(rng, 0, 8)
        a, b = rng.randint(-5, 5), rng.randint(1, 5)
        h = a * f + b * g
        assert wronskian([f, g, h]).is_zero()


def test_wronskian_scaling_covariance():
    # W(g f_0, ..., g f_{m-1}) = g^m W(f_0, ..., f_{m-1})
    rng = random.Random(104)
    for _ in range(CASES):
        m = rng.choice([2, 3])
        fs = [_rand_series(rng, 0, 8) for _ in range(m)]
        g = _rand_series(rng, 0, 8)
        lhs = wronskian([g * f for f in fs], decide=False)
        rhs = g ** m * wronskian(fs, decide=False)
        assert (lhs - rhs).is_zero()


def test_second_order_operator_from_wronskians():
    # with f0, f1 spanning the kernel, y -> W(y, f0, f1)/W(f0, f1)
    # annihilates exactly the span: zero on combinations, nonzero off it
    rng = random.Random(105)
    for _ in range(CASES):
        f0 = _rand_series(rng, 0, 9)
        f1 = _rand_series(rng, 1, 8)
        y_in = rng.randint(-4, 4) * f0 + rng.randint(-4, 4) * f1
        assert wronskian([y_in, f0, f1]).is_zero()
        y_out = f0 * f0
        w = wronskian([y_out, f0, f1], decide=False)
        w2 = wronskian([f0, f1], decide=False)
        # the quotient is the monic operator applied to y_out; it vanishes
        # only if y_out happens to sit in the span, which the degree-2
        # leading term prevents for generic draws
        if not w.is_zero():
            assert not (w / w2).is_zero()


def test_schwarzian_moebius_invariance():
    rng = random.Random(106)
    count = 0
    while count < CASES:
        f = PowerSeries("z", 1,
                        [rat(rng.choice([1, 2, 3, -1, -2]))]
                        + [rat(rng.randint(-6, 6)) for _ in range(6)], 8)
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        c, d = rng.randint(-5, 5), rng.randint(1, 5)
        if a * d - b * c == 0 or (c == 0 and d == 0):
            continue
        den = c * f + d
        if den.coeff(0) == 0:
            continue
        g = (a * f + b) / den
        assert (schwarzian(f) - schwarzian(g)).is_zero()
        count += 1


def test_composition_is_associative():
    rng = random.Random(107)
    for _ in range(CASES):
        f = _rand_series(rng, 0, 6, var="z", nonzero_lead=False)
        g = PowerSeries("w", 1,
                        [rat(rng.randint(-5, 5)) for _ in range(5)], 6)
        h = PowerSeries("q", 1,
                        [rat(rng.randint(-5, 5)) for _ in range(5)], 6)
        lhs = f.compose(g).compose(h)
        rhs = f.compose(g.compose(h))
        assert (lhs - rhs).is_zero()
