"""Core series ring: arithmetic, composition, reversion, exp/log, jets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrormap.series import (BIG_ORDER, LogSeries, PowerSeries, Q,
                              TruncationError, VariableMismatch, rat,
                              series_from_record, series_to_record)


def ps(coeffs, val=0, order=None, var="z"):
    return PowerSeries(var, val,
                       [rat(c) for c in coeffs],
                       order if order is not None else val + len(coeffs))


class TestArithmetic:
    def test_add_aligns_valuations(self):
        a = ps([1, 2], val=0)
        b = ps([3], val=1)
        assert (a + b).coeff(1) == 5

    def test_mul_truncation_order_is_min_of_shifted_orders(self):
        a = ps([1, 1], order=5)          # known through z^4
        b = ps([1], val=2, order=4)      # known through z^3
        c = a * b
        assert c.order == min(5 + 2, 4 + 0)
        assert c.coeff(2) == 1 and c.coeff(3) == 1

    def test_coeff_past_order_raises(self):
        a = ps([1, 2, 3], order=3)
        with pytest.raises(TruncationError):
            a.coeff(3)

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            ps([1]) + ps([1], var="q")

    def test_laurent_inverse(self):
        a = ps([1, -1], val=-1, order=8)
        assert (a * a.inverse() - 1).is_zero()

    def test_pow_matches_repeated_mul(self):
        a = ps([1, 2, 3], order=10)
        assert a ** 4 == a * a * a * a

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            PowerSeries.zero("z", 6).inverse()

    def test_geometric_inverse(self):
        one_minus = ps([1, -1], order=10)
        inv = one_minus.inverse()
        assert all(inv.coeff(n) == 1 for n in range(10))


class TestCompositionReversion:
    def test_compose_geometric_with_q_plus_q2(self):
        # 1/(1-z) composed with q + q^2 starts 1, 1, 2, 3, 5 (each
        # coefficient counts compositions of n into parts 1 and 2)
        geom = PowerSeries("z", 0, [rat(1)] * 12, 12)
        inner = PowerSeries("q", 1, [rat(1), rat(1)], 12)
        comp = geom.compose(inner)
        assert [comp.coeff(n) for n in range(6)] == [1, 1, 2, 3, 5, 8]

    def test_compose_exact_polynomial_oracle(self):
        # (1 + z)^3 at z = q + q^2, expanded by hand
        outer = ps([1, 3, 3, 1], order=BIG_ORDER)
        inner = PowerSeries("q", 1, [rat(1), rat(1)], 9)
        comp = outer.compose(inner)
        brute = (1 + inner) * (1 + inner) * (1 + inner)
        assert (comp - brute).is_zero()

    def test_compose_laurent_outer(self):
        outer = ps([1], val=-1, order=5)   # 1/z
        inner = PowerSeries("q", 1, [rat(1), rat(-1)], 8)
        comp = outer.compose(inner)
        assert (comp * inner - 1).is_zero()

    def test_revert_round_trip(self):
        f = PowerSeries("z", 1, [rat(1), rat(-5), rat(7), rat(2)], 10)
        g = f.revert("q")
        back = f.compose(g)
        ident = PowerSeries("q", 1, [rat(1)], back.order)
        assert (back - ident).is_zero()

    def test_revert_needs_unit_linear_coefficient(self):
        with pytest.raises(ValueError):
            PowerSeries("z", 2, [rat(1)], 6).revert()


class TestExpLog:
    def test_exp_log_round_trip(self):
        f = PowerSeries("z", 1, [rat(3), rat(-2), Q(1, 7)], 9)
        assert ((f.exp()).log() - f).is_zero()

    def test_exp_of_zero_is_one(self):
        assert (PowerSeries.zero("z", 6).exp() - 1).is_zero()

    def test_log_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            PowerSeries("z", 0, [rat(2)], 5).log()


class TestEulerDeriv:
    def test_euler_on_monomial(self):
        f = PowerSeries.monomial("z", 4, 3, order=6)
        assert f.euler().coeff(4) == 12

    def test_deriv_shifts_exponent(self):
        f = ps([0, 0, 5], order=6)
        assert f.deriv().coeff(1) == 10


class TestLogSeries:
    def test_euler_acts_triangularly(self):
        # delta(log^2 z / 2) = log z
        f = LogSeries([PowerSeries.zero("z", 8),
                       PowerSeries.zero("z", 8),
                       PowerSeries.monomial("z", 0, 1, 8)])
        d = f.euler()
        assert d.part(1) == PowerSeries.monomial("z", 0, 1, 8)
        assert d.part(2).is_zero()

    def test_product_binomials(self):
        # (log z) * (log z) = 2 * (log^2 z / 2)
        lg = LogSeries([PowerSeries.zero("z", 8),
                        PowerSeries.monomial("z", 0, 1, 8)])
        sq = lg * lg
        assert sq.part(2).coeff(0) == 2

    def test_deriv_consistent_with_euler(self):
        p = PowerSeries("z", 0, [rat(2), rat(1), rat(4)], 7)
        f = LogSeries([p, p * 3])
        lhs = f.euler()
        rhs = f.deriv() * PowerSeries.identity("z", 7)
        assert (lhs - rhs).is_zero()

    def test_power_part_rejects_live_logs(self):
        f = LogSeries([PowerSeries.zero("z", 6),
                       PowerSeries.monomial("z", 1, 1, 6)])
        with pytest.raises(ValueError):
            f.power_part()


class TestJetRing:
    """Q[H]/(H^3) is PowerSeries in H truncated at order 3."""

    def test_ring_truncates(self):
        h = PowerSeries("H", 0, [0, 1], 3)       # H mod H^3
        cube = h * h * h
        assert all(cube.coeff(k) == 0 for k in range(3))

    def test_inverse(self):
        h = PowerSeries("H", 0, [rat(2), rat(1), rat(5)], 3)
        prod = h * h.inverse()
        assert [prod.coeff(k) for k in range(3)] == [1, 0, 0]


class TestSerialization:
    def test_round_trip(self):
        f = PowerSeries("q", -2, [Q(1, 3), rat(0), rat(7)], 4)
        rec = series_to_record(f)
        assert rec["coeffs"][0] == "1/3"
        g = series_from_record(rec)
        assert (f - g).is_zero() and g.val == -2 and g.order == 4


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8),
       st.lists(st.integers(-50, 50), min_size=1, max_size=8),
       st.lists(st.integers(-50, 50), min_size=1, max_size=8))
def test_ring_axioms(xs, ys, zs):
    a, b, c = (ps(v, order=12) for v in (xs, ys, zs))
    assert ((a + b) * c - (a * c + b * c)).is_zero()
    assert ((a * b) * c - a * (b * c)).is_zero()
    assert (a * b - b * a).is_zero()
