"""Hypergeometric operators, Frobenius bases, and normal forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrormap.mirror import mirror_data
from mirrormap.operators import (DeltaOperator, RationalFunction,
                                 eighth_operator, fourth_order_normal_form,
                                 frobenius_basis, g_functions,
                                 mirror_operator, pfq_series, poly,
                                 second_order_normal_form,
                                 symmetric_square_check)
from mirrormap.series import (BIG_ORDER, LogSeries, PowerSeries, Q, ladder,
                              rat)


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_polys = st.lists(_rationals, min_size=1, max_size=4).map(poly)
_nonzero_polys = _polys.filter(lambda p: not p.is_zero())
_factors = st.tuples(_nonzero_polys, st.sampled_from([0, 0, 1, 2])).map(
    lambda fk: fk[0].shift(fk[1]))
_inner_series = st.builds(
    lambda v, lead, rest: PowerSeries("q", v, [lead] + rest,
                                      v + 1 + len(rest)),
    st.integers(1, 2), _rationals.filter(bool),
    st.lists(_rationals, max_size=6))


def _same_series(a, b):
    assert (a.val, a.coeffs, a.order) == (b.val, b.coeffs, b.order)


@settings(max_examples=150, deadline=None)
@given(_polys, _nonzero_polys, _factors, st.integers(1, 8), _inner_series)
def test_common_factor_changes_no_value(n, d, f, k, s):
    """The quotient is kept unreduced: a common factor changes no value.
    The evaluation at a series also reports the same order when the pole
    sits at z = 0 (d(0) = 0) or the factor is a power of z, which the
    constructor strips; otherwise a factor with f(0) != 0 may shorten
    the known window, on which the two still agree."""
    plain, padded = RationalFunction(n, d), RationalFunction(n * f, d * f)
    assert padded == plain
    _same_series(padded.series("z", k), plain.series("z", k))
    value, expect = padded.eval_series(s), plain.eval_series(s)
    if d.val > 0 or len(f.coeffs) == 1:
        _same_series(value, expect)
    else:
        assert value == expect


class TestRationalFunction:
    def test_reduction(self):
        rf = RationalFunction(poly([rat(0), rat(2), rat(2)]),
                              poly([rat(0), rat(4)]))
        assert rf == RationalFunction(poly([rat(1), rat(1)]),
                                      poly([rat(2)]))

    def test_common_z_power_is_stripped(self):
        rf = RationalFunction(poly([0, 0, 3, 3]), poly([0, 2, 2]))
        assert rf.num == poly([0, Q(3, 2), Q(3, 2)])
        assert rf.den == poly([1, 1])

    def test_deriv_quotient_rule(self):
        rf = RationalFunction(poly([rat(1)]), poly([rat(1), rat(-1)]))
        # d/dz 1/(1-z) = 1/(1-z)^2
        expect = RationalFunction(poly([rat(1)]),
                                  poly([rat(1), rat(-1)])
                                  * poly([rat(1), rat(-1)]))
        assert rf.deriv() == expect

    def test_series_of_pole(self):
        rf = RationalFunction(poly([rat(1)]), poly([rat(0), rat(1)]))
        s = rf.series("z", 4)
        assert s.val == -1 and s.coeff(-1) == 1

    def test_eval_series_constant_denominator(self):
        s = PowerSeries("q", 1, [1, 3], 6)
        assert RationalFunction(0).eval_series(s).is_zero()
        value = RationalFunction(poly([1, 0, 2])).eval_series(s)
        assert value.order == 7 and (value - (1 + 2 * s * s)).is_zero()


#: Stirling numbers of the second kind S(k, j), j = 0 .. k
STIRLING2 = ([1], [0, 1], [0, 1, 1], [0, 1, 3, 1], [0, 1, 7, 6, 1],
             [0, 1, 15, 25, 10, 1])

_operators = st.lists(_polys, min_size=1, max_size=6).filter(
    lambda cs: not all(c.is_zero() for c in cs)).map(DeltaOperator)
_laurent_series = st.builds(
    lambda v, cs, order: PowerSeries("z", v, cs, order or v + len(cs)),
    st.integers(-2, 3), st.lists(_rationals, max_size=8),
    st.sampled_from([0, 0, 0, BIG_ORDER]))


class TestStirlingConversion:
    def test_delta_powers_have_stirling_coefficients(self):
        # delta^k = sum_j S(k, j) z^j (d/dz)^j
        for k, row in enumerate(STIRLING2):
            b = DeltaOperator([0] * k + [1]).to_dz()
            expect = [PowerSeries.monomial("z", j, s) for j, s in
                      enumerate(row)]
            assert [(p.val, p.coeffs, p.order) for p in b] == \
                [(p.val, p.coeffs, p.order) for p in expect]

    @settings(max_examples=300, deadline=None)
    @given(_operators, _laurent_series)
    def test_dz_form_applies_like_the_operator(self, op, f):
        derivs = ladder(f, op.degree, PowerSeries.deriv)
        total = sum((b * d for b, d in zip(op.to_dz(), derivs)),
                    PowerSeries.zero("z"))
        assert op.apply(f) == total

    def test_delta_power_as_dz(self):
        # delta^2 f = z f' + z^2 f'' checked on f = z^3
        op = DeltaOperator([poly([]), poly([]), poly([rat(1)])])
        f = PowerSeries.monomial("z", 3, 1, order=8)
        applied = op.apply(f)
        assert applied.power_part().coeff(3) == 9


class TestFrobeniusBasis:
    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_operator_annihilates_basis(self, s):
        op = mirror_operator(s)
        for f in frobenius_basis(s, 16):
            assert op.apply(f).is_zero()

    def test_log_degrees(self):
        basis = frobenius_basis(5, 8)
        assert [f.log_degree for f in basis] == [0, 1, 2, 3]

    def test_g_functions_match_direct_sums(self):
        # g0 is the central factorial ratio series, g1 its harmonic twin
        from math import factorial
        g0, g1 = g_functions(3, 7)[:2]
        for l in range(1, 7):
            c = rat(factorial(3 * l)) / rat(factorial(l)) ** 3
            h = sum((Q(1, k) for k in range(l + 1, 3 * l + 1)), rat(0))
            assert g0.coeff(l) == c
            assert g1.coeff(l) == 3 * c * h

    def test_pfq_matches_g0(self):
        g0 = g_functions(3, 10)[0]
        f = pfq_series([Q(1, 3), Q(2, 3)], [rat(1)], rat(27), 10)
        assert (g0 - f).is_zero()

    def test_requires_s_at_least_3(self):
        with pytest.raises(ValueError):
            mirror_operator(2)

    @pytest.mark.parametrize("s", range(3, 9))
    def test_integer_jet_matches_the_series_jet(self, s):
        # the reference: the jet as a PowerSeries in H of order s-1, with
        # a Newton inverse of (l+H) raised to the power s at every step
        def series_jet(order):
            a = PowerSeries.one("H", s - 1)
            g = [[a.coeff(m)] for m in range(s - 1)]
            for l in range(1, order):
                for k in range(s * (l - 1) + 1, s * l + 1):
                    a = a * PowerSeries("H", 0, (k, s), s - 1)
                a = a * PowerSeries("H", 0, (l, 1), s - 1).inverse() ** s
                for m in range(s - 1):
                    g[m].append(a.coeff(m))
            return [PowerSeries("z", 0, gm, order) for gm in g]

        for order in (1, 2, 3, 17, 40):
            got = g_functions(s, order)
            assert len(got) == s - 1
            for g, want in zip(got, series_jet(order)):
                _same_series(g, want)

    @pytest.mark.parametrize("s", range(3, 9))
    def test_g0_is_the_factorial_ratio(self, s):
        from math import factorial
        g0 = g_functions(s, 30)[0]
        assert [g0.coeff(l) for l in range(30)] == \
            [factorial(s * l) // factorial(l) ** s for l in range(30)]


class TestNormalForms:
    def test_symmetric_square(self):
        assert symmetric_square_check(20).is_zero()

    def test_second_order_q_has_double_pole(self):
        q_rf = second_order_normal_form(mirror_operator(3))
        s = q_rf.series("z", 4)
        assert s.val == -2 and s.coeff(-2) == Q(1, 4)

    def test_fourth_order_reduction_consistency(self):
        q2, q0 = fourth_order_normal_form(mirror_operator(5))
        # the first-derivative coefficient equals dQ2/dz by construction;
        # spot-check the double pole of Q2
        s = q2.series("z", 2)
        assert s.val == -2 and s.coeff(-2) == Q(5, 2)

    @pytest.mark.parametrize("form, s, val, orders", [
        ("Q(s=3)", 3, -2, {1: -1, 2: 0, 3: 1, 8: 6, 24: 22}),
        ("Q(eighth)", 4, -2, {1: -1, 2: 0, 3: 1, 8: 6, 24: 22}),
        ("Q2", 5, -2, {1: -1, 2: 0, 3: 1, 8: 6, 24: 22}),
        ("Q2'", 5, -3, {1: -2, 2: -1, 3: 0, 8: 5, 24: 21}),
        ("Q0", 5, -4, {1: -3, 2: -2, 3: -1, 8: 4, 24: 20}),
    ])
    def test_eval_series_orders_at_mirror_map(self, form, s, val, orders):
        """The orders the identities certify from: with z(q) known to
        order N, a potential with a pole of order a at z = 0 is known to
        order N - (a + 1)."""
        q2, q0 = fourth_order_normal_form(mirror_operator(5))
        rf = {"Q(s=3)": second_order_normal_form(mirror_operator(3)),
              "Q(eighth)": second_order_normal_form(eighth_operator()),
              "Q2": q2, "Q2'": q2.deriv(), "Q0": q0}[form]
        for n, order in orders.items():
            value = rf.eval_series(mirror_data(s, n).z_of_q)
            assert (value.val, value.order) == (val, order)

    def test_second_order_rejects_higher_order(self):
        with pytest.raises(ValueError):
            second_order_normal_form(mirror_operator(5))


class TestBuildOperator:
    def test_eighth_annihilates_its_f0(self):
        f = pfq_series([Q(1, 8), Q(3, 8)], [rat(1)], rat(256), 12)
        assert eighth_operator().apply(f).is_zero()


def test_public_exports_resolve():
    import mirrormap
    assert len(set(mirrormap.__all__)) == len(mirrormap.__all__)
    for name in mirrormap.__all__:
        assert hasattr(mirrormap, name), name
