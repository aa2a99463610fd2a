"""Hypergeometric operators, Frobenius bases, and normal forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrormap.operators import (DeltaOperator, RationalFunction,
                                 build_operator, eighth_operator,
                                 fourth_order_normal_form, frobenius_basis,
                                 g_functions, mirror_operator, pfq_series,
                                 poly, poly_divmod, poly_gcd,
                                 second_order_normal_form, stirling2,
                                 symmetric_square_check)
from mirrormap.series import LogSeries, PowerSeries, Q, rat


def _degree(p):
    return p.val + len(p.coeffs) - 1 if p.coeffs else -1


class TestPolynomialHelpers:
    def test_divmod(self):
        a = poly([rat(-1), rat(0), rat(1)])      # z^2 - 1
        b = poly([rat(1), rat(1)])               # z + 1
        q, r = poly_divmod(a, b)
        assert q == poly([rat(-1), rat(1)]) and r.is_zero()

    def test_gcd_is_monic(self):
        a = poly([rat(0), rat(2), rat(2)])
        b = poly([rat(0), rat(4)])
        g = poly_gcd(a, b)
        assert g == poly([rat(0), rat(1)])

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(poly([1]), poly([]))


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_polys = st.lists(_rationals, min_size=1, max_size=6).map(poly)
_nonzero_polys = _polys.filter(lambda p: not p.is_zero())


@settings(max_examples=150, deadline=None)
@given(_polys, _nonzero_polys)
def test_divmod_identity(a, b):
    q, r = poly_divmod(a, b)
    assert a == q * b + r
    assert _degree(r) < _degree(b)


@settings(max_examples=150, deadline=None)
@given(_nonzero_polys, _polys, _nonzero_polys)
def test_gcd_monic_common_divisor(a, b, f):
    g = poly_gcd(a * f, b * f)
    assert g.coeffs[-1] == 1
    for x in (a * f, b * f):
        assert poly_divmod(x, g)[1].is_zero()
    # the planted common factor divides the gcd
    assert poly_divmod(g, f)[1].is_zero()


class TestRationalFunction:
    def test_reduction(self):
        rf = RationalFunction(poly([rat(0), rat(2), rat(2)]),
                              poly([rat(0), rat(4)]))
        assert rf == RationalFunction(poly([rat(1), rat(1)]),
                                      poly([rat(2)]))

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


class TestStirlingConversion:
    def test_stirling_values(self):
        assert stirling2(4, 2) == 7 and stirling2(5, 3) == 25

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

    def test_second_order_rejects_higher_order(self):
        with pytest.raises(ValueError):
            second_order_normal_form(mirror_operator(5))


class TestBuildOperator:
    def test_kinds(self):
        assert build_operator("mirror", 3).degree == 2
        assert build_operator("eq1").degree == 2
        assert build_operator("eq4").degree == 3
        assert build_operator("eq20").degree == 4
        assert build_operator("eighth").degree == 2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_operator("nope")

    def test_eighth_annihilates_its_f0(self):
        f = pfq_series([Q(1, 8), Q(3, 8)], [rat(1)], rat(256), 12)
        assert eighth_operator().apply(f).is_zero()


def test_public_exports_resolve():
    import mirrormap
    assert len(set(mirrormap.__all__)) == len(mirrormap.__all__)
    for name in mirrormap.__all__:
        assert hasattr(mirrormap, name), name
