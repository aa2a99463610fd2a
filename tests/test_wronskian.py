"""Wronskians, the ratio-annihilating operator R[t], and Schwarzians."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrormap.linalg import nullspace
from mirrormap.operators import frobenius_basis, second_order_normal_form, \
    mirror_operator
from mirrormap.relations import P2_CHAINS
from mirrormap.series import (BIG_ORDER, LogSeries, PowerSeries, Q,
                               TruncationError, rat)
from mirrormap.wronskian import (DiffPolynomial, IndeterminateWronskian,
                                 chain_ring, coefficient_dependence,
                                 coefficient_rows, monomial_value, r_operator,
                                 r_substitute, schwarzian, wronskian)


def ps(coeffs, val=0, order=None, var="z"):
    return PowerSeries(var, val,
                       [rat(c) for c in coeffs],
                       order if order is not None else val + len(coeffs))


class TestWronskian:
    def test_single_function(self):
        f = ps([1, 2, 3], order=8)
        assert (wronskian([f]) - f).is_zero()

    def test_one_and_log(self):
        one = PowerSeries.monomial("z", 0, 1, 10)
        logz = LogSeries([PowerSeries.zero("z", 10), one])
        w = wronskian([one, logz])
        # W(1, log z) = 1/z
        expect = PowerSeries.monomial("z", -1, 1, 9)
        assert (w.power_part() - expect).is_zero()

    def test_scaling_covariance(self):
        # W(g f_0, g f_1) = g^2 W(f_0, f_1)
        f0 = ps([1, 3, 1], order=10)
        f1 = ps([0, 1, 4, 1], order=10)
        g = ps([1, -2, 5], order=10)
        lhs = wronskian([g * f0, g * f1])
        rhs = g * g * wronskian([f0, f1])
        assert (lhs - rhs).is_zero()

    def test_dependent_functions_give_zero(self):
        f = ps([1, 1, 7], order=9)
        w = wronskian([f, 3 * f])
        assert w.is_zero()

    def test_indeterminate_policy(self, monkeypatch):
        # the guard fires when the determinant window is all zeros but no
        # exact dependence certifies it; the tight order bookkeeping makes
        # that unreachable from well-formed inputs, so exercise the wiring
        # by stubbing out the certificate search
        import importlib
        wr = importlib.import_module("mirrormap.wronskian")
        f = ps([1, 1, 7], order=9)
        monkeypatch.setattr(wr, "coefficient_dependence", lambda fs: [])
        with pytest.raises(IndeterminateWronskian):
            wr.wronskian([f, 3 * f])

    def test_decide_false_skips_certificate(self):
        f = ps([1, 1, 7], order=9)
        assert wronskian([f, 3 * f], decide=False).is_zero()

    def test_exact_dependent_inputs_are_certified(self):
        # order-less inputs: the row window stops at the stored support
        f = ps([1, 2], order=BIG_ORDER)
        g = ps([2, 4], order=BIG_ORDER)
        assert coefficient_dependence([f, g]) == [[Q(-2), Q(1)]]
        assert wronskian([f, g]).is_zero()

    def test_sparse_exact_inputs_give_one_row_per_stored_exponent(self):
        # z^-N, z^-N and 1 store coefficients at two exponents only; the
        # N - 1 exponents between them give zero rows, which are left out
        n = 10 ** 5
        fs = [PowerSeries.monomial("z", -n), PowerSeries.monomial("z", -n),
              PowerSeries.one("z")]
        assert coefficient_rows(fs) == [[1, 1, 0], [0, 0, 1]]
        assert coefficient_dependence(fs) == [[-1, 1, 0]]
        assert wronskian(fs).is_zero()

    @pytest.mark.parametrize("order", [6, BIG_ORDER])
    def test_zero_series_is_dependent(self, order):
        # the zero series has no coefficient rows at all
        assert wronskian([PowerSeries.zero("z", order)]).is_zero()

    def test_nullspace_of_no_rows_is_whole_space(self):
        assert nullspace([], 2) == [[1, 0], [0, 1]]

    def test_coefficient_dependence_finds_relation(self):
        f = ps([2, 0, 1], order=8)
        g = ps([1, 1], order=8)
        h = f + 2 * g
        dep = coefficient_dependence([f, g, h])
        assert len(dep) == 1
        a, b, c = dep[0]
        assert a == c * 1 and b == 2 * c or (f * a + g * b + h * c).is_zero()


class TestSchwarzian:
    def test_of_q_itself(self):
        # {q, t} = -1/2 since q = e^t
        q = PowerSeries.identity("q", 12)
        s = schwarzian(q)
        assert (s + Q(1, 2)).is_zero()

    def test_moebius_invariance(self):
        f = PowerSeries("z", 1, [rat(1), rat(4), rat(-3), rat(2)], 12)
        # (a f + b)/(c f + d) has the same Schwarzian
        g = (2 * f + 3) / (f + 5)
        assert (schwarzian(f) - schwarzian(g)).is_zero()

    def test_inverts_f_prime_once(self, monkeypatch):
        calls = []
        real = PowerSeries.inverse

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(PowerSeries, "inverse", counted)
        schwarzian(PowerSeries("z", 1, [rat(1), rat(4), rat(-3)], 12))
        assert len(calls) == 1


class TestROperator:
    def test_m2_is_schwarzian_form(self):
        basis = frobenius_basis(3, 18)[:2]
        rt = r_operator(basis)
        # R = t' t''' - (3/2) t''^2 - 2 Q t'^2 with Q the normal-form
        # potential of the second-order operator
        assert rt.coefficient((1, 0, 1)).coeff(0) == 1
        c2 = rt.coefficient((0, 2, 0))
        assert c2.coeff(0) == Q(-3, 2)
        q_rf = second_order_normal_form(mirror_operator(3))
        expect = -2 * q_rf.series("z", c2.order + 2)
        diff = rt.coefficient((2, 0, 0)) - expect
        assert diff.truncate(c2.order).is_zero()

    def test_m2_annihilates_ratio(self):
        basis = frobenius_basis(3, 18)[:2]
        rt = r_operator(basis)
        t = basis[1] * basis[0].power_part().inverse()
        assert r_substitute(rt, t).is_zero()

    def test_m3_annihilates_ratios_and_affine_images(self):
        basis = frobenius_basis(4, 14)[:3]
        rt = r_operator(basis)
        f0 = basis[0].power_part()
        for j in (1, 2):
            t = basis[j] * f0.inverse()
            assert r_substitute(rt, t).is_zero()
        # a t + b is the ratio (a f_j + b f_0)/f_0 of two other solutions,
        # so it must be annihilated as well
        t = basis[1] * f0.inverse()
        assert r_substitute(rt, t * 3 + 1).is_zero()

    def test_m2_kernel_contains_every_solution_ratio(self):
        # any ratio of independent solutions lies in the kernel, not just
        # f1/f0; mix the basis with a log-free denominator
        basis = frobenius_basis(3, 16)[:2]
        rt = r_operator(basis)
        f0 = basis[0].power_part()
        mixed = (basis[1] * 3 + f0 * 2) * (f0 * 5).inverse()
        assert r_substitute(rt, mixed).is_zero()

    def test_m2_shape(self):
        # three monomials t't''', t''^2, t'^2, all of symbol-degree 2;
        # the symbol weights split 4/4/2 with the series coefficient
        # carrying the balance on the light monomial
        basis = frobenius_basis(3, 16)[:2]
        rt = r_operator(basis)
        assert len(rt.terms) == 3
        assert rt.degree_set() == [2]
        assert rt.weight_set() == [2, 4]


class TestDiffPolynomial:
    SYM = ("a", "b")
    WTS = (2, 3)

    def test_arithmetic_and_weights(self):
        p = DiffPolynomial.monomial(self.SYM, self.WTS, (1, 0), rat(2))
        q = DiffPolynomial.monomial(self.SYM, self.WTS, (0, 1), rat(-1))
        r = p * p * q + q * rat(5)
        assert r.monomial_weight((2, 1)) == 7
        assert r.degree_set() == [1, 3]
        assert not r.is_quasi_homogeneous()

    def test_monomial_value_extends_its_parent(self):
        memo = {}
        assert monomial_value((2, 1), [rat(2), rat(3)], memo) == 12
        assert memo == {(1, 0): 2, (2, 0): 4, (2, 1): 12}
        # a memo hit is returned as stored, not recomputed
        memo[(2, 0)] = rat(5)
        assert monomial_value((3, 0), [rat(2), rat(3)], memo) == 10

    def test_evaluate(self):
        p = DiffPolynomial(self.SYM, self.WTS,
                           {(2, 0): rat(1), (0, 1): rat(-4)})
        assert p.evaluate([rat(3), rat(2)]) == 1

    def test_records(self):
        p = DiffPolynomial.monomial(self.SYM, self.WTS, (1, 2), Q(1, 3))
        rec = p.to_records()
        assert rec == [{"exponents": {"a": 1, "b": 2},
                        "coefficient": "1/3", "weight": 8}]


JETS, JET_WTS = chain_ring((("u'", 1, 4),))


def jet(exps, coeff=1):
    return DiffPolynomial.monomial(JETS, JET_WTS, exps, rat(coeff))


@st.composite
def jet_polys(draw):
    """Random polynomials in u' .. u''' (u'''' stays free for one
    derivative)."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
                  st.just(0)),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        max_size=5))
    return DiffPolynomial(JETS, JET_WTS, terms)


class TestTotalDerivative:
    def test_shifts_each_jet(self):
        for k in range(3):
            e = [0] * 4
            e[k] = 1
            d = jet(e).total_derivative()
            e[k], e[k + 1] = 0, 1
            assert d.terms == {tuple(e): 1}

    def test_chain_rule_on_a_monomial(self):
        # (3/2 u'^2 u''')' = 3 u' u'' u''' + 3/2 u'^2 u''''
        d = jet((2, 0, 1, 0), Q(3, 2)).total_derivative()
        assert d.terms == {(1, 1, 1, 0): 3, (2, 0, 0, 1): Q(3, 2)}

    @settings(max_examples=100, deadline=None)
    @given(jet_polys(), jet_polys())
    def test_leibniz_rule(self, p, q):
        lhs = (p * q).total_derivative()
        rhs = p.total_derivative() * q + p * q.total_derivative()
        assert (lhs - rhs).is_zero()
        assert ((p + q).total_derivative()
                - p.total_derivative() - q.total_derivative()).is_zero()

    @pytest.mark.parametrize("exps", [(0, 0, 0, 1), (1, 0, 0, 2)])
    def test_refuses_the_slot_past_the_top(self, exps):
        # the term that needs u^(5) is refused even beside terms that do not
        with pytest.raises(TruncationError, match="of u'''' is"):
            (jet((0, 1, 0, 0)) + jet(exps)).total_derivative()

    def test_stays_inside_each_chain(self):
        # the p2 ring B2 .. B2^(5), B4 .. B4''': each symbol's derivative is
        # its successor in its own chain, and B2^(5)' is not B4
        symbols, weights = chain_ring(P2_CHAINS)

        def mono(name):
            exps = [0] * len(symbols)
            exps[symbols.index(name)] = 1
            return DiffPolynomial.monomial(symbols, weights, exps)

        assert mono("B2''''").total_derivative().terms == \
            mono("B2'''''").terms
        assert mono("B4''").total_derivative().terms == mono("B4'''").terms
        with pytest.raises(TruncationError, match="of B2''''' is"):
            mono("B2'''''").total_derivative()

    def test_chain_ring_names_and_weights(self):
        assert chain_ring((("B2", 2, 3), ("t'", 1, 2))) == (
            ("B2", "B2'", "B2''", "t'", "t''"), (2, 3, 4, 1, 2))
