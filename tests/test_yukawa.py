"""Yukawa coupling, instanton inversion, prepotential, t-functions."""

import math

import pytest

from mirrormap.mirror import mirror_data
from mirrormap.operators import frobenius_basis
from mirrormap import yukawa
from mirrormap.series import LogSeries, PowerSeries, Q, TruncationError, rat
from mirrormap.yukawa import (eisenstein_analog, evaluate_F0_at,
                              instanton_numbers, lambert_expand, prepotential,
                              t_functions, verify_pandharipande,
                              verify_yukawa_identity, yukawa_coupling,
                              yukawa_from_definition)

FIRST_INSTANTONS = [2875, 609250, 317206375, 242467530000,
                    229305888887625]


def pullback_logseries(ls, zq, order):
    """Carry a log-series in z through z = z(q): the result is
    sum_k p_k(z(q)) (t + log(z/q))^k / k!, a LogSeries in q under t = log q.
    """
    shift = (zq / PowerSeries.identity("q", order + 1)).log()
    log_z = LogSeries([shift, PowerSeries.one("q")])
    power = LogSeries.from_power(PowerSeries.one("q", order))
    result = LogSeries.from_power(PowerSeries.zero("q", order))
    for k in range(ls.log_degree + 1):
        pk = ls.part(k).compose(zq) * Q(1, math.factorial(k))
        result = result + pk * power
        power = power * log_z
    return result


class TestCoupling:
    def test_first_coefficients(self):
        K = yukawa_coupling(4)
        assert K.coeff(0) == 5
        assert K.coeff(1) == 2875
        assert K.coeff(2) == 4876875
        assert K.coeff(3) == 8564575000

    def test_defining_identity(self):
        assert verify_yukawa_identity(24).is_zero()

    def test_k_over_5_is_integral(self):
        K = yukawa_coupling(40)
        assert all((K.coeff(m) / 5).denominator == 1 for m in range(40))

    def test_one_pipeline_per_coupling(self):
        # K to order n needs only the order-n mirror bundle
        mirror_data.cache_clear()
        K = yukawa_from_definition(12)
        assert mirror_data.cache_info().misses == 1
        assert K.order == 12

    def test_inverts_once(self, monkeypatch):
        # one inverse of z^3 (1 - 5^5 z) f0~^2, not of z, 1 - 5^5 z and f0~^2
        mirror_data(5, 12)
        calls = []
        real = PowerSeries.inverse

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(PowerSeries, "inverse", counted)
        yukawa_from_definition(12)
        assert len(calls) == 1

    def test_short_bundle_raises(self, monkeypatch):
        # a bundle known to fewer terms must not yield a silently short K
        monkeypatch.setattr(yukawa, "mirror_data",
                            lambda s, order: mirror_data(s, order - 2))
        with pytest.raises(TruncationError):
            yukawa_from_definition(12)


def test_integrality_suite_asks_one_order_past_its_own(monkeypatch):
    # integrality_report reads through q^order, so order + 1 terms suffice
    asked = []

    def recording(s, order):
        asked.append(order)
        return mirror_data(s, order)

    monkeypatch.setattr(yukawa, "mirror_data", recording)
    assert all(item["pass"] for item in yukawa.integrality_suite(24))
    assert asked and set(asked) == {25}


def test_yukawa_identity_asks_one_order_past_its_own(monkeypatch):
    # the residual is read through q^order, so order + 1 terms suffice
    asked = []

    def recording(s, order):
        asked.append(order)
        return mirror_data(s, order)

    monkeypatch.setattr(yukawa, "mirror_data", recording)
    yukawa_coupling.cache_clear()
    residual = yukawa.verify_yukawa_identity(24)
    assert residual.is_zero() and residual.order == 24
    assert set(asked) == {25}


class TestInstantons:
    def test_known_values(self):
        table = instanton_numbers(yukawa_coupling(8), 5)
        assert list(table.n) == FIRST_INSTANTONS

    def test_lambert_round_trip(self):
        K = yukawa_coupling(16)
        table = instanton_numbers(K, 15)
        back = lambert_expand(table.n, 16)
        assert (K - back).is_zero()

    def test_non_integral_input_raises(self):
        K = yukawa_coupling(6) + PowerSeries("q", 2, [Q(1, 2)], 6)
        with pytest.raises(ArithmeticError):
            instanton_numbers(K, 4)

    def test_wrong_constant_term_rejected(self):
        with pytest.raises(ValueError):
            instanton_numbers(PowerSeries("q", 0, [rat(1)] * 5, 5), 3)

    def test_N_is_divisor_sum(self):
        table = instanton_numbers(yukawa_coupling(8), 6)
        n = {l + 1: v for l, v in enumerate(table.n)}
        for m in range(1, 7):
            s = sum(n[m // k] * Q(1, k) ** 3
                    for k in range(1, m + 1) if m % k == 0)
            assert table.N[m - 1] == s


class TestPrepotential:
    def test_third_derivative_is_K(self):
        F = prepotential(16)
        K = yukawa_coupling(16)
        assert F.euler(3) == K

    def test_t_cubed_coefficient(self):
        F = prepotential(8)
        # part k holds k! [t^k]: 3! * 5/6 = 5
        assert F.part(3).coeff(0) == 5
        assert F.part(2).is_zero() and F.part(1).is_zero()

    def test_F_is_read_off_K(self, monkeypatch):
        # [q^m]F = [q^m]K / m^3: no Lambert inversion on the way to F
        def refuse(K, count):
            raise AssertionError("instanton_numbers called")

        monkeypatch.setattr(yukawa, "instanton_numbers", refuse)
        F = prepotential(16)
        assert F.part(0).order == 16
        assert all(F.part(0).coeff(m) == yukawa_coupling(16).coeff(m) / m ** 3
                   for m in range(1, 16))
        assert len(t_functions(16)) == 4
        assert all(r.is_zero() for r in verify_pandharipande(12))


class TestTFunctions:
    def test_pandharipande_residuals_vanish(self):
        for resid in verify_pandharipande(18):
            assert resid.is_zero()
            assert all(part.order == 18 for part in resid.parts)

    def test_match_frobenius_ratios(self):
        # t_j agrees with f_j/f_0 carried through z = z(q), t = log q
        order = 14
        md = mirror_data(5, order + 4)
        basis = frobenius_basis(5, order + 4)
        f0q = md.f0_tilde
        ts = t_functions(order)
        for j in (2, 3):
            pulled = pullback_logseries(basis[j], md.z_of_q, order)
            ratio = pulled * f0q.inverse()
            assert (ratio - ts[j]).truncate(order).is_zero()

    def test_prepotential_from_solution_ratios(self):
        # F(t) = (5/2)(f1 f3' - f0-normalized combination) reduces to
        # F = (5/2)(t1 t2 - t0 t3) on the t-side
        order = 14
        ts = t_functions(order)
        F = prepotential(order)
        combo = Q(5, 2) * (ts[1] * ts[2] - ts[0] * ts[3])
        assert (combo - F).truncate(order).is_zero()


class TestEisensteinAnalog:
    def test_K0_is_weight_four_eisenstein(self):
        K0, _ = eisenstein_analog(10)
        def sigma3(n):
            return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
        assert K0.coeff(0) == 1
        for m in range(1, 10):
            assert K0.coeff(m) == 240 * sigma3(m)

    def test_F0_third_derivative(self):
        K0, F0 = eisenstein_analog(12)
        assert F0.euler(3) == K0

    def test_evaluate_matches_mpmath(self):
        import mpmath
        t = -2 * math.pi
        q = mpmath.e ** (mpmath.mpf(t))
        ref = mpmath.mpf(t) ** 3 / 6
        for m in range(1, 12):
            c = sum(mpmath.mpf(240) / k ** 3
                    for k in range(1, m + 1) if m % k == 0)
            ref += c * q ** m
        assert abs(evaluate_F0_at(t, 12) - float(ref)) < 1e-12

    def test_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            evaluate_F0_at(0.5)
        with pytest.raises(ValueError):
            evaluate_F0_at(1e308)
