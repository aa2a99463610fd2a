"""Acceptance gate: the eleven end-to-end checks with their runtime budgets.

Every series comparison is exact (zero tolerance); the single floating-
point check carries an explicit 1e-9 tolerance against an independently
computed high-precision target.
"""

import time

import pytest

from mirrormap.golden import golden_report
from mirrormap.mirror import mirror_data, verify_hodge_identity
from mirrormap.operators import (frobenius_basis, g_functions,
                                 mirror_operator, symmetric_square_check)
from mirrormap.relations import (relation_search, verify_eq_fourth,
                                 verify_eq_second)
from mirrormap.series import Q, rat
from mirrormap.wronskian import r_operator, r_substitute
from mirrormap.yukawa import (evaluate_F0_at, instanton_numbers,
                              integrality_suite, lambert_expand,
                              verify_pandharipande, verify_yukawa_identity,
                              yukawa_coupling)


def _timed(budget_seconds):
    """Context manager asserting the block stays within its budget."""
    class _Timer:
        def __enter__(self):
            self.start = time.monotonic()
            return self

        def __exit__(self, *exc):
            if exc[0] is None:
                elapsed = time.monotonic() - self.start
                assert elapsed < budget_seconds, (
                    f"budget {budget_seconds}s exceeded: {elapsed:.1f}s")
            return False
    return _Timer()


def test_01_golden_s3():
    with _timed(1.0):
        md = mirror_data(3, 22)
        assert [md.q_of_z.coeff(n) for n in range(2, 8)] == \
            [15, 279, 5729, 124554, 2810718, 65114402]
        assert [md.z_of_q.coeff(n) for n in range(2, 8)] == \
            [-15, 171, -1679, 15054, -126981, 1024952]
        f0 = [1, 6, 0, 6, 6, 0, 0, 12, 0, 6, 0,
              0, 6, 12, 0, 0, 6, 0, 0, 12, 0]
        assert [md.f0_tilde.coeff(n) for n in range(21)] == f0


def test_02_golden_s4():
    with _timed(1.0):
        md = mirror_data(4, 10)
        assert [md.q_of_z.coeff(n) for n in range(2, 7)] == \
            [104, 15188, 2585184, 480222434, 94395247376]
        assert [md.z_of_q.coeff(n) for n in range(2, 7)] == \
            [-104, 6444, -311744, 13018830, -493025760]
        assert [md.f0_tilde.coeff(n) for n in range(9)] == \
            [1, 24, 24, 96, 24, 144, 96, 192, 24]


def test_03_golden_s5():
    with _timed(2.0):
        md = mirror_data(5, 10)
        assert [md.z_of_q.coeff(n) for n in range(1, 9)] == \
            [1, -770, 171525, -81623000, -35423171250, -54572818340154,
             -71982448083391590, -102693620674349200800]
        assert [md.f0_tilde.coeff(n) for n in range(8)] == \
            [1, 120, 21000, 14115000, 13414125000, 15234972675120,
             19285869813670920, 26264963911492602000]
        g0, g1, g2, g3 = g_functions(5, 6)
        assert [g0.coeff(n) for n in range(5)] == \
            [1, 120, 113400, 168168000, 305540235000]
        assert [g1.coeff(n) for n in range(5)] == \
            [0, 770, 810225, Q(3745679000, 3), Q(4627120640625, 2)]
        assert [g2.coeff(n) for n in range(5)] == \
            [0, 575, Q(4208175, 4), Q(16964522000, 9),
             Q(180021646778125, 48)]
        assert [g3.coeff(n) for n in range(5)] == \
            [0, -1150, Q(-3298375, 4), Q(-46661619875, 54),
             Q(-325329574909375, 288)]


def test_04_golden_yukawa():
    with _timed(2.0):
        K = yukawa_coupling(52)
        assert [K.coeff(n) for n in range(5)] == \
            [5, 2875, 4876875, 8564575000, 15517926796875]
        table = instanton_numbers(K, 3)
        assert list(table.n) == [2875, 609250, 317206375]
        full = instanton_numbers(K, 50)
        back = lambert_expand(full.n, 51)
        assert (K.truncate(51) - back).is_zero()


def test_05_identity_suite():
    with _timed(30.0):
        assert verify_hodge_identity(3, 32).is_zero()
        assert verify_hodge_identity(4, 32).is_zero()
        assert verify_yukawa_identity(32).is_zero()
        assert verify_eq_second(24).is_zero()
        assert verify_eq_fourth(24).is_zero()
        for resid in verify_pandharipande(20):
            assert resid.is_zero()


def test_06_operator_suite():
    for s in (3, 4, 5):
        op = mirror_operator(s)
        for f in frobenius_basis(s, 41):
            assert op.apply(f).is_zero()
    assert symmetric_square_check(20).is_zero()
    basis = frobenius_basis(3, 24)[:2]
    rt = r_operator(basis)
    nsym = len(rt.symbols)
    top = max((e for e in rt.terms if e[nsym - 1] > 0),
              key=lambda e: tuple(reversed(e)))
    lead = rt.terms[top]
    assert lead.coeff(0) == 1
    t = basis[1] * basis[0].power_part().inverse()
    resid = r_substitute(rt, t)
    assert resid.truncate(20).is_zero()


def test_07_integrality_suite():
    with _timed(10.0):
        items = integrality_suite(100)
        assert [i["item"] for i in items] == [
            f"s{s}.{name}" for s in (3, 4, 5)
            for name in ("z_of_q", "q_of_z/z", "f0_tilde")] + ["K/5"]
        assert all(i["pass"] for i in items)


def test_08_numeric_value():
    import mpmath
    mpmath.mp.dps = 50
    target = Q(10, 3) * mpmath.pi ** 3 - 120 * mpmath.zeta(3)
    computed = evaluate_F0_at(float(-2 * mpmath.pi), order=12)
    assert abs(computed - float(target)) < 1e-9


def test_09_property_suite():
    import test_properties as props
    props.test_reversion_round_trip()
    props.test_exp_log_round_trip()
    props.test_wronskian_vanishes_exactly_on_dependence()
    props.test_wronskian_scaling_covariance()
    props.test_second_order_operator_from_wronskians()
    props.test_schwarzian_moebius_invariance()


def test_10_relation_search():
    with _timed(600.0):
        result = relation_search(mode="p2", weight_bound=12, order=40, seed=0)
    # a miss is a reported failure, never a silent pass
    assert result.found, (
        f"no relation through quasi-weight 12; scanned {result.weights_scanned}")
    assert result.polynomial.is_quasi_homogeneous()
    assert result.weight == 12
    assert result.verified_fresh
    # the dual certification evaluates the relation on the actual
    # mirror-map data through order >= 16
    assert result.verified_dual


def test_11_p1_has_no_relation_through_weight_20():
    # every p1 stratum through quasi-weight 20 has full column rank modulo
    # the screen's prime, so no stratum needs exact elimination
    with _timed(6.0):
        result = relation_search(mode="p1", weight_bound=20, order=40, seed=0)
    assert not result.found
    assert result.weights_scanned == tuple(range(2, 21))
