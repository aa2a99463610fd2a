"""Mirror-map pipeline: inversion round-trip, integrality, f0 squares."""

import pytest

from mirrormap.mirror import (integrality_report, mirror_data,
                              mirror_pipeline, verify_hodge_identity)
from mirrormap.series import PowerSeries, TruncationError, rat


class TestPipeline:
    def test_round_trip(self):
        md = mirror_pipeline(5, 20)
        back = md.q_of_z.compose(md.z_of_q)
        ident = PowerSeries("q", 1, [rat(1)], back.order)
        assert (back - ident).is_zero()

    def test_leading_coefficients(self):
        md = mirror_data(5, 16)
        assert md.q_of_z.val == 1 and md.q_of_z.coeff(1) == 1
        assert md.z_of_q.val == 1 and md.z_of_q.coeff(1) == 1
        assert md.f0_tilde.coeff(0) == 1

    def test_first_mirror_coefficients_s5(self):
        md = mirror_data(5, 8)
        assert md.z_of_q.coeff(2) == -770
        assert md.z_of_q.coeff(3) == 171525
        assert md.f0_tilde.coeff(1) == 120

    def test_rejects_small_s(self):
        with pytest.raises(ValueError):
            mirror_pipeline(2, 8)

    @pytest.mark.parametrize("order", [0, -3])
    def test_rejects_nonpositive_order(self, order):
        with pytest.raises(ValueError, match=f"got {order}"):
            mirror_pipeline(5, order)
        assert mirror_pipeline(5, 1).z_of_q.order == 2

    def test_cache_returns_same_object(self):
        assert mirror_data(4, 12) is mirror_data(4, 12)


class TestIntegrality:
    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_mirror_series_are_integral(self, s):
        md = mirror_data(s, 42)
        for f in (md.z_of_q, md.q_of_z.shift(-1), md.f0_tilde):
            assert integrality_report(f, 40)["pass"]

    def test_reports_first_failure(self):
        f = PowerSeries("q", 0, [rat(1), rat(2), rat(1) / 3], 3)
        rep = integrality_report(f, 2)
        assert rep == {"pass": False, "first_failure": 2}

    def test_raises_past_truncation(self):
        f = PowerSeries("q", 0, [rat(1)], 1)
        with pytest.raises(TruncationError):
            integrality_report(f, 1)


class TestHodgeIdentity:
    @pytest.mark.parametrize("s", [3, 4])
    def test_residual_vanishes(self, s):
        assert verify_hodge_identity(s, 28).is_zero()

    def test_rejects_s5(self):
        with pytest.raises(ValueError):
            verify_hodge_identity(5, 10)
