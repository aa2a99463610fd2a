"""Mirror-map pipeline: inversion round-trip, integrality, f0 squares."""

import hashlib
import json

import pytest

from mirrormap.mirror import (integrality_report, mirror_data,
                              mirror_pipeline, verify_hodge_identity)
from mirrormap.series import (PowerSeries, TruncationError, rat,
                              series_to_record)
from mirrormap.yukawa import yukawa_from_definition


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


# SHA-256 of json.dumps(series_to_record(f)) for the order-101 bundles; the
# golden tables stop at order 24 and `verify integrality` prints pass/fail
BUNDLE_DIGESTS_101 = {
    (3, "q_of_z"):
        "af38586aad2248347e0b9b3088d2478731d561f94e7f3f729ea67f78d6e2a3dc",
    (3, "z_of_q"):
        "7985392de0bed4a78325be75c458fb90508f5a3ee81fafa05ca2731a002302ca",
    (3, "f0_tilde"):
        "4daf38fd60bfdc9eb9b798401bfdb2b7cd870c0212f30f6429127cf0e90d1c9f",
    (4, "q_of_z"):
        "1036a2465e349eb090c1e63de570d30fc638bb74eb58764877c66b0b2df1c6f9",
    (4, "z_of_q"):
        "26f785a4987959a5b401647e81ef4732312a1a366c7dd1f2e86990aad223d0ab",
    (4, "f0_tilde"):
        "cc01c1432a5c7cd15943297e6e7bca019430f2a343972ea886a4f1db76a014f3",
    (5, "q_of_z"):
        "c54c403ba6ae8872235999c39cd292fe8f881372dd37c1a2e77173ef46ac67e9",
    (5, "z_of_q"):
        "e0b0f143a305735bf6e496ca90510424bfab9f3ed68fb3daea16e9d87c97d1fa",
    (5, "f0_tilde"):
        "56e0a583441e6b64ee29e77afd59878d261972a002d448a7c6f02c811f35529d",
}
YUKAWA_DIGEST_101 = \
    "f242ae0955d152a36e8059dcfa5df807cd105a34d6bbd8b3301c83a489ec070f"


def _digest(f):
    return hashlib.sha256(json.dumps(series_to_record(f)).encode()).hexdigest()


@pytest.mark.parametrize("s", [3, 4, 5])
def test_order_101_bundle_digests(s):
    md = mirror_pipeline(s, 101)
    for name in ("q_of_z", "z_of_q", "f0_tilde"):
        assert _digest(getattr(md, name)) == BUNDLE_DIGESTS_101[s, name], name


def test_order_101_yukawa_digest():
    assert _digest(yukawa_from_definition(101)) == YUKAWA_DIGEST_101


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
