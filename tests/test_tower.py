import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from towercert import modforms
from towercert.arith import shanks_value
from towercert.errors import CertificationRejected, DomainError
from towercert.tower import (
    TORSION_ASSUMPTION,
    CyclotomicTowerCertificate,
    TowerProvenance,
    certify_cyclotomic,
    ramified_count,
    schoof_holds,
    schoof_rhs,
)
from towercert.modforms import certify_eigenform


def _synthetic_certificate(m: int, h: int, certified: bool, **changes) -> CyclotomicTowerCertificate:
    """A certificate for the real m with a given h; changes override its fields."""
    ell = shanks_value(m)
    fields = dict(
        ell=ell,
        m=m,
        h=h,
        rho=4 * h,
        rhs=schoof_rhs(3 * h, 3 * h),
        certified=certified,
        assumptions=("unit-index Q=1", TORSION_ASSUMPTION),
        provenance=TowerProvenance(m % 12, ell % 12, "synthetic", (), float(h), 0.0, 3 * h, h),
    )
    return CyclotomicTowerCertificate(**dict(fields, **changes))


class TestRamifiedCount:
    def test_h_18(self):
        assert ramified_count(18) == 72

    def test_h_1(self):
        assert ramified_count(1) == 4

    def test_h_25(self):
        assert ramified_count(25) == 100

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            ramified_count(0)


class TestSchoofBound:
    def test_rhs_h18(self):
        assert schoof_rhs(54, 54) == pytest.approx(3 + 54 + 2 * math.sqrt(55), rel=1e-15)
        assert schoof_rhs(54, 54) == pytest.approx(71.832, abs=1e-3)

    def test_rhs_h17(self):
        assert schoof_rhs(51, 51) == pytest.approx(68.422, abs=1e-3)

    def test_rhs_trivial(self):
        assert schoof_rhs(0, 0) == 5.0

    def test_holds_h18(self):
        assert schoof_holds(72, 54, 54)

    def test_fails_h17(self):
        assert not schoof_holds(68, 51, 51)

    def test_equality_boundary(self):
        assert schoof_holds(5, 0, 0)  # 2^2 = 4*(0+1) exactly

    def test_negative_field_rejected(self):
        for args in ((-1, 0, 0), (5, -1, 0), (5, 0, -1)):
            with pytest.raises(DomainError):
                schoof_holds(*args)

    def test_threshold_is_h_18(self):
        for h in range(1, 10**4 + 1):
            holds = schoof_holds(4 * h, 3 * h, 3 * h)
            assert holds == (h >= 18), h

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    def test_exact_comparison_matches_float_off_boundary(self, rho, d2b, d2t):
        rhs = schoof_rhs(d2b, d2t)
        if abs(rho - rhs) > 1e-6:  # stay away from the boundary float noise
            assert schoof_holds(rho, d2b, d2t) == (rho >= rhs)


class TestCertify:
    def test_m_50_certified(self):
        cert = certify_cyclotomic(50)
        assert cert.certified
        assert cert.ell == 2659
        assert cert.h == 19
        assert cert.rho == 76
        assert cert.rhs == pytest.approx(3 + 57 + 2 * math.sqrt(58), rel=1e-15)
        assert "unit-index Q=1" in cert.assumptions
        assert TORSION_ASSUMPTION in cert.assumptions
        assert cert.provenance.m_mod_12 == 2
        assert cert.provenance.ell_mod_12 == 7
        assert cert.provenance.ramified_infinite_places == 57
        assert cert.provenance.ramified_finite_primes == 19

    def test_m_2_not_certified(self):
        cert = certify_cyclotomic(2)
        assert not cert.certified
        assert cert.h == 1
        assert cert.ell == 19

    def test_m_3_rejected_both_reasons(self):
        with pytest.raises(CertificationRejected) as info:
            certify_cyclotomic(3)
        assert set(info.value.reasons) == {"composite", "residue"}
        assert info.value.context["ell"] == 27

    def test_m_1_rejected_residue_only(self):
        # ell = 13 is prime but 1 mod 12 is outside the filter
        with pytest.raises(CertificationRejected) as info:
            certify_cyclotomic(1)
        assert info.value.reasons == ("residue",)

    def test_m_26_rejected_composite_only(self):
        # m = 26 passes the filter (26 mod 12 = 2) but 763 = 7*109
        with pytest.raises(CertificationRejected) as info:
            certify_cyclotomic(26)
        assert info.value.reasons == ("composite",)

    def test_rho_is_4h(self):
        for m in (2, 11, 50):
            cert = certify_cyclotomic(m)
            assert cert.rho == 4 * cert.h


class TestRegistry:
    """Tower evidence in certify_eigenform: the literature set, else a certificate passed in."""

    def test_seeded_literature_entry(self):
        assert certify_eigenform(12, 877).tower_evidence == "literature"

    def test_certification_registers_computed(self):
        assert certify_eigenform(12, 2659, certify_cyclotomic(50)).tower_evidence == "computed"

    def test_uncertified_not_registered(self):
        cert = certify_eigenform(12, 19, certify_cyclotomic(2))
        assert cert.tower_evidence is None
        assert cert.rejection_reasons == ("no_tower_evidence",)

    def test_unseeded_prime_missing(self):
        assert certify_eigenform(12, 13).tower_evidence is None

    def test_uncertified_flag_is_no_evidence(self):
        # the certified flag decides, not h: m = 50's conductor with the flag cleared
        cert = certify_eigenform(12, 2659, _synthetic_certificate(50, 19, certified=False))
        assert cert.rejection_reasons == ("no_tower_evidence",)

    def test_certificate_for_another_ell_rejected(self):
        with pytest.raises(DomainError):
            certify_eigenform(12, 19, certify_cyclotomic(50))

    def test_seed_never_overwritten(self, monkeypatch):
        # 877 has m = 28, outside the residue filter, so it never carries a
        # computed certificate; seed the literature with m = 50's conductor instead.
        monkeypatch.setattr(modforms, "LITERATURE_CONDUCTORS", {2659})
        cert = certify_eigenform(12, 2659, _synthetic_certificate(50, 19, certified=True))
        assert cert.tower_evidence == "literature"
