import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towercert.errors import CertificationRejected, DomainError
from towercert.tower import (
    TORSION_ASSUMPTION,
    CyclotomicTowerCertificate,
    FieldSignature,
    KnownInfiniteRegistry,
    SchoofInput,
    TowerProvenance,
    certify_cyclotomic,
    ramified_count,
    schoof_holds,
    schoof_rhs,
    unit_2rank,
)


def _synthetic_certificate(ell: int, h: int, certified: bool) -> CyclotomicTowerCertificate:
    return CyclotomicTowerCertificate(
        ell=ell,
        m=1,
        h=h,
        rho=4 * h,
        rhs=schoof_rhs(3 * h, 3 * h),
        certified=certified,
        assumptions=("unit-index Q=1", TORSION_ASSUMPTION),
        provenance=TowerProvenance(1, 1, "synthetic", (), float(h), 0.0, 3 * h, h),
    )


class TestFieldSignature:
    def test_valid(self):
        FieldSignature(degree=6, r1=0, r2=3)

    def test_mismatch_rejected(self):
        with pytest.raises(DomainError):
            FieldSignature(degree=6, r1=1, r2=3)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            FieldSignature(degree=1, r1=-1, r2=1)


class TestUnit2Rank:
    def test_totally_real_3h(self):
        h = 18
        assert unit_2rank(FieldSignature(3 * h, 3 * h, 0)) == 3 * h

    def test_totally_imaginary_6h(self):
        h = 18
        assert unit_2rank(FieldSignature(6 * h, 0, 3 * h)) == 3 * h

    def test_rationals(self):
        assert unit_2rank(FieldSignature(1, 1, 0)) == 1

    def test_depends_only_on_r1_plus_r2(self):
        for degree in range(1, 61):
            for r2 in range(degree // 2 + 1):
                r1 = degree - 2 * r2
                assert unit_2rank(FieldSignature(degree, r1, r2)) == r1 + r2


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
        assert schoof_holds(SchoofInput(72, 54, 54))

    def test_fails_h17(self):
        assert not schoof_holds(SchoofInput(68, 51, 51))

    def test_equality_boundary(self):
        assert schoof_holds(SchoofInput(5, 0, 0))  # 2^2 = 4*(0+1) exactly

    def test_negative_field_rejected(self):
        with pytest.raises(DomainError):
            SchoofInput(-1, 0, 0)

    def test_threshold_is_h_18(self):
        for h in range(1, 10**4 + 1):
            holds = schoof_holds(SchoofInput(4 * h, 3 * h, 3 * h))
            assert holds == (h >= 18), h

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    def test_exact_comparison_matches_float_off_boundary(self, rho, d2b, d2t):
        rhs = schoof_rhs(d2b, d2t)
        if abs(rho - rhs) > 1e-6:  # stay away from the boundary float noise
            assert schoof_holds(SchoofInput(rho, d2b, d2t)) == (rho >= rhs)


class TestCertify:
    def test_m_50_certified(self):
        cert = certify_cyclotomic(50, KnownInfiniteRegistry())
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
        cert = certify_cyclotomic(2, KnownInfiniteRegistry())
        assert not cert.certified
        assert cert.h == 1
        assert cert.ell == 19

    def test_m_3_rejected_both_reasons(self):
        with pytest.raises(CertificationRejected) as info:
            certify_cyclotomic(3, KnownInfiniteRegistry())
        assert set(info.value.reasons) == {"composite", "residue"}
        assert info.value.context["ell"] == 27

    def test_m_1_rejected_residue_only(self):
        # ell = 13 is prime but 1 mod 12 is outside the filter
        with pytest.raises(CertificationRejected) as info:
            certify_cyclotomic(1, KnownInfiniteRegistry())
        assert info.value.reasons == ("residue",)

    def test_m_26_rejected_composite_only(self):
        # m = 26 passes the filter (26 mod 12 = 2) but 763 = 7*109
        with pytest.raises(CertificationRejected) as info:
            certify_cyclotomic(26, KnownInfiniteRegistry())
        assert info.value.reasons == ("composite",)

    def test_rho_is_4h(self):
        for m in (2, 11, 50):
            cert = certify_cyclotomic(m, KnownInfiniteRegistry())
            assert cert.rho == 4 * cert.h


class TestRegistry:
    def test_seeded_literature_entry(self):
        registry = KnownInfiniteRegistry()
        assert registry.known_infinite(877) == "literature"

    def test_certification_registers_computed(self):
        registry = KnownInfiniteRegistry()
        certify_cyclotomic(50, registry)
        assert registry.known_infinite(2659) == "computed"

    def test_uncertified_not_registered(self):
        registry = KnownInfiniteRegistry()
        certify_cyclotomic(2, registry)
        assert registry.known_infinite(19) is None

    def test_unseeded_prime_missing(self):
        assert KnownInfiniteRegistry().known_infinite(13) is None

    def test_composite_key_rejected(self):
        with pytest.raises(DomainError):
            KnownInfiniteRegistry().known_infinite(27)

    def test_record_rejects_uncertified(self):
        registry = KnownInfiniteRegistry()
        with pytest.raises(DomainError):
            registry.record(_synthetic_certificate(13, 1, certified=False))

    def test_seed_never_overwritten(self):
        registry = KnownInfiniteRegistry()
        registry.record(_synthetic_certificate(877, 18, certified=True))
        assert registry.known_infinite(877) == "literature"


class TestCertificateInvariants:
    def test_rho_must_be_4h(self):
        with pytest.raises(DomainError):
            _synthetic_certificate(13, 1, certified=False).__class__(
                ell=13,
                m=1,
                h=1,
                rho=5,
                rhs=5.0,
                certified=False,
                assumptions=(),
                provenance=TowerProvenance(1, 1, "synthetic", (), 1.0, 0.0, 3, 1),
            )
