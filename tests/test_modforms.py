import hashlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    EXCEPTIONAL_TABLE_SHA256,
    bernoulli,
    level_one_eigenforms,
    prime_factors,
    residue_scan,
    swinnerton_dyer_types,
    trial_division_prime,
)
from towercert.errors import DomainError
from towercert.modforms import (
    EXCEPTIONAL_PRIMES,
    VALID_WEIGHTS,
    certify_eigenform,
    det_image_index,
    exceptional_primes,
    verify_residue_claim,
)
from towercert.tower import certify_cyclotomic


class TestExceptionalTable:
    def test_weight_12(self):
        assert exceptional_primes(12) == {2, 3, 5, 7, 23, 691}

    def test_weight_26(self):
        assert exceptional_primes(26) == {2, 3, 5, 7, 11, 17, 19, 657931}

    def test_weight_20_doubled_comma_reading(self):
        assert exceptional_primes(20) == {2, 3, 5, 7, 11, 13, 283, 617}

    def test_no_eigenform_weights_rejected(self):
        for k in (14, 24, 10, 13, 28):
            with pytest.raises(DomainError):
                exceptional_primes(k)

    def test_all_entries_prime(self):
        for k in VALID_WEIGHTS:
            for p in exceptional_primes(k):
                assert trial_division_prime(p), (k, p)

    @pytest.mark.parametrize("k", VALID_WEIGHTS)
    def test_eisenstein_primes_listed(self, k):
        # a prime dividing the numerator of B_k/(2k) makes the eigenform
        # congruent to the Eisenstein series E_k: type (i) with m = 0
        numerator = abs((bernoulli(k) / (2 * k)).numerator)
        assert prime_factors(numerator) <= EXCEPTIONAL_PRIMES[k]

    def test_weight_20_eisenstein_primes(self):
        # B_20/40 has numerator -174611 = -283 * 617: the doubled comma splits 283 from 617
        assert prime_factors(abs((bernoulli(20) / 40).numerator)) == {283, 617}

    def test_checksum(self):
        canonical = ";".join(
            f"{k}:{','.join(map(str, sorted(v)))}"
            for k, v in sorted(EXCEPTIONAL_PRIMES.items())
        )
        digest = hashlib.sha256(canonical.encode("ascii")).hexdigest()
        assert digest == EXCEPTIONAL_TABLE_SHA256


# q-expansions to q^299: a_p for the 61 primes p < 300
EXPANSION_LENGTH = 300


@pytest.fixture(scope="module")
def eigenforms():
    return level_one_eigenforms(EXPANSION_LENGTH)


class TestExceptionalCongruences:
    def test_expansions_are_normalized_hecke_eigenforms(self, eigenforms):
        assert eigenforms[12][1:6] == [1, -24, 252, -1472, 4830]  # Ramanujan's tau
        for k, a in eigenforms.items():
            assert a[0] == 0 and a[1] == 1, k
            for m in range(2, EXPANSION_LENGTH):
                for n in range(m + 1, EXPANSION_LENGTH // m + 1):
                    if m * n < EXPANSION_LENGTH and math.gcd(m, n) == 1:
                        assert a[m * n] == a[m] * a[n], (k, m, n)
            for p in filter(trial_division_prime, range(2, 18)):
                assert a[p * p] == a[p] ** 2 - p ** (k - 1), (k, p)

    @pytest.mark.parametrize("k", VALID_WEIGHTS)
    def test_every_listed_prime_meets_a_type(self, k, eigenforms):
        for ell in EXCEPTIONAL_PRIMES[k]:
            assert swinnerton_dyer_types(k, ell, eigenforms[k]), (k, ell)

    def test_non_eisenstein_rows_meet_their_types(self, eigenforms):
        # the listed primes that divide no numerator of B_k/(2k) and exceed k+1
        assert swinnerton_dyer_types(12, 23, eigenforms[12]) == {"ii", "iii"}
        assert swinnerton_dyer_types(16, 31, eigenforms[16]) == {"ii", "iii"}
        assert swinnerton_dyer_types(16, 59, eigenforms[16]) == {"iii"}

    @pytest.mark.parametrize("k", VALID_WEIGHTS)
    def test_unlisted_primes_meet_none(self, k, eigenforms):
        # the check tells primes apart: no other prime below 400 meets a type
        for ell in filter(trial_division_prime, range(2, 400)):
            if ell not in EXCEPTIONAL_PRIMES[k]:
                assert not swinnerton_dyer_types(k, ell, eigenforms[k]), (k, ell)


class TestDetImageIndex:
    def test_877(self):
        assert det_image_index(12, 877) == 1

    def test_2659_weight_16(self):
        assert det_image_index(16, 2659) == 3

    def test_23_weight_12(self):
        assert det_image_index(12, 23) == 11

    def test_composite_rejected(self):
        with pytest.raises(DomainError):
            det_image_index(12, 15)

    def test_even_prime_rejected(self):
        with pytest.raises(DomainError):
            det_image_index(12, 2)

    @given(
        st.sampled_from(VALID_WEIGHTS),
        st.sampled_from((5, 7, 13, 23, 877, 691, 2659, 3547, 5119, 8563, 43867)),
    )
    def test_divides_both(self, k, ell):
        index = det_image_index(k, ell)
        assert (k - 1) % index == 0
        assert (ell - 1) % index == 0

    def test_forced_3_for_weights_16_22(self):
        # the family's prime conductors are all 1 mod 3, so 3 | gcd(k-1, ell-1)
        from towercert.hlsearch import search_shanks_candidates

        for cand in search_shanks_candidates(997):  # conductors up to ~10^6
            if not cand.is_prime_ell:
                continue
            for k in (16, 22):
                assert det_image_index(k, cand.ell) % 3 == 0
                assert det_image_index(k, cand.ell) >= 3


class TestCertifyEigenform:
    def test_877_literature(self):
        cert = certify_eigenform(12, 877)
        assert cert.certified
        assert cert.tower_evidence == "literature"
        assert cert.galois_group_full
        assert cert.rejection_reasons == ()

    def test_691_exceptional(self):
        cert = certify_eigenform(12, 691)
        assert not cert.certified
        assert not cert.not_exceptional
        assert "exceptional" in cert.rejection_reasons

    def test_2659_weight_16_det_index(self):
        cert = certify_eigenform(16, 2659, certify_cyclotomic(50))
        assert not cert.certified
        assert cert.det_index == 3
        assert "det_index" in cert.rejection_reasons
        assert cert.tower_evidence == "computed"  # evidence present, gate still fails

    def test_no_evidence(self):
        cert = certify_eigenform(12, 2659)
        assert not cert.certified
        assert cert.rejection_reasons == ("no_tower_evidence",)

    def test_monotone_in_registry(self):
        before = certify_eigenform(12, 2659)
        assert not before.certified
        after = certify_eigenform(12, 2659, certify_cyclotomic(50))
        assert after.certified
        assert after.tower_evidence == "computed"

    def test_reasons_match_flags_below_3000(self):
        for k in VALID_WEIGHTS:
            for ell in filter(trial_division_prime, range(3, 3000)):
                cert = certify_eigenform(k, ell)
                failed = (
                    ("exceptional", not cert.not_exceptional),
                    ("det_index", cert.det_index != 1),
                    ("no_tower_evidence", cert.tower_evidence is None),
                )
                assert cert.rejection_reasons == tuple(r for r, bad in failed if bad), cert
                assert cert.certified == (cert.rejection_reasons == ()), cert

    def test_bad_weight_rejected(self):
        with pytest.raises(DomainError):
            certify_eigenform(14, 877)

    def test_composite_ell_rejected(self):
        with pytest.raises(DomainError):
            certify_eigenform(12, 27)


class TestResidueClaim:
    def test_holds_for_12_18_20_26(self):
        for k in (12, 18, 20, 26):
            report = verify_residue_claim(k)
            assert report.claim_holds, k
            assert all(v.never_one for v in report.verdicts)

    def test_fails_for_16_22_at_q_3(self):
        for k in (16, 22):
            report = verify_residue_claim(k)
            assert not report.claim_holds
            q3 = next(v for v in report.verdicts if v.q == 3)
            assert q3.witnesses == (1, 2)
            assert q3.zero_classes == (0,)
            assert q3.forced  # every class surviving primality gives 1 mod 3
            others = [v for v in report.verdicts if v.q != 3]
            assert all(v.never_one for v in others)

    def test_prime_divisors(self):
        assert verify_residue_claim(12).prime_divisors == (11,)
        assert verify_residue_claim(16).prime_divisors == (3, 5)
        assert verify_residue_claim(18).prime_divisors == (17,)
        assert verify_residue_claim(20).prime_divisors == (19,)
        assert verify_residue_claim(22).prime_divisors == (3, 7)
        assert verify_residue_claim(26).prime_divisors == (5,)

    def test_against_independent_scan(self):
        for k in VALID_WEIGHTS:
            report = verify_residue_claim(k)
            oracle = residue_scan(k)
            assert set(report.prime_divisors) == set(oracle)
            for verdict in report.verdicts:
                assert list(verdict.witnesses) == oracle[verdict.q], (k, verdict.q)

    def test_bad_weight_rejected(self):
        with pytest.raises(DomainError):
            verify_residue_claim(15)
