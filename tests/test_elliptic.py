import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FROZEN_61BIT_PRIMES,
    abelianization_order_orbit,
    sl2_order_bruteforce,
    sl2_order_paircount,
    sl2_perfect_restart,
    trial_division_prime,
)
from towercert.arith import MAX_NATURAL, factorize
from towercert.elliptic import (
    MIN_FURUTA_PRIMES,
    _MAX_PROGRESSION_STEPS,
    furuta_n,
    sl2_order,
    sl2_perfect,
)
from towercert.errors import CertificationRejected, DomainError, InputRangeError

ELL5_NINE_PRIMES = (11, 31, 41, 61, 71, 101, 131, 151, 181)


class TestFurutaN:
    def test_ell_5_nine_primes(self):
        witness = furuta_n(5, 30)
        assert witness.primes == ELL5_NINE_PRIMES
        assert witness.n == math.prod(ELL5_NINE_PRIMES)
        assert math.gcd(witness.n, 30) == 1

    def test_product_reconstructs_mod_frozen_primes(self):
        witness = furuta_n(5, 30)
        for p in FROZEN_61BIT_PRIMES:
            residue = 1
            for q in witness.primes:
                residue = residue * (q % p) % p
            assert witness.n % p == residue

    def test_ell_2(self):
        witness = furuta_n(2, 30)
        assert witness.primes == (7, 11, 13, 17, 19, 23, 29, 31, 37)

    def test_count_below_nine_rejected(self):
        with pytest.raises(DomainError, match="nine"):
            furuta_n(5, 30, count=8)

    def test_composite_ell_rejected(self):
        with pytest.raises(CertificationRejected):
            furuta_n(15, 30)

    def test_argument_checks_in_order(self):
        # count and M_E are usage errors before ell is tested; a composite
        # ell is a rejection before M_E's width is
        with pytest.raises(DomainError, match="M_E"):
            furuta_n(15, 31)
        with pytest.raises(DomainError, match="nine"):
            furuta_n(15, 30, count=8)
        for ell, m_e in ((15, 30), (4, 30 * 10**28)):
            with pytest.raises(CertificationRejected) as caught:
                furuta_n(ell, m_e)
            assert caught.value.reasons == ("composite",)
            assert caught.value.context == {"ell": ell}

    def test_bad_m_e_rejected(self):
        with pytest.raises(DomainError):
            furuta_n(5, 31)
        with pytest.raises(DomainError):
            furuta_n(5, 0)

    def test_count_past_63_bits_rejected(self):
        # refused before the progression search, which would walk all its steps
        with pytest.raises(InputRangeError):
            furuta_n(5, 30, count=MAX_NATURAL + 1)

    def test_count_above_step_budget_rejected(self):
        # each progression step yields at most one prime, so the search could not succeed
        with pytest.raises(InputRangeError, match="progression steps"):
            furuta_n(5, 30, count=_MAX_PROGRESSION_STEPS + 1)

    def test_candidates_past_63_bits_rejected(self):
        # a prime near 2^62: the candidate 3*ell + 1 would pass the 63-bit width
        ell = 4611686018427387847
        with pytest.raises(InputRangeError, match=f"ell={ell}, count=9: .* after 2 steps"):
            furuta_n(ell, 30)

    def test_m_e_past_63_bits_rejected(self):
        # only the product n may pass the 63-bit width contract, not M_E
        with pytest.raises(InputRangeError):
            furuta_n(5, 30 * 10**28)
        largest = MAX_NATURAL // 30 * 30
        witness = furuta_n(5, largest)
        assert witness.m_e == largest
        assert all(math.gcd(p, largest) == 1 for p in witness.primes)

    def test_deterministic(self):
        assert furuta_n(7, 30) == furuta_n(7, 30)

    def test_larger_count(self):
        witness = furuta_n(5, 30, count=12)
        assert len(witness.primes) == 12
        assert witness.primes[:9] == ELL5_NINE_PRIMES

    def test_coprimality_to_larger_m_e(self):
        # M_E = 330 excludes 11 from the ell = 5 progression
        witness = furuta_n(5, 330)
        assert 11 not in witness.primes
        assert witness.primes[0] == 31
        assert all(math.gcd(p, 330) == 1 for p in witness.primes)

    def test_congruence_recheck(self):
        ells = (2, 5, 7, 19, 2659, 3547, 5119, 8563, 9127, 9319, 9907, 11779)
        for ell in ells:
            for m_e in (30, 210, 330):
                witness = furuta_n(ell, m_e)
                primes = witness.primes
                assert len(primes) >= MIN_FURUTA_PRIMES
                assert all(p < q for p, q in zip(primes, primes[1:])), primes
                for p in primes:
                    assert trial_division_prime(p), (ell, m_e, p)
                    assert p % ell == 1 and math.gcd(p, m_e) == 1, (ell, m_e, p)
                assert witness.n == math.prod(primes)


class TestSL2Order:
    def test_n_2(self):
        assert sl2_order(2) == 6

    def test_n_7(self):
        assert sl2_order(7) == 336

    def test_n_77(self):
        assert sl2_order(77) == 443520

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            sl2_order(1)
        with pytest.raises(DomainError):
            sl2_order(1001)

    def test_against_paircount_up_to_50(self):
        for n in range(2, 51):
            assert sl2_order(n) == sl2_order_paircount(n), n

    def test_paircount_oracle_against_bruteforce(self):
        for n in range(2, 13):
            assert sl2_order_paircount(n) == sl2_order_bruteforce(n), n

    def test_multiplicative_on_coprime_pairs(self):
        pairs = [(a, b) for a in range(2, 32) for b in range(2, 32) if math.gcd(a, b) == 1 and a * b <= 1000]
        for a, b in pairs:
            assert sl2_order(a * b) == sl2_order(a) * sl2_order(b), (a, b)


class TestSL2Perfect:
    def test_n_2(self):
        report = sl2_perfect(2)
        assert report.group_order == 6
        assert report.abelianization_order == 2
        assert not report.perfect

    def test_n_3(self):
        report = sl2_perfect(3)
        assert report.group_order == 24
        assert report.abelianization_order == 3
        assert not report.perfect

    def test_n_4_not_perfect(self):
        # 2 | n: the mod-2 quotient already has abelianization 2
        report = sl2_perfect(4)
        assert not report.perfect
        assert report.abelianization_order % 2 == 0

    def test_known_perfect_sample(self):
        for n in (7, 11, 49, 77):
            report = sl2_perfect(n)
            assert report.perfect, n
            assert report.group_order == sl2_order(n)

    def test_exhaustive_coprime_to_30_up_to_37(self):
        # larger coprime moduli (49, 77) are covered by test_known_perfect_sample
        for n in range(2, 38):
            if math.gcd(n, 30) == 1:
                assert sl2_perfect(n).perfect, n

    def test_matches_restart_oracle_up_to_30(self):
        for n in range(2, 31):
            report = sl2_perfect(n)
            assert (report.group_order, report.abelianization_order, report.perfect) == (
                sl2_perfect_restart(n)
            ), n

    def test_matches_restart_oracle_where_closure_is_proper(self):
        # past the range of test_matches_restart_oracle_up_to_30, and N != G: ab. orders 4, 12, 12
        for n in (32, 36, 48):
            report = sl2_perfect(n)
            assert (report.group_order, report.abelianization_order, report.perfect) == (
                sl2_perfect_restart(n)
            ), n

    def test_abelianization_multiplicative_on_coprime_pairs(self):
        # SL2(Z/ab) = SL2(Z/a) x SL2(Z/b) for coprime a, b, and the
        # abelianization of a direct product is the product of theirs.
        # Every side is a full-n closure, not the gcd(n, 12) of sl2_perfect.
        pairs = [(a, b) for a in range(2, 51) for b in range(a + 1, 51) if math.gcd(a, b) == 1 and a * b <= 100]
        moduli = {m for a, b in pairs for m in (a, b, a * b)}
        ab_order = {n: abelianization_order_orbit(n) for n in moduli}
        for a, b in pairs:
            assert ab_order[a * b] == ab_order[a] * ab_order[b], (a, b)

    def test_abelianization_is_gcd_with_12(self):
        # the {2,3}-smooth n, d = 2, 3, 4, 6, 12 among them: the closures behind the formula
        smooth = [n for n in range(2, 101) if all(p <= 3 for p, _ in factorize(n))]
        assert len(smooth) == 19 and smooth[-2:] == [81, 96]
        for n in smooth:
            assert abelianization_order_orbit(n) == math.gcd(n, 12), n

    def test_report_is_the_formula_up_to_1000(self):
        for n in range(2, 1001):
            report = sl2_perfect(n)
            d = math.gcd(n, 12)
            assert (report.group_order, report.abelianization_order, report.perfect) == (
                sl2_order(n), d, d == 1
            ), n

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            sl2_perfect(1)
        with pytest.raises(DomainError):
            sl2_perfect(1001)


class TestGroupReport:
    @given(st.integers(min_value=2, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_report_internally_consistent(self, n):
        report = sl2_perfect(n)
        assert report.group_order % report.abelianization_order == 0
        assert report.perfect == (report.abelianization_order == 1)
