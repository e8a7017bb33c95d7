import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FROZEN_61BIT_PRIMES,
    sl2_order_bruteforce,
    sl2_order_paircount,
    sl2_perfect_restart,
)
from towercert.elliptic import (
    ELEMENT_BUDGET,
    PERFECT_LIMIT,
    FurutaWitness,
    GroupReport,
    furuta_n,
    _abelianization_order,
    _witness_holds,
    sl2_order,
    sl2_perfect,
)
from towercert.errors import DomainError, ResourceLimitError

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
        with pytest.raises(DomainError):
            furuta_n(15, 30)

    def test_bad_m_e_rejected(self):
        with pytest.raises(DomainError):
            furuta_n(5, 31)
        with pytest.raises(DomainError):
            furuta_n(5, 0)

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
        for ell in (2, 5, 7, 19):
            witness = furuta_n(ell, 30)
            assert all(p % ell == 1 for p in witness.primes)
            assert len(set(witness.primes)) == len(witness.primes)

    def test_witness_validation(self):
        with pytest.raises(DomainError):
            FurutaWitness(5, 30, ELL5_NINE_PRIMES, n=2)  # wrong product
        with pytest.raises(DomainError):
            FurutaWitness(5, 30, ELL5_NINE_PRIMES[:8], n=math.prod(ELL5_NINE_PRIMES[:8]))
        descending = tuple(reversed(ELL5_NINE_PRIMES))
        with pytest.raises(DomainError):
            FurutaWitness(5, 30, descending, n=math.prod(descending))


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
        # sl2_perfect splits n this way, so each a*b side is the full-n BFS.
        pairs = [(a, b) for a in range(2, 51) for b in range(a + 1, 51) if math.gcd(a, b) == 1 and a * b <= 100]
        moduli = {m for a, b in pairs for m in (a, b)}
        ab_order = {n: sl2_perfect(n).abelianization_order for n in moduli}
        for n in {a * b for a, b in pairs}:
            ab_order[n] = _abelianization_order(n)
        for a, b in pairs:
            assert ab_order[a * b] == ab_order[a] * ab_order[b], (a, b)

    def test_abelianization_is_gcd_with_12(self):
        for n in range(2, PERFECT_LIMIT + 1):
            assert sl2_perfect(n).abelianization_order == math.gcd(n, 12), n

    def test_witness_below_10_000(self):
        assert all(_witness_holds(n) for n in range(5, 10**4) if math.gcd(n, 6) == 1)

    @pytest.mark.parametrize("ell, m_e", [(5, 30), (2659, 30), (11779, 210)])
    def test_witness_for_furuta_n(self, ell, m_e):
        # the groups the linear-disjointness step uses, far past PERFECT_LIMIT
        assert _witness_holds(furuta_n(ell, m_e).n)

    def test_witness_mismatch_raises(self, monkeypatch):
        import towercert.elliptic as mod

        monkeypatch.setattr(mod, "_witness_holds", lambda n: False)
        with pytest.raises(ResourceLimitError):
            sl2_perfect(7)
        # a {2,3}-smooth n has no n' factor to witness
        assert sl2_perfect(8).abelianization_order == 4

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            sl2_perfect(1)
        with pytest.raises(DomainError):
            sl2_perfect(101)

    def test_budget_enforced(self, monkeypatch):
        import towercert.elliptic as mod

        # n = 28: the BFS runs on the {2,3}-part 4, whose closure has 12 elements
        monkeypatch.setattr(mod, "ELEMENT_BUDGET", 10)
        with pytest.raises(ResourceLimitError):
            sl2_perfect(28)

    def test_budget_unused_prime_to_6(self, monkeypatch):
        import towercert.elliptic as mod

        monkeypatch.setattr(mod, "ELEMENT_BUDGET", 1)
        assert sl2_perfect(97).perfect

    def test_default_budget_covers_77(self):
        assert sl2_order(77) < ELEMENT_BUDGET
        # the closure never holds more than the group, so no accepted n hits the budget
        assert all(sl2_order(n) < ELEMENT_BUDGET for n in range(2, PERFECT_LIMIT + 1))


class TestGroupReport:
    def test_abelianization_must_divide(self):
        with pytest.raises(DomainError):
            GroupReport(n=7, group_order=336, abelianization_order=5, perfect=False)

    def test_perfect_flag_must_match(self):
        with pytest.raises(DomainError):
            GroupReport(n=7, group_order=336, abelianization_order=1, perfect=False)
        with pytest.raises(DomainError):
            GroupReport(n=2, group_order=6, abelianization_order=2, perfect=True)

    @given(st.integers(min_value=2, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_report_internally_consistent(self, n):
        report = sl2_perfect(n)
        assert report.group_order % report.abelianization_order == 0
        assert report.perfect == (report.abelianization_order == 1)
