import math
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_quadratic_prime_count, odd_wheel_sieve
from towercert.arith import jacobi_symbol
from towercert.errors import DomainError, InputRangeError
from towercert.hlsearch import (
    CONDUCTOR_POLY,
    DEFAULT_RESIDUES,
    MAX_PRIME_BOUND,
    QuadraticIntPoly,
    discriminant,
    empirical_prime_count,
    hl_admissible,
    hl_constant,
    m_from_prime,
    search_shanks_candidates,
    shanks_value,
)

FROZEN_CONSTANT_1E6 = 0.28015118850435017


class TestDiscriminant:
    def test_conductor_poly(self):
        assert discriminant(CONDUCTOR_POLY) == -3888

    def test_family_poly(self):
        assert discriminant(QuadraticIntPoly(1, 3, 9)) == -27

    def test_pure_square(self):
        assert discriminant(QuadraticIntPoly(1, 0, 0)) == 0

    def test_overflow(self):
        with pytest.raises(InputRangeError):
            discriminant(QuadraticIntPoly(2**40, 0, 2**40))

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(DomainError):
            QuadraticIntPoly(0, 1, 1)


class TestAdmissibility:
    def test_conductor_poly_admissible(self):
        verdict = hl_admissible(CONDUCTOR_POLY)
        assert verdict.admissible and verdict.failures == ()

    def test_x_squared_fails_square_discriminant(self):
        verdict = hl_admissible(QuadraticIntPoly(1, 0, 0))
        assert not verdict.admissible
        assert verdict.failures == ("square-discriminant",)

    def test_always_even_fails_parity(self):
        verdict = hl_admissible(QuadraticIntPoly(2, 2, 2))
        assert not verdict.admissible
        assert verdict.failures == ("parity",)

    def test_fails_both(self):
        # 2k^2 - 2 = 2(k-1)(k+1): every value even, discriminant 16 square
        verdict = hl_admissible(QuadraticIntPoly(2, 0, -2))
        assert set(verdict.failures) == {"parity", "square-discriminant"}

    def test_even_sum_odd_constant(self):
        assert hl_admissible(QuadraticIntPoly(1, 3, 9)).admissible

    @given(
        st.integers(min_value=-50, max_value=50).filter(lambda a: a != 0),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
    )
    def test_against_inline_definition(self, a, b, c):
        verdict = hl_admissible(QuadraticIntPoly(a, b, c))
        parity_ok = (a + b) % 2 != 0 or c % 2 != 0
        d = b * b - 4 * a * c
        square = d >= 0 and math.isqrt(d) ** 2 == d
        assert verdict.admissible == (parity_ok and not square)


class TestShanksValue:
    def test_m_2(self):
        assert shanks_value(2) == 19
        assert 19 % 12 == 7

    def test_m_50(self):
        assert shanks_value(50) == 2659

    def test_m_91(self):
        assert shanks_value(91) == 8563

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            shanks_value(0)

    def test_overflow(self):
        with pytest.raises(InputRangeError):
            shanks_value(2**32)


class TestMFromPrime:
    def test_2659(self):
        assert m_from_prime(2659) == 50

    def test_3547(self):
        assert m_from_prime(3547) == 58

    def test_not_in_family(self):
        assert m_from_prime(20) is None

    def test_below_family_rejected(self):
        with pytest.raises(DomainError):
            m_from_prime(12)

    def test_roundtrip_exhaustive(self):
        for m in range(1, 10**4 + 1):
            assert m_from_prime(shanks_value(m)) == m


class TestSearch:
    def test_m_max_12(self):
        candidates = list(search_shanks_candidates(12))
        assert [(c.m, c.ell) for c in candidates] == [
            (2, 19),
            (7, 79),
            (10, 139),
            (11, 163),
        ]
        assert all(c.is_prime_ell for c in candidates)

    def test_m_max_1_empty(self):
        assert list(search_shanks_candidates(1)) == []

    def test_lazy_at_large_m_max(self):
        # a list of the ~2e9 candidates would never arrive
        head = islice(search_shanks_candidates(3_000_000_000), 3)
        assert [c.m for c in head] == [2, 7, 10]

    def test_prime_conductors_above_2000_at_m_max_58(self):
        candidates = search_shanks_candidates(58)
        large = [(c.m, c.ell) for c in candidates if c.is_prime_ell and c.ell > 2000]
        assert large == [(50, 2659), (58, 3547)]

    def test_empty_residues_rejected(self):
        with pytest.raises(DomainError):
            search_shanks_candidates(10, frozenset())

    def test_out_of_range_residues_rejected(self):
        with pytest.raises(DomainError):
            search_shanks_candidates(10, frozenset({2, 12}))

    def test_filtered_prime_conductors_are_7_mod_12(self):
        for cand in search_shanks_candidates(10**4):
            if cand.is_prime_ell:
                assert cand.ell % 12 == 7, cand

    def test_conductor_is_1_mod_3_off_multiples_of_3(self):
        for m in range(1, 10**4 + 1):
            if m % 3 != 0:
                assert shanks_value(m) % 3 == 1, m


class TestHLConstant:
    def test_single_factor(self):
        result = hl_constant(5)
        assert result.constant == 0.3125
        assert result.terms_used == 1

    def test_million_band(self):
        result = hl_constant(10**6)
        assert 0.27 <= result.constant <= 0.29
        assert abs(result.constant - FROZEN_CONSTANT_1E6) < 1e-9
        assert result.constant == result.partial_product / 4.0

    def test_below_5_rejected(self):
        with pytest.raises(DomainError):
            hl_constant(4)

    @pytest.mark.parametrize("bound", [MAX_PRIME_BOUND + 1, 2**63])
    def test_above_max_bound_rejected_before_sieving(self, bound):
        with pytest.raises(InputRangeError):
            hl_constant(bound)

    def test_recomputation_bit_identical(self):
        first = hl_constant(10**4)
        second = hl_constant(10**4)
        assert first == second

    def test_monotone_information(self):
        small = hl_constant(100)
        large = hl_constant(1000)
        extra = sum(
            math.log1p(-jacobi_symbol(-3888, p) / (p - 1))
            for p in odd_wheel_sieve(1000)
            if 100 < p
        )
        assert math.log(large.partial_product) == pytest.approx(
            math.log(small.partial_product) + extra, abs=1e-12
        )

    def test_factor_bounds(self):
        for p in odd_wheel_sieve(5000):
            if p < 5:
                continue
            factor = 1.0 - jacobi_symbol(-3888, p) / (p - 1)
            assert 1.0 - 1.0 / (p - 1) <= factor <= 1.0 + 1.0 / (p - 1)
            assert factor > 0.0


class TestEmpiricalCount:
    def test_x_20(self):
        report = empirical_prime_count(CONDUCTOR_POLY, 20, 0.28)
        assert report.count == 1

    def test_x_19_strict(self):
        report = empirical_prime_count(CONDUCTOR_POLY, 19, 0.28)
        assert report.count == 0

    def test_against_brute_force_at_million(self):
        constant = hl_constant(10**4).constant
        report = empirical_prime_count(CONDUCTOR_POLY, 10**6, constant)
        assert report.count == brute_quadratic_prime_count(144, 84, 19, 10**6)
        assert report.ratio == report.count / report.estimate

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=19, max_value=5 * 10**4))
    def test_against_brute_force_sampled(self, x):
        report = empirical_prime_count(CONDUCTOR_POLY, x, 0.28)
        assert report.count == brute_quadratic_prime_count(144, 84, 19, x)

    def test_estimate_formula(self):
        report = empirical_prime_count(CONDUCTOR_POLY, 10**4, 0.5)
        assert report.estimate == pytest.approx(
            0.5 * math.sqrt(10**4) / math.log(10**4), rel=1e-15
        )

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            empirical_prime_count(CONDUCTOR_POLY, 18, 0.28)
        with pytest.raises(DomainError):
            empirical_prime_count(QuadraticIntPoly(-1, 0, 19), 100, 0.28)
        with pytest.raises(DomainError):
            empirical_prime_count(CONDUCTOR_POLY, 100, 0.0)
