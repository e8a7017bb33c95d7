import math
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jacobi_symbol, odd_wheel_sieve, trial_division_prime
from towercert.arith import (
    MAX_NATURAL,
    exact_sqrt,
    factorize,
    is_prime,
    prime_flags,
)
from towercert.errors import DomainError, InputRangeError


class TestIsPrime:
    def test_certified_conductor(self):
        assert is_prime(2659)

    def test_literature_conductor(self):
        assert is_prime(877)

    def test_cube(self):
        assert not is_prime(27)

    def test_small_values(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_prime(2)
        assert is_prime(3)

    def test_agrees_with_trial_division_exhaustive(self):
        for n in range(2000):
            assert is_prime(n) == trial_division_prime(n), n

    @given(st.integers(min_value=0, max_value=10**5))
    def test_agrees_with_trial_division(self, n):
        assert is_prime(n) == trial_division_prime(n)

    def test_large_composite_and_prime(self):
        # 2^61 - 1 is a Mersenne prime; its predecessor is even
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 - 2)

    def test_width_overflow(self):
        with pytest.raises(InputRangeError):
            is_prime(2**63)
        with pytest.raises(InputRangeError):
            is_prime(-1)
        assert not is_prime(MAX_NATURAL)  # 2^63 - 1 = 7^2 * 73 * 127 * ...


class TestJacobi:
    def test_discriminant_at_5(self):
        assert jacobi_symbol(-3888, 5) == -1

    def test_discriminant_at_7(self):
        assert jacobi_symbol(-3888, 7) == 1

    def test_unit_numerator(self):
        assert jacobi_symbol(1, 15) == 1

    def test_shared_factor(self):
        assert jacobi_symbol(6, 9) == 0

    def test_even_modulus_rejected(self):
        with pytest.raises(DomainError):
            jacobi_symbol(3, 10)
        with pytest.raises(DomainError):
            jacobi_symbol(3, 0)
        with pytest.raises(DomainError):
            jacobi_symbol(3, -5)

    @given(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=0, max_value=10**4),
    )
    def test_multiplicative_in_numerator(self, a, b, idx):
        n = 2 * idx + 1
        if n < 1:
            return
        assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)

    def test_euler_criterion_on_odd_primes(self):
        for p in odd_wheel_sieve(200):
            if p == 2:
                continue
            for a in range(1, p):
                euler = pow(a, (p - 1) // 2, p)
                expected = 1 if euler == 1 else -1
                assert jacobi_symbol(a, p) == expected


class TestExactSqrt:
    def test_negative(self):
        assert exact_sqrt(-3888) is None

    def test_conductor_inversion_value(self):
        assert exact_sqrt(10609) == 103

    def test_zero(self):
        assert exact_sqrt(0) == 0

    @given(st.integers(min_value=0, max_value=10**6))
    def test_roundtrip(self, r):
        assert exact_sqrt(r * r) == r

    @given(st.integers(min_value=1, max_value=10**6))
    def test_off_by_one_not_square(self, r):
        assert exact_sqrt(r * r + 1) is None


def primes_up_to(bound):
    # the primes as hl_constant reads them off the sieve
    return list(compress(range(bound + 1), prime_flags(bound)))


class TestPrimesUpTo:
    def test_ten(self):
        assert primes_up_to(10) == [2, 3, 5, 7]

    def test_one(self):
        assert primes_up_to(1) == []

    def test_pi_of_million(self):
        assert len(primes_up_to(10**6)) == 78498

    def test_against_independent_sieve(self):
        assert primes_up_to(10**4) == odd_wheel_sieve(10**4)

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=3000))
    def test_against_independent_sieve_sampled(self, bound):
        assert primes_up_to(bound) == odd_wheel_sieve(bound)

    def test_every_small_bound_and_1e5(self):
        for bound in range(201):
            assert primes_up_to(bound) == odd_wheel_sieve(bound), bound
        assert primes_up_to(10**5) == odd_wheel_sieve(10**5)


class TestFactorize:
    def test_small_values(self):
        assert factorize(1) == []
        assert factorize(2) == [(2, 1)]
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
        assert factorize(2658) == [(2, 1), (3, 1), (443, 1)]

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            factorize(0)

    def test_against_bruteforce_product(self):
        for n in range(1, 3001):
            pairs = factorize(n)
            assert math.prod(p**e for p, e in pairs) == n, n
            primes = [p for p, _ in pairs]
            assert primes == sorted(set(primes)), n
            assert all(trial_division_prime(p) and e >= 1 for p, e in pairs), n
