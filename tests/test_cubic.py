import cmath
import math
import tracemalloc

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CubicCharacterTable,
    afe_sums_reference,
    cubic_discriminant,
    digamma_l_value_squared,
    e1_reference,
    full_range_l_sum,
    gauss_sum_root_number,
    jacobi_sum_bruteforce,
    log_embedding_det,
    minkowski_class_number_one,
    trial_division_prime,
)
from towercert import cubic
from towercert.cubic import (
    INTEGRALITY_TOL,
    MAX_CONDUCTOR,
    UNIT_INDEX_ASSUMPTION,
    _afe_sums,
    _chi_indices,
    _e1,
    _jacobi_sum,
    _l_value,
    _least_primitive_root,
    class_number,
    galois_conjugate,
    l_sum,
    real_roots,
    regulator,
)
from towercert.errors import DomainError, InputRangeError, IntegralityError, NumericError
from towercert.hlsearch import search_shanks_candidates, shanks_value
from towercert.tower import certify_cyclotomic

# Analytic class numbers frozen after cross-checking small conductors
# against the Minkowski oracle and the digamma L-value route; the four
# h >= 18 entries are the certification anchors.
KNOWN_CLASS_NUMBERS = {
    1: 1,
    2: 1,
    7: 1,
    10: 1,
    11: 4,
    23: 4,
    31: 13,
    38: 7,
    43: 7,
    50: 19,
    58: 19,
    70: 31,
    91: 49,
    94: 31,
    95: 28,
    98: 31,
    107: 43,
}


class TestCubicPoly:
    def test_discriminant_is_conductor_squared(self):
        for m in range(1, 501):
            assert cubic_discriminant(-m, -(m + 3), -1) == shanks_value(m) ** 2


class TestRealRoots:
    def test_m_2_values(self):
        roots = real_roots(2)
        assert roots[0] == pytest.approx(3.5070186440929763, abs=1e-9)
        assert roots[1] == pytest.approx(-0.22187616226319096, abs=1e-9)
        assert roots[2] == pytest.approx(-1.2851424818297854, abs=1e-9)

    def test_descending_and_distinct(self):
        for m in (1, 2, 17, 200):
            roots = real_roots(m)
            assert roots[0] > roots[1] > roots[2]

    def test_root_identities_up_to_500(self):
        for m in range(1, 501):
            r0, r1, r2 = real_roots(m)
            scale = max(1.0, float(m))
            assert r0 * r1 * r2 == pytest.approx(1.0, abs=1e-9 * scale)
            assert r0 + r1 + r2 == pytest.approx(m, rel=1e-9)
            pair = r0 * r1 + r0 * r2 + r1 * r2
            assert pair == pytest.approx(-(m + 3), rel=1e-9)

    def test_residual_tolerance(self):
        for m in (1, 2, 50, 499):
            for r in real_roots(m):
                f = ((r - m) * r - (m + 3)) * r - 1.0
                assert abs(f) < 1e-10 * max(1.0, float(m) ** 3)


class TestGaloisConjugate:
    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            galois_conjugate(-1.0)

    def test_m_2_conjugate(self):
        roots = real_roots(2)
        assert galois_conjugate(roots[0]) == pytest.approx(roots[1], abs=1e-8)

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_three_cycle_on_roots(self, m):
        roots = real_roots(m)
        for r in roots:
            image = galois_conjugate(r)
            assert min(abs(image - s) for s in roots) < 1e-8 * max(1.0, abs(image))
            back = galois_conjugate(galois_conjugate(image))
            assert back == pytest.approx(r, rel=1e-8)

    def test_conjugate_is_root(self):
        for m in (1, 5, 107):
            for r in real_roots(m):
                c = galois_conjugate(r)
                f = ((c - m) * c - (m + 3)) * c - 1.0
                assert abs(f) < 1e-8 * max(1.0, float(m) ** 3)


class TestRegulator:
    def test_m_1_value(self):
        assert regulator(1) == pytest.approx(1.3650498675943825, rel=1e-10)

    def test_m_2_value(self):
        assert regulator(2) == pytest.approx(1.9521566965073147, rel=1e-10)

    def test_embedding_independence(self):
        for m in (1, 2, 50, 231):
            base = regulator(m)
            for pair in ((0, 1), (1, 2), (0, 2)):
                assert log_embedding_det(m, pair) == pytest.approx(base, rel=1e-9)

    def test_growth(self):
        assert regulator(50) > regulator(2)


class TestCubicCharacter:
    """The brute-force table in oracles.py that the L-sum tests compare against."""

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            l_sum(25)
        with pytest.raises(ValueError):
            CubicCharacterTable(25)

    def test_rejects_2_mod_3(self):
        with pytest.raises(DomainError):
            l_sum(11)
        with pytest.raises(ValueError):
            CubicCharacterTable(11)

    def test_equidistribution(self):
        for ell in (13, 19, 163, 2659):
            char = CubicCharacterTable(ell)
            counts = [0, 0, 0]
            for a in range(1, ell):
                counts[char.index(a)] += 1
            assert counts == [(ell - 1) // 3] * 3

    def test_multiplicative_exhaustive_small(self):
        for ell in (13, 19, 31, 37, 43, 127, 307):
            char = CubicCharacterTable(ell)
            for a in range(1, ell):
                for b in range(1, ell):
                    assert char.index(a * b % ell) == (char.index(a) + char.index(b)) % 3

    @given(st.integers(min_value=1, max_value=2658), st.integers(min_value=1, max_value=2658))
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_sampled_large(self, a, b):
        char = CubicCharacterTable(2659)
        assert char.index(a * b % 2659) == (char.index(a) + char.index(b)) % 3

    def test_index_domain(self):
        char = CubicCharacterTable(13)
        with pytest.raises(ValueError):
            char.index(0)
        with pytest.raises(ValueError):
            char.index(13)


class TestLSum:
    def test_character_orthogonality(self):
        for ell in (13, 19, 163):
            char = CubicCharacterTable(ell)
            total = sum(char.chi(a) for a in range(1, ell))
            assert abs(total) < 1e-9

    @pytest.mark.parametrize("ell", [13, 19, 163, 2659, 101449])
    def test_half_walk_matches_full_range_oracle(self, ell):
        assert abs(l_sum(ell) - full_range_l_sum(ell)) < 1e-9

    @pytest.mark.parametrize("ell", [2659, 248509])
    def test_memory_bounded(self, ell):
        # a few bytes per term of the longest series, not the old
        # discrete-log table's 8 bytes per residue
        n_terms = int(math.sqrt(37 * ell / (math.pi * 0.25)))
        tracemalloc.start()
        try:
            l_sum(ell)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n_terms + 4096

    def test_sums_match_pow_per_n_oracle_bit_for_bit(self):
        conductors = [ell for ell in range(7, 2000, 6) if trial_division_prime(ell)]
        conductors.append(shanks_value(2303))
        for ell in conductors:
            zeta = pow(_least_primitive_root(ell), (ell - 1) // 3, ell)
            assert _afe_sums(ell, zeta) == afe_sums_reference(ell, zeta), ell

    @pytest.mark.parametrize("ell", [7, 13, 19, 2659])
    def test_chi_indices_match_modular_powers(self, ell):
        zeta = pow(_least_primitive_root(ell), (ell - 1) // 3, ell)
        bucket = {1: 0, zeta: 1, zeta * zeta % ell: 2, 0: cubic._ELL_MULTIPLE}
        n_max = int(math.sqrt(37 * ell / (math.pi * 0.25)))
        idx = _chi_indices(ell, zeta, n_max)
        assert len(idx) == n_max + 1
        assert list(idx[1:]) == [bucket[pow(n, (ell - 1) // 3, ell)] for n in range(1, n_max + 1)]
        # the sentinel is exercised where multiples of ell fall inside the series
        assert (cubic._ELL_MULTIPLE in idx[1:]) == (ell <= n_max)

    def test_against_digamma_oracle(self):
        for ell in (13, 19, 163):
            s = l_sum(ell)
            s_sq = s.real * s.real + s.imag * s.imag
            assert s_sq == pytest.approx(digamma_l_value_squared(ell), rel=1e-9)

    def test_small_conductor_rejected(self):
        with pytest.raises(DomainError):
            l_sum(3)


class TestExponentialIntegral:
    def test_against_mpmath_on_log_grid(self):
        lo, hi = math.log(1e-8), math.log(40.0)
        for i in range(2001):
            x = min(math.exp(lo + (hi - lo) * i / 2000), 40.0)
            expected = float(mpmath.e1(x))
            assert abs(_e1(x) - expected) <= 1e-14 * expected, x
            assert _e1(x) == e1_reference(x), x  # same bits as the int-coefficient loop

    def test_zero_past_40(self):
        assert _e1(40.0) > 0.0
        assert _e1(40.5) == 0.0


class TestRootNumber:
    def test_jacobi_sum_matches_bruteforce_below_3000(self):
        checked = 0
        for ell in range(7, 3000, 6):  # the primes = 1 mod 3 are = 1 mod 6
            if trial_division_prime(ell):
                zeta = pow(_least_primitive_root(ell), (ell - 1) // 3, ell)
                assert _jacobi_sum(ell, zeta) == jacobi_sum_bruteforce(ell), ell
                checked += 1
        assert checked == 207

    @pytest.mark.parametrize("ell", [7, 19, 163, 2659, 11779, 19603])
    def test_matches_gauss_sum_oracle(self, ell):
        _, w = _l_value(ell)
        assert abs(w - gauss_sum_root_number(ell)) < 1e-12

    def test_unseparated_candidates_raise(self, monkeypatch):
        # each wrong root misses the theta relation by sqrt(3) * |P|, so at
        # a relative tolerance of 2 all three cube roots fit
        monkeypatch.setattr(cubic, "_ROOT_AGREE", 2.0)
        with pytest.raises(NumericError, match="root number mod 2659 not resolved"):
            l_sum(2659)

    def test_conjugate_jacobi_sum_raises(self, monkeypatch):
        # none of the cube roots of conj(J)/sqrt(ell) is the root number
        real_jacobi_sum = cubic._jacobi_sum

        def conjugate(ell, zeta):
            a, b = real_jacobi_sum(ell, zeta)
            return a - b, -b

        monkeypatch.setattr(cubic, "_jacobi_sum", conjugate)
        with pytest.raises(NumericError, match="root number mod 2659 not resolved"):
            l_sum(2659)

    def test_theta_relation_margin(self):
        # P alone, for the prime conductors in the residue filter with
        # m <= 3000, m = 42827 (the least |P| under the cap) and m = 99982:
        # the right cube root of J/sqrt(ell) fits P = w*conj(P) to
        # _ROOT_AGREE * |P|, and each wrong one misses by sqrt(3) * |P|
        ms = [c.m for c in search_shanks_candidates(3000) if c.is_prime_ell] + [42827, 99982]
        assert len(ms) == 252
        for m in ms:
            ell = shanks_value(m)
            zeta = pow(_least_primitive_root(ell), (ell - 1) // 3, ell)
            n_max = int(math.sqrt(37 * ell / math.pi))
            idx = _chi_indices(ell, zeta, n_max)
            sums = [0.0] * 4
            for n in range(1, n_max + 1):
                sums[idx[n]] += math.exp(-math.pi * n * n / ell)
            s0, s1, s2, _ = sums
            p = complex(s0 - 0.5 * (s1 + s2), math.sqrt(3.0) / 2.0 * (s1 - s2))
            a, b = _jacobi_sum(ell, zeta)
            angle = math.atan2(b * math.sqrt(3.0) / 2.0, a - b / 2.0)
            roots = [cmath.rect(1.0, (angle + 2.0 * math.pi * k) / 3.0) for k in range(3)]
            right, *wrong = sorted(abs(p - w * p.conjugate()) / abs(p) for w in roots)
            assert right < cubic._ROOT_AGREE, m
            assert min(wrong) >= 1.0, m

    def test_one_e1_series_per_l_sum(self, monkeypatch):
        # the root number costs no second AFE pass: E1 runs once per term
        # of the T = 0.25 series
        ell = 2659
        real_e1 = cubic._e1
        calls = []
        monkeypatch.setattr(cubic, "_e1", lambda x: calls.append(x) or real_e1(x))
        l_sum(ell)
        assert len(calls) == int(math.sqrt(cubic._KERNEL_CUTOFF / (math.pi / (ell * 0.25))))


class TestClassNumber:
    def test_known_values(self):
        for m, h in KNOWN_CLASS_NUMBERS.items():
            field = class_number(m)
            assert field.class_number == h, (m, field.class_number_float)
            assert field.integrality_gap < INTEGRALITY_TOL

    def test_minkowski_oracle_agreement(self):
        # 13 and 19 are the conductors where the oracle is conclusive
        assert minkowski_class_number_one(13) is True
        assert minkowski_class_number_one(19) is True
        assert class_number(1).class_number == 1
        assert class_number(2).class_number == 1

    def test_certification_anchors(self):
        for m in (50, 58, 70, 91):
            assert class_number(m).class_number >= 18

    def test_record_fields(self):
        field = class_number(2)
        assert field.ell == 19
        assert field.regulator == pytest.approx(regulator(2), rel=1e-12)

    def test_composite_conductor_rejected(self):
        with pytest.raises(DomainError):
            class_number(3)  # ell = 27

    def test_conductor_above_cap_rejected(self):
        # the least m past the cap whose conductor is prime and in the residue filter
        m = 100054
        assert shanks_value(99998) <= MAX_CONDUCTOR < shanks_value(m)
        for compute in (class_number, certify_cyclotomic):
            with pytest.raises(InputRangeError, match="MAX_CONDUCTOR"):
                compute(m)

    def test_embedding_invariance_of_h(self):
        # same integer from any embedding pair: recompute h with each pair
        for m in (2, 11, 50):
            ell = shanks_value(m)
            s = l_sum(ell)
            s_sq = s.real * s.real + s.imag * s.imag
            values = []
            for pair in ((0, 1), (1, 2), (0, 2)):
                h_float = s_sq / (4.0 * log_embedding_det(m, pair))
                assert abs(h_float - round(h_float)) < INTEGRALITY_TOL
                values.append(round(h_float))
            assert len(set(values)) == 1

    def test_matches_full_range_oracle_up_to_150(self):
        checked = 0
        for m in range(1, 151):
            ell = shanks_value(m)
            if trial_division_prime(ell):
                s = full_range_l_sum(ell)
                h = round(abs(s) ** 2 / (4.0 * log_embedding_det(m, (0, 1))))
                assert class_number(m).class_number == h, m
                checked += 1
        assert checked > 20

    @pytest.mark.parametrize(
        "h, reason", [(20, "5 divides h to an odd power"), (21, "3 divides h")]
    )
    def test_impossible_class_number_is_integrality_error(self, monkeypatch, h, reason):
        # |S|^2 = 4 * h * R makes the analytic value exactly h
        reg = regulator(50)
        monkeypatch.setattr(cubic, "l_sum", lambda ell: complex(math.sqrt(4.0 * h * reg), 0.0))
        with pytest.raises(IntegralityError, match=f"rounds to {h}, .*: {reason}") as info:
            class_number(50)
        assert info.value.value == pytest.approx(h, abs=1e-9)
        assert info.value.gap < INTEGRALITY_TOL
        assert info.value.unit_index_suspected is False

    def test_failing_gate_sums_once(self, monkeypatch):
        # one pass per conductor: a rejected value is not summed again
        reg = regulator(50)
        calls = []
        monkeypatch.setattr(
            cubic, "l_sum", lambda ell: calls.append(ell) or complex(math.sqrt(80.0 * reg), 0.0)
        )
        with pytest.raises(IntegralityError, match="rounds to 20"):
            class_number(50)
        assert calls == [shanks_value(50)]

    def test_possible_class_numbers_pass_the_check(self):
        assert all(cubic._class_group_obstruction(h) is None for h in KNOWN_CLASS_NUMBERS.values())
        assert cubic._class_group_obstruction(58381) is None  # 79 * 739, m = 10004

    def test_assumption_name(self):
        assert UNIT_INDEX_ASSUMPTION == "unit-index Q=1"
