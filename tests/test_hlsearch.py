import math
import tracemalloc
from collections import defaultdict
from itertools import islice
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_quadratic_prime_count,
    hl_constant_reference,
    jacobi_symbol,
    odd_wheel_sieve,
    prime_count_mr,
)
from towercert import arith, hlsearch
from towercert.arith import RESIDUES, is_prime, m_from_prime, shanks_value
from towercert.errors import DomainError, InputRangeError
from towercert.hlsearch import (
    CONDUCTOR_POLY,
    MAX_PRIME_BOUND,
    QuadraticIntPoly,
    empirical_prime_count,
    hl_constant,
    search_shanks_candidates,
)

FROZEN_CONSTANT_1E6 = 0.28015118850435017

# one integer either side of the first three prime_segments block boundaries, and each boundary
SEGMENT_EDGES = [k * arith._SEGMENT + d for k in (1, 2, 3) for d in (-1, 0, 1)]


class TestSqrtMod:
    # the square roots mod p the sieve makes: those of -3t^2, as the roots of
    # k^2 + 3t^2 (d = -3(2t)^2) in the root table; p = 1 (mod 3) from the form
    # x^2 + 3y^2, none for p = 2 (mod 3), and p | 6s (t = p among them) by hand
    @pytest.mark.parametrize(
        "p", [17, 41, 97, 257, 7681] + [3, 11, 19] + [5, 13, 29] + [7, 23, 31, 8191]
    )
    def test_against_brute_force(self, p):
        sieve = arith.prime_flags(p)
        square_roots = defaultdict(list)
        for x in range(p):
            square_roots[x * x % p].append(x)
        for t in [*range(1, min(p, 40)), p]:
            poly = QuadraticIntPoly(1, 0, 3 * t * t)
            moduli, roots, divides_all = hlsearch._root_table(poly, 2 * t, sieve, p)
            assert not divides_all, t
            table = sorted(r for q, r in zip(moduli, roots) if q == p)
            assert table == square_roots[-3 * t * t % p], t


class TestDiscriminant:
    # QuadraticIntPoly itself accepts a = 0; its consumer empirical_prime_count rejects it
    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(DomainError, match="positive leading coefficient"):
            empirical_prime_count(QuadraticIntPoly(0, 1, 19), 100, 0.28)

    # the sieve takes a > 0 and D = -3s^2, s >= 1 only: not D = -163, -3 * 8,
    # 0 (k^2), 8 or 5, nor a = 0 or a < 0 (D = -3 for (-1, -1, -1))
    @pytest.mark.parametrize(
        "coefficients",
        [(1, 1, 41), (1, 0, 6), (1, 0, 0), (1, 0, -2), (1, 3, 1), (0, 1, 19), (-1, -1, -1)],
        ids=str,
    )
    def test_other_quadratics_rejected_before_sieving(self, monkeypatch, coefficients):
        def no_sieve(bound):
            raise AssertionError(f"prime_flags({bound}) called")

        monkeypatch.setattr(hlsearch, "prime_flags", no_sieve)
        poly = QuadraticIntPoly(*coefficients)
        with pytest.raises(DomainError):
            empirical_prime_count(poly, 10**6, 0.3)
        with pytest.raises(DomainError):
            next(hlsearch._prime_value_blocks(poly, 0, 100))


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

    def test_past_63_bits_rejected(self):
        with pytest.raises(InputRangeError):
            m_from_prime(2**63)
        assert m_from_prime(2**63 - 1) is None

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

    @pytest.mark.parametrize(
        "residues", [RESIDUES, frozenset({0}), frozenset({5, 11}), frozenset(range(12))]
    )
    def test_residue_filter_in_every_block_phase(self, monkeypatch, residues):
        # blocks of 7 m start at m = 1, 8, 15, ...: at every residue mod 12; the
        # mask that walks them is built from the module's residue set, so other
        # sets put the same block-phase alignment to the test
        monkeypatch.setattr(hlsearch, "_SIEVE_CAP", 7)
        monkeypatch.setattr(hlsearch, "RESIDUES", residues)
        got = [tuple(c) for c in search_shanks_candidates(600)]
        ms = [m for m in range(1, 601) if m % 12 in residues]
        assert got == [(m, shanks_value(m), m % 12, is_prime(shanks_value(m))) for m in ms]

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


    # both sides of |D| = 3888, the period of (D/p) in p; the first bounds past
    # 7, where a stream over the 6k+1 and 6k+5 flags could drop or repeat a
    # prime; 10**6, the hl count default; and both sides of the first three
    # boundaries between prime_segments blocks
    @pytest.mark.parametrize(
        "bound", [5, 6, 7, 8, 9, 10, 3887, 3888, 3889, 10**5 + 3, 10**6, *SEGMENT_EDGES]
    )
    def test_equals_per_prime_symbol_loop(self, bound):
        partial, terms = hl_constant_reference(bound)
        result = hl_constant(bound)
        assert result.partial_product == partial
        assert result.constant == partial / 4.0
        assert result.terms_used == terms

    def test_ten_million_pinned(self):
        # the bits and count of the Kahan loop this sum replaced
        result = hl_constant(10**7)
        assert result.partial_product.hex() == "0x1.1ee6c991d928ap+0"
        assert result.terms_used == 664577

    # as at 10**7, on both sides of the first three prime_segments block
    # boundaries (k * 393216); 786433 and 1179649 are primes, each first in its block.
    # Also on both sides of the first mod-30 wheel turn and of the first wheel
    # chunk boundary (15360); 31 and 15361 are primes
    @pytest.mark.parametrize(
        "bound, partial_hex, terms",
        [
            (29, "0x1.24296764af2e8p+0", 8),
            (30, "0x1.24296764af2e8p+0", 8),
            (31, "0x1.1a6c4a58cb79cp+0", 9),
            (15359, "0x1.1ecd622a96dc1p+0", 1792),
            (15360, "0x1.1ecd622a96dc1p+0", 1792),
            (15361, "0x1.1ec89a7a05154p+0", 1793),
            (393215, "0x1.1ee3b1e8cb814p+0", 33333),
            (393216, "0x1.1ee3b1e8cb814p+0", 33333),
            (393217, "0x1.1ee3b1e8cb814p+0", 33333),
            (786431, "0x1.1ee76fc7d7a95p+0", 62944),
            (786432, "0x1.1ee76fc7d7a95p+0", 62944),
            (786433, "0x1.1ee757df39035p+0", 62945),
            (1179647, "0x1.1ee3dd079f2adp+0", 91463),
            (1179648, "0x1.1ee3dd079f2adp+0", 91463),
            (1179649, "0x1.1ee3cd176838ap+0", 91464),
        ],
    )
    def test_block_edges_pinned(self, bound, partial_hex, terms):
        result = hl_constant(bound)
        assert result.partial_product.hex() == partial_hex
        assert result.terms_used == terms

    # the count read from the wheel's class slices is the count of every flag
    # of every block, less 2 and 3: on both sides of the wheel chunk edges of
    # the first two blocks (the last chunk of a block is partial), of the
    # first three block edges, and at the survey band's ends
    @pytest.mark.parametrize(
        "bound",
        [
            *(lo + k * hlsearch._WHEEL_CHUNK + d
              for lo in (0, arith._SEGMENT) for k in (1, 2, 25) for d in (-1, 0, 1)),
            *SEGMENT_EDGES,
            10**7,
            10**7 + 70_000,
        ],
    )
    def test_terms_used_is_the_whole_block_count(self, bound):
        whole = sum(flags.count(1) for _, flags in arith.prime_segments(bound)) - 2
        assert hl_constant(bound).terms_used == whole

    @pytest.mark.parametrize("bound", [10**6, 8 * 10**6])
    def test_memory_bounded(self, bound):
        # the block being read and the one being sieved, plus the base primes
        # and fsum's partials; not the byte per integer of a whole sieve
        tracemalloc.start()
        try:
            hl_constant(bound)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * arith._SEGMENT + 2**17

    def test_symbol_is_the_mod_3_rule(self):
        # D = -3 * 36^2, so (D/p) = (-3/p): the rule hl_constant uses
        a, b, c = CONDUCTOR_POLY.a, CONDUCTOR_POLY.b, CONDUCTOR_POLY.c
        d = b * b - 4 * a * c
        assert d == -3888
        for p in odd_wheel_sieve(10**5):
            if p >= 5:
                assert jacobi_symbol(d, p) == (1 if p % 3 == 1 else -1), p


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


# D = -3s^2 for each: odd |D| (-27, -3), a value 1 at k = 0, p | 2a, 3 | a and 7 | a.
SIEVE_POLYS = [(1, 3, 9), (1, 1, 1), (4, 2, 1), (3, 3, 1), (7, 1, 1)]

# m^2 + 3m + 9 at m = 35k + 2 and m = 36k + 5, with D = -3 * 105^2 and -3 * 108^2:
# 3 divides s but not a = 35^2, 5 and 7 divide a, and 2 and 3 divide a = 36^2
RESTRICTIONS = [(1225, 245, 19), (1296, 468, 49)]

# D = -3s^2 for each; p = 5 divides s = 5 but not 6a for (1, 5, 25), p = 7
# divides a = 7 but not 6s for (7, 1, 1), 2 divides a = 4 for (4, 2, 1), and
# 7 = 2^2 + 3 * 1^2 divides all of (7, 7, 7)
TABLE_POLYS = [(144, 84, 19), (1, 3, 9)] + RESTRICTIONS + [
    (1, 5, 25),
    (7, 1, 1),
    (4, 2, 1),
    (7, 7, 7),
]


@st.composite
def sieved_quadratics(draw):
    """(a, b, c) with a > 0 and discriminant -3s^2, s >= 1: 4a divides b^2 + 3s^2."""
    a = draw(st.integers(min_value=1, max_value=12))
    m = 4 * a
    pairs = [(b, s) for b in range(m) for s in range(1, m + 1) if (b * b + 3 * s * s) % m == 0]
    b, s = draw(st.sampled_from(pairs))
    # shifts by 4a keep b^2 + 3s^2 mod 4a; a negative b puts the vertex right of 0
    b += m * draw(st.integers(min_value=-2, max_value=2))
    s += m * draw(st.integers(min_value=0, max_value=1))
    return a, b, (b * b + 3 * s * s) // m


def _counting_is_prime(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(hlsearch, "is_prime", counted)
    return calls


class TestPrimeValueSieve:
    @pytest.mark.parametrize("x", [10**6, 10**8, 10**10, 10**12, 1004000000000])
    def test_conductor_poly_equals_miller_rabin_loop(self, x):
        report = empirical_prime_count(CONDUCTOR_POLY, x, 0.28)
        assert report.count == prime_count_mr(CONDUCTOR_POLY, x)

    @pytest.mark.parametrize("x", [10**6, 10**10, 10**12])
    @pytest.mark.parametrize("coefficients", RESTRICTIONS, ids=str)
    def test_restrictions_equal_miller_rabin_loop(self, coefficients, x):
        poly = QuadraticIntPoly(*coefficients)
        assert empirical_prime_count(poly, x, 0.28).count == prime_count_mr(poly, x)

    def test_survey_band_count_pinned(self):
        assert empirical_prime_count(CONDUCTOR_POLY, 1004000000000, 0.28).count == 10956

    @pytest.mark.parametrize("coefficients", SIEVE_POLYS, ids=str)
    @settings(max_examples=30, deadline=None)
    @given(x=st.integers(min_value=19, max_value=3 * 10**5))
    def test_against_trial_division(self, coefficients, x):
        report = empirical_prime_count(QuadraticIntPoly(*coefficients), x, 0.3)
        assert report.count == brute_quadratic_prime_count(*coefficients, x)

    @settings(max_examples=60, deadline=None)
    @given(sieved_quadratics(), st.integers(min_value=19, max_value=10**5))
    def test_any_sieved_quadratic_against_trial_division(self, coefficients, x):
        # small values, a vertex right of 0, a common factor of all coefficients
        report = empirical_prime_count(QuadraticIntPoly(*coefficients), x, 0.3)
        assert report.count == brute_quadratic_prime_count(*coefficients, x)

    @pytest.mark.parametrize("coefficients", SIEVE_POLYS + [(144, 84, 19)] + RESTRICTIONS, ids=str)
    def test_cutoff_at_and_just_above_a_value(self, coefficients):
        poly = QuadraticIntPoly(*coefficients)
        for k in (0, 1, 2, 3, 10, 37, 1023, 1024, 1025, 4000):
            for x in (poly.evaluate(k), poly.evaluate(k) + 1):
                if x >= 19:
                    count = empirical_prime_count(poly, x, 0.3).count
                    assert count == prime_count_mr(poly, x), (k, x)

    @pytest.mark.parametrize(
        "coefficients",
        [(c, c, c) for c in (2, 3, 5, 7, 13, 19, 23)],
        ids=str,
    )
    def test_content_prime_has_its_one_prime_value(self, coefficients):
        # D = -3c^2; the content c = f(0) divides every value, so f(0) is the one prime value
        poly = QuadraticIntPoly(*coefficients)
        c = poly.evaluate(0)
        k0, flags = next(hlsearch._prime_value_blocks(poly, 0, 5000))
        assert k0 == 0 and flags[0] == 1 and flags.count(1) == 1
        # cutoffs below 19 are refused, so c - 1 and, for c < 19, c and c + 1 are skipped
        for x in (c - 1, c, c + 1, 19, 10**6):
            if x >= 19:
                count = empirical_prime_count(poly, x, 0.3).count
                assert count == brute_quadratic_prime_count(*coefficients, x), x
                assert count == (x > c), x

    @pytest.mark.parametrize(
        "coefficients, k, p",
        [
            ((1, 1, 7), 0, 7),
            ((1, 1, 1), 1, 3),
            ((1, 3, 9), 1, 13),
            ((7, 13, 7), 0, 7),
            ((1, 1, 1), 2, 7),
            ((4, 2, 1), 1, 7),
        ],
    )
    def test_value_equal_to_a_sieving_prime_is_kept(self, coefficients, k, p):
        # p divides its own value f(k) = p, and the first block sieves by p:
        # 7 and 13 are x^2 + 3y^2, 3 divides 6sa, and 7 divides a = 7 but not b
        poly = QuadraticIntPoly(*coefficients)
        assert poly.evaluate(k) == p
        k0, flags = next(hlsearch._prime_value_blocks(poly, 0, 5000))
        assert k0 == 0 and isqrt(poly.evaluate(len(flags) - 1)) >= p
        assert flags[k] == 1
        assert list(flags) == [int(is_prime(poly.evaluate(j))) for j in range(len(flags))]

    def test_search_flags_across_block_boundaries(self):
        # the sieve the search reads flags every m, in the filter or not
        blocks = hlsearch._prime_value_blocks(hlsearch._FAMILY_POLY, 1, 12_001)
        flags = [(m, flag) for m0, block in blocks for m, flag in enumerate(block, m0)]
        assert [m for m, _ in flags] == list(range(1, 12_001))
        for m, flag in flags:
            assert flag == is_prime(m**2 + 3 * m + 9), m
        kept = [(m, shanks_value(m), m % 12, flag == 1) for m, flag in flags if m % 12 in RESIDUES]
        assert [tuple(c) for c in search_shanks_candidates(12_000)] == kept

    def test_survivors_past_the_cap_go_to_is_prime(self, monkeypatch):
        # with a cap of 30, values past 31^2 = 961 are left to is_prime
        monkeypatch.setattr(hlsearch, "_SIEVE_CAP", 30)
        calls = _counting_is_prime(monkeypatch)
        for cand in search_shanks_candidates(3000):
            assert cand.is_prime_ell == is_prime(cand.ell), cand
        assert calls and min(calls) > 31**2
        # k^2 + 432 (D = -3 * 24^2) has the survivor 31^2 at k = 23, the least
        # value that needs the test
        assert QuadraticIntPoly(1, 0, 432).evaluate(23) == 31**2
        for coefficients in SIEVE_POLYS + RESTRICTIONS + [(144, 84, 19), (1, 0, 432)]:
            calls.clear()
            poly = QuadraticIntPoly(*coefficients)
            assert empirical_prime_count(poly, 10**7, 0.3).count == prime_count_mr(poly, 10**7)
        assert min(calls) == 31**2

    @pytest.mark.parametrize(
        "run",
        [
            lambda: list(search_shanks_candidates(100_000)),
            lambda: empirical_prime_count(CONDUCTOR_POLY, 10**12, 0.28),
        ],
        ids=["search", "count"],
    )
    def test_one_prime_sieve_per_range_and_full_blocks(self, monkeypatch, run):
        sieves, ranges = [], []
        prime_flags, prime_value_blocks = hlsearch.prime_flags, hlsearch._prime_value_blocks

        def counted_flags(bound):
            sieves.append(bound)
            return prime_flags(bound)

        def recorded_blocks(poly, start, stop):
            blocks = []
            ranges.append((start, stop, blocks))
            for k0, flags in prime_value_blocks(poly, start, stop):
                blocks.append((k0, len(flags)))
                yield k0, flags

        monkeypatch.setattr(hlsearch, "prime_flags", counted_flags)
        monkeypatch.setattr(hlsearch, "_prime_value_blocks", recorded_blocks)
        run()
        assert len(sieves) == len(ranges) == 1
        for start, stop, blocks in ranges:
            assert [k0 for k0, _ in blocks] == list(range(start, stop, hlsearch._SIEVE_CAP))
            assert all(n == hlsearch._SIEVE_CAP for _, n in blocks[:-1])
            assert sum(n for _, n in blocks) == stop - start

    def test_survey_commands_need_no_miller_rabin(self, monkeypatch):
        calls = _counting_is_prime(monkeypatch)
        empirical_prime_count(CONDUCTOR_POLY, 1004000000000, 0.28)
        for _ in search_shanks_candidates(100_300):
            pass
        assert calls == []

    def test_survey_commands_reach_no_tonelli_shanks(self, monkeypatch):
        # no square root mod p on the survey commands' path: every pow is an inverse
        exponents = []

        def counted_pow(base, exponent, modulus):
            exponents.append(exponent)
            return pow(base, exponent, modulus)

        monkeypatch.setattr(hlsearch, "pow", counted_pow, raising=False)
        empirical_prime_count(CONDUCTOR_POLY, 1004000000000, 0.28)
        for _ in search_shanks_candidates(100_300):
            pass
        assert exponents and set(exponents) == {-1}

    @pytest.mark.parametrize("coefficients", TABLE_POLYS, ids=str)
    def test_cube_root_table_equals_roots_mod(self, coefficients):
        # an oracle with no square root mod p: every entry is a root, none twice;
        # p not dividing 6sa has 1 + (-3/p) roots, (-3/p) by Euler's criterion;
        # p dividing 6sa has the roots a search over range(p) finds
        poly = QuadraticIntPoly(*coefficients)
        f, s, bound = poly.evaluate, hlsearch._sieved_s(poly), 1 << 20
        sieve = arith.prime_flags(bound)
        moduli, roots, divides_all = hlsearch._root_table(poly, s, sieve, bound)
        table = defaultdict(list)
        for p, r in zip(moduli, roots):
            assert r < p and f(r) % p == 0, (p, r)
            table[p].append(r)
        primes = list(arith.primes_between(sieve, 2, bound))
        assert set(table) <= set(primes)
        assert len(set(zip(moduli, roots))) == len(moduli)
        divides = False
        for p in primes:
            if (6 * s * poly.a) % p:
                assert len(table[p]) == (2 if pow(-3, (p - 1) // 2, p) == 1 else 0), p
            elif p > 2 and f(0) % p == f(1) % p == f(-1) % p == 0:
                divides = True  # p divides all three coefficients: no entry
                assert table[p] == [], p
            else:
                assert sorted(table[p]) == [r for r in range(p) if f(r) % p == 0], p
        assert divides_all == divides == (coefficients == (7, 7, 7))

    @pytest.mark.parametrize("coefficients", TABLE_POLYS, ids=str)
    def test_table_equals_roots_mod_at_small_bounds(self, coefficients):
        # small bounds leave the rows of x^2 + 3y^2 empty or partial
        poly = QuadraticIntPoly(*coefficients)
        f, s = poly.evaluate, hlsearch._sieved_s(poly)
        content = [p for p in range(3, 501) if is_prime(p) and math.gcd(*coefficients) % p == 0]
        expected = [
            (p, r)
            for p in range(2, 501)
            if is_prime(p) and p not in content
            for r in range(p)
            if f(r) % p == 0
        ]
        for bound in range(2, 501):
            moduli, roots, divides_all = hlsearch._root_table(
                poly, s, arith.prime_flags(bound), bound
            )
            assert divides_all == any(p <= bound for p in content), bound
            assert sorted(zip(moduli, roots)) == [e for e in expected if e[0] <= bound], bound

    def test_conductor_table_takes_one_inverse_a_prime(self, monkeypatch):
        exponents, fallbacks = [], []
        roots_mod = hlsearch._roots_mod

        def counted_pow(base, exponent, modulus):
            exponents.append(exponent)
            return pow(base, exponent, modulus)

        def counted_roots_mod(poly, p):
            fallbacks.append(p)
            return roots_mod(poly, p)

        monkeypatch.setattr(hlsearch, "pow", counted_pow, raising=False)
        monkeypatch.setattr(hlsearch, "_roots_mod", counted_roots_mod)
        sieve = arith.prime_flags(10**6)
        hlsearch._root_table(CONDUCTOR_POLY, 36, sieve, 10**6)
        ones = sum(p % 3 == 1 for p in arith.primes_between(sieve, 2, 10**6))
        # no cube root and no square root: only inverses pow(., -1, p)
        assert all(e < 0 for e in exponents)
        assert len(exponents) <= ones + len(fallbacks)
        assert fallbacks == [2, 3]

    @pytest.mark.parametrize("x", [1004000000000, 12 * 10**11], ids=str)
    def test_count_memory_budget(self, x):
        # one block of flags, the prime sieve, 4 + 4 bytes a root of a prime
        # p = 1 (mod 3) and slack; no table-sized list of ints
        ks = hlsearch._below(CONDUCTOR_POLY, x)
        bound = min(isqrt(CONDUCTOR_POLY.evaluate(ks.stop - 1)), hlsearch._SIEVE_CAP)
        sieve = arith.prime_flags(bound)
        entries = 2 * sum(p % 3 == 1 for p in arith.primes_between(sieve, 2, bound))
        assert entries == (81970 if bound == 1 << 20 else 78616)
        tracemalloc.start()
        try:
            empirical_prime_count(CONDUCTOR_POLY, x, 0.28)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = min(len(ks), hlsearch._SIEVE_CAP)
        assert peak <= block + len(sieve) + 8 * entries + 2**17

    def test_value_near_63_bits(self):
        # the last k below 2^63 - 1 comes from the integer square root
        x = 2**63 - 1
        k = isqrt((x - 19) // 144)
        while CONDUCTOR_POLY.evaluate(k) >= x:
            k -= 1
        ks = hlsearch._below(CONDUCTOR_POLY, x)
        assert ks.stop == k + 1 and ks.start == 0
