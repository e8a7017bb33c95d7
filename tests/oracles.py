"""Independent oracles used by the test suite.

Everything here is implemented from scratch against stdlib/mpmath only, so
agreement with the package is evidence, not circularity: different
primality algorithm, different sieve, different character construction,
different analytic route to the L-value, different group-order counting.
The code at the end is the exception: jacobi_symbol is a helper the package
no longer needs, and each of the seven reference implementations keeps a
replaced loop of the package as the oracle for its faster successor.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import gcd

import mpmath

from towercert.errors import DomainError

# Random 61-bit primes, generated once and frozen; used to cross-check the
# Furuta product by modular reconstruction.
FROZEN_61BIT_PRIMES = (
    1411614367351647521,
    2189648212480077253,
    1803848151432320033,
)

# sha256 over "k:p,p,...;k:p,p,..." with weights and primes ascending.
EXCEPTIONAL_TABLE_SHA256 = (
    "0fad8b03da1ef340a7f8c0a5784772a4d020411763402e32c3001edc9bff9551"
)


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def odd_wheel_sieve(bound: int) -> list[int]:
    """Primes <= bound by an odd-only sieve (distinct from the package's)."""
    if bound < 2:
        return []
    if bound == 2:
        return [2]
    size = (bound - 1) // 2  # flags[i] represents 2*i + 3
    flags = [True] * size
    i = 0
    while (2 * i + 3) * (2 * i + 3) <= bound:
        if flags[i]:
            p = 2 * i + 3
            for j in range((p * p - 3) // 2, size, p):
                flags[j] = False
        i += 1
    return [2] + [2 * i + 3 for i in range(size) if flags[i]]


def cubic_discriminant(b: int, c: int, d: int) -> int:
    """Discriminant of the monic cubic x^3 + b*x^2 + c*x + d."""
    return (
        18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d
    )


def log_embedding_det(m: int, pair: tuple[int, int]) -> float:
    """|det| of log|rho|, log|-1/(1+rho)| at two real roots of f_m.

    The roots come from mpmath.polyroots at 40 digits, not from the
    package's trigonometric closed form; pair indexes them in descending
    order.  Any pair gives the regulator, since the three rows sum to zero.
    """
    with mpmath.workdps(40):
        roots = sorted(
            (mpmath.re(r) for r in mpmath.polyroots([1, -m, -(m + 3), -1], extraprec=40)),
            reverse=True,
        )
        (a, b), (c, d) = (
            (mpmath.log(abs(r)), mpmath.log(abs(-1 / (1 + r)))) for r in (roots[i] for i in pair)
        )
        return float(abs(a * d - b * c))


def minkowski_class_number_one(ell: int) -> bool | None:
    """Triviality oracle for the cyclic cubic of prime conductor ell.

    The Minkowski bound is (3!/3^3) * sqrt(ell^2) = 2*ell/9.  If every
    rational prime p below it is inert (p generates a subgroup of index
    not divisible by 3 mod ell, i.e. p^((ell-1)/3) != 1), the class group
    has no nontrivial generators and h = 1.  Returns None when the bound
    is too large for this argument (>= 50) or some small prime splits.
    """
    if not trial_division_prime(ell) or ell % 3 != 1:
        raise ValueError(f"oracle needs a prime conductor = 1 mod 3, got {ell}")
    bound = 2.0 * ell / 9.0
    if bound >= 50.0:
        return None
    for p in odd_wheel_sieve(int(bound)):
        if p == ell:
            continue
        if pow(p, (ell - 1) // 3, ell) == 1:
            return None  # p splits: a norm-p ideal exists below the bound
    return True


def _largest_primitive_root(ell: int) -> int:
    factors = []
    n = ell - 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    exponents = [(ell - 1) // q for q in factors]
    for g in range(ell - 1, 1, -1):
        if all(pow(g, e, ell) != 1 for e in exponents):
            return g
    raise ValueError(f"no primitive root mod {ell}")


def _least_primitive_root_by_order(ell: int) -> int:
    """Least g whose powers reach 1 only after ell - 1 steps."""
    for g in range(2, ell):
        v, order = g, 1
        while v != 1:
            v = v * g % ell
            order += 1
        if order == ell - 1:
            return g
    raise ValueError(f"no primitive root mod {ell}")


class CubicCharacterTable:
    """Full table of the cubic character mod a prime ell = 1 mod 3.

    Built from the power-residue criterion, with no discrete logarithm and
    no walk in generator order: index(a) = k where a^((ell-1)/3) = zeta^k
    and zeta = g^((ell-1)/3) for the least primitive root g (found by
    counting its order), so chi(g) = exp(2*pi*i/3) as in the package.
    """

    def __init__(self, ell: int):
        if not trial_division_prime(ell) or ell % 3 != 1:
            raise ValueError(f"no cubic character mod {ell}")
        e = (ell - 1) // 3
        zeta = pow(_least_primitive_root_by_order(ell), e, ell)
        slot = {1: 0, zeta: 1, zeta * zeta % ell: 2}
        self.conductor = ell
        self.value_index = [-1] + [slot[pow(a, e, ell)] for a in range(1, ell)]

    def index(self, a: int) -> int:
        if not 1 <= a < self.conductor:
            raise ValueError(f"residue {a} outside [1, {self.conductor - 1}]")
        return self.value_index[a]

    def chi(self, a: int) -> complex:
        angle = 2.0 * math.pi * self.index(a) / 3.0
        return complex(math.cos(angle), math.sin(angle))


def full_range_l_sum(ell: int) -> complex:
    """S = sum_{a=1}^{ell-1} conj(chi(a)) * log(2*sin(pi*a/ell)), in residue order.

    Every residue is visited (no evenness folding), chi comes from
    CubicCharacterTable, and each character value's terms are summed by
    math.fsum, correctly rounded.
    """
    table = CubicCharacterTable(ell)
    buckets = ([], [], [])
    for a in range(1, ell):
        buckets[table.index(a)].append(math.log(2.0 * math.sin(math.pi * a / ell)))
    # conj(chi(a)) = exp(-2*pi*i*k/3) on bucket k
    return sum(
        math.fsum(terms)
        * complex(math.cos(2.0 * math.pi * k / 3.0), -math.sin(2.0 * math.pi * k / 3.0))
        for k, terms in enumerate(buckets)
    )


def jacobi_sum_bruteforce(ell: int) -> tuple[int, int]:
    """(a, b) with J(chi, chi) = sum_x chi(x) * chi(1 - x) = a + b*w, by direct count.

    chi comes from CubicCharacterTable, so chi(g) = w = exp(2*pi*i/3) for
    the least primitive root g; the counts of each value w^k are reduced
    with 1 + w + w^2 = 0.
    """
    table = CubicCharacterTable(ell)
    counts = [0, 0, 0]
    for x in range(2, ell):
        counts[(table.index(x) + table.index(ell + 1 - x)) % 3] += 1
    return counts[0] - counts[2], counts[1] - counts[2]


def gauss_sum_root_number(ell: int) -> complex:
    """tau(chi)/sqrt(ell) = sum_x chi(x) * exp(2*pi*i*x/ell) / sqrt(ell), at 30 digits.

    chi comes from CubicCharacterTable; each term is exp(2*pi*i*(k/3 + x/ell))
    with chi(x) = w^k, summed in mpmath.
    """
    table = CubicCharacterTable(ell)
    with mpmath.workdps(30):
        total = mpmath.fsum(
            mpmath.expjpi(mpmath.mpf(2 * (table.index(x) * ell + 3 * x)) / (3 * ell))
            for x in range(1, ell)
        )
        return complex(total / mpmath.sqrt(ell))


def digamma_l_value_squared(ell: int) -> float:
    """ell * |L(1, chi)|^2 for a cubic character mod ell, via digamma.

    Uses the Gauss digamma route L(1, chi) = -(1/ell) * sum chi(a) *
    psi(a/ell), a different analytic path from the log-sine sum, and an
    independently built character (largest primitive root, direct powers).
    """
    g = _largest_primitive_root(ell)
    index = [0] * ell
    v = 1
    for t in range(ell - 1):
        index[v] = t % 3
        v = v * g % ell
    omega = [mpmath.mpc(1), mpmath.expjpi(mpmath.mpf(2) / 3), mpmath.expjpi(mpmath.mpf(4) / 3)]
    total = mpmath.mpc(0)
    for a in range(1, ell):
        total += omega[index[a]] * mpmath.digamma(mpmath.mpf(a) / ell)
    l_value = -total / ell
    return float(ell * (l_value.real**2 + l_value.imag**2))


def sl2_order_paircount(n: int) -> int:
    """|SL2(Z/n)| by counting solutions of ad - bc = 1 directly.

    For each first row (a, b), the equation a*d - b*c = 1 has solutions
    iff gcd(a, b, n) = 1, and then exactly n of them.
    """
    return n * sum(
        1 for a in range(n) for b in range(n) if gcd(gcd(a, b), n) == 1
    )


def sl2_order_bruteforce(n: int) -> int:
    """Full four-index scan; only sane for n <= 12."""
    count = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if (a * d - b * c) % n == 1 % n:
                        count += 1
    return count


def _mul(x, y, n):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % n, (a * f + b * h) % n, (c * e + d * g) % n, (c * f + d * h) % n)


def _inv(x, n):
    # only valid for determinant-1 matrices, which is all we move around
    a, b, c, d = x
    return (d % n, -b % n, -c % n, a % n)


def _commutator(x, y, n):
    return _mul(_mul(x, y, n), _mul(_inv(x, n), _inv(y, n), n), n)


def _generated_subgroup(generators, n):
    """BFS closure under right multiplication; finiteness supplies inverses."""
    identity = (1 % n, 0, 0, 1 % n)
    members = {identity}
    frontier = [identity]
    while frontier:
        grown = []
        for g in frontier:
            for s in generators:
                h = _mul(g, s, n)
                if h not in members:
                    members.add(h)
                    grown.append(h)
        frontier = grown
    return members


def sl2_perfect_restart(n: int) -> tuple[int, int, bool]:
    """(|SL2(Z/n)|, abelianization order, perfect) by restart-from-scratch closure.

    Closes {[U,L], [L,U]} under multiplication, conjugates every member by
    U and L, adds the conjugates that fall outside as generators, and
    rebuilds the subgroup from the identity until nothing is missing.  The
    group order comes from sl2_order_paircount.  Slow (seconds past n = 30).
    """
    order = sl2_order_paircount(n)
    upper = (1 % n, 1 % n, 0, 1 % n)
    lower = (1 % n, 0, 1 % n, 1 % n)
    generators = [_commutator(upper, lower, n), _commutator(lower, upper, n)]
    while True:
        members = _generated_subgroup(generators, n)
        missing = []
        for t in (upper, lower):
            t_inv = _inv(t, n)
            for g in members:
                conj = _mul(_mul(t, g, n), t_inv, n)
                if conj not in members:
                    missing.append(conj)
        if not missing:
            break
        generators.extend(dict.fromkeys(missing))
    abelianization = order // len(members)
    return order, abelianization, abelianization == 1


def brute_quadratic_prime_count(a: int, b: int, c: int, x: int) -> int:
    """#{k >= 0 : a*k^2 + b*k + c < x and prime}, by trial division."""
    count = 0
    k = 0
    while True:
        value = (a * k + b) * k + c
        if value >= x and a > 0 and 2 * a * k + a + b > 0:
            break
        if 2 <= value < x and trial_division_prime(value):
            count += 1
        k += 1
        if k > 10**7:
            raise RuntimeError("runaway oracle scan")
    return count


def bernoulli(n: int) -> Fraction:
    """B_n exactly (B_1 = -1/2), by the recurrence sum_{j<=m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b[n]


def prime_factors(n: int) -> set[int]:
    """The prime factors of n >= 1, by trial division."""
    factors, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    return factors


def residue_scan(k: int) -> dict[int, list[int]]:
    """Independent inner loop for the residue claim: q -> witnesses."""
    divisors = []
    n = k - 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            divisors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        divisors.append(n)
    out = {}
    for q in divisors:
        out[q] = [m for m in range(q) if (m * m + 3 * m + 9) % q == 1 % q]
    return out


def _series_product(a: list[int], b: list[int]) -> list[int]:
    """The product of two q-series of one length, truncated to that length."""
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def _eisenstein(k: int, c: int, length: int) -> list[int]:
    """1 + c * sum sigma_(k-1)(n) q^n, to q^(length-1)."""
    sigma = [0] * length
    for d in range(1, length):
        for n in range(d, length, d):
            sigma[n] += d ** (k - 1)
    return [1] + [c * s for s in sigma[1:]]


def level_one_eigenforms(length: int) -> dict[int, list[int]]:
    """Weight k -> a_0, ..., a_(length-1) of the normalized level-1 cuspidal eigenform.

    For k in {12, 16, 18, 20, 22, 26} the cusp forms of weight k are one
    line, spanned by E_(k-12) * Delta with Delta = (E4^3 - E6^2) / 1728 and
    E_(k-12) = 1, E4, E6, E4^2, E4 E6, E4^2 E6.  Exact integers throughout.
    """
    e4 = _eisenstein(4, 240, length)
    e6 = _eisenstein(6, -504, length)
    e4_squared = _series_product(e4, e4)
    delta = [
        (x - y) // 1728
        for x, y in zip(_series_product(e4_squared, e4), _series_product(e6, e6))
    ]
    e4_delta = _series_product(e4, delta)
    e4_squared_delta = _series_product(e4, e4_delta)
    return {
        12: delta,
        16: e4_delta,
        18: _series_product(e6, delta),
        20: e4_squared_delta,
        22: _series_product(e6, e4_delta),
        26: _series_product(e6, e4_squared_delta),
    }


def swinnerton_dyer_types(k: int, ell: int, coefficients: list[int]) -> set[str]:
    """The congruence types a_p mod ell meets at every prime p != ell below len(coefficients).

    coefficients are a_0, a_1, ... of the weight-k eigenform.  The types,
    from Swinnerton-Dyer (LNM 350, 1973), are
    (i) a_p = p^m + p^(k-1-m) for one m, here tried for 0 <= m < min(ell-1, k);
    (ii) a_p = 0 whenever p is not a square mod ell (ell odd);
    (iii) p^(1-k) a_p^2 is 0, 1, 2 or 4.
    """
    primes = [p for p in range(2, len(coefficients)) if trial_division_prime(p) and p != ell]
    a = {p: coefficients[p] % ell for p in primes}
    types = set()
    if any(
        all(a[p] == (pow(p, m, ell) + pow(p, k - 1 - m, ell)) % ell for p in primes)
        for m in range(min(ell - 1, k))
    ):
        types.add("i")
    if ell > 2 and all(a[p] == 0 for p in primes if pow(p, (ell - 1) // 2, ell) == ell - 1):
        types.add("ii")
    if all(pow(p, 1 - k, ell) * a[p] ** 2 % ell in {0, 1, 2, 4} for p in primes):
        types.add("iii")
    return types


def canonical_json_reference(obj) -> str:
    """The record encoder as first written: one json.dumps call per string.

    Floats print with 17 significant digits, lowercase exponent and a
    trailing ".0" when the text would otherwise look integral.  Raises
    ValueError where the package raises DomainError.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r}")
        text = format(obj, ".17g").lower()
        return text if "." in text or "e" in text else text + ".0"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json_reference(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ValueError(f"record keys must be strings, got {key!r}")
            parts.append(json.dumps(key, ensure_ascii=True) + ":" + canonical_json_reference(value))
        return "{" + ",".join(parts) + "}"
    raise ValueError(f"unsupported record value of type {type(obj).__name__}")


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; Legendre symbol for prime n."""
    if n <= 0 or n % 2 == 0:
        raise DomainError(f"jacobi_symbol needs odd positive n, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def hl_constant_reference(prime_bound: int) -> tuple[float, int]:
    """(partial product, terms) of prod_{5<=p<=B} (1 - (-3888/p)/(p-1)).

    The loop of the package before its symbol table: one jacobi_symbol call
    per prime from odd_wheel_sieve, log1p terms summed with Kahan
    compensation in increasing-prime order, then exponentiated.
    """
    log_sum = comp = 0.0
    terms = 0
    for p in odd_wheel_sieve(prime_bound):
        if p < 5:
            continue
        y = math.log1p(-jacobi_symbol(-3888, p) / (p - 1)) - comp
        t = log_sum + y
        comp = (t - log_sum) - y
        log_sum = t
        terms += 1
    return math.exp(log_sum), terms


def prime_count_mr(poly, x: int) -> int:
    """#{k >= 0 : poly(k) < x and prime}, one Miller-Rabin test per value.

    The loop of empirical_prime_count before the block sieve: the last k
    from the float square root of the discriminant, plus two.
    """
    from towercert.arith import is_prime

    disc = poly.b * poly.b - 4 * poly.a * (poly.c - x)
    k_max = 0 if disc < 0 else int((-poly.b + math.sqrt(disc)) / (2 * poly.a)) + 2
    count = 0
    for k in range(k_max + 1):
        v = poly.evaluate(k)
        if v < x and v >= 2 and is_prime(v):
            count += 1
    return count


def e1_reference(x: float) -> float:
    """E1(x) as the package computed it before its coefficient table.

    Power series for x <= 1; above that the continued fraction evaluated
    from the bottom up at depth 10 + 100/x, with int coefficients; 0 past
    x = 40.
    """
    if x > 40.0:
        return 0.0
    if x <= 1.0:
        # E1(x) = -gamma - log(x) - sum_{k >= 1} (-x)^k / (k * k!)
        total, power, k = 0.0, 1.0, 0
        while True:
            k += 1
            power *= -x / k
            total += power / k
            if abs(power) < 1e-17:
                return -0.57721566490153286 - math.log(x) - total
    depth = 10 + int(100.0 / x)
    tail = x + 2 * depth + 1
    for i in range(depth, 0, -1):
        tail = x + (2 * i - 1) - i * i / tail
    return math.exp(-x) / tail


def afe_sums_reference(ell: int, zeta: int) -> list[complex]:
    """[A, B, P] as the package summed them before its chi table.

    The loop of cubic._afe_sums before the prime-power sieve: one modular
    power per n, and one kernel lambda per series, called in a single pass
    over n that keeps nine plain running sums (series by value of chi).
    """
    from towercert.cubic import _KERNEL_CUTOFF, _SMOOTHING

    e = (ell - 1) // 3
    bucket = {1: 0, zeta: 1, zeta * zeta % ell: 2}
    erfc, e1 = math.erfc, e1_reference
    alpha = math.sqrt(math.pi * _SMOOTHING / ell)
    beta = math.pi / (ell * _SMOOTHING)
    gamma = math.pi / ell
    series = [
        (lambda n: erfc(n * alpha) / n, int(math.sqrt(_KERNEL_CUTOFF) / alpha)),
        (lambda n: e1(beta * n * n), int(math.sqrt(_KERNEL_CUTOFF / beta))),
        (lambda n: math.exp(-gamma * n * n), int(math.sqrt(_KERNEL_CUTOFF / gamma))),
    ]
    total = [0.0] * 9
    for n in range(1, max(cutoff for _, cutoff in series) + 1):
        r = pow(n, e, ell)
        if r == 0:
            continue  # a multiple of ell, reached only for small ell
        i = bucket[r]
        for kernel, cutoff in series:
            if n <= cutoff:
                total[i] += kernel(n)
            i += 3
    half_sqrt3 = math.sqrt(3.0) / 2.0
    sums = []
    for j in range(0, 9, 3):
        s0, s1, s2 = total[j : j + 3]
        # chi takes the values 1, w, w^2 on the three buckets
        sums.append(complex(s0 - 0.5 * (s1 + s2), half_sqrt3 * (s1 - s2)))
    a, b, p = sums
    return [a, b.conjugate(), p]  # the B series carries conj(chi)


def prime_flags_reference(bound: int) -> bytearray:
    """Byte sieve flags[n] == 1 exactly when n <= bound is prime, two zero bytes for bound < 2.

    The package's unsegmented sieve before prime_segments: one array up to
    bound, every multiple of each prime p <= isqrt(bound) crossed off from p^2.
    """
    flags = bytearray(b"\x01") * max(bound + 1, 2)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            start = p * p
            flags[start : bound + 1 : p] = bytearray((bound - start) // p + 1)
    return flags


def abelianization_order_orbit(n: int) -> int:
    """|SL2(Z/n)| over the order of its commutator subgroup, as one orbit.

    The package's closure before sl2_perfect became gcd(n, 12); the group
    order comes from sl2_order_paircount.

    The derived subgroup is the normal closure N of c = [U, L], for the
    elementary generators U = [[1,1],[0,1]], L = [[1,0],[1,1]]: any normal
    subgroup containing c has abelian quotient (the images of U and L
    commute and generate), and conversely.

    N is the orbit of the identity under x -> x*c, x -> U*x*U^-1 and
    x -> L*x*L^-1.  The orbit lies in N, as N contains c and is normal.
    Conversely, the orbit is closed under conjugation by U and L, hence
    by their inverses (powers of U and L in the finite group G) and so by
    all of G.  Then it is closed under right multiplication by every
    t*c*t^-1, since x*t*c*t^-1 = t*((t^-1*x*t)*c)*t^-1, and in a finite
    group products of those conjugates give all of N.
    """
    order = sl2_order_paircount(n)
    identity = (1 % n, 0, 0, 1 % n)
    members = {identity}
    elements = [identity]
    # the loop reaches the elements appended while it runs: one BFS
    for x in elements:
        a, b, c, d = x
        # x*[U, L] with [U, L] = [[3, -1], [1, 0]], U*x*U^-1 and L*x*L^-1
        for h in (
            ((3 * a + b) % n, -a % n, (3 * c + d) % n, -c % n),
            ((a + c) % n, (b + d - a - c) % n, c, (d - c) % n),
            ((a - b) % n, b, (a + c - b - d) % n, (b + d) % n),
        ):
            if h not in members:
                members.add(h)
                elements.append(h)
    commutator_order = len(members)
    # a subgroup order always divides the group order
    assert order % commutator_order == 0, (n, commutator_order)
    return order // commutator_order
