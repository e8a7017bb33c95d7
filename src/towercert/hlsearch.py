"""Prime search in the quadratic family ell = m^2 + 3m + 9.

Covers the candidate search with the mod-12 congruence filter, the
singular-series constant for the restriction 144k^2 + 84k + 19
(m = 12k + 2), and empirical counts of prime values below a cutoff.

Both the search and the counts decide "f(k) is prime" for a range of k at
once, by sieving over the roots of f mod p (Jacobson and Williams, Math.
Comp. 72 (2003) 499-519).  The range is sieved by the primes p <= P, where
P = min(isqrt(its largest value), 2^20): each k = r (mod p) with
f(r) = 0 (mod p) is crossed off.  The roots are found once per range and
the k are crossed off in blocks of 2^20.  Every quadratic the program
sieves has discriminant d = -3s^2 (a its leading coefficient), so a prime
p not dividing 6sa has roots only if -3 is a square mod p, i.e. p = 1
(mod 3).  Such a p is x^2 + 3y^2 with x, y >= 1 in exactly one way (Cox,
Primes of the Form x^2 + ny^2, Sec. 1): the form is the only reduced one
of discriminant -12, so p has 2(1 + (-3/p)) = 4 representations by it,
(+-x, +-y).  Then x^2 = -3y^2 (mod p) gives sqrt(d) = sx/y, so the roots
come from walking the form over x, y of opposite parity with 3 not
dividing x, where the prime sieve flags its prime values.  Any other
quadratic, and the primes dividing 6sa, go through the general root
finder and its square roots by Tonelli-Shanks.  The decision is exact.  A
survivor below (P + 1)^2 is prime, because a composite value below
(P + 1)^2 has a prime factor <= P; only a survivor above that, which needs
P at the cap, goes to is_prime.  A value f(k) <= P is read from the prime
sieve the root table is built from, which keeps f(k) = p and drops values
below 2.  A prime dividing all three coefficients divides every value, so
then only that read sets a flag.  Memory is one block's flags (at most
2^20 bytes), that prime sieve (2^20 bytes) and the root table (8 bytes a
root of a prime <= 2^20), whatever the range of k.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Iterator
from itertools import chain, compress, cycle, filterfalse, islice, repeat
from math import isqrt, log1p
from operator import add, getitem, mod, mul, sub, truediv
from typing import NamedTuple

from .arith import (
    MAX_NATURAL,
    check_natural,
    exact_sqrt,
    is_prime,
    prime_flags,
    prime_segments,
    primes_between,
)
from .errors import DomainError, InputRangeError

__all__ = [
    "QuadraticIntPoly",
    "ShanksCandidate",
    "HLConstantResult",
    "PrimeCountReport",
    "CONDUCTOR_POLY",
    "DEFAULT_RESIDUES",
    "MAX_PRIME_BOUND",
    "shanks_value",
    "m_from_prime",
    "search_shanks_candidates",
    "hl_constant",
    "empirical_prime_count",
]

# Residues of m mod 12 with ell = m^2+3m+9 = 7 mod 12, prime or not; for a
# prime ell that makes the sextic subfield of Q(zeta_ell) totally imaginary.
DEFAULT_RESIDUES = frozenset({2, 7, 10, 11})

# Largest sieving prime of the prime-value sieve, and the most k in one of
# its blocks.
_SIEVE_CAP = 1 << 20

# Largest hl_constant bound.  Its memory is two sieve blocks (under 1 MB) at
# any bound; the cap bounds its time, about 2 s at 10**8.
MAX_PRIME_BOUND = 10**8


class QuadraticIntPoly(NamedTuple):
    """Integer quadratic a*x^2 + b*x + c; empirical_prime_count rejects a <= 0."""

    a: int
    b: int
    c: int

    def evaluate(self, k: int) -> int:
        return (self.a * k + self.b) * k + self.c


# m^2 + 3m + 9 restricted to m = 12k + 2, as a quadratic in k.
CONDUCTOR_POLY = QuadraticIntPoly(144, 84, 19)

_FAMILY_POLY = QuadraticIntPoly(1, 3, 9)


class ShanksCandidate(NamedTuple):
    """One m with its conductor value and primality flag."""

    record_kind = "shanks_candidate"

    m: int
    ell: int
    residue: int
    is_prime_ell: bool


class HLConstantResult(NamedTuple):
    record_kind = "hl_constant"

    prime_bound: int
    partial_product: float
    constant: float
    terms_used: int


class PrimeCountReport(NamedTuple):
    record_kind = "prime_count"

    x: int
    count: int
    estimate: float
    ratio: float


def shanks_value(m: int) -> int:
    """The conductor m^2 + 3m + 9 attached to m >= 1."""
    if m < 1:
        raise DomainError(f"m must be positive, got {m}")
    ell = m * m + 3 * m + 9
    if ell > MAX_NATURAL:
        raise InputRangeError(f"m={m} overflows the 63-bit conductor range")
    return ell


def m_from_prime(ell: int) -> int | None:
    """Invert shanks_value: m with m^2+3m+9 == ell, or None.

    The positive root is (-3 + sqrt(4*ell - 27)) / 2; it must be a positive
    integer for the inversion to exist.
    """
    check_natural(ell, "ell")
    if ell < 13:
        raise DomainError(f"ell must be at least 13 (m=1), got {ell}")
    r = exact_sqrt(4 * ell - 27)
    if r is None or (r - 3) % 2 != 0:
        return None
    m = (r - 3) // 2
    return m if m >= 1 else None


def _sqrt_mod(n: int, p: int) -> int | None:
    """A square root of n mod the odd prime p, n != 0 mod p, or None for a non-residue.

    Euler's criterion detects a non-residue; Tonelli-Shanks (Cohen, GTM 138,
    Alg. 1.5.1) finds the root, with no loop pass for p = 3 mod 4.  Only a
    quadratic whose discriminant is not -3s^2 needs it (see _root_table).
    """
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    y, x, b = pow(z, q, p), pow(n, (q + 1) // 2, p), pow(n, q, p)
    while b != 1:
        m, t = 1, b * b % p
        while t != 1:
            t = t * t % p
            m += 1
        t = pow(y, 1 << (e - m - 1), p)
        y, e, x, b = t * t % p, m, x * t % p, b * t * t % p
    return x


def _roots_mod(poly: QuadraticIntPoly, d: int, p: int) -> tuple[int, ...] | None:
    """The roots of poly mod the prime p (d its discriminant), or None.

    None means the odd p divides all three coefficients, so every value; for
    p = 2 that case is the two roots 0 and 1.
    """
    a, b, c = poly.a, poly.b, poly.c
    if p == 2:
        return tuple(k for k in (0, 1) if poly.evaluate(k) % 2 == 0)
    if a % p == 0:
        if b % p:
            return (-c * pow(b, -1, p) % p,)
        return None if c % p == 0 else ()
    if d % p == 0:
        return (-b * pow(2 * a, -1, p) % p,)
    t = _sqrt_mod(d % p, p)
    if t is None:
        return ()
    inverse = pow(2 * a, -1, p)
    return ((t - b) * inverse % p, (-t - b) * inverse % p)


def _root_table(
    poly: QuadraticIntPoly, sieve: bytearray, bound: int
) -> tuple[array, array, bool]:
    """(moduli, roots, divides_all): each root r of poly mod a prime p <= bound, as p and r.

    sieve is prime_flags(B) for some B >= bound.  divides_all says that an
    odd prime divides all three coefficients; such a prime has no entry.
    When the discriminant is d = -3s^2, a prime p not dividing 6sa has
    roots only if p = x^2 + 3y^2 (see the module docstring), and they are
    (+-sx - by) / (2ay) mod p.  The form is walked row by row in y: sieve
    says which of a row's values are prime, and maps of C functions make
    their roots, with one pow(., -1, p) a prime and no Python code per
    prime.  Every other prime, and every quadratic of another shape, goes
    through _roots_mod.
    """
    a, b = poly.a, poly.b
    d = b * b - 4 * a * poly.c
    s = exact_sqrt(-d // 3) if d < 0 and d % 3 == 0 else None
    moduli, roots = array("I"), array("I")
    divides_all = False
    primes = primes_between(sieve, 2, bound)
    if s is not None:
        e = abs(6 * s * a)  # only the primes dividing 6sa go to _roots_mod
        primes = list(filterfalse(e.__mod__, primes_between(sieve, 2, min(bound, e))))
    for p in primes:
        rs = _roots_mod(poly, d, p)
        if rs is None:
            divides_all = True
            continue
        for r in rs:
            moduli.append(p)
            roots.append(r)
    if s is None:
        return moduli, roots, divides_all
    if skip := [p for p in primes if p % 3 == 1]:
        sieve = bytearray(sieve)  # a copy without the primes _roots_mod took
        for p in skip:
            sieve[p] = 0
    # x = +-1 (mod 6) for even y, x = +-2 (mod 6) for odd y: their squares and sx
    rows = []
    for mask in (b"\0\1\0\0\0\1", b"\0\0\1\0\1\0"):
        xs = list(compress(range(isqrt(bound) + 1), cycle(mask)))
        rows.append((list(map(mul, xs, xs)), list(map(mul, repeat(s), xs))))
    for y in range(1, isqrt(bound // 3) + 1):
        squares, sxs = rows[y & 1]
        t = 3 * y * y
        values = list(map(add, repeat(t), islice(squares, bisect_right(squares, bound - t))))
        flags = bytes(map(getitem, repeat(sieve), values))
        ps, sx, by = list(compress(values, flags)), list(compress(sxs, flags)), repeat(b * y)
        inverse = list(map(pow, repeat(-2 * a * y), repeat(-1), ps))
        moduli.extend(ps * 2)
        for op in (sub, add):  # the roots (by -+ sx) * -1/(2ay)
            roots.extend(map(mod, map(mul, map(op, by, sx), inverse), ps))
    return moduli, roots, divides_all


def _below(poly: QuadraticIntPoly, bound: int) -> range:
    """The k >= 0 with poly(k) < bound, for a > 0: an interval, as poly is convex.

    The ends come from the integer square root of the discriminant of
    poly - bound, then move by at most two steps to the exact ones.
    """
    a, b, f = poly.a, poly.b, poly.evaluate
    disc = b * b - 4 * a * (poly.c - bound)
    if disc <= 0:
        return range(0)
    s = isqrt(disc)
    lo = max((-b - s) // (2 * a), 0)
    hi = (s - b) // (2 * a) + 1
    while hi >= lo and f(hi) >= bound:
        hi -= 1
    while lo <= hi and f(lo) >= bound:
        lo += 1
    return range(lo, max(lo, hi + 1))


def _prime_value_blocks(
    poly: QuadraticIntPoly, start: int, stop: int
) -> Iterator[tuple[int, bytearray]]:
    """Blocks (k0, flags) covering start <= k < stop: flags[k - k0] is 1 iff poly(k) is prime.

    poly needs a > 0 and start >= 0; the module docstring gives the method.
    One prime sieve and one root table serve the whole range; each block
    holds _SIEVE_CAP k, the last one fewer.  So the first block waits for
    the whole table, which at P = 2^20 holds the two roots mod each prime
    p = 1 (mod 3): 81,970 entries for CONDUCTOR_POLY.
    """
    if start >= stop:
        return
    f = poly.evaluate
    # poly is convex, so the range's largest value is at one of its ends
    bound = min(isqrt(max(f(start), f(stop - 1), 0)), _SIEVE_CAP)
    sieve = prime_flags(bound)
    moduli, roots, divides_all = _root_table(poly, sieve, bound)
    exact = _below(poly, (bound + 1) ** 2)
    small = _below(poly, bound + 1)
    for k0 in range(start, stop, _SIEVE_CAP):
        k1 = min(k0 + _SIEVE_CAP, stop)
        n = k1 - k0
        if divides_all:
            flags = bytearray(n)
        else:
            flags = bytearray(b"\x01") * n
            for p, r in zip(moduli, roots):
                i = (r - k0) % p
                if i < n:
                    # zeros as a bytearray: assigning bytes would copy them to one first
                    flags[i::p] = bytearray((n - 1 - i) // p + 1)
        for part in (range(k0, min(k1, exact.start)), range(max(k0, exact.stop), k1)):
            for k in compress(part, flags[part.start - k0 : part.stop - k0]):
                if not is_prime(f(k)):
                    flags[k - k0] = 0
        for k in range(max(k0, small.start), min(k1, small.stop)):
            v = f(k)
            # v >= 2 first: a negative v would index the sieve from its end
            flags[k - k0] = v >= 2 and sieve[v]
        yield k0, flags


def _candidates(m_max: int, residues: frozenset[int]) -> Iterator[ShanksCandidate]:
    mask = [r in residues for r in range(12)]
    for m0, flags in _prime_value_blocks(_FAMILY_POLY, 1, m_max + 1):
        for m, prime in compress(enumerate(flags, m0), islice(cycle(mask), m0 % 12, None)):
            yield ShanksCandidate(m, (m + 3) * m + 9, m % 12, prime == 1)


def search_shanks_candidates(
    m_max: int, residues: frozenset[int] = DEFAULT_RESIDUES
) -> Iterator[ShanksCandidate]:
    """Lazy iterator over the candidates m <= m_max in the residue filter, ascending.

    The arguments are checked when this is called, not on the first next().
    Candidates whose conductor is composite are kept (flagged) so sweep
    reports can show why an m was skipped.  The flags are exact; they come
    from the prime-value sieve (see the module docstring) over every m,
    before the residue filter.  Memory is bounded however large m_max is.
    The first candidate waits for the sieve's root table: the roots mod the
    primes up to about min(m_max, 2^20).
    """
    if m_max < 1:
        raise DomainError(f"m_max must be positive, got {m_max}")
    if not residues:
        raise DomainError("residue set must be nonempty")
    if not all(0 <= r < 12 for r in residues):
        raise DomainError(f"residues must lie in [0, 12), got {sorted(residues)}")
    shanks_value(m_max)  # overflow raises InputRangeError here, before any work
    return _candidates(m_max, residues)


def hl_constant(prime_bound: int) -> HLConstantResult:
    """Singular-series constant (1/4) * prod_{5<=p<=B} (1 - (D/p)/(p-1)).

    D = -3888 is the discriminant of CONDUCTOR_POLY = 144k^2+84k+19.  As
    D = -3 * 36^2, (D/p) = (-3/p) for every prime p >= 5, and that is +1
    exactly when p = 1 (mod 6), -1 when p = 5 (mod 6).  The primes stream
    from the blocks of arith.prime_segments, so memory is under 1 MB (the
    block being read and the next one being sieved) whatever the bound.
    Each residue class is read from its strided slice of a block's flags:
    p - 1 comes straight from a range, and the term log1p(-/+1.0/(p - 1))
    from maps of C functions, so no Python code runs per prime.  The terms
    are summed by one math.fsum, so the log-sum is correctly rounded (the
    exact sum of the terms, rounded once, in any order), then
    exponentiated; recomputation at the same bound is bit-identical.
    """
    if prime_bound < 5:
        raise DomainError(f"prime bound must be at least 5, got {prime_bound}")
    if prime_bound > MAX_PRIME_BOUND:
        raise InputRangeError(f"prime bound {prime_bound} exceeds {MAX_PRIME_BOUND}")
    primes = 0

    def log_terms() -> Iterator[Iterator[float]]:
        nonlocal primes
        for lo, flags in prime_segments(prime_bound):
            primes += flags.count(1)
            end = lo + len(flags)
            # p - 1 of the primes p = lo + 1 + 6j, then of the p = lo + 5 + 6j (lo = 0 mod 6)
            yield map(log1p, map(truediv, repeat(-1.0), compress(range(lo, end, 6), flags[1::6])))
            yield map(log1p, map(truediv, repeat(1.0), compress(range(lo + 4, end, 6), flags[5::6])))

    partial = math.exp(math.fsum(chain.from_iterable(log_terms())))
    # every prime but 2 and 3 gives a term
    return HLConstantResult(prime_bound, partial, partial / 4.0, primes - 2)


def empirical_prime_count(
    poly: QuadraticIntPoly, x: int, constant: float
) -> PrimeCountReport:
    """Count prime values poly(k) < x over k >= 0 against the asymptotic.

    The comparison value is constant * sqrt(x) / log(x) with the natural
    logarithm.  The inequality is strict: only values below x count.  The
    k with poly(k) < x form one interval, found with the integer square
    root, and the count is exact: the sum of the prime-value sieve's flags
    over that interval (see the module docstring).  Memory is bounded for
    any x up to 2^63.
    """
    if x < 19:
        raise DomainError(f"cutoff x must be at least 19, got {x}")
    if x > MAX_NATURAL:
        raise InputRangeError(f"cutoff x={x} outside the 63-bit range")
    if poly.a <= 0:
        raise DomainError("polynomial must have positive leading coefficient")
    if constant <= 0:
        raise DomainError(f"constant must be positive, got {constant}")
    ks = _below(poly, x)
    count = sum(flags.count(1) for _, flags in _prime_value_blocks(poly, ks.start, ks.stop))
    estimate = constant * math.sqrt(x) / math.log(x)
    return PrimeCountReport(x, count, estimate, count / estimate)
