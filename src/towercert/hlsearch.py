"""Prime search in the quadratic family ell = m^2 + 3m + 9.

Covers the candidate search over the m in arith.RESIDUES (the classes
mod 12 that tower.certify_cyclotomic accepts), the singular-series
constant for the restriction 144k^2 + 84k + 19 (m = 12k + 2), and
empirical counts of prime values below a cutoff.

Both the search and the counts decide "f(k) is prime" for a range of k at
once, by sieving over the roots of f mod p (Jacobson and Williams, Math.
Comp. 72 (2003) 499-519).  The range is sieved by the primes p <= P, where
P = min(isqrt(its largest value), 2^20): each k = r (mod p) with
f(r) = 0 (mod p) is crossed off.  The roots are found once per range and
the k are crossed off in blocks of 2^20.  The sieve takes only a quadratic
with a > 0 and discriminant d = -3s^2, s >= 1 (a its leading coefficient):
both of the paper's, and each restriction m = ck + r of m^2 + 3m + 9
(d = -27c^2).  Any other quadratic raises DomainError before any sieving.
The primes dividing 6sa have their roots by hand: p = 2 by trying 0 and 1,
an odd p | a by the linear case, and any other such p divides d, so
-b/(2a) is the one root.  Every other p has roots only if -3 is a square
mod p, i.e. p = 1 (mod 3).  Such a p is x^2 + 3y^2 with x, y >= 1 in
exactly one way (Cox, Primes of the Form x^2 + ny^2, Sec. 1): the form is
the only reduced one of discriminant -12, so p has 2(1 + (-3/p)) = 4
representations by it, (+-x, +-y).  Then x^2 = -3y^2 (mod p) gives
sqrt(d) = sx/y, so the roots come from walking the form over x, y of
opposite parity with 3 not dividing x, where the prime sieve flags its
prime values.  No square root mod p is taken.  The decision is exact.  A
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
from math import gcd, isqrt, log1p
from operator import add, getitem, mod, mul, sub, truediv
from typing import NamedTuple

from .arith import (
    MAX_NATURAL,
    RESIDUES,
    exact_sqrt,
    is_prime,
    prime_flags,
    prime_segments,
    primes_between,
    shanks_value,
)
from .errors import DomainError, InputRangeError

__all__ = [
    "QuadraticIntPoly",
    "ShanksCandidate",
    "HLConstantResult",
    "PrimeCountReport",
    "CONDUCTOR_POLY",
    "MAX_PRIME_BOUND",
    "search_shanks_candidates",
    "hl_constant",
    "empirical_prime_count",
]

# Largest sieving prime of the prime-value sieve, and the most k in one of
# its blocks.
_SIEVE_CAP = 1 << 20

# Integers in one chunk of hl_constant's mod-30 wheel: 512 in each class.
_WHEEL_CHUNK = 30 * 512

# Largest hl_constant bound.  Its memory is two sieve blocks (under 1 MB) at
# any bound; the cap bounds its time, about 2 s at 10**8.
MAX_PRIME_BOUND = 10**8


class QuadraticIntPoly(NamedTuple):
    """Integer quadratic a*x^2 + b*x + c; the prime-value sieve takes a > 0, discriminant -3s^2."""

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


def _sieved_s(poly: QuadraticIntPoly) -> int:
    """s >= 1 with poly's discriminant -3s^2; DomainError unless a > 0 and there is one."""
    if poly.a <= 0:
        raise DomainError("polynomial must have positive leading coefficient")
    d = poly.b * poly.b - 4 * poly.a * poly.c
    s = exact_sqrt(-d // 3) if d < 0 and d % 3 == 0 else None
    if s is None:
        raise DomainError(f"the prime-value sieve needs discriminant -3s^2 with s >= 1, got {d}")
    return s


def _roots_mod(poly: QuadraticIntPoly, p: int) -> tuple[int, ...] | None:
    """The roots of poly mod a prime p dividing 6sa (discriminant -3s^2), or None.

    None means the odd p divides all three coefficients, so every value; for
    p = 2 that case is the two roots 0 and 1.  An odd p that does not divide
    a divides 3s, so the discriminant, and -b/(2a) is the one root.
    """
    a, b, c = poly
    if p == 2:
        return tuple(k for k in (0, 1) if poly.evaluate(k) % 2 == 0)
    if a % p == 0:
        if b % p:
            return (-c * pow(b, -1, p) % p,)
        return None if c % p == 0 else ()
    return (-b * pow(2 * a, -1, p) % p,)


def _root_table(
    poly: QuadraticIntPoly, s: int, sieve: bytearray, bound: int
) -> tuple[array, array, bool]:
    """(moduli, roots, divides_all): each root r of poly mod a prime p <= bound, as p and r.

    poly has a > 0 and discriminant -3s^2, s >= 1, and sieve is
    prime_flags(B) for some B >= bound.  divides_all says that an odd prime
    divides all three coefficients; such a prime has no entry.  The primes
    dividing 6sa go to _roots_mod.  Any other p has roots only if
    p = x^2 + 3y^2 (see the module docstring), and they are
    (+-sx - by) / (2ay) mod p.  The form is walked row by row in y: sieve
    says which of a row's values are prime, and maps of C functions make
    their roots, with one pow(., -1, p) a prime and no Python code per
    prime.
    """
    a, b = poly.a, poly.b
    moduli, roots = array("I"), array("I")
    divides_all = False
    e = 6 * s * a
    primes = list(filterfalse(e.__mod__, primes_between(sieve, 2, min(bound, e))))
    for p in primes:
        rs = _roots_mod(poly, p)
        if rs is None:
            divides_all = True
            continue
        for r in rs:
            moduli.append(p)
            roots.append(r)
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

    start >= 0, and poly needs a > 0 and discriminant -3s^2, s >= 1: for any
    other the first next() raises DomainError, before any sieving.  The
    module docstring gives the method.  One prime sieve and one root table
    serve the whole range; each block holds _SIEVE_CAP k, the last one
    fewer.  So the first block waits for the whole table, which at P = 2^20
    holds the two roots mod each prime p = 1 (mod 3): 81,970 entries for
    CONDUCTOR_POLY.
    """
    s = _sieved_s(poly)
    if start >= stop:
        return
    f = poly.evaluate
    # poly is convex, so the range's largest value is at one of its ends
    bound = min(isqrt(max(f(start), f(stop - 1))), _SIEVE_CAP)
    sieve = prime_flags(bound)
    moduli, roots, divides_all = _root_table(poly, s, sieve, bound)
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
            flags[k - k0] = sieve[f(k)]  # every value is positive, and sieve[1] is 0
        yield k0, flags


def _candidates(m_max: int) -> Iterator[ShanksCandidate]:
    mask = [r in RESIDUES for r in range(12)]
    for m0, flags in _prime_value_blocks(_FAMILY_POLY, 1, m_max + 1):
        for m, prime in compress(enumerate(flags, m0), islice(cycle(mask), m0 % 12, None)):
            yield ShanksCandidate(m, (m + 3) * m + 9, m % 12, prime == 1)


def search_shanks_candidates(m_max: int) -> Iterator[ShanksCandidate]:
    """Lazy iterator over the candidates m <= m_max with m mod 12 in RESIDUES, ascending.

    m_max is checked when this is called, not on the first next().
    Candidates whose conductor is composite are kept (flagged) so sweep
    reports can show why an m was skipped.  The flags are exact; they come
    from the prime-value sieve (see the module docstring) over every m,
    before the residue filter.  Memory is bounded however large m_max is.
    The first candidate waits for the sieve's root table: the roots mod the
    primes up to about min(m_max, 2^20).
    """
    if m_max < 1:
        raise DomainError(f"m_max must be positive, got {m_max}")
    shanks_value(m_max)  # overflow raises InputRangeError here, before any work
    return _candidates(m_max)


def hl_constant(prime_bound: int) -> HLConstantResult:
    """Singular-series constant (1/4) * prod_{5<=p<=B} (1 - (D/p)/(p-1)).

    D = -3888 is the discriminant of CONDUCTOR_POLY = 144k^2+84k+19.  As
    D = -3 * 36^2, (D/p) = (-3/p) for every prime p >= 5, and that is +1
    exactly when p = 1 (mod 6), -1 when p = 5 (mod 6).  The primes stream
    from the blocks of arith.prime_segments, so memory is under 1 MB (the
    block being read and the next one being sieved) whatever the bound.
    The primes above 5 are read on the mod-30 wheel (Pritchard, Acta Inf.
    17 (1982) 477-485): a block is cut into chunks of _WHEEL_CHUNK
    integers, and in each chunk the flags of each of the 8 classes prime
    to 30 are one strided slice of 512.  p - 1 is the class's first p - 1,
    as a float, plus the multiple of 30 that compress picks from one list
    of 512 float offsets, so no int is made for a non-prime and the 6k+-1
    that are multiples of 5 are not read; the term log1p(-/+1.0/(p - 1))
    comes from maps of C functions, so no Python code runs per prime.  The
    offsets add 16 KB to the memory.  p = 5 gives its term, log1p(0.25),
    once.  terms_used is that 1 plus the primes the slices hold, counted
    slice by slice, so no other flag is read.  Every p - 1 is below 2^53,
    so each term has the bits of the exact p - 1.  The terms are summed by
    one math.fsum, so the log-sum is correctly rounded (the exact sum of
    the terms, rounded once, in any order), then exponentiated;
    recomputation at the same bound is bit-identical.
    """
    if prime_bound < 5:
        raise DomainError(f"prime bound must be at least 5, got {prime_bound}")
    if prime_bound > MAX_PRIME_BOUND:
        raise InputRangeError(f"prime bound {prime_bound} exceeds {MAX_PRIME_BOUND}")
    primes = 1  # p = 5, which no slice holds
    offsets = [30.0 * j for j in range(_WHEEL_CHUNK // 30)]

    def log_terms() -> Iterator[Iterator[float]]:
        nonlocal primes
        for lo, flags in prime_segments(prime_bound):
            # each i < 30 with lo + i prime to 30, and the sign of the terms of its class
            wheel = [
                (i, -1.0 if (lo + i) % 6 == 1 else 1.0) for i in range(30) if gcd(lo + i, 30) == 1
            ]
            for chunk in range(0, len(flags), _WHEEL_CHUNK):
                for i, sign in wheel:
                    j = chunk + i
                    # p - 1 of the primes p = lo + j + 30t, t < 512
                    class_flags = flags[j : j + _WHEEL_CHUNK : 30]
                    primes += class_flags.count(1)
                    steps = compress(offsets, class_flags)
                    p_minus_1 = map(add, repeat(float(lo + j - 1)), steps)
                    yield map(log1p, map(truediv, repeat(sign), p_minus_1))

    terms = chain((log1p(0.25),), chain.from_iterable(log_terms()))
    partial = math.exp(math.fsum(terms))
    return HLConstantResult(prime_bound, partial, partial / 4.0, primes)


def empirical_prime_count(
    poly: QuadraticIntPoly, x: int, constant: float
) -> PrimeCountReport:
    """Count prime values poly(k) < x over k >= 0 against the asymptotic.

    The comparison value is constant * sqrt(x) / log(x) with the natural
    logarithm.  The inequality is strict: only values below x count.  The
    k with poly(k) < x form one interval, found with the integer square
    root, and the count is exact: the sum of the prime-value sieve's flags
    over that interval (see the module docstring), so poly must have a > 0
    and discriminant -3s^2, s >= 1.  Memory is bounded for any x up to
    2^63.
    """
    if x < 19:
        raise DomainError(f"cutoff x must be at least 19, got {x}")
    if x > MAX_NATURAL:
        raise InputRangeError(f"cutoff x={x} outside the 63-bit range")
    _sieved_s(poly)  # before any sieving
    if constant <= 0:
        raise DomainError(f"constant must be positive, got {constant}")
    ks = _below(poly, x)
    count = sum(flags.count(1) for _, flags in _prime_value_blocks(poly, ks.start, ks.stop))
    estimate = constant * math.sqrt(x) / math.log(x)
    return PrimeCountReport(x, count, estimate, count / estimate)
