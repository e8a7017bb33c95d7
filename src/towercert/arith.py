"""Exact integer and modular primitives.

All inputs are checked against a 63-bit width so that results are
reproducible bit-for-bit on any platform; the one place wider integers are
genuinely needed (the product in :mod:`towercert.elliptic`) handles that
locally.  Primality is deterministic, never probabilistic.

The conductor family ell = m^2 + 3m + 9 is defined here: shanks_value,
its inverse m_from_prime and DEFAULT_RESIDUES.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, compress
from math import isqrt

from .errors import DomainError, InputRangeError

__all__ = [
    "MAX_NATURAL",
    "MR_WITNESSES",
    "DEFAULT_RESIDUES",
    "is_prime",
    "exact_sqrt",
    "factorize",
    "shanks_value",
    "m_from_prime",
]

MAX_NATURAL = 2**63 - 1

# Deterministic Miller-Rabin witness set, proven complete for n < 2^64
# (Sinclair's seven bases).
MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Residues of m mod 12 with ell = m^2+3m+9 = 7 mod 12, prime or not; for a
# prime ell that makes the sextic subfield of Q(zeta_ell) totally imaginary.
DEFAULT_RESIDUES = frozenset({2, 7, 10, 11})


def check_natural(n: int, what: str = "value") -> int:
    """Reject integers outside [0, 2^63)."""
    if not 0 <= n <= MAX_NATURAL:
        raise InputRangeError(f"{what} {n} outside the 63-bit natural range")
    return n


def is_prime(n: int) -> bool:
    """Deterministic primality test for 63-bit naturals."""
    check_natural(n, "primality candidate")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_WITNESSES:
        a %= n
        if a == 0:
            # witness is a multiple of n and carries no information
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def shanks_value(m: int) -> int:
    """The conductor m^2 + 3m + 9 attached to m >= 1."""
    if m < 1:
        raise DomainError(f"m must be positive, got {m}")
    ell = m * m + 3 * m + 9
    if ell > MAX_NATURAL:
        raise InputRangeError(f"m={m} overflows the 63-bit conductor range")
    return ell


def exact_sqrt(n: int) -> int | None:
    """Integer square root r with r*r == n, or None if n is not a square."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


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


# Integers in one block of prime_segments, about 384 KB of flags: a multiple
# of 6, so every block starts at a multiple of 6 and the 6-periodic 6k+1,
# 6k+5 pattern each block is filled from lines up with its integers.
_SEGMENT = 6 << 16


def prime_segments(bound: int) -> Iterator[tuple[int, bytearray]]:
    """Blocks (lo, flags) covering 0..bound: flags[i] == 1 exactly when lo + i is prime.

    A segmented sieve of Eratosthenes (Bays and Hudson, BIT 17 (1977)
    121-127).  Each block holds _SEGMENT integers, the last one fewer, and
    lo is a multiple of _SEGMENT.  A block starts from the 6k+1, 6k+5
    pattern, so the multiples of 2 and 3 are never crossed off; the odd
    multiples of each base prime 5 <= p <= isqrt(bound) are, from p^2.  The
    base primes come from prime_flags(isqrt(bound)), this sieve one level
    down.  Memory is one block plus the base primes, whatever the bound;
    each block is a new array the caller may keep.  bound >= 0.
    """
    root = isqrt(bound)
    base = list(primes_between(prime_flags(root), 5, root)) if root >= 5 else []
    for lo in range(0, bound + 1, _SEGMENT):
        n = min(_SEGMENT, bound + 1 - lo)
        flags = bytearray(b"\x00\x01\x00\x00\x00\x01") * -(-n // 6)
        del flags[n:]
        if lo == 0:
            # 1 is no prime; 2 and 3 are
            flags[:4] = b"\x00\x00\x01\x01"[:n]
        for p in base:
            if p * p >= lo + n:
                break
            # the first odd multiple of p in the block, from p^2 on
            i = (max(p, -(-lo // p)) | 1) * p - lo
            if i < n:
                # zeros as a bytearray: assigning bytes would copy them to one first
                flags[i :: 2 * p] = bytearray((n - 1 - i) // (2 * p) + 1)
        yield lo, flags


def prime_flags(bound: int) -> bytearray:
    """Byte sieve: flags[n] == 1 exactly when n <= bound is prime.

    The blocks of prime_segments, joined: one byte per integer (10 MB at
    bound 10^7) plus one block while it is copied in.  Read the primes with
    primes_between, or every flag with itertools.compress(range(bound + 1),
    flags); for bound < 2 the array is two zero bytes long.  A reader that
    needs one pass over the primes streams prime_segments instead.
    """
    flags = bytearray(max(bound + 1, 2))
    for lo, block in prime_segments(bound):
        flags[lo : lo + len(block)] = block
    return flags


def primes_between(flags: bytearray, lo: int, hi: int) -> Iterator[int]:
    """The primes lo <= p <= hi, ascending, read from flags = prime_flags(B), hi <= B.

    2 is yielded on its own and the odd primes from the odd half of flags,
    through a strided view: no int is made for an even number, and no copy
    of flags.  lo >= 0.  This needs the whole array of B + 1 bytes; one
    pass over the primes up to a large B reads prime_segments in its place.
    """
    odd = lo | 1
    stream = compress(range(odd, hi + 1, 2), memoryview(flags)[odd : hi + 1 : 2])
    return chain((2,), stream) if lo <= 2 <= hi else stream


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1 by trial division: ascending (p, e) pairs."""
    if n < 1:
        raise DomainError(f"factorize needs a positive integer, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out
