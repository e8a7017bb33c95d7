"""Exact integer and modular primitives.

All inputs are checked against a 63-bit width so that results are
reproducible bit-for-bit on any platform; the one place wider integers are
genuinely needed (the product in :mod:`towercert.elliptic`) handles that
locally.  Primality is deterministic, never probabilistic.
"""

from __future__ import annotations

from math import isqrt

from .errors import DomainError, InputRangeError

__all__ = [
    "MAX_NATURAL",
    "MR_WITNESSES",
    "is_prime",
    "exact_sqrt",
    "factorize",
]

MAX_NATURAL = 2**63 - 1

# Deterministic Miller-Rabin witness set, proven complete for n < 2^64
# (Sinclair's seven bases).
MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def exact_sqrt(n: int) -> int | None:
    """Integer square root r with r*r == n, or None if n is not a square."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def prime_flags(bound: int) -> bytearray:
    """Byte sieve: flags[n] == 1 exactly when n <= bound is prime.

    One byte per integer (10 MB at bound 10^7), plus half as much again
    while the multiples of 2 are crossed off.  Read the primes with
    itertools.compress(range(bound + 1), flags); for bound < 2 the array
    is two zero bytes long, which compress stops at.
    """
    flags = bytearray(b"\x01") * max(bound + 1, 2)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            start = p * p
            # zeros as a bytearray: assigning bytes would copy them to one first
            flags[start : bound + 1 : p] = bytearray((bound - start) // p + 1)
    return flags


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
