"""Furuta witnesses and SL2(Z/n) perfectness checks at desk scale.

For a non-CM elliptic curve E with exceptional-prime product A_E, the mod-n
torsion representation is surjective for every n coprime to M_E = 30*A_E.
Callers pass M_E = 30*A_E: computing A_E needs the full image machinery.
For the conductor-37 curve y^2 + y = x^3 - x, A_E = 1 and M_E = 30.

Furuta's construction takes n to be a product of nine or more primes
congruent to 1 mod ell and coprime to M_E; the resulting K_n then inherits
an infinite ell-class field tower.  The witness records the primes and
their exact product, the one place arbitrary-width integers are needed.

The linear-disjointness step relies on SL2(Z/n) being perfect for
(n, 30) = 1.  sl2_perfect decides this for n <= 1000 and reports the
abelianization order, so failures (n = 2, 3) are informative.  That order
is gcd(n, 12) for every n:
- SL2(Z) maps onto SL2(Z/n) (Shimura, Introduction to the Arithmetic
  Theory of Automorphic Functions, Lemma 1.38).
- SL2(Z)^ab = Z/12, generated by the image of U = [[1,1],[0,1]].  With
  S = [[0,-1],[1,0]], SL2(Z) is generated by S and U, subject to S^4 = 1
  and (SU)^3 = S^2 (Serre, A Course in Arithmetic, ch. VII); written
  additively, the second relation gives S = -3U, the first then 12U = 0.
- So SL2(Z/n)^ab is cyclic, generated by the image of U, and U^n = 1
  makes its order divide gcd(n, 12).
- SL2(Z/n) also maps onto SL2(Z/d), d = gcd(n, 12), so its
  abelianization maps onto SL2(Z/d)^ab.  That group has order d for
  d = 2, 3, 4 (a closure in the test oracles checks it), and the Chinese
  remainder theorem gives 6 and 12.
So sl2_perfect closes no group: it reports sl2_order(n) and gcd(n, 12).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import MAX_NATURAL, check_natural, factorize, is_prime
from .errors import CertificationRejected, DomainError, InputRangeError, ResourceLimitError

__all__ = [
    "FurutaWitness",
    "GroupReport",
    "MIN_FURUTA_PRIMES",
    "PERFECT_LIMIT",
    "furuta_n",
    "sl2_order",
    "sl2_perfect",
]

MIN_FURUTA_PRIMES = 9

# Candidate cap for the arithmetic-progression prime search.
_MAX_PROGRESSION_STEPS = 10**6

# Largest n that sl2_order and sl2_perfect (and `group perfect --n`) accept.
PERFECT_LIMIT = 1000


class FurutaWitness(NamedTuple):
    record_kind = "furuta"

    ell: int
    m_e: int
    primes: tuple[int, ...]
    n: int


class GroupReport(NamedTuple):
    record_kind = "group_report"

    n: int
    group_order: int
    abelianization_order: int
    perfect: bool


def furuta_n(ell: int, m_e: int, count: int = MIN_FURUTA_PRIMES) -> FurutaWitness:
    """The `count` smallest primes p = 1 mod ell with gcd(p, m_e) = 1.

    The checks run in this order; the first rule broken decides.  count < 9
    is rejected (DomainError): the tower argument needs nine or more primes.
    So is an m_e that is not a positive multiple of 30.  A composite ell
    raises CertificationRejected(["composite"], ell=ell).  An m_e past the
    63-bit width, and count > _MAX_PROGRESSION_STEPS, are out of range
    (InputRangeError): each progression step yields at most one prime.  So
    is an ell whose candidates step*ell + 1 leave the 63-bit range before
    count primes are found.
    The product n is exact (Python integers are unbounded; this is the only
    quantity allowed past the 63-bit width contract).
    """
    if count < MIN_FURUTA_PRIMES:
        raise DomainError(
            f"the construction requires nine or more primes, got count={count}"
        )
    if m_e < 30 or m_e % 30 != 0:
        raise DomainError(f"M_E must be a positive multiple of 30, got {m_e}")
    if not is_prime(ell):
        raise CertificationRejected(["composite"], ell=ell)
    check_natural(m_e, "M_E")
    if count > _MAX_PROGRESSION_STEPS:
        raise InputRangeError(
            f"count {count} above the {_MAX_PROGRESSION_STEPS} progression steps, "
            "each of which yields at most one prime"
        )
    primes = []
    for step in range(1, _MAX_PROGRESSION_STEPS + 1):
        candidate = step * ell + 1
        if candidate > MAX_NATURAL:
            raise InputRangeError(
                f"ell={ell}, count={count}: the candidates step*ell + 1 leave the "
                f"63-bit natural range after {step - 1} steps"
            )
        if is_prime(candidate) and math.gcd(candidate, m_e) == 1:
            primes.append(candidate)
            if len(primes) == count:
                break
    else:
        raise ResourceLimitError(
            f"no {count} primes = 1 mod {ell} within {_MAX_PROGRESSION_STEPS} steps"
        )
    return FurutaWitness(ell=ell, m_e=m_e, primes=tuple(primes), n=math.prod(primes))


def sl2_order(n: int) -> int:
    """Order of SL2(Z/n): multiplicative, p^(3k-2)*(p^2-1) per prime power."""
    if not 2 <= n <= PERFECT_LIMIT:
        raise DomainError(f"sl2_order supports 2 <= n <= {PERFECT_LIMIT}, got {n}")
    order = 1
    for p, e in factorize(n):
        order *= p ** (3 * e - 2) * (p * p - 1)
    return order


def sl2_perfect(n: int) -> GroupReport:
    """The abelianization of SL2(Z/n): order gcd(n, 12), by the module docstring."""
    if not 2 <= n <= PERFECT_LIMIT:
        raise DomainError(f"sl2_perfect supports 2 <= n <= {PERFECT_LIMIT}, got {n}")
    d = math.gcd(n, 12)
    return GroupReport(n=n, group_order=sl2_order(n), abelianization_order=d, perfect=d == 1)
