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
(n, 30) = 1.  sl2_perfect decides this for n <= 100 and reports the
abelianization order, so failures (n = 2, 3) are informative.  By CRT,
SL2(Z/n) = SL2(Z/n6) x SL2(Z/n') with n6 the {2,3}-part of n, and the
abelianization of a direct product is the product of theirs.  SL2(Z/n')
is perfect by an explicit witness: with D = diag(2, 1/2), t = 1/3 mod n'
and [x, y] = x*y*x^-1*y^-1, conjugation by D scales U(t) to U(4t), so
[D, U(t)] = U(3t) = U(1), and [D^-1, L(t)] = L(1) likewise; U(1) and L(1)
generate, since SL2(Z) maps onto SL2(Z/n').  The two commutators are
computed, not assumed.  Only SL2(Z/n6) is closed exactly: the normal
closure of [U, L] as one orbit, a BFS from the identity under right
multiplication by [U, L] and conjugation by U and L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import factorize, is_prime
from .errors import DomainError, ResourceLimitError

__all__ = [
    "FurutaWitness",
    "GroupReport",
    "MIN_FURUTA_PRIMES",
    "ELEMENT_BUDGET",
    "PERFECT_LIMIT",
    "furuta_n",
    "sl2_order",
    "sl2_perfect",
]

MIN_FURUTA_PRIMES = 9

# Visited-set cap for the commutator closure: deterministic memory behavior.
ELEMENT_BUDGET = 10**6

# Candidate cap for the arithmetic-progression prime search.
_MAX_PROGRESSION_STEPS = 10**6

_ORDER_LIMIT = 1000
# Largest n that sl2_perfect (and `group perfect --n`) accepts.
PERFECT_LIMIT = 100


@dataclass(frozen=True)
class FurutaWitness:
    record_kind = "furuta"

    ell: int
    m_e: int
    primes: tuple[int, ...]
    n: int


@dataclass(frozen=True)
class GroupReport:
    record_kind = "group_report"

    n: int
    group_order: int
    abelianization_order: int
    perfect: bool


def furuta_n(ell: int, m_e: int, count: int = MIN_FURUTA_PRIMES) -> FurutaWitness:
    """The `count` smallest primes p = 1 mod ell with gcd(p, m_e) = 1.

    count < 9 is rejected: the tower argument needs nine or more primes.
    The product n is exact (Python integers are unbounded; this is the only
    quantity allowed past the 63-bit width contract).
    """
    if not is_prime(ell):
        raise DomainError(f"ell must be prime, got {ell}")
    if m_e < 30 or m_e % 30 != 0:
        raise DomainError(f"M_E must be a positive multiple of 30, got {m_e}")
    if count < MIN_FURUTA_PRIMES:
        raise DomainError(
            f"the construction requires nine or more primes, got count={count}"
        )
    primes = []
    for step in range(1, _MAX_PROGRESSION_STEPS + 1):
        candidate = step * ell + 1
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
    if not 2 <= n <= _ORDER_LIMIT:
        raise DomainError(f"sl2_order supports 2 <= n <= {_ORDER_LIMIT}, got {n}")
    order = 1
    for p, e in factorize(n):
        order *= p ** (3 * e - 2) * (p * p - 1)
    return order


def sl2_perfect(n: int) -> GroupReport:
    """Abelianization of SL2(Z/n) = SL2(Z/n6) x SL2(Z/n'), n6 the {2,3}-part.

    SL2(Z/n') is perfect by the module docstring's witness [D, U(1/3)] =
    U(1), [D^-1, L(1/3)] = L(1), checked here (a mismatch is a bug and
    raises ResourceLimitError).  SL2(Z/n6), n6 <= 96, goes through the BFS.
    """
    if not 2 <= n <= PERFECT_LIMIT:
        raise DomainError(f"sl2_perfect supports 2 <= n <= {PERFECT_LIMIT}, got {n}")
    n6 = math.prod(p**e for p, e in factorize(n) if p <= 3)
    if n6 < n and not _witness_holds(n // n6):
        raise ResourceLimitError(f"commutator witness failed at n'={n // n6}")
    abelianization = _abelianization_order(n6) if n6 > 1 else 1
    return GroupReport(
        n=n,
        group_order=sl2_order(n),
        abelianization_order=abelianization,
        perfect=abelianization == 1,
    )


def _witness_holds(n: int) -> bool:
    """[D, U(1/3)] == U(1) and [D^-1, L(1/3)] == L(1) in SL2(Z/n), n > 1 prime to 6."""

    def mul(x, y):
        (a, b, c, d), (e, f, g, h) = x, y
        return ((a * e + b * g) % n, (a * f + b * h) % n, (c * e + d * g) % n, (c * f + d * h) % n)

    def commutator(x, y):
        (a, b, c, d), (e, f, g, h) = x, y
        return mul(mul(x, y), mul((d, -b % n, -c % n, a), (h, -f % n, -g % n, e)))

    half, third = pow(2, -1, n), pow(3, -1, n)
    return (
        commutator((2, 0, 0, half), (1, third, 0, 1)) == (1, 1, 0, 1)
        and commutator((half, 0, 0, 2), (1, 0, third, 1)) == (1, 0, 1, 1)
    )


def _abelianization_order(n: int) -> int:
    """|SL2(Z/n)| over the order of its commutator subgroup, as one orbit.

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
    order = sl2_order(n)
    budget = ELEMENT_BUDGET
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
                if len(members) >= budget:
                    raise ResourceLimitError(f"subgroup closure exceeded {budget} elements at n={n}")
                members.add(h)
                elements.append(h)
    commutator_order = len(members)
    # a subgroup order always divides the group order; a mismatch means a bug
    if order % commutator_order != 0:
        raise ResourceLimitError(
            f"closure produced a non-divisor order {commutator_order} at n={n}"
        )
    return order // commutator_order
