"""Prime search in the quadratic family ell = m^2 + 3m + 9.

Covers Hardy-Littlewood admissibility of integer quadratics, the candidate
search with the mod-12 congruence filter, the singular-series constant for
the restriction 144k^2 + 84k + 19 (m = 12k + 2), and empirical counts of
prime values below a cutoff.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .arith import MAX_NATURAL, exact_sqrt, is_prime, jacobi_symbol, primes_up_to
from .errors import DomainError, InputRangeError

__all__ = [
    "QuadraticIntPoly",
    "AdmissibilityVerdict",
    "ShanksCandidate",
    "HLConstantResult",
    "PrimeCountReport",
    "CONDUCTOR_POLY",
    "DEFAULT_RESIDUES",
    "MAX_PRIME_BOUND",
    "discriminant",
    "hl_admissible",
    "shanks_value",
    "m_from_prime",
    "search_shanks_candidates",
    "hl_constant",
    "empirical_prime_count",
]

# Residues of m mod 12 that force ell = m^2+3m+9 = 7 mod 12, making the
# sextic subfield of Q(zeta_ell) totally imaginary.
DEFAULT_RESIDUES = frozenset({2, 7, 10, 11})

# Largest hl_constant bound: its sieve holds a byte per integer and a list
# of the primes up to the bound, about 0.4 GB at 10**8.
MAX_PRIME_BOUND = 10**8


@dataclass(frozen=True)
class QuadraticIntPoly:
    """Integer quadratic a*x^2 + b*x + c with a != 0."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0:
            raise DomainError("leading coefficient must be nonzero")

    def evaluate(self, k: int) -> int:
        return (self.a * k + self.b) * k + self.c


# m^2 + 3m + 9 restricted to m = 12k + 2, as a quadratic in k.
CONDUCTOR_POLY = QuadraticIntPoly(144, 84, 19)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    failures: tuple[str, ...]


@dataclass(frozen=True)
class ShanksCandidate:
    """One m with its conductor value and primality flag."""

    m: int
    ell: int
    residue: int
    is_prime_ell: bool

    def __post_init__(self):
        if self.ell != self.m * self.m + 3 * self.m + 9:
            raise DomainError(f"ell {self.ell} != m^2+3m+9 for m={self.m}")
        if self.residue != self.m % 12:
            raise DomainError("residue must be m mod 12")
        if self.residue in DEFAULT_RESIDUES and self.is_prime_ell:
            assert self.ell % 12 == 7


@dataclass(frozen=True)
class HLConstantResult:
    prime_bound: int
    partial_product: float
    constant: float
    terms_used: int


@dataclass(frozen=True)
class PrimeCountReport:
    x: int
    count: int
    estimate: float
    ratio: float


def discriminant(poly: QuadraticIntPoly) -> int:
    """b^2 - 4ac, exact."""
    d = poly.b * poly.b - 4 * poly.a * poly.c
    if abs(d) > MAX_NATURAL:
        raise InputRangeError(f"discriminant {d} outside the 63-bit range")
    return d


def hl_admissible(poly: QuadraticIntPoly) -> AdmissibilityVerdict:
    """Hardy-Littlewood admissibility: a+b, c not both even and D not a square.

    An admissible quadratic is one the Hardy-Littlewood conjecture predicts
    takes infinitely many prime values.
    """
    failures = []
    if (poly.a + poly.b) % 2 == 0 and poly.c % 2 == 0:
        failures.append("parity")
    if exact_sqrt(discriminant(poly)) is not None:
        failures.append("square-discriminant")
    return AdmissibilityVerdict(not failures, tuple(failures))


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
    if ell < 13:
        raise DomainError(f"ell must be at least 13 (m=1), got {ell}")
    r = exact_sqrt(4 * ell - 27)
    if r is None or (r - 3) % 2 != 0:
        return None
    m = (r - 3) // 2
    return m if m >= 1 else None


def _candidate(m: int) -> ShanksCandidate:
    ell = shanks_value(m)
    return ShanksCandidate(m, ell, m % 12, is_prime(ell))


def search_shanks_candidates(
    m_max: int, residues: frozenset[int] = DEFAULT_RESIDUES
) -> Iterator[ShanksCandidate]:
    """Lazy iterator over the candidates m <= m_max in the residue filter, ascending.

    The arguments are checked when this is called, not on the first next().
    Candidates whose conductor is composite are kept (flagged) so sweep
    reports can show why an m was skipped.
    """
    if m_max < 1:
        raise DomainError(f"m_max must be positive, got {m_max}")
    if not residues:
        raise DomainError("residue set must be nonempty")
    if not all(0 <= r < 12 for r in residues):
        raise DomainError(f"residues must lie in [0, 12), got {sorted(residues)}")
    shanks_value(m_max)  # overflow raises InputRangeError here, before any work
    return (_candidate(m) for m in range(1, m_max + 1) if m % 12 in residues)


def hl_constant(prime_bound: int) -> HLConstantResult:
    """Singular-series constant (1/4) * prod_{5<=p<=B} (1 - (-3888/p)/(p-1)).

    -3888 is the discriminant of 144k^2+84k+19.  Factors are accumulated as
    logarithms in increasing-prime order with Kahan compensation, then
    exponentiated, so recomputation at the same bound is bit-identical and
    the 10^7-term product keeps full double precision.
    """
    if prime_bound < 5:
        raise DomainError(f"prime bound must be at least 5, got {prime_bound}")
    if prime_bound > MAX_PRIME_BOUND:
        raise InputRangeError(f"prime bound {prime_bound} exceeds {MAX_PRIME_BOUND}")
    log_sum = 0.0
    comp = 0.0
    terms = 0
    for p in primes_up_to(prime_bound):
        if p < 5:
            continue
        term = math.log1p(-jacobi_symbol(-3888, p) / (p - 1))
        y = term - comp
        t = log_sum + y
        comp = (t - log_sum) - y
        log_sum = t
        terms += 1
    partial = math.exp(log_sum)
    return HLConstantResult(prime_bound, partial, partial / 4.0, terms)


def empirical_prime_count(
    poly: QuadraticIntPoly, x: int, constant: float
) -> PrimeCountReport:
    """Count prime values poly(k) < x over k >= 0 against the asymptotic.

    The comparison value is constant * sqrt(x) / log(x) with the natural
    logarithm.  The inequality is strict: only values below x count.
    """
    if x < 19:
        raise DomainError(f"cutoff x must be at least 19, got {x}")
    if x > MAX_NATURAL:
        raise InputRangeError(f"cutoff x={x} outside the 63-bit range")
    if poly.a <= 0:
        raise DomainError("polynomial must have positive leading coefficient")
    if constant <= 0:
        raise DomainError(f"constant must be positive, got {constant}")
    # poly(k) < x only below the larger root of a*k^2 + b*k + (c - x).
    disc = poly.b * poly.b - 4 * poly.a * (poly.c - x)
    k_max = 0 if disc < 0 else int((-poly.b + math.sqrt(disc)) / (2 * poly.a)) + 2
    count = 0
    for k in range(k_max + 1):
        v = poly.evaluate(k)
        if v < x and v >= 2 and is_prime(v):
            count += 1
    estimate = constant * math.sqrt(x) / math.log(x)
    return PrimeCountReport(x, count, estimate, count / estimate)
