"""Shanks' simplest cubic fields and their analytic class numbers.

The field attached to m >= 1 is the splitting field of

    f_m(x) = x^3 - m*x^2 - (m+3)*x - 1,

a totally real cyclic cubic of conductor ell = m^2 + 3m + 9 (prime ell
assumed for certification).  Its three real roots are units permuted
cyclically by rho -> -1/(1+rho), and the pair {rho, -1/(1+rho)} is taken as
a fundamental system of units modulo +-1 (the classical unit-index-one
property of this family for squarefree conductor; every consumer records
that assumption by name).

For prime conductor the class number comes out of the analytic formula.
Let chi be the cubic character mod ell with chi(g) = w = exp(2*pi*i/3) for
the least primitive root g; it is even and primitive, with root number
W = tau(chi)/sqrt(ell) of modulus 1.  The residue of the Dedekind zeta
function gives h * R = ell * |L(1,chi)|^2 / 4, so with

    S = -sqrt(ell) * L(1,chi) / W = sum_{a=1}^{ell-1} conj(chi(a)) * log(2*sin(pi*a/ell))

one has h = |S|^2 / (4*R).

L(1,chi) comes from the smoothed approximate functional equation
(Rubinstein, arXiv:math/0412181): for every T > 0,

    L(1,chi) = sum_n chi(n) * erfc(n*sqrt(pi*T/ell)) / n
             + (W/sqrt(ell)) * sum_n conj(chi(n)) * E1(pi*n^2/(ell*T)).

Both kernels fall below exp(-37) after N = O(sqrt(ell)) terms.  chi is
completely multiplicative, so a table of chi(n) for n <= N costs one
modular power p^((ell-1)/3) per prime p <= N and one pass over the
multiples of each prime power.  S costs O(sqrt(ell) * log(ell)) time and
O(sqrt(ell)) memory: the table and the prime flags take about 2 bytes per
term, 3 while the table is built, and N is about 6.9*sqrt(ell), so the
peak is 2.1 MB at MAX_CONDUCTOR.

The root number comes from tau(chi)^3 = ell * J(chi,chi) (Ireland-Rosen,
GTM 84, ch. 9).  The Jacobi sum J = a + b*w is the primary element
(a = 2 mod 3, b = 0 mod 3, so 4*ell = (2a-b)^2 + 27*(b/3)^2) that satisfies
a + b*g^((ell-1)/3) = 0 mod ell, which tells it from its conjugate.  So W is
one of the three cube roots of J/sqrt(ell).  At the fixed point x = 1 of
the theta functional equation of the even primitive chi (Davenport,
Multiplicative Number Theory, ch. 9),

    P = W * conj(P),   P = sum_{n >= 1} chi(n) * exp(-pi*n^2/ell),

and a wrong root W*w^(+-1) misses this by |1 - w| * |P| = sqrt(3) * |P|.
Over the 5346 prime conductors in the residue filter up to MAX_CONDUCTOR,
the right root misses by at most 4.9e-8 * |P|, at m = 42827 where |P| = 1.1e-3
is least (3.9e-11 * |P| for m <= 3000).  No second T cross-checks
L(1,chi); the integrality gate and class-group obstruction of class_number do.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

from .arith import factorize, is_prime, prime_flags, primes_between, shanks_value
from .errors import DomainError, InputRangeError, IntegralityError, NumericError

__all__ = [
    "SimplestCubicField",
    "INTEGRALITY_TOL",
    "MAX_CONDUCTOR",
    "UNIT_INDEX_ASSUMPTION",
    "real_roots",
    "galois_conjugate",
    "regulator",
    "l_sum",
    "class_number",
]

INTEGRALITY_TOL = 1e-3

# Largest conductor class_number accepts (its L-sum needs 6.9*sqrt(ell) = 7e5 terms).
# Over the 5346 prime conductors of the residue filter up to it, the plain-sum
# integrality gap peaks at 2.4e-5 (m = 91786), some 40x inside INTEGRALITY_TOL.
MAX_CONDUCTOR = 10**10

# One smoothing parameter T; _ROOT_AGREE bounds the root number's relative miss.
_SMOOTHING = 0.25
_ROOT_AGREE = 1e-6
# Each series stops once its kernel is below exp(-_KERNEL_CUTOFF).
_KERNEL_CUTOFF = 37.0
_EULER_GAMMA = 0.57721566490153286
# The continued fraction of _e1 at depth d takes the last d pairs
# (2i - 1, i^2), i = d, ..., 1; d = 10 + int(100/x) is at most 110 for x > 1.
_E1_MAX_DEPTH = 110
_E1_STEPS = tuple((2.0 * i - 1.0, float(i * i)) for i in range(_E1_MAX_DEPTH, 0, -1))
# _chi_indices marks the multiples of ell with this index.  The AFE loops
# add their terms to a fourth running sum, which is never read.
_ELL_MULTIPLE = 3
# _SHIFT[c] adds c mod 3 to a chi index and keeps _ELL_MULTIPLE;
# _SHIFT[_ELL_MULTIPLE] marks every index.
_SHIFT = tuple(
    bytes((i + c) % 3 for i in range(3)) + bytes([_ELL_MULTIPLE]) * 253 for c in range(3)
) + (bytes([_ELL_MULTIPLE]) * 256,)

# Named assumption carried into every certificate that consumes these class
# numbers: the exceptional units generate the full unit group modulo +-1.
UNIT_INDEX_ASSUMPTION = "unit-index Q=1"


class SimplestCubicField(NamedTuple):
    """What class_number(m) returns: h, the analytic value rounded to it, the regulator."""

    record_kind = None  # internal: the tower certificate is its record

    m: int
    ell: int
    regulator: float
    class_number_float: float
    class_number: int
    integrality_gap: float


def _eval_f(m: int, x: float) -> float:
    return ((x - m) * x - (m + 3)) * x - 1.0


def _eval_fprime(m: int, x: float) -> float:
    return (3.0 * x - 2.0 * m) * x - (m + 3)


def real_roots(m: int) -> tuple[float, float, float]:
    """The three real roots of f_m, descending.

    Closed-form trigonometric roots of the depressed cubic, polished by
    Newton iteration; each root must satisfy |f_m(root)| <
    1e-10 * max(1, m^3) or a NumericError is raised.
    """
    if m < 1:
        raise DomainError(f"m must be positive, got {m}")
    a, b, c = -float(m), -float(m + 3), -1.0
    p = b - a * a / 3.0
    q = (2.0 * a**3 - 9.0 * a * b + 27.0 * c) / 27.0
    # p = -(m^2+3m+9)/3 < 0 always, so the three-real-root branch applies.
    rad = math.sqrt(-p / 3.0)
    cos_arg = min(1.0, max(-1.0, 3.0 * q / (2.0 * p * rad)))
    theta = math.acos(cos_arg)
    tol = 1e-10 * max(1.0, float(m) ** 3)
    roots = []
    for j in range(3):
        x = 2.0 * rad * math.cos(theta / 3.0 - 2.0 * math.pi * j / 3.0) - a / 3.0
        for _ in range(64):
            fx = _eval_f(m, x)
            fpx = _eval_fprime(m, x)
            if fpx == 0.0:
                break
            step = fx / fpx
            x -= step
            if abs(step) <= 1e-16 * max(1.0, abs(x)):
                break
        if abs(_eval_f(m, x)) >= tol:
            raise NumericError(
                f"Newton polish failed for m={m}: residual {_eval_f(m, x):e}"
            )
        roots.append(x)
    roots.sort(reverse=True)
    if roots[0] == roots[1] or roots[1] == roots[2]:
        raise NumericError(f"coincident roots for m={m}")
    return tuple(roots)


def galois_conjugate(rho: float) -> float:
    """The conjugation map rho -> -1/(1+rho); a 3-cycle on each root set."""
    if 1.0 + rho == 0.0:
        raise DomainError("conjugation undefined at rho = -1")
    return -1.0 / (1.0 + rho)


def regulator(m: int) -> float:
    """Regulator of the unit pair {rho, -1/(1+rho)}.

    Absolute determinant of the 2x2 matrix of log|unit| at the two largest
    roots of f_m.  The three rows, one per real embedding, sum to zero
    (both units have norm +-1), so any two rows give the same value.
    """
    roots = real_roots(m)
    r00 = math.log(abs(roots[0]))
    r01 = math.log(abs(galois_conjugate(roots[0])))
    r10 = math.log(abs(roots[1]))
    r11 = math.log(abs(galois_conjugate(roots[1])))
    det = r00 * r11 - r01 * r10
    if abs(det) < 1e-12:
        raise NumericError(f"degenerate unit lattice for m={m}: |det|={abs(det):e}")
    return abs(det)


def _least_primitive_root(ell: int) -> int:
    exponents = [(ell - 1) // q for q, _ in factorize(ell - 1)]
    for g in range(2, ell):
        if all(pow(g, e, ell) != 1 for e in exponents):
            return g
    raise NumericError(f"no primitive root found mod {ell}")  # unreachable for prime ell


def _e1(x: float) -> float:
    """Exponential integral E1(x) = integral of exp(-t)/t over t > x, for x > 0.

    Power series for x <= 1; above that the continued fraction
    exp(-x) / (x+1 - 1/(x+3 - 4/(x+5 - 9/...))), evaluated from the bottom
    up at depth 10 + 100/x (within 4.4e-16 relative of mpmath on (1, 40],
    where a forward Lentz product drifts to 1e-14 near x = 1); 0 past
    x = 40, where E1(x) < 1e-19.
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
                return -_EULER_GAMMA - math.log(x) - total
    depth = 10 + int(100.0 / x)
    tail = x + 2 * depth + 1
    # islice, not a slice: CPython keeps up to 2000 freed tuples of each
    # length below 20 for reuse, which would hold some 400 KB after a sweep
    for odd, square in islice(_E1_STEPS, _E1_MAX_DEPTH - depth, None):
        tail = x + odd - square / tail
    return math.exp(-x) / tail


def _jacobi_sum(ell: int, zeta: int) -> tuple[int, int]:
    """(a, b) with J(chi, chi) = a + b*w, for chi(n) = w^k where n^((ell-1)/3) = zeta^k mod ell.

    Cornacchia's algorithm, started from the square root 2*zeta + 1 of -3,
    solves x^2 + 3y^2 = ell; then x + y*sqrt(-3) = (x + y) + 2y*w has norm
    ell.  J is the one of its six associates and their conjugates that is
    primary (a = 2 mod 3, b = 0 mod 3, so 4*ell = (2a - b)^2 + 27*(b/3)^2)
    and lies over the prime (ell, w - zeta) of Z[w]: a + b*zeta = 0 mod ell.
    """
    r0, r1 = ell, (2 * zeta + 1) % ell
    while r1 * r1 > ell:
        r0, r1 = r1, r0 % r1
    y = math.isqrt((ell - r1 * r1) // 3)
    if r1 * r1 + 3 * y * y != ell:
        raise NumericError(f"Cornacchia found no x^2 + 3y^2 = {ell}")
    a, b = r1 + y, 2 * y
    for _ in range(6):
        for c, d in ((a, b), (a - b, -b)):  # the element and its conjugate
            if c % 3 == 2 and d % 3 == 0 and (c + d * zeta) % ell == 0:
                return c, d
        a, b = b, b - a  # multiply by the unit -w
    raise NumericError(f"no primary Jacobi sum found mod {ell}")  # unreachable for prime ell


def _chi_indices(ell: int, zeta: int, n_max: int) -> bytearray:
    """idx with chi(n) = w^idx[n] for 0 <= n <= n_max, and idx[n] = _ELL_MULTIPLE where ell | n.

    chi(n) = w^k where n^((ell-1)/3) = zeta^k mod ell.  chi is completely
    multiplicative, so idx[n] is the sum of v_p(n) * idx[p] mod 3: one
    modular power per prime p <= n_max, then one translate of the
    multiples of each power of p.
    """
    idx = bytearray(n_max + 1)
    idx[0] = _ELL_MULTIPLE
    e = (ell - 1) // 3
    index = {1: 0, zeta: 1, zeta * zeta % ell: 2, 0: _ELL_MULTIPLE}
    for p in primes_between(prime_flags(n_max), 2, n_max):
        c = index[pow(p, e, ell)]
        if c:
            q = p
            while q <= n_max:
                idx[q::q] = idx[q::q].translate(_SHIFT[c])
                q *= p
    return idx


def _afe_sums(ell: int, zeta: int) -> list[complex]:
    """The AFE series A, B of chi mod ell at T = _SMOOTHING, and its theta series P:

        A = sum chi(n) * erfc(n * sqrt(pi*T/ell)) / n,
        B = sum conj(chi(n)) * E1(pi * n^2 / (ell*T)),
        P = sum chi(n) * exp(-pi * n^2 / ell),

    each cut once its kernel is below exp(-_KERNEL_CUTOFF).  chi(n) comes
    from _chi_indices, and each series is one loop over n that keeps three
    running sums (by value of chi), all plain floats.
    """
    erfc, e1, exp = math.erfc, _e1, math.exp
    # erfc(x) <= exp(-x^2) and E1(x) < exp(-x) bound the kernels.
    alpha = math.sqrt(math.pi * _SMOOTHING / ell)
    beta = math.pi / (ell * _SMOOTHING)
    gamma = math.pi / ell
    a_cut = int(math.sqrt(_KERNEL_CUTOFF) / alpha)
    b_cut = int(math.sqrt(_KERNEL_CUTOFF / beta))
    p_cut = int(math.sqrt(_KERNEL_CUTOFF / gamma))
    idx = _chi_indices(ell, zeta, max(a_cut, b_cut, p_cut))
    a_sums = [0.0] * 4
    for n in range(1, a_cut + 1):
        a_sums[idx[n]] += erfc(n * alpha) / n
    b_sums = [0.0] * 4
    for n in range(1, b_cut + 1):
        b_sums[idx[n]] += e1(beta * n * n)
    p_sums = [0.0] * 4
    for n in range(1, p_cut + 1):
        p_sums[idx[n]] += exp(-gamma * n * n)
    half_sqrt3 = math.sqrt(3.0) / 2.0
    # chi takes the values 1, w, w^2 on the three sums
    a, b, p = (
        complex(s0 - 0.5 * (s1 + s2), half_sqrt3 * (s1 - s2))
        for s0, s1, s2, _ in (a_sums, b_sums, p_sums)
    )
    return [a, b.conjugate(), p]  # the B series carries conj(chi)


def _l_value(ell: int) -> tuple[complex, complex]:
    """L(1, chi) and the root number W = tau(chi)/sqrt(ell), for prime ell = 1 mod 3.

    chi(g) = w for the least primitive root g.  L(1, chi) is
    A + (W/sqrt(ell)) * B (see _afe_sums), and W is the cube root w of
    J(chi,chi)/sqrt(ell) with |P - w*conj(P)| < _ROOT_AGREE * |P|.
    NumericError is raised unless exactly one root fits (none fits P = 0).
    """
    zeta = pow(_least_primitive_root(ell), (ell - 1) // 3, ell)
    afe_a, afe_b, p = _afe_sums(ell, zeta)
    a, b = _jacobi_sum(ell, zeta)
    # W^3 = tau^3 / ell^(3/2) = J / sqrt(ell), and |J| = sqrt(ell)
    angle = math.atan2(b * math.sqrt(3.0) / 2.0, a - b / 2.0)
    thetas = [(angle + 2.0 * math.pi * k) / 3.0 for k in range(3)]
    roots = [complex(math.cos(theta), math.sin(theta)) for theta in thetas]
    misses = [abs(p - w * p.conjugate()) for w in roots]
    fits = [w for w, miss in zip(roots, misses) if miss < _ROOT_AGREE * abs(p)]
    if len(fits) != 1:
        raise NumericError(
            f"root number mod {ell} not resolved: the three cube roots w of "
            f"J/sqrt(ell) miss P = w*conj(P) by {misses}, with |P| = {abs(p)!r}"
        )
    (w,) = fits
    return afe_a + w * afe_b / math.sqrt(ell), w


def l_sum(ell: int) -> complex:
    """S = -sqrt(ell) * L(1, chi) / W for the cubic chi mod ell with chi(g) = w.

    S equals the log-sine sum sum conj(chi(a)) * log(2*sin(pi*a/ell)), and
    |S|^2 = ell * |L(1,chi)|^2 feeds the class number formula.  L(1, chi)
    comes from the approximate functional equation at one T and W from the
    theta relation (see _l_value), in O(sqrt(ell) * log(ell)) time and
    O(sqrt(ell)) memory: a table of chi(n) for the 6.9*sqrt(ell) terms, at
    most 2.1 MB while it is built under MAX_CONDUCTOR.  The AFE's running
    sums are plain floats.
    """
    if ell < 7:
        raise DomainError(f"conductor must be at least 7, got {ell}")
    if not is_prime(ell):
        raise DomainError(f"conductor {ell} is not prime")
    if ell % 3 != 1:
        raise DomainError(f"no cubic character mod {ell}: ell != 1 mod 3")
    l_value, w = _l_value(ell)
    return -math.sqrt(ell) * l_value / w


def _class_group_obstruction(h: int) -> str | None:
    """Why no cyclic cubic field of prime conductor has class number h, or None.

    Genus theory with one ramified prime gives 3 not dividing h.  The norm
    1 + sigma + sigma^2 kills the class group, so it is a Z[w]-module; a
    prime q = 2 mod 3 stays prime in Z[w], so q divides h to an even power
    (Washington, Introduction to Cyclotomic Fields, GTM 83).
    """
    for q, e in factorize(h):
        if q == 3:
            return "3 divides h"
        if q % 3 == 2 and e % 2:
            return f"{q} divides h to an odd power"
    return None


def class_number(m: int) -> SimplestCubicField:
    """Analytic class number h = |S|^2 / (4R) with integrality diagnostics.

    Requires a prime conductor of at most MAX_CONDUCTOR (InputRangeError
    above it).  S is summed once, with no retry: the computation fails
    loudly if the analytic value misses every integer by at least
    INTEGRALITY_TOL or rounds to an h that no cyclic cubic field of prime
    conductor has (see _class_group_obstruction).  A value near an
    integer divided by 3 is flagged as a possible unit-index failure rather
    than rounded.
    """
    ell = shanks_value(m)
    if ell > MAX_CONDUCTOR:
        raise InputRangeError(f"conductor {ell} (m={m}) is above MAX_CONDUCTOR = {MAX_CONDUCTOR}")
    if not is_prime(ell):
        raise DomainError(f"conductor {ell} (m={m}) is composite")
    reg = regulator(m)
    s = l_sum(ell)
    h_float = (s.real * s.real + s.imag * s.imag) / (4.0 * reg)
    h = round(h_float)
    gap = abs(h_float - h)
    integral = gap < INTEGRALITY_TOL and h >= 1
    if not integral:
        problem = f"misses integrality tolerance {INTEGRALITY_TOL}"
    elif (obstruction := _class_group_obstruction(h)) is not None:
        problem = f"rounds to {h}, which no cyclic cubic field of prime conductor has: {obstruction}"
    else:
        return SimplestCubicField(
            m=m,
            ell=ell,
            regulator=reg,
            class_number_float=h_float,
            class_number=h,
            integrality_gap=gap,
        )
    thirds_gap = abs(3.0 * h_float - round(3.0 * h_float))
    raise IntegralityError(
        f"analytic class number {h_float!r} for m={m} {problem}",
        value=h_float,
        gap=gap,
        unit_index_suspected=not integral and thirds_gap < 3.0 * INTEGRALITY_TOL,
    )
