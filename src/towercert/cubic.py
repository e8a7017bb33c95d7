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
With chi a cubic character mod ell and

    S = sum_{a=1}^{ell-1} conj(chi(a)) * log(2*sin(pi*a/ell)),

one has |L(1,chi)|^2 = |S|^2 / ell (the Gauss-sum magnitude ell cancels),
and the residue of the Dedekind zeta function gives h * R = ell *
|L(1,chi)|^2 / 4, hence

    h = |S|^2 / (4*R).

With g the least primitive root and chi(g^t) = w^t, the terms of S are
bucketed by t mod 3.  Since g^((ell-1)/2) = -1 and (ell-1)/2 = 0 mod 3, the
second half of the walk, t >= (ell-1)/2, visits ell - a for each a of the
first half, with the same character value and the same log-sine; so S is
twice the sum over t < (ell-1)/2.  Bucket r is its own walk g^r, g^(r+3),
... of stride g^3.  The computation is O(ell) multiplications and
logarithmic sines in O(1) memory; no discrete-log table is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import factorize, is_prime
from .errors import DomainError, IntegralityError, NumericError
from .hlsearch import shanks_value

__all__ = [
    "SimplestCubicField",
    "INTEGRALITY_TOL",
    "UNIT_INDEX_ASSUMPTION",
    "cubic_poly",
    "real_roots",
    "galois_conjugate",
    "regulator",
    "l_sum",
    "class_number",
]

INTEGRALITY_TOL = 1e-3

# Named assumption carried into every certificate that consumes these class
# numbers: the exceptional units generate the full unit group modulo +-1.
UNIT_INDEX_ASSUMPTION = "unit-index Q=1"


@dataclass(frozen=True)
class SimplestCubicField:
    """Fully populated invariants for one member of the family."""

    m: int
    ell: int
    disc: int
    roots: tuple[float, float, float]
    regulator: float
    class_number_float: float
    class_number: int
    integrality_gap: float


def cubic_poly(m: int) -> tuple[int, int, int, int]:
    """Monic coefficients (1, -m, -(m+3), -1) of f_m."""
    if m < 1:
        raise DomainError(f"m must be positive, got {m}")
    return (1, -m, -(m + 3), -1)


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


def _log_sine_walk(ell: int, v: int, stride: int, count: int):
    """Yield log(2*sin(pi*a/ell)) for a = v, v*stride, ... (count terms) mod ell.

    stride^count must be -1 mod ell, so the walk has to end at ell - v;
    anything else means the generator arithmetic is wrong, and NumericError
    is raised after the last term.
    """
    step = math.pi / ell
    log, sin = math.log, math.sin
    end = ell - v
    for _ in range(count):
        yield log(2.0 * sin(step * v))
        v = v * stride % ell
    if v != end:
        raise NumericError(f"half walk mod {ell} does not close: ended at {v}, expected {end}")


def l_sum(ell: int, compensated: bool = False) -> complex:
    """S = sum conj(chi(a)) * log(2*sin(pi*a/ell)) for the cubic chi mod ell.

    |S|^2 = ell * |L(1,chi)|^2 feeds the class number formula.  Each of
    the three half-range bucket walks is summed by ``sum`` (a running
    float sum), or by ``math.fsum`` when ``compensated``.
    """
    if ell < 7:
        raise DomainError(f"conductor must be at least 7, got {ell}")
    if not is_prime(ell):
        raise DomainError(f"conductor {ell} is not prime")
    if ell % 3 != 1:
        raise DomainError(f"no cubic character mod {ell}: ell != 1 mod 3")
    g = _least_primitive_root(ell)
    stride = pow(g, 3, ell)
    count = (ell - 1) // 6
    total = math.fsum if compensated else sum
    t0, t1, t2 = (
        2.0 * total(_log_sine_walk(ell, pow(g, r, ell), stride, count)) for r in range(3)
    )
    # conj(chi) takes values 1, wbar, wbar^2 with wbar = exp(-2*pi*i/3).
    half_sqrt3 = math.sqrt(3.0) / 2.0
    return complex(t0 - 0.5 * (t1 + t2), half_sqrt3 * (t2 - t1))


def class_number(m: int) -> SimplestCubicField:
    """Analytic class number h = |S|^2 / (4R) with integrality diagnostics.

    Requires prime conductor.  If the analytic value misses every integer
    by at least INTEGRALITY_TOL even after compensated resummation, the
    computation fails loudly; a value near an integer divided by 3 is
    flagged as a possible unit-index failure rather than rounded.
    """
    ell = shanks_value(m)
    if not is_prime(ell):
        raise DomainError(f"conductor {ell} (m={m}) is composite")
    roots = real_roots(m)
    reg = regulator(m)
    for compensated in (False, True):
        s = l_sum(ell, compensated=compensated)
        h_float = (s.real * s.real + s.imag * s.imag) / (4.0 * reg)
        h = round(h_float)
        gap = abs(h_float - h)
        if gap < INTEGRALITY_TOL and h >= 1:
            return SimplestCubicField(
                m=m,
                ell=ell,
                disc=ell * ell,
                roots=roots,
                regulator=reg,
                class_number_float=h_float,
                class_number=h,
                integrality_gap=gap,
            )
    thirds_gap = abs(3.0 * h_float - round(3.0 * h_float))
    raise IntegralityError(
        f"analytic class number {h_float!r} for m={m} misses integrality "
        f"tolerance {INTEGRALITY_TOL}",
        value=h_float,
        gap=gap,
        unit_index_suspected=thirds_gap < 3.0 * INTEGRALITY_TOL,
    )
