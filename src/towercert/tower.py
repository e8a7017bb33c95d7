"""Infinite-class-field-tower certificates for Q(zeta_ell), ell = m^2+3m+9.

The sufficient condition is the Golod-Shafarevich bound in Schoof's
refined form: an extension with rho ramified places (finite and infinite)
over a base with unit-group 2-rank d2_base, and top unit-group 2-rank
d2_top, has an infinite class field tower once

    rho >= 3 + d2_base + 2*sqrt(d2_top + 1).

Here the extension is the totally imaginary quadratic step above the
Hilbert class field of the simplest cubic field F_m, and h is the class
number of F_m.  A unit group's 2-rank is r1 + r2: Dirichlet's free rank
r1 + r2 - 1 plus the torsion unit -1, assuming the roots of unity are
exactly +-1.  The class field is totally real of degree 3h (r1 = 3h,
r2 = 0) and the step above it totally imaginary (r1 = 0, r2 = 3h), so both
2-ranks equal 3h, and rho = 4h (all 3h infinite places plus the h primes
above ell).  The inequality then reads 4h >= 3 + 3h + 2*sqrt(3h+1), which
holds exactly when h >= 18.

The fields above F_m are symbolic here: only h and the counts derived
from it are data.  Nothing in this module constructs a tower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import MR_WITNESSES, is_prime
from .cubic import UNIT_INDEX_ASSUMPTION, class_number
from .errors import CertificationRejected, DomainError
from .hlsearch import DEFAULT_RESIDUES, shanks_value

__all__ = [
    "SchoofInput",
    "TowerProvenance",
    "CyclotomicTowerCertificate",
    "KnownInfiniteRegistry",
    "TORSION_ASSUMPTION",
    "ramified_count",
    "schoof_rhs",
    "schoof_holds",
    "certify_cyclotomic",
]

# Both fields in the quadratic step are assumed to contain no roots of
# unity beyond +-1; recorded, not proved.
TORSION_ASSUMPTION = "torsion-units=+/-1"


@dataclass(frozen=True)
class SchoofInput:
    rho: int
    d2_base: int
    d2_top: int

    def __post_init__(self):
        if min(self.rho, self.d2_base, self.d2_top) < 0:
            raise DomainError(f"negative field in {self}")


@dataclass(frozen=True)
class TowerProvenance:
    """Construction trace attached to every certificate."""

    m_mod_12: int
    ell_mod_12: int
    primality_method: str
    primality_witnesses: tuple[int, ...]
    class_number_float: float
    integrality_gap: float
    ramified_infinite_places: int
    ramified_finite_primes: int


@dataclass(frozen=True)
class CyclotomicTowerCertificate:
    """Audited verdict that Q(zeta_ell) has an infinite class field tower.

    The verdict for a single ell is unconditional (modulo the named
    assumptions); no infinitude claim is made, so "Hardy-Littlewood" never
    appears in the assumption list.  certify_cyclotomic is the only
    constructor in the package, and it derives every field from m, so no
    certificate claims more than it proves.  A tower record read back from
    a file is never rebuilt into a certificate: it counts as evidence only
    when certify_cyclotomic reproduces it to its content hash.
    """

    ell: int
    m: int
    h: int
    rho: int
    rhs: float
    certified: bool
    assumptions: tuple[str, ...]
    provenance: TowerProvenance


class KnownInfiniteRegistry:
    """Map from prime conductors to tower evidence: "literature" or "computed".

    Seeded with the conductors whose infinite towers are established in the
    literature; a seed is never overwritten, and neither is an earlier
    computed entry.  There is no shared instance: each caller builds its
    own registry and passes it wherever evidence is recorded or read.
    """

    LITERATURE_CONDUCTORS = (877,)

    def __init__(self):
        self._evidence = dict.fromkeys(self.LITERATURE_CONDUCTORS, "literature")

    def record(self, certificate: CyclotomicTowerCertificate) -> None:
        if not certificate.certified:
            raise DomainError("only certified certificates enter the registry")
        self._evidence.setdefault(certificate.ell, "computed")

    def known_infinite(self, ell: int) -> str | None:
        """Evidence that Q(zeta_ell) has an infinite tower, or None."""
        if not is_prime(ell):
            raise DomainError(f"registry keys are prime conductors, got {ell}")
        return self._evidence.get(ell)


def ramified_count(h: int) -> int:
    """Ramified places in the quadratic step above the class field: 4h.

    3h infinite places (totally imaginary step) plus h primes above ell
    (ell splits completely into h primes in the class field, each then
    ramifying).  Certificates record the two addends separately.
    """
    if h < 1:
        raise DomainError(f"class number must be positive, got {h}")
    return 3 * h + h


def schoof_rhs(d2_base: int, d2_top: int) -> float:
    """3 + d2_base + 2*sqrt(d2_top + 1), as a float for reporting."""
    return 3.0 + d2_base + 2.0 * math.sqrt(d2_top + 1.0)


def schoof_holds(inp: SchoofInput) -> bool:
    """Exact test of rho >= 3 + d2_base + 2*sqrt(d2_top + 1).

    Evaluated as (rho - 3 - d2_base)^2 >= 4*(d2_top + 1) in integer
    arithmetic so the verdict cannot flip across platforms at the boundary.
    """
    t = inp.rho - 3 - inp.d2_base
    return t >= 0 and t * t >= 4 * (inp.d2_top + 1)


def certify_cyclotomic(
    m: int, registry: KnownInfiniteRegistry | None = None
) -> CyclotomicTowerCertificate:
    """Run the full pipeline for one m and return the audited verdict.

    Raises CertificationRejected (reasons "composite" and/or "residue") if
    the conductor is not prime or m is outside the mod-12 filter; returns a
    certificate with certified=False when the conductor is prime but the
    class number stays below the threshold.  Certified conductors are
    recorded in the registry when one is given.
    """
    ell = shanks_value(m)
    reasons = []
    if not is_prime(ell):
        reasons.append("composite")
    if m % 12 not in DEFAULT_RESIDUES:
        reasons.append("residue")
    if reasons:
        raise CertificationRejected(reasons, m=m, ell=ell)
    field = class_number(m)
    h = field.class_number
    rho = ramified_count(h)
    d2 = 3 * h  # r1 + r2 = 3h for the class field and the step above it
    certificate = CyclotomicTowerCertificate(
        ell=ell,
        m=m,
        h=h,
        rho=rho,
        rhs=schoof_rhs(d2, d2),
        certified=schoof_holds(SchoofInput(rho, d2, d2)),
        assumptions=(UNIT_INDEX_ASSUMPTION, TORSION_ASSUMPTION),
        provenance=TowerProvenance(
            m_mod_12=m % 12,
            ell_mod_12=ell % 12,
            primality_method="deterministic-miller-rabin",
            primality_witnesses=MR_WITNESSES,
            class_number_float=field.class_number_float,
            integrality_gap=field.integrality_gap,
            ramified_infinite_places=d2,
            ramified_finite_primes=h,
        ),
    )
    if certificate.certified and registry is not None:
        registry.record(certificate)
    return certificate
