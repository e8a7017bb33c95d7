"""Infinite-class-field-tower certificates for Q(zeta_ell), ell = m^2+3m+9.

The sufficient condition is the Golod-Shafarevich bound in Schoof's
refined form: an extension with rho ramified places (finite and infinite)
over a base with unit-group 2-rank d2_base, and top unit-group 2-rank
d2_top, has an infinite class field tower once

    rho >= 3 + d2_base + 2*sqrt(d2_top + 1).

Here the extension is the totally imaginary quadratic step above the
Hilbert class field of the simplest cubic field F_m: with h the class
number of F_m, both 2-ranks equal 3h, and rho = 4h (all 3h infinite places
plus the h primes above ell).  The inequality then reads
4h >= 3 + 3h + 2*sqrt(3h+1), which holds exactly when h >= 18.

The fields above F_m are symbolic here: only degrees, signatures, and
2-ranks are data.  Nothing in this module constructs a tower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import MR_WITNESSES, is_prime
from .cubic import UNIT_INDEX_ASSUMPTION, class_number
from .errors import CertificationRejected, DomainError
from .hlsearch import DEFAULT_RESIDUES, shanks_value

__all__ = [
    "FieldSignature",
    "SchoofInput",
    "TowerProvenance",
    "CyclotomicTowerCertificate",
    "RegistryEntry",
    "KnownInfiniteRegistry",
    "DEFAULT_REGISTRY",
    "TORSION_ASSUMPTION",
    "unit_2rank",
    "ramified_count",
    "schoof_rhs",
    "schoof_holds",
    "certify_cyclotomic",
    "known_infinite",
]

# Both fields in the quadratic step are assumed to contain no roots of
# unity beyond +-1; recorded, not proved.
TORSION_ASSUMPTION = "torsion-units=+/-1"


@dataclass(frozen=True)
class FieldSignature:
    degree: int
    r1: int
    r2: int

    def __post_init__(self):
        if self.degree < 1 or self.r1 < 0 or self.r2 < 0:
            raise DomainError(f"invalid signature {self}")
        if self.r1 + 2 * self.r2 != self.degree:
            raise DomainError(f"r1 + 2*r2 != degree in {self}")


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
    appears in the assumption list.
    """

    ell: int
    m: int
    h: int
    rho: int
    rhs: float
    certified: bool
    assumptions: tuple[str, ...]
    provenance: TowerProvenance

    def __post_init__(self):
        if self.rho != 4 * self.h:
            raise DomainError(f"rho {self.rho} != 4h for h={self.h}")


@dataclass(frozen=True)
class RegistryEntry:
    """Evidence that Q(zeta_ell) has an infinite tower, with provenance."""

    ell: int
    literature: bool
    certificate: CyclotomicTowerCertificate | None

    @property
    def provenance(self) -> str:
        return "literature" if self.literature else "computed"


class KnownInfiniteRegistry:
    """Append-only map from prime conductors to tower evidence.

    Seeded with the conductors whose infinite towers are established in the
    literature; seeds are never overwritten, though a computed certificate
    may be attached alongside.  Entries are immutable; the map is plain
    process-local state with no locking, as nothing here runs threads.
    """

    LITERATURE_CONDUCTORS = (877,)

    def __init__(self):
        self._entries: dict[int, RegistryEntry] = {
            ell: RegistryEntry(ell, literature=True, certificate=None)
            for ell in self.LITERATURE_CONDUCTORS
        }

    def record(self, certificate: CyclotomicTowerCertificate) -> None:
        if not certificate.certified:
            raise DomainError("only certified certificates enter the registry")
        existing = self._entries.get(certificate.ell)
        if existing is None:
            self._entries[certificate.ell] = RegistryEntry(
                certificate.ell, literature=False, certificate=certificate
            )
        elif existing.certificate is None:
            # keep the literature flag, attach the computation
            self._entries[certificate.ell] = RegistryEntry(
                certificate.ell,
                literature=existing.literature,
                certificate=certificate,
            )

    def known_infinite(self, ell: int) -> RegistryEntry | None:
        if not is_prime(ell):
            raise DomainError(f"registry keys are prime conductors, got {ell}")
        return self._entries.get(ell)

    def conductors(self) -> list[int]:
        return sorted(self._entries)


# Shared process-wide registry; the 877 literature seed is always present.
# Callers needing isolation pass their own KnownInfiniteRegistry.
DEFAULT_REGISTRY = KnownInfiniteRegistry()


def unit_2rank(sig: FieldSignature) -> int:
    """2-rank of the unit group: r1 + r2.

    Dirichlet gives free rank r1 + r2 - 1; the torsion unit -1 contributes
    one more, assuming the roots of unity are exactly +-1.
    """
    return sig.r1 + sig.r2


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
    recorded in the registry (DEFAULT_REGISTRY when none is given).
    """
    if registry is None:
        registry = DEFAULT_REGISTRY
    ell = shanks_value(m)
    reasons = []
    if not is_prime(ell):
        reasons.append("composite")
    if m % 12 not in DEFAULT_RESIDUES:
        reasons.append("residue")
    if reasons:
        raise CertificationRejected(reasons, m=m, ell=ell)
    assert ell % 12 == 7, (m, ell)  # forced by the residue filter
    field = class_number(m)
    h = field.class_number
    rho = ramified_count(h)
    base_sig = FieldSignature(degree=3 * h, r1=3 * h, r2=0)
    top_sig = FieldSignature(degree=6 * h, r1=0, r2=3 * h)
    d2_base = unit_2rank(base_sig)
    d2_top = unit_2rank(top_sig)
    certificate = CyclotomicTowerCertificate(
        ell=ell,
        m=m,
        h=h,
        rho=rho,
        rhs=schoof_rhs(d2_base, d2_top),
        certified=schoof_holds(SchoofInput(rho, d2_base, d2_top)),
        assumptions=(UNIT_INDEX_ASSUMPTION, TORSION_ASSUMPTION),
        provenance=TowerProvenance(
            m_mod_12=m % 12,
            ell_mod_12=ell % 12,
            primality_method="deterministic-miller-rabin",
            primality_witnesses=MR_WITNESSES,
            class_number_float=field.class_number_float,
            integrality_gap=field.integrality_gap,
            ramified_infinite_places=3 * h,
            ramified_finite_primes=h,
        ),
    )
    if certificate.certified:
        registry.record(certificate)
    return certificate


def known_infinite(
    ell: int, registry: KnownInfiniteRegistry | None = None
) -> RegistryEntry | None:
    """Registry lookup: evidence that Q(zeta_ell) has an infinite tower."""
    return (registry if registry is not None else DEFAULT_REGISTRY).known_infinite(ell)
