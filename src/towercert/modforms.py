"""Gates for fixed fields of mod-ell representations of level-1 eigenforms.

For each weight k in {12, 16, 18, 20, 22, 26} there is a unique normalized
cuspidal eigenform of level 1, and Swinnerton-Dyer's table lists the finitely
many exceptional primes ell where the mod-ell representation is small.  Away
from those, the image is the full determinant-one preimage; it is all of
GL2(F_ell) exactly when gcd(k-1, ell-1) = 1.  Certification of the fixed
field additionally needs tower evidence for Q(zeta_ell): ell is one of the
LITERATURE_CONDUCTORS, or the caller passes a certified certificate that
certify_cyclotomic computed for ell.  The CLI never loads evidence: a
registry file can only cite a tower record, which counts once
certify_cyclotomic reproduces it to its content hash.

The residue-claim verifier checks, per prime q | k-1, whether the family
ell = m^2+3m+9 can avoid ell = 1 mod q at all.  For q = 3 it cannot: any m
with 3 | m gives 3 | ell (composite, since ell >= 13), and m nonzero mod 3
forces ell = m^2 = 1 mod 3.  The verifier reports that honestly instead of
glossing over it; the gcd gate in certify_eigenform is the arbiter.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .arith import factorize, is_prime
from .errors import DomainError

if TYPE_CHECKING:  # certify_eigenform only reads the certificate it is given
    from .tower import CyclotomicTowerCertificate

__all__ = [
    "VALID_WEIGHTS",
    "EXCEPTIONAL_PRIMES",
    "LITERATURE_CONDUCTORS",
    "EigenformCertificate",
    "ResidueQVerdict",
    "ResidueClaimReport",
    "exceptional_primes",
    "det_image_index",
    "certify_eigenform",
    "verify_residue_claim",
]

# Swinnerton-Dyer's exceptional primes per weight.  The weight-20 source row
# prints a doubled comma between 13 and 283; read as a typographical slip,
# since every entry must be prime.
EXCEPTIONAL_PRIMES: dict[int, frozenset[int]] = {
    12: frozenset({2, 3, 5, 7, 23, 691}),
    16: frozenset({2, 3, 5, 7, 11, 31, 59, 3617}),
    18: frozenset({2, 3, 5, 7, 11, 13, 43867}),
    20: frozenset({2, 3, 5, 7, 11, 13, 283, 617}),
    22: frozenset({2, 3, 5, 7, 13, 17, 131, 593}),
    26: frozenset({2, 3, 5, 7, 11, 17, 19, 657931}),
}

# The weights with one normalized cuspidal eigenform of level 1: the table's rows.
VALID_WEIGHTS = tuple(EXCEPTIONAL_PRIMES)

# Conductors whose cyclotomic fields have infinite towers by the literature.
LITERATURE_CONDUCTORS = frozenset({877})


class EigenformCertificate(NamedTuple):
    """Verdict for the fixed field of the weight-k mod-ell representation."""

    record_kind = "eigenform"

    k: int
    ell: int
    not_exceptional: bool
    det_index: int
    galois_group_full: bool
    tower_evidence: str | None
    certified: bool
    rejection_reasons: tuple[str, ...]


class ResidueQVerdict(NamedTuple):
    """Scan of ell = m^2+3m+9 mod q over all residue classes of m.

    witnesses: classes with ell = 1 mod q.  zero_classes: classes with
    q | ell, which primality of ell already rules out (ell >= 13 > q here).
    never_one: witnesses is empty, so the claim holds for this q.  forced:
    every class not killed by q | ell lands on 1 mod q.
    """

    record_kind = None  # nested in residue_claim records only

    q: int
    witnesses: tuple[int, ...]
    zero_classes: tuple[int, ...]
    never_one: bool
    forced: bool


class ResidueClaimReport(NamedTuple):
    record_kind = "residue_claim"

    k: int
    prime_divisors: tuple[int, ...]
    verdicts: tuple[ResidueQVerdict, ...]
    claim_holds: bool


def exceptional_primes(k: int) -> frozenset[int]:
    """Table row for weight k; weights 14 and 24 have no eigenform at all."""
    if k not in EXCEPTIONAL_PRIMES:
        raise DomainError(f"no unique level-1 eigenform of weight {k}")
    return EXCEPTIONAL_PRIMES[k]


def det_image_index(k: int, ell: int) -> int:
    """Index of the determinant image: gcd(k-1, ell-1).

    Index 1 means the mod-ell image is the whole of GL2(F_ell) once ell is
    not exceptional.
    """
    if ell < 3 or not is_prime(ell):
        raise DomainError(f"ell must be an odd prime, got {ell}")
    exceptional_primes(k)
    return math.gcd(k - 1, ell - 1)


def certify_eigenform(
    k: int, ell: int, tower: CyclotomicTowerCertificate | None = None
) -> EigenformCertificate:
    """Evaluate the three hypotheses for the weight-k, prime-ell fixed field.

    Rejections are structured (flags plus rejection_reasons, in the order
    exceptional, det_index, no_tower_evidence), never raised; only
    malformed inputs raise, among them ell = 2 (det_image_index needs an
    odd prime) and a tower certificate for another conductor.  Tower
    evidence is "literature" for LITERATURE_CONDUCTORS, else "computed"
    when tower is certified, else None; it is read, never recomputed, so
    this gate stays pure and fast.
    """
    exceptional = exceptional_primes(k)
    det_index = det_image_index(k, ell)
    if tower is not None and tower.ell != ell:
        raise DomainError(f"tower certificate is for ell={tower.ell}, not {ell}")
    if ell in LITERATURE_CONDUCTORS:
        evidence = "literature"
    else:
        evidence = "computed" if tower is not None and tower.certified else None
    not_exceptional = ell not in exceptional
    reasons = []
    if not not_exceptional:
        reasons.append("exceptional")
    if det_index != 1:
        reasons.append("det_index")
    if evidence is None:
        reasons.append("no_tower_evidence")
    return EigenformCertificate(
        k=k,
        ell=ell,
        not_exceptional=not_exceptional,
        det_index=det_index,
        galois_group_full=not_exceptional and det_index == 1,
        tower_evidence=evidence,
        certified=not reasons,
        rejection_reasons=tuple(reasons),
    )


def verify_residue_claim(k: int) -> ResidueClaimReport:
    """Check whether ell = m^2+3m+9 can avoid 1 mod q for every q | k-1.

    Exhaustive over m mod q.  The claim fails exactly when some class gives
    ell = 1 mod q; for q = 3 every class surviving the primality constraint
    does, so weights with 3 | k-1 (16 and 22) fail with that witness.
    """
    exceptional_primes(k)
    divisors = tuple(p for p, _ in factorize(k - 1))
    verdicts = []
    for q in divisors:
        witnesses = []
        zeros = []
        for m in range(q):
            value = (m * m + 3 * m + 9) % q
            if value == 1:
                witnesses.append(m)
            elif value == 0:
                zeros.append(m)
        forced = len(witnesses) + len(zeros) == q
        verdicts.append(ResidueQVerdict(q, tuple(witnesses), tuple(zeros), not witnesses, forced))
    return ResidueClaimReport(
        k=k,
        prime_divisors=divisors,
        verdicts=tuple(verdicts),
        claim_holds=all(v.never_one for v in verdicts),
    )
