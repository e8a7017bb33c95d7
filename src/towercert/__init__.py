"""Certificates for number fields with infinite Hilbert class field towers.

The package certifies three related constructions at desk scale: cyclotomic
fields Q(zeta_ell) for primes ell = m^2+3m+9 via analytic class numbers of
the simplest cubic fields and the Golod-Shafarevich/Schoof bound, fixed
fields of level-1 eigenform representations via exceptional-prime and
determinant-index gates, and Furuta-style composites via nine-prime
witnesses with SL2(Z/n) perfectness checks.
"""

from .arith import exact_sqrt, gcd, is_prime, jacobi_symbol, primes_up_to
from .cubic import (
    SimplestCubicField,
    class_number,
    cubic_poly,
    galois_conjugate,
    l_sum,
    real_roots,
    regulator,
)
from .elliptic import (
    CONDUCTOR_37_GATE,
    EllipticGate,
    FurutaWitness,
    GroupReport,
    furuta_n,
    sl2_order,
    sl2_perfect,
    surjectivity_gate,
)
from .errors import (
    CertificationRejected,
    DomainError,
    InputRangeError,
    IntegralityError,
    NumericError,
    ResourceLimitError,
)
from .hlsearch import (
    CONDUCTOR_POLY,
    DEFAULT_RESIDUES,
    QuadraticIntPoly,
    ShanksCandidate,
    discriminant,
    empirical_prime_count,
    hl_admissible,
    hl_constant,
    m_from_prime,
    search_shanks_candidates,
    shanks_value,
)
from .modforms import (
    EXCEPTIONAL_PRIMES,
    EigenformCertificate,
    certify_eigenform,
    det_image_index,
    exceptional_primes,
    verify_residue_claim,
)
from .records import CertificateRecord, make_record, parse_record, record_for, to_json_line
from .tower import (
    CyclotomicTowerCertificate,
    FieldSignature,
    KnownInfiniteRegistry,
    SchoofInput,
    certify_cyclotomic,
    ramified_count,
    schoof_holds,
    schoof_rhs,
    unit_2rank,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # arith
    "is_prime",
    "jacobi_symbol",
    "exact_sqrt",
    "primes_up_to",
    "gcd",
    # hlsearch
    "QuadraticIntPoly",
    "ShanksCandidate",
    "CONDUCTOR_POLY",
    "DEFAULT_RESIDUES",
    "discriminant",
    "hl_admissible",
    "shanks_value",
    "m_from_prime",
    "search_shanks_candidates",
    "hl_constant",
    "empirical_prime_count",
    # cubic
    "SimplestCubicField",
    "cubic_poly",
    "real_roots",
    "galois_conjugate",
    "regulator",
    "l_sum",
    "class_number",
    # tower
    "FieldSignature",
    "SchoofInput",
    "CyclotomicTowerCertificate",
    "KnownInfiniteRegistry",
    "unit_2rank",
    "ramified_count",
    "schoof_rhs",
    "schoof_holds",
    "certify_cyclotomic",
    # modforms
    "EXCEPTIONAL_PRIMES",
    "EigenformCertificate",
    "exceptional_primes",
    "det_image_index",
    "certify_eigenform",
    "verify_residue_claim",
    # elliptic
    "EllipticGate",
    "FurutaWitness",
    "GroupReport",
    "CONDUCTOR_37_GATE",
    "furuta_n",
    "surjectivity_gate",
    "sl2_order",
    "sl2_perfect",
    # records
    "CertificateRecord",
    "make_record",
    "record_for",
    "to_json_line",
    "parse_record",
    # errors
    "DomainError",
    "InputRangeError",
    "NumericError",
    "IntegralityError",
    "ResourceLimitError",
    "CertificationRejected",
]
