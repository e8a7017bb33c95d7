"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: a DomainError (an
InputRangeError included) is a usage error (exit 2), numeric and resource
failures are exit 3, and a CertificationRejected becomes a rejection record
with exit 1.
"""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the operation's stated domain."""


class InputRangeError(DomainError):
    """An integer input or result lies outside a declared range.

    The ranges are the 63-bit width, cubic.MAX_CONDUCTOR, for
    hlsearch.hl_constant's prime bound hlsearch.MAX_PRIME_BOUND and, for
    elliptic.furuta_n's count, its 10^6 progression steps.  furuta_n also
    raises it, naming ell and count, when its candidates step*ell + 1 would
    pass the 63-bit width before count primes are found.
    """


class NumericError(ArithmeticError):
    """A floating-point computation failed its accuracy contract."""


class IntegralityError(NumericError):
    """An analytic class number did not round cleanly to an integer.

    Carries the offending float so callers can inspect it.  When the value
    sits near an integer divided by 3, the likely culprit is a unit index
    larger than 1 rather than precision loss; ``unit_index_suspected``
    records that diagnosis without deciding it.
    """

    def __init__(self, message: str, value: float, gap: float,
                 unit_index_suspected: bool = False):
        super().__init__(message)
        self.value = value
        self.gap = gap
        self.unit_index_suspected = unit_index_suspected


class ResourceLimitError(RuntimeError):
    """A search exceeded its budget: furuta_n's progression steps."""


class CertificationRejected(Exception):
    """The input cannot enter the certification pipeline.

    ``reasons`` holds machine-readable tags; ``context`` holds the
    offending values.  "composite" comes from tower.certify_cyclotomic and
    elliptic.furuta_n, and from the CLI's `certify eigenform`, which checks
    --ell before it reads --registry; "residue" from certify_cyclotomic;
    "not_shanks_form" from the CLI, for a `certify cyclotomic --ell` that
    is no m^2 + 3m + 9.
    """

    def __init__(self, reasons, **context):
        self.reasons = tuple(reasons)
        self.context = dict(context)
        super().__init__(f"rejected: {', '.join(self.reasons)} ({self.context})")
