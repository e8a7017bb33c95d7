"""Certificates for number fields with infinite Hilbert class field towers.

The package certifies three related constructions at desk scale: cyclotomic
fields Q(zeta_ell) for primes ell = m^2+3m+9 via analytic class numbers of
the simplest cubic fields and the Golod-Shafarevich/Schoof bound, fixed
fields of level-1 eigenform representations via exceptional-prime and
determinant-index gates, and Furuta-style composites via nine-prime
witnesses with SL2(Z/n) perfectness checks.

The package re-exports nothing: import from its modules, such as
towercert.tower, towercert.modforms or towercert.hlsearch.
"""

__version__ = "0.1.0"
