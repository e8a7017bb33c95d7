"""Record the reference values that the benchmark checks outputs against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

It computes, with the library of the checked-out tree, every mathematical
value that any seed of any workload can ask for (both sizes), checks that
the bands really are of equal cost, and writes ``perfbench/reference.json``.
Rerun it only when a change is meant to alter those values.
"""

from __future__ import annotations

import json
import sys

import towercert.cubic as cubic
from towercert.elliptic import furuta_n, sl2_perfect
from towercert.hlsearch import (
    CONDUCTOR_POLY,
    empirical_prime_count,
    hl_constant,
    search_shanks_candidates,
)
from towercert.modforms import certify_eigenform
from towercert.records import format_float
from towercert.tower import KnownInfiniteRegistry, certify_cyclotomic

from workloads import HL_COUNT_BOUND, REFERENCE_PATH, RESIDUES, SIZES, band_inputs


def _check_bands(prime_ms: list[int]) -> None:
    for size, spec in SIZES.items():
        band = spec["sweep"]["m_max"]
        inside = [m for m in prime_ms if min(band) < m <= max(band)]
        if inside:
            sys.exit(f"{size} sweep band {band} is not of equal cost: prime conductors {inside}")
    ells = [m * m + 3 * m + 9 for m in SIZES["full"]["large-conductor"]["m"]]
    if max(ells) > 1.01 * min(ells):
        sys.exit(f"large-conductor conductors spread beyond 1%: {ells}")


def main() -> None:
    inputs = {key: set() for key in band_inputs("full")}
    for size in SIZES:
        for key, values in band_inputs(size).items():
            inputs[key] |= values
    limit = max(inputs["m_max"])
    prime_ms = [c.m for c in search_shanks_candidates(limit, RESIDUES) if c.is_prime_ell]
    _check_bands(prime_ms)
    sweep_max = max(max(spec["sweep"]["m_max"]) for spec in SIZES.values())

    l_sum_calls = []
    original_l_sum = cubic.l_sum

    def counted_l_sum(ell, compensated=False):
        l_sum_calls.append(compensated)
        return original_l_sum(ell, compensated=compensated)

    cubic.l_sum = counted_l_sum
    cyclotomic = {}
    for m in sorted({m for m in prime_ms if m <= sweep_max} | inputs["cyclotomic"]):
        del l_sum_calls[:]
        cert = certify_cyclotomic(m, KnownInfiniteRegistry())
        if m in inputs["cyclotomic"] and any(l_sum_calls):
            sys.exit(f"m={m} needs the compensated retry; its cost differs from the band")
        cyclotomic[str(m)] = [cert.h, cert.certified]
    cubic.l_sum = original_l_sum

    group = {}
    for n in sorted(inputs["group"]):
        report = sl2_perfect(n)
        group[str(n)] = [report.group_order, report.abelianization_order, report.perfect]
    furuta = {
        f"{ell},{m_e}": list(furuta_n(ell, m_e).primes)
        for ell, m_e in sorted(inputs["furuta"])
    }
    constants = {}
    for bound in sorted(inputs["hl_constant"] | {HL_COUNT_BOUND}):
        result = hl_constant(bound)
        constants[str(bound)] = [format_float(result.constant), result.terms_used]
    count_constant = hl_constant(HL_COUNT_BOUND).constant
    prime_count = {
        str(x): empirical_prime_count(CONDUCTOR_POLY, x, count_constant).count
        for x in sorted(inputs["prime_count"])
    }
    eigenform = {}
    for k, ell in sorted(inputs["eigenform"]):
        cert = certify_eigenform(k, ell, KnownInfiniteRegistry())
        eigenform[f"{k},{ell}"] = [cert.certified, cert.det_index, cert.tower_evidence]

    reference = {
        "prime_ms_limit": limit,
        "prime_ms": prime_ms,
        "cyclotomic": cyclotomic,
        "group": group,
        "furuta": furuta,
        "hl_constant": constants,
        "prime_count": prime_count,
        "eigenform": eigenform,
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
