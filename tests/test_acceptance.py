"""End-to-end acceptance gates for the certification pipeline.

Each test exercises one headline guarantee at its stated tolerance and
prints a single [PASS]/[FAIL] line on the real stdout so batch runs show
the scorecard even under pytest capture.
"""

import contextlib
import hashlib
import json
import math
import time

import pytest

from oracles import (
    EXCEPTIONAL_TABLE_SHA256,
    FROZEN_61BIT_PRIMES,
    brute_quadratic_prime_count,
    minkowski_class_number_one,
    residue_scan,
)
from towercert.cli import EXIT_OK, EXIT_USAGE, main
from towercert.cubic import class_number
from towercert.elliptic import sl2_perfect
from towercert.hlsearch import hl_constant
from towercert.modforms import EXCEPTIONAL_PRIMES, VALID_WEIGHTS, certify_eigenform
from towercert.tower import KnownInfiniteRegistry, certify_cyclotomic, schoof_holds

SMALL_REJECTED_CONDUCTORS = (19, 79, 139, 163, 607, 1063, 1567, 1987)


@pytest.fixture
def announce(capsys):
    @contextlib.contextmanager
    def criterion(number, description):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[FAIL] acceptance {number}: {description}", flush=True)
            raise
        with capsys.disabled():
            print(f"[PASS] acceptance {number}: {description}", flush=True)

    return criterion


def cli_records(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, [json.loads(line) for line in captured.out.splitlines() if line.strip()]


def test_acceptance_1_hl_constant(announce, capsys):
    with announce(1, "singular-series constant in [0.27, 0.29], stable under a larger bound"):
        started = time.perf_counter()
        code, records = cli_records(capsys, "hl", "constant", "--prime-bound", "1000000")
        elapsed = time.perf_counter() - started
        assert code == EXIT_OK
        (record,) = records
        constant = record["payload"]["constant"]
        assert 0.27 <= constant <= 0.29
        assert elapsed < 10.0, f"bound-10^6 constant took {elapsed:.2f}s"
        refined = hl_constant(10**7).constant
        assert abs(refined - constant) < 0.005


def test_acceptance_2_certified_prime_list(announce, capsys):
    with announce(2, "sweep to m=120 certifies 2659, 3547, 5119, 8563 first and rejects small h"):
        started = time.perf_counter()
        code, records = cli_records(capsys, "search", "--m-max", "120", "--certify")
        elapsed = time.perf_counter() - started
        assert code == EXIT_OK
        towers = [r["payload"] for r in records if r["kind"] == "cyclotomic_tower"]
        certified = [t["ell"] for t in towers if t["certified"]]
        assert certified == sorted(certified)
        assert certified[:4] == [2659, 3547, 5119, 8563]
        rejected = {t["ell"]: t["h"] for t in towers if not t["certified"]}
        assert set(rejected) == set(SMALL_REJECTED_CONDUCTORS)
        assert all(h < 18 for h in rejected.values())
        assert elapsed < 60.0, f"sweep took {elapsed:.2f}s"


def test_acceptance_3_class_number_oracle_agreement(announce):
    with announce(3, "analytic h=1 for conductors 13 and 19 agrees with the Minkowski oracle"):
        for m, ell in ((1, 13), (2, 19)):
            field = class_number(m)
            assert field.ell == ell
            assert field.class_number == 1
            assert field.integrality_gap < 1e-3
            assert minkowski_class_number_one(ell) is True
        # inertness facts behind the oracle: no small prime splits
        assert pow(2, (13 - 1) // 3, 13) != 1
        assert pow(2, (19 - 1) // 3, 19) != 1
        assert pow(3, (19 - 1) // 3, 19) != 1


def test_acceptance_4_threshold_property(announce):
    with announce(4, "exact tower inequality with rho=4h holds precisely for h >= 18"):
        started = time.perf_counter()
        for h in range(1, 10**4 + 1):
            holds = schoof_holds(rho=4 * h, d2_base=3 * h, d2_top=3 * h)
            assert holds == (h >= 18), h
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"threshold scan took {elapsed:.2f}s"


def test_acceptance_5_eigenform_gates(announce):
    with announce(5, "eigenform gates: literature pass, exceptional reject, det-index reject"):
        seeded = KnownInfiniteRegistry()
        assert certify_eigenform(12, 877, seeded).certified
        assert certify_eigenform(12, 877, seeded).tower_evidence == "literature"

        exceptional = certify_eigenform(12, 691, seeded)
        assert not exceptional.certified
        assert not exceptional.not_exceptional

        computed = KnownInfiniteRegistry()
        certify_cyclotomic(50, computed)
        blocked = certify_eigenform(16, 2659, computed)
        assert not blocked.certified
        assert blocked.det_index == 3
        assert blocked.rejection_reasons == ("det_index",)

        canonical = ";".join(
            f"{k}:{','.join(str(p) for p in sorted(EXCEPTIONAL_PRIMES[k]))}"
            for k in sorted(VALID_WEIGHTS)
        )
        digest = hashlib.sha256(canonical.encode("ascii")).hexdigest()
        assert digest == EXCEPTIONAL_TABLE_SHA256


def test_acceptance_6_residue_claims(announce, capsys):
    with announce(6, "residue claims match a brute-force scan for all six weights"):
        for k in VALID_WEIGHTS:
            code, records = cli_records(capsys, "verify", "residue-claim", "--weight", str(k))
            assert code == EXIT_OK
            (record,) = records
            payload = record["payload"]
            oracle = residue_scan(k)
            assert {v["q"] for v in payload["verdicts"]} == set(oracle)
            for verdict in payload["verdicts"]:
                assert verdict["witnesses"] == oracle[verdict["q"]]
                assert verdict["never_one"] == (not oracle[verdict["q"]])
            assert payload["claim_holds"] == all(not w for w in oracle.values())
            assert payload["claim_holds"] == (k in (12, 18, 20, 26))
            if k in (16, 22):
                failing = [v["q"] for v in payload["verdicts"] if not v["never_one"]]
                assert failing == [3]


def test_acceptance_7_furuta_witness(announce, capsys):
    with announce(7, "Furuta witness lists nine primes whose product survives 61-bit spot checks"):
        code, records = cli_records(capsys, "furuta", "--ell", "5", "--m-e", "30")
        assert code == EXIT_OK
        (record,) = records
        primes = record["payload"]["primes"]
        n = record["payload"]["n"]
        assert primes == [11, 31, 41, 61, 71, 101, 131, 151, 181]
        for p in FROZEN_61BIT_PRIMES:
            residue = 1
            for q in primes:
                residue = residue * q % p
            assert n % p == residue

        code = main(["furuta", "--ell", "5", "--m-e", "30", "--count", "8"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "nine" in captured.err


def test_acceptance_8_sl2_perfectness(announce):
    with announce(8, "SL2(Z/n) perfect for 7, 11, 49, 77 and imperfect for 2, 3"):
        assert sl2_perfect(2).abelianization_order == 2
        assert sl2_perfect(3).abelianization_order == 3
        for n in (7, 11, 49):
            assert sl2_perfect(n).perfect, n
        started = time.perf_counter()
        report = sl2_perfect(77)
        elapsed = time.perf_counter() - started
        assert report.perfect
        assert report.group_order == 443520
        assert elapsed < 30.0, f"n=77 closure took {elapsed:.2f}s"


def test_acceptance_9_empirical_count(announce, capsys):
    with announce(9, "empirical count below 10^6 equals brute force with ratio in [0.3, 3.0]"):
        code, records = cli_records(capsys, "hl", "count", "--x", "1000000")
        assert code == EXIT_OK
        count_payloads = [r["payload"] for r in records if r["kind"] == "prime_count"]
        (payload,) = count_payloads
        expected = brute_quadratic_prime_count(144, 84, 19, 10**6)
        assert payload["count"] == expected
        assert 0.3 <= payload["ratio"] <= 3.0
        assert math.isclose(
            payload["ratio"], payload["count"] / payload["estimate"], rel_tol=1e-12
        )
