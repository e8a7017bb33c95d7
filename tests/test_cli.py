import hashlib
import json
import math
import multiprocessing
import os
import re
import select
import subprocess
import sys
from pathlib import Path

import pytest

import towercert
from towercert import cli, tower
from towercert.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_USAGE,
    main,
)
from towercert.errors import IntegralityError, NumericError
from towercert.hlsearch import MAX_PRIME_BOUND
from towercert.records import make_record, parse_record, to_json_line


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records_of(text):
    return [parse_record(line) for line in text.splitlines() if line.strip()]


def strip_timestamps(text):
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        raw = json.loads(line)
        raw.pop("timestamp", None)
        out.append(raw)
    return out


class TestCertifyCyclotomic:
    def test_m_50_certified(self, capsys):
        code, out, err = run(capsys, "certify", "cyclotomic", "--m", "50")
        assert code == EXIT_OK
        (record,) = records_of(out)
        assert record.kind == "cyclotomic_tower"
        assert record.payload["ell"] == 2659
        assert record.payload["h"] == 19
        assert record.payload["rho"] == 76
        assert record.payload["certified"] is True

    def test_m_2_uncertified(self, capsys):
        code, out, err = run(capsys, "certify", "cyclotomic", "--m", "2")
        assert code == EXIT_REJECTED
        (record,) = records_of(out)
        assert record.kind == "cyclotomic_tower"
        assert record.payload["certified"] is False
        assert record.payload["h"] == 1

    def test_m_3_rejected_with_reasons(self, capsys):
        code, out, err = run(capsys, "certify", "cyclotomic", "--m", "3")
        assert code == EXIT_REJECTED
        (record,) = records_of(out)
        assert record.kind == "rejection"
        assert set(record.payload["reasons"]) == {"composite", "residue"}
        assert record.payload["ell"] == 27

    def test_ell_2659(self, capsys):
        code, out, err = run(capsys, "certify", "cyclotomic", "--ell", "2659")
        assert code == EXIT_OK
        (record,) = records_of(out)
        assert record.payload["m"] == 50

    def test_ell_not_of_shanks_form(self, capsys):
        code, out, err = run(capsys, "certify", "cyclotomic", "--ell", "20")
        assert code == EXIT_REJECTED
        (record,) = records_of(out)
        assert record.kind == "rejection"
        assert record.payload["reasons"] == ["not_shanks_form"]
        assert record.payload["ell"] == 20

    def test_ell_877_fails_residue_filter(self, capsys):
        # 877 = 28^2 + 3*28 + 9 but 28 = 4 mod 12 sits outside the filter
        code, out, err = run(capsys, "certify", "cyclotomic", "--ell", "877")
        assert code == EXIT_REJECTED
        (record,) = records_of(out)
        assert record.kind == "rejection"
        assert record.payload["reasons"] == ["residue"]

    def test_ell_13_maps_to_m_1(self, capsys):
        code, out, err = run(capsys, "certify", "cyclotomic", "--ell", "13")
        assert code == EXIT_REJECTED
        (record,) = records_of(out)
        assert record.kind == "rejection"
        assert record.payload["reasons"] == ["residue"]

    def test_ell_below_13_is_usage(self, capsys):
        code, out, err = run(capsys, "certify", "cyclotomic", "--ell", "12")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_m_0_is_usage(self, capsys):
        code, out, err = run(capsys, "certify", "cyclotomic", "--m", "0")
        assert code == EXIT_USAGE

    def test_m_and_ell_exclusive(self, capsys):
        code, out, err = run(capsys, "certify", "cyclotomic", "--m", "2", "--ell", "19")
        assert code == EXIT_USAGE

    def test_one_of_m_or_ell_required(self, capsys):
        code, out, err = run(capsys, "certify", "cyclotomic")
        assert code == EXIT_USAGE


class TestCertifyEigenform:
    def test_literature_conductor(self, capsys):
        code, out, err = run(capsys, "certify", "eigenform", "--weight", "12", "--ell", "877")
        assert code == EXIT_OK
        (record,) = records_of(out)
        assert record.kind == "eigenform"
        assert record.payload["certified"] is True
        assert record.payload["tower_evidence"] == "literature"

    def test_exceptional_prime(self, capsys):
        code, out, err = run(capsys, "certify", "eigenform", "--weight", "12", "--ell", "691")
        assert code == EXIT_REJECTED
        (record,) = records_of(out)
        assert record.payload["certified"] is False
        assert record.payload["not_exceptional"] is False
        assert "exceptional" in record.payload["rejection_reasons"]

    def test_no_evidence_without_registry(self, capsys):
        code, out, err = run(capsys, "certify", "eigenform", "--weight", "12", "--ell", "2659")
        assert code == EXIT_REJECTED
        (record,) = records_of(out)
        assert record.payload["rejection_reasons"] == ["no_tower_evidence"]

    def test_registry_roundtrip(self, capsys, tmp_path):
        registry_file = tmp_path / "towers.jsonl"
        code, out, err = run(
            capsys, "search", "--m-max", "60", "--certify", "--out", str(registry_file)
        )
        assert code == EXIT_OK
        code, out, err = run(
            capsys,
            "certify",
            "eigenform",
            "--weight",
            "12",
            "--ell",
            "2659",
            "--registry",
            str(registry_file),
        )
        assert code == EXIT_OK
        (record,) = records_of(out)
        assert record.payload["certified"] is True
        assert record.payload["tower_evidence"] == "computed"

    def test_det_index_blocks_weight_16(self, capsys, tmp_path):
        registry_file = tmp_path / "towers.jsonl"
        run(capsys, "search", "--m-max", "60", "--certify", "--out", str(registry_file))
        code, out, err = run(
            capsys,
            "certify",
            "eigenform",
            "--weight",
            "16",
            "--ell",
            "2659",
            "--registry",
            str(registry_file),
        )
        assert code == EXIT_REJECTED
        (record,) = records_of(out)
        assert record.payload["det_index"] == 3
        assert record.payload["galois_group_full"] is False
        assert "det_index" in record.payload["rejection_reasons"]

    def test_composite_ell(self, capsys):
        code, out, err = run(capsys, "certify", "eigenform", "--weight", "12", "--ell", "15")
        assert code == EXIT_REJECTED
        (record,) = records_of(out)
        assert record.kind == "rejection"
        assert record.payload["reasons"] == ["composite"]

    def test_invalid_weight(self, capsys):
        code, out, err = run(capsys, "certify", "eigenform", "--weight", "14", "--ell", "877")
        assert code == EXIT_USAGE

    def test_corrupt_registry_is_usage(self, capsys, tmp_path):
        registry_file = tmp_path / "bad.jsonl"
        registry_file.write_text("{not json}\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            "certify",
            "eigenform",
            "--weight",
            "12",
            "--ell",
            "877",
            "--registry",
            str(registry_file),
        )
        assert code == EXIT_USAGE

    def test_missing_registry_file_is_usage(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "certify",
            "eigenform",
            "--weight",
            "12",
            "--ell",
            "877",
            "--registry",
            str(tmp_path / "absent.jsonl"),
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "case",
        [
            "missing_keys",
            "rho_not_4h",
            "forged_certified",
            "ell_mismatch",
            "fractional_h",
            "negative_h",
        ],
    )
    def test_malformed_tower_record_is_usage(self, capsys, tmp_path, case):
        if case == "missing_keys":
            payload = {"certified": True, "ell": 2659}
        elif case == "rho_not_4h":
            _, out, _ = run(capsys, "certify", "cyclotomic", "--m", "50")
            payload = dict(records_of(out)[0].payload, rho=75)
        elif case == "forged_certified":
            # m = 2: ell = 19, h = 1, rho = 4 < rhs = 10, so the bound fails
            _, out, _ = run(capsys, "certify", "cyclotomic", "--m", "2")
            payload = dict(records_of(out)[0].payload, certified=True)
        elif case == "ell_mismatch":
            # the real m = 50 record (ell = 2659, h = 19) cited for ell = 19
            _, out, _ = run(capsys, "certify", "cyclotomic", "--m", "50")
            payload = dict(records_of(out)[0].payload, ell=19)
        else:
            # m = 2 record with rho, rhs and certified consistent with a bad h
            _, out, _ = run(capsys, "certify", "cyclotomic", "--m", "2")
            h = 19.5 if case == "fractional_h" else -1
            payload = dict(records_of(out)[0].payload, h=h, rho=4 * h, certified=True)
            if case == "fractional_h":
                payload["rhs"] = tower.schoof_rhs(3 * h, 3 * h)
        registry_file = tmp_path / "bad.jsonl"
        line = to_json_line(make_record("cyclotomic_tower", payload))
        registry_file.write_text(line + "\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            "certify",
            "eigenform",
            "--weight",
            "12",
            "--ell",
            str(payload["ell"]),
            "--registry",
            str(registry_file),
        )
        assert code == EXIT_USAGE
        assert f"bad registry record at {registry_file}:1" in err
        assert out == ""


class TestSearch:
    def test_default_residues_m_max_12(self, capsys):
        code, out, err = run(capsys, "search", "--m-max", "12")
        assert code == EXIT_OK
        records = records_of(out)
        assert [r.payload["m"] for r in records] == [2, 7, 10, 11]
        assert [r.payload["ell"] for r in records] == [19, 79, 139, 163]
        assert all(r.kind == "shanks_candidate" for r in records)
        assert all(r.payload["is_prime_ell"] for r in records)

    def test_certify_sweep_m_max_60(self, capsys):
        code, out, err = run(capsys, "search", "--m-max", "60", "--certify")
        assert code == EXIT_OK
        records = records_of(out)
        candidates = [r for r in records if r.kind == "shanks_candidate"]
        towers = [r for r in records if r.kind == "cyclotomic_tower"]
        assert len(candidates) == 20
        assert len(towers) == sum(1 for r in candidates if r.payload["is_prime_ell"])
        certified = sorted(r.payload["ell"] for r in towers if r.payload["certified"])
        assert certified == [2659, 3547]
        assert all(r.payload["h"] >= 18 for r in towers if r.payload["certified"])
        assert all(r.payload["h"] < 18 for r in towers if not r.payload["certified"])

    def test_candidates_precede_their_certificates(self, capsys):
        code, out, err = run(capsys, "search", "--m-max", "60", "--certify")
        records = records_of(out)
        last_m = 0
        for record in records:
            m = record.payload["m"]
            assert m >= last_m
            last_m = m

    def test_custom_residue_class_rejected_inside_certify(self, capsys):
        # m = 1 passes a user-widened sweep filter but not certification
        code, out, err = run(capsys, "search", "--m-max", "1", "--residues", "1", "--certify")
        assert code == EXIT_OK
        records = records_of(out)
        assert [r.kind for r in records] == ["shanks_candidate", "rejection"]
        assert records[1].payload["reasons"] == ["residue"]

    def test_composite_conductor_not_certified(self, capsys):
        code, out, err = run(capsys, "search", "--m-max", "14", "--certify")
        records = records_of(out)
        by_m = {}
        for record in records:
            by_m.setdefault(record.payload["m"], []).append(record.kind)
        assert by_m[14] == ["shanks_candidate"]  # 247 = 13*19
        assert by_m[2] == ["shanks_candidate", "cyclotomic_tower"]

    def test_jobs_match_serial_output(self, capsys, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        code, _, _ = run(
            capsys, "search", "--m-max", "60", "--certify", "--jobs", "1", "--out", str(serial)
        )
        assert code == EXIT_OK
        code, _, _ = run(
            capsys, "search", "--m-max", "60", "--certify", "--jobs", "2", "--out", str(parallel)
        )
        assert code == EXIT_OK
        a = strip_timestamps(serial.read_text(encoding="utf-8"))
        b = strip_timestamps(parallel.read_text(encoding="utf-8"))
        assert a == b

    def test_integrality_failure_keeps_sweep_and_diagnostics(self, capsys, monkeypatch):
        real_class_number = tower.class_number

        def failing_class_number(m):
            if m == 50:
                raise IntegralityError("lost", value=18.66, gap=0.34, unit_index_suspected=True)
            return real_class_number(m)

        monkeypatch.setattr(tower, "class_number", failing_class_number)
        code, out, err = run(capsys, "search", "--m-max", "60", "--certify", "--jobs", "1")
        assert code == EXIT_NUMERIC
        assert "m in [50]" in err
        records = records_of(out)
        assert records[-1].payload["m"] == 59  # the sweep ran to the end
        (failure,) = [r for r in records if r.kind == "rejection"]
        assert failure.payload["reasons"] == ["integrality"]
        assert failure.payload["m"] == 50
        assert failure.payload["ell"] == 2659
        assert failure.payload["value"] == 18.66
        assert failure.payload["gap"] == 0.34
        assert failure.payload["unit_index_suspected"] is True
        certified = [r.payload["ell"] for r in records if r.kind == "cyclotomic_tower"]
        assert 2659 not in certified and 3547 in certified

    def test_numeric_failure_keeps_sweep_and_diagnostics(self, capsys, monkeypatch):
        real_class_number = tower.class_number

        def failing_class_number(m):
            if m == 50:
                raise NumericError("Newton polish did not converge")
            return real_class_number(m)

        monkeypatch.setattr(tower, "class_number", failing_class_number)
        code, out, err = run(capsys, "search", "--m-max", "60", "--certify", "--jobs", "1")
        assert code == EXIT_NUMERIC
        assert len(err.strip().splitlines()) == 1
        assert "m in [50]" in err
        records = records_of(out)
        (failure,) = [r for r in records if r.kind == "rejection"]
        assert failure.payload["reasons"] == ["numeric"]
        assert failure.payload["m"] == 50
        assert failure.payload["ell"] == 2659
        assert failure.payload["message"] == "Newton polish did not converge"
        emitted = {r.payload["m"] for r in records}
        assert {55, 58, 59} <= emitted  # the sweep ran past the failure
        certified = [r.payload["ell"] for r in records if r.kind == "cyclotomic_tower"]
        assert 3547 in certified

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers see the patched class_number only when forked",
    )
    @pytest.mark.parametrize(
        "error",
        [
            NumericError("Newton polish did not converge"),
            IntegralityError("lost", value=18.66, gap=0.34, unit_index_suspected=True),
        ],
        ids=["numeric", "integrality"],
    )
    def test_failure_under_jobs_matches_serial(self, capsys, monkeypatch, error):
        real_class_number = tower.class_number

        def failing_class_number(m):
            if m == 50:
                raise error
            return real_class_number(m)

        monkeypatch.setattr(tower, "class_number", failing_class_number)
        outputs = []
        for jobs in ("1", "2"):
            code, out, err = run(capsys, "search", "--m-max", "60", "--certify", "--jobs", jobs)
            assert code == EXIT_NUMERIC
            assert err.splitlines() == [
                "towercert: numeric/resource failure: "
                "class number computation failed for m in [50]"
            ]
            outputs.append(strip_timestamps(out))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "cpus, jobs, pool_sizes",
        [(3, 100000, [3]), (3, 2, [2]), (3, 1, []), (None, 100000, [])],
    )
    def test_jobs_capped_at_cpu_count(self, capsys, monkeypatch, cpus, jobs, pool_sizes):
        sizes = []

        class SerialPool:
            """Records the worker count it is given and maps in-process."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return None

            def imap(self, func, iterable):
                return map(func, iterable)

        argv = ("search", "--m-max", "14", "--certify")
        _, serial, _ = run(capsys, *argv)
        monkeypatch.setattr(cli, "Pool", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, out, err = run(capsys, *argv, "--jobs", str(jobs))
        assert code == EXIT_OK
        assert sizes == pool_sizes
        assert strip_timestamps(out) == strip_timestamps(serial)

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("certify", [(), ("--certify",)], ids=["plain", "certify"])
    def test_jobs_below_1_is_usage(self, capsys, jobs, certify):
        code, out, err = run(capsys, "search", "--m-max", "12", *certify, "--jobs", jobs)
        assert code == EXIT_USAGE
        assert "--jobs" in err
        assert out == ""

    def test_huge_m_max_streams(self, tmp_path):
        src = str(Path(towercert.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}  # the towercert this suite imported
        argv = [sys.executable, "-m", "towercert.cli", "search", "--m-max", "3000000000"]
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=tmp_path, env=env
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 5)
            line = proc.stdout.readline() if ready else b""
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert line, "no record within 5 s"
        assert parse_record(line.decode("utf-8").rstrip("\n")).payload["m"] == 2

    def test_bad_residues(self, capsys):
        for bad in ("13", "", "2,x", "-1"):
            code, out, err = run(capsys, "search", "--m-max", "12", "--residues", bad)
            assert code == EXIT_USAGE, bad

    def test_bad_m_max(self, capsys):
        code, out, err = run(capsys, "search", "--m-max", "0")
        assert code == EXIT_USAGE

    def test_m_max_overflowing_conductor_is_usage(self, capsys):
        # m = 1e10 gives ell ~ 1e20 > 2^63 - 1; rejected before any candidate is built
        code, out, err = run(capsys, "search", "--m-max", "10000000000")
        assert code == EXIT_USAGE
        assert "63-bit" in err
        assert out == ""


class TestHL:
    def test_constant_bound_5(self, capsys):
        code, out, err = run(capsys, "hl", "constant", "--prime-bound", "5")
        assert code == EXIT_OK
        (record,) = records_of(out)
        assert record.kind == "hl_constant"
        assert record.payload["constant"] == 0.3125
        assert record.payload["terms_used"] == 1

    def test_constant_bound_too_small(self, capsys):
        code, out, err = run(capsys, "hl", "constant", "--prime-bound", "4")
        assert code == EXIT_USAGE
        assert "prime-bound" in err

    def test_count_jsonl(self, capsys):
        code, out, err = run(capsys, "hl", "count", "--x", "20", "--prime-bound", "100")
        assert code == EXIT_OK
        constant_record, count_record = records_of(out)
        assert constant_record.kind == "hl_constant"
        assert count_record.kind == "prime_count"
        assert count_record.payload["x"] == 20
        assert count_record.payload["count"] == 1

    def test_count_x_19_excludes_19(self, capsys):
        code, out, err = run(capsys, "hl", "count", "--x", "19", "--prime-bound", "100")
        assert code == EXIT_OK
        _, count_record = records_of(out)
        assert count_record.payload["count"] == 0

    def test_count_csv(self, capsys):
        code, out, err = run(
            capsys, "hl", "count", "--x", "1000", "--prime-bound", "100", "--format", "csv"
        )
        assert code == EXIT_OK
        header, row = out.splitlines()
        assert header == "x,count,estimate,ratio"
        x, count, estimate, ratio = row.split(",")
        assert x == "1000"
        assert int(count) >= 1
        assert math.isclose(float(ratio), int(count) / float(estimate), rel_tol=1e-12)

    def test_count_x_too_small(self, capsys):
        code, out, err = run(capsys, "hl", "count", "--x", "18")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("bound", [MAX_PRIME_BOUND + 1, 2**63])
    @pytest.mark.parametrize("target", [("constant",), ("count", "--x", "1000")], ids=str)
    def test_prime_bound_above_max_is_usage(self, capsys, target, bound):
        code, out, err = run(capsys, "hl", *target, "--prime-bound", str(bound))
        assert code == EXIT_USAGE
        assert str(MAX_PRIME_BOUND) in err
        assert out == ""

    def test_count_x_above_63_bits_is_usage(self, capsys):
        # rejected at entry, not after ~1e9 primality tests reach the bound
        argv = ("hl", "count", "--x", str(2**63), "--prime-bound", "5")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert "63-bit" in err
        assert out == ""


class TestFuruta:
    def test_ell_5_default(self, capsys):
        code, out, err = run(capsys, "furuta", "--ell", "5", "--m-e", "30")
        assert code == EXIT_OK
        (record,) = records_of(out)
        assert record.kind == "furuta"
        assert record.payload["primes"] == [11, 31, 41, 61, 71, 101, 131, 151, 181]
        assert record.payload["n"] == 21896495439314771

    def test_count_8_is_usage(self, capsys):
        code, out, err = run(capsys, "furuta", "--ell", "5", "--m-e", "30", "--count", "8")
        assert code == EXIT_USAGE
        assert "nine" in err

    def test_bad_m_e_is_usage(self, capsys):
        code, out, err = run(capsys, "furuta", "--ell", "5", "--m-e", "31")
        assert code == EXIT_USAGE

    def test_composite_ell_rejected(self, capsys):
        code, out, err = run(capsys, "furuta", "--ell", "15", "--m-e", "30")
        assert code == EXIT_REJECTED
        (record,) = records_of(out)
        assert record.kind == "rejection"
        assert record.payload["reasons"] == ["composite"]


class TestGroup:
    def test_perfect_7(self, capsys):
        code, out, err = run(capsys, "group", "perfect", "--n", "7")
        assert code == EXIT_OK
        (record,) = records_of(out)
        assert record.kind == "group_report"
        assert record.payload == {
            "n": 7,
            "group_order": 336,
            "abelianization_order": 1,
            "perfect": True,
        }

    def test_not_perfect_2(self, capsys):
        code, out, err = run(capsys, "group", "perfect", "--n", "2")
        assert code == EXIT_OK
        (record,) = records_of(out)
        assert record.payload["perfect"] is False
        assert record.payload["abelianization_order"] == 2

    def test_out_of_range(self, capsys):
        for n in ("1", "101"):
            code, out, err = run(capsys, "group", "perfect", "--n", n)
            assert code == EXIT_USAGE, n


class TestVerifyResidue:
    def test_weight_12_holds(self, capsys):
        code, out, err = run(capsys, "verify", "residue-claim", "--weight", "12")
        assert code == EXIT_OK
        (record,) = records_of(out)
        assert record.kind == "residue_claim"
        assert record.payload["claim_holds"] is True

    def test_weight_16_fails_but_exits_zero(self, capsys):
        code, out, err = run(capsys, "verify", "residue-claim", "--weight", "16")
        assert code == EXIT_OK
        (record,) = records_of(out)
        assert record.payload["claim_holds"] is False
        failing = [v for v in record.payload["verdicts"] if not v["never_one"]]
        assert [v["q"] for v in failing] == [3]

    def test_invalid_weight(self, capsys):
        code, out, err = run(capsys, "verify", "residue-claim", "--weight", "15")
        assert code == EXIT_USAGE


class TestPlumbing:
    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_no_command(self, capsys):
        code, out, err = run(capsys)
        assert code == EXIT_USAGE

    def test_out_file_unix_newlines(self, capsys, tmp_path):
        out_file = tmp_path / "records.jsonl"
        code, _, _ = run(capsys, "certify", "cyclotomic", "--m", "50", "--out", str(out_file))
        assert code == EXIT_OK
        data = out_file.read_bytes()
        assert data.endswith(b"\n")
        assert b"\r" not in data

    def test_rerun_identical_modulo_timestamp(self, capsys, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        run(capsys, "certify", "cyclotomic", "--m", "50", "--out", str(first))
        run(capsys, "certify", "cyclotomic", "--m", "50", "--out", str(second))
        a = strip_timestamps(first.read_text(encoding="utf-8"))
        b = strip_timestamps(second.read_text(encoding="utf-8"))
        assert a == b
        assert a[0]["content_hash"] == b[0]["content_hash"]

    def test_stdout_lines_parse_back(self, capsys):
        code, out, err = run(capsys, "verify", "residue-claim", "--weight", "26")
        for line in out.splitlines():
            parse_record(line)

    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "cyclotomic", "--m", "50"),
            ("certify", "eigenform", "--weight", "12", "--ell", "877"),
            ("hl", "constant", "--prime-bound", "100"),
            ("hl", "count", "--x", "1000"),
            ("furuta", "--ell", "5", "--m-e", "30"),
            ("group", "perfect", "--n", "5"),
            ("verify", "residue-claim", "--weight", "12"),
        ],
        ids=lambda argv: "-".join(a for a in argv if not a[0].isdigit() and a[0] != "-"),
    )
    def test_jobs_only_on_search(self, capsys, argv):
        assert run(capsys, *argv)[0] != EXIT_USAGE
        code, out, err = run(capsys, *argv, "--jobs", "2")
        assert code == EXIT_USAGE
        assert out == ""

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_REJECTED, EXIT_USAGE, EXIT_NUMERIC}) == 4


# Fixed command set whose timestamp-stripped output and exit codes are pinned
# by one sha256: a refactor that keeps this digest keeps the CLI's bytes.
# "{registry}" is the --out file the first command writes.
COMMAND_SET = (
    ("search", "--m-max", "120", "--certify", "--out", "{registry}"),
    ("search", "--m-max", "120", "--certify", "--jobs", "2"),
    ("certify", "cyclotomic", "--m", "50"),
    ("certify", "cyclotomic", "--m", "2"),
    ("certify", "cyclotomic", "--ell", "3547"),
    ("certify", "cyclotomic", "--ell", "20"),
    *(
        ("certify", "eigenform", "--weight", str(k), "--ell", str(ell), *registry)
        for k in (12, 16, 18, 20, 22, 26)
        for ell in (877, 2659, 691)
        for registry in ((), ("--registry", "{registry}"))
    ),
    ("hl", "constant", "--prime-bound", "10000"),
    ("hl", "count", "--x", "1000000", "--prime-bound", "10000"),
    ("hl", "count", "--x", "1000000", "--prime-bound", "10000", "--format", "csv"),
    ("furuta", "--ell", "5", "--m-e", "30"),
    ("furuta", "--ell", "2659", "--m-e", "330"),
    ("group", "perfect", "--n", "1"),
    ("group", "perfect", "--n", "5"),
    ("group", "perfect", "--n", "6"),
    ("group", "perfect", "--n", "49"),
    *(("verify", "residue-claim", "--weight", str(k)) for k in (12, 16, 18, 20, 22, 26)),
)

COMMAND_SET_SHA256 = "fae01c3758fd6f86a41b0af5907b3792f2837735c19f4e149dff7e40973d8c28"


def _without_timestamp(text):
    return re.sub(r',"timestamp":"[^"]*"', "", text)


class TestCommandSetDigest:
    def test_command_set_bytes_pinned(self, capsys, tmp_path):
        registry = str(tmp_path / "registry.jsonl")
        digest = hashlib.sha256()
        for template in COMMAND_SET:
            argv = [a.format(registry=registry) for a in template]
            code, out, _ = run(capsys, *argv)
            if "--out" in argv:
                with open(registry, encoding="utf-8", newline="") as handle:
                    out = handle.read()
            out = _without_timestamp(out)
            assert '"timestamp"' not in out
            digest.update(f"{' '.join(template)} exit {code}\n{out}".encode("utf-8"))
        assert digest.hexdigest() == COMMAND_SET_SHA256
