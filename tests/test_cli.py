import hashlib
import importlib.util
import math
import multiprocessing
import os
import select
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

import towercert
from towercert import cli, cubic, tower
from towercert.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_USAGE,
    main,
)
from towercert.arith import is_prime, shanks_value
from towercert.errors import DomainError, IntegralityError, NumericError
from towercert.hlsearch import MAX_PRIME_BOUND
from towercert.modforms import VALID_WEIGHTS
from towercert.records import (
    SCHEMA_VERSION,
    CertificateRecord,
    canonical_json,
    make_record,
    parse_record,
    to_json_line,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records_of(text):
    return [parse_record(line) for line in text.splitlines() if line.strip()]


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

    @pytest.mark.parametrize("which, value", [("--m", "100054"), ("--ell", "10011103087")])
    def test_conductor_above_cap_is_usage(self, capsys, which, value):
        # ell = 10011103087 > MAX_CONDUCTOR is prime and m = 100054 = 10 mod 12
        code, out, err = run(capsys, "certify", "cyclotomic", which, value)
        assert code == EXIT_USAGE
        assert "MAX_CONDUCTOR" in err
        assert out == ""

    def test_numeric_failure_writes_the_sweep_rejection(self, capsys, monkeypatch):
        def failing_class_number(m):
            raise IntegralityError("lost", value=18.66, gap=0.34, unit_index_suspected=True)

        monkeypatch.setattr(tower, "class_number", failing_class_number)
        code, out, err = run(capsys, "certify", "cyclotomic", "--m", "50")
        assert code == EXIT_NUMERIC
        assert "class number computation failed for m in [50]" in err
        (single,) = records_of(out)
        _, sweep, _ = run(capsys, "search", "--m-max", "60", "--certify", "--jobs", "1")
        (swept,) = [r for r in records_of(sweep) if r.payload.get("m") == 50
                    and r.kind == "rejection"]
        assert single == swept
        assert single.payload["reasons"] == ["integrality"]

    def test_m_and_ell_exclusive(self, capsys):
        code, out, err = run(capsys, "certify", "cyclotomic", "--m", "2", "--ell", "19")
        assert code == EXIT_USAGE

    def test_one_of_m_or_ell_required(self, capsys):
        code, out, err = run(capsys, "certify", "cyclotomic")
        assert code == EXIT_USAGE


def _claiming(payload, h, m=None):
    """A certified tower payload for m (default: payload's) consistent with h."""
    m = payload["m"] if m is None else m
    ell = shanks_value(m)
    d2 = 3 * h
    provenance = dict(
        payload["provenance"],
        m_mod_12=m % 12,
        ell_mod_12=ell % 12,
        class_number_float=float(h),
        ramified_infinite_places=d2,
        ramified_finite_primes=h,
    )
    return dict(
        payload, ell=ell, m=m, h=h, rho=4 * h, rhs=tower.schoof_rhs(d2, d2), certified=True,
        provenance=provenance,
    )


def _provenance(payload, **changes):
    return dict(payload, provenance=dict(payload["provenance"], **changes))


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


# Certified tower payloads that no recomputation reproduces: the m of the
# real record each starts from (m = 50: ell = 2659, h = 19; m = 2: ell = 19,
# h = 1) and the change made to it.
FORGED_TOWERS = {
    "extra_top_key": (50, lambda p: dict(p, note="x")),
    "missing_top_key": (50, lambda p: _without(p, "m")),
    "extra_provenance_key": (50, lambda p: _provenance(p, note="x")),
    "missing_provenance_key": (
        50, lambda p: dict(p, provenance=_without(p["provenance"], "integrality_gap"))
    ),
    "none_h": (50, lambda p: dict(p, h=None)),
    "changed_rhs": (50, lambda p: dict(p, rhs=10.0)),
    "bound_fails": (50, lambda p: dict(p, h=1, rho=4, rhs=10.0)),
    "finite_primes": (50, lambda p: _provenance(p, ramified_finite_primes=18)),
    "ell_mod_12": (50, lambda p: _provenance(p, ell_mod_12=1)),
    "class_number_float": (50, lambda p: _provenance(p, class_number_float=19.25)),
    "bool_h": (2, lambda p: _claiming(p, True)),
    "zero_h": (2, lambda p: _claiming(p, 0)),
    "residue": (2, lambda p: _claiming(p, 19, m=1)),  # ell = 13 is prime, m = 1 mod 12
    "above_cap": (2, lambda p: _claiming(p, 19, m=100054)),  # prime, m = 10 mod 12
    # every field consistent with h = 19 at ell = 19, whose class number is 1
    "forged_h_19": (2, lambda p: _claiming(p, 19)),
}


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

    def test_registry_with_write_times_gives_the_same_output(self, capsys, tmp_path):
        # a file written when every line ended in the time it was written
        registry_file = tmp_path / "towers.jsonl"
        code, _, _ = run(
            capsys, "search", "--m-max", "60", "--certify", "--out", str(registry_file)
        )
        assert code == EXIT_OK
        stamped_file = tmp_path / "stamped.jsonl"
        stamped_file.write_text(
            "".join(line[:-1] + ',"timestamp":"2026-01-01T00:00:00Z"}\n'
                    for line in registry_file.read_text(encoding="ascii").splitlines()),
            encoding="ascii",
        )
        argv = ("certify", "eigenform", "--weight", "12", "--ell", "2659", "--registry")
        code, out, err = run(capsys, *argv, str(registry_file))
        assert code == EXIT_OK and out
        assert run(capsys, *argv, str(stamped_file)) == (code, out, err)

    def test_registry_decodes_only_tower_payloads(self, capsys, tmp_path, monkeypatch):
        registry_file = tmp_path / "towers.jsonl"
        run(capsys, "search", "--m-max", "60", "--certify", "--out", str(registry_file))
        read, decoded = [], []

        def keep(line):
            read.append(parse_record(line))
            return read[-1]

        decode = CertificateRecord.payload.fget

        def payload(record):
            decoded.append(record)
            return decode(record)

        monkeypatch.setattr(cli, "parse_record", keep)
        monkeypatch.setattr(CertificateRecord, "payload", property(payload))
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
        assert {record.kind for record in read} == {"shanks_candidate", "cyclotomic_tower"}
        # each tower record's payload is decoded once, and no other payload
        assert decoded == [record for record in read if record.kind == "cyclotomic_tower"]

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

    @pytest.mark.parametrize("ell", ["0", "1"])
    def test_ell_below_2_is_composite(self, capsys, ell):
        code, out, err = run(capsys, "certify", "eigenform", "--weight", "12", "--ell", ell)
        assert code == EXIT_REJECTED
        (record,) = records_of(out)
        assert record.payload == {
            "command": "certify eigenform", "reasons": ["composite"], "ell": int(ell)
        }

    @pytest.mark.parametrize("registry", ["absent", "corrupt", "composite_tower"])
    def test_composite_ell_rejected_before_registry(self, capsys, tmp_path, monkeypatch, registry):
        # the file is never opened: absent, corrupt, or citing a forged
        # certified tower for the composite conductor 763 = 7*109 (m = 26)
        registry_file = tmp_path / "registry.jsonl"
        ell = 9
        if registry == "corrupt":
            registry_file.write_text("{not json}\n", encoding="utf-8")
        elif registry == "composite_tower":
            _, out, _ = run(capsys, "certify", "cyclotomic", "--m", "2")
            payload = _claiming(records_of(out)[0].payload, 19, m=26)
            line = to_json_line(make_record("cyclotomic_tower", payload))
            registry_file.write_text(line + "\n", encoding="utf-8")
            ell = payload["ell"]
        parsed = []
        monkeypatch.setattr(cli, "parse_record", parsed.append)
        code, out, err = run(
            capsys, "certify", "eigenform", "--weight", "12", "--ell", str(ell),
            "--registry", str(registry_file),
        )
        assert code == EXIT_REJECTED
        (record,) = records_of(out)
        assert record.payload == {
            "command": "certify eigenform", "reasons": ["composite"], "ell": ell
        }
        assert parsed == []

    def test_ell_2_is_usage(self, capsys):
        # 2 is prime, so no composite rejection; the gate needs an odd prime
        code, out, err = run(capsys, "certify", "eigenform", "--weight", "12", "--ell", "2")
        assert code == EXIT_USAGE
        assert "odd prime" in err
        assert out == ""

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

    def test_non_utf8_registry_is_usage(self, capsys, tmp_path):
        registry_file = tmp_path / "latin1.jsonl"
        registry_file.write_bytes(b"\xff\xfe not utf-8\n")
        code, out, err = run(
            capsys, "certify", "eigenform", "--weight", "12", "--ell", "877",
            "--registry", str(registry_file),
        )
        assert code == EXIT_USAGE
        assert f"cannot read registry file {registry_file}" in err
        assert out == ""

    @pytest.mark.parametrize("payload", [[1], 5, None], ids=["list", "int", "null"])
    def test_non_object_payload_is_usage(self, capsys, tmp_path, payload):
        # a correct content hash over a payload that is not a JSON object
        body = {"schema_version": SCHEMA_VERSION, "kind": "cyclotomic_tower", "payload": payload}
        digest = hashlib.sha256(canonical_json(body).encode("ascii")).hexdigest()
        line = canonical_json(dict(body, content_hash=digest))
        registry_file = tmp_path / "bad.jsonl"
        registry_file.write_text(line + "\n", encoding="utf-8")
        code, out, err = run(
            capsys, "certify", "eigenform", "--weight", "12", "--ell", "877",
            "--registry", str(registry_file),
        )
        assert code == EXIT_USAGE
        assert f"bad registry record at {registry_file}:1" in err
        assert out == ""

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
            *FORGED_TOWERS,
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
        elif case in FORGED_TOWERS:
            m, change = FORGED_TOWERS[case]
            _, out, _ = run(capsys, "certify", "cyclotomic", "--m", str(m))
            payload = change(records_of(out)[0].payload)
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


    @pytest.mark.parametrize(
        "layout, line",
        [("blank_first", 2), ("blanks_between", 6), ("crlf", 3)],
    )
    def test_registry_error_names_physical_line(self, capsys, tmp_path, layout, line):
        good = to_json_line(make_record("rejection", {"command": "t", "reasons": []}))
        registry_file = tmp_path / "registry.jsonl"
        if layout == "blank_first":
            registry_file.write_bytes(b'\n{"bad":1}\n')
        elif layout == "blanks_between":
            # empty and whitespace-only lines, each skipped, around a good line
            text = f'\n \t\n{good}\n\x0c\n\n{{"bad":1}}\n{good}\n'
            registry_file.write_bytes(text.encode("ascii"))
        else:
            registry_file.write_bytes(f'{good}\r\n\r\n{{"bad":1}}\r\n'.encode("ascii"))
        code, out, err = run(
            capsys, "certify", "eigenform", "--weight", "12", "--ell", "877",
            "--registry", str(registry_file),
        )
        assert code == EXIT_USAGE
        assert f"bad registry record at {registry_file}:{line}: record line missing" in err
        assert out == ""

    def test_bad_utf8_after_valid_lines_is_unreadable(self, capsys, tmp_path):
        good = to_json_line(make_record("rejection", {"command": "t", "reasons": []}))
        registry_file = tmp_path / "registry.jsonl"
        # far enough in that the decoder meets it on a later read, not the first
        registry_file.write_bytes((good + "\n").encode("ascii") * 200 + b"\xff\xfe\n")
        code, out, err = run(
            capsys, "certify", "eigenform", "--weight", "12", "--ell", "877",
            "--registry", str(registry_file),
        )
        assert code == EXIT_USAGE
        assert f"cannot read registry file {registry_file}" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "kind, reasons",
        [
            ('"rejection"', "1" + "0" * 5000),
            ('"rejection"', "[" * 5000 + "]" * 5000),
            ('"rejection"', "[" * 900 + "]" * 900),
            ('["rejection"]', "[]"),
        ],
        ids=["int-5000-digits", "nested-5000", "nested-900", "list-kind"],
    )
    def test_undecodable_registry_record_is_usage(self, capsys, tmp_path, kind, reasons):
        # a valid hash, taken over the text: canonical_json cannot encode these values
        head = (
            f'{{"schema_version":"{SCHEMA_VERSION}","kind":{kind},'
            f'"payload":{{"command":"t","reasons":{reasons}}}'
        )
        digest = hashlib.sha256((head + "}").encode("ascii")).hexdigest()
        registry_file = tmp_path / "bad.jsonl"
        registry_file.write_text(
            f'{head},"content_hash":"{digest}"}}\n',
            encoding="ascii",
        )
        code, out, err = run(
            capsys, "certify", "eigenform", "--weight", "12", "--ell", "877",
            "--registry", str(registry_file),
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
        assert serial.read_bytes() == parallel.read_bytes()

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

    def test_impossible_class_number_is_integrality_rejection(self, capsys, monkeypatch):
        real_l_sum = cubic.l_sum
        reg = cubic.regulator(50)

        def l_sum_with_h_20(ell):
            if ell == 2659:
                return complex(math.sqrt(80.0 * reg), 0.0)
            return real_l_sum(ell)

        monkeypatch.setattr(cubic, "l_sum", l_sum_with_h_20)
        code, out, err = run(capsys, "search", "--m-max", "60", "--certify", "--jobs", "1")
        assert code == EXIT_NUMERIC
        assert "m in [50]" in err
        records = records_of(out)
        (failure,) = [r for r in records if r.kind == "rejection"]
        assert failure.payload["reasons"] == ["integrality"]
        assert failure.payload["m"] == 50
        assert failure.payload["value"] == pytest.approx(20.0, abs=1e-9)
        assert failure.payload["unit_index_suspected"] is False
        assert records[-1].payload["m"] == 59  # the sweep ran to the end

    def test_unresolved_root_number_is_numeric_rejection(self, capsys, monkeypatch):
        # at a relative tolerance of 2 every cube root of J/sqrt(ell) fits
        # the theta relation, whose wrong roots miss by sqrt(3) * |P|
        monkeypatch.setattr(cubic, "_ROOT_AGREE", 2.0)
        code, out, err = run(capsys, "search", "--m-max", "12", "--certify", "--jobs", "1")
        assert code == EXIT_NUMERIC
        failures = [r for r in records_of(out) if r.kind == "rejection"]
        assert [r.payload["m"] for r in failures] == [2, 7, 10, 11]
        for failure in failures:
            assert failure.payload["reasons"] == ["numeric"]
            assert failure.payload["message"].startswith(
                f"root number mod {failure.payload['ell']} not resolved"
            )

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
            outputs.append(out)
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
        assert out == serial

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

    def test_out_file_streams_in_bounded_memory(self, tmp_path):
        # each line is written as it is made: the 33,433 lines (about 7 MB of
        # text) are never held at once; the sieve block is most of the peak
        target = tmp_path / "registry.jsonl"
        assert main(["search", "--m-max", "1000", "--out", str(target)]) == EXIT_OK  # imports
        tracemalloc.start()
        try:
            assert main(["search", "--m-max", "100300", "--out", str(target)]) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with target.open(encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == 33433
        assert peak < 2**20

    def test_bad_residues(self, capsys):
        for bad in ("13", "", "2,x", "-1"):
            code, out, err = run(capsys, "search", "--m-max", "12", "--residues", bad)
            assert code == EXIT_USAGE, bad

    def test_bad_m_max(self, capsys):
        code, out, err = run(capsys, "search", "--m-max", "0")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("m_max", ["99999", "100054"])
    def test_certify_past_conductor_cap_is_usage(self, capsys, m_max):
        # shanks_value(99999) = 10000100007 is just past MAX_CONDUCTOR
        code, out, err = run(capsys, "search", "--m-max", m_max, "--certify")
        assert code == EXIT_USAGE
        assert "MAX_CONDUCTOR" in err
        assert out == ""

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
        assert "prime bound must be at least 5" in err

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

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_count_has_no_format_option(self, capsys, fmt):
        # every line hl count prints is a record, so it takes no --format
        code, out, err = run(capsys, "hl", "count", "--x", "1000", "--format", fmt)
        assert code == EXIT_USAGE
        assert out == ""

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

    def test_count_x_above_63_bits_fails_before_the_sieve(self, capsys, monkeypatch):
        def no_sieve(prime_bound):
            raise AssertionError("hl_constant ran before --x was checked")

        monkeypatch.setattr(cli, "hl_constant", no_sieve)
        argv = ("hl", "count", "--x", str(2**63), "--prime-bound", str(MAX_PRIME_BOUND))
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

    def test_n_past_digit_limit_names_no_interpreter_setting(self):
        # the command runs at the 4300-digit limit, so repr itself refuses this n
        src = str(Path(towercert.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "towercert.cli", "furuta", "--ell", "5", "--m-e", "30",
             "--count", "3000"],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert proc.stdout == b""
        assert b"(4300 digits)" in proc.stderr
        assert b"set_int_max_str_digits" not in proc.stderr


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
        for n in ("1", "1001"):
            code, out, err = run(capsys, "group", "perfect", "--n", n)
            assert code == EXIT_USAGE, n

    def test_domain_error_in_handler_is_usage(self, capsys, monkeypatch):
        def refusing_sl2_perfect(n):
            raise DomainError(f"refused n={n}")

        monkeypatch.setattr(cli, "sl2_perfect", refusing_sl2_perfect)
        code, out, err = run(capsys, "group", "perfect", "--n", "7")
        assert code == EXIT_USAGE
        assert "towercert: error: refused n=7" in err
        assert out == ""


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


# Each subprocess case runs with unbuffered standard streams and with the
# default block-buffered stdout that a shell gives a pipe or a file.
BUFFERING = (True, False)


def _cli_env(unbuffered):
    env = {**os.environ, "PYTHONPATH": str(Path(towercert.__file__).resolve().parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


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
        data = first.read_bytes()
        assert data and data == second.read_bytes()

    def test_unopenable_out_file_is_usage(self, capsys, tmp_path):
        target = tmp_path / "absent" / "records.jsonl"
        code, out, err = run(capsys, "hl", "constant", "--prime-bound", "100", "--out", str(target))
        assert code == EXIT_USAGE
        assert "cannot open output file" in err
        assert out == ""

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

    @staticmethod
    def _cli_process(tmp_path, stdout, *argv, unbuffered, stderr=subprocess.PIPE, **popen):
        """python -m towercert.cli, with PYTHONUNBUFFERED=1 or with it unset, as in a shell."""
        return subprocess.Popen(
            [sys.executable, "-m", "towercert.cli", *argv],
            stdout=stdout, stderr=stderr, cwd=tmp_path, env=_cli_env(unbuffered), **popen,
        )

    @staticmethod
    def _assert_write_failure(proc, err):
        assert proc.wait(timeout=60) == EXIT_NUMERIC, err
        (line,) = err.decode().splitlines()  # one line, so no traceback
        assert line.startswith("towercert: cannot write output: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_is_exit_3(self, tmp_path):
        for unbuffered in BUFFERING:
            with open("/dev/full", "wb") as full:
                proc = self._cli_process(
                    tmp_path, full, "group", "perfect", "--n", "7", unbuffered=unbuffered
                )
                err = proc.stderr.read()
            self._assert_write_failure(proc, err)
            assert b"No space left" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stderr_keeps_usage_exit_2(self, tmp_path):
        for unbuffered in BUFFERING:
            with open("/dev/full", "wb") as full:
                proc = self._cli_process(
                    tmp_path, subprocess.DEVNULL, "hl", "constant", "--prime-bound", "1",
                    unbuffered=unbuffered, stderr=full,
                )
            assert proc.wait(timeout=60) == EXIT_USAGE, unbuffered

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_and_stderr_is_exit_3(self, tmp_path):
        for unbuffered in BUFFERING:
            with open("/dev/full", "wb") as full:
                proc = self._cli_process(
                    tmp_path, full, "group", "perfect", "--n", "7",
                    unbuffered=unbuffered, stderr=full,
                )
            assert proc.wait(timeout=60) == EXIT_NUMERIC, unbuffered

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_help_to_full_stdout_is_exit_3(self, tmp_path):
        # argparse ignores a failed write of its help; buffered, it would fail at exit
        for unbuffered in BUFFERING:
            with open("/dev/full", "wb") as full:
                proc = self._cli_process(tmp_path, full, "--help", unbuffered=unbuffered)
                err = proc.stderr.read()
            self._assert_write_failure(proc, err)
            assert b"No space left" in err

    @pytest.mark.parametrize("argv", [("group", "perfect", "--n", "7"), ("--help",)])
    def test_closed_stdout_is_exit_3(self, tmp_path, argv):
        # `towercert ... >&-`: the process starts with sys.stdout None
        for unbuffered in BUFFERING:
            proc = self._cli_process(
                tmp_path, subprocess.DEVNULL, *argv,
                unbuffered=unbuffered, preexec_fn=partial(os.close, 1),
            )
            err = proc.stderr.read()
            self._assert_write_failure(proc, err)
            assert err.endswith(b": [Errno 9] stdout is closed\n")

    def test_pipe_closed_after_first_line_is_exit_3(self, tmp_path):
        for unbuffered in BUFFERING:
            proc = self._cli_process(
                tmp_path, subprocess.PIPE, "search", "--m-max", "200000", unbuffered=unbuffered
            )
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            self._assert_write_failure(proc, err)
            assert parse_record(first.decode("utf-8").rstrip("\n")).payload["m"] == 2
            assert b"Broken pipe" in err

    def test_stdout_none_in_process_is_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["group", "perfect", "--n", "7"]) == EXIT_NUMERIC
        assert main(["--help"]) == EXIT_NUMERIC
        assert main(["search", "--m-max", "1"]) == EXIT_OK
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["towercert: cannot write output: [Errno 9] stdout is closed"] * 2


# Commands whose console-script run must match main() byte for byte: {out}
# and {registry} are files in the test's directory.
CONSOLE_SET = (
    ("--help",),
    ("search",),
    ("certify", "eigenform", "--weight", "12", "--ell", "20"),
    ("group", "perfect", "--n", "7"),
    ("certify", "cyclotomic", "--m", "50"),
    ("search", "--m-max", "600", "--certify"),
    ("search", "--m-max", "600", "--certify", "--out", "{out}"),
    ("certify", "eigenform", "--weight", "12", "--ell", "877", "--registry", "{registry}"),
)


class TestConsolePath:
    """script_entry ends the process itself; what it leaves is what main() gives in process."""

    @pytest.mark.parametrize("template", CONSOLE_SET, ids=" ".join)
    def test_same_bytes_and_exit_code_as_main(self, capsys, tmp_path, template):
        registry = tmp_path / "registry.jsonl"
        if "{registry}" in template:
            assert main(["search", "--m-max", "600", "--out", str(registry)]) == EXIT_OK

        def argv(out):
            return [a.format(out=out, registry=registry) for a in template]

        code, out, err = run(capsys, *argv(tmp_path / "main.jsonl"))
        proc = subprocess.run(
            [sys.executable, "-m", "towercert.cli", *argv(tmp_path / "console.jsonl")],
            capture_output=True, cwd=tmp_path, env=_cli_env(False), timeout=120,
        )
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, out, err)
        if "{out}" in template:
            written = (tmp_path / "console.jsonl").read_bytes()
            assert written and written == (tmp_path / "main.jsonl").read_bytes()

    def test_no_process_outlives_a_pool(self, capsys, tmp_path):
        argv = ["search", "--m-max", "60", "--certify", "--jobs", "2"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "towercert.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=_cli_env(False),
            start_new_session=True,
        )
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_OK, err
        assert out.decode() == run(capsys, *argv)[1]
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_atexit_handlers_still_run(self, tmp_path):
        code = (
            "import atexit, sys\n"
            "from towercert.cli import script_entry\n"
            "atexit.register(print, 'handler ran', file=sys.stderr)\n"
            "sys.argv[1:] = ['group', 'perfect', '--n', '7']\n"
            "script_entry()"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, cwd=tmp_path, env=_cli_env(False), timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == b"handler ran\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv, stream, expected",
        [
            (("hl", "constant", "--prime-bound", "1"), "stderr", EXIT_USAGE),
            (("--help",), "stdout", EXIT_NUMERIC),
        ],
        ids=["full-stderr", "help-to-full-stdout"],
    )
    def test_traced_run_keeps_the_exit_code(self, tmp_path, argv, stream, expected):
        # a trace hook keeps the exit through sys.exit, where the interpreter flushes again
        code = (
            "import sys\n"
            "from towercert.cli import script_entry\n"
            "sys.settrace(lambda frame, event, arg: None)\n"
            f"sys.argv[1:] = {list(argv)!r}\n"
            "script_entry()"
        )
        with open("/dev/full", "wb") as full:
            streams = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL, stream: full}
            proc = subprocess.run(
                [sys.executable, "-c", code],
                cwd=tmp_path, env=_cli_env(False), timeout=120, **streams,
            )
        assert proc.returncode == expected

    def test_profiler_still_reports(self, tmp_path):
        # under cProfile the process takes the normal exit, after which it prints
        argv = ["group", "perfect", "--n", "7"]
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-m", "towercert.cli", *argv],
            capture_output=True, cwd=tmp_path, env=_cli_env(False), timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        first, rest = proc.stdout.split(b"\n", 1)
        assert first.startswith(b'{"schema_version":"1","kind":"group_report"')
        assert b"function calls" in rest and b"Ordered by" in rest


class TestOutFile:
    """--out FILE is replaced only once the command has passed its argument checks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("hl", "constant", "--prime-bound", "1"),
            ("hl", "constant", "--prime-bound", str(MAX_PRIME_BOUND + 1)),
            ("search", "--m-max", "0"),
            ("search", "--m-max", "12", "--residues", "13"),
            ("certify", "eigenform", "--weight", "12", "--ell", "877", "--registry", "{absent}"),
            ("certify", "cyclotomic", "--m", "0"),
            ("certify", "cyclotomic", "--ell", "12"),
            ("group", "perfect", "--n", "1001"),
            ("hl", "count", "--x", "100", "--prime-bound", "4"),
            ("search", "--m-max", "12", "--residues", "-1"),
            # n has ~6,700 digits, past the int-string limit of the record encoder
            ("furuta", "--ell", "877", "--m-e", "30", "--count", "1000"),
            # a multiple of 30, but only the product n may pass the 63-bit width
            ("furuta", "--ell", "5", "--m-e", str(30 * 10**28)),
            # past the 63-bit width, not a not_shanks_form rejection record
            ("certify", "cyclotomic", "--ell", str(2**63)),
            # refused before the progression search walks all its steps
            ("furuta", "--ell", "5", "--m-e", "30", "--count", str(10**29)),
            # within 63 bits, but more primes than the progression has steps
            ("furuta", "--ell", "5", "--m-e", "30", "--count", "2000000"),
            # a prime near 2^62: the candidates step*ell + 1 pass 63 bits at step 3
            ("furuta", "--ell", "4611686018427387847", "--m-e", "30"),
        ],
        ids=[
            "bound-1", "bound-above-max", "m-max-0", "bad-residues", "missing-registry",
            "m-0", "ell-12", "n-1001", "count-bound-4", "negative-residue", "furuta-n-digits",
            "furuta-m-e-past-63-bits", "ell-past-63-bits", "furuta-count-past-63-bits",
            "furuta-count-past-step-budget", "furuta-candidates-past-63-bits",
        ],
    )
    def test_usage_error_leaves_existing_file(self, capsys, tmp_path, argv):
        target = tmp_path / "keep.jsonl"
        target.write_bytes(b"one line that must survive\n")
        argv = [a.format(absent=tmp_path / "absent.jsonl") for a in argv]
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == EXIT_USAGE
        assert target.read_bytes() == b"one line that must survive\n"
        assert out == ""

    def test_digit_limit_does_not_come_from_the_environment(self, tmp_path):
        # PYTHONINTMAXSTRDIGITS=0 lifts the interpreter's limit, not the encoder's
        target = tmp_path / "keep.jsonl"
        target.write_bytes(b"one line that must survive\n")
        src = str(Path(towercert.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "0"}
        argv = ["furuta", "--ell", "877", "--m-e", "30", "--count", "1000", "--out", str(target)]
        proc = subprocess.run(
            [sys.executable, "-m", "towercert.cli", *argv],
            capture_output=True, cwd=tmp_path, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert proc.stdout == b""
        assert b"4300 digits" in proc.stderr
        assert target.read_bytes() == b"one line that must survive\n"

    def test_lower_digit_limit_from_the_environment_changes_nothing(self, tmp_path):
        # 640 digits is below the 1185 of this record's n, which a default run writes
        src = str(Path(towercert.__file__).resolve().parent.parent)

        def towercert_cli(limit, *argv):
            env = {**os.environ, "PYTHONPATH": src}
            env.pop("PYTHONINTMAXSTRDIGITS", None)
            if limit is not None:
                env["PYTHONINTMAXSTRDIGITS"] = limit
            return subprocess.run(
                [sys.executable, "-m", "towercert.cli", *argv],
                capture_output=True, cwd=tmp_path, env=env, timeout=60,
            )

        furuta = ["furuta", "--ell", "877", "--m-e", "30", "--count", "200"]
        default, lowered = towercert_cli(None, *furuta), towercert_cli("640", *furuta)
        assert default.returncode == lowered.returncode == EXIT_OK, lowered.stderr
        assert default.stdout and lowered.stdout == default.stdout
        registry = tmp_path / "registry.jsonl"
        registry.write_bytes(default.stdout)
        eigenform = ["certify", "eigenform", "--weight", "12", "--ell", "877", "--registry", str(registry)]
        default, lowered = towercert_cli(None, *eigenform), towercert_cli("640", *eigenform)
        assert default.returncode == lowered.returncode == EXIT_OK, lowered.stderr
        assert default.stdout and lowered.stdout == default.stdout

    def test_out_directory_is_usage_without_traceback(self, capsys, tmp_path):
        code, out, err = run(capsys, "hl", "constant", "--prime-bound", "100", "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "cannot open output file" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
    def test_success_without_records_leaves_empty_file(self, capsys, tmp_path, existing):
        target = tmp_path / "empty.jsonl"
        if existing:
            target.write_bytes(b"stale\n")
        code, out, err = run(capsys, "search", "--m-max", "1", "--out", str(target))
        assert code == EXIT_OK
        assert target.read_bytes() == b""

    def test_output_replaces_longer_file(self, capsys, tmp_path):
        target = tmp_path / "records.jsonl"
        target.write_bytes(b"x" * 10_000 + b"\n")
        code, out, err = run(capsys, "hl", "constant", "--prime-bound", "5", "--out", str(target))
        assert code == EXIT_OK
        (line,) = target.read_text(encoding="utf-8").splitlines()
        assert parse_record(line).kind == "hl_constant"

    def test_numeric_failure_keeps_records_written_before_it(self, capsys, tmp_path, monkeypatch):
        real_class_number = tower.class_number

        def failing_class_number(m):
            if m == 50:
                raise NumericError("Newton polish did not converge")
            return real_class_number(m)

        monkeypatch.setattr(tower, "class_number", failing_class_number)
        target = tmp_path / "sweep.jsonl"
        target.write_bytes(b"stale\n")
        code, out, err = run(capsys, "search", "--m-max", "60", "--certify", "--out", str(target))
        assert code == EXIT_NUMERIC
        assert out == ""
        records = records_of(target.read_text(encoding="utf-8"))
        (failure,) = [r for r in records if r.kind == "rejection"]
        assert failure.payload["m"] == 50
        assert records[0].payload["m"] == 2 and records[-1].payload["m"] == 59


# Fixed command set whose output and exit codes are pinned
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
    ("furuta", "--ell", "5", "--m-e", "30"),
    ("furuta", "--ell", "2659", "--m-e", "330"),
    ("group", "perfect", "--n", "1"),
    ("group", "perfect", "--n", "5"),
    ("group", "perfect", "--n", "6"),
    ("group", "perfect", "--n", "49"),
    *(("verify", "residue-claim", "--weight", str(k)) for k in (12, 16, 18, 20, 22, 26)),
)

COMMAND_SET_SHA256 = "3aa0af37dfc0a8a6f6b68ebb02cc60603bf38314d957ea2a6bebb911ef441868"


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
            assert '"timestamp"' not in out
            digest.update(f"{' '.join(template)} exit {code}\n{out}".encode("utf-8"))
        assert digest.hexdigest() == COMMAND_SET_SHA256


# The survey path: a written registry file read back, and the singular series
# at bounds on both sides of the modulus 3888 of its symbol table.
SURVEY_SET = (
    ("search", "--m-max", "3000", "--out", "{registry}"),
    ("certify", "eigenform", "--weight", "12", "--ell", "877", "--registry", "{registry}"),
    *(("hl", "constant", "--prime-bound", str(b)) for b in (5, 3889, 10**5)),
    ("hl", "count", "--x", str(10**8)),
)

SURVEY_SET_SHA256 = "29b1e135c4dfd4847b46ed1bb50143a090d06a1e8f66ba14db3a8e846e797734"


class TestSurveyDigest:
    def test_survey_set_bytes_pinned(self, capsys, tmp_path):
        registry = str(tmp_path / "registry.jsonl")
        digest = hashlib.sha256()
        for template in SURVEY_SET:
            argv = [a.format(registry=registry) for a in template]
            code, out, _ = run(capsys, *argv)
            if "--out" in argv:
                with open(registry, encoding="utf-8", newline="") as handle:
                    out += handle.read()
            assert '"timestamp"' not in out
            digest.update(f"{' '.join(template)} exit {code}\n{out}".encode("utf-8"))
        assert digest.hexdigest() == SURVEY_SET_SHA256


# The eigenform gate for every prime conductor with m <= 600 at every weight,
# citing one registry file from a sweep over the same range: literature,
# computed and missing evidence, exceptional primes and det-index rejections.
EIGENFORM_M_MAX = 600

EIGENFORM_SET_SHA256 = "c57efadfa89d4bb69d6bf6342b1be1254b6767b59ab349d91f4eea62d719d8c5"


class TestEigenformRangeDigest:
    def test_eigenform_range_bytes_pinned(self, capsys, tmp_path):
        registry = str(tmp_path / "registry.jsonl")
        code, _, _ = run(
            capsys, "search", "--m-max", str(EIGENFORM_M_MAX), "--certify", "--out", registry
        )
        assert code == EXIT_OK
        digest = hashlib.sha256()
        codes = []
        for m in range(1, EIGENFORM_M_MAX + 1):
            ell = str(shanks_value(m))
            if not is_prime(int(ell)):
                continue
            for k in VALID_WEIGHTS:
                argv = ("certify", "eigenform", "--weight", str(k), "--ell", ell)
                code, out, _ = run(capsys, *argv, "--registry", registry)
                codes.append(code)
                digest.update(f"{' '.join(argv)} exit {code}\n{out}".encode())
        assert EXIT_OK in codes and EXIT_REJECTED in codes
        assert digest.hexdigest() == EIGENFORM_SET_SHA256


# `group perfect` for every accepted n plus the usage error on each side.
GROUP_PERFECT_SHA256 = "4af24f13975cca85094916f22e2a35b572b93db7f1e7e6f846b3b3421e95ac3d"


class TestGroupPerfectDigest:
    def test_group_perfect_bytes_pinned(self, capsys):
        digest = hashlib.sha256()
        for n in range(1, 1002):
            code, out, _ = run(capsys, "group", "perfect", "--n", str(n))
            digest.update(f"group perfect --n {n} exit {code}\n{out}".encode())
        assert digest.hexdigest() == GROUP_PERFECT_SHA256


# Edge arguments on either side of each bound the CLI or the library checks.
# Their exit codes and stdout are pinned by one sha256;
# every exit-2 case must also leave an existing --out FILE as it was.
USAGE_SET = (
    ("search", "--m-max", "0"),
    ("search", "--m-max", "-5"),
    ("search", "--m-max", "1"),
    ("search", "--m-max", "12", "--residues", "13"),
    ("search", "--m-max", "12", "--residues", "-1"),
    ("search", "--m-max", "12", "--residues", ""),
    ("search", "--m-max", "12", "--residues", "2,x"),
    ("search", "--m-max", "12", "--residues", "0,11"),
    ("search", "--m-max", "12", "--jobs", "0"),
    ("search", "--m-max", "10000000000"),
    ("certify", "cyclotomic", "--m", "0"),
    ("certify", "cyclotomic", "--m", "-3"),
    ("certify", "cyclotomic", "--m", "1"),
    ("certify", "cyclotomic", "--m", "10000000000"),
    ("certify", "cyclotomic", "--ell", "12"),
    ("certify", "cyclotomic", "--ell", "13"),
    ("certify", "eigenform", "--weight", "12", "--ell", "877", "--registry", "{absent}"),
    ("certify", "eigenform", "--weight", "12", "--ell", "1"),
    ("group", "perfect", "--n", "1"),
    ("group", "perfect", "--n", "2"),
    ("group", "perfect", "--n", "1001"),
    ("hl", "constant", "--prime-bound", "4"),
    ("hl", "constant", "--prime-bound", str(MAX_PRIME_BOUND + 1)),
    ("hl", "count", "--x", "100", "--prime-bound", "4"),
    ("hl", "count", "--x", "18"),
    ("hl", "count", "--x", "19", "--prime-bound", "5"),
    ("hl", "count", "--x", str(2**63), "--prime-bound", "5"),
    ("furuta", "--ell", "15", "--m-e", "31"),
    ("furuta", "--ell", "5", "--m-e", "30", "--count", "8"),
    ("furuta", "--ell", "5", "--m-e", "0"),
    ("furuta", "--ell", "4", "--m-e", "30"),
    ("verify", "residue-claim", "--weight", "14"),
)

USAGE_SET_SHA256 = "b4380ccfc4505c4b0c5126b1abc5fbe2fd82dd6360f0ffbcc1d42fb4bdebcf19"


class TestUsageDigest:
    def test_usage_set_exit_codes_pinned(self, capsys, tmp_path):
        absent = str(tmp_path / "absent.jsonl")
        target = tmp_path / "keep.jsonl"
        digest = hashlib.sha256()
        for template in USAGE_SET:
            argv = [a.format(absent=absent) for a in template]
            code, out, _ = run(capsys, *argv)
            digest.update(f"{' '.join(template)} exit {code}\n{out}".encode())
            if code == EXIT_USAGE:
                target.write_bytes(b"one line that must survive\n")
                assert run(capsys, *argv, "--out", str(target))[:2] == (EXIT_USAGE, ""), template
                assert target.read_bytes() == b"one line that must survive\n", template
        assert digest.hexdigest() == USAGE_SET_SHA256


TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"

# For each name on cli that perfbench/traced_cli.py wraps, a command that calls it.
CALLERS = {
    "search_shanks_candidates": ("search", "--m-max", "20"),
    "certify_cyclotomic": ("certify", "cyclotomic", "--m", "50"),
    "record_for": ("group", "perfect", "--n", "7"),
    "to_json_line": ("group", "perfect", "--n", "7"),
    "parse_record": (
        "certify", "eigenform", "--weight", "12", "--ell", "877", "--registry", "{registry}"
    ),
    "hl_constant": ("hl", "constant", "--prime-bound", "1000"),
    "empirical_prime_count": ("hl", "count", "--x", "1000", "--prime-bound", "1000"),
    "sl2_perfect": ("group", "perfect", "--n", "7"),
    "furuta_n": ("furuta", "--ell", "5", "--m-e", "30"),
    "certify_eigenform": ("certify", "eigenform", "--weight", "12", "--ell", "877"),
    "is_prime": ("certify", "eigenform", "--weight", "12", "--ell", "877"),
}


def _traced_cli_names():
    """The names perfbench/traced_cli.py wraps on towercert.cli."""
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    return {attr for owner, attr, _ in traced_cli.SPANS if owner is cli}


class TestLazyNames:
    """Library names stay attributes of cli, whose handlers look them up per call."""

    def test_traced_names_exist_and_have_a_caller(self):
        names = _traced_cli_names()
        assert sorted(n for n in names if not callable(getattr(cli, n, None))) == []
        assert sorted(names - set(CALLERS)) == []

    @pytest.mark.parametrize("name", sorted(CALLERS))
    def test_rebinding_intercepts_the_handler(self, capsys, monkeypatch, tmp_path, name):
        registry = tmp_path / "registry.jsonl"
        assert main(["group", "perfect", "--n", "5", "--out", str(registry)]) == EXIT_OK
        real, calls = getattr(cli, name), []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
        argv = [a.format(registry=registry) for a in CALLERS[name]]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, err
        assert calls

    def test_parser_constants_match_their_owners(self):
        from towercert import arith, elliptic, modforms

        assert cli.VALID_WEIGHTS == modforms.VALID_WEIGHTS
        assert cli.DEFAULT_RESIDUES == arith.DEFAULT_RESIDUES
        assert cli.MIN_FURUTA_PRIMES == elliptic.MIN_FURUTA_PRIMES
