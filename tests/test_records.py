import functools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towercert.cubic import class_number
from towercert.elliptic import furuta_n, sl2_perfect
from towercert.errors import DomainError
from towercert.hlsearch import (
    CONDUCTOR_POLY,
    empirical_prime_count,
    hl_constant,
    search_shanks_candidates,
)
from towercert.modforms import certify_eigenform, verify_residue_claim
from towercert.records import (
    RECORD_KINDS,
    SCHEMA_VERSION,
    canonical_json,
    format_float,
    make_record,
    parse_record,
    record_for,
    rejection_record,
    to_json_line,
    tower_certificate_from_payload,
)
from towercert.tower import KnownInfiniteRegistry, certify_cyclotomic, schoof_rhs

TS_A = "2026-01-01T00:00:00Z"
TS_B = "2027-06-15T12:34:56Z"


@functools.lru_cache(maxsize=1)
def sample_objects():
    """One real result object per record kind, built from the library."""
    registry = KnownInfiniteRegistry()
    tower = certify_cyclotomic(50, registry=registry)
    return {
        "cyclotomic_tower": tower,
        "eigenform": certify_eigenform(12, 877, registry),
        "furuta": furuta_n(5, 30),
        "group_report": sl2_perfect(7),
        "hl_constant": hl_constant(100),
        "prime_count": empirical_prime_count(CONDUCTOR_POLY, 1000, hl_constant(100).constant),
        "residue_claim": verify_residue_claim(16),
        "shanks_candidate": next(search_shanks_candidates(12)),
    }


class TestFormatFloat:
    def test_seventeen_digit_constant(self):
        assert format_float(0.28015118850435017) == "0.28015118850435017"

    def test_integral_values_keep_point(self):
        assert format_float(4.0) == "4.0"
        assert format_float(-4.0) == "-4.0"
        assert format_float(0.0) == "0.0"

    def test_exponent_lowercase(self):
        assert format_float(1e22) == "1e+22"
        assert format_float(5e-324) == "4.9406564584124654e-324"

    def test_tenth(self):
        assert format_float(0.1) == "0.10000000000000001"

    def test_non_finite_rejected(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(DomainError):
                format_float(bad)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300)
    def test_value_roundtrip(self, x):
        text = format_float(x)
        assert float(text) == x
        assert json.loads(text) == x


class TestCanonicalJson:
    def test_insertion_order_preserved(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_tuples_render_as_arrays(self):
        assert canonical_json((1, 2, 3)) == "[1,2,3]"

    def test_strings_escape_to_ascii(self):
        assert canonical_json({"note": "π"}) == '{"note":"\\u03c0"}'

    def test_booleans_are_not_integers(self):
        assert canonical_json({"flag": True, "count": 1}) == '{"flag":true,"count":1}'
        assert canonical_json(False) == "false"
        assert canonical_json(None) == "null"

    def test_non_string_key_rejected(self):
        with pytest.raises(DomainError):
            canonical_json({1: "x"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(DomainError):
            canonical_json({"bad": {1, 2}})


class TestMakeRecord:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            make_record("mystery", {"a": 1})

    def test_tuples_normalized_to_lists(self):
        record = make_record("rejection", {"reasons": ("composite",)}, timestamp=TS_A)
        assert record.payload["reasons"] == ["composite"]

    def test_non_finite_payload_rejected(self):
        with pytest.raises(DomainError):
            make_record("rejection", {"x": float("nan")})

    def test_non_string_key_rejected(self):
        with pytest.raises(DomainError):
            make_record("rejection", {3: "x"})

    def test_hash_is_sha256_hex(self):
        record = make_record("rejection", {"command": "t", "reasons": []}, timestamp=TS_A)
        assert re.fullmatch(r"[0-9a-f]{64}", record.content_hash)

    def test_default_timestamp_shape(self):
        record = make_record("rejection", {"command": "t", "reasons": []})
        assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", record.timestamp)

    def test_timestamp_excluded_from_hash(self):
        payload = {"command": "t", "reasons": ["composite"]}
        a = make_record("rejection", payload, timestamp=TS_A)
        b = make_record("rejection", payload, timestamp=TS_B)
        assert a.content_hash == b.content_hash
        assert to_json_line(a) != to_json_line(b)


class TestRoundTrip:
    def test_known_kinds_cover_samples(self):
        assert set(sample_objects()) | {"rejection"} == RECORD_KINDS

    @pytest.mark.parametrize("kind", sorted(RECORD_KINDS - {"rejection"}))
    def test_every_kind_roundtrips(self, kind):
        record = record_for(sample_objects()[kind], timestamp=TS_A)
        assert record.kind == kind
        assert record.schema_version == SCHEMA_VERSION
        line = to_json_line(record)
        assert "\n" not in line
        parsed = parse_record(line)
        assert parsed == record
        assert to_json_line(parsed) == line

    def test_rejection_roundtrips(self):
        record = rejection_record(
            "certify cyclotomic", ("composite", "residue"), {"m": 3, "ell": 27}, timestamp=TS_A
        )
        assert record.payload["command"] == "certify cyclotomic"
        assert record.payload["m"] == 3
        parsed = parse_record(to_json_line(record))
        assert parsed == record

    def test_hash_independent_of_build_time(self):
        obj = sample_objects()["furuta"]
        assert record_for(obj, timestamp=TS_A).content_hash == record_for(obj, timestamp=TS_B).content_hash

    def test_lines_are_deterministic(self):
        obj = sample_objects()["hl_constant"]
        assert to_json_line(record_for(obj, timestamp=TS_A)) == to_json_line(
            record_for(obj, timestamp=TS_A)
        )

    def test_tower_payload_rebuilds_certificate(self):
        cert = sample_objects()["cyclotomic_tower"]
        parsed = parse_record(to_json_line(record_for(cert, timestamp=TS_A)))
        assert tower_certificate_from_payload(parsed.payload) == cert

    @pytest.mark.parametrize("level", ["top", "provenance"])
    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_tower_payload_keys_must_match_fields(self, level, change):
        payload = record_for(sample_objects()["cyclotomic_tower"], timestamp=TS_A).payload
        target = payload if level == "top" else payload["provenance"]
        if change == "missing":
            del target["m" if level == "top" else "integrality_gap"]
        else:
            target["note"] = "x"
        with pytest.raises(DomainError, match="payload keys must be exactly"):
            tower_certificate_from_payload(payload)

    def test_tower_payload_bad_values_rejected(self):
        payload = record_for(sample_objects()["cyclotomic_tower"], timestamp=TS_A).payload
        with pytest.raises(DomainError, match="rho"):
            tower_certificate_from_payload(dict(payload, rho=75))
        with pytest.raises(DomainError, match="malformed"):
            tower_certificate_from_payload(dict(payload, h=None))
        with pytest.raises(DomainError, match="rhs"):
            tower_certificate_from_payload(dict(payload, rhs=10.0))
        # h = 1 gives rhs = 10 > rho = 4: the bound fails, so certified must be false
        with pytest.raises(DomainError, match="certified flag"):
            tower_certificate_from_payload(dict(payload, h=1, rho=4, rhs=10.0))
        # ell_mismatch: the m = 50 record claiming ell = 19
        with pytest.raises(DomainError, match="ell 19"):
            tower_certificate_from_payload(dict(payload, ell=19))
        # fractional_h: rho, rhs and certified all consistent with h = 19.5
        with pytest.raises(DomainError, match="positive int"):
            tower_certificate_from_payload(
                dict(payload, h=19.5, rho=78.0, rhs=schoof_rhs(58.5, 58.5))
            )
        # negative_h: rho = 4h holds, and 3h + 1 < 0 would break the square root
        with pytest.raises(DomainError, match="positive int"):
            tower_certificate_from_payload(dict(payload, h=-1, rho=-4))

    def test_line_is_plain_json(self):
        record = record_for(sample_objects()["group_report"], timestamp=TS_A)
        raw = json.loads(to_json_line(record))
        assert raw["kind"] == "group_report"
        assert raw["payload"]["perfect"] is True


class TestParseErrors:
    def test_invalid_json(self):
        with pytest.raises(DomainError, match="not valid JSON"):
            parse_record("{nope")

    def test_non_object(self):
        with pytest.raises(DomainError):
            parse_record("[1,2]")

    def test_missing_field(self):
        record = record_for(sample_objects()["furuta"], timestamp=TS_A)
        raw = json.loads(to_json_line(record))
        del raw["timestamp"]
        with pytest.raises(DomainError, match="timestamp"):
            parse_record(json.dumps(raw))

    def test_tampered_payload_fails_hash(self):
        line = to_json_line(record_for(sample_objects()["furuta"], timestamp=TS_A))
        assert '"ell":5' in line
        with pytest.raises(DomainError, match="hash mismatch"):
            parse_record(line.replace('"ell":5', '"ell":7', 1))

    def test_wrong_schema_version(self):
        line = to_json_line(record_for(sample_objects()["furuta"], timestamp=TS_A))
        with pytest.raises(DomainError, match="schema version"):
            parse_record(line.replace('"schema_version":"1"', '"schema_version":"2"', 1))

    def test_unknown_kind(self):
        line = to_json_line(record_for(sample_objects()["furuta"], timestamp=TS_A))
        with pytest.raises(DomainError, match="kind"):
            parse_record(line.replace('"kind":"furuta"', '"kind":"mystery"', 1))


class TestRecordFor:
    def test_unregistered_type_rejected(self):
        with pytest.raises(DomainError):
            record_for(object())

    def test_cubic_field_is_internal(self):
        field = class_number(2)
        with pytest.raises(DomainError, match="internal"):
            record_for(field)


# Full record lines under TS_A, pinned so that any change to record bytes is
# deliberate.  The tower line changes whenever the class-number computation
# changes class_number_float or integrality_gap.
GOLDEN_LINES = {
    "cyclotomic_tower": (
        '{"schema_version":"1","kind":"cyclotomic_tower","payload":{"ell":2659,'
        '"m":50,"h":19,"rho":76,"rhs":75.231546211727817,"certified":true,'
        '"assumptions":["unit-index Q=1","torsion-units=+/-1"],'
        '"provenance":{"m_mod_12":2,"ell_mod_12":7,'
        '"primality_method":"deterministic-miller-rabin","primality_witnesses":[2,'
        '325,9375,28178,450775,9780504,1795265022],'
        '"class_number_float":19.000000000000057,'
        '"integrality_gap":5.6843418860808015e-14,"ramified_infinite_places":57,'
        '"ramified_finite_primes":19}},'
        '"content_hash":"b314a2cb3fccc844d42b6d4b53a00d3d06e84de5b81e867d79e0bbc7f023924a",'
        '"timestamp":"2026-01-01T00:00:00Z"}'
    ),
    "eigenform": (
        '{"schema_version":"1","kind":"eigenform","payload":{"k":12,"ell":877,'
        '"not_exceptional":true,"det_index":1,"galois_group_full":true,'
        '"tower_evidence":"literature","certified":true,"rejection_reasons":[]},'
        '"content_hash":"c0dd6c25d749665710182f5c24b7aaf05dc316067230ee7d14add6e52a8f8061",'
        '"timestamp":"2026-01-01T00:00:00Z"}'
    ),
    "eigenform_uncertified": (
        '{"schema_version":"1","kind":"eigenform","payload":{"k":12,"ell":2659,'
        '"not_exceptional":true,"det_index":1,"galois_group_full":true,'
        '"tower_evidence":null,"certified":false,'
        '"rejection_reasons":["no_tower_evidence"]},'
        '"content_hash":"d082d8713377a68b79709c9ea33bef0bd4380ea3b2d9cb73ec99fae2d764ecad",'
        '"timestamp":"2026-01-01T00:00:00Z"}'
    ),
    "furuta": (
        '{"schema_version":"1","kind":"furuta","payload":{"ell":5,"m_e":30,'
        '"primes":[11,31,41,61,71,101,131,151,181],"n":21896495439314771},'
        '"content_hash":"c68985045e8c616cf24d940f8fed52c40ffcadff48684508104ace7a52fc90c6",'
        '"timestamp":"2026-01-01T00:00:00Z"}'
    ),
    "group_report": (
        '{"schema_version":"1","kind":"group_report","payload":{"n":7,'
        '"group_order":336,"abelianization_order":1,"perfect":true},'
        '"content_hash":"33664995a27291d5e76934cc4dc4bec313ef5c1593c29d3e4d8b96bf25b2b2d2",'
        '"timestamp":"2026-01-01T00:00:00Z"}'
    ),
    "hl_constant": (
        '{"schema_version":"1","kind":"hl_constant","payload":{"prime_bound":100,'
        '"partial_product":1.101278268347188,"constant":0.275319567086797,'
        '"terms_used":23},'
        '"content_hash":"06c916980fa53676ed428e3f93070c2a7c72b303730b7758c2404af8c6c6894f",'
        '"timestamp":"2026-01-01T00:00:00Z"}'
    ),
    "prime_count": (
        '{"schema_version":"1","kind":"prime_count","payload":{"x":1000,"count":1,'
        '"estimate":1.2603760284543499,"ratio":0.79341401091731367},'
        '"content_hash":"245dda89bfbfaaab4cda03140d5550761d1f6f62a521f393050a617f7d9a0849",'
        '"timestamp":"2026-01-01T00:00:00Z"}'
    ),
    "rejection": (
        '{"schema_version":"1","kind":"rejection",'
        '"payload":{"command":"certify cyclotomic","reasons":["composite","residue"],'
        '"m":3,"ell":27},'
        '"content_hash":"aee68445037095888489364c10aaa9f69387f13b9fe434d4c4a087d95da4c843",'
        '"timestamp":"2026-01-01T00:00:00Z"}'
    ),
    "residue_claim": (
        '{"schema_version":"1","kind":"residue_claim","payload":{"k":16,'
        '"prime_divisors":[3,5],"verdicts":[{"q":3,"witnesses":[1,2],'
        '"zero_classes":[0],"never_one":false,"forced":true},{"q":5,"witnesses":[],'
        '"zero_classes":[],"never_one":true,"forced":false}],"claim_holds":false},'
        '"content_hash":"8d9ba4150e005d18de8715b3359bbd6dce0c9b8cb1e3e77b6a65c57fc7e5ba26",'
        '"timestamp":"2026-01-01T00:00:00Z"}'
    ),
    "shanks_candidate": (
        '{"schema_version":"1","kind":"shanks_candidate","payload":{"m":2,"ell":19,'
        '"residue":2,"is_prime_ell":true},'
        '"content_hash":"05d07a004b192021ee4dcf8249a2dbabd767b98c894c346e923dec7823ff0310",'
        '"timestamp":"2026-01-01T00:00:00Z"}'
    ),
}


def golden_record(case):
    if case == "rejection":
        return rejection_record(
            "certify cyclotomic", ("composite", "residue"), {"m": 3, "ell": 27}, timestamp=TS_A
        )
    if case == "eigenform_uncertified":
        obj = certify_eigenform(12, 2659, KnownInfiniteRegistry())
    else:
        obj = sample_objects()[case]
    return record_for(obj, timestamp=TS_A)


class TestGoldenRecords:
    def test_every_kind_pinned(self):
        assert {json.loads(line)["kind"] for line in GOLDEN_LINES.values()} == RECORD_KINDS

    @pytest.mark.parametrize("case", sorted(GOLDEN_LINES))
    def test_content_hash_pinned(self, case):
        expected = json.loads(GOLDEN_LINES[case])["content_hash"]
        assert golden_record(case).content_hash == expected

    @pytest.mark.parametrize("case", sorted(GOLDEN_LINES))
    def test_line_pinned(self, case):
        assert to_json_line(golden_record(case)) == GOLDEN_LINES[case]
