import copy
import functools
import hashlib
import importlib
import json
import os
import pathlib
import pickle
import pkgutil
import random
import re
import subprocess
import sys
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towercert
from oracles import canonical_json_reference
from towercert import records
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
    CertificateRecord,
    canonical_json,
    format_float,
    make_record,
    parse_record,
    record_for,
    rejection_record,
    to_json_line,
)
from towercert.tower import certify_cyclotomic

# The member every line carried before records dropped the time they were
# written; parse_record still reads such lines.
OLD_STAMP = ',"timestamp":"2026-01-01T00:00:00Z"'


@functools.lru_cache(maxsize=1)
def sample_objects():
    """One real result object per record kind, built from the library."""
    return {
        "cyclotomic_tower": certify_cyclotomic(50),
        "eigenform": certify_eigenform(12, 877),
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

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit"
    )
    def test_int_past_digit_limit_rejected(self):
        # repr raises ValueError past the limit; the encoder reports a DomainError
        limit = sys.get_int_max_str_digits()
        with pytest.raises(DomainError, match=rf"\({limit} digits\)"):
            canonical_json({"n": 10**limit})

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit"
    )
    def test_digit_limit_is_the_default_one_whatever_the_interpreter_sets(self):
        # with no interpreter limit, repr prints any int; the encoder still stops at 4300
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert canonical_json(10**4299) == "1" + "0" * 4299
            assert canonical_json(-(10**4299)) == "-1" + "0" * 4299
            for n in (10**4300, -(10**4300)):
                with pytest.raises(DomainError, match=r"\(4300 digits\)"):
                    canonical_json({"n": n})
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("kind", sorted(RECORD_KINDS - {"rejection"}))
    def test_result_object_encodes_like_its_payload(self, kind):
        obj = sample_objects()[kind]
        assert canonical_json(obj) == canonical_json(record_for(obj).payload)


# Strings weighted toward what the encoder must escape: quotes, backslashes,
# control characters, DEL, non-ASCII, astral characters and lone surrogates.
_SPECIAL = '"\\\x00\x08\x1f\x7f\xe9\u03c0\u2028\ud800\udfff\U0001f600'
_CHARS = st.sampled_from(_SPECIAL) | st.integers(0, 0x10FFFF).map(chr)
_STRINGS = st.lists(_CHARS, max_size=8).map("".join)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | _STRINGS
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=24,
)


class TestCanonicalJsonAgainstReference:
    @given(_VALUES)
    @settings(max_examples=400)
    def test_matches_reference_encoder(self, value):
        assert canonical_json(value) == canonical_json_reference(value)

    @given(_STRINGS)
    def test_string_is_json_dumps(self, text):
        assert canonical_json(text) == json.dumps(text, ensure_ascii=True)


# Payload values at the codec's edges: 63-bit and 4300-digit integers (the
# longest a default interpreter reads back), negative zero and subnormals.
_EDGE_INTS = st.sampled_from(
    [2**63, -(2**63), 2**63 - 1, 10**4299, 10**4300 - 1, -(10**4300 - 1)]
)
_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308])
_CODEC_SCALARS = (
    _SCALARS
    | _EDGE_INTS
    | st.integers(min_value=-(2**64), max_value=2**64)
    | _EDGE_FLOATS
)
_CODEC_VALUES = st.recursive(
    _CODEC_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=24,
)
_PAYLOADS = st.dictionaries(_STRINGS, _CODEC_VALUES, max_size=5)


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


class _Tuple(tuple):
    pass


def _subclassed(value):
    """value with each str, int, float, dict, list and tuple in it made a subclass instance."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, str):
        return _Str(value)
    if isinstance(value, int):
        return _Int(value)
    if isinstance(value, float):
        return _Float(value)
    if isinstance(value, dict):
        return _Dict({_Str(k): _subclassed(v) for k, v in value.items()})
    if isinstance(value, tuple):
        return _Tuple(_subclassed(v) for v in value)
    return _List(_subclassed(v) for v in value)


class TestCodecProperties:
    @given(_PAYLOADS, st.sampled_from(sorted(RECORD_KINDS)))
    @settings(max_examples=150)
    def test_encode_decode_and_parse_agree(self, payload, kind):
        text = canonical_json(payload)
        assert text == canonical_json_reference(payload)
        record = make_record(kind, payload)
        assert record.payload == json.loads(text)
        assert parse_record(to_json_line(record)) == record

    @given(_CODEC_VALUES)
    @settings(max_examples=100)
    def test_subclasses_encode_as_their_base_types(self, value):
        sub = _subclassed(value)
        assert canonical_json(sub) == canonical_json(value)
        assert canonical_json(sub) == canonical_json_reference(sub)

    def test_subclass_payload_makes_the_same_record(self):
        payload = {"m": 7, "xs": [1.5, "π", (None, True)], "d": {"k": -0.0}}
        sub = _subclassed(payload)
        assert type(sub) is _Dict and type(sub["xs"]) is _List
        assert make_record("rejection", sub) == make_record("rejection", payload)


class TestMakeRecord:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            make_record("mystery", {"a": 1})

    def test_tuples_normalized_to_lists(self):
        record = make_record("rejection", {"reasons": ("composite",)})
        assert record.payload["reasons"] == ["composite"]

    def test_non_finite_payload_rejected(self):
        with pytest.raises(DomainError):
            make_record("rejection", {"x": float("nan")})

    def test_non_string_key_rejected(self):
        with pytest.raises(DomainError):
            make_record("rejection", {3: "x"})

    def test_payload_is_a_copy(self):
        context = {"m": 50, "reasons": ["integrality"], "nested": {"gap": 0.34}}
        record = make_record("rejection", context)
        context["reasons"].append("later")
        context["nested"]["gap"] = 0.5
        assert record.payload == {"m": 50, "reasons": ["integrality"], "nested": {"gap": 0.34}}

    def test_hash_is_sha256_hex(self):
        record = make_record("rejection", {"command": "t", "reasons": []})
        assert re.fullmatch(r"[0-9a-f]{64}", record.content_hash)


class TestRoundTrip:
    def test_known_kinds_cover_samples(self):
        assert set(sample_objects()) | {"rejection"} == RECORD_KINDS

    def test_record_kinds_are_the_declared_kinds(self):
        declared = set()
        for info in pkgutil.iter_modules(towercert.__path__):
            module = importlib.import_module(f"towercert.{info.name}")
            for cls in vars(module).values():
                if isinstance(cls, type) and "record_kind" in vars(cls):
                    # a NamedTuple: its _fields are its payload keys
                    assert issubclass(cls, tuple) and cls._fields, cls
                    declared.add(cls.record_kind)
        assert declared - {None} | {"rejection"} == RECORD_KINDS

    @pytest.mark.parametrize("kind", sorted(RECORD_KINDS - {"rejection"}))
    def test_every_kind_roundtrips(self, kind):
        record = record_for(sample_objects()[kind])
        assert record.kind == kind
        line = to_json_line(record)
        assert json.loads(line)["schema_version"] == SCHEMA_VERSION
        assert "\n" not in line
        parsed = parse_record(line)
        assert parsed == record
        assert to_json_line(parsed) == line

    def test_rejection_roundtrips(self):
        record = rejection_record(
            "certify cyclotomic", ("composite", "residue"), {"m": 3, "ell": 27}
        )
        assert record.payload["command"] == "certify cyclotomic"
        assert record.payload["m"] == 3
        parsed = parse_record(to_json_line(record))
        assert parsed == record

    def test_hash_independent_of_build_time(self):
        obj = sample_objects()["furuta"]
        assert record_for(obj).content_hash == record_for(obj).content_hash

    def test_lines_are_deterministic(self):
        obj = sample_objects()["hl_constant"]
        assert to_json_line(record_for(obj)) == to_json_line(record_for(obj))

    def test_rejection_line_roundtrips_byte_for_byte(self):
        # test_every_kind_roundtrips covers the other kinds
        record = rejection_record("furuta", ["composite"], {"ell": 9})
        line = to_json_line(record)
        assert to_json_line(parse_record(line)) == line

    def test_line_is_plain_json(self):
        record = record_for(sample_objects()["group_report"])
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

    @pytest.mark.parametrize("payload", [[1], 5, None], ids=["list", "int", "null"])
    def test_non_object_payload(self, payload):
        body = {"schema_version": SCHEMA_VERSION, "kind": "cyclotomic_tower", "payload": payload}
        digest = hashlib.sha256(canonical_json(body).encode("ascii")).hexdigest()
        line = canonical_json(dict(body, content_hash=digest))
        with pytest.raises(DomainError, match="payload must be a JSON object"):
            parse_record(line)

    def test_missing_field(self):
        record = record_for(sample_objects()["furuta"])
        raw = json.loads(to_json_line(record))
        del raw["content_hash"]
        with pytest.raises(DomainError, match="content_hash"):
            parse_record(json.dumps(raw))

    def test_tampered_payload_fails_hash(self):
        line = to_json_line(record_for(sample_objects()["furuta"]))
        assert '"ell":5' in line
        with pytest.raises(DomainError, match="hash mismatch"):
            parse_record(line.replace('"ell":5', '"ell":7', 1))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("where", ["top", "nested"])
    def test_non_finite_payload_value_rejected(self, token, where):
        # json.loads accepts these tokens; the hash check's encoder must not
        line = to_json_line(record_for(sample_objects()["furuta"]))
        value = token if where == "top" else '[1,{"x":%s}]' % token
        with pytest.raises(DomainError, match="non-finite float"):
            parse_record(line.replace('"ell":5', f'"ell":{value}', 1))

    @pytest.mark.parametrize(
        "value",
        ["1" + "0" * 5000, "[" * 5000 + "]" * 5000, "[" * 900 + "]" * 900],
        ids=["int-5000-digits", "nested-5000", "nested-900"],
    )
    def test_undecodable_value_rejected(self, value):
        # past the int-string digit limit, or nested past the stack in json.loads
        # or in the hash check's encoder: a DomainError, never ValueError/RecursionError
        line = to_json_line(record_for(sample_objects()["furuta"]))
        with pytest.raises(DomainError):
            parse_record(line.replace('"ell":5', f'"ell":{value}', 1))

    @pytest.mark.parametrize("kind", ['["furuta"]', '{"furuta":1}', "7"])
    def test_non_string_kind_rejected(self, kind):
        line = to_json_line(record_for(sample_objects()["furuta"]))
        with pytest.raises(DomainError, match="kind"):
            parse_record(line.replace('"kind":"furuta"', f'"kind":{kind}', 1))

    def test_wrong_schema_version(self):
        line = to_json_line(record_for(sample_objects()["furuta"]))
        with pytest.raises(DomainError, match="schema version"):
            parse_record(line.replace('"schema_version":"1"', '"schema_version":"2"', 1))

    def test_unknown_kind(self):
        line = to_json_line(record_for(sample_objects()["furuta"]))
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


# Full record lines, pinned so that any change to record bytes is
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
        '"class_number_float":18.999999999999936,'
        '"integrality_gap":6.3948846218409017e-14,"ramified_infinite_places":57,'
        '"ramified_finite_primes":19}},'
        '"content_hash":"0414e2ca1afc2eaf88251d979db397d584bfd5b38f8dc35356ded24dbd24d4a4"}'
    ),
    "eigenform": (
        '{"schema_version":"1","kind":"eigenform","payload":{"k":12,"ell":877,'
        '"not_exceptional":true,"det_index":1,"galois_group_full":true,'
        '"tower_evidence":"literature","certified":true,"rejection_reasons":[]},'
        '"content_hash":"c0dd6c25d749665710182f5c24b7aaf05dc316067230ee7d14add6e52a8f8061"}'
    ),
    "eigenform_uncertified": (
        '{"schema_version":"1","kind":"eigenform","payload":{"k":12,"ell":2659,'
        '"not_exceptional":true,"det_index":1,"galois_group_full":true,'
        '"tower_evidence":null,"certified":false,'
        '"rejection_reasons":["no_tower_evidence"]},'
        '"content_hash":"d082d8713377a68b79709c9ea33bef0bd4380ea3b2d9cb73ec99fae2d764ecad"}'
    ),
    "furuta": (
        '{"schema_version":"1","kind":"furuta","payload":{"ell":5,"m_e":30,'
        '"primes":[11,31,41,61,71,101,131,151,181],"n":21896495439314771},'
        '"content_hash":"c68985045e8c616cf24d940f8fed52c40ffcadff48684508104ace7a52fc90c6"}'
    ),
    "group_report": (
        '{"schema_version":"1","kind":"group_report","payload":{"n":7,'
        '"group_order":336,"abelianization_order":1,"perfect":true},'
        '"content_hash":"33664995a27291d5e76934cc4dc4bec313ef5c1593c29d3e4d8b96bf25b2b2d2"}'
    ),
    "hl_constant": (
        '{"schema_version":"1","kind":"hl_constant","payload":{"prime_bound":100,'
        '"partial_product":1.101278268347188,"constant":0.275319567086797,'
        '"terms_used":23},'
        '"content_hash":"06c916980fa53676ed428e3f93070c2a7c72b303730b7758c2404af8c6c6894f"}'
    ),
    "prime_count": (
        '{"schema_version":"1","kind":"prime_count","payload":{"x":1000,"count":1,'
        '"estimate":1.2603760284543499,"ratio":0.79341401091731367},'
        '"content_hash":"245dda89bfbfaaab4cda03140d5550761d1f6f62a521f393050a617f7d9a0849"}'
    ),
    "rejection": (
        '{"schema_version":"1","kind":"rejection",'
        '"payload":{"command":"certify cyclotomic","reasons":["composite","residue"],'
        '"m":3,"ell":27},'
        '"content_hash":"aee68445037095888489364c10aaa9f69387f13b9fe434d4c4a087d95da4c843"}'
    ),
    "residue_claim": (
        '{"schema_version":"1","kind":"residue_claim","payload":{"k":16,'
        '"prime_divisors":[3,5],"verdicts":[{"q":3,"witnesses":[1,2],'
        '"zero_classes":[0],"never_one":false,"forced":true},{"q":5,"witnesses":[],'
        '"zero_classes":[],"never_one":true,"forced":false}],"claim_holds":false},'
        '"content_hash":"8d9ba4150e005d18de8715b3359bbd6dce0c9b8cb1e3e77b6a65c57fc7e5ba26"}'
    ),
    "shanks_candidate": (
        '{"schema_version":"1","kind":"shanks_candidate","payload":{"m":2,"ell":19,'
        '"residue":2,"is_prime_ell":true},'
        '"content_hash":"05d07a004b192021ee4dcf8249a2dbabd767b98c894c346e923dec7823ff0310"}'
    ),
}


def golden_record(case):
    if case == "rejection":
        return rejection_record(
            "certify cyclotomic", ("composite", "residue"), {"m": 3, "ell": 27}
        )
    if case == "eigenform_uncertified":
        obj = certify_eigenform(12, 2659)
    else:
        obj = sample_objects()[case]
    return record_for(obj)


def built_record(case):
    """The golden record of case, built by the constructor from its payload text."""
    made = golden_record(case)
    return CertificateRecord(made.kind, made.payload_text, made.content_hash)


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

    @pytest.mark.parametrize("case", sorted(GOLDEN_LINES))
    def test_line_with_a_write_time_reads_as_without(self, case):
        # lines written before records dropped their write time still read
        line = GOLDEN_LINES[case]
        old = line[:-1] + OLD_STAMP + "}"
        assert parse_record(old) == parse_record(line) == golden_record(case)
        assert to_json_line(parse_record(old)) == line


class TestSha256Source:
    """records hashes with the interpreter's builtin SHA-256, and with hashlib only without one."""

    def test_builtin_module_first(self):
        for name in ("_sha2", "_sha256", "hashlib"):
            try:
                expected = importlib.import_module(name).sha256.__module__
            except ImportError:
                continue
            break
        assert records.sha256.__module__ == expected

    # the empty message, both sides of the one-block padding limit (55 bytes),
    # both sides of a whole block (64), and a long message
    @pytest.mark.parametrize("size", [0, 55, 56, 63, 64, 65, 10**5])
    def test_digest_is_hashlib_digest(self, size):
        data = random.Random(size).randbytes(size)
        assert records.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()

    def test_hashlib_fallback_writes_the_golden_lines(self):
        # with neither builtin module importable, records falls back to hashlib
        code = (
            "import json, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import test_records as t\n"
            "from towercert import records\n"
            "assert records.sha256.__module__ == '_hashlib', records.sha256.__module__\n"
            "for case, line in t.GOLDEN_LINES.items():\n"
            "    assert records.parse_record(line) == t.golden_record(case), case\n"
            "print(json.dumps({c: records.to_json_line(t.golden_record(c)) for c in t.GOLDEN_LINES}))"
        )
        tests = pathlib.Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == GOLDEN_LINES


class TestSingleEncoding:
    @pytest.mark.parametrize("case", sorted(GOLDEN_LINES))
    def test_line_reuses_hashed_text(self, case, monkeypatch):
        made = golden_record(case)
        parsed = parse_record(GOLDEN_LINES[case])

        def refuse(obj):
            raise AssertionError("to_json_line encoded the payload again")

        monkeypatch.setattr(records, "canonical_json", refuse)
        assert to_json_line(made) == GOLDEN_LINES[case]
        assert to_json_line(parsed) == GOLDEN_LINES[case]

    @pytest.mark.parametrize("case", sorted(GOLDEN_LINES))
    def test_write_path_decodes_nothing(self, case, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the write path decoded its own text")

        monkeypatch.setattr(json, "loads", refuse)
        made = golden_record(case)
        assert to_json_line(made) == GOLDEN_LINES[case]
        monkeypatch.undo()
        # decoded on first access, to what the line's payload decodes to
        assert made.payload == json.loads(GOLDEN_LINES[case])["payload"]
        assert made == parse_record(GOLDEN_LINES[case])

    def test_constructed_record_writes_its_text(self, monkeypatch):
        built = built_record("furuta")
        monkeypatch.setattr(records, "canonical_json", None)
        monkeypatch.setattr(json, "loads", None)
        assert to_json_line(built) == GOLDEN_LINES["furuta"]

    @pytest.mark.parametrize(
        "text",
        [{"ell": 5}, b'{"ell":5}', None, "", '[{"ell":5}]', '"{"', "5"],
        ids=["dict", "bytes", "none", "empty", "array", "string", "number"],
    )
    def test_payload_text_must_be_an_object_text(self, text):
        made = golden_record("furuta")
        with pytest.raises(DomainError, match="payload must be a JSON object"):
            CertificateRecord(made.kind, text, made.content_hash)


def _line_or_error(line_of, obj):
    """line_of(obj), or what it raises."""
    try:
        return line_of(obj)
    except Exception as exc:
        return type(exc), str(exc)


def _via_record(obj):
    return to_json_line(record_for(obj))


class _Mystery(NamedTuple):
    record_kind = "mystery"

    x: int


def _line_objects():
    """Result objects of every kind the CLI writes, with the codec's edge values in them.

    The tower's provenance is a nested result object, and the uncertified
    eigenform's tower_evidence is None.
    """
    samples = sample_objects()
    without_evidence = certify_eigenform(12, 2659)
    assert without_evidence.tower_evidence is None
    tower = samples["cyclotomic_tower"]
    hl = samples["hl_constant"]
    return {
        **samples,
        "tower_uncertified": certify_cyclotomic(2),
        "eigenform_with_evidence": certify_eigenform(12, 2659, certify_cyclotomic(50)),
        "eigenform_without_evidence": without_evidence,
        "nested_float_edges": tower._replace(
            provenance=tower.provenance._replace(class_number_float=5e-324, integrality_gap=-0.0)
        ),
        "float_edges": hl._replace(partial_product=1e22, constant=2.2250738585072009e-308),
        "int_4300_digits": samples["shanks_candidate"]._replace(m=10**4299, ell=-(10**4300 - 1)),
    }


def _failing_objects():
    samples = sample_objects()
    return {
        "not_a_result": object(),
        "internal": class_number(2),
        "nested_internal_class": samples["cyclotomic_tower"].provenance,
        "unknown_kind": _Mystery(1),
        "nan": samples["hl_constant"]._replace(constant=float("nan")),
        "nested_nan": samples["cyclotomic_tower"]._replace(
            provenance=samples["cyclotomic_tower"].provenance._replace(integrality_gap=float("nan"))
        ),
        "int_4301_digits": samples["shanks_candidate"]._replace(m=10**4300),
    }


class TestLineOfResultObject:
    """to_json_line(obj) writes in one pass the line of record_for(obj)."""

    @pytest.mark.parametrize("case", sorted(_line_objects()))
    def test_same_line_as_its_record(self, case):
        obj = _line_objects()[case]
        line = _line_or_error(to_json_line, obj)
        assert isinstance(line, str)
        assert line == _line_or_error(_via_record, obj)

    @pytest.mark.parametrize("case", sorted(_failing_objects()))
    def test_same_error_as_its_record(self, case):
        obj = _failing_objects()[case]
        error = _line_or_error(to_json_line, obj)
        assert isinstance(error, tuple) and error[0] is DomainError
        assert error == _line_or_error(_via_record, obj)

    def test_candidate_lines_of_a_search(self):
        for cand in search_shanks_candidates(3000):
            assert _line_or_error(to_json_line, cand) == _line_or_error(_via_record, cand)


class TestRecordValue:
    # a record is its three strings; its payload, once decoded, is not part of its value

    def test_equal_records_hash_alike_whatever_their_payload_object(self):
        made = golden_record("furuta")
        parsed = parse_record(GOLDEN_LINES["furuta"])
        built = built_record("furuta")
        assert made.payload == parsed.payload  # decoded on two sides, not on the third
        assert made == parsed == built
        assert hash(made) == hash(parsed) == hash(built)
        assert len({made, parsed, built}) == 1
        assert made != golden_record("group_report")
        assert golden_record("furuta") == parsed

    @pytest.mark.parametrize("case", ["furuta", "rejection"])
    def test_pickle_and_copy_keep_the_record(self, case):
        for record in (golden_record(case), parse_record(GOLDEN_LINES[case]), built_record(case)):
            for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
                assert clone == record
                assert to_json_line(clone) == GOLDEN_LINES[case]

    def test_pickle_and_copy_keep_a_decoded_payload(self):
        payload = json.loads(GOLDEN_LINES["rejection"])["payload"]
        for record in (golden_record("rejection"), built_record("rejection")):
            assert record.payload == payload
            for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
                assert clone == record
                assert clone.payload == payload
                assert to_json_line(clone) == GOLDEN_LINES["rejection"]


def _outcome(parse, line):
    """What parse makes of line: the record, or the text of its DomainError."""
    try:
        return parse(line)
    except DomainError as exc:
        return f"DomainError: {exc}"


def _resigned(line):
    """line with its content hash replaced by the sha256 of its text up to the hash field.

    That is the hash the fast path checks, so a line that still fits its
    grammar is read in place and must give what decoding it gives.
    """
    at = line.rfind(',"content_hash":"')
    if at < 0:
        return line
    digest = hashlib.sha256((line[:at] + "}").encode("utf-8")).hexdigest()
    start = at + len(',"content_hash":"')
    return line[:start] + digest + line[start + 64 :]


_MUTATION_ALPHABET = '0123456789abcdefxyzABCDEF_-+.eE"{}[],: \\\r\ntrunlfsé'


def _mutated(line, rng):
    """line with 1 to 3 characters replaced, inserted or deleted."""
    chars = list(line)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 and i < len(chars):
            chars[i] = rng.choice(_MUTATION_ALPHABET)
        elif op == 1:
            chars.insert(i, rng.choice(_MUTATION_ALPHABET))
        elif i < len(chars):
            del chars[i]
    return "".join(chars)


@pytest.fixture(scope="module")
def search_lines(tmp_path_factory):
    """Every line of search --m-max 600 --certify: candidate and tower records."""
    from towercert.cli import EXIT_OK, main

    path = tmp_path_factory.mktemp("search") / "search.jsonl"
    assert main(["search", "--m-max", "600", "--certify", "--out", str(path)]) == EXIT_OK
    return path.read_text(encoding="ascii").splitlines()


def _head(kind):
    return '{"schema_version":"1","kind":"' + kind + '","payload":'


def _signed_line(kind, payload_text):
    """A record line whose hash is over payload_text exactly as written."""
    digest = hashlib.sha256((_head(kind) + payload_text + "}").encode("utf-8")).hexdigest()
    return _head(kind) + payload_text + f',"content_hash":"{digest}"}}'


class TestFastPathAgreesWithDecoding:
    """parse_record reads scalar-payload lines in place; records._parse_decoded
    decodes every line.  Both must give the same record or the same error."""

    def test_scalar_line_decodes_nothing(self, monkeypatch):
        line = GOLDEN_LINES["shanks_candidate"]
        expected = records._parse_decoded(line)

        def refuse(*args, **kwargs):
            raise AssertionError("the fast path decoded the line")

        monkeypatch.setattr(json, "loads", refuse)
        monkeypatch.setattr(records, "canonical_json", refuse)
        assert parse_record(line) == expected
        assert parse_record(line + "\n") == expected

    @pytest.mark.parametrize("case", sorted(GOLDEN_LINES))
    def test_golden_lines(self, case):
        line = GOLDEN_LINES[case]
        assert _outcome(parse_record, line) == _outcome(records._parse_decoded, line)

    def test_search_lines(self, search_lines):
        kinds = {json.loads(line)["kind"] for line in search_lines}
        assert kinds == {"shanks_candidate", "cyclotomic_tower"}
        for line in search_lines:
            assert parse_record(line) == records._parse_decoded(line), line
            # as a file iterator yields it, with its "\n": the same record
            assert parse_record(line + "\n") == records._parse_decoded(line + "\n")
            assert parse_record(line + "\n") == parse_record(line)

    def test_seeded_mutations(self, search_lines):
        rng = random.Random(20260101)
        sources = list(GOLDEN_LINES.values()) + search_lines
        accepted = 0
        for n in range(24000):
            line = _mutated(rng.choice(sources), rng)
            if n % 2:
                line = _resigned(line)
            expected = _outcome(records._parse_decoded, line)
            assert _outcome(parse_record, line) == expected, line
            accepted += isinstance(expected, CertificateRecord)
        # the re-signed mutations that still decode exercise the accepting side
        assert accepted > 1000

    @pytest.mark.parametrize(
        "line",
        [
            _signed_line("shanks_candidate", '{"m":2,"ell":19,"m":3,"is_prime_ell":true}'),
            _signed_line("shanks_candidate", '{"m":-0,"ell":19}'),
            _signed_line("shanks_candidate", '{"m":01,"ell":19}'),
            _signed_line("shanks_candidate", '{"m":' + "9" * 640 + "}"),
            _signed_line("shanks_candidate", '{"m":-' + "9" * 641 + "}"),
            _signed_line("shanks_candidate", '{"\\u0061m":2}'),
            _signed_line("shanks_candidate", "{}"),
            _signed_line("mystery", '{"m":2}'),
            GOLDEN_LINES["shanks_candidate"].replace("05d07a004b", "05D07A004B"),
            GOLDEN_LINES["shanks_candidate"] + " ",
            GOLDEN_LINES["shanks_candidate"] + "\n",
            GOLDEN_LINES["shanks_candidate"] + "\n\n",
            GOLDEN_LINES["shanks_candidate"] + " \n",
            "\n" + GOLDEN_LINES["shanks_candidate"],
            _resigned(GOLDEN_LINES["shanks_candidate"].replace('"m":2', '"m":3')) + "\n",
            GOLDEN_LINES["shanks_candidate"] + "\r\n",
            GOLDEN_LINES["shanks_candidate"] + "\r",
            GOLDEN_LINES["shanks_candidate"].encode("ascii"),
            GOLDEN_LINES["shanks_candidate"][:-1] + OLD_STAMP + "}",
        ],
        ids=[
            "duplicate-key", "minus-zero", "leading-zero", "640-digits", "641-digits",
            "escaped-key", "empty-payload", "unknown-kind",
            "uppercase-hash", "trailing-space", "newline", "two-newlines", "space-newline",
            "leading-newline", "resigned-newline", "crlf", "cr", "bytes", "write-time",
        ],
    )
    def test_named_cases(self, line):
        assert _outcome(parse_record, line) == _outcome(records._parse_decoded, line)
