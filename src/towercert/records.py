"""Line-delimited certificate records with byte-stable serialization.

Every CLI emission is one JSON object per line.  A result object's payload
keys are exactly its dataclass fields, in field order, with no derived
properties added; nested result objects become objects the
same way and tuples become arrays.  Each result class names its record
kind in record_kind, so this module imports no result module.  Adding,
renaming or reordering a field of a result class therefore changes its
records (and needs a SCHEMA_VERSION bump).  The serialization is
canonical: keys keep their insertion order, floats print with 17
significant digits (lowercase exponent, trailing ".0" when the mantissa
would otherwise look integral), strings escape to ASCII.  The content
hash is sha256 over the canonical bytes of (schema_version, kind,
payload); the timestamp is excluded so reruns are byte-identical modulo
that one field.  canonical_json, the only payload walker, builds the
payload's text once per record, and the record holds that text as
payload_text: its line is the text framed by the schema version and kind
in front and the hash and timestamp behind, and its payload is decoded
from the text on first use, so writing a record decodes nothing and the
payload is what the line decodes to.  canonical_json dispatches on the
exact type of each value; subclasses of the JSON types and result objects
take a slower path, which keeps a result class's encoder once it has met
the class.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from hashlib import sha256
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter

from .errors import DomainError

__all__ = [
    "SCHEMA_VERSION",
    "RECORD_KINDS",
    "CertificateRecord",
    "format_float",
    "canonical_json",
    "make_record",
    "record_for",
    "rejection_record",
    "to_json_line",
    "parse_record",
]

SCHEMA_VERSION = "1"

# CPython's default int-string digit limit.  A record with a longer integer
# cannot be read back by a default interpreter, so none is written, whatever
# limit this interpreter runs with.
_MAX_INT_DIGITS = 4300


def format_float(x: float) -> str:
    """17 significant digits, lowercase exponent, always visibly a real."""
    if not math.isfinite(x):
        raise DomainError(f"non-finite float {x!r} cannot be serialized")
    text = format(x, ".17g").lower()
    if "." not in text and "e" not in text:
        text += ".0"
    return text


def _encode_int(obj: int) -> str:
    limit = _MAX_INT_DIGITS
    try:
        text = repr(obj)
        # the sign is not a digit; the second test runs only for long texts
        fits = len(text) <= limit or len(text.lstrip("-")) <= limit
    except ValueError:  # past this interpreter's limit, which the CLI sets to 4300
        limit, fits = sys.get_int_max_str_digits(), False
    if not fits:
        raise DomainError(f"integer cannot be serialized: it exceeds the limit ({limit} digits)")
    return text


def _encode_dict(obj: dict) -> str:
    parts = []
    for key, value in obj.items():
        if not isinstance(key, str):
            raise DomainError(f"record keys must be strings, got {key!r}")
        parts.append(_quote(key) + ":" + canonical_json(value))
    return "{" + ",".join(parts) + "}"


def _encode_array(obj) -> str:
    return "[" + ",".join([canonical_json(v) for v in obj]) + "]"


# The encoder of each exact type canonical_json has met: the JSON types
# below, and each result class once it has been encoded (_result_encoder).
_ENCODERS = {
    str: _quote,
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    int: _encode_int,
    float: format_float,
    dict: _encode_dict,
    list: _encode_array,
    tuple: _encode_array,
}


def canonical_json(obj) -> str:
    """Canonical JSON text of obj: the exact bytes records and hashes use."""
    encode = _ENCODERS.get(type(obj))
    return encode(obj) if encode is not None else _encode_other(obj)


def _encode_other(obj) -> str:
    """canonical_json of a subclass of a JSON type, or of a result object."""
    for base in (str, int, float, dict, list, tuple):
        if isinstance(obj, base):
            return _ENCODERS[base](obj)
    encode = _result_encoder(type(obj))
    if encode is None:
        raise DomainError(f"unsupported record value of type {type(obj).__name__}")
    return encode(obj)


def _result_encoder(cls: type):
    """The encoder of a result class, made once and kept in _ENCODERS; None for other classes.

    A result class declares record_kind (None when it has no record of its
    own, as for one nested in other records); its payload keys are its
    dataclass fields, in order.  The encoder keeps each key quoted with its
    colon, and reads the values with one attrgetter, which returns a tuple
    because every result class has at least two fields.
    """
    if not hasattr(cls, "record_kind"):
        return None
    names = [f.name for f in fields(cls)]
    keys = [_quote(name) + ":" for name in names]
    values = attrgetter(*names)

    def encode(obj) -> str:
        return "{" + ",".join([k + canonical_json(v) for k, v in zip(keys, values(obj))]) + "}"

    _ENCODERS[cls] = encode
    return encode


RECORD_KINDS = frozenset({
    "cyclotomic_tower",
    "eigenform",
    "furuta",
    "group_report",
    "hl_constant",
    "prime_count",
    "residue_claim",
    "shanks_candidate",
    "rejection",
})

# The hashed text of a record of each kind, up to its payload.  Every
# record's schema version is SCHEMA_VERSION: _check sees to it.
_HEAD_START = {
    kind: '{"schema_version":' + _quote(SCHEMA_VERSION) + ',"kind":' + _quote(kind) + ',"payload":'
    for kind in RECORD_KINDS
}


def _check(schema_version, kind, payload_is_object: bool, timestamp) -> None:
    if schema_version != SCHEMA_VERSION:
        raise DomainError(f"unsupported schema version {schema_version!r}")
    if not isinstance(kind, str) or kind not in RECORD_KINDS:
        raise DomainError(f"unknown record kind {kind!r}")
    if not payload_is_object:
        raise DomainError("record payload must be a JSON object")
    if not isinstance(timestamp, str):
        raise DomainError("record timestamp must be a string")


def _content_hash(kind: str, payload_text: str) -> str:
    """The sha256 of a record's hashed text: its schema version, kind and payload."""
    return sha256((_HEAD_START[kind] + payload_text + "}").encode("ascii")).hexdigest()


@dataclass(frozen=True)
class CertificateRecord:
    """One record: schema version, kind, payload text, content hash and timestamp.

    payload_text is the canonical JSON of the payload, exactly as hashed
    and written; payload is decoded from it on first access.  The
    constructor checks the schema version, the kind, the timestamp and that
    payload_text is a JSON object's text; it does not recompute the hash.
    """

    schema_version: str
    kind: str
    payload_text: str
    content_hash: str
    timestamp: str

    def __post_init__(self):
        text = self.payload_text
        is_object = isinstance(text, str) and text[:1] == "{"
        _check(self.schema_version, self.kind, is_object, self.timestamp)

    @cached_property
    def payload(self) -> dict:
        return json.loads(self.payload_text)


@lru_cache(maxsize=1)
def _utc_stamp(second: int) -> str:
    """The timestamp of a wall-clock second, formatted once for all its records."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(second))


def make_record(kind: str, payload, timestamp: str | None = None) -> CertificateRecord:
    """The record of a payload dict or result object; encoding validates its values."""
    if timestamp is None:
        timestamp = _utc_stamp(int(time.time()))
    text = canonical_json(payload)
    try:
        content_hash = _content_hash(kind, text)
    except (KeyError, TypeError):
        content_hash = ""  # not a record kind: the constructor rejects it
    return CertificateRecord(SCHEMA_VERSION, kind, text, content_hash, timestamp)


def record_for(obj, timestamp: str | None = None) -> CertificateRecord:
    """Wrap a module result object in its CertificateRecord."""
    cls = type(obj)
    kind = getattr(cls, "record_kind", None)
    if kind is not None:
        return make_record(kind, obj, timestamp)
    if hasattr(cls, "record_kind"):
        raise DomainError(f"{cls.__name__} is internal: it has no record of its own")
    raise DomainError(f"no record kind for {cls.__name__}")


def rejection_record(
    command: str, reasons, context: dict | None = None, timestamp: str | None = None
) -> CertificateRecord:
    payload = {"command": command, "reasons": list(reasons)}
    if context:
        payload.update(context)
    return make_record("rejection", payload, timestamp)


def to_json_line(record: CertificateRecord) -> str:
    return (
        _HEAD_START[record.kind] + record.payload_text
        + ',"content_hash":' + _quote(record.content_hash)
        + ',"timestamp":' + _quote(record.timestamp) + "}"
    )


# The five fields of a record line.
_LINE_FIELDS = ("schema_version", "kind", "payload", "content_hash", "timestamp")
_line_fields = itemgetter(*_LINE_FIELDS)


def parse_record(line: str) -> CertificateRecord:
    """Parse one record line and check its content hash.

    json.loads yields only JSON-shaped values, and the hash check encodes
    the whole payload, so a value that cannot be serialized (NaN,
    Infinity) fails there with the encoder's DomainError.
    """
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DomainError(f"record line is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past the int-string digit limit, or arrays nested past the stack
        raise DomainError(f"record line cannot be decoded: {exc}") from exc
    if not isinstance(raw, dict):
        raise DomainError("record line must be a JSON object")
    try:
        schema_version, kind, payload, content_hash, timestamp = _line_fields(raw)
    except KeyError:
        missing = set(_LINE_FIELDS) - set(raw)
        raise DomainError(f"record line missing fields {sorted(missing)}") from None
    _check(schema_version, kind, isinstance(payload, dict), timestamp)
    try:
        text = canonical_json(payload)
    except RecursionError as exc:
        raise DomainError("record payload nests too deeply to encode") from exc
    expected = _content_hash(kind, text)
    if content_hash != expected:
        raise DomainError(f"content hash mismatch: stored {content_hash}, recomputed {expected}")
    return CertificateRecord(schema_version, kind, text, content_hash, timestamp)
