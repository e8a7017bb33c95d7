"""Line-delimited certificate records with byte-stable serialization.

Every CLI emission is one JSON object per line.  A result object's payload
keys follow its dataclass field order, then the derived properties its
class lists in record_derived; nested result objects become objects the
same way and tuples become arrays.  Each result class names its record
kind in record_kind, so this module imports no result module.  Adding,
renaming or reordering a field of a result class therefore changes its
records (and needs a SCHEMA_VERSION bump).  The serialization is
canonical: keys keep their insertion order, floats print with 17
significant digits (lowercase exponent, trailing ".0" when the mantissa
would otherwise look integral), strings escape to ASCII.  The content
hash is sha256 over the canonical bytes of (schema_version, kind,
payload); the timestamp is excluded so reruns are byte-identical modulo
that one field.  canonical_json, the only payload walker, builds that text
once per record; the record keeps it, its line appends the hash and the
timestamp, and its payload is what the line decodes to.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii as _quote

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


def canonical_json(obj) -> str:
    """Canonical JSON text of obj: the exact bytes records and hashes use."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        try:
            text = repr(obj)
        except ValueError as exc:  # past this interpreter's int-string digit limit
            raise DomainError(f"integer cannot be serialized: {exc}") from None
        # the sign is not a digit; the second test runs only for long texts
        if len(text) > _MAX_INT_DIGITS and len(text.lstrip("-")) > _MAX_INT_DIGITS:
            raise DomainError(
                f"integer cannot be serialized: it exceeds the limit ({_MAX_INT_DIGITS} "
                "digits) of a default interpreter"
            )
        return text
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise DomainError(f"record keys must be strings, got {key!r}")
            parts.append(_quote(key) + ":" + canonical_json(value))
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([canonical_json(v) for v in obj]) + "]"
    names = _payload_keys(type(obj))
    if names is not None:
        return canonical_json({name: getattr(obj, name) for name in names})
    raise DomainError(f"unsupported record value of type {type(obj).__name__}")


@dataclass(frozen=True)
class CertificateRecord:
    schema_version: str
    kind: str
    payload: dict = field(hash=False)
    content_hash: str
    timestamp: str

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise DomainError(f"unsupported schema version {self.schema_version!r}")
        if not isinstance(self.kind, str) or self.kind not in RECORD_KINDS:
            raise DomainError(f"unknown record kind {self.kind!r}")
        if not isinstance(self.payload, dict):
            raise DomainError("record payload must be a JSON object")
        if not isinstance(self.timestamp, str):
            raise DomainError("record timestamp must be a string")

    @cached_property
    def _head(self) -> str:
        """The hashed text minus its closing brace; make_record and parse_record set it."""
        return _hashed_head(self.kind, canonical_json(self.payload))[0]


# A record's schema version is always SCHEMA_VERSION: __post_init__ checks it.
_PREFIX = '{"schema_version":' + canonical_json(SCHEMA_VERSION) + ',"kind":'


def _hashed_head(kind: str, payload_text: str) -> tuple[str, str]:
    """A record's text minus its closing brace, and the sha256 of the whole text."""
    head = _PREFIX + canonical_json(kind) + ',"payload":' + payload_text
    return head, hashlib.sha256((head + "}").encode("ascii")).hexdigest()


@lru_cache(maxsize=1)
def _utc_stamp(second: int) -> str:
    """The timestamp of a wall-clock second, formatted once for all its records."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(second))


def make_record(kind: str, payload, timestamp: str | None = None) -> CertificateRecord:
    """The record of a payload dict or result object; encoding validates its values."""
    if timestamp is None:
        timestamp = _utc_stamp(int(time.time()))
    text = canonical_json(payload)
    head, content_hash = _hashed_head(kind, text)
    record = CertificateRecord(
        schema_version=SCHEMA_VERSION,
        kind=kind,
        payload=json.loads(text),
        content_hash=content_hash,
        timestamp=timestamp,
    )
    record.__dict__["_head"] = head
    return record


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

# Payload keys per result class: dataclasses.fields() per record is slow.
_KEYS: dict[type, tuple[str, ...]] = {}


def _payload_keys(cls: type) -> tuple[str, ...] | None:
    """A result class's payload keys, or None for a class that is not one.

    A result class declares record_kind (None when it has no record of its
    own, as for one nested in other records); its keys are its dataclass fields, then the properties
    it lists in record_derived.
    """
    keys = _KEYS.get(cls)
    if keys is None and hasattr(cls, "record_kind"):
        keys = _KEYS[cls] = tuple(f.name for f in fields(cls)) + getattr(
            cls, "record_derived", ()
        )
    return keys


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
        record._head
        + ',"content_hash":' + _quote(record.content_hash)
        + ',"timestamp":' + _quote(record.timestamp) + "}"
    )


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
    missing = {"schema_version", "kind", "payload", "content_hash", "timestamp"} - set(raw)
    if missing:
        raise DomainError(f"record line missing fields {sorted(missing)}")
    record = CertificateRecord(
        schema_version=raw["schema_version"],
        kind=raw["kind"],
        payload=raw["payload"],
        content_hash=raw["content_hash"],
        timestamp=raw["timestamp"],
    )
    try:
        head, expected = _hashed_head(record.kind, canonical_json(record.payload))
    except RecursionError as exc:
        raise DomainError("record payload nests too deeply to encode") from exc
    if record.content_hash != expected:
        raise DomainError(
            f"content hash mismatch: stored {record.content_hash}, recomputed {expected}"
        )
    record.__dict__["_head"] = head
    return record

