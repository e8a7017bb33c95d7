"""Line-delimited certificate records with byte-stable serialization.

Every CLI emission is one JSON object per line.  A result object's payload
keys follow its dataclass field order, then the derived properties listed
in _DERIVED; nested result objects become objects the same way and tuples
become arrays.  Adding, renaming or reordering a field of a result class
therefore changes its records (and needs a SCHEMA_VERSION bump).  The
serialization is canonical: keys keep their insertion order, floats print
with 17 significant digits (lowercase exponent, trailing ".0" when the
mantissa would otherwise look integral), strings escape to ASCII.  The
content hash is sha256 over the canonical bytes of (schema_version, kind,
payload); the timestamp is excluded so reruns are byte-identical modulo
that one field.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _quote

from .cubic import SimplestCubicField
from .elliptic import FurutaWitness, GroupReport
from .errors import DomainError
from .hlsearch import HLConstantResult, PrimeCountReport, ShanksCandidate
from .modforms import EigenformCertificate, ResidueClaimReport, ResidueQVerdict
from .tower import CyclotomicTowerCertificate, TowerProvenance

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
        return repr(obj)
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


def _head(schema_version: str, kind: str, payload: dict) -> str:
    """The hashed text without its closing brace; a record line continues it."""
    return (
        '{"schema_version":' + canonical_json(schema_version)
        + ',"kind":' + canonical_json(kind)
        + ',"payload":' + canonical_json(payload)
    )


def _hash(head: str) -> str:
    return hashlib.sha256((head + "}").encode("ascii")).hexdigest()


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def make_record(kind: str, payload, timestamp: str | None = None) -> CertificateRecord:
    """The record of a payload dict or result object; hashing validates its values."""
    shaped = _payload(payload)
    return CertificateRecord(
        schema_version=SCHEMA_VERSION,
        kind=kind,
        payload=shaped,
        content_hash=_hash(_head(SCHEMA_VERSION, kind, shaped)),
        timestamp=timestamp if timestamp is not None else _now(),
    )


_KINDS = {
    CyclotomicTowerCertificate: "cyclotomic_tower",
    EigenformCertificate: "eigenform",
    FurutaWitness: "furuta",
    GroupReport: "group_report",
    HLConstantResult: "hl_constant",
    PrimeCountReport: "prime_count",
    ResidueClaimReport: "residue_claim",
    ShanksCandidate: "shanks_candidate",
}

RECORD_KINDS = frozenset(_KINDS.values()) | {"rejection"}

# Properties emitted after a class's dataclass fields, in this order.
_DERIVED = {
    EigenformCertificate: ("rejection_reasons",),
    ResidueQVerdict: ("never_one", "forced"),
}

# Payload keys per class, computed once: dataclasses.fields() per record is slow.
_NAMES = {
    cls: tuple(f.name for f in fields(cls)) + _DERIVED.get(cls, ())
    for cls in (*_KINDS, TowerProvenance, ResidueQVerdict)
}


def _payload(obj):
    """JSON shape of a payload, as a copy.

    Result objects and dicts become dicts, tuples and lists become lists;
    other values pass through, for canonical_json to check.
    """
    names = _NAMES.get(type(obj))
    if names is not None:
        return {name: _payload(getattr(obj, name)) for name in names}
    if isinstance(obj, dict):
        return {key: _payload(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_payload(v) for v in obj]
    return obj


def record_for(obj, timestamp: str | None = None) -> CertificateRecord:
    """Wrap a module result object in its CertificateRecord."""
    kind = _KINDS.get(type(obj))
    if kind is not None:
        return make_record(kind, obj, timestamp)
    if isinstance(obj, SimplestCubicField):
        raise DomainError("SimplestCubicField is internal; emit the tower certificate")
    raise DomainError(f"no record kind for {type(obj).__name__}")


def rejection_record(
    command: str, reasons, context: dict | None = None, timestamp: str | None = None
) -> CertificateRecord:
    payload = {"command": command, "reasons": list(reasons)}
    if context:
        payload.update(context)
    return make_record("rejection", payload, timestamp)


def to_json_line(record: CertificateRecord) -> str:
    return (
        _head(record.schema_version, record.kind, record.payload)
        + ',"content_hash":' + canonical_json(record.content_hash)
        + ',"timestamp":' + canonical_json(record.timestamp) + "}"
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
        expected = _hash(_head(record.schema_version, record.kind, record.payload))
    except RecursionError as exc:
        raise DomainError("record payload nests too deeply to encode") from exc
    if record.content_hash != expected:
        raise DomainError(
            f"content hash mismatch: stored {record.content_hash}, recomputed {expected}"
        )
    return record

