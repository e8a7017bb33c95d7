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
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

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
    "tower_certificate_from_payload",
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
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise DomainError(f"record keys must be strings, got {key!r}")
            parts.append(json.dumps(key, ensure_ascii=True) + ":" + canonical_json(value))
        return "{" + ",".join(parts) + "}"
    raise DomainError(f"unsupported record value of type {type(obj).__name__}")


def _normalize(obj):
    """JSON-shape the payload: tuples become lists, scalars are validated."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise DomainError(f"non-finite float {obj!r} cannot be serialized")
        return obj
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise DomainError(f"record keys must be strings, got {key!r}")
            out[key] = _normalize(value)
        return out
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
        if self.kind not in RECORD_KINDS:
            raise DomainError(f"unknown record kind {self.kind!r}")


def _hash_body(kind: str, payload: dict) -> str:
    body = {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload}
    return hashlib.sha256(canonical_json(body).encode("ascii")).hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def make_record(kind: str, payload: dict, timestamp: str | None = None) -> CertificateRecord:
    normalized = _normalize(payload)
    return CertificateRecord(
        schema_version=SCHEMA_VERSION,
        kind=kind,
        payload=normalized,
        content_hash=_hash_body(kind, normalized),
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
    """JSON shape of a result: known classes become dicts, tuples become lists."""
    names = _NAMES.get(type(obj))
    if names is not None:
        return {name: _payload(getattr(obj, name)) for name in names}
    if isinstance(obj, tuple):
        return [_payload(v) for v in obj]
    return obj


def record_for(obj, timestamp: str | None = None) -> CertificateRecord:
    """Wrap a module result object in its CertificateRecord."""
    kind = _KINDS.get(type(obj))
    if kind is not None:
        return make_record(kind, _payload(obj), timestamp)
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
    body = {
        "schema_version": record.schema_version,
        "kind": record.kind,
        "payload": record.payload,
        "content_hash": record.content_hash,
        "timestamp": record.timestamp,
    }
    return canonical_json(body)


def parse_record(line: str) -> CertificateRecord:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DomainError(f"record line is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DomainError("record line must be a JSON object")
    missing = {"schema_version", "kind", "payload", "content_hash", "timestamp"} - set(raw)
    if missing:
        raise DomainError(f"record line missing fields {sorted(missing)}")
    record = CertificateRecord(
        schema_version=raw["schema_version"],
        kind=raw["kind"],
        payload=_normalize(raw["payload"]),
        content_hash=raw["content_hash"],
        timestamp=raw["timestamp"],
    )
    expected = _hash_body(record.kind, record.payload)
    if record.content_hash != expected:
        raise DomainError(
            f"content hash mismatch: stored {record.content_hash}, recomputed {expected}"
        )
    return record


def _arguments(cls, payload) -> dict:
    """Constructor arguments for cls from a payload keyed exactly by its fields."""
    names = _NAMES[cls]
    if not isinstance(payload, dict) or set(payload) != set(names):
        raise DomainError(f"{cls.__name__} payload keys must be exactly {list(names)}")
    return {key: tuple(v) if isinstance(v, list) else v for key, v in payload.items()}


def tower_certificate_from_payload(payload: dict) -> CyclotomicTowerCertificate:
    """Rebuild a tower certificate from a parsed record payload.

    Raises DomainError unless the keys at both levels are exactly the
    dataclass fields and the values construct a valid certificate.
    """
    args = _arguments(CyclotomicTowerCertificate, payload)
    args["provenance"] = TowerProvenance(**_arguments(TowerProvenance, args["provenance"]))
    try:
        return CyclotomicTowerCertificate(**args)
    except TypeError as exc:
        raise DomainError(f"malformed tower payload: {exc}") from exc
