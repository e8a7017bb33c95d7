"""Line-delimited certificate records with byte-stable serialization.

Every CLI emission is one JSON object per line.  A result object is a
NamedTuple, and its payload keys are exactly its _fields, in field order,
with no derived properties added; nested result objects become objects the
same way and other tuples become arrays.  Each result class names its record
kind in record_kind, so this module imports no result module.  Adding,
renaming or reordering a field of a result class therefore changes its
records (and needs a SCHEMA_VERSION bump).  The serialization is
canonical: keys keep their insertion order, floats print with 17
significant digits (lowercase exponent, trailing ".0" when the mantissa
would otherwise look integral), strings escape to ASCII.  The content
hash is sha256 over the canonical bytes of (schema_version, kind,
payload), and a line is that text with the hash before its closing brace:
nothing in it depends on when it was written, so a rerun writes identical
bytes.  canonical_json, the only payload walker, builds the payload's
text once per record, and _framed puts the schema version and kind in
front of it: that one string is both the hashed text (with its closing
brace) and the start of the line, which the hash ends.  A record holds
the payload text as payload_text, and its payload is decoded from the
text on each read, so writing a record decodes nothing and the payload is
what the line decodes to.  to_json_line also takes a result object and
writes its line in that one pass, with no record built in between: the
line, and every error, are those of its record.
canonical_json dispatches on the exact type of each value; subclasses of
the JSON types and result objects take a slower path, which keeps a result
class's encoder once it has met the class.  Reading checks every line's
hash.  A line in the exact form to_json_line writes, whose payload is a
flat object of integers of at most 640 digits, booleans and nulls (a
search --out registry), is checked in place: one regular-expression match,
a check that its keys are distinct, and one sha256 over a slice of the
line; its payload text is canonical by its grammar, so nothing is decoded
or re-encoded, and json is not even imported.  Every other line is decoded
with json.loads and its payload re-encoded with canonical_json.
SHA-256 comes from the interpreter's builtin module (_sha2 from CPython
3.12, _sha256 before), not from hashlib: hashlib loads OpenSSL's libcrypto,
about 3.5 MB of every process's peak RSS and 2-3 ms of its start, for one
digest a line.  hashlib is the fallback on a build without those modules;
the digests are the same.
"""

from __future__ import annotations

import math
import re
import sys
from _json import encode_basestring_ascii as _quote  # json.encoder's, without json
from operator import itemgetter
from typing import NamedTuple

from .errors import DomainError

# the builtin module first, as random.py takes its sha512 (see the docstring)
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:  # a build without the builtin hashes
        from hashlib import sha256

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
    """canonical_json of a result object, or of a subclass of a JSON type.

    A result object is a tuple, so its encoder is sought first: the tuple
    base would write it as an array.
    """
    encode = _result_encoder(type(obj))
    if encode is not None:
        return encode(obj)
    for base in (str, int, float, dict, list, tuple):
        if isinstance(obj, base):
            return _ENCODERS[base](obj)
    raise DomainError(f"unsupported record value of type {type(obj).__name__}")


def _result_encoder(cls: type):
    """The encoder of a result class, made once and kept in _ENCODERS; None for other classes.

    A result class is a NamedTuple that declares record_kind (None when it
    has no record of its own, as for one nested in other records); its
    payload keys are its _fields, in order.  The encoder keeps each key
    quoted with its colon and pairs the keys with the object's values, in
    the same order; it does canonical_json's dispatch for each value
    itself, which saves a call per field.
    """
    if not hasattr(cls, "record_kind"):
        return None
    keys = [_quote(name) + ":" for name in cls._fields]
    encoder_of = _ENCODERS.get

    def encode(obj) -> str:
        return "{" + ",".join(
            [k + (encoder_of(type(v)) or _encode_other)(v) for k, v in zip(keys, obj)]
        ) + "}"

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
# record's schema version is SCHEMA_VERSION: the reader rejects any other.
_HEAD_START = {
    kind: '{"schema_version":' + _quote(SCHEMA_VERSION) + ',"kind":' + _quote(kind) + ',"payload":'
    for kind in RECORD_KINDS
}


def _check(kind, payload_is_object: bool) -> None:
    if not isinstance(kind, str) or kind not in RECORD_KINDS:
        raise DomainError(f"unknown record kind {kind!r}")
    if not payload_is_object:
        raise DomainError("record payload must be a JSON object")


def _framed(kind, payload):
    """A record's payload text, its hashed text up to the closing brace, and its content hash.

    The one framing of every record made here: make_record and to_json_line
    both take it, and _parse_decoded hashes by it.  It encodes the payload,
    then checks the kind and the payload as the record's constructor would;
    the full check runs only when the quick one fails, and then raises its
    error.
    """
    text = canonical_json(payload)
    if not (type(kind) is str and kind in _HEAD_START and text[:1] == "{"):
        _check(kind, text[:1] == "{")
    head = _HEAD_START[kind] + text
    return text, head, sha256((head + "}").encode("ascii")).hexdigest()


class CertificateRecord(NamedTuple("CertificateRecord", [
    ("kind", str),
    ("payload_text", str),
    ("content_hash", str),
])):
    """One record: kind, payload text and content hash.

    Its schema version is SCHEMA_VERSION, the only one read or written, so
    the line and the hashed text carry it and the record does not.
    payload_text is the canonical JSON of the payload, exactly as hashed
    and written; payload decodes it on each read.  The constructor checks
    the kind and that payload_text is a JSON object's text; it does not
    recompute the hash.  make_record and parse_record run that check
    themselves and build with _make, which skips it.
    """

    __slots__ = ()

    def __new__(cls, kind, payload_text, content_hash):
        _check(kind, isinstance(payload_text, str) and payload_text[:1] == "{")
        return super().__new__(cls, kind, payload_text, content_hash)

    @property
    def payload(self) -> dict:
        import json

        return json.loads(self.payload_text)


def make_record(kind: str, payload) -> CertificateRecord:
    """The record of a payload dict or result object; encoding validates its values."""
    text, _, content_hash = _framed(kind, payload)
    return CertificateRecord._make((kind, text, content_hash))


def _kind_of(obj) -> str:
    """The record kind of a module result object."""
    cls = type(obj)
    kind = getattr(cls, "record_kind", None)
    if kind is not None:
        return kind
    if hasattr(cls, "record_kind"):
        raise DomainError(f"{cls.__name__} is internal: it has no record of its own")
    raise DomainError(f"no record kind for {cls.__name__}")


def record_for(obj) -> CertificateRecord:
    """Wrap a module result object in its CertificateRecord."""
    return make_record(_kind_of(obj), obj)


def rejection_record(command: str, reasons, context: dict | None = None) -> CertificateRecord:
    payload = {"command": command, "reasons": list(reasons)}
    if context:
        payload.update(context)
    return make_record("rejection", payload)


def to_json_line(obj) -> str:
    """The line of a CertificateRecord or of a result object.

    A record's line is its framed payload text and its hash; nothing is
    encoded again.  A result object's line is built in one pass, with no
    record in between: one canonical_json walk, one string that is both the
    hashed text and the start of the line, and one sha256.  It is the line
    of record_for(obj), and raises what record_for(obj) raises.
    """
    if isinstance(obj, CertificateRecord):
        return (
            _HEAD_START[obj.kind] + obj.payload_text
            + ',"content_hash":' + _quote(obj.content_hash) + "}"
        )
    _, head, content_hash = _framed(_kind_of(obj), obj)
    # a hex digest needs no escaping
    return head + ',"content_hash":"' + content_hash + '"}'


# The four fields of a record line.  A line may hold other members, as older
# lines hold the time they were written; they are not read.
_LINE_FIELDS = ("schema_version", "kind", "payload", "content_hash")
_line_fields = itemgetter(*_LINE_FIELDS)

# A payload value the fast path reads in place: an integer of at most 640
# digits (the least int-string digit limit an interpreter can set), with no
# leading zero and no "-0", or a JSON literal.
_SCALAR = r"(?:0|-?[1-9][0-9]{0,639}|true|false|null)"
_MEMBER = r'"[a-z0-9_]+":' + _SCALAR

# A record line of canonical form whose payload holds only such values,
# ending in at most one "\n", as a line read from a file does: its groups
# are the kind, the payload text and the content hash.
_RECORD_LINE = (
    re.escape('{"schema_version":' + _quote(SCHEMA_VERSION) + ',"kind":')
    + r'"([a-z_]+)","payload":(\{(?:' + _MEMBER + "(?:," + _MEMBER + r")*)?\})"
    + r',"content_hash":"([0-9a-f]{64})"\}\n?'
)

# _RECORD_LINE's fullmatch, compiled on the first parse_record: importing
# the module compiles nothing.
_record_line = None


def parse_record(line: str) -> CertificateRecord:
    """Parse one record line and check its content hash.

    A line that fullmatches _RECORD_LINE, with a known kind and pairwise
    distinct payload keys, is read in place.  Its payload text is already
    canonical: json.loads gives each key back as written, each integer of
    at most 640 digits as an int whose repr is its text, and each literal as
    the object canonical_json writes back as that literal; distinct keys
    keep their order in the decoded dict.  So canonical_json of the decoded
    payload is the text itself, the hash over the line's head and payload
    text is the one the general path computes, and the record is the one it
    builds.  Any other line, and a line whose hash does not match, goes to
    the general path, which decodes the line and gives its errors.  Both
    paths take a line with or without its final "\n" (json.loads skips the
    whitespace around a value), and give the same record.  The general
    path reads only the four members of _LINE_FIELDS, so a line that also
    holds the time it was written, as older files do, gives the record of
    the same line without it.
    """
    global _record_line
    if _record_line is None:
        _record_line = re.compile(_RECORD_LINE).fullmatch
    # bytes, and str subclasses, go to json.loads as before
    match = _record_line(line) if type(line) is str else None
    if match is not None:
        kind, text, content_hash = match.groups()
        keys = text.split('"')[1::2]
        if (
            kind in RECORD_KINDS
            and len(set(keys)) == len(keys)
            and sha256((line[: match.end(2)] + "}").encode("ascii")).hexdigest() == content_hash
        ):
            return CertificateRecord._make((kind, text, content_hash))
    return _parse_decoded(line)


def _parse_decoded(line) -> CertificateRecord:
    """parse_record's general path: decode the line, re-encode its payload, check the hash.

    json.loads yields only JSON-shaped values, and the hash check encodes
    the whole payload, so a value that cannot be serialized (NaN,
    Infinity) fails there with the encoder's DomainError.
    """
    import json

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
        schema_version, kind, payload, content_hash = _line_fields(raw)
    except KeyError:
        missing = set(_LINE_FIELDS) - set(raw)
        raise DomainError(f"record line missing fields {sorted(missing)}") from None
    if schema_version != SCHEMA_VERSION:
        raise DomainError(f"unsupported schema version {schema_version!r}")
    _check(kind, isinstance(payload, dict))
    try:
        text, _, expected = _framed(kind, payload)
    except RecursionError as exc:
        raise DomainError("record payload nests too deeply to encode") from exc
    if content_hash != expected:
        raise DomainError(f"content hash mismatch: stored {content_hash}, recomputed {expected}")
    return CertificateRecord._make((kind, text, content_hash))
