"""NSS ``certdata.txt`` reader/writer (PKCS#11 object text format).

``certdata.txt`` is a line-oriented serialization of PKCS#11 objects.
Two object classes matter for root stores:

- ``CKO_CERTIFICATE`` objects carry the raw DER (``CKA_VALUE``) plus
  extracted fields (label, issuer, serial).
- ``CKO_NSS_TRUST`` objects carry the trust context: per-purpose trust
  levels (``CKA_TRUST_SERVER_AUTH`` et al.), identified by SHA-1/MD5
  hashes and issuer+serial, and — since NSS 3.53 — the partial-distrust
  attribute ``CKA_NSS_SERVER_DISTRUST_AFTER``.

This module implements a faithful subset of the grammar used by the
real file: typed attribute lines, ``MULTILINE_OCTAL`` blobs, comments,
and the trust constant vocabulary.  Output parses back byte-identically
(modulo the free-text header comment).
"""

from __future__ import annotations

import codecs
import hashlib
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone

from repro.errors import FormatError
from repro.formats.diagnostics import DiagnosticLog, salvage
from repro.obs.instrument import instrumented_codec
from repro.store.entry import TrustEntry
from repro.store.purposes import TrustLevel, TrustPurpose
from repro.x509.certificate import Certificate

#: CKA_TRUST_* attribute name per purpose.
_PURPOSE_ATTRS: dict[TrustPurpose, str] = {
    TrustPurpose.SERVER_AUTH: "CKA_TRUST_SERVER_AUTH",
    TrustPurpose.CLIENT_AUTH: "CKA_TRUST_CLIENT_AUTH",
    TrustPurpose.EMAIL_PROTECTION: "CKA_TRUST_EMAIL_PROTECTION",
    TrustPurpose.CODE_SIGNING: "CKA_TRUST_CODE_SIGNING",
}
_ATTR_PURPOSES = {attr: purpose for purpose, attr in _PURPOSE_ATTRS.items()}

_LEVEL_CONSTANTS: dict[TrustLevel, str] = {
    TrustLevel.TRUSTED: "CKT_NSS_TRUSTED_DELEGATOR",
    TrustLevel.MUST_VERIFY: "CKT_NSS_MUST_VERIFY_TRUST",
    TrustLevel.DISTRUSTED: "CKT_NSS_NOT_TRUSTED",
}
_CONSTANT_LEVELS = {constant: level for level, constant in _LEVEL_CONSTANTS.items()}

_HEADER = """\
#
# Certificate "trust anchors" database --- synthesized by repro.formats.certdata
#
# This file follows the layout of Mozilla NSS certdata.txt: a list of
# PKCS#11 objects, each a block of attribute lines terminated by a blank
# line.  CKO_CERTIFICATE objects carry certificate DER; CKO_NSS_TRUST
# objects carry the trust context.
#
BEGINDATA
"""


def _octal_multiline(data: bytes, per_line: int = 16) -> str:
    """Render bytes in certdata's backslash-octal MULTILINE_OCTAL form."""
    lines = []
    for start in range(0, len(data), per_line):
        chunk = data[start : start + per_line]
        lines.append("".join(f"\\{byte:03o}" for byte in chunk))
    return "\n".join(lines)


#: One octal escape as ``_parse_octal`` accepts it: 1-3 octal digits.
_OCTAL_ESCAPE = re.compile(r"[0-7]{1,3}")
#: One line of a canonical blob, as :func:`_octal_multiline` writes it.
_CANONICAL_LINE = re.compile(r"(?:\\[0-3][0-7]{2})*")


def _parse_octal(lines: list[str]) -> bytes:
    r"""Parse backslash-octal lines back into bytes.

    Each line, stripped, must be a run of escapes of 1-3 octal digits
    with a value of at most 0o377.  Anything else -- text outside an
    escape, an empty escape, or forms ``int(..., 8)`` would accept such
    as ``\0o17``, ``\1_0``, ``\ 17`` or ``\0012`` -- is a
    :class:`FormatError`.
    """
    out = bytearray()
    for line in lines:
        head, *escapes = line.strip().split("\\")
        if head:
            raise FormatError(f"bad octal escape {head!r} in certdata")
        for part in escapes:
            value = int(part, 8) if _OCTAL_ESCAPE.fullmatch(part) else None
            if value is None or value > 0o377:
                raise FormatError(f"bad octal escape {part!r} in certdata")
            out.append(value)
    return bytes(out)


def _decode_canonical(lines: list[str], start: int, end: int) -> bytes | None:
    r"""Decode ``lines[start:end]`` in C when it is canonical, else return None.

    Canonical is what :func:`_octal_multiline` writes: every line
    matches ``(?:\\[0-3][0-7]{2})*``.  Lines are checked one at a time
    and the check stops at the first that fails, so a blob that is not
    canonical costs no more than the lines before its own end.
    """
    match = _CANONICAL_LINE.fullmatch
    for index in range(start, end):
        if match(lines[index]) is None:
            return None
    return codecs.escape_decode("".join(lines[start:end]).encode("ascii"))[0]


def _distrust_timestamp(moment: datetime) -> bytes:
    """NSS encodes distrust-after as an ASCII "YYMMDDHHMMSSZ" blob."""
    return moment.astimezone(timezone.utc).strftime("%y%m%d%H%M%SZ").encode("ascii")


def _parse_distrust_timestamp(blob: bytes) -> datetime:
    text = blob.decode("ascii")
    parsed = datetime.strptime(text, "%y%m%d%H%M%SZ")
    if parsed.year >= 2050:
        parsed = parsed.replace(year=parsed.year - 100)
    return parsed.replace(tzinfo=timezone.utc)


def serialize_certdata(entries: list[TrustEntry]) -> str:
    """Render trust entries as a complete ``certdata.txt`` document."""
    chunks = [_HEADER]
    for entry in sorted(entries, key=lambda e: e.fingerprint):
        cert = entry.certificate
        label = cert.subject.common_name or cert.subject.rfc4514()
        issuer_der = cert.issuer.encode()
        serial_der = _serial_der(cert)

        chunks.append("# Certificate object\n")
        chunks.append("CKA_CLASS CK_OBJECT_CLASS CKO_CERTIFICATE\n")
        chunks.append("CKA_TOKEN CK_BBOOL CK_TRUE\n")
        chunks.append("CKA_PRIVATE CK_BBOOL CK_FALSE\n")
        chunks.append("CKA_MODIFIABLE CK_BBOOL CK_FALSE\n")
        chunks.append(f'CKA_LABEL UTF8 "{label}"\n')
        chunks.append("CKA_CERTIFICATE_TYPE CK_CERTIFICATE_TYPE CKC_X_509\n")
        chunks.append(_blob("CKA_SUBJECT", cert.subject.encode()))
        chunks.append(_blob("CKA_ID", b"0"))
        chunks.append(_blob("CKA_ISSUER", issuer_der))
        chunks.append(_blob("CKA_SERIAL_NUMBER", serial_der))
        chunks.append(_blob("CKA_VALUE", cert.der))
        chunks.append("\n")

        chunks.append("# Trust object\n")
        chunks.append("CKA_CLASS CK_OBJECT_CLASS CKO_NSS_TRUST\n")
        chunks.append("CKA_TOKEN CK_BBOOL CK_TRUE\n")
        chunks.append("CKA_PRIVATE CK_BBOOL CK_FALSE\n")
        chunks.append("CKA_MODIFIABLE CK_BBOOL CK_FALSE\n")
        chunks.append(f'CKA_LABEL UTF8 "{label}"\n')
        chunks.append(_blob("CKA_CERT_SHA1_HASH", hashlib.sha1(cert.der).digest()))
        chunks.append(_blob("CKA_CERT_MD5_HASH", hashlib.md5(cert.der).digest()))
        chunks.append(_blob("CKA_ISSUER", issuer_der))
        chunks.append(_blob("CKA_SERIAL_NUMBER", serial_der))
        if entry.distrust_after is not None:
            chunks.append(
                _blob("CKA_NSS_SERVER_DISTRUST_AFTER", _distrust_timestamp(entry.distrust_after))
            )
        else:
            chunks.append("CKA_NSS_SERVER_DISTRUST_AFTER CK_BBOOL CK_FALSE\n")
        trust_map = entry.trust_map
        for purpose, attr in _PURPOSE_ATTRS.items():
            level = trust_map.get(purpose)
            constant = _LEVEL_CONSTANTS[level] if level else "CKT_NSS_MUST_VERIFY_TRUST"
            chunks.append(f"{attr} CK_TRUST {constant}\n")
        chunks.append("CKA_TRUST_STEP_UP_APPROVED CK_BBOOL CK_FALSE\n")
        chunks.append("\n")
    return "".join(chunks)


def _serial_der(cert: Certificate) -> bytes:
    from repro.asn1 import encode_integer

    return encode_integer(cert.serial_number)


def _blob(attr: str, data: bytes) -> str:
    return f"{attr} MULTILINE_OCTAL\n{_octal_multiline(data)}\nEND\n"


@dataclass
class _RawObject:
    """One parsed PKCS#11 object: attribute name -> (type, value)."""

    attributes: dict[str, tuple[str, object]] = field(default_factory=dict)

    @property
    def object_class(self) -> str | None:
        entry = self.attributes.get("CKA_CLASS")
        return str(entry[1]) if entry else None

    def blob(self, attr: str) -> bytes | None:
        entry = self.attributes.get(attr)
        if entry and entry[0] == "MULTILINE_OCTAL":
            assert isinstance(entry[1], bytes)
            return entry[1]
        return None

    def text(self, attr: str) -> str | None:
        entry = self.attributes.get(attr)
        if entry and entry[0] == "UTF8":
            return str(entry[1])
        return None


def _parse_objects(
    text: str,
    *,
    lenient: bool = False,
    log: DiagnosticLog | None = None,
) -> list[_RawObject]:
    """Tokenize certdata text into raw PKCS#11 objects.

    In lenient mode, malformed attribute lines and bad octal blobs are
    dropped (the enclosing object keeps its healthy attributes) and an
    unterminated MULTILINE_OCTAL ends tokenization with whatever was
    assembled so far.
    """
    objects: list[_RawObject] = []
    current: _RawObject | None = None
    lines = text.splitlines()
    index = 0
    began = False
    next_end = -1  # position of the next exact END line, once searched
    while index < len(lines):
        line = lines[index].rstrip()
        index += 1
        if not line or line.startswith("#"):
            if not line and current is not None and current.attributes:
                objects.append(current)
                current = None
            continue
        if line == "BEGINDATA":
            began = True
            continue
        if not began:
            continue
        parts = line.split(None, 2)
        if len(parts) < 2:
            if not lenient:
                raise FormatError(f"malformed certdata line: {line!r}")
            if log is not None:
                log.record(f"certdata line {index}", f"malformed certdata line: {line!r}")
            continue
        attr, attr_type = parts[0], parts[1]
        if current is None:
            current = _RawObject()
        if attr_type == "MULTILINE_OCTAL":
            # Fast path: the blob runs to the next exact END and every
            # line before it is canonical, so it decodes in C.  Any other
            # line (whitespace, short or bad escapes, a padded " END ")
            # sends the blob down the per-line path, which decides where
            # it ends and what it decodes to.  The next exact END is
            # searched for only once it is behind us, so blobs that fall
            # back do not rescan the lines up to it.
            if next_end < index:
                try:
                    next_end = lines.index("END", index)
                except ValueError:
                    next_end = len(lines)  # none left for any later blob either
            if next_end < len(lines):
                blob = _decode_canonical(lines, index, next_end)
                if blob is not None:
                    index = next_end + 1  # consume END
                    current.attributes[attr] = ("MULTILINE_OCTAL", blob)
                    continue
            end = index
            while end < len(lines) and lines[end].strip() != "END":
                end += 1
            if end >= len(lines):
                if not lenient:
                    raise FormatError(f"unterminated MULTILINE_OCTAL for {attr}")
                if log is not None:
                    log.record(f"certdata {attr}", f"unterminated MULTILINE_OCTAL for {attr}")
                break
            blob_lines = lines[index:end]
            index = end + 1  # consume END
            try:
                current.attributes[attr] = ("MULTILINE_OCTAL", _parse_octal(blob_lines))
            except FormatError as exc:
                if not lenient:
                    raise
                if log is not None:
                    log.record(f"certdata {attr}", exc)
        elif attr_type == "UTF8":
            value = parts[2] if len(parts) > 2 else '""'
            current.attributes[attr] = ("UTF8", value.strip('"'))
        else:
            value = parts[2] if len(parts) > 2 else ""
            current.attributes[attr] = (attr_type, value)
    if current is not None and current.attributes:
        objects.append(current)
    return objects


@instrumented_codec("certdata")
def parse_certdata(
    text: str,
    *,
    lenient: bool = False,
    diagnostics: DiagnosticLog | None = None,
) -> list[TrustEntry]:
    """Parse a ``certdata.txt`` document into trust entries.

    Certificates and trust objects are joined on the SHA-1 hash (the
    same join NSS itself performs).  A certificate without a trust
    object is ignored; a trust object without a certificate is an error
    because this library always emits both.

    In lenient mode an individually malformed object (bad DER, missing
    hash, unknown trust constant, broken distrust timestamp) is skipped
    and recorded instead of failing the document.
    """
    certificates: dict[bytes, Certificate] = {}
    trust_objects: list[_RawObject] = []
    for number, obj in enumerate(_parse_objects(text, lenient=lenient, log=diagnostics)):
        cls = obj.object_class
        if cls == "CKO_CERTIFICATE":
            with salvage(lenient, diagnostics, f"certdata certificate object #{number}"):
                der = obj.blob("CKA_VALUE")
                if der is None:
                    raise FormatError("certificate object without CKA_VALUE")
                cert = Certificate.from_der(der)
                certificates[hashlib.sha1(der).digest()] = cert
        elif cls == "CKO_NSS_TRUST":
            trust_objects.append(obj)

    entries: list[TrustEntry] = []
    for number, obj in enumerate(trust_objects):
        with salvage(lenient, diagnostics, f"certdata trust object #{number}"):
            sha1 = obj.blob("CKA_CERT_SHA1_HASH")
            if sha1 is None:
                raise FormatError("trust object without CKA_CERT_SHA1_HASH")
            cert = certificates.get(sha1)
            if cert is None:
                raise FormatError(
                    f"trust object references unknown certificate sha1={sha1.hex()}"
                )
            trust: dict[TrustPurpose, TrustLevel] = {}
            for attr, purpose in _ATTR_PURPOSES.items():
                entry = obj.attributes.get(attr)
                if entry is None:
                    continue
                constant = str(entry[1])
                level = _CONSTANT_LEVELS.get(constant)
                if level is None:
                    raise FormatError(f"unknown trust constant {constant!r} for {attr}")
                if level is not TrustLevel.MUST_VERIFY:
                    trust[purpose] = level
            distrust_after = None
            blob = obj.blob("CKA_NSS_SERVER_DISTRUST_AFTER")
            if blob is not None:
                distrust_after = _parse_distrust_timestamp(blob)
            entries.append(
                TrustEntry(
                    certificate=cert,
                    trust=tuple(trust.items()),
                    distrust_after=distrust_after,
                )
            )
    entries.sort(key=lambda e: e.fingerprint)
    return entries
