"""Property-based fuzzing of the root store format codecs.

Random trust configurations over a fixed certificate pool must survive
round trips through every format that can express them; formats that
cannot (bundles) must flatten deterministically.  The certdata
tokenizer must agree with its per-line reference on any document,
damaged or not.
"""

from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import (
    parse_authroot,
    parse_certdata,
    parse_jks,
    parse_pem_bundle,
    serialize_authroot,
    serialize_certdata,
    serialize_jks,
    serialize_pem_bundle,
)
from repro.formats import certdata
from repro.formats.certdata import (
    _CANONICAL_LINE,
    _octal_multiline,
    _parse_objects,
    _parse_octal,
    _RawObject,
)
from repro.formats.diagnostics import DiagnosticLog
from repro.store import TrustEntry, TrustLevel, TrustPurpose

# Purposes the wire formats can express.
_PURPOSES = (
    TrustPurpose.SERVER_AUTH,
    TrustPurpose.EMAIL_PROTECTION,
    TrustPurpose.CODE_SIGNING,
)

_trust_maps = st.dictionaries(
    st.sampled_from(_PURPOSES),
    st.sampled_from((TrustLevel.TRUSTED, TrustLevel.DISTRUSTED)),
    min_size=1,
    max_size=3,
)

_distrust_dates = st.one_of(
    st.none(),
    st.datetimes(
        min_value=datetime(2015, 1, 1), max_value=datetime(2024, 1, 1)
    ).map(lambda d: d.replace(microsecond=0, second=0, tzinfo=timezone.utc)),
)


@pytest.fixture(scope="module")
def cert_pool(sample_certs):
    return sample_certs


def _entries(cert_pool, configs):
    entries = []
    for cert, (trust, distrust_after) in zip(cert_pool, configs):
        entries.append(
            TrustEntry(
                certificate=cert,
                trust=tuple(trust.items()),
                distrust_after=distrust_after,
            )
        )
    return entries


class TestCertdataFuzz:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(_trust_maps, _distrust_dates), min_size=1, max_size=3, unique_by=lambda t: id(t)))
    def test_roundtrip(self, cert_pool, configs):
        entries = _entries(cert_pool, configs)
        parsed = parse_certdata(serialize_certdata(entries))
        assert parsed == sorted(entries, key=lambda e: e.fingerprint)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(_trust_maps, _distrust_dates), min_size=1, max_size=3))
    def test_idempotent(self, cert_pool, configs):
        entries = _entries(cert_pool, configs)
        once = serialize_certdata(entries)
        twice = serialize_certdata(parse_certdata(once))
        assert once == twice


class TestAuthrootFuzz:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(_trust_maps, _distrust_dates), min_size=1, max_size=3))
    def test_roundtrip(self, cert_pool, configs):
        entries = _entries(cert_pool, configs)
        artifact = serialize_authroot(
            entries,
            sequence_number=7,
            this_update=datetime(2020, 1, 1, tzinfo=timezone.utc),
        )
        parsed = parse_authroot(artifact)
        assert parsed == sorted(entries, key=lambda e: e.fingerprint)


class TestJksFuzz:
    @settings(max_examples=20, deadline=None)
    @given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=24))
    def test_arbitrary_passwords(self, cert_pool, password):
        entries = [TrustEntry.make(c) for c in cert_pool]
        data = serialize_jks(entries, password=password)
        parsed = parse_jks(data, password=password)
        assert {e.certificate for e in parsed} == set(cert_pool)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_corruption_detected(self, cert_pool, position_seed):
        entries = [TrustEntry.make(c) for c in cert_pool]
        data = bytearray(serialize_jks(entries))
        position = position_seed % (len(data) - 20)  # never the digest itself
        data[position] ^= 0x01
        from repro.errors import FormatError

        with pytest.raises(FormatError):
            parse_jks(bytes(data))


class TestBundleFuzz:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(["", "# noise", "random prose", "\t"]), max_size=8))
    def test_noise_tolerant(self, cert_pool, noise_lines):
        entries = [TrustEntry.make(c) for c in cert_pool]
        bundle = serialize_pem_bundle(entries)
        noisy = "\n".join(noise_lines) + "\n" + bundle + "\n".join(noise_lines)
        parsed = parse_pem_bundle(noisy)
        assert {e.certificate for e in parsed} == set(cert_pool)


def _reference_parse_objects(text, *, lenient=False, log=None):
    """The per-line certdata tokenizer: the oracle for ``_parse_objects``.

    Every blob line goes through :func:`_parse_octal` and the blob ends
    at the first line that strips to ``END``.  ``_parse_objects`` must
    agree with it on objects, errors and diagnostics for any input.
    """
    objects = []
    current = None
    lines = text.splitlines()
    index = 0
    began = False
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
            blob_lines = []
            while index < len(lines) and lines[index].strip() != "END":
                blob_lines.append(lines[index])
                index += 1
            if index >= len(lines):
                if not lenient:
                    raise FormatError(f"unterminated MULTILINE_OCTAL for {attr}")
                if log is not None:
                    log.record(f"certdata {attr}", f"unterminated MULTILINE_OCTAL for {attr}")
                break
            index += 1
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


#: Escapes ``int(..., 8)`` accepts but the certdata grammar does not,
#: plus plain garbage.
_BAD_ESCAPES = (
    "\\0o17", "\\1_0", "\\ 17", "\\0012", "\\400", "\\9", "\\", "x\\101", "\\+7", "\\12\\"
)


#: How ``_blob_lines`` may damage a blob ("none" twice: half stay canonical).
_BLOB_DAMAGE = (
    "none",
    "none",
    "stray_end",
    "bad_escape",
    "whitespace",
    "short_escape",
    "split",
    "noise",
    "truncate",
)


@st.composite
def _blob_lines(draw):
    """One MULTILINE_OCTAL blob's lines, canonical or damaged."""
    data = draw(st.binary(max_size=80))
    per_line = draw(st.integers(min_value=1, max_value=24))
    lines = _octal_multiline(data, per_line=per_line).split("\n") if data else []
    damage = draw(st.sampled_from(_BLOB_DAMAGE))
    at = draw(st.integers(min_value=0, max_value=len(lines)))
    if damage == "stray_end":
        lines.insert(at, draw(st.sampled_from(("END ", " END", "\tEND\t", "END  "))))
    elif damage == "bad_escape":
        lines.insert(at, draw(st.sampled_from(_BAD_ESCAPES)))
    elif damage == "noise":
        lines.insert(at, draw(st.text(alphabet="\\0123789 \tEND", max_size=12)))
    elif damage in ("whitespace", "split") and lines:
        at = min(at, len(lines) - 1)
        cut = draw(st.integers(min_value=0, max_value=len(lines[at])))
        head, tail = lines[at][:cut], lines[at][cut:]
        if damage == "whitespace":
            lines[at] = head + draw(st.sampled_from((" ", "\t", "  "))) + tail
        else:
            # A line break inside an escape: "\\10" + "1\\102" is not "\\101\\102".
            lines[at : at + 1] = [head, tail]
    elif damage == "short_escape":
        # \012 -> \12: valid, but not what the writer emits.
        lines = [line.replace("\\0", "\\", 1) for line in lines]
    end = [] if damage == "truncate" else [draw(st.sampled_from(("END", "END", " END ")))]
    return lines + end


@st.composite
def _certdata_documents(draw):
    """A certdata document of random objects, blobs and stray lines."""
    out = ["# header", "BEGINDATA"]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        out.append("CKA_CLASS CK_OBJECT_CLASS CKO_CERTIFICATE")
        for number in range(draw(st.integers(min_value=0, max_value=3))):
            kind = draw(st.sampled_from(("blob", "blob", "utf8", "malformed")))
            if kind == "blob":
                out.append(f"CKA_BLOB{number} MULTILINE_OCTAL")
                out.extend(draw(_blob_lines()))
            elif kind == "utf8":
                out.append(f'CKA_LABEL UTF8 "label {number}"')
            else:
                out.append("CKA_ALONE")
        out.append("")
    return "\n".join(out) + draw(st.sampled_from(("\n", "", "\r\n")))


def _tokenize(parse, text, lenient):
    """(objects, error, diagnostics) of one tokenizer run."""
    log = DiagnosticLog()
    try:
        objects = parse(text, lenient=lenient, log=log)
    except FormatError as exc:
        return None, str(exc), log.as_dicts()
    return [obj.attributes for obj in objects], None, log.as_dicts()


class TestCertdataTokenizer:
    @settings(max_examples=300, deadline=None)
    @given(_certdata_documents(), st.booleans())
    def test_matches_per_line_reference(self, text, lenient):
        assert _tokenize(_parse_objects, text, lenient) == _tokenize(
            _reference_parse_objects, text, lenient
        )

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=300), st.integers(min_value=1, max_value=40))
    def test_canonical_blobs_decode_exactly(self, data, per_line):
        text = f"BEGINDATA\nCKA_VALUE MULTILINE_OCTAL\n{_octal_multiline(data, per_line)}\nEND\n"
        (obj,) = _parse_objects(text)
        assert obj.blob("CKA_VALUE") == data

    @pytest.mark.parametrize("escape", _BAD_ESCAPES)
    def test_non_octal_escapes_rejected(self, escape):
        text = f"BEGINDATA\nCKA_VALUE MULTILINE_OCTAL\n{escape}\nEND\n"
        with pytest.raises(FormatError, match="bad octal escape"):
            _parse_objects(text)
        log = DiagnosticLog()
        assert _parse_objects(text, lenient=True, log=log) == []
        assert [d.error_class for d in log] == ["FormatError"]

    def test_fallback_blobs_stay_linear(self, monkeypatch):
        """Blobs ending in a padded ``END `` fall back one by one; the fast
        path must neither rescan nor re-check the lines up to the one
        exact END far below them."""
        checked = []

        class _CountingLine:
            def fullmatch(self, line):
                checked.append(line)
                return _CANONICAL_LINE.fullmatch(line)

        class _CountingLines(list):
            scanned = 0

            def index(self, value, start=0, *args):
                try:
                    found = super().index(value, start, *args)
                except ValueError:
                    _CountingLines.scanned += len(self) - start
                    raise
                _CountingLines.scanned += found - start
                return found

        class _Document(str):
            def splitlines(self, keepends=False):
                return _CountingLines(super().splitlines(keepends))

        blobs = 2_000
        body = "".join(
            f"CKA_BLOB{number} MULTILINE_OCTAL\n\\101\\102\nEND \n" for number in range(blobs)
        )
        text = f"BEGINDATA\n{body}CKA_LAST MULTILINE_OCTAL\n\\103\nEND\n"
        monkeypatch.setattr(certdata, "_CANONICAL_LINE", _CountingLine())
        assert _tokenize(_parse_objects, _Document(text), False) == _tokenize(
            _reference_parse_objects, text, False
        )
        line_count = len(text.splitlines())
        assert len(checked) <= line_count
        assert _CountingLines.scanned <= line_count
