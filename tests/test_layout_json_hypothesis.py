"""Byte-equality of ``LayoutParser.layout_jsons`` (one native call per batch,
JSON from one format string) with ``json.dumps(parse(ref), sort_keys=True)``
of the pure parser: refs that need JSON escaping, non-PDF refs, odd model
names, and PDFs whose span text is not valid UTF-8. Without a compiler both
sides are the pure parser and these tests skip.
"""

from __future__ import annotations

import json
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from html_parser_ray.extract.layout import PDF_REF_PREFIX, LayoutParser
from html_parser_ray.functions.pdfcodec import encode_pdf, synth_pdf
from html_parser_ray.native import get_native_pdf_summary

_NATIVE = get_native_pdf_summary()
pytestmark = pytest.mark.skipif(
    _NATIVE is None, reason="native PDF kernel unavailable (no compiler / zlib)"
)

_ODD_CHARS = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é", "☃", " ", "😀", "𝄞"]
# no lone surrogates: an Arrow string column cannot hold one
_TEXT = st.text(
    st.one_of(
        st.sampled_from(_ODD_CHARS),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
_REFS = st.one_of(
    st.just(PDF_REF_PREFIX),
    _TEXT.map(lambda t: PDF_REF_PREFIX + t),
    _TEXT.map(lambda t: "media://img/" + t),
    _TEXT,
)
# span byte pieces: arbitrary bytes plus invalid or truncated UTF-8
_PIECES = st.one_of(
    st.binary(max_size=6),
    st.sampled_from(
        [b"\xff", b"\xe2\x82", b"\xe2\x82\xac", b"\xf0\x9f\x98", b"abc\xc3", b"\n", b"\xc3\xa9"]
    ),
)
_SPANS = st.lists(st.lists(_PIECES, max_size=4).map(b"".join), max_size=5)


def _pdf_string(span: bytes) -> bytes:
    """``span`` as a PDF literal string: high bytes and ``( ) \\`` as
    ``\\ooo`` octal escapes, everything else raw."""
    return b"(" + b"".join(
        b"\\%03o" % c if c >= 0x80 or c in b"()\\" else bytes([c]) for c in span
    ) + b")"


def _pdf_of_spans(spans: "list[bytes]") -> bytes:
    content = b"BT " + b" ".join(_pdf_string(s) + b" Tj" for s in spans) + b" ET"
    return encode_pdf([{"raw_stream": (zlib.compress(content), True)}])


def _parsers(model: str, payloads: "dict[str, bytes]"):
    """The batch parser under test and the pure oracle, both fetching
    ``payloads[ref]`` where given and the synthetic PDF otherwise."""

    def fetch(ref: str) -> bytes:
        return payloads[ref] if ref in payloads else synth_pdf(ref)

    fast, pure = LayoutParser(model), LayoutParser(model)
    pure._native = None
    fast._fetch = pure._fetch = fetch
    return fast, pure


def _expected(parser: LayoutParser, refs: "list[str]") -> "list[bytes]":
    return [json.dumps(parser.parse(r), sort_keys=True).encode() for r in refs]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    refs=st.lists(_REFS, max_size=8),
    model=st.one_of(st.just("layout-stub-v0"), _TEXT),
    span_lists=st.lists(_SPANS, max_size=4),
)
def test_layout_jsons_equal_json_dumps_of_parse(refs, model, span_lists):
    pdf_refs = [r for r in refs if r.startswith(PDF_REF_PREFIX)]
    payloads = {r: _pdf_of_spans(s) for r, s in zip(pdf_refs, span_lists)}
    fast, pure = _parsers(model, payloads)
    assert fast.layout_jsons(refs)[0] == _expected(pure, refs)


def test_invalid_utf8_span_text_takes_the_native_path():
    """Octal ``\\377`` and a multi-byte sequence cut at a span's end: the
    kernel accepts the PDF, and decoding its joined text once equals the
    oracle's decode-each-span-then-join."""
    spans = [b"\xff", b"ab\xe2\x82", b"\xac", b"\xf0\x9f\x98", b"", b"\xe2\x82\xac\n"]
    ref = PDF_REF_PREFIX + 'odd "ref" \\ 😀'
    payload = _pdf_of_spans(spans)
    assert _NATIVE([payload])[0] is not None
    fast, pure = _parsers("model \"x\" é", {ref: payload})
    refs = [ref, "media://img/1", PDF_REF_PREFIX + "000001"]
    assert fast.layout_jsons(refs) == (_expected(pure, refs), 0)
