"""Parity of the native PDF layout-summary kernel (native/pdf_summary.c)
with the pure-Python parser (functions/pdfcodec.parse_pdf) — same discipline
as the fused-extract kernel: the Python path is the semantics, the C path
must be byte-identical wherever it claims success, and must decline (None)
rather than guess everywhere else. The kernel is one call per batch of
payloads; each payload's result must not depend on its batch."""

from __future__ import annotations

import ctypes
import random
import threading
import zlib

import pytest

from html_parser_ray.functions.pdfcodec import encode_pdf, parse_pdf, synth_pdf
from html_parser_ray.native import get_native_pdf_summary

native = get_native_pdf_summary()

pytestmark = pytest.mark.skipif(
    native is None, reason="no C toolchain / zlib in this environment"
)


def summary_from_pure(payload: bytes):
    doc = parse_pdf(payload)
    texts = [t[3] for pg in doc["pages"] for t in pg["texts"]]
    rects = sum(len(pg["rects"]) for pg in doc["pages"])
    return doc["num_pages"], texts, rects


def folded(summary):
    """A pure summary in the kernel's shape: the span texts joined with
    "\\n", after a per-span ``decode("utf-8", "replace")``."""
    num_pages, texts, rects = summary
    return num_pages, len(texts), rects, "\n".join(texts)


def from_native(res):
    if res is None:
        return None
    num_pages, n_spans, n_rects, text = res
    return num_pages, n_spans, n_rects, text.decode("utf-8", "replace")


def summary_from_native(payload: bytes):
    return from_native(native([payload])[0])


def assert_parity(payload: bytes):
    got = summary_from_native(payload)
    assert got is not None, "native declined a well-formed writer PDF"
    assert got == folded(summary_from_pure(payload))


def test_synth_corpus_parity():
    for i in range(400):
        assert_parity(synth_pdf(f"media://pdf/{i * 257 % 100000:06d}"))


def _random_pages(rng, specials, words):
    pages = []
    for _ in range(rng.randint(1, 4)):
        texts = []
        for _ in range(rng.randint(0, 6)):
            t = "".join(
                rng.choice(specials if rng.random() < 0.4 else words)
                for _ in range(rng.randint(0, 8))
            )
            texts.append(
                (rng.randint(0, 600), rng.randint(0, 800),
                 rng.randint(6, 48), t)
            )
        rects = [
            tuple(rng.randint(0, 500) for _ in range(4))
            for _ in range(rng.randint(0, 3))
        ]
        pages.append({"texts": texts, "rects": rects})
    return pages


def test_structured_random_parity():
    rng = random.Random(1234)
    specials = ["(", ")", "\\", "\n", "\t", "\x00", "é", "☃", "\\n",
                "\\101", "]", "[", "Tj", "TJ", "re"]
    words = ["alpha", "beta", "gamma", " ", ""]
    for trial in range(120):
        payload = encode_pdf(
            _random_pages(rng, specials, words),
            compress=bool(rng.getrandbits(1)),
        )
        assert_parity(payload)


def test_adversarial_bait_decline_or_parity():
    """Strings containing structural keywords (endobj/stream/xref) can
    truncate object bodies in BOTH parsers (the Python scan slices short and
    limps; the C path declines). Contract: native either matches the pure
    result exactly or returns None — never a divergent success."""
    rng = random.Random(99)
    specials = ["endobj", "endstream", "stream", "xref", "startxref",
                "0 obj", "(", "\\", ")"]
    words = ["alpha", " "]
    declined = 0
    for trial in range(60):
        payload = encode_pdf(
            _random_pages(rng, specials, words),
            compress=bool(rng.getrandbits(1)),
        )
        got = summary_from_native(payload)
        if got is None:
            declined += 1
            continue
        try:
            exp = summary_from_pure(payload)
        except Exception:
            pytest.fail("native succeeded where the pure parser errored")
        assert got == folded(exp)
    # the fast path must not decline everything: compressed streams hide
    # the bait, so a healthy majority still succeeds
    assert declined < 45


def test_multi_contents_and_tj_arrays_via_raw_stream():
    # writer-shaped xref but hand-authored operator streams: TJ arrays,
    # octal escapes, re without rect context, bait keywords inside strings
    c1 = b"BT /F1 11 Tf 10 20 Td [(ab) -120 (cd) 3 (e\\)f)] TJ ET"
    c2 = b"BT 5 6 Td (\\101\\102) Tj ET 7 8 9 10 re S (bait ] re) Tj"
    for compress in (False, True):
        pages = [
            {"raw_stream": ((zlib.compress(c1), True) if compress else (c1, False))},
            {"raw_stream": ((zlib.compress(c2), True) if compress else (c2, False))},
        ]
        assert_parity(encode_pdf(pages, compress=compress))


# structurally valid objects but NO xref -> native declines, pure parses
XREFLESS = (
    b"%PDF-1.7\n"
    b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n"
    b"2 0 obj\n<< /Type /Pages /Kids [3 0 R] /Count 1 >>\nendobj\n"
    b"3 0 obj\n<< /Type /Page /Parent 2 0 R /Contents 4 0 R >>\nendobj\n"
    b"4 0 obj\n<< /Length 24 >>\nstream\nBT 1 2 Td (hello) Tj ET\nendstream\nendobj\n"
    b"trailer\n<< /Size 5 /Root 1 0 R >>\n%%EOF\n"
)


def test_native_declines_corrupt_and_xrefless():
    assert native([b"not a pdf"]) == [None]
    assert native([b"%PDF-1.4\nno objects here"]) == [None]
    assert native([XREFLESS]) == [None]
    assert summary_from_pure(XREFLESS)[1] == ["hello"]


def _truncated_xref() -> bytes:
    p = bytearray(synth_pdf("media://pdf/000042"))
    # corrupt the first in-use entry's offset digits -> the offset no longer
    # points at an object header
    i = p.rfind(b"\nxref\n")
    j = p.find(b" 00000 n \n", i)
    assert j > 0
    p[j - 10 : j] = b"9999999999"
    return bytes(p)


def test_truncated_xref_offsets_decline():
    assert native([_truncated_xref()]) == [None]


def test_layout_parser_native_equals_pure_dicts():
    import json

    from html_parser_ray.extract.layout import LayoutParser

    nat = LayoutParser()
    pure = LayoutParser()
    pure._native = None
    refs = [f"media://pdf/{i * 997 % 100000:06d}" for i in range(60)]
    want = [json.dumps(pure.parse(r), sort_keys=True).encode() for r in refs]
    assert nat.layout_jsons(refs) == (want, 0)


def test_declined_refs_are_fetched_once_and_counted():
    """A PDF ref the kernel declines is parsed in Python from the payload
    already fetched for the batch (one fetch per ref), its JSON equals the
    pure parser's, and the extractor counts the decline once."""
    import json

    from html_parser_ray.extract.extractor import SpanExtractor
    from html_parser_ray.extract.layout import LayoutParser

    payloads = {
        "media://pdf/xrefless": XREFLESS,
        "media://pdf/corrupt": b"not a pdf",
        "media://pdf/array": _array_contents(),
        "media://pdf/000042": synth_pdf("media://pdf/000042"),
    }
    fetched: "list[str]" = []

    def fetch(ref: str) -> bytes:
        fetched.append(ref)
        return payloads[ref]

    pure = LayoutParser()
    pure._fetch = payloads.__getitem__
    refs = list(payloads) + ["media://img/1"]
    want = [json.dumps(pure.parse(r), sort_keys=True).encode() for r in refs]
    ex = SpanExtractor()
    ex.layout._fetch = fetch
    assert ex.layout_jsons(refs) == want
    assert fetched == list(payloads)
    st = ex.stats
    assert (st.layout_decodes, st.layout_native_declined) == (5, 3)


def _assemble(objs: "list[bytes]") -> bytes:
    out = bytearray(b"%PDF-1.4\n")
    offsets = [0]
    for num, body in enumerate(objs, start=1):
        offsets.append(len(out))
        out += b"%d 0 obj\n" % num + body + b"\nendobj\n"
    xref_at = len(out)
    out += b"xref\n0 %d\n" % (len(objs) + 1)
    out += b"0000000000 65535 f \n"
    for off in offsets[1:]:
        out += b"%010d 00000 n \n" % off
    out += b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n" % (
        len(objs) + 1,
        xref_at,
    )
    return bytes(out)


def _array_contents() -> bytes:
    c1 = b"BT 1 2 Td (part one) Tj ET"
    c2 = b"BT 3 4 Td (part two) Tj ET"
    return _assemble(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
            b"<< /Type /Page /Parent 2 0 R /Contents [4 0 R 5 0 R] >>",
            b"<< /Length %d >>\nstream\n" % len(c1) + c1 + b"\nendstream",
            b"<< /Length %d >>\nstream\n" % len(c2) + c2 + b"\nendstream",
        ]
    )


def test_native_declines_array_contents_python_parses():
    """Array-form /Contents [N 0 R M 0 R]: the C kernel declines-to-Python,
    and the Python parser reads both streams in order — parity via decline."""
    payload = _array_contents()
    assert native([payload]) == [None]
    assert summary_from_pure(payload)[1] == ["part one", "part two"]


def test_batch_mixes_declines_and_scratch_growth_without_shifting(monkeypatch):
    """One batch of well-formed payloads, declined ones (corrupt, xref-less,
    array /Contents, truncated xref) and one whose text overflows the
    initial scratch mid-batch: every payload gets the result it gets alone,
    equal to the pure parser's, and a decline shifts none of its
    neighbours."""
    good = [synth_pdf(f"media://pdf/{i:06d}") for i in (3, 77, 4242, 99999)]
    # ~400 KB of span text from a ~2 KB flate stream: far past the initial
    # scratch the wrapper sizes from the batch's payload bytes
    content = b"BT " + (b"(" + b"x" * 200 + b") Tj ") * 2000 + b"ET"
    big = encode_pdf([{"raw_stream": (zlib.compress(content, 9), True)}])
    assert len(content) > 16 * len(big)
    declined = [b"not a pdf", XREFLESS, _array_contents(), _truncated_xref()]
    batch = [
        good[0], declined[0], good[1], big, declined[1], good[2],
        declined[2], declined[3], good[3],
    ]
    grows = []
    create = ctypes.create_string_buffer

    def counting_create(*args):
        grows.append(threading.get_ident())
        return create(*args)

    monkeypatch.setattr(ctypes, "create_string_buffer", counting_create)
    got = []
    # a new thread starts with no scratch (it is thread-local)
    t = threading.Thread(target=lambda: got.extend(native(batch)))
    t.start()
    t.join()
    # the initial scratch, then at least one growth on the -2 code
    assert grows.count(t.ident) >= 2
    monkeypatch.undo()
    assert len(got) == len(batch)
    for payload, res in zip(batch, got):
        assert res == native([payload])[0]
        if any(payload is d for d in declined):
            assert res is None
        else:
            assert from_native(res) == folded(summary_from_pure(payload))
    assert from_native(got[3])[1] == 2000


def test_oversized_second_xref_subsection_no_oob():
    """xref pass 2 must apply pass 1's identical subsection validation: a
    second subsection with count > 1<<22 (which pass 1 rejects, so the object
    table is sized WITHOUT it) previously let pass 2 write entries past
    t->cap — heap corruption from a crafted crawl payload. Now both passes
    stop at the same point and the valid prefix still parses."""
    p = bytearray(synth_pdf("media://pdf/000007"))
    obj_off = bytes(p).find(b"1 0 obj")
    i = bytes(p).rfind(b"trailer")
    # entries point at a REAL object header so a bounds bug would actually
    # write table slots (not bail on the offset probe)
    fake = b"".join(b"%010d 00000 n \n" % obj_off for _ in range(8))
    p[i:i] = b"9 5242880\n" + fake
    assert_parity(bytes(p))
