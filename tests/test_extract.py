"""Extraction layer tests: boilerplate strip, span emission, layout stub."""

from __future__ import annotations

from html_parser_ray import parse_html
from html_parser_ray.extract.boilerplate import ExtractConfig, extract_text_blocks
from html_parser_ray.extract.extractor import SpanExtractor
from html_parser_ray.extract.layout import LayoutParser


def blocks(html: str, **cfg) -> list[str]:
    doc = parse_html(html)
    out = extract_text_blocks(doc, ExtractConfig(**cfg) if cfg else None)
    return [b.decode() for b in out]


def test_basic_article_extraction():
    html = (
        "<html><head><title>t</title><script>var x=1<2;</script></head><body>"
        "<header><h1>Site</h1><nav><a href='/a'>Home</a><a href='/b'>About</a></nav></header>"
        "<main><article><p>First paragraph of content.</p>"
        "<p>Second   paragraph with  spaces.</p></article></main>"
        "<aside class='sidebar'><p>ads here</p></aside>"
        "<footer><p>copyright</p></footer>"
        "</body></html>"
    )
    got = blocks(html)
    assert got == [
        "First paragraph of content.",
        "Second paragraph with spaces.",
    ]


def test_link_density_prunes_nav_like_blocks():
    html = (
        "<div><p id='links'><a href='/1'>one</a> <a href='/2'>two</a> "
        "<a href='/3'>three</a></p>"
        "<p id='content'>Real content with <a href='/x'>one link</a> inside a "
        "much longer paragraph of actual text.</p></div>"
    )
    got = blocks(html)
    assert got == [
        "Real content with one link inside a much longer paragraph of actual text."
    ]


def test_entities_and_normalization_in_blocks():
    html = "<p>  a &amp;   b  </p>"
    assert blocks(html) == ["a & b"]


def test_class_id_heuristics_drop_chrome():
    html = (
        "<div class='content'><p>keep me</p></div>"
        "<div class='ad'><p>buy stuff</p></div>"
        "<div id='cookie-banner'><p>accept cookies</p></div>"
        "<div class='advertising'><p>more ads</p></div>"
    )
    assert blocks(html) == ["keep me"]


def test_svg_and_rawtext_never_leak():
    html = (
        "<p>before</p><svg><text>vector</text></svg>"
        "<style>.x{}</style><script>var a;</script><p>after</p>"
    )
    assert blocks(html) == ["before", "after"]


def test_table_cells_are_blocks():
    html = "<table><tr><td>c1</td><td>c2</td></tr></table>"
    assert blocks(html) == ["c1", "c2"]


def test_bare_text_outside_blocks():
    assert blocks("hello world") == ["hello world"]


def test_deterministic():
    html = "<main><p>x</p></main>"
    assert blocks(html) == blocks(html)


def test_span_extractor_end_to_end():
    ex = SpanExtractor()
    spans = [
        {"kind": "text", "text": "  plain   text ", "media_ref": "", "offset": 0},
        {
            "kind": "html",
            "text": "<html><body><nav><a href='/'>Home</a></nav>"
            "<p>First.</p><p>Second.</p></body></html>",
            "media_ref": "",
            "offset": 1,
        },
        {"kind": "media", "text": "", "media_ref": "media://pdf/000123", "offset": 2},
    ]
    out = ex.extract_document(spans)
    assert [o["kind"] for o in out] == ["text", "text", "text", "media"]
    assert [o["offset"] for o in out] == [0, 1, 2, 3]
    assert out[0]["text"] == "plain text"
    assert out[1]["text"] == "First."
    assert out[2]["text"] == "Second."
    assert out[3]["media_ref"] == "media://pdf/000123"
    assert "layout_fingerprint" in out[3]["text"]


def test_span_extractor_empty_and_unknown_kinds():
    ex = SpanExtractor()
    assert ex.extract_document([]) == []
    out = ex.extract_document(
        [{"kind": "mystery", "text": "x", "media_ref": "", "offset": 0}]
    )
    assert out == []


def test_layout_stub_deterministic():
    a = LayoutParser().parse("media://pdf/1")
    b = LayoutParser().parse("media://pdf/1")
    c = LayoutParser().parse("media://pdf/2")
    assert a == b
    assert a != c
    assert 1 <= a["num_pages"] <= 32


def test_extract_stats_accumulate():
    ex = SpanExtractor()
    ex.extract_document([{"kind": "html", "text": "<p>x</p>", "media_ref": "", "offset": 0}])
    ex.extract_document([{"kind": "text", "text": "y", "media_ref": "", "offset": 0}])
    assert ex.stats.docs == 2
    assert ex.stats.spans_in == 2
    assert ex.stats.html_bytes == len("<p>x</p>")


def test_split_batch_counts_bytes_and_tolerates_null_text():
    """The split budget is BYTES (multi-byte text must split at the same
    byte threshold as ASCII) and a null text span must not NaN-poison its
    row's total (which silently disabled the split)."""
    import pyarrow as pa

    from html_parser_ray.sources.corpus import SPAN_STRUCT
    from html_parser_ray.stages.split import split_batch

    big_cjk = "世" * 600_000  # 600k codepoints = 1.8 MB UTF-8
    batch = pa.table(
        {
            "doc_id": pa.array(["cjk", "withnull"], type=pa.string()),
            "spans": pa.array(
                [
                    [
                        {"kind": "html", "text": big_cjk, "media_ref": "", "offset": 0},
                        {"kind": "html", "text": big_cjk, "media_ref": "", "offset": 1},
                    ],
                    [
                        {"kind": "html", "text": "x" * 3_000_000, "media_ref": "", "offset": 0},
                        {"kind": "media", "text": None, "media_ref": "m", "offset": 1},
                    ],
                ],
                type=pa.list_(SPAN_STRUCT),
            ),
        }
    )
    out = split_batch(batch, max_bytes=1_000_000, max_spans=64)
    by_doc = {}
    for row in out.to_pylist():
        by_doc.setdefault(row["doc_id"], []).append(row)
    # 2 x 1.8MB spans at a 1MB budget -> one span per fragment
    assert len(by_doc["cjk"]) == 2
    # the null-text row is 3MB oversized and MUST still split
    assert len(by_doc["withnull"]) == 2


def test_native_scratch_growth_does_not_pin_fallback():
    """A large batch grows the native scratch; subsequent small batches must
    still take the one-call path (the old len(mv)-capacity sizing counted the
    grown scratch against the int32 guard and copied it whole every batch)."""
    import pyarrow as pa

    from html_parser_ray.sources.corpus import SPAN_STRUCT
    from html_parser_ray.stages.extract_stage import ExtractSpansBatch

    stage = ExtractSpansBatch()
    big_html = "<div><p>" + ("word " * 120_000) + "</p></div>"  # ~600 KB
    big = pa.table(
        {
            "doc_id": pa.array(["big"], type=pa.string()),
            "spans": pa.array(
                [[{"kind": "html", "text": big_html, "media_ref": "", "offset": 0}]],
                type=pa.list_(SPAN_STRUCT),
            ),
        }
    )
    small_html = "<p>alpha beta</p>"
    small = pa.table(
        {
            "doc_id": pa.array(["small"], type=pa.string()),
            "spans": pa.array(
                [[{"kind": "html", "text": small_html, "media_ref": "", "offset": 0}]],
                type=pa.list_(SPAN_STRUCT),
            ),
        }
    )
    before = stage.extractor.stats.native_fallbacks
    out_big = stage(big)
    out_small = stage(small)
    assert out_big.num_rows == 1 and out_small.num_rows == 1
    got = out_small.column("spans_out").to_pylist()[0]
    assert [s["text"] for s in got] == ["alpha beta"]
    # neither batch was declined by the kernel or split
    assert stage.extractor.stats.native_fallbacks == before


def test_boilerplate_class_id_precheck_case_insensitive():
    """Attr NAMES are case-insensitive at the parse layer, so CLASS=/Id=
    must mark boilerplate exactly like their lowercase twins (the old
    byte precheck silently bypassed the verdict for them)."""
    from html_parser_ray.extract.boilerplate import extract_text_blocks
    from html_parser_ray.html.document import parse_html

    for attr in ('class="advert"', 'CLASS="advert"', 'Class="advert"'):
        html = f'<div {attr}><p>junk nav</p></div><p>real content</p>'
        got = extract_text_blocks(parse_html(html))
        assert got == [b"real content"], attr
    for attr in ('id="footer"', 'ID="footer"', 'Id="footer"'):
        html = f'<div {attr}><p>foot junk</p></div><p>keep me</p>'
        got = extract_text_blocks(parse_html(html))
        assert got == [b"keep me"], attr


def _one_span_rows(texts, doc_ids=None, kind="text") -> "pa.Table":
    import pyarrow as pa

    from html_parser_ray.sources.corpus import SPAN_STRUCT

    return pa.table(
        {
            "doc_id": pa.array(doc_ids or [f"d{i}" for i in range(len(texts))]),
            "spans": pa.array(
                [[{"kind": kind, "text": t, "media_ref": "", "offset": 0}] for t in texts],
                type=pa.list_(SPAN_STRUCT),
            ),
        }
    )


def test_batch_over_2gib_extracts_like_rows_one_at_a_time():
    """A 3-row chunked batch of 768 MiB text spans (2.25 GiB of span text,
    more than one Arrow string array can hold) extracts, by halving, to the
    same spans as its rows one at a time. The rows are overlapping slices
    of one shared 768 MiB buffer, mostly whitespace, so the test holds one
    copy of the input and each row's output is a few bytes."""
    import numpy as np
    import pyarrow as pa

    from html_parser_ray.sources.corpus import SPAN_STRUCT
    from html_parser_ray.stages.extract_stage import ExtractSpansBatch

    n = 768 << 20
    data = np.full(n + 6, ord(" "), dtype=np.uint8)
    data[:9] = np.frombuffer(b"r0 r1 r2 ", dtype=np.uint8)
    data[-9:] = np.frombuffer(b" e0 e1 e2", dtype=np.uint8)
    values = pa.py_buffer(data)

    def row_chunk(i: int) -> pa.ListArray:
        offsets = pa.py_buffer(np.array([3 * i, 3 * i + n], dtype=np.int32))
        text = pa.Array.from_buffers(pa.string(), 1, [None, offsets, values])
        struct = pa.StructArray.from_arrays(
            [pa.array(["text"]), text, pa.array([""]), pa.array([0], pa.int32())],
            fields=list(SPAN_STRUCT),
        )
        return pa.ListArray.from_arrays(pa.array([0, 1], pa.int32()), struct)

    batch = pa.table(
        {
            "doc_id": pa.chunked_array([pa.array([f"d{i}"]) for i in range(3)]),
            "spans": pa.chunked_array([row_chunk(i) for i in range(3)]),
        }
    )
    stage = ExtractSpansBatch()
    one_at_a_time = [
        stage(batch.slice(i, 1)).column("spans_out")[0].as_py() for i in range(3)
    ]
    assert [[s["text"] for s in row] for row in one_at_a_time] == [
        ["r0 r1 r2 e0"], ["r1 r2 e0 e1"], ["r2 e0 e1 e2"]
    ]
    assert stage.extractor.stats.native_fallbacks == 0
    out = stage(batch)
    assert out.column("doc_id").to_pylist() == ["d0", "d1", "d2"]
    assert out.column("spans_out").to_pylist() == one_at_a_time
    assert stage.extractor.stats.native_fallbacks > 0


def test_output_over_int32_offsets_halves_batch(monkeypatch):
    """Output that would overflow the int32 offsets halves the batch by rows
    (counted), and each emitted span is counted once; a single row that
    still overflows raises naming its doc."""
    import pytest

    import html_parser_ray.stages.extract_stage as stage_mod

    texts = ["alpha  beta", "gamma\tdelta", "epsilon zeta", "eta   theta"]
    normal = stage_mod.ExtractSpansBatch()(_one_span_rows(texts))

    monkeypatch.setattr(stage_mod, "INT32_OFFSET_MAX", 30)
    stage = stage_mod.ExtractSpansBatch()
    out = stage(_one_span_rows(texts))
    assert out.equals(normal)
    emitted = sum(map(len, out.column("spans_out").to_pylist()))
    assert stage.extractor.stats.spans_out == emitted == 4
    assert stage.extractor.stats.native_fallbacks == 1
    # one call, halved below it: one batch of four docs
    assert (stage.extractor.stats.batches, stage.extractor.stats.docs) == (1, 4)

    with pytest.raises(OverflowError, match="'big'"):
        stage(_one_span_rows(["x" * 31], doc_ids=["big"]))


def test_dom_kernel_counts_parse_errors_per_doc(monkeypatch):
    """When the DOM oracle extracts a batch's html, a doc the parser raises
    on yields no blocks and one parse error in the stats, and the
    per-document oracle (the same ``dom_blocks``) agrees."""
    import html_parser_ray.extract.extractor as extractor_mod
    import html_parser_ray.stages.extract_stage as stage_mod

    real_parse = extractor_mod.parse_html

    def parse(src, *a):
        if src == b"<boom>":
            raise ValueError("synthetic parser failure")
        return real_parse(src, *a)

    monkeypatch.setattr(extractor_mod, "parse_html", parse)
    table = _one_span_rows(["<p>x</p>", "<boom>", "<p>y</p>"], kind="html")
    stage = stage_mod.ExtractSpansBatch()
    stage._html_kernel = stage._dom_blocks
    out = stage(table).to_pylist()
    assert [[s["text"] for s in r["spans_out"]] for r in out] == [["x"], [], ["y"]]
    assert stage.extractor.stats.parse_errors == 1
    oracle = SpanExtractor(layout_memo=False)
    want = [oracle.extract_document(spans) for spans in table.column("spans").to_pylist()]
    assert [r["spans_out"] for r in out] == want
    assert oracle.stats.parse_errors == 1


def test_halved_dom_batch_counts_each_parse_error_once(monkeypatch):
    """A batch whose html goes through the DOM path and whose output then
    overflows the int32 offsets is halved and re-extracted: each doc the
    parser raises on is counted once, not once per attempt."""
    import pyarrow as pa

    import html_parser_ray.extract.extractor as extractor_mod
    import html_parser_ray.stages.extract_stage as stage_mod
    from html_parser_ray.sources.corpus import SPAN_STRUCT

    real_parse = extractor_mod.parse_html

    def parse(src, *a):
        if src == b"<boom>":
            raise ValueError("synthetic parser failure")
        return real_parse(src, *a)

    monkeypatch.setattr(extractor_mod, "parse_html", parse)
    # each doc: a short html span, then a media span whose layout JSON
    # makes the output far larger than the input span text
    htmls = ["<p>x</p>", "<boom>", "<p>y</p>", "<boom>"]
    table = pa.table(
        {
            "doc_id": [f"d{i}" for i in range(4)],
            "spans": pa.array(
                [
                    [
                        {"kind": "html", "text": h, "media_ref": "", "offset": 0},
                        {"kind": "media", "text": "", "media_ref": "media://pdf/000001", "offset": 1},
                    ]
                    for h in htmls
                ],
                type=pa.list_(SPAN_STRUCT),
            ),
        }
    )

    def dom_stage():
        stage = stage_mod.ExtractSpansBatch()
        stage._html_kernel = stage._dom_blocks
        return stage

    normal = dom_stage()(table)
    out_bytes = sum(
        len(s["text"].encode()) for r in normal.column("spans_out").to_pylist() for s in r
    )
    # the whole batch's output overflows, either half's does not
    monkeypatch.setattr(stage_mod, "INT32_OFFSET_MAX", out_bytes - 1)
    stage = dom_stage()
    assert stage(table).equals(normal)
    st = stage.extractor.stats
    assert (st.batches, st.docs, st.native_fallbacks) == (1, 4, 1)
    assert st.parse_errors == 2


def _media_rows(refs_per_doc) -> "pa.Table":
    """One doc per entry: an html span, a text span, then media spans with
    the entry's refs."""
    import pyarrow as pa

    from html_parser_ray.sources.corpus import SPAN_STRUCT

    docs = []
    for refs in refs_per_doc:
        spans = [
            {"kind": "html", "text": "<p>lead  text</p>", "media_ref": "", "offset": 0},
            {"kind": "text", "text": " caption ", "media_ref": "", "offset": 1},
        ]
        spans += [
            {"kind": "media", "text": "", "media_ref": r, "offset": 2 + k}
            for k, r in enumerate(refs)
        ]
        docs.append(spans)
    return pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(docs))]),
            "spans": pa.array(docs, type=pa.list_(SPAN_STRUCT)),
        }
    )


def _decode_log(extractor) -> "list[str]":
    """Refs ``extractor`` decodes from now on, in order: wraps the layout
    parser's batch decode ``layout_jsons`` on the instance, after
    construction."""
    log: "list[str]" = []
    inner = extractor.layout.layout_jsons

    def layout_jsons(refs: "list[str]") -> "tuple[list[bytes], int]":
        log.extend(refs)
        return inner(refs)

    extractor.layout.layout_jsons = layout_jsons
    return log


def _assert_oracle_equal(table, out) -> None:
    oracle = SpanExtractor(layout_memo=False)
    oracle.layout._native = None
    want = [oracle.extract_document(spans) for spans in table.column("spans").to_pylist()]
    assert out.column("spans_out").to_pylist() == want


def test_layout_memo_evicts_least_recently_used(monkeypatch):
    """Past the cap the least recently used ref is evicted: a ref used
    recently is served without a decode, the oldest is decoded again, and
    the output equals the DOM oracle's throughout."""
    import html_parser_ray.extract.extractor as extractor_mod
    from html_parser_ray.stages.extract_stage import ExtractSpansBatch

    monkeypatch.setattr(extractor_mod, "LAYOUT_MEMO_CAP", 8)
    stage = ExtractSpansBatch()
    decoded = _decode_log(stage.extractor)
    refs = [f"media://pdf/{i:06d}" for i in range(10)]

    first = _media_rows([refs[:4], refs[4:8], refs[:2]])
    _assert_oracle_equal(first, stage(first))
    assert decoded == refs[:8]

    # refs[0] becomes the most recent; refs[8:10] then evict refs[1], refs[2]
    second = _media_rows([[refs[0], refs[8]], [refs[9]]])
    _assert_oracle_equal(second, stage(second))
    assert decoded == refs[:10]

    third = _media_rows([[refs[0], refs[1]]])
    _assert_oracle_equal(third, stage(third))
    assert decoded == refs[:10] + [refs[1]]
    assert len(stage.extractor._layout_memo) == 8
    st = stage.extractor.stats
    assert (st.layout_decodes, st.layout_hits, st.layout_evictions) == (11, 2, 3)
    assert st.layout_native_declined == 0


def test_layout_memo_evicts_inside_one_batch(monkeypatch):
    """A batch with more unique refs than the cap, some already memoized:
    the memo probes every ref first (the hits move to the recent end), then
    inserts the misses in batch order and evicts the least recently used
    past the cap, refs of this batch included. Output equals the oracle's
    and the next batch sees exactly the refs the order keeps."""
    import html_parser_ray.extract.extractor as extractor_mod
    from html_parser_ray.stages.extract_stage import ExtractSpansBatch

    monkeypatch.setattr(extractor_mod, "LAYOUT_MEMO_CAP", 4)
    stage = ExtractSpansBatch()
    decoded = _decode_log(stage.extractor)
    refs = [f"media://pdf/{i:06d}" for i in range(8)]

    first = _media_rows([refs[:4]])
    _assert_oracle_equal(first, stage(first))
    assert decoded == refs[:4]

    # unique refs, in batch order: 4, 1, 5, 6, 0 (five, over the cap of
    # four); 1 and 0 hit and move to the recent end, [2, 3, 1, 0], then the
    # misses 4, 5, 6 go in and evict 2, 3, 1
    second = _media_rows([[refs[4], refs[1]], [refs[5], refs[6], refs[0], refs[1]]])
    _assert_oracle_equal(second, stage(second))
    assert decoded == refs[:7]
    memo = stage.extractor._layout_memo
    assert list(memo) == [refs[0], refs[4], refs[5], refs[6]]
    st = stage.extractor.stats
    assert (st.layout_hits, st.layout_decodes, st.layout_evictions) == (2, 7, 3)

    third = _media_rows([[refs[6], refs[1]]])
    _assert_oracle_equal(third, stage(third))
    assert decoded == refs[:7] + [refs[1]]
    assert list(memo) == [refs[4], refs[5], refs[6], refs[1]]
    assert (st.layout_hits, st.layout_decodes, st.layout_evictions) == (3, 8, 4)


def test_layout_memo_on_and_off_decode_counts():
    """With the memo on, an actor or a per-document extractor decodes each
    distinct ref once; with ``layout_memo=False`` (the oracle) an extractor
    decodes every media span."""
    from html_parser_ray.stages.extract_stage import ExtractSpansBatch

    a, b, c = (f"media://pdf/{i:06d}" for i in (1, 2, 3))
    batches = [_media_rows([[a, b, a], [b]]), _media_rows([[a, c], [c, a]])]

    stage = ExtractSpansBatch()
    decoded = _decode_log(stage.extractor)
    for batch in batches:
        _assert_oracle_equal(batch, stage(batch))
    assert decoded == [a, b, c]
    st = stage.extractor.stats
    # unique refs per batch: [a, b] then [a, c]
    assert (st.layout_decodes, st.layout_hits, st.layout_evictions) == (3, 1, 0)

    for memo, want in ((True, [a, b, c]), (False, [a, b, a, b, a, c, c, a])):
        ex = SpanExtractor(layout_memo=memo)
        decoded = _decode_log(ex)
        for batch in batches:
            for spans in batch.column("spans").to_pylist():
                ex.extract_document(spans)
        assert decoded == want
        assert ex.stats.layout_decodes == len(want)
        assert ex.stats.layout_hits == 8 - len(want)


def test_layout_decode_in_chunks_matches_one_call(monkeypatch):
    """A batch's misses decode in calls of at most ``LAYOUT_DECODE_CHUNK``
    refs, in order, and the stage's output, memo order and every
    ``ExtractStats`` count equal those of one decode call over all of them,
    with hits, a non-PDF ref and evictions inside the batch."""
    import dataclasses

    import html_parser_ray.extract.extractor as extractor_mod
    from html_parser_ray.stages.extract_stage import ExtractSpansBatch

    monkeypatch.setattr(extractor_mod, "LAYOUT_MEMO_CAP", 9)
    refs = [f"media://pdf/{i:06d}" for i in range(11)] + ["media://image/a.png"]
    first = _media_rows([refs[:2]])
    # 10 distinct misses (refs[2:12]) and 2 hits, past the cap of 9
    second = _media_rows([[refs[2], refs[0], refs[3]], refs[4:8], [refs[1], *refs[8:12], refs[5]]])

    def run(chunk: int):
        monkeypatch.setattr(extractor_mod, "LAYOUT_DECODE_CHUNK", chunk)
        stage = ExtractSpansBatch()
        calls: "list[list[str]]" = []
        inner = stage.extractor.layout.layout_jsons
        stage.extractor.layout.layout_jsons = lambda r: calls.append(list(r)) or inner(r)
        outs = [stage(first), stage(second)]
        memo = stage.extractor._layout_memo
        return outs, list(memo.items()), dataclasses.asdict(stage.extractor.stats), calls

    outs, memo, stats, calls = run(3)
    one_outs, one_memo, one_stats, one_calls = run(1 << 20)
    assert one_calls == [refs[:2], refs[2:12]]
    assert calls == [refs[:2], refs[2:5], refs[5:8], refs[8:11], refs[11:12]]
    for out, one in zip(outs, one_outs):
        assert out.equals(one)
    _assert_oracle_equal(second, outs[1])
    assert memo == one_memo and len(memo) == 9
    assert stats == one_stats
    assert (stats["layout_decodes"], stats["layout_hits"], stats["layout_evictions"]) == (12, 2, 3)

    # without the memo (the oracle) every ref decodes, in the same chunks
    monkeypatch.setattr(extractor_mod, "LAYOUT_DECODE_CHUNK", 5)
    oracle = SpanExtractor(layout_memo=False)
    sizes: "list[int]" = []
    inner = oracle.layout.layout_jsons
    oracle.layout.layout_jsons = lambda r: sizes.append(len(r)) or inner(r)
    assert oracle.layout_jsons(refs) == inner(refs)[0]
    assert sizes == [5, 5, 2] and oracle.stats.layout_decodes == len(refs)
