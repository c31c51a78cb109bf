"""Native (C) extractor must be byte-identical to the DOM oracle
(``extract_text_blocks(parse_html(...))``), per document, per multi-document
batch and through the batch stage. The kernel is called through its one
batch entry point (``tests/_native_kernel.py``).

Skips when the native path is unavailable (no system compiler) — the engine
then runs the DOM path everywhere, covered by the other suites.
"""

from __future__ import annotations

import random

import numpy as np
import pyarrow as pa
import pytest

from _native_kernel import native_batch, native_blocks, needs_kernel
from html_parser_ray.extract.boilerplate import extract_text_blocks
from html_parser_ray.extract.extractor import SpanExtractor
from html_parser_ray.html.document import parse_html
from html_parser_ray.sources import corpus as corpus_mod
from html_parser_ray.sources.corpus import SPAN_STRUCT
from html_parser_ray.stages.extract_stage import ExtractSpansBatch
from tests.test_fused_parity import EDGE_CASES

pytestmark = needs_kernel

PATHOLOGICAL = [
    b"", b"<", b"&", b"\x00" * 64, b"<" * 500, b"&" * 500, b">" * 100,
    b"<p>" + b"&amp;" * 2000 + b"</p>", bytes(range(256)) * 4,
]


def dom(src: bytes) -> "list[bytes]":
    return extract_text_blocks(parse_html(src))


def _corpus_sources(per_family: int = 40) -> "list[bytes]":
    out = []
    for fi, fam in enumerate(corpus_mod._HTML_FAMILIES):
        for seed in range(per_family):
            out.append(fam(random.Random((fi << 16) ^ seed)).encode())
    return out


def test_fuzz_parity():
    pieces = [
        "<div>", "</div>", "<p>", "</p>", "<li>", "</ul>", "<ul>", "<span>",
        "</span>", "<a href='x'>", "</a>", "text ", "&amp; ", "  ", "<br>",
        "<script>s</script>", "<!-- c -->", "<b", ">", "<", "</crazy>",
        "<table>", "<tr>", "<td>", "cell", "<img src='i'>",
        "<div class='menu'>", "<aside>", "</aside>", "\n\t", "&#65;",
        "&#x1F600;", "<svg>", "</svg>", "<textarea>", "</textarea>",
        "<PLAINTEXT>", "<?pi?>", "<!doctype>", "</p >", "< sp>", "<div<div>",
        "&bogus;", "&lt", "<p CLASS='SideBar'>", "<input type=x>",
        "<address>", "</address>", "<caption>", "<div class='yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy sidebar'>", "<p id=advert-x>", "word&#x20;next", "&#0;", "&#1114111;", "&#1114112;",
    ]
    for seed in range(600):
        rng = random.Random(seed)
        src = "".join(
            rng.choice(pieces) for _ in range(rng.randint(1, 80))
        ).encode()
        assert native_blocks(src) == dom(src), (seed, src[:120])


def test_empty_and_pathological_inputs():
    for src in PATHOLOGICAL:
        assert native_blocks(src) == dom(src), src[:40]


def test_edge_and_pathological_inputs_as_one_batch():
    """The edge cases and pathological inputs as raw bytes (NUL, 0xff, every
    byte value, 4,200-byte class names) in ONE kernel call, forward and
    reversed: the kernel reuses its scratch across documents and writes at
    running offsets, and each document's blocks must still equal its DOM
    blocks."""
    srcs = list(EDGE_CASES) + PATHOLOGICAL
    want = [dom(src) for src in srcs]
    for order in (1, -1):
        assert native_batch(srcs[::order]) == want[::order], order


def _html_table(sources: "list[bytes]") -> pa.Table:
    rows = [
        [
            {"kind": "text", "text": f"lead {i}", "media_ref": "", "offset": 0},
            {"kind": "html", "text": src.decode("utf-8", "replace"), "media_ref": "", "offset": 1},
        ]
        for i, src in enumerate(sources)
    ]
    return pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(rows))]),
            "spans": pa.array(rows, type=pa.list_(SPAN_STRUCT)),
        }
    )


def _oracle_rows(table: pa.Table) -> "list[list[dict]]":
    ex = SpanExtractor(layout_memo=False)
    ex.layout._native = None
    return [ex.extract_document(r) for r in table.column("spans").to_pylist()]


def _span(kind, text="", media_ref="") -> dict:
    return {"kind": kind, "text": text, "media_ref": media_ref, "offset": 0}


def _span_struct(**types) -> pa.StructType:
    """``SPAN_STRUCT`` with the field types ``types`` replaced."""
    return pa.struct([(f.name, types.get(f.name, f.type)) for f in SPAN_STRUCT])


# other encodings of the spans column that readers produce (Lance writes
# large strings and lists and may dictionary-encode a string field)
SPAN_ENCODINGS = [
    pa.list_(_span_struct(text=pa.large_string(), media_ref=pa.large_string())),
    pa.list_(_span_struct(kind=pa.dictionary(pa.int32(), pa.string()))),
    pa.large_list(SPAN_STRUCT),
    pa.large_list(
        _span_struct(
            kind=pa.dictionary(pa.int8(), pa.string()),
            text=pa.dictionary(pa.int32(), pa.large_string()),
            media_ref=pa.large_string(),
        )
    ),
]


def _shape_batches() -> "list[pa.Table]":
    """Batch shapes the stage's span pool and pool index must handle:
    NULL and empty rows (one NULL row backed by a non-empty sub-list), NULL
    fields and unknown kinds, spans that emit nothing, single-kind batches
    and repeated refs; then each of those again in every encoding of
    ``SPAN_ENCODINGS``. Each table also carries an int32 column ``n`` (with
    a NULL) that the stage must pass through."""
    html = "<div><p>alpha  beta</p><p>gamma</p></div>"
    pdf, pdf2, img = "media://pdf/000001", "media://pdf/000002", "media://img/x"
    batches = [
        [[_span("text", " lead ")], None, [], [_span("html", html)], None, []],
        [
            [{"kind": None, "text": "x", "media_ref": "r", "offset": 0},
             _span("text", None), _span("html", None), _span("media", None, None)],
            [_span("video", "v"), _span("TEXT", "upper"), _span("text", "kept")],
            [_span("", "no kind"), _span("media", "", pdf)],
        ],
        [
            [_span("text", " \n\t "), _span("html", "<script>x</script>"), _span("text", "")],
            [_span("html", ""), _span("html", html), _span("text", "\x0c")],
            [_span("html", "<nav><a href='#'>home</a></nav>"), _span("text", "after")],
        ],
        [[_span("media", "", r) for r in (pdf, pdf2, img, pdf)],
         [_span("media", "", pdf2)] * 3, [_span("media", "", img)]],
        [[_span("text", f" t{i}  x ")] for i in range(4)],
        [[_span("html", html)] * 2, [_span("html", "<p>one</p>")], [_span("html", html)]],
    ]
    tables = [
        pa.table(
            {
                "doc_id": pa.array([f"d{i}" for i in range(len(rows))]),
                "spans": pa.array(rows, type=pa.list_(SPAN_STRUCT)),
            }
        )
        for rows in batches
    ]
    values = pa.array([_span("text", f"v{i}") for i in range(4)], type=SPAN_STRUCT)
    null_backed = pa.ListArray.from_arrays(
        pa.array([0, 1, 3, 4], pa.int32()), values, mask=pa.array([False, True, False])
    )
    tables.append(pa.table({"doc_id": ["a", "b", "c"], "spans": null_backed}))
    tables += [
        t.set_column(1, "spans", t.column("spans").cast(enc))
        for t in list(tables)
        for enc in SPAN_ENCODINGS
    ]
    return [
        t.append_column(
            "n", pa.array([None, *range(7, 7 + t.num_rows - 1)], type=pa.int32())
        )
        for t in tables
    ]


def _shapes() -> "list[pa.Table]":
    """Each of ``_shape_batches`` whole, as a slice at a nonzero offset and
    as a two-chunk table."""
    shapes = []
    for t in _shape_batches():
        half = t.num_rows // 2
        shapes += [t, t.slice(1), pa.concat_tables([t.slice(0, half), t.slice(half)])]
    return shapes


def test_scalar_config_variants_extractor_and_stage():
    """With the native kernel active, the extraction equals the DOM oracle
    per document (a one-document kernel call) and per batch
    (ExtractSpansBatch) over the edge cases and the corpus families. Per
    batch, the batch shapes of ``_shape_batches`` are also fed whole, as a
    slice at a nonzero offset and as a two-chunk table, to the native
    kernel and to the DOM twin."""
    sources = list(EDGE_CASES) + _corpus_sources(per_family=10)
    for src in sources:
        assert native_blocks(src) == dom(src), src[:80]
    # the stage decodes html as UTF-8 text, so compare on decoded input
    table = _html_table(sources)
    stage = ExtractSpansBatch()
    assert getattr(stage._html_kernel, "__self__", None) is not stage
    assert stage(table).column("spans_out").to_pylist() == _oracle_rows(table)
    assert stage.extractor.stats.native_fallbacks == 0
    dom_stage = ExtractSpansBatch()
    dom_stage._html_kernel = dom_stage._dom_blocks
    for k, shape in enumerate(_shapes()):
        want = _oracle_rows(shape)
        for st in (stage, dom_stage):
            out = st(shape)
            assert out.column_names == ["doc_id", "spans_out", "n"]
            assert out.column("doc_id").equals(shape.column("doc_id"))
            assert out.column("n").equals(shape.column("n"))
            assert out.column("spans_out").to_pylist() == want, k
    assert stage.extractor.stats.native_fallbacks == 0


def test_stage_passes_other_columns_through():
    """``doc_id`` first, ``spans_out`` second, then every other input column
    except ``spans``, in input order and unchanged, also when an overflow
    halves the batch; the spans still equal the DOM oracle."""
    stage = ExtractSpansBatch()
    real = stage._emit

    def capacity(batch):
        # halving reaches one-row batches, which the real emit takes
        if batch.num_rows > 1:
            raise OverflowError("synthetic >2GB batch")
        return real(batch)

    for k, shape in enumerate(_shapes()):
        # an extra column ahead of doc_id and one after n
        t = shape.select(["n", "doc_id", "spans"]).append_column(
            "tag", pa.array([f"t{i}" for i in range(shape.num_rows)])
        )
        want = _oracle_rows(t)
        for emit in (real, capacity):
            stage._emit = emit
            out = stage(t)
            assert out.column_names == ["doc_id", "spans_out", "n", "tag"]
            for name in ("doc_id", "n", "tag"):
                assert out.column(name).equals(t.column(name)), (k, name)
            assert out.column("spans_out").to_pylist() == want, k


def test_stage_output_does_not_alias_native_scratch():
    """The span pool wraps the native kernel's thread-local, grow-only
    scratch zero-copy, so the output must own its bytes: a later, larger
    batch that rewrites the scratch leaves an earlier output unchanged, and
    no output buffer points into the scratch."""
    stage = ExtractSpansBatch()
    real = stage._html_kernel
    scratch = []

    def kernel(*args):
        res = real(*args)
        addr = np.frombuffer(res[0], dtype=np.uint8).ctypes.data
        scratch.append((addr, addr + len(res[0])))
        return res

    stage._html_kernel = kernel

    def html_rows(html: str, n: int) -> pa.Table:
        spans = pa.array([[_span("html", html)]] * n, type=pa.list_(SPAN_STRUCT))
        return pa.table({"doc_id": [f"d{i}" for i in range(n)], "spans": spans})

    # html-only, so every output span is a kernel block
    out1 = stage(html_rows("<p>first doc</p><p>two</p>", 4))
    copy1 = pa.Table.from_pylist(out1.to_pylist(), schema=out1.schema)
    stage(html_rows("<div><p>" + "second larger " * 2000 + "</p></div>", 8))
    # the second batch rewrote the same scratch the first one was read from
    assert scratch[0] == scratch[1]
    assert out1.equals(copy1)
    for col in out1.columns:
        for chunk in col.chunks:
            for buf in chunk.buffers():
                if buf is not None and buf.size:
                    for lo, hi in scratch:
                        assert buf.address + buf.size <= lo or buf.address >= hi


def test_kernel_scratch_grows_for_a_block_dense_batch_after_a_text_batch():
    """The kernel's scratch is sized by the first batch that needs it; a
    later batch with more blocks per byte must grow it, not be declined.
    A ~200 KB text batch, then a 240 KB ``<p>a``x60,000 batch (60,000
    blocks), through one fresh wrapper: no fallback, oracle output."""
    from html_parser_ray import native

    stage = ExtractSpansBatch()
    stage._html_kernel = native._make_batch_wrapper(native._build_lib())
    text = _html_table([b"word " * 40000])
    dense = _html_table([b"<p>a" * 60000])
    assert stage(text).column("spans_out").to_pylist() == _oracle_rows(text)
    out = stage(dense).column("spans_out").to_pylist()
    assert stage.extractor.stats.native_fallbacks == 0
    assert len(out[0]) == 60001  # the lead text span and 60,000 blocks
    assert out == _oracle_rows(dense)


def test_batch_stage_counts_native_fallbacks():
    """The stage's two slower paths are chosen deliberately and counted in
    ``native_fallbacks``: a declined native call (DOM oracle for that batch)
    and a size overflow (batch halved by rows). Any other error escapes."""
    table = _html_table(list(EDGE_CASES[:12]))
    normal_stage = ExtractSpansBatch()
    normal = normal_stage(table)
    assert normal_stage.extractor.stats.native_fallbacks == 0
    assert normal.column("spans_out").to_pylist() == _oracle_rows(table)

    # size overflow on any batch with more than one html doc: halving
    # reaches one-doc batches, which the real kernel extracts
    stage = ExtractSpansBatch()
    real = stage._html_kernel

    def capacity(values_addr, offsets, *rest):
        if len(offsets) - 1 > 1:
            raise OverflowError("synthetic >2GB batch")
        return real(values_addr, offsets, *rest)

    stage._html_kernel = capacity
    assert stage(table).equals(normal)
    assert stage.extractor.stats.native_fallbacks > 0

    # a declined native call runs the DOM oracle for that batch, counted
    stage = ExtractSpansBatch()
    stage._html_kernel = lambda *a: None
    assert stage(table).equals(normal)
    assert stage.extractor.stats.native_fallbacks == 1
    assert stage.extractor.stats.parse_errors == 0

    # an UNKNOWN exception must escape (observable), not silently degrade
    def unexpected(*a, **k):
        raise RuntimeError("regression in the vectorized emit path")

    stage._html_kernel = unexpected
    with pytest.raises(RuntimeError):
        stage(table)


def test_non_size_arrow_error_escapes_without_halving():
    """Only the size guards' OverflowError halves a batch. Any other Arrow
    error escapes with its own message, and no halving is counted: a
    ``text`` field of binary spans holding invalid UTF-8 (rejected by the
    cast to the spans type), and an ArrowInvalid raised by the kernel."""
    bad = pa.table(
        {
            "doc_id": ["d0", "d1", "d2"],
            "spans": pa.array(
                [[_span("text", b"fine")], [_span("text", b"\xff\xfe bad")], []],
                type=pa.list_(_span_struct(text=pa.binary())),
            ),
        }
    )
    stage = ExtractSpansBatch()
    with pytest.raises(pa.ArrowInvalid, match="UTF8"):
        stage(bad)
    assert stage.extractor.stats.native_fallbacks == 0

    def invalid(*args):
        raise pa.ArrowInvalid("synthetic non-size error")

    stage._html_kernel = invalid
    with pytest.raises(pa.ArrowInvalid, match="synthetic non-size error"):
        stage(_html_table(list(EDGE_CASES[:4])))
    assert stage.extractor.stats.native_fallbacks == 0
